//! The configuration poset (§5, Figure 5/8).

/// A labeled node of the configuration poset.
#[derive(Debug, Clone)]
pub struct ConfigNode {
    /// Index into the originating configuration space.
    pub index: usize,
    /// Display label.
    pub label: String,
    /// Measured performance (the user-chosen metric; higher is better —
    /// requests/s in the Figure 8 instantiation).
    pub performance: f64,
}

/// A partially ordered set of configurations.
///
/// `leq(a, b)` means *a is probabilistically at most as safe as b* —
/// node `b` dominates node `a` in every §5 safety dimension.
#[derive(Debug)]
pub struct Poset {
    nodes: Vec<ConfigNode>,
    /// `leq[a][b]` = a ≤ b.
    leq: Vec<Vec<bool>>,
}

impl Poset {
    /// Builds a poset over arbitrary labeled nodes from a safety order
    /// predicate: `leq(a, b)` must hold exactly when node `a` is
    /// probabilistically at most as safe as node `b` under the §5
    /// assumptions. The predicate is evaluated over every ordered pair
    /// and materialized into the dense relation matrix; callers are
    /// responsible for it actually being a partial order
    /// ([`Poset::check_axioms`] verifies).
    ///
    /// The one predicate handed in outside tests is
    /// `flexos_sweep::sweep_leq`, the §5 order over a `SpaceSpec`'s
    /// points (its unit tests check the axioms on the Figure 6 space).
    pub fn new(nodes: Vec<ConfigNode>, leq_fn: impl Fn(usize, usize) -> bool) -> Poset {
        let n = nodes.len();
        let mut leq = vec![vec![false; n]; n];
        for (a, row) in leq.iter_mut().enumerate() {
            for (b, slot) in row.iter_mut().enumerate() {
                *slot = leq_fn(a, b);
            }
        }
        Poset { nodes, leq }
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the poset is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node accessor.
    pub fn node(&self, i: usize) -> &ConfigNode {
        &self.nodes[i]
    }

    /// The safety order: `a ≤ b`.
    pub fn leq(&self, a: usize, b: usize) -> bool {
        self.leq[a][b]
    }

    /// Strict order: `a < b`.
    pub fn lt(&self, a: usize, b: usize) -> bool {
        a != b && self.leq[a][b]
    }

    /// Maximal elements of the sub-poset induced by `keep` (no kept node
    /// strictly dominates them) — the Figure 8 stars when `keep` is the
    /// budget-satisfying set.
    pub fn maximal_among(&self, keep: &[usize]) -> Vec<usize> {
        keep.iter()
            .copied()
            .filter(|&a| !keep.iter().any(|&b| self.lt(a, b)))
            .collect()
    }

    /// Checks the partial-order axioms (used by property tests).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated axiom.
    pub fn check_axioms(&self) -> Result<(), String> {
        let n = self.nodes.len();
        for a in 0..n {
            if !self.leq[a][a] {
                return Err(format!("not reflexive at {a}"));
            }
        }
        for a in 0..n {
            for b in 0..n {
                if a != b && self.leq[a][b] && self.leq[b][a] {
                    return Err(format!("not antisymmetric: {a} <=> {b}"));
                }
                for c in 0..n {
                    if self.leq[a][b] && self.leq[b][c] && !self.leq[a][c] {
                        return Err(format!("not transitive: {a} <= {b} <= {c}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Directed edges of the DAG view (cover relation: a < b with nothing
    /// in between), pointing from safer to less safe as in Figure 5.
    pub fn cover_edges(&self) -> Vec<(usize, usize)> {
        let n = self.nodes.len();
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if !self.lt(a, b) {
                    continue;
                }
                let covered = (0..n).any(|c| self.lt(a, c) && self.lt(c, b));
                if !covered {
                    edges.push((a, b));
                }
            }
        }
        edges
    }
}
