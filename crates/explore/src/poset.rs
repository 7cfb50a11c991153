//! The configuration poset (§5, Figure 5/8).

use crate::relation::{ones, Relation};

/// A partially ordered set of configurations: each node's measured
/// performance and the safety order over them, compared on demand.
///
/// `leq(a, b)` means *a is probabilistically at most as safe as b* —
/// node `b` dominates node `a` in every §5 safety dimension. Nodes are
/// positions `0..len()`; callers derive a label where they print one.
pub struct Poset<'a> {
    /// Measured performance per node (the user-chosen metric; higher
    /// is better — requests/s in the Figure 8 instantiation).
    performance: Vec<f64>,
    leq: Box<dyn Fn(usize, usize) -> bool + 'a>,
}

impl<'a> Poset<'a> {
    /// Builds a poset over `performance.len()` nodes from a safety order
    /// predicate: `leq(a, b)` must hold exactly when node `a` is
    /// probabilistically at most as safe as node `b` under the §5
    /// assumptions. The predicate is kept, not tabulated: every
    /// comparison calls it, so a star report pays only for the pairs it
    /// compares. Callers are responsible for it actually being a partial
    /// order ([`Poset::check_axioms`] verifies).
    ///
    /// The one predicate handed in outside tests is
    /// `flexos_sweep::sweep_leq`, the §5 order over a `SpaceSpec`'s
    /// points (its unit tests check the axioms on the Figure 6 space).
    pub fn new(performance: Vec<f64>, leq: impl Fn(usize, usize) -> bool + 'a) -> Poset<'a> {
        Poset {
            performance,
            leq: Box::new(leq),
        }
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.performance.len()
    }

    /// `true` when the poset is empty.
    pub fn is_empty(&self) -> bool {
        self.performance.is_empty()
    }

    /// Measured performance of node `i`.
    pub fn performance(&self, i: usize) -> f64 {
        self.performance[i]
    }

    /// The safety order: `a ≤ b`.
    pub fn leq(&self, a: usize, b: usize) -> bool {
        (self.leq)(a, b)
    }

    /// Strict order: `a < b`.
    pub fn lt(&self, a: usize, b: usize) -> bool {
        a != b && self.leq(a, b)
    }

    /// Checks the partial-order axioms (used by property tests):
    /// reflexivity from the predicate, since [`Relation::new`] sets the
    /// diagonal, then antisymmetry and transitivity from up-set rows.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated axiom.
    pub fn check_axioms(&self) -> Result<(), String> {
        let n = self.len();
        if let Some(a) = (0..n).find(|&a| !self.leq(a, a)) {
            return Err(format!("not reflexive at {a}"));
        }
        let rel = Relation::new(n, |a, b| self.leq(a, b));
        for a in 0..n {
            for b in ones(rel.up(a)) {
                if a != b && rel.leq(b, a) {
                    return Err(format!("not antisymmetric: {a} <=> {b}"));
                }
                // The first c ≥ b that is not ≥ a, read off up(b) \ up(a).
                let escaped = rel.up(b).iter().zip(rel.up(a)).map(|(ub, ua)| ub & !ua);
                if let Some((w, bits)) = escaped.enumerate().find(|&(_, bits)| bits != 0) {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    return Err(format!("not transitive: {a} <= {b} <= {c}"));
                }
            }
        }
        Ok(())
    }

    /// Directed edges of the DAG view (cover relation: a < b with nothing
    /// in between, so `up(a) ∩ down(b)` is exactly `{a, b}`), pointing
    /// from safer to less safe as in Figure 5.
    pub fn cover_edges(&self) -> Vec<(usize, usize)> {
        let rel = Relation::new(self.len(), |a, b| self.leq(a, b));
        let span = |a: usize, b: usize| -> u32 {
            let pairs = rel.up(a).iter().zip(rel.down(b));
            pairs.map(|(u, d)| (u & d).count_ones()).sum()
        };
        (0..self.len())
            .flat_map(|a| ones(rel.up(a)).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && span(a, b) == 2)
            .collect()
    }
}
