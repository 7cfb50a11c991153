//! Budget pruning and star extraction (§5 "Partial Safety Ordering in
//! Practice", Figure 8).
//!
//! The user provides a performance budget (e.g. ≥ 500k requests/s); the
//! toolchain labels the poset with measured performance, prunes nodes
//! below the budget, and reports the maximal elements of what survives —
//! the most secure configurations that satisfy the budget.

use crate::poset::Poset;
use crate::relation::{ones, Relation};

/// Result of the exploration.
#[derive(Debug, Clone)]
pub struct StarReport {
    /// Indices meeting the budget.
    pub surviving: Vec<usize>,
    /// Indices of the starred (maximal surviving) configurations.
    pub stars: Vec<usize>,
}

impl StarReport {
    /// Number of configurations pruned away.
    pub fn pruned(&self, total: usize) -> usize {
        total - self.surviving.len()
    }
}

/// Prunes `poset` under a *per-node* budget and stars the safest
/// survivors: node `i` survives when its performance meets
/// `budget_of(i)`. A uniform budget is `|_| budget`; one fractional
/// budget per workload group, each applied to the nodes driving that
/// workload, is the budget **vector** over heterogeneous spaces. The
/// stars are [`maximal_among`] the survivors.
pub fn prune_and_star_by(poset: &Poset<'_>, budget_of: impl Fn(usize) -> f64) -> StarReport {
    let surviving: Vec<usize> = (0..poset.len())
        .filter(|&i| poset.performance(i) >= budget_of(i))
        .collect();
    let stars = maximal_among(&surviving, |a, b| poset.leq(a, b));
    StarReport { surviving, stars }
}

/// The elements of `keep` no other element of `keep` lies strictly
/// above under `leq`, in `keep`'s order — the Figure 8 stars when
/// `keep` is the budget-satisfying set. `leq` is called on pairs of
/// `keep` only, so the cost is `O(|keep|²)` comparisons whatever the
/// size of the space around it.
pub fn maximal_among(keep: &[usize], leq: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    keep.iter()
        .copied()
        .filter(|&a| !keep.iter().any(|&b| a != b && leq(a, b)))
        .collect()
}

/// Budget status of one node during a lazy classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// Not yet measured or inferred.
    Unknown,
    /// Meets its budget (measured, or inferred from a surviving node
    /// above it in the order).
    Survives,
    /// Misses its budget (measured, or inferred from a pruned node
    /// below it).
    Pruned,
}

/// Decomposes the `n`-node poset given by `leq` into a deterministic
/// chain cover: [`Relation::new`] then [`Relation::chain_cover`], for
/// callers that need the chains and nothing else of the order.
pub fn chain_cover(n: usize, leq: impl Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
    Relation::new(n, leq).chain_cover()
}

impl Relation {
    /// A deterministic chain cover of the order: every node appears in
    /// exactly one chain, each chain is totally ordered bottom-to-top,
    /// and chains are greedily grown long (best-fit onto the highest
    /// fitting chain top along a linear extension), so binary search
    /// over a chain classifies many nodes per measurement.
    ///
    /// The cover is not guaranteed minimal (that would be Dilworth-hard
    /// to do quickly); it only needs to be *good*: the lazy scheduler's
    /// cross-chain inference mops up what a non-minimal cover leaves.
    /// With the order tabulated, down-set sizes are popcounts and the
    /// fitting chain tops of a node are its down-set ANDed with the set
    /// of current tops, so the cover costs `O(n²/64)` word operations
    /// plus one step per fitting top — after the `O(n²)` build callers
    /// already paid for.
    pub fn chain_cover(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        // Linear extension key: the size of a node's strict down-set.
        // `a < b` implies downset(a) ⊊ downset(b), so sorting by it
        // (index-tied) is a valid topological order of any finite poset.
        let downset: Vec<usize> = (0..n).map(|b| self.below(b)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (downset[i], i));

        let mut chains: Vec<Vec<usize>> = Vec::new();
        // The current top of every chain, and the chain each top ends.
        let mut tops = vec![0u64; self.words()];
        let mut chain_of = vec![usize::MAX; n];
        let mut fitting = vec![0u64; self.words()];
        for &v in &order {
            // Best-fit: extend the fitting chain whose top is highest in
            // the extension (closest below `v`), the later chain on a tie.
            for ((f, &t), &d) in fitting.iter_mut().zip(&tops).zip(self.down(v)) {
                *f = t & d;
            }
            let best = ones(&fitting).max_by_key(|&top| (downset[top], chain_of[top]));
            let c = match best {
                Some(top) => {
                    tops[top / 64] &= !(1 << (top % 64));
                    chain_of[top]
                }
                None => {
                    chains.push(Vec::new());
                    chains.len() - 1
                }
            };
            chains[c].push(v);
            chain_of[v] = c;
            tops[v / 64] |= 1 << (v % 64);
        }
        // Longest chains first: they classify the most nodes per
        // binary-search measurement, and their crossings seed cross-chain
        // inference for the short tail.
        chains.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        chains
    }
}

/// The subset of `candidates` minimal within the whole order (no node
/// lies strictly below them): a popcount of each candidate's down-set.
/// Chain bottoms are a superset of the order's minimal elements, so
/// `minimal_among(&bottoms, order)` recovers exactly the minimal
/// elements from a [`Relation::chain_cover`].
pub(crate) fn minimal_among(candidates: &[usize], order: &Relation) -> Vec<usize> {
    candidates
        .iter()
        .copied()
        .filter(|&b| order.below(b) == 0)
        .collect()
}

/// Classifies every node of a measured-on-demand poset against a
/// per-node budget, measuring only what the §5 order cannot infer.
///
/// Correctness rests on the *performance-monotonicity assumption*: if
/// `a ≤ b` (a at most as safe as b) then a's performance is at least
/// b's. Under it, `Survives` propagates downward (anything below a
/// surviving node is at least as fast) and `Pruned` propagates upward
/// — so along a chain the statuses are a survive-prefix followed by a
/// prune-suffix, and one binary search per chain finds the crossing.
/// Rounds are batched: each round requests the midpoint of every
/// chain's unknown segment at once (callers parallelize the batch),
/// classifies, and propagates through the full order, so one chain's
/// crossing classifies comparable nodes in *other* chains too.
///
/// A propagation is one word-wise AND of the node's down-set (or
/// up-set) with the set of unknown nodes, `O(n/64)`, plus one write per
/// node it classifies; the order is read from `order`, never
/// recomputed.
///
/// `chains` is a chain cover of `order` ([`Relation::chain_cover`]).
/// `meets(i, perf)` is the budget predicate (callers encode normalized
/// thresholds there); `measure_batch` returns one performance value per
/// requested node and may serve repeats from a cache. The result is
/// final status per node (never `Unknown`), exact — identical to
/// classifying exhaustive measurements — whenever the monotonicity
/// assumption holds; verification modes re-measure skipped nodes and
/// diff.
pub fn lazy_classify(
    order: &Relation,
    chains: &[Vec<usize>],
    mut measure_batch: impl FnMut(&[usize]) -> Vec<f64>,
    meets: impl Fn(usize, f64) -> bool,
) -> Vec<PointStatus> {
    let n = order.len();
    let mut statuses = vec![PointStatus::Unknown; n];
    let mut unknown_set: Vec<u64> = (0..order.words())
        .map(|w| match n - w * 64 {
            64.. => u64::MAX,
            tail => (1 << tail) - 1,
        })
        .collect();
    let mut unknown = n;

    // Seed: measure every *minimal element* (needed by callers for
    // normalization anyway) — they bound every chain's fast end.
    let bottoms: Vec<usize> = chains.iter().map(|c| c[0]).collect();
    let mut round = minimal_among(&bottoms, order);
    while !round.is_empty() {
        let perfs = measure_batch(&round);
        debug_assert_eq!(perfs.len(), round.len());
        for (&i, &perf) in round.iter().zip(&perfs) {
            // Survive flows to everything below `i`, prune to everything
            // above it (the rows are transitive and hold `i` itself).
            let (status, row) = if meets(i, perf) {
                (PointStatus::Survives, order.down(i))
            } else {
                (PointStatus::Pruned, order.up(i))
            };
            for (w, (u, &r)) in unknown_set.iter_mut().zip(row).enumerate() {
                let newly = *u & r;
                *u &= !newly;
                unknown -= newly.count_ones() as usize;
                for q in ones(&[newly]) {
                    statuses[w * 64 + q] = status;
                }
            }
        }
        if unknown == 0 {
            break;
        }
        // Next round: midpoint of every chain's unknown segment. The
        // segment is contiguous (survive-prefix / prune-suffix), so
        // each measurement halves it. Chains that fall entirely below
        // a pruned minimal were already classified for free in round
        // one, so the search only pays log(len) on chains the budget
        // actually crosses.
        round.clear();
        round.extend(chains.iter().filter_map(|chain| {
            let lo = chain
                .iter()
                .position(|&i| statuses[i] == PointStatus::Unknown)?;
            let hi = chain
                .iter()
                .rposition(|&i| statuses[i] == PointStatus::Unknown)
                .expect("rposition exists when position does");
            Some(chain[usize::midpoint(lo, hi)])
        }));
    }
    debug_assert_eq!(unknown, 0, "chain cover must reach every node");
    statuses
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The subset lattice over `perf.len()` bitmask nodes, labelled
    /// with `perf` (the order-specific star tests live with the §5
    /// order itself, in `flexos_sweep::report`).
    fn lattice(perf: &[f64]) -> Poset<'static> {
        Poset::new(perf.to_vec(), subset)
    }

    #[test]
    fn zero_budget_keeps_everything() {
        let poset = lattice(&[1.0; 64]);
        let report = prune_and_star_by(&poset, |_| 0.0);
        assert_eq!(report.surviving.len(), 64);
        // With uniform performance the only maximal element is the global
        // maximum of the order.
        assert_eq!(report.stars, vec![63]);
    }

    #[test]
    fn impossible_budget_stars_nothing() {
        let poset = lattice(&[1.0; 64]);
        let report = prune_and_star_by(&poset, |_| 2.0);
        assert!(report.stars.is_empty());
        assert_eq!(report.pruned(64), 64);
    }

    #[test]
    fn per_node_budgets_prune_independently() {
        let perf: Vec<f64> = (0..64).map(f64::from).collect();
        let poset = lattice(&perf);
        // Even indices need >= 40, odd indices >= 10.
        let report = prune_and_star_by(&poset, |i| if i % 2 == 0 { 40.0 } else { 10.0 });
        for &s in &report.surviving {
            assert!(perf[s] >= if s % 2 == 0 { 40.0 } else { 10.0 });
        }
        assert!(report.surviving.contains(&11));
        assert!(!report.surviving.contains(&8));
    }

    /// The divisibility order on 1..=n: a rich poset with known chains.
    fn divides(a: usize, b: usize) -> bool {
        (b + 1).is_multiple_of(a + 1)
    }

    #[test]
    fn chain_cover_partitions_into_ordered_chains() {
        let n = 60;
        let chains = chain_cover(n, divides);
        let mut seen = vec![false; n];
        for chain in &chains {
            assert!(!chain.is_empty());
            for w in chain.windows(2) {
                assert!(divides(w[0], w[1]), "{} !| {}", w[0] + 1, w[1] + 1);
            }
            for &i in chain {
                assert!(!seen[i], "node {i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "cover must reach every node");
        // Longest chains first, and the powers of two form a long one.
        assert!(chains[0].len() >= 5);
        assert!(chains.windows(2).all(|w| w[0].len() >= w[1].len()));
    }

    #[test]
    fn minimal_among_recovers_poset_minimals() {
        let n = 30;
        let order = Relation::new(n, divides);
        let bottoms: Vec<usize> = order.chain_cover().iter().map(|c| c[0]).collect();
        let minimals = minimal_among(&bottoms, &order);
        // 1 divides everything: it is the unique minimal element.
        assert_eq!(minimals, vec![0]);
    }

    /// The subset lattice on 6 bits — the shape the sweep's hardening ×
    /// mechanism × sharing product actually has.
    fn subset(a: usize, b: usize) -> bool {
        a & b == a
    }

    #[test]
    fn lazy_classify_matches_exhaustive_and_measures_less() {
        let n = 64;
        // Monotone performance: every extra bit (hardening, stronger
        // mechanism...) costs throughput.
        let perf: Vec<f64> = (0..n)
            .map(|i: usize| 1000.0 - 10.0 * i.count_ones() as f64)
            .collect();
        let budget = 975.0;
        let order = Relation::new(n, subset);
        let mut requested = Vec::new();
        let statuses = lazy_classify(
            &order,
            &order.chain_cover(),
            |batch| {
                requested.extend_from_slice(batch);
                batch.iter().map(|&i| perf[i]).collect()
            },
            |_, p| p >= budget,
        );
        let executions = requested.len();
        for (i, &p) in perf.iter().enumerate() {
            let want = if p >= budget {
                PointStatus::Survives
            } else {
                PointStatus::Pruned
            };
            assert_eq!(statuses[i], want, "node {i}");
        }
        // B6 with the cut mid-lattice is adversarial: every chain
        // straddles the budget boundary and every node on the crossing
        // antichain (C(6,2) + C(6,3) = 35) must be measured, so the
        // floor is already 55%. Real sweep spaces cut far from the
        // middle and have much longer chains; the <= 60% acceptance
        // bound is asserted on the actual `full` space in CI.
        assert!(
            executions <= n * 3 / 4,
            "lazy classification measured {executions}/{n}"
        );
        // Chains are disjoint and rounds only request unknown nodes, so
        // no node is ever measured twice.
        let unique: std::collections::HashSet<_> = requested.iter().collect();
        assert_eq!(unique.len(), executions);
    }

    #[test]
    fn lazy_classify_handles_all_survive_and_all_prune() {
        let n = 24;
        let order = Relation::new(n, divides);
        let chains = order.chain_cover();
        for budget in [0.0, 2.0] {
            let out = lazy_classify(&order, &chains, |b| vec![1.0; b.len()], |_, p| p >= budget);
            let want = if budget <= 1.0 {
                PointStatus::Survives
            } else {
                PointStatus::Pruned
            };
            assert!(out.iter().all(|&s| s == want));
        }
    }
}
