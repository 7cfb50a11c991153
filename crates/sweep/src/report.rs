//! The §5 partial safety ordering — its one definition, [`sweep_leq`].
//!
//! On the Figure 6 space the order compares two dimensions (partition
//! refinement and per-component hardening) because everything else is
//! pinned there. Other spaces un-pin the mechanism, so
//! the order gains §5's assumption 4 — *the strength of the isolation
//! mechanism* — and a scoping rule: points are only comparable when
//! they drive the **same workload** (safety statements about a Redis
//! image say nothing about an iPerf image; normalized performance is
//! not transferable either, which Figure 7's off-diagonal scatter is
//! all about).
//!
//! Budgets over a heterogeneous space are expressed as a *fraction of
//! the workload's best configuration* (requests/s and KiB/s do not
//! share a scale), after which pruning and star extraction are the
//! stock `flexos_explore` machinery over the generalized poset, run
//! scope by scope ([`star_report_vec`]).

use std::collections::HashMap;

use flexos_alloc::HeapKind;
use flexos_core::compartment::Mechanism;
use flexos_explore::{maximal_among, Poset, Relation, StarReport, Strategy};

use crate::engine::PointResult;
use crate::space::{PointShape, SweepPoint, Workload};

/// Total strength order over isolation mechanisms (§5 assumption 4),
/// stronger = larger: [`Mechanism::strength`], whose exhaustive match
/// is the one rank table.
pub fn mechanism_rank(m: Mechanism) -> u8 {
    m.strength()
}

/// The packed §5 order key of one point: every field of its *shape*
/// the order reads, with the per-component vectors resolved once.
/// [`sweep_leq`] and the lazy engine compare these and nothing else,
/// so the two cannot disagree on a clause.
///
/// The key is also the lazy engine's experiment identity. It is
/// injective on shapes up to their index: the mechanism rank and
/// [`DataSharing::strength`](flexos_core::compartment::DataSharing::strength)
/// are injective, the per-component
/// allocator and strength vectors recover every compartment's profile
/// under the strategy (each compartment holds a component), and the
/// unsplit image's sharing slot is pinned by
/// [`SpaceSpec::shape`](crate::space::SpaceSpec::shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct OrderKey {
    pub(crate) workload: Workload,
    /// Heap allocator seen by each of the four Figure 6 components: a
    /// component inherits its compartment's profile under the
    /// strategy's partition. The order's allocator *scoping* rule.
    pub(crate) allocators: [HeapKind; 4],
    /// Every ordered field, one per lane (see [`GUARDS`]): each lane
    /// holds a value that must not be larger in `self` than in `other`
    /// for `self ≤ other`, so one subtract compares them all.
    packed: u64,
}

/// The guard bits of [`OrderKey::packed`]'s lanes, low bit first. Every
/// lane but the last carries a guard bit just above its value; the last
/// lane's guard is the subtract's borrow out of the word.
///
/// * bits 0..16: the hardening mask, bit `i` at `2i`, guard at `2i + 1`
///   (subset is lane-wise `≤` on single bits);
/// * bits 16..28: the per-component data-sharing strengths, component
///   `i` in two bits at `16 + 3i`, guard above (strength ≤ 2);
/// * bits 28..32: the mechanism rank in three bits, guard at 31
///   (rank ≤ 4);
/// * bits 32..42: the strategy as the set of strategies its partition
///   refines (the 5×5 refinement table's column, so refinement is
///   inclusion), strategy `s` at `32 + 2s`, guard above;
/// * bits 42..64: the core count, complemented (more cores sit *below*
///   fewer, so the complement is what must grow).
const GUARDS: u64 = {
    let mut guards = 0u64;
    let mut i = 0;
    while i < 8 {
        guards |= 1 << (2 * i + 1);
        i += 1;
    }
    let mut c = 0;
    while c < 4 {
        guards |= 1 << (16 + 3 * c + 2);
        c += 1;
    }
    let mut s = 0;
    while s < 5 {
        guards |= 1 << (32 + 2 * s + 1);
        s += 1;
    }
    guards | 1 << 31
};

/// Width of the top lane: core counts below `1 << 22` (a machine boots
/// at most 32).
const CORE_BITS: u32 = 22;

/// Packs the ordered fields into their lanes.
///
/// # Panics
///
/// Panics if a strength, the mechanism rank or the core count outgrows
/// its lane.
fn pack_lanes(mask: u8, strengths: [u8; 4], mech: u8, strategy: Strategy, cores: u32) -> u64 {
    assert!(
        strengths.iter().all(|&s| s < 4) && mech < 8 && cores < 1 << CORE_BITS,
        "an order key field outgrows its lane"
    );
    let mut packed = u64::from((1 << CORE_BITS) - 1 - cores) << 42 | u64::from(mech) << 28;
    for (c, &s) in strengths.iter().enumerate() {
        packed |= u64::from(s) << (16 + 3 * c);
    }
    for i in 0..8 {
        packed |= u64::from(mask >> i & 1) << (2 * i);
    }
    for (i, coarser) in Strategy::ALL.iter().enumerate() {
        packed |= u64::from(coarser.refined_by(&strategy)) << (32 + 2 * i);
    }
    packed
}

/// Every lane of `a` at most the same lane of `b`: with the guards
/// set in `b`, a lane that is larger in `a` borrows its guard away
/// (or, in the top lane, borrows out of the word), and no borrow
/// crosses a guard that was not taken.
fn lanes_le(a: u64, b: u64) -> bool {
    let (diff, borrow) = (b | GUARDS).overflowing_sub(a);
    !borrow & (diff & GUARDS == GUARDS)
}

/// The one place an axis of the space is ordered: the pattern names
/// every field of [`PointShape`], so a new axis does not compile until
/// this constructor places it in the key.
impl From<&PointShape> for OrderKey {
    fn from(shape: &PointShape) -> OrderKey {
        let PointShape {
            index: _, // enumeration position, not an axis
            workload,
            strategy,
            mechanism,
            hardening_mask,
            profiles,
            cores,
        } = shape;
        let split = strategy.compartments() > 1;
        let of = |i: usize| profiles[strategy.compartment_of(i)];
        // Data-sharing strength seen by each component. Single-compartment
        // strategies sit at the bottom (`[0; 4]`) — a boundary-less image
        // has no sharing policy to rank, so it must not block the "unsplit
        // baseline ≤ any split" edges (mirroring the mechanism collapse
        // onto rank-0 [`Mechanism::None`]).
        let strengths = std::array::from_fn(|i| if split { of(i).0.strength() } else { 0 });
        OrderKey {
            workload: *workload,
            allocators: std::array::from_fn(|i| of(i).1),
            packed: pack_lanes(
                *hardening_mask,
                strengths,
                mechanism_rank(*mechanism),
                *strategy,
                *cores,
            ),
        }
    }
}

impl OrderKey {
    /// The scope of comparable points this key lies in: its workload
    /// and its per-component allocators. [`OrderKey::leq`] holds only
    /// between keys of one scope, so stars and chain covers computed
    /// scope by scope lose nothing; the lazy engine and
    /// [`star_report_vec`] split on this one definition.
    pub(crate) fn scope(&self) -> (Workload, [HeapKind; 4]) {
        (self.workload, self.allocators)
    }

    /// `self ≤ other`: the shape half of [`sweep_leq`] (everything but
    /// the resource-budget dimension, which lives in the built config).
    /// Hardening subset, sharing strengths, mechanism rank, partition
    /// refinement and (fewer) cores are one guarded subtract over the
    /// packed lanes.
    pub(crate) fn leq(&self, other: &OrderKey) -> bool {
        self.scope() == other.scope() && self.leq_within_scope(other)
    }

    /// [`OrderKey::leq`] for two keys already known to share a
    /// [`scope`](OrderKey::scope): the lanes alone.
    pub(crate) fn leq_within_scope(&self, other: &OrderKey) -> bool {
        lanes_le(self.packed, other.packed)
    }

    /// The per-component data-sharing strengths, unpacked.
    #[cfg(test)]
    fn strengths(&self) -> [u8; 4] {
        std::array::from_fn(|c| (self.packed >> (16 + 3 * c) & 0b11) as u8)
    }
}

/// [`OrderKey::leq`] over `keys`, which share one scope, tabulated: the
/// lanes are copied out once so the `n²` comparisons read one dense
/// array.
pub(crate) fn scope_relation(keys: impl Iterator<Item = OrderKey>) -> Relation {
    let lanes: Vec<u64> = keys.map(|k| k.packed).collect();
    Relation::new(lanes.len(), |a, b| lanes_le(lanes[a], lanes[b]))
}

/// The generalized safety order: `a ≤ b` (a at most as safe as b) iff
/// the points share a workload **and a per-component allocator
/// assignment**, and `b` dominates `a` in partition refinement,
/// per-component hardening, mechanism strength, and per-component
/// data-sharing strength (§5 assumption 2, now a live dimension since
/// data sharing varies per compartment profile).
///
/// This is the one definition of the order. It reads a point's shape
/// (workload, per-component allocators, cores, strategy, mechanism
/// rank, hardening mask, per-component sharing strengths) through the
/// packed order key, plus the resource budgets of its built config;
/// the lazy engine compares the same keys inside its (workload ×
/// allocator vector) scopes, which are an optimisation — the key's own
/// comparison already refuses cross-scope pairs.
///
/// Both profile dimensions are compared per *component* (the four
/// Figure 6 rows), not per compartment: mixed-profile spaces assign
/// profiles per compartment, and compartment indices do not line up
/// between two strategies' partitions — but every component exists in
/// both, inheriting its compartment's profile. On uniform spaces every
/// component carries the same scalar, so the componentwise comparison
/// reduces exactly to the old scalar rule (including the
/// single-compartment exemption, encoded as an all-bottom strength
/// vector).
///
/// The allocator is a *scoping* rule, not a safety dimension: §5 makes
/// no safety claim about TLSF vs Lea, so points differing there for
/// any component are incomparable — treating them as equal would tie
/// two distinct configurations in both directions and break
/// antisymmetry. Data sharing, by contrast, is ordered:
/// `DataSharing::strength` is injective (shared-stack <
/// heap-conversion < DSS), so the axis can never produce such a tie.
///
/// The core count extends the order **core-count-monotonically**:
/// isolation guarantees are core-count-invariant (gates, keys, and EPT
/// roots do not weaken when the image runs on more vCPUs), while
/// throughput only grows with cores — so `a ≤ b` additionally requires
/// `a.cores >= b.cores`. A many-core point sits *below* its few-core
/// twin: it buys performance without buying safety, exactly like a
/// coarser partition. The clause is a total order on the axis, so
/// antisymmetry is preserved.
pub fn sweep_leq(a: &SweepPoint, b: &SweepPoint) -> bool {
    OrderKey::from(&a.shape).leq(&OrderKey::from(&b.shape)) && budget_leq(a, b)
}

/// [`sweep_leq`] over `points` by index, each point's key built once
/// rather than twice per comparison: the form the poset and the edge
/// list use.
fn indexed_leq(points: &[SweepPoint]) -> impl Fn(usize, usize) -> bool + '_ {
    let keys: Vec<OrderKey> = points.iter().map(|p| OrderKey::from(&p.shape)).collect();
    move |a, b| keys[a].leq(&keys[b]) && budget_leq(&points[a], &points[b])
}

/// The resource-budget dimension of the order: per component, per
/// resource, an *unlimited* axis is weaker than (below) any limit, and
/// two distinct limits are incomparable — like the allocator rule, §5
/// makes no safety claim ranking one finite quota against another, and
/// treating them as ordered would let two distinct configurations tie
/// both ways and break antisymmetry. Budget-free spaces (every
/// pre-budget sweep) short-circuit to `true` without touching the
/// per-component resolution.
fn budget_leq(a: &SweepPoint, b: &SweepPoint) -> bool {
    if !a.config.any_budget() && !b.config.any_budget() {
        return true;
    }
    // A component inherits its compartment's resolved budget under the
    // strategy's partition (budgets enter a point only through its
    // built `config`; shapes carry no budget axis).
    let budget = |p: &SweepPoint, i| p.config.budget_of(p.strategy.compartment_of(i));
    let axis = |x: Option<u64>, y: Option<u64>| x.is_none() || x == y;
    (0..4).all(|i| {
        let (x, y) = (budget(a, i), budget(b, i));
        axis(x.heap_bytes, y.heap_bytes)
            && axis(x.cycles, y.cycles)
            && axis(x.crossings, y.crossings)
    })
}

/// Every ordered pair `(i, j)`, `i ≠ j`, with `points[i] ≤ points[j]`
/// under [`sweep_leq`] — the safety order as an explicit edge list.
/// Matrix-style consumers (the adversarial attack matrix) walk these
/// edges to check that an empirical per-point property is monotone in
/// the order (stronger point ⇒ superset of blocked attacks).
pub fn sweep_order_pairs(points: &[SweepPoint]) -> Vec<(usize, usize)> {
    let leq = indexed_leq(points);
    let mut pairs = Vec::new();
    for i in 0..points.len() {
        for j in 0..points.len() {
            if i != j && leq(i, j) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Builds the poset over measured sweep points. Node performance is
/// the point's metric normalized to its workload group's maximum, so a
/// single fractional budget applies across heterogeneous workloads.
/// The order is [`sweep_leq`] over `points`, each point's key built
/// once here and compared only where the poset is asked.
///
/// # Panics
///
/// Panics if `results.len() != points.len()`.
pub fn sweep_poset<'a>(points: &'a [SweepPoint], results: &[PointResult]) -> Poset<'a> {
    assert_eq!(points.len(), results.len(), "one result per point");
    let mut group_max: HashMap<Workload, f64> = HashMap::new();
    for (p, r) in points.iter().zip(results) {
        let best = group_max.entry(p.workload).or_insert(f64::MIN);
        *best = best.max(r.ops_per_sec);
    }
    let performance = points
        .iter()
        .zip(results)
        .map(|(p, r)| r.ops_per_sec / group_max[&p.workload])
        .collect();
    Poset::new(performance, indexed_leq(points))
}

/// A per-workload budget *vector*: one fractional budget per workload
/// group, with `default_frac` covering workloads without their own
/// entry. Budgets remain fractions of each workload's best
/// configuration (the normalized node metric), so heterogeneous
/// workloads keep their own scales — the vector just lets a deployment
/// demand, say, 90% of peak Redis but accept 60% of peak iPerf.
#[derive(Debug, Clone)]
pub struct BudgetVector {
    /// Budget applied to workloads without an explicit entry.
    pub(crate) default_frac: f64,
    /// `(workload, fraction)` overrides.
    pub per_workload: Vec<(Workload, f64)>,
}

impl BudgetVector {
    /// A uniform vector (every workload at `frac`).
    pub fn uniform(frac: f64) -> BudgetVector {
        BudgetVector {
            default_frac: frac,
            per_workload: Vec::new(),
        }
    }

    /// Adds (or replaces) one workload's budget.
    pub fn with(mut self, workload: Workload, frac: f64) -> BudgetVector {
        self.per_workload.retain(|(w, _)| *w != workload);
        self.per_workload.push((workload, frac));
        self
    }

    /// The budget applied to `workload`.
    pub(crate) fn budget_for(&self, workload: Workload) -> f64 {
        self.per_workload
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|&(_, f)| f)
            .unwrap_or(self.default_frac)
    }
}

/// Prunes the measured space under a per-workload [`BudgetVector`]
/// and stars the safest survivors — the Figure 8 star report over the
/// generalized space. Each point must meet *its workload's* fraction
/// of that workload's best configuration to survive.
///
/// The stars are [`maximal_among`] the survivors of each scope (one
/// workload, one per-component allocator vector), merged in ascending
/// order: [`sweep_leq`]
/// needs an equal workload and equal allocators, and its budget
/// dimension only ever removes pairs, so no pair across two scopes is
/// ordered and the result is the unscoped extraction's, at the cost of
/// the pairs within each scope only.
///
/// # Panics
///
/// Panics if `results.len() != points.len()`.
pub fn star_report_vec<'a>(
    points: &'a [SweepPoint],
    results: &[PointResult],
    budgets: &BudgetVector,
) -> (Poset<'a>, StarReport) {
    let poset = sweep_poset(points, results);
    let surviving: Vec<usize> = (0..points.len())
        .filter(|&i| poset.performance(i) >= budgets.budget_for(points[i].workload))
        .collect();
    let mut scopes: HashMap<_, Vec<usize>> = HashMap::new();
    for &i in &surviving {
        let scope = OrderKey::from(&points[i].shape).scope();
        scopes.entry(scope).or_default().push(i);
    }
    let mut stars: Vec<usize> = scopes
        .values()
        .flat_map(|members| maximal_among(members, |a, b| poset.leq(a, b)))
        .collect();
    stars.sort_unstable();
    (poset, StarReport { surviving, stars })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{SpaceSpec, Workload};
    use flexos_core::compartment::{DataSharing, ResourceBudget};
    use flexos_explore::{maximal_among, Strategy};

    fn points_of(spec: &SpaceSpec) -> Vec<SweepPoint> {
        spec.points().collect()
    }

    /// Deterministic synthetic results: performance falls with
    /// compartments, hardening, and mechanism strength — a monotone
    /// labeling that makes star extraction predictable.
    fn synthetic_results(points: &[SweepPoint]) -> Vec<PointResult> {
        points
            .iter()
            .map(|p| {
                let penalty = 0.08 * (p.strategy.compartments() as f64 - 1.0)
                    + 0.05 * f64::from(p.hardening_mask.count_ones())
                    + 0.10 * f64::from(mechanism_rank(p.mechanism));
                let ops_per_sec = 1_000_000.0 * (1.0 - penalty / 2.0);
                PointResult {
                    index: p.index,
                    ops: 100,
                    cycles: 1000,
                    ops_per_sec,
                }
            })
            .collect()
    }

    /// The spaces the order's structural tests run over: `quick` (every
    /// axis kind) and the Figure 6 space the paper's poset is drawn on.
    fn order_specs() -> [SpaceSpec; 2] {
        [SpaceSpec::quick(1, 4), SpaceSpec::fig6("redis", 1, 4)]
    }

    #[test]
    fn order_axioms_hold_on_the_quick_space() {
        for spec in order_specs() {
            let points = points_of(&spec);
            let results = synthetic_results(&points);
            let poset = sweep_poset(&points, &results);
            poset.check_axioms().unwrap();
        }
    }

    #[test]
    fn figure_6_order_is_refinement_times_hardening() {
        let points = points_of(&SpaceSpec::fig6("redis", 1, 4));
        let p = sweep_poset(&points, &synthetic_results(&points));
        assert_eq!(p.len(), 80);
        // Mechanism, sharing, allocator, cores and workload are pinned,
        // so the order is exactly the two Figure 6 dimensions.
        for a in &points {
            for b in &points {
                assert_eq!(
                    sweep_leq(a, b),
                    a.strategy.refined_by(&b.strategy)
                        && a.hardening_mask & b.hardening_mask == a.hardening_mask,
                    "{a} vs {b}"
                );
            }
        }
        // Hardening is monotone within a strategy (Together = 0..16).
        assert!(p.lt(0, 1)); // {} < {app}
        assert!(p.lt(1, 3)); // {app} < {app, newlib}
        assert!(!p.leq(1, 2)); // {app} vs {newlib}: incomparable
                               // The fully hardened three-way split (last point) is the one
                               // maximum; the unsplit, unhardened point 0 is below it.
        let all: Vec<usize> = (0..p.len()).collect();
        assert_eq!(maximal_among(&all, |a, b| p.leq(a, b)), vec![p.len() - 1]);
        assert!(p.lt(0, p.len() - 1));
        // Cover edges never skip levels: a < c < b excluded by def.
        let edges = p.cover_edges();
        assert!(!edges.is_empty() && edges.len() < 80 * 8);
        assert!(edges.iter().all(|&(a, b)| p.lt(a, b)));
    }

    #[test]
    fn order_key_vectors_follow_the_partition() {
        // ThreeWay: app+newlib -> comp 0, sched -> comp 1, lwip -> comp 2.
        let profiles = [
            (DataSharing::Dss, HeapKind::Tlsf),
            (DataSharing::SharedStack, HeapKind::Lea),
            (DataSharing::HeapConversion, HeapKind::Tlsf),
        ];
        let key = |strategy, profiles: &[(DataSharing, HeapKind)]| {
            OrderKey::from(&PointShape {
                index: 0,
                workload: Workload::NginxGet,
                strategy,
                mechanism: Mechanism::IntelMpk,
                hardening_mask: 0,
                profiles: profiles.into(),
                cores: 1,
            })
        };
        let three = key(Strategy::ThreeWay, &profiles);
        let (dss, shared, heap) = (
            DataSharing::Dss.strength(),
            DataSharing::SharedStack.strength(),
            DataSharing::HeapConversion.strength(),
        );
        assert_eq!(three.strengths(), [dss, dss, shared, heap]);
        let (tlsf, lea) = (HeapKind::Tlsf, HeapKind::Lea);
        assert_eq!(three.allocators, [tlsf, tlsf, lea, tlsf]);
        // Single compartment: the sharing dimension bottoms out.
        let one = key(Strategy::Together, &[(DataSharing::Dss, HeapKind::Lea)]);
        assert_eq!(one.strengths(), [0; 4]);
        assert_eq!(one.allocators, [lea; 4]);
    }

    #[test]
    fn workloads_are_never_comparable() {
        let spec = SpaceSpec::quick(1, 4);
        let points = points_of(&spec);
        for a in &points {
            for b in &points {
                if a.workload != b.workload {
                    assert!(!sweep_leq(a, b));
                }
            }
        }
    }

    #[test]
    fn ept_dominates_mpk_at_equal_shape() {
        let spec = SpaceSpec::quick(1, 4);
        let points = points_of(&spec);
        let mpk = points
            .iter()
            .find(|p| {
                p.mechanism == Mechanism::IntelMpk
                    && p.strategy == Strategy::ThreeWay
                    && p.hardening_mask == 0
            })
            .unwrap();
        let ept = points
            .iter()
            .find(|p| {
                p.mechanism == Mechanism::VmEpt
                    && p.strategy == Strategy::ThreeWay
                    && p.hardening_mask == 0
                    && p.workload == mpk.workload
                    && p.profiles == mpk.profiles
            })
            .unwrap();
        assert!(sweep_leq(mpk, ept));
        assert!(!sweep_leq(ept, mpk));
    }

    #[test]
    fn dss_dominates_shared_stack_at_equal_shape() {
        let spec = SpaceSpec::quick(1, 4);
        let points = points_of(&spec);
        let light = points
            .iter()
            .find(|p| {
                p.profiles[0].0 == DataSharing::SharedStack
                    && p.strategy == Strategy::ThreeWay
                    && p.hardening_mask == 0
            })
            .unwrap();
        let dss = points
            .iter()
            .find(|p| {
                p.profiles[0].0 == DataSharing::Dss
                    && p.strategy == light.strategy
                    && p.hardening_mask == 0
                    && p.mechanism == light.mechanism
                    && p.workload == light.workload
                    && p.profiles[0].1 == light.profiles[0].1
            })
            .unwrap();
        assert!(sweep_leq(light, dss));
        assert!(!sweep_leq(dss, light));
    }

    #[test]
    fn unsplit_baseline_sits_below_every_split_of_its_workload() {
        // Regression: the single-compartment collapse pins the config's
        // data-sharing to Dss (strength top); the order must still put
        // the boundary-less baseline below splits of *weaker* sharing
        // (shared-stack), as it was before the data-sharing dimension
        // existed. On the Figure 6 space this is the bottom element:
        // nothing sits strictly below the unsplit, unhardened point.
        let points: Vec<SweepPoint> = order_specs().iter().flat_map(points_of).collect();
        for together in points.iter().filter(|p| p.strategy.compartments() == 1) {
            for split in points.iter().filter(|p| {
                p.strategy.compartments() > 1
                    && p.workload == together.workload
                    && p.profiles[0].1 == together.profiles[0].1
                    && together.hardening_mask & p.hardening_mask == together.hardening_mask
            }) {
                assert!(sweep_leq(together, split), "{together} must be <= {split}");
                assert!(!sweep_leq(split, together));
            }
        }
    }

    #[test]
    fn allocators_scope_comparability() {
        // No §5 safety claim orders TLSF vs Lea: points differing only
        // in allocator must be incomparable (in either direction), or
        // antisymmetry would break.
        let spec = SpaceSpec::quick(1, 4);
        let points = points_of(&spec);
        for a in &points {
            for b in &points {
                if a.profiles[0].1 != b.profiles[0].1 {
                    assert!(!sweep_leq(a, b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn more_cores_sit_below_fewer_cores_at_equal_shape() {
        // The cores clause: a point on more vCPUs buys throughput, not
        // safety, so it sits strictly below its few-core twin — and the
        // extended order still satisfies the poset axioms.
        let mut spec = SpaceSpec::quick(1, 4);
        spec.workloads.truncate(1);
        spec.strategies.truncate(3);
        spec.hardening_masks = vec![0b0001];
        spec.cores = vec![1, 4];
        let points = points_of(&spec);
        let per_core = points.len() / spec.cores.len();
        for i in 0..per_core {
            let (one, four) = (&points[i], &points[i + per_core]);
            assert_eq!(one.cores, 1);
            assert_eq!(four.cores, 4);
            assert!(sweep_leq(four, one), "{four} must be <= {one}");
            assert!(!sweep_leq(one, four));
        }
        let results = synthetic_results(&points);
        sweep_poset(&points, &results).check_axioms().unwrap();
    }

    #[test]
    fn budget_vectors_prune_per_workload() {
        let spec = SpaceSpec::quick(1, 4);
        let points = points_of(&spec);
        let results = synthetic_results(&points);
        // Demanding redis k3, lenient everywhere else.
        let strict = Workload::RedisGet {
            keyspace: 3,
            pipeline: 1,
        };
        let budgets = BudgetVector::uniform(0.5).with(strict, 0.95);
        assert!((budgets.budget_for(strict) - 0.95).abs() < 1e-12);
        assert!((budgets.budget_for(Workload::NginxGet) - 0.5).abs() < 1e-12);
        let (poset, report) = star_report_vec(&points, &results, &budgets);
        assert!(!report.stars.is_empty());
        for &s in &report.surviving {
            let needed = budgets.budget_for(points[s].workload);
            assert!(poset.performance(s) >= needed, "survivor {s}");
        }
        // The strict workload must lose survivors relative to a uniform
        // 0.5 budget; the lenient ones must keep exactly theirs.
        let (_, uniform) = star_report_vec(&points, &results, &BudgetVector::uniform(0.5));
        let count = |r: &flexos_explore::StarReport, w: Workload| {
            r.surviving
                .iter()
                .filter(|&&i| points[i].workload == w)
                .count()
        };
        assert!(count(&report, strict) < count(&uniform, strict));
        assert_eq!(
            count(&report, Workload::NginxGet),
            count(&uniform, Workload::NginxGet)
        );
    }

    #[test]
    fn stars_meet_the_fractional_budget_and_are_maximal() {
        // Both order specs whole, and a seeded 1 000-point stride of
        // `full` (multi-workload, mechanism and sharing axes live).
        let full = SpaceSpec::full(1, 4);
        let step = full.len() / 1000;
        let stride: Vec<SweepPoint> = (0..1000)
            .map(|k| full.point(0x5eed % step + k * step))
            .collect();
        let inputs = order_specs().map(|spec| points_of(&spec));
        let strict = BudgetVector::uniform(0.8).with(Workload::NginxGet, 0.95);
        for points in inputs.into_iter().chain([stride]) {
            let results = synthetic_results(&points);
            for budgets in [BudgetVector::uniform(0.8), strict.clone()] {
                let (poset, report) = star_report_vec(&points, &results, &budgets);
                assert!(!report.stars.is_empty());
                assert!(report.pruned(points.len()) > 0, "budget must bite");
                for &s in &report.stars {
                    assert!(poset.performance(s) >= 0.8 && report.surviving.contains(&s));
                }
                // Stars are exactly the survivors no survivor lies above:
                // the scoped extraction equals the unscoped one.
                let unscoped = maximal_among(&report.surviving, |a, b| poset.leq(a, b));
                assert_eq!(report.stars, unscoped);
            }
        }
    }

    #[test]
    fn limited_budgets_sit_above_unlimited_and_reach_the_star_report() {
        // One point in three copies that differ only in their resource
        // budget: unlimited, and two distinct finite limits.
        let base = points_of(&SpaceSpec::quick(1, 4)).swap_remove(0);
        let limited = |cycles| {
            let mut p = base.clone();
            p.config.default_budget = Some(ResourceBudget {
                cycles: Some(cycles),
                ..ResourceBudget::UNLIMITED
            });
            p
        };
        let (unlimited, low, high) = (base.clone(), limited(1 << 20), limited(1 << 30));
        assert!(budget_leq(&unlimited, &low) && !budget_leq(&low, &unlimited));
        assert!(!budget_leq(&low, &high) && !budget_leq(&high, &low));
        // Equal performance, so the order alone decides the stars. The
        // keyed comparison must keep the budget dimension: without it
        // each copy would knock the other out and nothing would star.
        let budget = BudgetVector::uniform(0.5);
        let stars = |points: &[SweepPoint]| {
            let (poset, report) = star_report_vec(points, &synthetic_results(points), &budget);
            let unscoped = maximal_among(&report.surviving, |a, b| poset.leq(a, b));
            assert_eq!(report.stars, unscoped);
            report.stars
        };
        assert_eq!(stars(&[low.clone(), high]), vec![0, 1]);
        assert_eq!(stars(&[unlimited, low]), vec![1]);
    }

    #[test]
    fn per_workload_normalization_tops_out_at_one() {
        let spec = SpaceSpec::quick(1, 4);
        let points = points_of(&spec);
        let results = synthetic_results(&points);
        let poset = sweep_poset(&points, &results);
        for w in [
            Workload::NginxGet,
            Workload::IperfStream { recv_buf: 16384 },
        ] {
            let best = (0..points.len())
                .filter(|&i| points[i].workload == w)
                .map(|i| poset.performance(i))
                .fold(f64::MIN, f64::max);
            assert!((best - 1.0).abs() < 1e-12);
        }
    }
}
