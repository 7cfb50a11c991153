//! Order-guided lazy sweep (ISSUE 7 acceptance): the lazy engine's
//! star report, pruned set, and budget-vector output must be
//! **bit-identical** to the exhaustive engine's while measuring fewer
//! points; the measurement memo must execute exactly one run per
//! canonical experiment and fan out bit-identical results; and both
//! properties must hold on a seeded random slice of the 3×10⁵-point
//! `full-profiled` mixed-profile space, with `verify_inference`
//! re-measuring every skipped point to confirm the monotonicity
//! assumption.

use std::collections::{BTreeSet, HashMap, HashSet};

use flexos::sweep::{engine, lazy, report, PointShape, SpaceSpec, Workload};
use flexos_explore::Strategy;
use flexos_machine::xorshift64star;

/// Point `i`'s experiment: its shape up to the enumeration index.
fn experiment(spec: &SpaceSpec, i: usize) -> PointShape {
    PointShape {
        index: 0,
        ..spec.shape(i)
    }
}

#[test]
fn memoized_run_executes_once_per_canonical_point_and_matches_fresh() {
    // A mixed-profile slice with real duplicate pressure: one workload,
    // one mechanism, strategies of 1/2/3 compartments — ThreeWay forces
    // three profile slots, so Together's and SplitLwip's trailing slots
    // are don't-cares and collapse (648 points, 254 experiments).
    let mut spec = SpaceSpec::full_profiled(2, 8);
    spec.workloads.truncate(1);
    spec.mechanisms.truncate(1);
    spec.strategies = vec![Strategy::Together, Strategy::SplitLwip, Strategy::ThreeWay];
    spec.hardening_masks = vec![0b0000];
    let n = spec.len();

    // What licenses the lazy engine's memo (one execution per canonical
    // experiment, fanned out to every duplicate index): a fresh run of
    // *every* index, and within one canonical group all results equal
    // up to `index`, cycles and float bits alike.
    let every: Vec<usize> = (0..n).collect();
    let fresh = engine::run_indices(&spec, &every, 4).expect("sweep");
    let mut first_of_group = HashMap::new();
    for (i, r) in fresh.iter().enumerate() {
        assert_eq!(r.index, i);
        let rep = *first_of_group.entry(experiment(&spec, i)).or_insert(i);
        let mut expected = fresh[rep].clone();
        expected.index = i;
        assert_eq!(
            *r, expected,
            "point {i} differs from its canonical twin {rep}"
        );
    }
    assert_eq!((n, first_of_group.len()), (648, 254));
}

#[test]
fn lazy_matches_exhaustive_on_the_quick_space() {
    let quick = SpaceSpec::quick(2, 16);
    assert_eq!(quick.len(), 272);
    assert_lazy_matches_exhaustive(&quick);

    // A multi-valued cores axis: the order's core-count clause (more
    // cores sit *below* fewer) must reach the lazy engine too. With an
    // order key that omits it, cores-twins are `≤` each other both
    // ways, no scope has a minimal element, and the sweep cannot
    // normalize (it panicked before the engines shared one key).
    let mut smp = SpaceSpec::full_smp(2, 16);
    smp.workloads.truncate(1);
    smp.cores = vec![1, 2];
    assert_lazy_matches_exhaustive(&smp);
}

fn assert_lazy_matches_exhaustive(spec: &SpaceSpec) {
    let points: Vec<_> = spec.points().collect();
    let results = engine::run_parallel(spec, 1).expect("serial sweep");

    // The CI budget vector: uniform 0.8 with a stricter nginx override.
    let budgets = report::BudgetVector::uniform(0.8).with(Workload::NginxGet, 0.9);
    let (_, exhaustive) = report::star_report_vec(&points, &results, &budgets);

    let cfg = lazy::LazyConfig {
        threads: 4,
        budgets,
        verify_inference: true,
        pareto_fracs: vec![0.5, 0.8],
    };
    let out = lazy::lazy_sweep_all(spec, &cfg, None).expect("lazy sweep");

    // Bit-identical pruned set, star set, and (via the vector) the
    // per-workload budget behavior.
    assert_eq!(out.surviving, exhaustive.surviving);
    assert_eq!(out.stars, exhaustive.stars);
    assert!(
        out.inference_misses.is_empty(),
        "{:?}",
        out.inference_misses
    );
    // ... while actually measuring less (frozen before verification).
    assert!(
        out.stats.measured < out.stats.points,
        "lazy measured {}/{}",
        out.stats.measured,
        out.stats.points
    );
    assert_eq!(out.stats.measured + out.stats.inferred, out.stats.canonical);
    assert_eq!(out.stats.points, spec.len());
    assert_eq!(
        out.stats.canonical,
        spec.len(),
        "uniform space: no duplicates"
    );

    // The 0.8 Pareto level must agree with an exhaustive uniform-0.8
    // report, workload by workload.
    let (_, uniform) =
        report::star_report_vec(&points, &results, &report::BudgetVector::uniform(0.8));
    for wp in &out.pareto {
        // More budget, fewer survivors.
        assert!(wp.levels[0].surviving >= wp.levels[1].surviving);
        let level = wp
            .levels
            .iter()
            .find(|l| (l.frac - 0.8).abs() < 1e-12)
            .expect("0.8 level present");
        let surviving = uniform
            .surviving
            .iter()
            .filter(|&&i| points[i].workload == wp.workload)
            .count();
        let stars: Vec<usize> = uniform
            .stars
            .iter()
            .copied()
            .filter(|&i| points[i].workload == wp.workload)
            .collect();
        assert_eq!(level.surviving, surviving, "{:?}", wp.workload);
        assert_eq!(level.stars, stars, "{:?}", wp.workload);
    }
}

#[test]
fn lazy_matches_exhaustive_on_a_seeded_full_profiled_slice() {
    let spec = SpaceSpec::full_profiled(2, 8);
    assert!(
        spec.len() >= 100_000,
        "full-profiled must exceed 1e5 points"
    );

    // 500 canonically-distinct points: duplicates are order-equal and
    // would make the exhaustive star set (which has no canonicalization
    // layer) annihilate them pairwise.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut seen = HashSet::new();
    let mut sample = BTreeSet::new();
    while sample.len() < 500 {
        // The draw is the generator's state, not its scrambled output:
        // the sample this test has always checked.
        xorshift64star(&mut rng);
        let i = (rng % spec.len() as u64) as usize;
        if seen.insert(experiment(&spec, i)) {
            sample.insert(i);
        }
    }
    let indices: Vec<usize> = sample.into_iter().collect();

    let points: Vec<_> = indices.iter().map(|&i| spec.point(i)).collect();
    let results: Vec<_> = indices
        .iter()
        .map(|&i| engine::run_point(&spec, i).expect("point runs"))
        .collect();
    let budgets = report::BudgetVector::uniform(0.8);
    let (_, exhaustive) = report::star_report_vec(&points, &results, &budgets);
    let expected_surviving: Vec<usize> = exhaustive.surviving.iter().map(|&p| indices[p]).collect();
    let expected_stars: Vec<usize> = exhaustive.stars.iter().map(|&p| indices[p]).collect();

    let cfg = lazy::LazyConfig {
        threads: 4,
        budgets,
        verify_inference: true,
        pareto_fracs: Vec::new(),
    };
    let out = lazy::lazy_sweep(&spec, &indices, &cfg, None).expect("lazy sweep");
    assert_eq!(out.surviving, expected_surviving);
    assert_eq!(out.stars, expected_stars);
    assert!(
        out.inference_misses.is_empty(),
        "{:?}",
        out.inference_misses
    );
    assert_eq!(out.stats.points, 500);
    assert_eq!(out.stats.canonical, 500, "sampler guarantees distinct keys");
}

/// A shape's place in the §5 order, written field by field from the
/// rules `report::sweep_leq` documents and independent of the packed
/// key both engines compare: `(workload, per-component allocators)` is
/// the scope, the rest is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Facts {
    workload: Workload,
    allocators: [flexos_alloc::HeapKind; 4],
    strategy: Strategy,
    mech: u8,
    mask: u8,
    strengths: [u8; 4],
    cores: u32,
}

impl Facts {
    fn of(shape: &PointShape) -> Facts {
        let of = |i: usize| shape.profiles[shape.strategy.compartment_of(i)];
        let split = shape.strategy.compartments() > 1;
        Facts {
            workload: shape.workload,
            allocators: std::array::from_fn(|i| of(i).1),
            strategy: shape.strategy,
            mech: report::mechanism_rank(shape.mechanism),
            mask: shape.hardening_mask,
            strengths: std::array::from_fn(|i| if split { of(i).0.strength() } else { 0 }),
            cores: shape.cores,
        }
    }

    fn leq(&self, other: &Facts) -> bool {
        // Partition refinement straight from the partitions: every pair
        // of components `other` keeps together, `self` does too.
        let (a, b) = (self.strategy, other.strategy);
        let refined = (0..4).all(|i| {
            (0..4).all(|j| {
                b.compartment_of(i) != b.compartment_of(j)
                    || a.compartment_of(i) == a.compartment_of(j)
            })
        });
        self.workload == other.workload
            && self.allocators == other.allocators
            && refined
            && self.mask & other.mask == self.mask
            && self.mech <= other.mech
            && (0..4).all(|i| self.strengths[i] <= other.strengths[i])
            && self.cores >= other.cores
    }
}

/// The lazy engine's scopes of `spec`: canonical experiments (one per
/// distinct set of facts, first index kept) grouped by workload and
/// per-component allocators, in first-appearance order.
fn lazy_scopes(spec: &SpaceSpec) -> Vec<Vec<(usize, Facts)>> {
    let mut canonical = HashSet::new();
    let mut scope_of = HashMap::new();
    let mut scopes: Vec<Vec<(usize, Facts)>> = Vec::new();
    for i in 0..spec.len() {
        let facts = Facts::of(&spec.shape(i));
        if canonical.insert(facts) {
            let next = scopes.len();
            let s = *scope_of
                .entry((facts.workload, facts.allocators))
                .or_insert(next);
            if s == next {
                scopes.push(Vec::new());
            }
            scopes[s].push((i, facts));
        }
    }
    scopes
}

/// Tabulates `sweep_leq` over one scope and checks the stored relation
/// against it and against the field-by-field order on `pairs`.
fn assert_relation_is_the_order(
    spec: &SpaceSpec,
    scope: &[(usize, Facts)],
    pairs: impl Iterator<Item = (usize, usize)>,
) -> usize {
    let points: Vec<_> = scope.iter().map(|&(i, _)| spec.point(i)).collect();
    let order = flexos_explore::Relation::new(points.len(), |a, b| {
        report::sweep_leq(&points[a], &points[b])
    });
    let mut checked = 0;
    for (a, b) in pairs {
        let want = scope[a].1.leq(&scope[b].1);
        assert_eq!(
            report::sweep_leq(&points[a], &points[b]),
            want,
            "{}: sweep_leq({}, {})",
            spec.name,
            points[a],
            points[b]
        );
        assert_eq!(
            order.leq(a, b),
            want,
            "{}: relation at ({a}, {b})",
            spec.name
        );
        checked += 1;
    }
    checked
}

#[test]
fn scope_relations_are_the_section_5_order() {
    let all_pairs = |n: usize| (0..n * n).map(move |ab| (ab / n, ab % n));
    // Every scope of the two spaces CI sweeps lazily, every ordered pair.
    for spec in [SpaceSpec::quick(1, 4), SpaceSpec::full_smp(1, 4)] {
        let scopes = lazy_scopes(&spec);
        assert_eq!(scopes.iter().map(Vec::len).sum::<usize>(), spec.len());
        for scope in &scopes {
            assert_relation_is_the_order(&spec, scope, all_pairs(scope.len()));
        }
    }

    // One of `full`'s 20 scopes: 400 representatives, seven words a row.
    let full = SpaceSpec::full(1, 4);
    let scopes = lazy_scopes(&full);
    assert_eq!(scopes.len(), 20);
    assert!(scopes.iter().all(|s| s.len() == 400));
    let checked = assert_relation_is_the_order(&full, &scopes[7], all_pairs(400));
    assert_eq!(checked, 400 * 400);

    // `full-profiled`'s largest scope (28 words a row): seeded pairs,
    // half of them drawn from within the same strategy and mask so
    // that related pairs are common.
    let profiled = SpaceSpec::full_profiled(1, 4);
    let scopes = lazy_scopes(&profiled);
    assert_eq!(scopes.iter().map(Vec::len).sum::<usize>(), 104_000);
    let largest = scopes.iter().max_by_key(|s| s.len()).expect("scopes");
    assert_eq!(largest.len(), 1744);
    let mut rng = 0x5C0F_E5EEDu64;
    let mut draw = move |n: usize| (xorshift64star(&mut rng) % n as u64) as usize;
    let n = largest.len();
    let pairs: Vec<(usize, usize)> = (0..40_000)
        .map(|_| {
            let a = draw(n);
            let b = if draw(2) == 0 {
                draw(n)
            } else {
                // A neighbour in enumeration order: same strategy and
                // hardening, mostly comparable.
                (a + draw(32)).min(n - 1)
            };
            (a, b)
        })
        .collect();
    let related = pairs
        .iter()
        .filter(|&&(a, b)| a != b && largest[a].1.leq(&largest[b].1))
        .count();
    assert!(related > 1_000, "only {related} related pairs drawn");
    assert_relation_is_the_order(&profiled, largest, pairs.into_iter());
}
