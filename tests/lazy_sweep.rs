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
