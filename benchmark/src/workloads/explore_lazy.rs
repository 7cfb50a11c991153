//! `explore-lazy`: seconds to a Pareto frontier — the order-guided lazy
//! engine over seeded folds of a per-compartment-profile space.
//!
//! The same sweep layer as `explore-exhaustive`, used differently: the
//! memo and the order inference decide *how many* images are built,
//! per-compartment-profile configurations are the heaviest to build, and
//! binary-search rounds visit shapes in an order with poor locality — a
//! build cache tuned to enumeration order can lose here.
//!
//! The space is `SpaceSpec::full_profiled(20, 200)` restricted to one
//! Redis shape and nginx (62 208 enumerated points). One unit is one
//! `lazy_sweep` over a fold of it: primary budget plus the six-level
//! Pareto ladder. The seed deals the folds; shape, budget and ladder are
//! fixed, because a seed that drew them would change how much work a
//! unit is, and runs of two seeds could then not be compared.

use std::time::Instant;

use flexos_explore::PointStatus;
use flexos_machine::fault::Fault;
use flexos_sweep::{
    lazy_sweep, run_indices, run_point, BudgetVector, LazyConfig, LazyOutcome, SpaceSpec, Workload,
};

use super::explore_exhaustive::{
    deal_folds, replay_point, stratum_of, sweep_path_metrics, warm_up, MEASURED, WARMUP,
};
use super::{Outcome, Plan, SETUP_REPEATS};
use crate::host;
use crate::json::Value;
use crate::rng::{fnv1a_indices, fnv1a_words, hex, Rng, FNV_BASIS};
use crate::spans::Spans;
use crate::stats::{median, quantile};

/// Folds the space is dealt into (1728 points each).
pub const FOLDS: usize = 36;
/// Primary budget: a share of each workload's best configuration.
pub const BUDGET: f64 = 0.8;
/// The Pareto ladder swept after the primary classification.
pub const LADDER: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95];
/// Measured points per unit re-run through `engine::run_point`.
const SPOT_CHECKS: u64 = 8;

/// The explored space at the plan's scale.
pub fn space(plan: &Plan) -> SpaceSpec {
    let mut spec = SpaceSpec::full_profiled(plan.scaled(WARMUP, 1), plan.scaled(MEASURED, 2));
    spec.workloads = vec![
        Workload::RedisGet {
            keyspace: 1024,
            pipeline: 4,
        },
        Workload::NginxGet,
    ];
    spec
}

fn config() -> LazyConfig {
    LazyConfig {
        threads: 1,
        budgets: BudgetVector::uniform(BUDGET),
        verify_inference: false,
        pareto_fracs: LADDER.to_vec(),
    }
}

/// Deals the space into folds stratified by workload, strategy,
/// mechanism *and* hardening mask, each fold sorted ascending (the lazy
/// engine's precondition). With the mask in the stratum every fold keeps
/// the same number of profile assignments at every node of the mask
/// lattice, which is what keeps the chains of two folds alike.
fn set_up(plan: &Plan) -> (SpaceSpec, Vec<Vec<usize>>) {
    let spec = space(plan);
    let mut rng = Rng::new(plan.seed, "lazy-folds");
    let mut folds = deal_folds(&spec, FOLDS * plan.divisor as usize, &mut rng, |s| {
        (stratum_of(&spec, s), s.hardening_mask)
    });
    for fold in &mut folds {
        fold.sort_unstable();
    }
    (spec, folds)
}

/// The deterministic outputs of one lazy sweep, for pinning.
fn pinned(fold: &[usize], outcome: &LazyOutcome) -> Value {
    let mut measured: Vec<_> = outcome.results.values().collect();
    measured.sort_by_key(|r| r.index);
    let results = measured.iter().fold(FNV_BASIS, |h, r| {
        fnv1a_words(h, &[r.index as u64, r.ops, r.cycles])
    });
    let ladder = outcome.pareto.iter().fold(FNV_BASIS, |h, wp| {
        wp.levels.iter().fold(h, |h, level| {
            fnv1a_indices(fnv1a_words(h, &[level.surviving as u64]), &level.stars)
        })
    });
    let s = outcome.stats;
    Value::obj()
        .with("fold_digest", hex(fnv1a_indices(FNV_BASIS, fold)))
        .with("points", s.points)
        .with("canonical", s.canonical)
        .with("measured", s.measured)
        .with("inferred", s.inferred)
        .with("memo_hits", s.memo_hits)
        .with("surviving", outcome.surviving.len())
        .with("stars", hex(fnv1a_indices(FNV_BASIS, &outcome.stars)))
        .with("ladder", hex(ladder))
        .with("results_digest", hex(results))
}

/// Checks one lazy sweep against what holds for any seed: every point
/// classified, every star measured and surviving, every measured point
/// classified as its own measurement says, the ladder monotone, and a
/// seeded handful of measurements equal to fresh `engine::run_point`s.
fn check_unit(
    spec: &SpaceSpec,
    fold: &[usize],
    outcome: &LazyOutcome,
    rng: &mut Rng,
) -> Result<(), String> {
    let s = outcome.stats;
    if outcome.statuses.len() != fold.len() || s.points != fold.len() {
        return Err(format!(
            "{} statuses for {} points",
            outcome.statuses.len(),
            fold.len()
        ));
    }
    if outcome.statuses.contains(&PointStatus::Unknown) {
        return Err("a point was left unclassified".to_string());
    }
    if s.measured + s.inferred != s.canonical || s.measured != outcome.results.len() {
        return Err(format!("inconsistent accounting: {s:?}"));
    }
    for star in &outcome.stars {
        if !outcome.results.contains_key(star) || outcome.surviving.binary_search(star).is_err() {
            return Err(format!("star {star} is unmeasured or did not survive"));
        }
    }
    let best_of = |w: Workload| {
        outcome
            .group_max
            .iter()
            .find(|(gw, _)| *gw == w)
            .map_or(f64::NAN, |g| g.1)
    };
    for (&i, &status) in fold.iter().zip(&outcome.statuses) {
        if let Some(r) = outcome.results.get(&i) {
            if r.ops < spec.measured || r.cycles == 0 {
                return Err(format!("point {i}: ops {} cycles {}", r.ops, r.cycles));
            }
            let meets = r.ops_per_sec / best_of(spec.shape(i).workload) >= BUDGET;
            if meets != (status == PointStatus::Survives) {
                return Err(format!(
                    "point {i} is classified against its own measurement"
                ));
            }
        }
    }
    if outcome.pareto.len() != spec.workloads.len() {
        return Err(format!("{} Pareto frontiers", outcome.pareto.len()));
    }
    for wp in &outcome.pareto {
        let counts: Vec<usize> = wp.levels.iter().map(|l| l.surviving).collect();
        if counts.len() != LADDER.len() || counts.windows(2).any(|w| w[0] < w[1]) {
            return Err(format!("{:?}: ladder survivors {counts:?}", wp.workload));
        }
    }
    let mut measured: Vec<usize> = outcome.results.keys().copied().collect();
    measured.sort_unstable();
    for _ in 0..SPOT_CHECKS.min(measured.len() as u64) {
        let i = measured[rng.below(measured.len() as u64) as usize];
        let fresh = run_point(spec, i).map_err(|f| format!("spot check {i} faulted: {f:?}"))?;
        if fresh != outcome.results[&i] {
            return Err(format!(
                "point {i}: the memo holds a result run_point does not return"
            ));
        }
    }
    Ok(())
}

/// The untraced run: every end-to-end metric.
///
/// # Errors
///
/// A fault in the warm-up sweep. A fault inside a unit is counted as
/// failed operations instead.
pub fn run(plan: &Plan) -> Result<Outcome, Fault> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let set = set_up(plan);
        warm_up(plan)?;
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some(set);
    }
    let (spec, folds) = prepared.expect("SETUP_REPEATS is at least 1");
    let cfg = config();

    let mut out = Outcome::default();
    let mut check_rng = Rng::new(plan.seed, "lazy-spot-checks");
    let mut unit_s = Vec::new();
    let mut unit_ops_per_s = Vec::new();
    let mut measured_share = Vec::new();
    let window = Instant::now();
    // A window that outlasts all 36 folds starts over on the first: the
    // reference host gets through about ten.
    for fold in folds.iter().cycle() {
        out.attempted += fold.len() as u64;
        let start = Instant::now();
        match lazy_sweep(&spec, fold, &cfg, None) {
            Ok(outcome) => {
                let secs = start.elapsed().as_secs_f64();
                if unit_s.is_empty() {
                    out.deterministic = Value::obj()
                        .with("any_seed", Value::obj())
                        .with("this_seed", pinned(fold, &outcome));
                }
                unit_s.push(secs);
                let ops: u64 = outcome.results.values().map(|r| r.ops).sum();
                unit_ops_per_s.push(ops as f64 / secs);
                measured_share.push(outcome.stats.measured as f64 / fold.len() as f64);
                if let Err(why) = check_unit(&spec, fold, &outcome, &mut check_rng) {
                    out.failed += fold.len() as u64;
                    out.fail(format!("unit {}: {why}", unit_s.len() - 1));
                }
            }
            Err(fault) => {
                out.failed += fold.len() as u64;
                out.fail(format!(
                    "a point of unit {} faulted: {fault:?}",
                    unit_s.len()
                ));
            }
        }
        if window.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
    }
    if unit_s.is_empty() {
        unit_s.push(f64::NAN);
        unit_ops_per_s.push(f64::NAN);
    }

    out.metric("setup_s", median(&setup_s));
    out.metric("points_per_s", folds[0].len() as f64 / median(&unit_s));
    out.metric("sim_ops_per_s", median(&unit_ops_per_s));
    out.metric("peak_rss_mib", host::peak_rss_mib());
    out.details = Value::obj()
        .with("space", spec.name.as_str())
        .with("space_points", spec.len())
        .with(
            "workloads",
            spec.workloads
                .iter()
                .map(|w| Value::from(w.label()))
                .collect::<Vec<_>>(),
        )
        .with("budget", BUDGET)
        .with(
            "ladder",
            LADDER.iter().map(|&f| Value::Num(f)).collect::<Vec<_>>(),
        )
        .with("folds", folds.len())
        .with("points_per_fold", folds[0].len())
        .with("setup_repeats", SETUP_REPEATS)
        .with("units", unit_s.len())
        .with("frontier_s_median", median(&unit_s))
        .with("frontier_s_p90", quantile(&unit_s, 0.9))
        .with("measured_share_median", median(&measured_share))
        .with(
            "unit_s",
            unit_s.iter().map(|&s| Value::Num(s)).collect::<Vec<_>>(),
        );
    Ok(out)
}

/// The trace run: one lazy sweep; then exactly the experiments it
/// executed, once through the engine untraced and once replayed point by
/// point with spans. The difference between the sweep and the engine run
/// is what the lazy layer itself costs.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn trace(plan: &Plan, spans: &mut Spans) -> Result<Outcome, Fault> {
    spans.enter_root("harness.setup", 0);
    let (spec, folds) = set_up(plan);
    let warm = warm_up(plan);
    spans.exit();
    warm?;
    let fold = &folds[0];
    let mut out = Outcome {
        attempted: fold.len() as u64,
        ..Outcome::default()
    };

    let start = Instant::now();
    let outcome = lazy_sweep(&spec, fold, &config(), None)?;
    let lazy_s = start.elapsed().as_secs_f64();
    let mut check_rng = Rng::new(plan.seed, "lazy-spot-checks");
    if let Err(why) = check_unit(&spec, fold, &outcome, &mut check_rng) {
        out.failed += fold.len() as u64;
        out.fail(why);
    }

    let mut executed: Vec<usize> = outcome.results.keys().copied().collect();
    executed.sort_unstable();
    let start = Instant::now();
    run_indices(&spec, &executed, 1)?;
    let engine_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut point_s = Vec::with_capacity(executed.len());
    for &i in &executed {
        let replayed = replay_point(&spec, i, spans)?;
        if replayed.result != outcome.results[&i] {
            out.failed += 1;
            out.fail(format!(
                "replayed point {i} differs from the lazy engine's measurement"
            ));
        }
        point_s.push(replayed.secs);
    }
    let replay_s = start.elapsed().as_secs_f64();

    sweep_path_metrics(&mut out, spans, &point_s);
    let s = outcome.stats;
    out.metric(
        "sweep.lazy_measured_ratio",
        s.measured as f64 / s.points as f64,
    );
    out.metric(
        "sweep.lazy_memo_hit_ratio",
        s.memo_hits as f64 / (s.memo_hits + s.measured) as f64,
    );
    out.metric("sweep.lazy_overhead_s", lazy_s - engine_s);
    out.metric("harness.trace_overhead_ratio", replay_s / engine_s);
    out.details = Value::obj()
        .with("fold_points", fold.len())
        .with("executed", executed.len())
        .with("lazy_s", lazy_s)
        .with("engine_s", engine_s);
    Ok(out)
}
