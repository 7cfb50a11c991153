//! Order-guided lazy exploration: measure only what the §5 partial
//! order cannot infer.
//!
//! The exhaustive engine runs every point of a space; this module runs
//! the *order* instead. Within each scope of comparable points (same
//! workload, same per-component allocator assignment — the order's
//! scoping rules), the poset is decomposed into a chain cover
//! ([`flexos_explore::chain_cover`]); each chain's budget crossing is
//! found by binary search ([`flexos_explore::lazy_classify`]), and
//! every point on the known side of a crossing is classified **without
//! being measured**. The inference is exact under the §5
//! performance-monotonicity assumption — `a ≤ b` (a at most as safe)
//! implies `perf(a) ≥ perf(b)` — which holds for the simulator's cost
//! model: isolation mechanisms, hardening, and data-sharing gates only
//! ever add cycles. [`LazyConfig::verify_inference`] re-measures every
//! skipped point and reports any miss, so the assumption is checked,
//! not trusted.
//!
//! Two more layers make 10⁵-point spaces affordable:
//!
//! * a **measurement memo** keyed by the order key, which is the
//!   experiment's identity: points that collapse to the same experiment
//!   (don't-care profile slots of per-compartment spaces) share a key
//!   and are built and run once, and repeat requests across binary-search rounds and
//!   Pareto budget levels are served from the memo;
//! * per-workload **normalization from minimal elements**: monotonicity
//!   puts each workload's best configuration among the poset's minimal
//!   elements, so the group maximum — and therefore every fractional
//!   budget threshold — is known after measuring only those.
//!
//! The classification is bit-identical to the exhaustive engine's
//! star/pruned/budget-vector reports on duplicate-free spaces
//! (`tests/lazy_sweep.rs` pins this on `quick`, on a two-core-count
//! slice of `full-smp`, and on a slice of `full-profiled`; CI runs
//! `--lazy --verify-inference` on `quick`, `full-smp` and `quick` at
//! `--cores 1,2`). Both engines compare the same packed order key
//! (`report::OrderKey`), so a clause of the order cannot reach one
//! and miss the other.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use flexos_explore::{chain_cover, lazy_classify, maximal_among, minimal_among, PointStatus};
use flexos_machine::fault::Fault;

use crate::engine::{run_indices, PointResult};
use crate::report::{BudgetVector, OrderKey};
use crate::space::{SpaceSpec, Workload};

/// Knobs of a lazy sweep.
#[derive(Debug, Clone)]
pub struct LazyConfig {
    /// Worker threads per measurement batch.
    pub threads: usize,
    /// Per-workload fractional budgets (the primary classification).
    pub budgets: BudgetVector,
    /// Re-measure every skipped experiment and diff against the
    /// inferred statuses (the monotonicity escape hatch). Runs after
    /// [`LazyStats`] are frozen, so the reported skip rate still
    /// describes the lazy run.
    pub verify_inference: bool,
    /// Additional uniform budget levels for the per-workload
    /// perf × safety Pareto frontier (empty: skip).
    pub pareto_fracs: Vec<f64>,
}

/// How a lazy sweep spent (and avoided) measurements. Frozen after the
/// primary classification, star backfill, and Pareto levels — the
/// verification pass (which by design re-measures everything) is *not*
/// counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LazyStats {
    /// Enumerated points explored.
    pub points: usize,
    /// Distinct canonical experiments among them.
    pub canonical: usize,
    /// Canonical experiments actually built and executed.
    pub measured: usize,
    /// Canonical experiments classified purely by order inference.
    pub inferred: usize,
    /// Measurement requests served from the memo (duplicate indices,
    /// repeat requests across rounds and budget levels).
    pub memo_hits: usize,
}

impl LazyStats {
    /// Fraction of enumerated points that never cost an execution.
    pub fn skip_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            1.0 - self.measured as f64 / self.points as f64
        }
    }
}

/// One budget level of a workload's Pareto frontier.
#[derive(Debug, Clone)]
pub struct ParetoLevel {
    /// Uniform fractional budget of this level.
    pub frac: f64,
    /// Enumerated points of the workload surviving the level.
    pub surviving: usize,
    /// Spec indices of the level's stars (maximal surviving canonical
    /// points), ascending.
    pub stars: Vec<usize>,
}

/// The perf × safety Pareto frontier of one workload: at each budget
/// level, the starred configurations are exactly the safest ones whose
/// performance still meets the level — sweeping the level traces the
/// frontier.
#[derive(Debug, Clone)]
pub struct WorkloadPareto {
    /// The workload.
    pub workload: Workload,
    /// Frontier levels, in [`LazyConfig::pareto_fracs`] order.
    pub levels: Vec<ParetoLevel>,
}

/// Periodic progress of a long lazy run.
#[derive(Debug, Clone, Copy)]
pub struct ProgressSnapshot {
    /// Canonical experiments classified so far (current pass).
    pub classified: usize,
    /// Total canonical experiments.
    pub total: usize,
    /// Experiments executed so far (all passes).
    pub executed: usize,
    /// Seconds since the sweep started.
    pub elapsed_s: f64,
    /// Crude completion estimate from the classification rate.
    pub eta_s: Option<f64>,
}

/// Outcome of [`lazy_sweep`].
#[derive(Debug)]
pub struct LazyOutcome {
    /// Final status per explored position (parallel to the `indices`
    /// argument; never [`PointStatus::Unknown`]).
    pub statuses: Vec<PointStatus>,
    /// Spec indices surviving their workload's budget, ascending.
    pub surviving: Vec<usize>,
    /// Spec indices of the stars (maximal surviving points), ascending.
    /// On spaces with collapsed duplicates, stars are reported on the
    /// canonical representative (first enumerated index of each
    /// experiment): order-equal duplicates would otherwise extinguish
    /// each other under "nothing strictly above survives".
    pub stars: Vec<usize>,
    /// Every measured result, keyed by canonical-representative spec
    /// index (stars are always present; the rest is whatever the
    /// binary search happened to touch).
    pub results: HashMap<usize, PointResult>,
    /// Per-workload group maxima (the normalization denominators), in
    /// first-appearance order.
    pub group_max: Vec<(Workload, f64)>,
    /// Measurement accounting.
    pub stats: LazyStats,
    /// Spec indices whose inferred status contradicted a verification
    /// measurement. Empty unless [`LazyConfig::verify_inference`];
    /// non-empty means the monotonicity assumption broke.
    pub inference_misses: Vec<usize>,
    /// Per-workload Pareto frontiers (one entry per workload present,
    /// when [`LazyConfig::pareto_fracs`] is non-empty).
    pub pareto: Vec<WorkloadPareto>,
}

/// One scope of mutually comparable canonical points
/// ([`OrderKey::scope`]: same workload, same per-component allocator
/// vector): the §5 order never crosses a scope boundary, so covers,
/// classification, and star extraction run per scope and lose nothing.
/// The split is only an optimisation — the comparison inside a scope is
/// [`OrderKey::leq`], the same one
/// [`sweep_leq`](crate::report::sweep_leq) runs.
struct Scope {
    workload: Workload,
    /// Canonical-representative ids, in representative order.
    reps: Vec<usize>,
    /// Chain cover over scope-local positions (into `reps`).
    chains: Vec<Vec<usize>>,
    /// Scope-local positions of the scope's minimal elements.
    minimals: Vec<usize>,
}

impl Scope {
    /// The order over scope-local positions, given every
    /// representative's key.
    fn leq<'a>(&'a self, rep_key: &'a [OrderKey]) -> impl Fn(usize, usize) -> bool + 'a {
        move |a, b| rep_key[self.reps[a]].leq(&rep_key[self.reps[b]])
    }
}

/// Read-only state shared by every pass of one lazy sweep.
struct Ctx<'a> {
    spec: &'a SpaceSpec,
    threads: usize,
    /// Representative id → spec index.
    rep_spec_index: Vec<usize>,
    /// Representative id → order key.
    rep_key: Vec<OrderKey>,
    scopes: Vec<Scope>,
    started: Instant,
}

/// The measurement memo: representative id → result, plus the request
/// accounting.
struct Memo {
    results: HashMap<usize, PointResult>,
    hits: usize,
}

/// Measures `ids` (representative ids, repeats allowed), serving from
/// the memo and batching whatever is fresh through [`run_indices`].
/// Returns one `ops_per_sec` per requested id.
fn measure_reps(ctx: &Ctx<'_>, memo: &mut Memo, ids: &[usize]) -> Result<Vec<f64>, Fault> {
    let mut seen = HashSet::new();
    let fresh: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|&id| !memo.results.contains_key(&id) && seen.insert(id))
        .collect();
    memo.hits += ids.len() - fresh.len();
    if !fresh.is_empty() {
        let spec_indices: Vec<usize> = fresh.iter().map(|&id| ctx.rep_spec_index[id]).collect();
        let results = run_indices(ctx.spec, &spec_indices, ctx.threads)?;
        for (&id, r) in fresh.iter().zip(results) {
            memo.results.insert(id, r);
        }
    }
    Ok(ids.iter().map(|id| memo.results[id].ops_per_sec).collect())
}

/// The normalization denominator of workload `w`.
///
/// # Errors
///
/// [`Fault::InvalidConfig`] when no minimal element of `w` was measured:
/// a finite partial order always has one, so this reports a broken
/// order (a `≤` that is not antisymmetric) instead of panicking on it.
fn max_of(group_max: &[(Workload, f64)], w: Workload) -> Result<f64, Fault> {
    group_max
        .iter()
        .find(|(gw, _)| *gw == w)
        .map(|&(_, m)| m)
        .ok_or_else(|| Fault::InvalidConfig {
            reason: format!(
                "safety order has no minimal element for workload `{}`",
                w.label()
            ),
        })
}

/// One full classification pass at the given per-workload budgets:
/// every scope's chains are binary-searched, sharing `memo` across
/// passes. Returns the status of every canonical representative.
///
/// The budget predicate is exactly the exhaustive engine's —
/// `ops_per_sec / group_max >= frac`, the same floats in the same
/// order — which is what makes the lazy surviving set bit-identical
/// to [`star_report_vec`](crate::report::star_report_vec) on
/// duplicate-free spaces.
fn classify_all(
    ctx: &Ctx<'_>,
    memo: &mut Memo,
    group_max: &[(Workload, f64)],
    budget_of: &dyn Fn(Workload) -> f64,
    progress: &mut Option<&mut dyn FnMut(&ProgressSnapshot)>,
) -> Result<Vec<PointStatus>, Fault> {
    let reps = ctx.rep_spec_index.len();
    let mut rep_status = vec![PointStatus::Unknown; reps];
    let mut classified = 0usize;
    for scope in &ctx.scopes {
        let ids = &scope.reps;
        let frac = budget_of(scope.workload);
        let gmax = max_of(group_max, scope.workload)?;
        let mut fault = None;
        let statuses = lazy_classify(
            ids.len(),
            scope.leq(&ctx.rep_key),
            &scope.chains,
            |batch| {
                let rep_batch: Vec<usize> = batch.iter().map(|&l| ids[l]).collect();
                match measure_reps(ctx, memo, &rep_batch) {
                    Ok(perfs) => perfs,
                    Err(f) => {
                        // Classification keeps running on dummy values;
                        // the fault aborts the scope right below.
                        fault = Some(f);
                        vec![f64::MAX; batch.len()]
                    }
                }
            },
            |_, perf| perf / gmax >= frac,
        );
        if let Some(f) = fault {
            return Err(f);
        }
        for (local, &id) in ids.iter().enumerate() {
            rep_status[id] = statuses[local];
        }
        classified += ids.len();
        if let Some(cb) = progress.as_mut() {
            let elapsed = ctx.started.elapsed().as_secs_f64();
            let eta = (classified > 0)
                .then(|| elapsed * reps.saturating_sub(classified) as f64 / classified as f64);
            cb(&ProgressSnapshot {
                classified,
                total: reps,
                executed: memo.results.len(),
                elapsed_s: elapsed,
                eta_s: eta,
            });
        }
    }
    Ok(rep_status)
}

/// Stars of one scope under `rep_status`: the surviving
/// representatives [`maximal_among`] the scope's survivors, as spec
/// indices in ascending order (cross-scope points are incomparable, so
/// the union over scopes is the global star set).
fn stars_of(ctx: &Ctx<'_>, scope: &Scope, rep_status: &[PointStatus]) -> Vec<usize> {
    let ids = &scope.reps;
    let surviving: Vec<usize> = (0..ids.len())
        .filter(|&l| rep_status[ids[l]] == PointStatus::Survives)
        .collect();
    maximal_among(&surviving, scope.leq(&ctx.rep_key))
        .into_iter()
        .map(|l| ctx.rep_spec_index[ids[l]])
        .collect()
}

/// Explores `indices` of `spec` lazily. `indices` must be strictly
/// ascending spec indices (use [`lazy_sweep_all`] for the whole
/// space; tests pass sampled slices).
///
/// `progress`, when given, is invoked after every completed scope of
/// every classification pass.
///
/// # Errors
///
/// Measurement faults (see [`run_indices`]), and
/// [`Fault::InvalidConfig`] if a workload's scopes yield no minimal
/// element to normalize against (an order bug, reported rather than
/// panicked on).
///
/// # Panics
///
/// Panics if `indices` is not strictly ascending or out of range.
pub fn lazy_sweep(
    spec: &SpaceSpec,
    indices: &[usize],
    cfg: &LazyConfig,
    mut progress: Option<&mut dyn FnMut(&ProgressSnapshot)>,
) -> Result<LazyOutcome, Fault> {
    assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "indices must be strictly ascending"
    );
    let n = indices.len();
    let started = Instant::now();

    // ---- canonicalization: positions → canonical representatives,
    // one per distinct order key.
    let mut rep_of_key: HashMap<OrderKey, usize> = HashMap::new();
    let mut rep_spec_index: Vec<usize> = Vec::new();
    let mut rep_key: Vec<OrderKey> = Vec::new();
    let mut rep_of_pos: Vec<usize> = Vec::with_capacity(n);
    for &i in indices {
        let key = OrderKey::from(&spec.shape(i));
        let next_id = rep_spec_index.len();
        let id = *rep_of_key.entry(key).or_insert(next_id);
        if id == next_id {
            rep_spec_index.push(i);
            rep_key.push(key);
        }
        rep_of_pos.push(id);
    }
    drop(rep_of_key);
    let reps = rep_spec_index.len();

    // ---- scope split + per-scope chain covers.
    let mut scope_of = HashMap::new();
    let mut scopes: Vec<Scope> = Vec::new();
    for (id, key) in rep_key.iter().enumerate() {
        let next = scopes.len();
        let s = *scope_of.entry(key.scope()).or_insert(next);
        if s == next {
            scopes.push(Scope {
                workload: key.workload,
                reps: Vec::new(),
                chains: Vec::new(),
                minimals: Vec::new(),
            });
        }
        scopes[s].reps.push(id);
    }
    for scope in &mut scopes {
        let (chains, minimals) = {
            let leq = scope.leq(&rep_key);
            let chains = chain_cover(scope.reps.len(), &leq);
            let bottoms: Vec<usize> = chains.iter().map(|c| c[0]).collect();
            let minimals = minimal_among(&bottoms, scope.reps.len(), &leq);
            (chains, minimals)
        };
        (scope.chains, scope.minimals) = (chains, minimals);
    }
    let ctx = Ctx {
        spec,
        threads: cfg.threads,
        rep_spec_index,
        rep_key,
        scopes,
        started,
    };
    let mut memo = Memo {
        results: HashMap::new(),
        hits: 0,
    };

    // ---- normalization: measure every scope's minimal elements;
    // monotonicity puts each workload's best configuration among them
    // (checked against the full measurement set under
    // `verify_inference`).
    let all_minimals: Vec<usize> = ctx
        .scopes
        .iter()
        .flat_map(|s| s.minimals.iter().map(|&l| s.reps[l]))
        .collect();
    measure_reps(&ctx, &mut memo, &all_minimals)?;
    let mut group_max: Vec<(Workload, f64)> = Vec::new();
    for &id in &all_minimals {
        let w = ctx.rep_key[id].workload;
        let perf = memo.results[&id].ops_per_sec;
        match group_max.iter_mut().find(|(gw, _)| *gw == w) {
            Some((_, best)) => *best = best.max(perf),
            None => group_max.push((w, perf)),
        }
    }

    // ---- the primary classification pass.
    let budgets = cfg.budgets.clone();
    let primary = |w: Workload| budgets.budget_for(w);
    let rep_status = classify_all(&ctx, &mut memo, &group_max, &primary, &mut progress)?;

    // ---- star extraction; backfill measurements for stars that were
    // classified by inference, so reports print real performance.
    let mut stars: Vec<usize> = ctx
        .scopes
        .iter()
        .flat_map(|s| stars_of(&ctx, s, &rep_status))
        .collect();
    stars.sort_unstable();
    let spec_to_rep: HashMap<usize, usize> = ctx
        .rep_spec_index
        .iter()
        .enumerate()
        .map(|(id, &i)| (i, id))
        .collect();
    let star_reps: Vec<usize> = stars.iter().map(|i| spec_to_rep[i]).collect();
    measure_reps(&ctx, &mut memo, &star_reps)?;

    // ---- Pareto frontier: one pass per level, memo-shared (only
    // chains whose crossing moves cost fresh measurements).
    let mut pareto: Vec<WorkloadPareto> = Vec::new();
    if !cfg.pareto_fracs.is_empty() {
        let mut per_workload: Vec<(Workload, Vec<ParetoLevel>)> =
            group_max.iter().map(|&(w, _)| (w, Vec::new())).collect();
        for &frac in &cfg.pareto_fracs {
            let level = |_: Workload| frac;
            let level_status = classify_all(&ctx, &mut memo, &group_max, &level, &mut progress)?;
            for (w, levels) in &mut per_workload {
                let surviving = (0..n)
                    .filter(|&pos| {
                        ctx.rep_key[rep_of_pos[pos]].workload == *w
                            && level_status[rep_of_pos[pos]] == PointStatus::Survives
                    })
                    .count();
                let mut level_stars: Vec<usize> = ctx
                    .scopes
                    .iter()
                    .filter(|s| s.workload == *w)
                    .flat_map(|s| stars_of(&ctx, s, &level_status))
                    .collect();
                level_stars.sort_unstable();
                levels.push(ParetoLevel {
                    frac,
                    surviving,
                    stars: level_stars,
                });
            }
        }
        pareto = per_workload
            .into_iter()
            .map(|(workload, levels)| WorkloadPareto { workload, levels })
            .collect();
    }

    // ---- accounting, frozen before the verification pass.
    let stats = LazyStats {
        points: n,
        canonical: reps,
        measured: memo.results.len(),
        inferred: reps - memo.results.len(),
        memo_hits: memo.hits,
    };

    // ---- optional verification: measure every skipped experiment and
    // diff ground truth (true per-workload maxima included — a group
    // max not attained at a minimal element is itself a monotonicity
    // violation and surfaces as misses) against the inferred statuses.
    let mut inference_misses: Vec<usize> = Vec::new();
    if cfg.verify_inference {
        let skipped: Vec<usize> = (0..reps)
            .filter(|id| !memo.results.contains_key(id))
            .collect();
        measure_reps(&ctx, &mut memo, &skipped)?;
        let true_max: Vec<(Workload, f64)> = group_max
            .iter()
            .map(|&(w, _)| {
                let m = (0..reps)
                    .filter(|&id| ctx.rep_key[id].workload == w)
                    .map(|id| memo.results[&id].ops_per_sec)
                    .fold(f64::MIN, f64::max);
                (w, m)
            })
            .collect();
        for (id, &lazy_status) in rep_status.iter().enumerate() {
            let w = ctx.rep_key[id].workload;
            let truth = if memo.results[&id].ops_per_sec / max_of(&true_max, w)?
                >= cfg.budgets.budget_for(w)
            {
                PointStatus::Survives
            } else {
                PointStatus::Pruned
            };
            if truth != lazy_status {
                inference_misses.push(ctx.rep_spec_index[id]);
            }
        }
        inference_misses.sort_unstable();
    }

    // ---- fan statuses out to every enumerated position.
    let statuses: Vec<PointStatus> = rep_of_pos.iter().map(|&id| rep_status[id]).collect();
    let surviving: Vec<usize> = (0..n)
        .filter(|&pos| statuses[pos] == PointStatus::Survives)
        .map(|pos| indices[pos])
        .collect();
    let results: HashMap<usize, PointResult> = memo
        .results
        .iter()
        .map(|(&id, r)| (ctx.rep_spec_index[id], r.clone()))
        .collect();

    Ok(LazyOutcome {
        statuses,
        surviving,
        stars,
        results,
        group_max,
        stats,
        inference_misses,
        pareto,
    })
}

/// [`lazy_sweep`] over the whole space.
///
/// # Errors
///
/// See [`lazy_sweep`].
pub fn lazy_sweep_all(
    spec: &SpaceSpec,
    cfg: &LazyConfig,
    progress: Option<&mut dyn FnMut(&ProgressSnapshot)>,
) -> Result<LazyOutcome, Fault> {
    let indices: Vec<usize> = (0..spec.len()).collect();
    lazy_sweep(spec, &indices, cfg, progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SpaceSpec {
        let mut spec = SpaceSpec::quick(4, 16);
        spec.workloads.truncate(2);
        spec.strategies.truncate(3);
        spec.hardening_masks = vec![0b0000, 0b1000];
        spec
    }

    #[test]
    fn progress_reports_monotone_classification() {
        let spec = tiny();
        let mut snaps: Vec<(usize, usize)> = Vec::new();
        let mut cb = |s: &ProgressSnapshot| snaps.push((s.classified, s.executed));
        let cfg = LazyConfig {
            threads: 1,
            budgets: BudgetVector::uniform(0.8),
            verify_inference: false,
            pareto_fracs: Vec::new(),
        };
        lazy_sweep_all(&spec, &cfg, Some(&mut cb)).unwrap();
        assert!(!snaps.is_empty());
        assert!(snaps.windows(2).all(|w| w[0].0 <= w[1].0));
        let last = snaps.last().unwrap();
        assert_eq!(last.0, spec.len());
        assert!(last.1 <= spec.len());
    }
}
