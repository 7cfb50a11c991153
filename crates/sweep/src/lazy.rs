//! Order-guided lazy exploration: measure only what the §5 partial
//! order cannot infer.
//!
//! The exhaustive engine runs every point of a space; this module runs
//! the *order* instead. Within each scope of comparable points (same
//! workload, same per-component allocator assignment — the order's
//! scoping rules), the order is tabulated once as a
//! [`Relation`] (a down-set and an up-set bitset per point) and
//! decomposed into a chain cover ([`Relation::chain_cover`]); each
//! chain's budget crossing is found by binary search
//! ([`flexos_explore::lazy_classify`]), and every point on the known
//! side of a crossing is classified **without being measured**.
//! Scopes are worked one at a time, so the relation a sweep holds is
//! one scope's (`O(n²)` bits for an `n`-point scope), never the
//! space's; after the build every question the engine asks of the
//! order is a bit read, a popcount or a word-wise AND. The inference is exact under the §5
//! performance-monotonicity assumption — `a ≤ b` (a at most as safe)
//! implies `perf(a) ≥ perf(b)` — which holds for the simulator's cost
//! model: isolation mechanisms, hardening, and data-sharing gates only
//! ever add cycles. [`LazyConfig::verify_inference`] re-measures every
//! skipped point and reports any miss, so the assumption is checked,
//! not trusted.
//!
//! Two more layers make 10⁵-point spaces affordable:
//!
//! * a **measurement memo** over canonical representatives (one per
//!   distinct order key, the experiment's identity), a vector indexed
//!   by representative id: points that collapse to the same experiment
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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use flexos_explore::{lazy_classify, maximal_among, PointStatus, Relation};
use flexos_machine::fault::Fault;

use crate::engine::{run_indices, PointResult};
use crate::report::{scope_relation, BudgetVector, OrderKey};
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
    /// Canonical experiments whose scope is done (primary budget and
    /// every Pareto level).
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
}

impl Scope {
    /// The scope's keys, in representative order.
    fn keys<'a>(&'a self, rep_key: &'a [OrderKey]) -> impl Iterator<Item = OrderKey> + 'a {
        self.reps.iter().map(|&id| rep_key[id])
    }

    /// Representative ids of the scope's minimal elements: a scan that
    /// stops at the first key below each candidate, so normalization,
    /// which needs every scope's minimal elements before any scope is
    /// classified, tabulates no order.
    fn minimals<'a>(&'a self, rep_key: &'a [OrderKey]) -> impl Iterator<Item = usize> + 'a {
        // Keys of one scope are distinct (one per representative), so
        // `a != b` is "another element".
        self.reps
            .iter()
            .zip(self.keys(rep_key))
            .filter(|(_, b)| !self.keys(rep_key).any(|a| a != *b && a.leq_within_scope(b)))
            .map(|(&id, _)| id)
    }

    /// The order over scope-local positions, tabulated from every
    /// representative's key. Built when the scope is worked and dropped
    /// after, so a sweep holds one scope's relation at a time.
    fn relation(&self, rep_key: &[OrderKey]) -> Relation {
        scope_relation(self.keys(rep_key))
    }
}

/// A multiply-and-rotate hasher (FxHash's step, with a finalizer so the
/// low bits a table indexes with depend on every input bit) for the
/// canonicalisation maps. Their keys are order keys and scopes derived
/// from the space, never adversarial input, and std's SipHash was most
/// of a warm fold's canonicalisation.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let h = self.0;
        h ^ h >> 29
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

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

/// The measurement memo: each representative's result, in measurement
/// order, plus the request accounting.
struct Memo {
    /// Representative id → position in `results`, or [`UNMEASURED`].
    slot: Vec<u32>,
    results: Vec<PointResult>,
    hits: usize,
}

/// [`Memo::slot`] of a representative not measured yet.
const UNMEASURED: u32 = u32::MAX;

impl Memo {
    fn new(reps: usize) -> Memo {
        Memo {
            slot: vec![UNMEASURED; reps],
            results: Vec::new(),
            hits: 0,
        }
    }

    /// The result of representative `id`, if measured.
    fn get(&self, id: usize) -> Option<&PointResult> {
        self.results.get(self.slot[id] as usize)
    }
}

/// Measures `ids` (distinct representative ids: chain midpoints,
/// minimal elements, stars or skipped representatives), serving from
/// the memo and batching whatever is fresh through [`run_indices`].
/// Returns one `ops_per_sec` per requested id.
fn measure_reps(ctx: &Ctx<'_>, memo: &mut Memo, ids: &[usize]) -> Result<Vec<f64>, Fault> {
    let fresh: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|&id| memo.slot[id] == UNMEASURED)
        .collect();
    memo.hits += ids.len() - fresh.len();
    if !fresh.is_empty() {
        let spec_indices: Vec<usize> = fresh.iter().map(|&id| ctx.rep_spec_index[id]).collect();
        let results = run_indices(ctx.spec, &spec_indices, ctx.threads)?;
        for (&id, r) in fresh.iter().zip(results) {
            memo.slot[id] = memo.results.len() as u32;
            memo.results.push(r);
        }
    }
    Ok(ids
        .iter()
        .map(|&id| memo.get(id).expect("measured above").ops_per_sec)
        .collect())
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

/// One classification of `scope` at budget `frac` of `gmax`: the
/// scope's `chains` are binary-searched over `order`, sharing `memo`
/// with every other pass. Returns the status of every scope-local
/// position.
///
/// The budget predicate is exactly the exhaustive engine's —
/// `ops_per_sec / group_max >= frac`, the same floats in the same
/// order — which is what makes the lazy surviving set bit-identical
/// to [`star_report_vec`](crate::report::star_report_vec) on
/// duplicate-free spaces.
fn classify_scope(
    ctx: &Ctx<'_>,
    memo: &mut Memo,
    scope: &Scope,
    order: &Relation,
    chains: &[Vec<usize>],
    gmax: f64,
    frac: f64,
) -> Result<Vec<PointStatus>, Fault> {
    let mut fault = None;
    let mut rep_batch = Vec::new();
    let statuses = lazy_classify(
        order,
        chains,
        |batch| {
            rep_batch.clear();
            rep_batch.extend(batch.iter().map(|&l| scope.reps[l]));
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
    match fault {
        Some(f) => Err(f),
        None => Ok(statuses),
    }
}

/// Stars of one scope under `statuses`: the surviving positions
/// [`maximal_among`] the scope's survivors, as representative ids
/// (cross-scope points are incomparable, so the union over scopes is
/// the global star set).
fn stars_of(scope: &Scope, order: &Relation, statuses: &[PointStatus]) -> Vec<usize> {
    let surviving: Vec<usize> = (0..statuses.len())
        .filter(|&l| statuses[l] == PointStatus::Survives)
        .collect();
    maximal_among(&surviving, |a, b| order.leq(a, b))
        .into_iter()
        .map(|l| scope.reps[l])
        .collect()
}

/// Explores `indices` of `spec` lazily. `indices` must be strictly
/// ascending spec indices (use [`lazy_sweep_all`] for the whole
/// space; tests pass sampled slices).
///
/// Scopes are worked one at a time: a scope's order is tabulated once
/// ([`Relation`]), serves its chain cover, its primary classification,
/// its stars and every Pareto level, and is dropped before the next
/// scope's is built. Normalization, which needs every scope's minimal
/// elements first, finds them by a scan that tabulates nothing.
///
/// `progress`, when given, is invoked after every completed scope.
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
    let mut rep_of_key: KeyMap<OrderKey, usize> = KeyMap::default();
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

    // ---- scope split.
    let mut scope_of = KeyMap::default();
    let mut scopes: Vec<Scope> = Vec::new();
    for (id, key) in rep_key.iter().enumerate() {
        let next = scopes.len();
        let s = *scope_of.entry(key.scope()).or_insert(next);
        if s == next {
            scopes.push(Scope {
                workload: key.workload,
                reps: Vec::new(),
            });
        }
        scopes[s].reps.push(id);
    }
    let ctx = Ctx {
        spec,
        threads: cfg.threads,
        rep_spec_index,
        rep_key,
        scopes,
        started,
    };
    let mut memo = Memo::new(reps);

    // ---- normalization: measure every scope's minimal elements;
    // monotonicity puts each workload's best configuration among them
    // (checked against the full measurement set under
    // `verify_inference`).
    let all_minimals: Vec<usize> = ctx
        .scopes
        .iter()
        .flat_map(|s| s.minimals(&ctx.rep_key))
        .collect();
    let minimal_perfs = measure_reps(&ctx, &mut memo, &all_minimals)?;
    let mut group_max: Vec<(Workload, f64)> = Vec::new();
    for (&id, &perf) in all_minimals.iter().zip(&minimal_perfs) {
        let w = ctx.rep_key[id].workload;
        match group_max.iter_mut().find(|(gw, _)| *gw == w) {
            Some((_, best)) => *best = best.max(perf),
            None => group_max.push((w, perf)),
        }
    }

    // ---- scope by scope: the primary classification, its stars
    // (backfilling measurements for stars classified by inference, so
    // reports print real performance), then one pass per Pareto level
    // (memo-shared: only chains whose crossing moves cost fresh
    // measurements).
    let mut copies = vec![0usize; reps];
    for &id in &rep_of_pos {
        copies[id] += 1;
    }
    let mut rep_status = vec![PointStatus::Unknown; reps];
    let mut stars: Vec<usize> = Vec::new();
    let mut pareto: Vec<WorkloadPareto> = if cfg.pareto_fracs.is_empty() {
        Vec::new()
    } else {
        group_max
            .iter()
            .map(|&(workload, _)| WorkloadPareto {
                workload,
                levels: cfg
                    .pareto_fracs
                    .iter()
                    .map(|&frac| ParetoLevel {
                        frac,
                        surviving: 0,
                        stars: Vec::new(),
                    })
                    .collect(),
            })
            .collect()
    };
    let mut classified = 0usize;
    for scope in &ctx.scopes {
        let order = scope.relation(&ctx.rep_key);
        let chains = order.chain_cover();
        let gmax = max_of(&group_max, scope.workload)?;
        let frac = cfg.budgets.budget_for(scope.workload);
        let statuses = classify_scope(&ctx, &mut memo, scope, &order, &chains, gmax, frac)?;
        for (&id, &status) in scope.reps.iter().zip(&statuses) {
            rep_status[id] = status;
        }
        let scope_stars = stars_of(scope, &order, &statuses);
        measure_reps(&ctx, &mut memo, &scope_stars)?;
        stars.extend(scope_stars.iter().map(|&id| ctx.rep_spec_index[id]));

        if let Some(frontier) = pareto.iter_mut().find(|wp| wp.workload == scope.workload) {
            for level in &mut frontier.levels {
                let statuses =
                    classify_scope(&ctx, &mut memo, scope, &order, &chains, gmax, level.frac)?;
                level.surviving += scope
                    .reps
                    .iter()
                    .zip(&statuses)
                    .filter(|&(_, &s)| s == PointStatus::Survives)
                    .map(|(&id, _)| copies[id])
                    .sum::<usize>();
                let level_stars = stars_of(scope, &order, &statuses);
                level
                    .stars
                    .extend(level_stars.iter().map(|&id| ctx.rep_spec_index[id]));
            }
        }

        classified += scope.reps.len();
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
    stars.sort_unstable();
    for level in pareto.iter_mut().flat_map(|wp| &mut wp.levels) {
        level.stars.sort_unstable();
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
        let skipped: Vec<usize> = (0..reps).filter(|&id| memo.get(id).is_none()).collect();
        measure_reps(&ctx, &mut memo, &skipped)?;
        let perf = |id: usize| memo.get(id).expect("every rep measured").ops_per_sec;
        let true_max: Vec<(Workload, f64)> = group_max
            .iter()
            .map(|&(w, _)| {
                let m = (0..reps)
                    .filter(|&id| ctx.rep_key[id].workload == w)
                    .map(perf)
                    .fold(f64::MIN, f64::max);
                (w, m)
            })
            .collect();
        for (id, &lazy_status) in rep_status.iter().enumerate() {
            let w = ctx.rep_key[id].workload;
            let truth = if perf(id) / max_of(&true_max, w)? >= cfg.budgets.budget_for(w) {
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
    let results: HashMap<usize, PointResult> =
        memo.results.into_iter().map(|r| (r.index, r)).collect();

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
