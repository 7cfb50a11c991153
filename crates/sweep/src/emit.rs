//! Result emission: the `BENCH_sweep.json` summary lines (exhaustive
//! and lazy), Pareto-frontier dumps, and CSV point dumps (no serde in
//! the build environment — plain formatting, like the other
//! `BENCH_*.json` emitters).

use flexos_explore::StarReport;
use flexos_machine::trace::JsonStr;

use crate::engine::PointResult;
use crate::lazy::{LazyOutcome, LazyStats, ParetoLevel, WorkloadPareto};
use crate::space::{SpaceSpec, SweepPoint};

/// Renders the sweep as CSV, one row per point (header included):
/// `index,app,workload,mechanism,strategy,compartments,data_sharing,allocator,hardening_mask,ops,cycles,ops_per_sec`.
///
/// # Panics
///
/// Panics if `results.len() != points.len()`.
pub fn csv(points: &[SweepPoint], results: &[PointResult]) -> String {
    assert_eq!(points.len(), results.len(), "one result per point");
    let mut out = String::from(
        "index,app,workload,mechanism,strategy,compartments,data_sharing,allocator,\
         hardening_mask,ops,cycles,ops_per_sec\n",
    );
    for (p, r) in points.iter().zip(results) {
        let (data_sharing, allocator) = p.profiles[0];
        out.push_str(&format!(
            "{},{},{},{:?},{:?},{},{},{},{},{},{},{:.1}\n",
            p.index,
            p.workload.app(),
            p.workload.label(),
            p.mechanism,
            p.strategy,
            p.strategy.compartments(),
            data_sharing,
            allocator,
            p.hardening_mask,
            r.ops,
            r.cycles,
            r.ops_per_sec,
        ));
    }
    out
}

/// The `BENCH_sweep.json` payload: what ran, how it was parallelized,
/// and whether the parallel run reproduced the serial one.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Space name.
    pub(crate) space: String,
    /// Points swept.
    pub(crate) points: usize,
    /// Worker threads used for the parallel run.
    pub(crate) threads: usize,
    /// Host cores visible to the process.
    pub cores: usize,
    /// Per-point warmup operations.
    pub(crate) warmup: u64,
    /// Per-point measured operations.
    pub(crate) measured: u64,
    /// Wall-clock seconds of the serial reference run (when taken).
    pub(crate) serial_s: Option<f64>,
    /// Wall-clock seconds of the parallel run.
    pub(crate) parallel_s: f64,
    /// `Some(true)` when a serial reference run was bit-identical to
    /// the parallel run; `Some(false)` on divergence; `None` when no
    /// reference was taken.
    pub(crate) verified: Option<bool>,
    /// Total virtual cycles across all points (a whole-space
    /// determinism digest: any per-point divergence moves it).
    pub(crate) total_cycles: u64,
    /// Fractional performance budget applied for the star report.
    pub(crate) budget_frac: f64,
    /// Configurations surviving the budget.
    pub(crate) surviving: usize,
    /// Starred (maximal surviving) configurations.
    pub(crate) stars: usize,
}

impl SweepSummary {
    /// Serial-over-parallel wall-clock speedup (when a serial reference
    /// was taken).
    pub(crate) fn speedup(&self) -> Option<f64> {
        self.serial_s
            .filter(|_| self.parallel_s > 0.0)
            .map(|s| s / self.parallel_s)
    }

    /// The single-line JSON rendering.
    pub fn to_json(&self) -> String {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "null".to_string(),
        };
        let verified = match self.verified {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        };
        format!(
            concat!(
                "{{\"bench\":\"sweep\",\"space\":{},\"points\":{},",
                "\"threads\":{},\"cores\":{},\"warmup\":{},\"measured\":{},",
                "\"serial_s\":{},\"parallel_s\":{:.3},\"speedup\":{},",
                "\"verified\":{},\"total_cycles\":{},",
                "\"budget_frac\":{},\"surviving\":{},\"stars\":{}}}"
            ),
            JsonStr(&self.space),
            self.points,
            self.threads,
            self.cores,
            self.warmup,
            self.measured,
            fmt_opt(self.serial_s),
            self.parallel_s,
            fmt_opt(self.speedup()),
            verified,
            self.total_cycles,
            self.budget_frac,
            self.surviving,
            self.stars,
        )
    }
}

/// Sums the virtual cycles of a result set (the determinism digest).
pub(crate) fn total_cycles(results: &[PointResult]) -> u64 {
    results.iter().map(|r| r.cycles).sum()
}

/// Host cores visible to the process — recorded in every `BENCH_*.json`
/// payload so a reader can tell how parallel the *host* run was
/// (simulated core counts are a per-point axis, never host state).
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The `BENCH_sweep.json` payload of a **lazy** run: how much of the
/// space was enumerated, how little of it was executed, and whether
/// the inference was verified.
#[derive(Debug, Clone)]
pub struct LazySummary {
    /// Space name.
    pub(crate) space: String,
    /// How the run spent (and avoided) measurements.
    pub(crate) stats: LazyStats,
    /// Worker threads per measurement batch.
    pub(crate) threads: usize,
    /// Host cores visible to the process.
    pub host_cores: usize,
    /// Per-point warmup operations.
    pub(crate) warmup: u64,
    /// Per-point measured operations.
    pub(crate) measured_ops: u64,
    /// Wall-clock seconds of the whole lazy run.
    pub(crate) wall_s: f64,
    /// Default fractional budget of the primary classification.
    pub(crate) budget_frac: f64,
    /// Enumerated points surviving their workload's budget.
    pub(crate) surviving: usize,
    /// Starred (maximal surviving canonical) configurations.
    pub(crate) stars: usize,
    /// `Some(miss_count)` when `--verify-inference` ran (0 = the
    /// monotonicity assumption held everywhere); `None` otherwise.
    pub(crate) inference_misses: Option<usize>,
}

impl LazySummary {
    /// Assembles the summary from a finished lazy run.
    pub fn from_outcome(
        spec: &SpaceSpec,
        outcome: &LazyOutcome,
        threads: usize,
        wall_s: f64,
        budget_frac: f64,
        verified: bool,
    ) -> LazySummary {
        LazySummary {
            space: spec.name.clone(),
            stats: outcome.stats,
            threads,
            host_cores: host_cores(),
            warmup: spec.warmup,
            measured_ops: spec.measured,
            wall_s,
            budget_frac,
            surviving: outcome.surviving.len(),
            stars: outcome.stars.len(),
            inference_misses: verified.then_some(outcome.inference_misses.len()),
        }
    }

    /// The single-line JSON rendering.
    pub fn to_json(&self) -> String {
        let stats = &self.stats;
        let misses = match self.inference_misses {
            Some(m) => m.to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"bench\":\"sweep\",\"mode\":\"lazy\",\"space\":{},\"points\":{},",
                "\"canonical\":{},\"measured\":{},\"inferred\":{},\"memo_hits\":{},",
                "\"skip_rate\":{:.4},\"threads\":{},\"host_cores\":{},\"warmup\":{},",
                "\"measured_ops\":{},\"wall_s\":{:.3},\"budget_frac\":{},\"surviving\":{},",
                "\"stars\":{},\"inference_misses\":{}}}"
            ),
            JsonStr(&self.space),
            stats.points,
            stats.canonical,
            stats.measured,
            stats.inferred,
            stats.memo_hits,
            stats.skip_rate(),
            self.threads,
            self.host_cores,
            self.warmup,
            self.measured_ops,
            self.wall_s,
            self.budget_frac,
            self.surviving,
            self.stars,
            misses,
        )
    }
}

/// Renders per-workload Pareto frontiers as a JSON document (the
/// `--pareto PATH` payload): host-run metadata (worker threads, host
/// cores), then one object per workload, one
/// `{frac, surviving, stars, star_labels}` entry per budget level,
/// star labels derived on demand from the spec.
pub fn pareto_json(spec: &SpaceSpec, pareto: &[WorkloadPareto], threads: usize) -> String {
    let level_json = |level: &ParetoLevel| {
        let labels: Vec<String> = level
            .stars
            .iter()
            .map(|&s| JsonStr(&spec.label_of(s)).to_string())
            .collect();
        format!(
            "{{\"frac\":{},\"surviving\":{},\"stars\":{},\"star_labels\":[{}]}}",
            level.frac,
            level.surviving,
            level.stars.len(),
            labels.join(",")
        )
    };
    let workloads: Vec<String> = pareto
        .iter()
        .map(|wp| {
            let levels: Vec<String> = wp.levels.iter().map(level_json).collect();
            format!(
                "{{\"workload\":{},\"levels\":[{}]}}",
                JsonStr(&wp.workload.label()),
                levels.join(",")
            )
        })
        .collect();
    format!(
        "{{\"space\":{},\"threads\":{},\"host_cores\":{},\"workloads\":[{}]}}",
        JsonStr(&spec.name),
        threads,
        host_cores(),
        workloads.join(",")
    )
}

/// How a sweep was executed, wall-clock-wise (input to [`summary`]).
#[derive(Debug, Clone, Copy)]
pub struct RunTiming {
    /// Worker threads used for the parallel run.
    pub threads: usize,
    /// Wall-clock seconds of the parallel run.
    pub parallel_s: f64,
    /// Wall-clock seconds of the serial reference run, when taken.
    pub serial_s: Option<f64>,
    /// Whether the serial reference matched bit-for-bit (when taken).
    pub verified: Option<bool>,
}

/// Convenience: emission inputs assembled from a finished run.
///
/// # Panics
///
/// Panics if `results.len() != spec.len()`.
pub fn summary(
    spec: &SpaceSpec,
    results: &[PointResult],
    timing: RunTiming,
    budget_frac: f64,
    report: &StarReport,
) -> SweepSummary {
    assert_eq!(results.len(), spec.len(), "one result per point");
    SweepSummary {
        space: spec.name.clone(),
        points: results.len(),
        threads: timing.threads,
        cores: host_cores(),
        warmup: spec.warmup,
        measured: spec.measured,
        serial_s: timing.serial_s,
        parallel_s: timing.parallel_s,
        verified: timing.verified,
        total_cycles: total_cycles(results),
        budget_frac,
        surviving: report.surviving.len(),
        stars: report.stars.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_results(n: usize) -> Vec<PointResult> {
        (0..n)
            .map(|i| PointResult {
                index: i,
                ops: 10,
                cycles: 100 + i as u64,
                ops_per_sec: 1000.0,
            })
            .collect()
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let spec = SpaceSpec::quick(1, 4);
        let points: Vec<_> = spec.points().collect();
        let results = fake_results(points.len());
        let out = csv(&points, &results);
        assert_eq!(out.lines().count(), points.len() + 1);
        assert!(out.starts_with("index,app,workload"));
    }

    #[test]
    fn json_summary_is_well_formed() {
        let s = SweepSummary {
            space: "quick".into(),
            points: 72,
            threads: 4,
            cores: 4,
            warmup: 50,
            measured: 500,
            serial_s: Some(8.0),
            parallel_s: 2.0,
            verified: Some(true),
            total_cycles: 123456,
            budget_frac: 0.8,
            surviving: 30,
            stars: 5,
        };
        let json = s.to_json();
        assert_eq!(s.speedup(), Some(4.0));
        assert!(json.contains("\"speedup\":4.000"));
        assert!(json.contains("\"verified\":true"));
        assert!(json.contains("\"total_cycles\":123456"));
        // Balanced braces, single line.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains('\n'));
    }

    #[test]
    fn digest_sums_cycles() {
        assert_eq!(total_cycles(&fake_results(3)), 100 + 101 + 102);
    }

    #[test]
    fn lazy_summary_reports_skip_rate() {
        let s = LazySummary {
            space: "full-profiled".into(),
            stats: LazyStats {
                points: 311_040,
                canonical: 104_000,
                measured: 26_000,
                inferred: 78_000,
                memo_hits: 250_000,
            },
            threads: 4,
            host_cores: 8,
            warmup: 20,
            measured_ops: 200,
            wall_s: 12.0,
            budget_frac: 0.8,
            surviving: 1000,
            stars: 40,
            inference_misses: Some(0),
        };
        assert!((s.stats.skip_rate() - (1.0 - 26_000.0 / 311_040.0)).abs() < 1e-12);
        let json = s.to_json();
        assert!(json.contains("\"mode\":\"lazy\""));
        assert!(json.contains("\"measured\":26000"));
        assert!(json.contains("\"inferred\":78000"));
        assert!(json.contains("\"memo_hits\":250000"));
        assert!(json.contains("\"skip_rate\":0.9164"));
        assert!(json.contains("\"threads\":4,\"host_cores\":8"));
        assert!(json.contains("\"inference_misses\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains('\n'));
    }

    #[test]
    fn pareto_json_labels_stars_from_the_spec() {
        let spec = SpaceSpec::quick(1, 4);
        let w = spec.workloads[0];
        let pareto = vec![WorkloadPareto {
            workload: w,
            levels: vec![ParetoLevel {
                frac: 0.8,
                surviving: 3,
                stars: vec![0],
            }],
        }];
        let json = pareto_json(&spec, &pareto, 4);
        assert!(json.contains("\"space\":\"quick\""));
        assert!(json.contains("\"threads\":4"));
        assert!(json.contains("\"host_cores\":"));
        assert!(json.contains(&format!("\"workload\":\"{}\"", w.label())));
        assert!(json.contains("\"frac\":0.8"));
        assert!(json.contains(&format!("\"{}\"", spec.label_of(0))));
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
