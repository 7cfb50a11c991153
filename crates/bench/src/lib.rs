//! # flexos-bench — the evaluation harness (§6)
//!
//! One binary per table/figure of the paper's evaluation; each prints the
//! same rows/series the paper reports, regenerated from the simulation:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig06 redis` / `fig06 nginx` | Figure 6: 80-configuration throughput sweeps |
//! | `fig07` | Figure 7: normalized Nginx-vs-Redis scatter |
//! | `fig08` | Figure 8: poset + stars under a 500k req/s budget |
//! | `fig09` | Figure 9: iPerf throughput vs receive-buffer size |
//! | `fig10` | Figure 10: SQLite 5000 INSERTs across systems |
//! | `fig11a` | Figure 11a: shared stack-allocation latencies |
//! | `fig11b` | Figure 11b: gate latencies |
//! | `table1` | Table 1: porting effort |
//! | `sweep` | parallel exploration of a named `flexos_sweep` space |
//!
//! Each of those but `sweep` is a row of [`cli::FIGURES`] — name,
//! usage line, text-returning function — behind [`cli::figure_main`],
//! the one front end that owns argv, `--trace`/`--metrics` and the
//! exit policy; the files under `src/bin/` are one-call shims. The
//! text itself is built by [`fig06_text`], [`fig07_text`],
//! [`fig08_text`] here, `fig10::fig10_text`, and `figures` for the
//! rest, so `tests/goldens.rs` compares every figure in-process
//! against outputs recorded before the last refactor. Figures 6–8 go
//! through the one §5 stack: the [`SpaceSpec::fig6`] space, the sweep
//! engine, and [`sweep_leq`]. Host-time microbenchmarks live in
//! `benchmark/` (`-- --trace 1` prints `core.gate_ns.*`,
//! `alloc.churn_ns.*`, `apps.ns_per_op.*`).

pub mod cli;
pub mod fig10;
pub(crate) mod figures;

use flexos_explore::{prune_and_star_by, Poset};
use flexos_machine::fault::Fault;
use flexos_sweep::{run_parallel, sweep_leq, SpaceSpec, SweepPoint};

/// Sweeps the 80-point Figure 6 space of `app` at `(warmup, measured)`
/// requests per point over `threads` workers, returning the points and
/// their throughputs (req/s), index-aligned; the throughputs do not
/// depend on `threads`.
///
/// # Errors
///
/// [`Fault::InvalidConfig`] for an app other than `redis`/`nginx`;
/// configuration or substrate faults from the points themselves.
pub(crate) fn run_fig6_sweep(
    app: &str,
    (warmup, measured): (u64, u64),
    threads: usize,
) -> Result<(Vec<SweepPoint>, Vec<f64>), Fault> {
    if !matches!(app, "redis" | "nginx") {
        return Err(Fault::InvalidConfig {
            reason: format!("unknown fig6 app `{app}`"),
        });
    }
    let spec = SpaceSpec::fig6(app, warmup, measured);
    let results = run_parallel(&spec, threads)?;
    let perf = results.into_iter().map(|r| r.ops_per_sec).collect();
    Ok((spec.points().collect(), perf))
}

/// The Figure 6 label of a point: `[•◦◦•] redis+newlib / sched+lwip`
/// (hardening dots over app, newlib, uksched, lwip; then the strategy).
pub fn fig6_label(point: &SweepPoint) -> String {
    let dots: String = (0..4)
        .map(|i| match point.hardening_mask & (1 << i) {
            0 => '◦',
            _ => '•',
        })
        .collect();
    format!("[{dots}] {}", point.strategy.label(point.workload.app()))
}

/// Figure 6: `app`'s throughput over the 80-configuration sweep,
/// ascending, plus the summary lines.
///
/// # Errors
///
/// See `run_fig6_sweep`.
pub fn fig06_text(app: &str, counts: (u64, u64), threads: usize) -> Result<String, Fault> {
    let (space, perf) = run_fig6_sweep(app, counts, threads)?;
    let mut order: Vec<usize> = (0..space.len()).collect();
    order.sort_by(|&a, &b| perf[a].total_cmp(&perf[b]));
    let rows: String = order
        .iter()
        .map(|&i| format!("{:>10}  {}\n", fmt_rate(perf[i]), fig6_label(&space[i])))
        .collect();

    let baseline = perf.iter().cloned().fold(f64::MIN, f64::max);
    let slowest = perf.iter().cloned().fold(f64::MAX, f64::min);
    let under20 = perf.iter().filter(|&&p| baseline / p < 1.20).count();
    let under45 = perf.iter().filter(|&&p| baseline / p < 1.45).count();
    Ok(format!(
        "# Figure 6 ({app}): throughput per configuration, ascending\n\
         # [•=hardened ◦=plain: app,newlib,uksched,lwip] strategy\n\
         {rows}\n\
         # summary\n\
         fastest: {}  slowest: {}  span: {:.1}x\n\
         configs <20% overhead: {under20}   configs <45% overhead: {under45}\n\
         # paper (redis): span 4.1x (292k..1199k); (nginx): 9 configs <20%, 32 <45%\n",
        fmt_rate(baseline),
        fmt_rate(slowest),
        baseline / slowest
    ))
}

/// Figure 7: normalized Nginx vs Redis performance per configuration,
/// grouped by compartment count.
///
/// # Errors
///
/// See `run_fig6_sweep`.
pub fn fig07_text(counts: (u64, u64), threads: usize) -> Result<String, Fault> {
    let (space, redis) = run_fig6_sweep("redis", counts, threads)?;
    let (_, nginx) = run_fig6_sweep("nginx", counts, threads)?;
    let rmax = redis.iter().cloned().fold(f64::MIN, f64::max);
    let nmax = nginx.iter().cloned().fold(f64::MIN, f64::max);

    // The paper's observation: the same config slows the two apps by
    // different, hard-to-predict amounts (points off the diagonal).
    let mut off_diagonal = 0;
    let mut rows = String::new();
    for (i, point) in space.iter().enumerate() {
        let (r, n) = (redis[i] / rmax, nginx[i] / nmax);
        rows += &format!("{r:.4} {n:.4} {}\n", point.strategy.compartments());
        if (r - n).abs() > 0.05 {
            off_diagonal += 1;
        }
    }
    Ok(format!(
        "# Figure 7: normalized performance (redis_norm, nginx_norm, compartments)\n\
         {rows}\n\
         # {off_diagonal}/80 configs deviate >5% between the two apps\n"
    ))
}

/// Figure 8: the Redis configuration poset under [`sweep_leq`] and the
/// safest configurations above `budget` req/s (stars).
///
/// # Errors
///
/// See `run_fig6_sweep`; [`Fault::InvalidConfig`] if the order fails
/// the partial-order axioms.
pub fn fig08_text(budget: f64, counts: (u64, u64), threads: usize) -> Result<String, Fault> {
    let (space, perf) = run_fig6_sweep("redis", counts, threads)?;
    let poset = Poset::new(perf, |a, b| sweep_leq(&space[a], &space[b]));
    poset
        .check_axioms()
        .map_err(|reason| Fault::InvalidConfig { reason })?;
    let report = prune_and_star_by(&poset, |_| budget);
    let stars: String = report
        .stars
        .iter()
        .map(|&s| {
            format!(
                "  * {:>10}  {}\n",
                fmt_rate(poset.performance(s)),
                fig6_label(&space[s])
            )
        })
        .collect();
    Ok(format!(
        "# Figure 8: partial safety ordering on the Redis numbers\n\
         poset nodes: {}\n\
         cover edges: {}\n\
         budget {} => {} survive, {} pruned\n\
         \n\
         # starred (safest configurations meeting the budget):\n\
         {stars}\n\
         # paper: 80 -> 5 starred configurations at 500k req/s; here: 80 -> {}\n",
        poset.len(),
        poset.cover_edges().len(),
        fmt_rate(budget),
        report.surviving.len(),
        report.pruned(poset.len()),
        report.stars.len()
    ))
}

/// Formats a rate as the paper's `292.0k` / `1.2M`-style labels.
pub fn fmt_rate(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1_000_000.0 {
        format!("{:.1}M", ops_per_sec / 1_000_000.0)
    } else {
        format!("{:.1}k", ops_per_sec / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(292_000.0), "292.0k");
        assert_eq!(fmt_rate(1_199_200.0), "1.2M");
    }

    #[test]
    fn fig6_labels_render_dots_and_strategy() {
        let point = SpaceSpec::fig6("redis", 1, 1).point(3 * 16 + 0b1001);
        assert_eq!(fig6_label(&point), "[•◦◦•] redis+newlib / sched+lwip");
    }

    #[test]
    fn unknown_fig6_apps_are_a_fault_not_a_redis_run() {
        assert!(matches!(
            run_fig6_sweep("sqlite", (1, 1), 1),
            Err(Fault::InvalidConfig { .. })
        ));
    }
}
