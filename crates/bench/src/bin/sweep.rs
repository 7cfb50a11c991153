//! `sweep`: parallel exploration of a named configuration space.
//!
//! The front end of the `flexos_sweep` engine, in two modes:
//!
//! * **Exhaustive** (default): sweeps every point thread-per-worker,
//!   optionally re-simulates every point serially, pricing none, to
//!   *prove* the parallel and priced results bit-identical (and to
//!   measure the speedup), runs the generalized
//!   Figure 8 star report, and prints a single JSON summary line to
//!   stdout — the payload checked in as `BENCH_sweep.json`.
//! * **Lazy** (`--lazy`): measures only what the §5 partial order
//!   cannot infer — chain covers + binary search per order scope, a
//!   measurement memo over canonical experiments, per-workload
//!   normalization from minimal elements. The star/pruned/budget
//!   output is bit-identical to the exhaustive mode's;
//!   `--verify-inference` re-measures every skipped point to check
//!   the performance-monotonicity assumption instead of trusting it.
//!   The only mode that makes `full-profiled` (3×10⁵ enumerated
//!   points) affordable.
//!
//! Star/spread details go to stderr. `--space` takes `full`,
//! `full-smp`, `full-profiled`, `quick`, `fig6-redis` or `fig6-nginx`;
//! `USAGE` lists every flag.
//!
//! `--budget` entries override the uniform `--budget-frac` for single
//! workload groups (matched by workload label, e.g. `redis k3 P1`,
//! `nginx`, `iperf b16384`) — the per-workload budget *vector* of the
//! generalized §5 report. `--pareto PATH` (lazy mode) additionally
//! classifies the space at a ladder of uniform budget levels and
//! writes each workload's perf × safety Pareto frontier as JSON.
//! `--cores LIST` (comma-separated, e.g. `--cores 1,2,4,8`) replaces
//! the space's simulated-core axis: every shape is swept once per core
//! count, cores-major, each instance booted on that many simulated
//! vCPUs. `--threads N` must be at least 1 — a zero-worker sweep is a
//! usage error, not an empty run. `--progress` prints periodic
//! classification progress (with an ETA) to stderr; `--quiet` silences
//! all stderr narration, including it.
//!
//! Environment: `SWEEP_THREADS` (worker count; also the `--threads`
//! default), `SWEEP_WARMUP` / `SWEEP_MEASURED` (per-point operation
//! counts — CI runs a reduced multi-threaded sweep with `--verify` and
//! a lazy `--verify-inference` pass, and **fails on divergence** via
//! the nonzero exits).
//!
//! Exit status: `0` on success, `1` when an output file (`--csv`,
//! `--pareto`, `--trace`, `--metrics`) cannot be written or either
//! engine reports a fault (a point that
//! does not build or cannot run its workload, an order without minimal
//! elements) — the fault is printed, nothing panics, `2` on bad usage,
//! `3` when `--verify` detects serial/parallel divergence (the first
//! differing point, its label and both cycle counts go to stderr), `4` when
//! `--verify-inference` finds statuses the order inferred wrongly.

use std::process::ExitCode;
use std::time::Instant;

use flexos_bench::cli::{self, CliError};
use flexos_bench::fmt_rate;
use flexos_machine::fault::Fault;
use flexos_sweep::{emit, engine, lazy, report, SpaceSpec};

const USAGE: &str = "sweep [--space NAME] [--threads N] [--cores LIST] [--budget-frac F] \
    [--budget WORKLOAD=F]... [--verify] [--csv PATH] [--lazy] [--verify-inference] \
    [--pareto PATH] [--progress] [--quiet] [--trace PATH] [--metrics PATH]";

/// Uniform budget ladder traced by `--pareto` (dense near the top,
/// where the frontier actually bends).
const PARETO_FRACS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95];

#[derive(Default)]
struct Args {
    space: String,
    threads: usize,
    cores: Option<Vec<u32>>,
    budget_frac: f64,
    budget_overrides: Vec<(String, f64)>,
    verify: bool,
    csv: Option<String>,
    lazy: bool,
    verify_inference: bool,
    pareto: Option<String>,
    progress: bool,
    quiet: bool,
}

fn parse_args(raw: Vec<String>) -> Result<Args, CliError> {
    let usage = CliError::Usage;
    let mut args = Args {
        space: "full".to_string(),
        threads: engine::sweep_threads(),
        budget_frac: 0.8,
        ..Args::default()
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| usage(format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--space" => args.space = value("--space")?,
            "--threads" => {
                args.threads = cli::parse_count("--threads", &value("--threads")?, 1)? as usize;
            }
            "--cores" => {
                let list = value("--cores")?;
                let cores = list
                    .split(',')
                    .map(|part| match part.trim().parse::<u32>() {
                        Ok(n) if (1..=32).contains(&n) => Ok(n),
                        Ok(n) => Err(format!("bad --cores entry `{n}` (want 1..=32)")),
                        Err(e) => Err(format!("bad --cores entry `{part}`: {e}")),
                    })
                    .collect::<Result<Vec<u32>, String>>()
                    .map_err(usage)?;
                if let Some(n) = (1..cores.len()).find(|&i| cores[..i].contains(&cores[i])) {
                    // Twin points are order-equal: each would knock the
                    // other out of the star set.
                    return Err(usage(format!("repeated --cores entry `{}`", cores[n])));
                }
                args.cores = Some(cores);
            }
            "--budget-frac" => {
                args.budget_frac = cli::parse_fraction("--budget-frac", &value("--budget-frac")?)?;
            }
            "--budget" => {
                let entry = value("--budget")?;
                let (workload, frac) = entry
                    .rsplit_once('=')
                    .ok_or_else(|| usage(format!("bad --budget `{entry}` (want WORKLOAD=F)")))?;
                let frac = cli::parse_fraction("--budget fraction", frac)?;
                args.budget_overrides.push((workload.to_string(), frac));
            }
            "--verify" => args.verify = true,
            "--csv" => args.csv = Some(value("--csv")?),
            "--lazy" => args.lazy = true,
            "--verify-inference" => {
                args.lazy = true;
                args.verify_inference = true;
            }
            "--pareto" => {
                args.lazy = true;
                args.pareto = Some(value("--pareto")?);
            }
            "--progress" => args.progress = true,
            "--quiet" => args.quiet = true,
            other => return Err(usage(format!("unknown flag `{other}`"))),
        }
    }
    if args.lazy && args.verify {
        return Err(usage(
            "--verify is the exhaustive serial reference; with --lazy use --verify-inference"
                .to_string(),
        ));
    }
    if args.lazy && args.csv.is_some() {
        return Err(usage(
            "--csv needs every point measured; lazy mode skips most — drop --lazy".to_string(),
        ));
    }
    let profiled = SpaceSpec::named(&args.space, 0, 0).is_some_and(|s| s.per_compartment_profiles);
    if profiled && !args.lazy {
        return Err(usage(format!(
            "space `{}` repeats experiments in its don't-care profile slots, which the \
             exhaustive star report cannot rank — use --lazy",
            args.space
        )));
    }
    Ok(args)
}

/// Resolves `--budget` label overrides against the spec's workloads;
/// a label the space does not have is a usage error.
fn budget_vector(args: &Args, spec: &SpaceSpec) -> Result<report::BudgetVector, CliError> {
    let mut budgets = report::BudgetVector::uniform(args.budget_frac);
    for (label, frac) in &args.budget_overrides {
        let workload = spec.workloads.iter().find(|w| &w.label() == label);
        let Some(&w) = workload else {
            let have: Vec<String> = spec.workloads.iter().map(|w| w.label()).collect();
            return Err(CliError::Usage(format!(
                "no workload labeled `{label}` in space `{}` (have: {})",
                spec.name,
                have.join(", ")
            )));
        };
        budgets = budgets.with(w, *frac);
    }
    Ok(budgets)
}

/// Runs the lazy sweep and prints its summary; `Ok` carries the exit
/// status (`4` on an inference miss).
fn run_lazy(args: &Args, spec: &SpaceSpec, budgets: report::BudgetVector) -> Result<u8, CliError> {
    if !args.quiet {
        eprintln!(
            "lazy sweep `{}`: {} points x {} measured ops, {} worker(s)...",
            spec.name,
            spec.len(),
            spec.measured,
            args.threads
        );
    }
    let cfg = lazy::LazyConfig {
        threads: args.threads,
        budgets,
        verify_inference: args.verify_inference,
        pareto_fracs: if args.pareto.is_some() {
            PARETO_FRACS.to_vec()
        } else {
            Vec::new()
        },
    };
    let t0 = Instant::now();
    let mut last_print = Instant::now();
    let mut progress_cb = |s: &lazy::ProgressSnapshot| {
        if last_print.elapsed().as_secs_f64() < 2.0 && s.classified < s.total {
            return;
        }
        last_print = Instant::now();
        let eta = match s.eta_s {
            Some(e) => format!("{e:.0}s"),
            None => "?".to_string(),
        };
        eprintln!(
            "  {} / {} classified ({} executed, {} remaining), {:.1}s elapsed, eta {eta}",
            s.classified,
            s.total,
            s.executed,
            s.total - s.classified,
            s.elapsed_s
        );
    };
    let progress: Option<&mut dyn FnMut(&lazy::ProgressSnapshot)> = if args.progress && !args.quiet
    {
        Some(&mut progress_cb)
    } else {
        None
    };
    let outcome = lazy::lazy_sweep_all(spec, &cfg, progress).map_err(failed("lazy"))?;
    let wall_s = t0.elapsed().as_secs_f64();

    if !args.quiet {
        eprintln!(
            "lazy sweep: {} canonical ({} duplicates collapsed), {} executed + {} inferred, \
             {} memo hits, skip rate {:.1}%, {wall_s:.2}s",
            outcome.stats.canonical,
            outcome.stats.points - outcome.stats.canonical,
            outcome.stats.measured,
            outcome.stats.inferred,
            outcome.stats.memo_hits,
            outcome.stats.skip_rate() * 100.0,
        );
        eprintln!(
            "budget {:.0}% of per-workload best ({} override(s)): {} survive, {} pruned, \
             {} starred",
            args.budget_frac * 100.0,
            args.budget_overrides.len(),
            outcome.surviving.len(),
            outcome.stats.points - outcome.surviving.len(),
            outcome.stars.len()
        );
        for &s in outcome.stars.iter().take(12) {
            let r = &outcome.results[&s];
            eprintln!("  * {:>10}  {}", fmt_rate(r.ops_per_sec), spec.label_of(s));
        }
        if outcome.stars.len() > 12 {
            eprintln!("  ... and {} more", outcome.stars.len() - 12);
        }
        if args.verify_inference {
            match outcome.inference_misses.len() {
                0 => eprintln!(
                    "verify-inference: all {} skipped statuses confirmed by measurement",
                    outcome.stats.inferred
                ),
                m => {
                    eprintln!("verify-inference: {m} INFERENCE MISSES:");
                    for &i in outcome.inference_misses.iter().take(12) {
                        eprintln!("  ! {}", spec.label_of(i));
                    }
                }
            }
        }
    }

    if let Some(path) = &args.pareto {
        cli::write_file(
            path,
            &emit::pareto_json(spec, &outcome.pareto, args.threads),
        )?;
        if !args.quiet {
            eprintln!(
                "wrote {path} ({} workloads x {} budget levels)",
                outcome.pareto.len(),
                PARETO_FRACS.len()
            );
        }
    }

    let summary = emit::LazySummary::from_outcome(
        spec,
        &outcome,
        args.threads,
        wall_s,
        args.budget_frac,
        args.verify_inference,
    );
    cli::print_stdout(&(summary.to_json() + "\n"))?;
    Ok(if outcome.inference_misses.is_empty() {
        0
    } else {
        4
    })
}

/// Runs the exhaustive sweep and prints its summary; `Ok` carries the
/// exit status (`3` when `--verify` saw a divergence).
fn run_exhaustive(
    args: &Args,
    spec: &SpaceSpec,
    budgets: report::BudgetVector,
) -> Result<u8, CliError> {
    if !args.quiet {
        eprintln!(
            "sweeping `{}`: {} points x {} measured ops, {} worker(s)...",
            spec.name,
            spec.len(),
            spec.measured,
            args.threads
        );
    }
    let t0 = Instant::now();
    let results = engine::run_parallel(spec, args.threads).map_err(failed("exhaustive"))?;
    let parallel_s = t0.elapsed().as_secs_f64();
    if !args.quiet {
        eprintln!("parallel sweep: {parallel_s:.2}s");
    }

    let (serial_s, verified) = if args.verify {
        let t0 = Instant::now();
        let serial = (0..spec.len())
            .map(|i| engine::simulate_point(spec, i))
            .collect::<Result<Vec<_>, Fault>>()
            .map_err(failed("exhaustive"))?;
        let serial_s = t0.elapsed().as_secs_f64();
        let diverged = serial.iter().zip(&results).find(|(s, r)| s != r);
        if !args.quiet {
            eprintln!(
                "serial reference: {serial_s:.2}s; parallel results {}",
                if diverged.is_none() {
                    "bit-identical"
                } else {
                    "DIVERGED"
                }
            );
        }
        if let Some((s, r)) = diverged {
            // Printed even under --quiet: the exit status alone does not
            // say which point to look at.
            eprintln!(
                "first divergence: point {} ({}): {} cycles simulated, {} swept",
                s.index,
                spec.label_of(s.index),
                s.cycles,
                r.cycles
            );
        }
        (Some(serial_s), Some(diverged.is_none()))
    } else {
        (None, None)
    };

    let points: Vec<_> = spec.points().collect();
    let (poset, stars) = report::star_report_vec(&points, &results, &budgets);
    if !args.quiet {
        eprintln!(
            "budget {:.0}% of per-workload best ({} override(s)): {} survive, {} pruned, \
             {} starred",
            args.budget_frac * 100.0,
            budgets.per_workload.len(),
            stars.surviving.len(),
            stars.pruned(points.len()),
            stars.stars.len()
        );
        for &s in stars.stars.iter().take(12) {
            let r = &results[s];
            eprintln!(
                "  * {:>10}  {}",
                fmt_rate(r.ops_per_sec),
                poset.node(s).label
            );
        }
        if stars.stars.len() > 12 {
            eprintln!("  ... and {} more", stars.stars.len() - 12);
        }
    }

    if let Some(path) = &args.csv {
        cli::write_file(path, &emit::csv(&points, &results))?;
        if !args.quiet {
            eprintln!("wrote {path}");
        }
    }

    let summary = emit::summary(
        spec,
        &results,
        emit::RunTiming {
            threads: args.threads,
            parallel_s,
            serial_s,
            verified,
        },
        args.budget_frac,
        &stars,
    );
    cli::print_stdout(&(summary.to_json() + "\n"))?;
    Ok(if verified == Some(false) { 3 } else { 0 })
}

/// The line a fault of either engine is reported with.
fn failed(mode: &'static str) -> impl Fn(Fault) -> CliError {
    move |fault| CliError::Run(format!("{mode} sweep failed: {fault}"))
}

/// Runs the sweep `args` ask for; `Ok` is the exit status of a sweep
/// that ran.
fn run(args: &Args, spec: &SpaceSpec, budgets: report::BudgetVector) -> Result<u8, CliError> {
    if args.lazy {
        run_lazy(args, spec, budgets)
    } else {
        run_exhaustive(args, spec, budgets)
    }
}

/// Everything between argv and the exit status.
fn sweep_main(mut raw: Vec<String>) -> Result<u8, CliError> {
    let obs = cli::extract_obs_args(&mut raw)?;
    let args = parse_args(raw)?;
    let (warmup, measured) = cli::env_counts("SWEEP", (200, 2000))?;
    let mut spec = SpaceSpec::named(&args.space, warmup, measured).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown space `{}` (try full, full-smp, full-profiled, quick, fig6-redis, \
             fig6-nginx)",
            args.space
        ))
    })?;
    if let Some(cores) = args.cores.clone() {
        spec.cores = cores;
    }
    let budgets = budget_vector(&args, &spec)?;
    match run(&args, &spec, budgets)? {
        0 => cli::emit_canonical_if_requested(&obs).map(|()| 0),
        status => Ok(status),
    }
}

fn main() -> ExitCode {
    match sweep_main(std::env::args().skip(1).collect()) {
        Ok(status) => ExitCode::from(status),
        Err(e) => ExitCode::from(e.report("sweep", USAGE)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_sweep::Workload;

    /// One Redis point whose preload cannot fit the dict's fixed bucket
    /// array: the image builds, the workload faults.
    fn faulting_space() -> SpaceSpec {
        let mut spec = SpaceSpec::quick(1, 2);
        spec.workloads = vec![Workload::RedisGet {
            keyspace: 1 << 20,
            pipeline: 1,
        }];
        spec.strategies.truncate(1);
        spec.mechanisms.truncate(1);
        spec.data_sharings.truncate(1);
        spec.allocators.truncate(1);
        spec.hardening_masks.truncate(1);
        spec
    }

    fn args(flags: &[&str]) -> Args {
        let mut raw = vec!["--threads".to_string(), "1".into(), "--quiet".into()];
        raw.extend(flags.iter().map(|f| f.to_string()));
        parse_args(raw).unwrap()
    }

    #[test]
    fn a_faulting_point_is_reported_with_its_fault_not_a_panic() {
        let spec = faulting_space();
        let fault = engine::run_point(&spec, 0).unwrap_err();
        for (flags, mode) in [
            (&[][..], "exhaustive"),
            (&["--verify"][..], "exhaustive"),
            (&["--lazy"][..], "lazy"),
        ] {
            let budgets = report::BudgetVector::uniform(0.8);
            let err = run(&args(flags), &spec, budgets).unwrap_err();
            assert_eq!(err, CliError::Run(format!("{mode} sweep failed: {fault}")));
        }
    }

    #[test]
    fn degenerate_flag_values_are_usage_errors_naming_the_flag() {
        let parse = |flags: &[&str]| parse_args(flags.iter().map(|f| f.to_string()).collect());
        for (flags, named) in [
            (&["--budget-frac", "nan"][..], "--budget-frac"),
            (&["--budget-frac", "0"][..], "--budget-frac"),
            (&["--budget-frac", "1.5"][..], "--budget-frac"),
            (&["--budget", "nginx=inf"][..], "--budget fraction"),
            (&["--budget", "nginx"][..], "--budget `nginx`"),
            (&["--threads", "0"][..], "--threads"),
            (&["--cores", "1,0"][..], "--cores"),
            (&["--cores", "1,2,1"][..], "--cores"),
            (&["--space", "full-profiled"][..], "--lazy"),
            (&["--csv"][..], "--csv"),
            (&["extra"][..], "`extra`"),
        ] {
            match parse(flags) {
                Err(CliError::Usage(why)) => assert!(why.contains(named), "{flags:?}: {why}"),
                other => panic!("{flags:?}: want a usage error, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn a_budget_for_a_workload_the_space_lacks_is_a_usage_error() {
        let spec = SpaceSpec::quick(1, 2);
        assert!(budget_vector(&args(&["--budget", "nginx=0.9"]), &spec).is_ok());
        match budget_vector(&args(&["--budget", "sqlite=0.9"]), &spec) {
            Err(CliError::Usage(why)) => assert!(why.contains("`sqlite`"), "{why}"),
            other => panic!("want a usage error, got {:?}", other.err()),
        }
    }

    #[test]
    fn experiments_md_lists_the_usage_line() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        assert!(doc.contains(&format!("`{USAGE}`")));
    }

    #[test]
    fn a_clean_sweep_exits_zero() {
        let mut spec = faulting_space();
        spec.workloads = vec![Workload::NginxGet];
        let budgets = report::BudgetVector::uniform(0.8);
        assert_eq!(run(&args(&["--verify"]), &spec, budgets), Ok(0));
    }
}
