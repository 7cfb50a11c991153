//! The evaluation tier's one front end.
//!
//! Every figure/table binary is a row of [`FIGURES`] — name, usage
//! line, and a function from its positional arguments to the text it
//! prints — behind [`figure_main`], which strips `--trace`/`--metrics`,
//! prints, runs the canonical-trace tail and owns the exit policy:
//! `2` with the usage line on bad input, `1` naming the fault or the
//! unwritable path when the run or an artifact write fails, never a
//! panic. `sweep` and `flexos_attacks`' `flexos_attack_matrix` and
//! `flexos_faultinject` keep their own flags and exit codes but parse
//! counts, run the `--trace` tail and report errors with this module.
//!
//! Every figure binary's stdout is pinned byte-for-byte, so
//! observability must not perturb the normal run: the flags are
//! *extracted* from the argument list before positional parsing, the
//! untraced run executes exactly as before, and the traced artifacts
//! come from one additional **canonical profile** run — Redis over the
//! two-compartment MPK/DSS configuration with an operator-initiated
//! microreboot of the isolated lwip compartment at the end, so the
//! exported Chrome trace always carries per-compartment cycle
//! attribution *and* a supervisor microreboot span. Digests go to
//! stderr; stdout stays untouched.

use std::env::VarError;
use std::io::Write as _;
use std::process::ExitCode;
use std::rc::Rc;

use flexos_apps::workloads::{run_redis_gets, RunMetrics};
use flexos_core::compartment::DataSharing;
use flexos_machine::fault::Fault;
use flexos_machine::trace::TraceConfig;
use flexos_system::observe::{metrics_json, trace_artifacts};
use flexos_system::{configs, FlexOs, Supervisor, SystemBuilder};

use crate::{fig06_text, fig07_text, fig08_text, fig10, figures};

/// Why a binary stops early. [`CliError::report`] prints it; the
/// variant decides the exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad arguments or environment: printed with the usage line.
    Usage(String),
    /// The run itself failed (a fault from the simulator).
    Run(String),
    /// An output file or stream could not be written.
    CannotWrite {
        /// The path as the user gave it.
        path: String,
        /// The OS error.
        error: String,
    },
}

impl CliError {
    /// Prints `<bin>: <what went wrong>` to stderr — followed by
    /// `usage: <usage>` for a usage error — and returns the figure
    /// binaries' exit status for it: `2` for usage, `1` otherwise.
    pub fn report(&self, bin: &str, usage: &str) -> u8 {
        match self {
            CliError::Usage(why) => {
                eprintln!("{bin}: {why}");
                eprintln!("usage: {usage}");
                2
            }
            CliError::Run(why) => {
                eprintln!("{bin}: {why}");
                1
            }
            CliError::CannotWrite { path, error } => {
                eprintln!("{bin}: cannot write {path}: {error}");
                1
            }
        }
    }
}

impl From<Fault> for CliError {
    fn from(fault: Fault) -> Self {
        CliError::Run(format!("run failed: {fault}"))
    }
}

/// Parses `text` as a count of at least `min`; the error names `what`
/// (a flag, a positional, or an environment variable).
pub fn parse_count(what: &str, text: &str, min: u64) -> Result<u64, CliError> {
    match text.parse::<u64>() {
        Ok(n) if n >= min => Ok(n),
        Ok(n) => Err(CliError::Usage(format!(
            "bad {what} `{n}`: want at least {min}"
        ))),
        Err(e) => Err(CliError::Usage(format!("bad {what} `{text}`: {e}"))),
    }
}

/// Parses `text` as a finite number above zero (a rate, a budget).
pub(crate) fn parse_positive(what: &str, text: &str) -> Result<f64, CliError> {
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        Ok(_) => Err(CliError::Usage(format!(
            "bad {what} `{text}`: want a finite number above 0"
        ))),
        Err(e) => Err(CliError::Usage(format!("bad {what} `{text}`: {e}"))),
    }
}

/// Parses `text` as a fraction in (0, 1].
pub fn parse_fraction(what: &str, text: &str) -> Result<f64, CliError> {
    match parse_positive(what, text)? {
        x if x <= 1.0 => Ok(x),
        _ => Err(CliError::Usage(format!(
            "bad {what} `{text}`: want a fraction in (0, 1]"
        ))),
    }
}

/// `value`, the value of environment variable `name`, as a count of at
/// least `min`, or `None` when the variable is unset. A value that does
/// not parse or is below `min` is a usage error naming the variable —
/// never a silent default.
fn env_count(
    name: &str,
    value: Result<String, VarError>,
    min: u64,
) -> Result<Option<u64>, CliError> {
    match value {
        Ok(text) => parse_count(name, &text, min).map(Some),
        Err(VarError::NotPresent) => Ok(None),
        Err(VarError::NotUnicode(_)) => Err(CliError::Usage(format!("bad {name}: not UTF-8"))),
    }
}

/// The `(warmup, measured)` request counts from `<PREFIX>_WARMUP` /
/// `<PREFIX>_MEASURED`, `defaults` where a variable is unset; a measured
/// count must be at least 1 (see `env_count`).
fn env_counts(prefix: &str, defaults: (u64, u64)) -> Result<(u64, u64), CliError> {
    let count = |suffix: &str, default: u64, min: u64| {
        let name = format!("{prefix}_{suffix}");
        let value = std::env::var(&name);
        env_count(&name, value, min).map(|n| n.unwrap_or(default))
    };
    Ok((
        count("WARMUP", defaults.0, 0)?,
        count("MEASURED", defaults.1, 1)?,
    ))
}

/// The sweep worker count: `SWEEP_THREADS`, at least 1, or the host's
/// available parallelism when it is unset (see `env_count`).
fn sweep_threads() -> Result<usize, CliError> {
    let threads = env_count("SWEEP_THREADS", std::env::var("SWEEP_THREADS"), 1)?;
    Ok(threads.map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        |n| n as usize,
    ))
}

/// The `sweep` binary's environment: the per-point `(warmup, measured)`
/// counts from `SWEEP_WARMUP` / `SWEEP_MEASURED`, 200 and 2000 unless
/// set, and the default worker count from `SWEEP_THREADS`.
pub fn sweep_env() -> Result<((u64, u64), usize), CliError> {
    Ok((env_counts("SWEEP", (200, 2000))?, sweep_threads()?))
}

/// The Figure 6 sweep's `(warmup, measured)` counts: 500 and 5000
/// requests per configuration unless `FIG6_WARMUP` / `FIG6_MEASURED`
/// say otherwise (CI smoke runs and the goldens use small counts;
/// steady-state throughput is count-independent).
fn fig6_counts() -> Result<(u64, u64), CliError> {
    env_counts("FIG6", (500, 5000))
}

/// `args` when it holds at most `max` positional arguments; the first
/// one past that is a usage error. `at_most(args, 0)` is the "takes no
/// arguments" check.
fn at_most(args: &[String], max: usize) -> Result<&[String], CliError> {
    match args.get(max) {
        None => Ok(args),
        Some(extra) => Err(CliError::Usage(format!("unexpected argument `{extra}`"))),
    }
}

/// The row of a figure that takes no arguments and reads no environment.
fn no_args(args: &[String], text: fn() -> Result<String, Fault>) -> Result<String, CliError> {
    at_most(args, 0)?;
    Ok(text()?)
}

/// One figure or table binary.
pub struct Figure {
    /// Binary name (`crates/bench/src/bin/<name>.rs`).
    pub name: &'static str,
    /// The usage line printed on bad input.
    pub(crate) usage: &'static str,
    /// Renders the figure's stdout from its positional arguments
    /// (`--trace`/`--metrics` already stripped).
    pub render: fn(&[String]) -> Result<String, CliError>,
}

/// The figure binaries of §6, one row each.
pub const FIGURES: [Figure; 8] = [
    Figure {
        name: "fig06",
        usage: "fig06 [redis|nginx] [--trace PATH] [--metrics PATH]",
        render: |args| {
            let app = at_most(args, 1)?.first().map_or("redis", String::as_str);
            if !matches!(app, "redis" | "nginx") {
                return Err(CliError::Usage(format!("unknown app `{app}`")));
            }
            let (counts, threads) = (fig6_counts()?, sweep_threads()?);
            eprintln!("running 80 configurations for {app}...");
            Ok(fig06_text(app, counts, threads)?)
        },
    },
    Figure {
        name: "fig07",
        usage: "fig07 [--trace PATH] [--metrics PATH]",
        render: |args| {
            at_most(args, 0)?;
            let (counts, threads) = (fig6_counts()?, sweep_threads()?);
            eprintln!("running 2x80 configurations (redis + nginx)...");
            Ok(fig07_text(counts, threads)?)
        },
    },
    Figure {
        name: "fig08",
        usage: "fig08 [BUDGET_REQ_PER_SEC] [--trace PATH] [--metrics PATH]",
        render: |args| {
            let budget = match at_most(args, 1)?.first() {
                None => 500_000.0,
                Some(text) => parse_positive("budget", text)?,
            };
            let (counts, threads) = (fig6_counts()?, sweep_threads()?);
            eprintln!("running 80 redis configurations...");
            Ok(fig08_text(budget, counts, threads)?)
        },
    },
    Figure {
        name: "fig09",
        usage: "fig09 [--trace PATH] [--metrics PATH]",
        render: |args| no_args(args, figures::fig09_text),
    },
    Figure {
        name: "fig10",
        usage: "fig10 [INSERTS] [--trace PATH] [--metrics PATH]",
        render: |args| {
            let n = match at_most(args, 1)?.first() {
                None => 5000,
                Some(text) => parse_count("INSERT count", text, 1)?,
            };
            eprintln!("running the {n}-INSERT SQLite workload on 3 FlexOS images...");
            Ok(fig10::fig10_text(n)?)
        },
    },
    Figure {
        name: "fig11a",
        usage: "fig11a [--trace PATH] [--metrics PATH]",
        render: |args| no_args(args, figures::fig11a_text),
    },
    Figure {
        name: "fig11b",
        usage: "fig11b [--trace PATH] [--metrics PATH]",
        render: |args| no_args(args, figures::fig11b_text),
    },
    Figure {
        name: "table1",
        usage: "table1 [--trace PATH] [--metrics PATH]",
        render: |args| no_args(args, figures::table1_text),
    },
];

/// The whole `main` of figure binary `name`: strip `--trace` /
/// `--metrics`, render the row, print it, run the canonical-trace
/// tail. Exit status 0, or what [`CliError::report`] returns.
pub fn figure_main(name: &str) -> ExitCode {
    let Some(figure) = FIGURES.iter().find(|f| f.name == name) else {
        eprintln!("{name}: not a row of the figure table");
        return ExitCode::from(2);
    };
    let run = || {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let obs = extract_obs_args(&mut args)?;
        print_stdout(&(figure.render)(&args)?)?;
        emit_canonical_if_requested(&obs)
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => ExitCode::from(e.report(figure.name, figure.usage)),
    }
}

/// The exit status of `flexos_attacks`' binaries (`flexos_attack_matrix`,
/// `flexos_faultinject`), whose 1 and 2 are verdicts of their own runs:
/// the status `result` carries, or — after reporting the error with
/// `usage` — 1 for an unwritable path and 3 for everything else.
pub fn adversary_exit(bin: &str, usage: &str, result: Result<u8, CliError>) -> ExitCode {
    match result {
        Ok(status) => ExitCode::from(status),
        Err(e) => {
            e.report(bin, usage);
            let unwritable = matches!(e, CliError::CannotWrite { .. });
            ExitCode::from(if unwritable { 1 } else { 3 })
        }
    }
}

/// Writes `text` to stdout; a closed pipe is an error, not a panic.
pub fn print_stdout(text: &str) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| cannot_write("<stdout>", &e))
}

/// Writes an output file (`--csv`, `--pareto`, `--trace`, `--metrics`).
pub fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| cannot_write(path, &e))
}

fn cannot_write(path: &str, error: &std::io::Error) -> CliError {
    CliError::CannotWrite {
        path: path.to_string(),
        error: error.to_string(),
    }
}

/// Observability flags extracted from a binary's argument list.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ObsArgs {
    /// `--trace PATH`: write Chrome `trace_event` JSON here (and the
    /// folded attribution profile next to it, at `PATH.profile`).
    pub(crate) trace: Option<String>,
    /// `--metrics PATH`: write the metrics-registry JSON here.
    pub(crate) metrics: Option<String>,
}

impl ObsArgs {
    /// `true` when either flag was given.
    pub fn requested(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }
}

/// Removes `--trace PATH` / `--metrics PATH` from `args` (mutating it
/// in place) and returns them, so each binary's own parsing sees
/// exactly the argument list it always did. A flag without its PATH is
/// a usage error.
pub fn extract_obs_args(args: &mut Vec<String>) -> Result<ObsArgs, CliError> {
    let mut take = |flag: &str| {
        let Some(idx) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if idx + 1 >= args.len() {
            return Err(CliError::Usage(format!("{flag} requires a PATH argument")));
        }
        let value = args.remove(idx + 1);
        args.remove(idx);
        Ok(Some(value))
    };
    Ok(ObsArgs {
        trace: take("--trace")?,
        metrics: take("--metrics")?,
    })
}

/// Builds and runs the canonical traced profile: Redis over
/// `mpk2(["lwip"], Dss)` with the tracer enabled, the fig6-shaped GET
/// workload at `(warmup, measured)` requests, and one
/// operator-initiated microreboot of the lwip compartment. Returns the
/// image with the event ring populated and the workload's metrics.
///
/// # Errors
///
/// Configuration, build or workload faults.
pub fn run_traced_canonical((warmup, measured): (u64, u64)) -> Result<(FlexOs, RunMetrics), Fault> {
    let config = configs::mpk2(&["lwip"], DataSharing::Dss)?;
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()?;
    os.env.machine().tracer().enable(TraceConfig::default());
    let metrics = run_redis_gets(&os, warmup, measured)?;
    let lwip = os.component("lwip").ok_or_else(|| Fault::InvalidConfig {
        reason: "canonical profile image has no `lwip` component".to_string(),
    })?;
    let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched));
    sup.microreboot(os.env.compartment_of(lwip), None);
    Ok((os, metrics))
}

/// Writes the requested artifacts for `os`: Chrome JSON (plus the
/// attribution profile at `PATH.profile`) and/or metrics JSON, with a
/// digest summary on stderr. Stdout is never touched.
pub fn emit_observability(os: &FlexOs, obs: &ObsArgs) -> Result<(), CliError> {
    if let Some(path) = &obs.trace {
        let artifacts = trace_artifacts(&os.env);
        write_file(path, &artifacts.chrome_json)?;
        write_file(&format!("{path}.profile"), &artifacts.profile)?;
        eprintln!(
            "trace: {path} events={} dropped={} chrome-digest={:016x} profile-digest={:016x}",
            artifacts.events, artifacts.dropped, artifacts.chrome_digest, artifacts.profile_digest,
        );
    }
    if let Some(path) = &obs.metrics {
        write_file(path, &metrics_json(os))?;
        eprintln!("metrics: {path}");
    }
    Ok(())
}

/// The whole `--trace`/`--metrics` tail of a binary: when either flag
/// was given, run the canonical traced profile (at the `FIG6_*`
/// counts) and emit its artifacts. Call after the binary's normal
/// (untraced, pinned) output is complete.
pub fn emit_canonical_if_requested(obs: &ObsArgs) -> Result<(), CliError> {
    if !obs.requested() {
        return Ok(());
    }
    let (os, _) = run_traced_canonical(fig6_counts()?)?;
    emit_observability(&os, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn usage_error<T: std::fmt::Debug>(result: Result<T, CliError>) -> String {
        match result {
            Err(CliError::Usage(why)) => why,
            other => panic!("want a usage error, got {other:?}"),
        }
    }

    #[test]
    fn stray_arguments_are_usage_errors_not_panics() {
        assert_eq!(at_most(&[], 0), Ok(&[][..]));
        let err = usage_error(at_most(&strings(&["--bogus"]), 0));
        assert!(err.contains("`--bogus`"), "{err}");
        let two = strings(&["redis", "extra"]);
        assert_eq!(at_most(&two[..1], 1), Ok(&two[..1]));
        assert!(usage_error(at_most(&two, 1)).contains("`extra`"));
    }

    #[test]
    fn every_row_rejects_one_argument_too_many() {
        for figure in &FIGURES {
            // Two positionals are past every row's limit, and the check
            // comes before any image is built.
            let err = usage_error((figure.render)(&strings(&["redis", "extra"])));
            assert!(
                err.contains("unexpected argument"),
                "{}: {err}",
                figure.name
            );
            assert!(figure.usage.starts_with(figure.name));
            assert!(figure.usage.ends_with("[--trace PATH] [--metrics PATH]"));
        }
    }

    #[test]
    fn degenerate_positionals_are_usage_errors_naming_the_argument() {
        let render = |name: &str, arg: &str| {
            let figure = FIGURES.iter().find(|f| f.name == name).unwrap();
            usage_error((figure.render)(&strings(&[arg])))
        };
        assert!(render("fig06", "sqlite").contains("unknown app `sqlite`"));
        for bad in ["nan", "inf", "-1", "0", "x"] {
            assert!(render("fig08", bad).contains("bad budget"), "{bad}");
        }
        for bad in ["0", "-3", "many"] {
            assert!(render("fig10", bad).contains("bad INSERT count"), "{bad}");
        }
    }

    #[test]
    fn counts_parse_or_name_what_was_bad() {
        assert_eq!(parse_count("--rounds", "32", 1), Ok(32));
        assert_eq!(parse_count("FIG6_WARMUP", "0", 0), Ok(0));
        let zero = usage_error(parse_count("FIG6_MEASURED", "0", 1));
        assert!(
            zero.contains("FIG6_MEASURED") && zero.contains("at least 1"),
            "{zero}"
        );
        let junk = usage_error(parse_count("SWEEP_MEASURED", "abc", 1));
        assert!(
            junk.contains("SWEEP_MEASURED") && junk.contains("`abc`"),
            "{junk}"
        );
    }

    #[test]
    fn a_bad_sweep_threads_is_a_usage_error_and_unset_is_no_count() {
        let threads = |value: &str| env_count("SWEEP_THREADS", Ok(value.to_string()), 1);
        assert_eq!(threads("3"), Ok(Some(3)));
        for bad in ["abc", "0", "-1", ""] {
            let err = usage_error(threads(bad));
            assert!(err.contains("SWEEP_THREADS"), "{bad}: {err}");
        }
        assert_eq!(
            env_count("SWEEP_THREADS", Err(VarError::NotPresent), 1),
            Ok(None)
        );
    }

    #[test]
    fn fractions_must_be_finite_and_in_the_half_open_unit_interval() {
        assert_eq!(parse_fraction("--budget-frac", "0.8"), Ok(0.8));
        assert_eq!(parse_fraction("--budget-frac", "1"), Ok(1.0));
        for bad in ["nan", "inf", "-inf", "0", "-0.5", "1.01", "half"] {
            let err = usage_error(parse_fraction("--budget-frac", bad));
            assert!(err.contains("--budget-frac"), "{bad}: {err}");
        }
        assert_eq!(parse_positive("budget", "300000"), Ok(300_000.0));
    }

    #[test]
    fn obs_flags_are_stripped_and_a_missing_path_is_a_usage_error() {
        let mut args = strings(&["redis", "--trace", "t.json", "--metrics", "m.json"]);
        let obs = extract_obs_args(&mut args).unwrap();
        assert_eq!(args, strings(&["redis"]));
        assert_eq!(obs.trace.as_deref(), Some("t.json"));
        assert_eq!(obs.metrics.as_deref(), Some("m.json"));
        assert!(!extract_obs_args(&mut args).unwrap().requested());
        let err = usage_error(extract_obs_args(&mut strings(&["--metrics"])));
        assert!(err.contains("--metrics requires a PATH"), "{err}");
    }

    #[test]
    fn an_unwritable_artifact_path_is_an_error_naming_it() {
        let path = "/no/such/dir/t.json";
        match write_file(path, "{}") {
            Err(CliError::CannotWrite { path: p, .. }) => assert_eq!(p, path),
            other => panic!("want CannotWrite, got {other:?}"),
        }
        let e = CliError::CannotWrite {
            path: path.into(),
            error: "denied".into(),
        };
        assert_eq!(e.report("table1", "table1"), 1);
        assert_eq!(CliError::Usage("x".into()).report("fig07", "fig07"), 2);
    }

    /// EXPERIMENTS.md's exit-code table lists every binary by its usage
    /// line; the figure rows must appear there verbatim.
    #[test]
    fn experiments_md_lists_every_figure_usage_line() {
        // `|` inside a Markdown table cell is written `\|`.
        let doc = include_str!("../../../EXPERIMENTS.md").replace("\\|", "|");
        for figure in &FIGURES {
            assert!(
                doc.contains(&format!("`{}`", figure.usage)),
                "EXPERIMENTS.md lacks the usage line of {}",
                figure.name
            );
        }
    }
}
