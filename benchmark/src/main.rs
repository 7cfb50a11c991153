//! The benchmark's command line. See `README.md` beside this package.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use flexos_benchmark::expected::{self, Expected};
use flexos_benchmark::json::{self, Value};
use flexos_benchmark::workloads::{explore_exhaustive, Plan, DEFAULT_SEED};
use flexos_benchmark::{compare, guard, host, manifest, probes, report};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "\
usage:
  flexos_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
      one run of one workload in this process; the last line printed is the result
  flexos_benchmark run   [--workload NAME] [--seed N] [--json PATH]
      every workload (or one), tracing off, each in a fresh process;
      --json appends the runs to a result set
  flexos_benchmark trace [--workload NAME] [--seed N] [--json PATH]
      the same with spans and layer probes: the per-layer metrics
  flexos_benchmark compare A.json B.json
      applies BENCHMARK.json's bounds to two result sets
  flexos_benchmark manifest
      prints BENCHMARK.json as the harness declares it
  flexos_benchmark bless
      rewrites expected.json from this build (benchmark changes only)
workloads: explore-exhaustive explore-lazy steady-1core steady-8core";

/// Where run outputs go: `benchmark/out/`, ignored by git.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    json: Option<PathBuf>,
}

fn parse_options(args: &[String], allowed: &[&str]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unexpected argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: `{value}` is not valid");
        match flag.as_str() {
            "--workload" => {
                if !manifest::names().contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                options.workload = Some(value.clone());
            }
            "--seed" => options.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--json" => options.json = Some(PathBuf::from(value)),
            _ => unreachable!("every allowed flag is handled"),
        }
    }
    Ok(options)
}

/// One run in this process: the form the driver calls.
fn single(options: &Options) -> Result<i32, String> {
    let workload = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    let plan = Plan {
        seed: options.seed.unwrap_or(DEFAULT_SEED),
        seconds: options.seconds.unwrap_or(manifest::RUN_SECONDS as f64),
        divisor: 1,
    };
    let trace = options.trace.unwrap_or(false);
    let malloc_pinned = host::pin_malloc_retain();
    let expected = Expected::committed()?;
    println!(
        "# {workload}  seed {}  {} s  trace {}",
        plan.seed,
        plan.seconds,
        u8::from(trace)
    );
    let (outcome, spans) = report::execute(workload, &plan, trace, Some(&expected))?;
    let finished = report::finish(
        workload,
        &plan,
        trace,
        outcome,
        Some(&expected),
        malloc_pinned,
    );
    if let Some(spans) = spans {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let trace_path = format!("{OUT_DIR}/trace-{workload}.json");
        let table_path = format!("{OUT_DIR}/trace-{workload}.selftime.txt");
        let table = spans.self_time_table();
        std::fs::write(&trace_path, spans.chrome_trace())
            .map_err(|e| format!("{trace_path}: {e}"))?;
        std::fs::write(&table_path, &table).map_err(|e| format!("{table_path}: {e}"))?;
        println!(
            "{table}# {} spans written to {trace_path}",
            spans.all().len()
        );
    }
    if let Some(path) = &options.json {
        std::fs::write(path, finished.record.pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", finished.human);
    println!("{}", finished.last_line);
    Ok(finished.exit_code)
}

/// Appends `records` to the result set at `path`, creating it if absent.
fn append_to_set(path: &Path, records: Vec<Value>) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)?
            .get("runs")
            .ok_or_else(|| format!("{} is not a result set", path.display()))?
            .items()
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    runs.extend(records);
    let set = Value::obj().with("benchmark", "flexos").with("runs", runs);
    std::fs::write(path, set.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload (or one), each in a fresh child process so that
/// `VmHWM` is per workload.
fn all_workloads(trace: bool, options: &Options) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let seed = options.seed.unwrap_or(DEFAULT_SEED);
    let mut records = Vec::new();
    let mut worst = 0;
    for workload in manifest::names() {
        if options.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let record_path = format!("{OUT_DIR}/run-{workload}-{}.json", std::process::id());
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &manifest::RUN_SECONDS.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--json", &record_path])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        worst = worst.max(status.code().unwrap_or(1));
        if let Ok(text) = std::fs::read_to_string(&record_path) {
            records.push(json::parse(&text)?);
            // Best effort: a leftover record is only clutter in out/.
            let _ = std::fs::remove_file(&record_path);
        }
        println!();
    }
    if let Some(path) = &options.json {
        append_to_set(path, records)?;
    }
    Ok(worst)
}

fn bless() -> Result<i32, String> {
    let plan = Plan {
        seed: DEFAULT_SEED,
        seconds: 0.0, // one unit of each workload
        divisor: 1,
    };
    let spec = explore_exhaustive::space(&plan);
    let every: Vec<usize> = (0..spec.len()).collect();
    eprintln!("bless: {} points of `{}`...", every.len(), spec.name);
    let results = flexos_sweep::run_indices(&spec, &every, host::nproc())
        .map_err(|f| format!("a point faulted: {f:?}"))?;
    let fingerprints: Vec<u16> = results
        .iter()
        .map(explore_exhaustive::fingerprint)
        .collect();
    let mut sections = Vec::new();
    for workload in manifest::names() {
        eprintln!("bless: {workload}...");
        let (outcome, _) = report::execute(workload, &plan, false, None)?;
        if !outcome.correct() {
            return Err(format!("{workload}: {:?}", outcome.check_failures));
        }
        let part = |key| {
            outcome
                .deterministic
                .get(key)
                .cloned()
                .unwrap_or(Value::obj())
        };
        sections.push((workload.to_string(), part("any_seed"), part("this_seed")));
    }
    eprintln!("bless: probes...");
    let probes = probes::run(&plan)
        .map_err(|f| format!("probes: {f:?}"))?
        .exact;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    std::fs::write(path, expected::blessed(&fingerprints, &sections, &probes))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("bless: wrote {path}");
    Ok(0)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    // Commands that measure refuse a build whose numbers would mislead.
    let measurable = || guard::refusal().map_or(Ok(()), Err);
    match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => {
            let options = parse_options(
                args,
                &["--workload", "--seed", "--seconds", "--trace", "--json"],
            )?;
            measurable()?;
            single(&options)
        }
        Some(mode @ ("run" | "trace")) => {
            let options = parse_options(&args[1..], &["--workload", "--seed", "--json"])?;
            measurable()?;
            all_workloads(mode == "trace", &options)
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("compare takes two result files".to_string());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (report, regressed) = compare::compare(&read(a)?, &read(b)?)?;
            print!("{report}");
            Ok(i32::from(regressed))
        }
        Some("manifest") if args.len() == 1 => {
            print!("{}", manifest::benchmark_json().pretty());
            Ok(0)
        }
        Some("bless") if args.len() == 1 => {
            measurable()?;
            bless()
        }
        _ => Err("expected a subcommand or --workload".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code.clamp(0, 255) as u8),
        Err(why) => {
            eprintln!("flexos_benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
