//! The benchmark's declaration: workloads, metric names, units, bounds.
//!
//! `BENCHMARK.json` at the repository root is this module printed
//! (`-- manifest`); a self-test holds the two equal, and the harness
//! refuses to report a metric that is not declared here or to leave a
//! declared one out.

use crate::json::Value;
use crate::workloads::images::STEADY_1CORE;
use crate::workloads::steady_8core::STEADY_8CORE;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The directory that holds the benchmark.
pub const PATH: &str = "benchmark";

/// Workload names and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "explore-exhaustive",
        "The section-5 sweep as CI runs it: 8000 images built, driven 220 requests and dropped; build-bound, so image-construction work must show here and request-path work must not.",
    ),
    (
        "explore-lazy",
        "Seconds to a Pareto frontier: the lazy engine on seeded folds of a 62208-point mixed-profile space; memo and order inference decide how many images are built, in an order with poor locality.",
    ),
    (
        "steady-1core",
        "Seven long-lived images (flat, MPK, pipelined, EPT, hardened nginx, iPerf, SQLite) driven by seeded pre-encoded streams; request-bound: build work predicts no change, gate/data-path work must show.",
    ),
    (
        "steady-8core",
        "Four simulated-SMP images (8 and 2 cores) through the public sharded drivers: the same layers via the core multiplexer, IPI and contention paths, where a gain at one core count can cost another.",
    ),
];

/// The workload names, in declaration order.
pub fn names() -> [&'static str; 4] {
    WORKLOADS.map(|(name, _)| name)
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

fn declared(name: impl Into<String>, unit: &'static str, better: &'static str) -> Declared {
    Declared {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics: what someone exploring configurations sees.
/// Every workload reports every one of them, tracing off.
///
/// * `setup_s` — host seconds before the timed window (median of the
///   run's repeated set-ups).
/// * `points_per_s` — configuration points answered per host second:
///   fold points ÷ median fold seconds (explore-exhaustive), enumerated
///   points ÷ median seconds to a frontier, so inference and memo hits
///   are credited (explore-lazy), images brought up to their first
///   request ÷ seconds spent bringing them up, sampled once per round
///   (steady-*).
/// * `sim_ops_per_s` — simulated operations (requests, KiB, INSERTs)
///   per host second of timed work.
/// * `peak_rss_mib` — the process's `VmHWM` when the run ends.
///
/// The bounds are what the reference host can resolve, which is the
/// contract's maximum: over two sets of ten runs with ten seeds each the
/// throughputs spread 3–10 % (interquartile range ÷ median; one run in
/// ten is ~15 % slow as a whole, and the sets' medians sit 4 % apart an
/// hour apart), `peak_rss_mib` up to 9 % on `explore-lazy`, where the
/// largest image a fold happens to measure sets the high-water mark.
/// `README.md` has the table.
pub fn end_to_end() -> Vec<Declared> {
    let bounded = |name: &str, unit, better, bound| Declared {
        bound: Some(bound),
        ..declared(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", "lower", 0.25),
        bounded("points_per_s", "points/s", "higher", 0.25),
        bounded("sim_ops_per_s", "ops/s", "higher", 0.25),
        bounded("peak_rss_mib", "MiB", "lower", 0.25),
    ]
}

/// The gate kinds `core.gate_*` is measured for.
pub const GATE_KINDS: [&str; 6] = [
    "call",
    "mpk-light",
    "mpk-dss",
    "ept-rpc",
    "microkernel-ipc",
    "cubicle-trap",
];

/// The per-layer metrics, from the trace run: [`path_metrics`] then
/// [`probe_metrics`].
pub fn per_layer() -> Vec<Declared> {
    let mut out = path_metrics();
    out.extend(probe_metrics());
    out
}

/// Spans and counts along the workload's own requests. A workload whose
/// path does not touch a layer reports 0 for it: `sweep.*` on the steady
/// workloads, the per-image numbers on the explore workloads.
pub fn path_metrics() -> Vec<Declared> {
    let mut out = vec![
        // the sweep layer
        declared("sweep.point_gen_us", "us", "lower"),
        declared("sweep.point_ms.p50", "ms", "lower"),
        declared("sweep.point_ms.p99", "ms", "lower"),
        declared("sweep.share.build", "ratio", "lower"),
        declared("sweep.share.install", "ratio", "lower"),
        declared("sweep.share.drive", "ratio", "lower"),
        declared("sweep.share.drop", "ratio", "lower"),
        declared("sweep.report_ms", "ms", "lower"),
        declared("sweep.scaling_2t", "ratio", "higher"),
        declared("sweep.lazy_measured_ratio", "ratio", "lower"),
        declared("sweep.lazy_memo_hit_ratio", "ratio", "higher"),
        declared("sweep.lazy_overhead_s", "s", "lower"),
        // requests through net and apps
        declared("net.rx_ns_per_op", "ns", "lower"),
        declared("apps.serve_ns_per_op", "ns", "lower"),
        declared("net.drain_ns_per_op", "ns", "lower"),
        declared("harness.trace_overhead_ratio", "ratio", "lower"),
    ];
    let single: Vec<&str> = STEADY_1CORE.iter().map(|i| i.name).collect();
    let all = single
        .iter()
        .copied()
        .chain(STEADY_8CORE.iter().map(|i| i.name));
    for name in all {
        out.push(declared(format!("apps.ns_per_op.{name}"), "ns", "lower"));
        out.push(declared(
            format!("apps.cycles_per_op.{name}"),
            "cycles",
            "lower",
        ));
    }
    for name in &single {
        out.push(declared(
            format!("apps.allocs_per_op.{name}"),
            "count",
            "lower",
        ));
        out.push(declared(
            format!("core.crossings_per_op.{name}"),
            "count",
            "lower",
        ));
        out.push(declared(format!("apps.batch_p50_us.{name}"), "us", "lower"));
        out.push(declared(format!("apps.batch_p99_us.{name}"), "us", "lower"));
    }
    out
}

/// Loops over each layer's public entry points: the same whatever the
/// workload or the seed.
pub fn probe_metrics() -> Vec<Declared> {
    let mut out = vec![
        declared("host.calib_cpu_ns", "ns", "lower"),
        declared("host.calib_fault_ns", "ns", "lower"),
        declared("machine.new_us", "us", "lower"),
        declared("machine.mem_read_ns", "ns", "lower"),
        declared("machine.mem_write_ns", "ns", "lower"),
        declared("machine.mem_copy_ns", "ns", "lower"),
        declared("system.build_us.none", "us", "lower"),
        declared("system.build_us.mpk", "us", "lower"),
        declared("system.build_us.ept", "us", "lower"),
        declared("system.build_allocs", "count", "lower"),
        declared("system.build_bytes", "bytes", "lower"),
        declared("system.build_minflt", "count", "lower"),
        declared("system.drop_us", "us", "lower"),
        declared("system.microreboot_us", "us", "lower"),
    ];
    for kind in GATE_KINDS {
        out.push(declared(format!("core.gate_ns.{kind}"), "ns", "lower"));
        out.push(declared(
            format!("core.gate_cycles.{kind}"),
            "cycles",
            "lower",
        ));
    }
    for app in ["redis", "nginx", "iperf", "sqlite"] {
        out.push(declared(format!("apps.install_us.{app}"), "us", "lower"));
    }
    out.extend([
        declared("apps.dict_probe_ns", "ns", "lower"),
        declared("alloc.churn_ns.tlsf", "ns", "lower"),
        declared("alloc.churn_ns.lea", "ns", "lower"),
        declared("sched.yield_ns", "ns", "lower"),
        declared("time.query_ns", "ns", "lower"),
        declared("fs.write_ns", "ns", "lower"),
        declared("fs.read_ns", "ns", "lower"),
        declared("trace.on_ratio.redis-mpk2", "ratio", "lower"),
        declared("trace.export_ms", "ms", "lower"),
        declared("trace.metrics_json_us", "us", "lower"),
        declared("explore.chain_cover_ms", "ms", "lower"),
        declared("explore.poset_ms", "ms", "lower"),
        declared("fidelity.paper_err_max_pct", "%", "lower"),
    ]);
    out
}

/// `BENCHMARK.json`, built from the tables above.
pub fn benchmark_json() -> Value {
    let metric = |d: &Declared| {
        let mut m = Value::obj()
            .with("name", d.name.as_str())
            .with("unit", d.unit)
            .with("better", d.better);
        if let Some(bound) = d.bound {
            m.set("bound", bound);
        }
        m
    };
    let manifest = format!("{PATH}/Cargo.toml");
    let command: Vec<Value> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        &manifest,
        "--",
    ]
    .into_iter()
    .map(Value::from)
    .collect();
    Value::obj()
        .with("command", command)
        .with("paths", vec![Value::from(PATH)])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .map(|(name, why)| Value::obj().with("name", *name).with("why", *why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            end_to_end().iter().map(metric).collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            per_layer().iter().map(metric).collect::<Vec<_>>(),
        )
}

/// Checks `metrics` against the set `declared` for the run's mode
/// ([`per_layer`] or [`end_to_end`]): every declared name present exactly
/// once, nothing else, every value a number. Returns the discrepancies
/// in words.
pub fn check_emitted(metrics: &[(String, f64)], declared: &[Declared]) -> Vec<String> {
    let mut problems = Vec::new();
    for d in declared {
        match metrics.iter().filter(|(n, _)| *n == d.name).count() {
            1 => {}
            0 => problems.push(format!("declared metric `{}` was not measured", d.name)),
            n => problems.push(format!("metric `{}` was measured {n} times", d.name)),
        }
    }
    for (name, value) in metrics {
        if !declared.iter().any(|d| d.name == *name) {
            problems.push(format!("metric `{name}` is not declared"));
        }
        if !value.is_finite() {
            problems.push(format!("metric `{name}` is {value}"));
        }
    }
    problems
}

/// `true` for a name the contract accepts: starts with a letter or
/// digit, at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
