//! ISSUE 9 acceptance tests for the `flexos_trace` observability
//! stack: the trace is a pure function of (config, seed) — two
//! identical runs export byte-identical Chrome JSON, attribution
//! profiles, and digests — and turning the ring on never changes what
//! the run *measures*.

use flexos::prelude::*;
use flexos::trace::TraceConfig;
use flexos_apps::workloads::run_redis_gets;
use flexos_core::compartment::DataSharing;
use flexos_system::observe::{metrics_json, trace_artifacts};

#[path = "common/traced.rs"]
mod traced;
use traced::traced_run;

#[test]
fn same_config_same_seed_traces_are_byte_identical() {
    let (_, m1, a1) = traced_run();
    let (_, m2, a2) = traced_run();
    assert_eq!(m1, m2, "the runs themselves must be deterministic");
    assert_eq!(a1.chrome_json, a2.chrome_json, "Chrome JSON diverged");
    assert_eq!(a1.profile, a2.profile, "attribution profile diverged");
    assert_eq!(a1.chrome_digest, a2.chrome_digest);
    assert_eq!(a1.profile_digest, a2.profile_digest);
    assert_eq!(a1.events, a2.events);
    assert_eq!(a1.dropped, a2.dropped);
}

#[test]
fn tracing_does_not_perturb_the_measured_run() {
    // The untraced twin of `traced_run`'s workload: identical
    // RunMetrics (ops, cycles, throughput) whether or not the ring is
    // recording. This is the figure-output-parity criterion in
    // miniature — the figure binaries print nothing but RunMetrics
    // aggregates.
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let untraced = run_redis_gets(&os, 50, 200).unwrap();
    let (_, traced, _) = traced_run();
    assert_eq!(untraced, traced, "tracing changed the measured run");
}

#[test]
fn chrome_trace_carries_attribution_and_a_microreboot_span() {
    let (os, _, a) = traced_run();
    // Per-compartment process naming for the Chrome viewer (`mpk2`
    // names its compartments comp1/comp2; lwip lives in comp2).
    assert!(a.chrome_json.contains("\"process_name\""));
    assert!(a.chrome_json.contains("\"comp1\""), "compartment 0 name");
    assert!(a.chrome_json.contains("\"comp2\""), "lwip compartment name");
    // Gate spans resolve callee-compartment::entry labels.
    assert!(a.chrome_json.contains("comp2::lwip_"), "gate span labels");
    // The operator microreboot shows up as an umbrella span plus all
    // five named phases.
    assert!(a.chrome_json.contains("\"microreboot\""));
    for phase in flexos::trace::event::REBOOT_PHASES {
        assert!(a.chrome_json.contains(phase), "missing phase {phase}");
    }
    // The folded profile attributes cycles to the same labels.
    assert!(a.profile.contains("microreboot"));
    assert!(a.events > 0, "ring recorded nothing");

    // The metrics registry snapshots the same run: recovery latency
    // histogram has exactly the one microreboot, request latency has
    // the measured batches.
    let json = metrics_json(&os);
    assert!(json.contains("\"latency.recovery_cycles\""));
    assert!(json.contains("\"latency.request_cycles\""));
    assert!(json.contains("\"trace.events\""));

    // The build report exposes the per-compartment heap high-water
    // marks the registry draws from: the app compartment allocated.
    let hw = os.report.heap_highwater(&os.env);
    assert_eq!(hw.len(), 2);
    assert_eq!(hw[0].0, "comp1");
    assert!(hw[0].1 > 0, "app compartment must have a heap high-water");
}

#[test]
fn ring_overflow_drops_oldest_and_counts() {
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    // A tiny ring: the GET workload generates far more events than 64.
    os.env
        .machine()
        .tracer()
        .enable(TraceConfig { capacity: 64 });
    run_redis_gets(&os, 10, 50).unwrap();
    let tracer = os.env.machine().tracer();
    assert_eq!(tracer.len(), 64, "ring holds exactly its capacity");
    assert!(tracer.dropped() > 0, "overflow must be counted");
    // Chronological order survives the wrap.
    let events = tracer.events();
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "events out of order after wrap");
    }
}

/// A compartment named `c"2\` in config text must still export
/// documents a JSON parser accepts: the name reaches the Chrome trace's
/// `process_name` line and the metrics keys through the one escaping
/// writer (`flexos_trace::JsonStr`).
#[test]
fn hostile_compartment_names_are_escaped_in_every_json_export() {
    let config = SafetyConfig::parse_str(
        "compartments:\n\
         - comp1:\n    mechanism: intel-mpk\n    default: True\n\
         - c\"2\\:\n    mechanism: intel-mpk\n\
         libraries:\n\
         - lwip: c\"2\\\n",
    )
    .unwrap();
    assert_eq!(config.compartments[1].name, "c\"2\\");
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    os.env.machine().tracer().enable(TraceConfig::default());
    run_redis_gets(&os, 0, 2).unwrap();

    let chrome = trace_artifacts(&os.env).chrome_json;
    let process_names: Vec<&str> = chrome
        .lines()
        .filter(|line| line.contains("\"process_name\""))
        .collect();
    let escaped = r#""args":{"name":"c\"2\\"}}"#;
    assert!(
        process_names.iter().any(|line| line.contains(escaped)),
        "no process_name line carries the escaped name: {process_names:?}"
    );
    assert!(!chrome.contains(r#"{"name":"c"2\"}"#), "raw name leaked");

    let metrics = metrics_json(&os);
    for key in [
        "cycles_used",
        "crossings_used",
        "heap_bytes_live",
        "refusals",
    ] {
        let want = format!(r#"  "budget.c\"2\\.{key}": "#);
        assert!(metrics.contains(&want), "metrics lack {want}");
    }
    assert!(!metrics.contains("budget.c\"2\\."), "raw name leaked");
}
