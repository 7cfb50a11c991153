//! Simulated-SMP acceptance tests (PR 10): multi-core runs are
//! bit-reproducible, `cores = 1` is byte-identical to the pre-SMP
//! system, and an 8-core Redis run pays measurable cross-core gate
//! (IPI) and contention charges that show up in the cycle-attribution
//! profile and the Chrome trace.

use flexos::prelude::*;
use flexos::sweep::{engine, report, SpaceSpec};
use flexos::trace::TraceConfig;
use flexos_apps::workloads::{run_nginx_gets, run_redis_gets, RunMetrics};
use flexos_core::compartment::DataSharing;
use flexos_system::observe::{trace_artifacts, TraceArtifacts};

fn redis_mpk2_cores(cores: usize) -> FlexOs {
    SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .cores(cores)
        .build()
        .unwrap()
}

/// One traced multi-core Redis run, small enough for the suite: every
/// core serves the full warmup + measured GET load through its own
/// listener shard.
fn traced_smp_run(cores: usize) -> (FlexOs, RunMetrics, TraceArtifacts) {
    let os = redis_mpk2_cores(cores);
    os.env.machine().tracer().enable(TraceConfig::default());
    let metrics = run_redis_gets(&os, 4, 24).unwrap();
    let artifacts = trace_artifacts(&os.env);
    (os, metrics, artifacts)
}

#[test]
fn multicore_runs_are_bit_reproducible() {
    // Same config + seed + cores ⇒ byte-identical results, traces, and
    // digests — the deterministic min-clock multiplexer keeps the
    // interleaving a pure function of virtual time.
    let (_, m1, a1) = traced_smp_run(4);
    let (_, m2, a2) = traced_smp_run(4);
    assert_eq!(m1, m2, "multi-core RunMetrics diverged");
    assert_eq!(a1.chrome_json, a2.chrome_json, "Chrome JSON diverged");
    assert_eq!(a1.profile, a2.profile, "attribution profile diverged");
    assert_eq!(a1.chrome_digest, a2.chrome_digest);
    assert_eq!(a1.profile_digest, a2.profile_digest);
    assert_eq!(a1.events, a2.events);
}

#[test]
fn one_core_build_is_byte_identical_to_the_default_build() {
    // `.cores(1)` must be the identity: same metrics, same trace bytes,
    // and zero SMP charges — the pre-SMP system, bit for bit.
    let run = |os: FlexOs| {
        os.env.machine().tracer().enable(TraceConfig::default());
        let m = run_redis_gets(&os, 4, 24).unwrap();
        let a = trace_artifacts(&os.env);
        (os, m, a)
    };
    let (os1, m1, a1) = run(redis_mpk2_cores(1));
    let (os0, m0, a0) = run(SystemBuilder::new(
        configs::mpk2(&["lwip"], DataSharing::Dss).unwrap(),
    )
    .app(flexos_apps::redis_component())
    .build()
    .unwrap());
    assert_eq!(m1, m0, "cores(1) changed the measured run");
    assert_eq!(a1.chrome_json, a0.chrome_json, "cores(1) changed the trace");
    assert_eq!(a1.profile, a0.profile, "cores(1) changed the profile");
    for os in [&os1, &os0] {
        assert_eq!(os.env.machine().ipi_cycles(), 0);
        assert_eq!(os.env.machine().contention_cycles(), 0);
    }
    // Single-core traces carry no SMP or per-core thread metadata.
    assert!(!a1.chrome_json.contains("smp:"));
    assert!(!a1.chrome_json.contains("thread_name"));
    assert!(!a1.profile.contains("core0/"));
}

#[test]
fn eight_core_redis_pays_measurable_smp_charges() {
    // Shards on cores 1..8 cross into lwip (pinned to core 0) on every
    // recv/send, paying the remote-gate IPI; all eight cores touch the
    // shared NIC rings inside the same accounting windows, paying the
    // contention surcharge. Both must be visible in the machine
    // counters, the folded profile, and the Chrome trace.
    let (os, metrics, a) = traced_smp_run(8);
    let machine = os.env.machine();
    assert!(metrics.ops == 8 * 24, "every core serves the full load");
    assert!(
        machine.ipi_cycles() > 0,
        "no cross-core gate charges recorded"
    );
    assert!(
        machine.contention_cycles() > 0,
        "no contention charges recorded"
    );
    // The profile folds the charges into per-core span stacks.
    assert!(a.profile.contains("core1/"), "per-core profile roots");
    assert!(a.profile.contains("ipi"), "IPI node missing from profile");
    assert!(
        a.profile.contains("ring-contention"),
        "NIC-ring contention node missing from profile"
    );
    // The Chrome export gets per-core tracks and instant SMP markers.
    assert!(a.chrome_json.contains("\"thread_name\""));
    assert!(a.chrome_json.contains("\"core7\""));
    assert!(a.chrome_json.contains("smp:ipi"));
}

#[test]
fn cores_axis_moves_the_budget_stars_between_1_and_8() {
    // A tiny Redis space swept at cores ∈ {1, 8}: eight shards serve 8×
    // the requests over roughly one shard's makespan, so under a 50%
    // fractional budget (normalized to the workload's overall best, an
    // 8-core point) every 1-core point prunes away and the §5 stars
    // land exclusively on 8-core configurations — while the same shapes
    // restricted to cores = 1 star among themselves. The cores axis
    // therefore changes the star report, not just the raw numbers.
    let mut spec = SpaceSpec::quick(2, 8);
    spec.workloads.truncate(1); // redis k3 P1
    spec.mechanisms.truncate(1); // MPK
    spec.strategies.truncate(3); // Together + two 2-way splits
    spec.data_sharings.truncate(1); // DSS
    spec.allocators.truncate(1); // TLSF
    spec.hardening_masks = vec![0b0000];
    spec.cores = vec![1, 8];
    let points: Vec<_> = spec.points().collect();
    let results = engine::run_parallel(&spec, 1).unwrap();
    let half = report::BudgetVector::uniform(0.5);
    let (_, stars) = report::star_report_vec(&points, &results, &half);
    assert!(!stars.stars.is_empty());
    for &s in &stars.stars {
        assert_eq!(
            points[s].cores, 8,
            "a 1-core point starred under the 50% budget: {}",
            points[s]
        );
    }

    let mut one_core = spec.clone();
    one_core.cores = vec![1];
    let points1: Vec<_> = one_core.points().collect();
    let results1 = engine::run_parallel(&one_core, 1).unwrap();
    let (_, stars1) = report::star_report_vec(&points1, &results1, &half);
    assert!(!stars1.stars.is_empty());
    let labels: Vec<String> = stars.stars.iter().map(|&s| points[s].to_string()).collect();
    for &s in &stars1.stars {
        assert_eq!(points1[s].cores, 1);
        assert!(
            !labels.contains(&points1[s].to_string()),
            "star sets must differ between 1 and 8 cores"
        );
    }
}

#[test]
fn multicore_nginx_event_loops_are_deterministic_and_sharded() {
    let run = || {
        let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
            .app(flexos_apps::nginx_component())
            .cores(4)
            .build()
            .unwrap();
        let m = run_nginx_gets(&os, 2, 16).unwrap();
        let ipi = os.env.machine().ipi_cycles();
        (m, ipi)
    };
    let (m1, ipi1) = run();
    let (m2, ipi2) = run();
    assert_eq!(m1, m2, "multi-core nginx diverged");
    assert_eq!(ipi1, ipi2);
    assert_eq!(m1.ops, 4 * 16, "one listener shard per core");
    assert!(ipi1 > 0, "nginx shards off core 0 must pay the IPI");
}
