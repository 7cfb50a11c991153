//! Parallel-vs-serial determinism of the sweep engine (ISSUE 4
//! acceptance): per-point virtual-cycle results of a threaded sweep
//! must be **bit-identical** to a serial run of the same `SpaceSpec`,
//! stable across worker counts, and the Figure 6 named subset must
//! measure exactly what a hand-built image of the same point measures.

use flexos::prelude::*;
use flexos::sweep::{engine, SpaceSpec};
use flexos_apps::workloads::{run_redis_bench, run_redis_gets, RedisBench};
use flexos_core::compartment::{CompartmentSpec, DataSharing, Mechanism};
use flexos_core::hardening::Hardening;

/// A spec small enough for the test suite but wide enough to cover
/// every axis: both mechanisms, all five strategies, two hardening
/// masks, redis (pipelined and not), nginx, and iPerf.
fn covering_spec() -> SpaceSpec {
    SpaceSpec::quick(5, 40)
}

#[test]
fn parallel_results_are_bit_identical_across_worker_counts() {
    let spec = covering_spec();
    let serial = engine::run_parallel(&spec, 1).expect("serial sweep");
    assert_eq!(serial.len(), spec.len());
    for workers in [2, 4, 8] {
        let parallel = engine::run_parallel(&spec, workers).expect("parallel sweep");
        assert_eq!(
            serial, parallel,
            "{workers}-worker sweep diverged from serial"
        );
    }
}

#[test]
fn fig6_subset_reproduces_the_legacy_runner() {
    // The engine path for the fig6-named space must be the historical
    // Figure 6 measurement, cycle for cycle. The reference shares no
    // builder with the subject: each checked point's image is spelled
    // out with `SafetyConfig::builder()` and driven by `run_redis_gets`
    // — the five unhardened strategies and the fully hardened
    // three-way split.
    let (warmup, measured) = (3, 12);
    let spec = SpaceSpec::fig6("redis", warmup, measured);
    let engine_results = engine::run_parallel(&spec, 4).expect("engine sweep");
    assert_eq!(engine_results.len(), 80);

    let reference = |compartments: usize, placed: &[(&'static str, &'static str)], harden: bool| {
        let mechanism = match compartments {
            1 => Mechanism::None,
            _ => Mechanism::IntelMpk,
        };
        let mut b = SafetyConfig::builder()
            .data_sharing(DataSharing::Dss)
            .default_allocator(flexos_alloc::HeapKind::Tlsf)
            .compartment(CompartmentSpec::new("comp1", mechanism).default_compartment());
        for c in 2..=compartments {
            b = b.compartment(CompartmentSpec::new(format!("comp{c}"), mechanism));
        }
        for (library, compartment) in placed {
            b = b.place(*library, *compartment);
        }
        if harden {
            for component in ["redis", "newlib", "uksched", "lwip"] {
                b = b.harden_component(component, Hardening::FIG6_BUNDLE);
            }
        }
        b.build().expect("reference config")
    };
    let (sched2, lwip2, lwip3) = (("uksched", "comp2"), ("lwip", "comp2"), ("lwip", "comp3"));
    // (index = strategy * 16 + mask, reference config)
    let cases = [
        (0, reference(1, &[], false)),
        (16, reference(2, &[lwip2], false)),
        (32, reference(2, &[sched2], false)),
        (48, reference(2, &[sched2, lwip2], false)),
        (64, reference(3, &[sched2, lwip3], false)),
        (79, reference(3, &[sched2, lwip3], true)),
    ];
    for (i, config) in cases {
        let os = SystemBuilder::new(config)
            .app(flexos_apps::redis_component())
            .build()
            .expect("reference image builds");
        let legacy = run_redis_gets(&os, warmup, measured).expect("reference run");
        let got = &engine_results[i];
        assert_eq!(got.cycles, legacy.cycles, "cycles diverged at point {i}");
        assert_eq!(got.ops, legacy.ops, "ops diverged at point {i}");
        assert_eq!(
            got.ops_per_sec.to_bits(),
            legacy.ops_per_sec.to_bits(),
            "throughput diverged at point {i}"
        );
    }
}

#[test]
fn repeated_runs_are_stable() {
    // Determinism also means run-to-run: no hidden iteration-order or
    // address-randomization effect may leak into the virtual clock.
    let mut spec = covering_spec();
    spec.workloads.truncate(2);
    spec.hardening_masks = vec![0b1010];
    let a = engine::run_parallel(&spec, 4).expect("first run");
    let b = engine::run_parallel(&spec, 3).expect("second run");
    assert_eq!(a, b);
}

#[test]
fn pipelining_amortizes_per_tick_crossings() {
    // The pipeline-depth axis must move the crossings-per-request ratio:
    // a depth-8 batch serves all eight requests in one event-loop tick
    // (one yield/cron round), so cycles per op must drop vs depth 1.
    let run = |pipeline: u64| {
        let os = SystemBuilder::new(configs::mpk2(&["uksched"], DataSharing::Dss).unwrap())
            .app(flexos_apps::redis_component())
            .build()
            .unwrap();
        run_redis_bench(
            &os,
            RedisBench {
                keyspace: 3,
                pipeline,
                warmup: 16,
                measured: 160,
                ..RedisBench::default()
            },
        )
        .unwrap()
    };
    let unpipelined = run(1);
    let pipelined = run(8);
    assert_eq!(unpipelined.ops, pipelined.ops);
    assert!(
        pipelined.cycles < unpipelined.cycles,
        "depth-8 pipelining must amortize tick costs: {} !< {}",
        pipelined.cycles,
        unpipelined.cycles
    );
}

#[test]
fn serve_one_drains_a_whole_pipelined_batch_in_one_tick() {
    let os = SystemBuilder::new(configs::none())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let server = flexos_apps::workloads::install_redis(&os).unwrap();
    server.preload(&[(b"key:1", b"yyy")]).unwrap();
    let mut client =
        flexos_net::TcpClient::connect(&os.net, 50_000, flexos_apps::redis::REDIS_PORT).unwrap();
    let conn = server.accept().unwrap().expect("conn queued");

    let one = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);
    let mut batch = Vec::new();
    for _ in 0..5 {
        batch.extend_from_slice(&one);
    }
    client.send(&os.net, &batch).unwrap();
    assert!(server.serve_one(conn).unwrap());
    assert_eq!(
        server.stats().commands,
        5,
        "one tick must drain every buffered request"
    );
    client.drain(&os.net).unwrap();
    assert_eq!(client.received(), b"$3\r\nyyy\r\n".repeat(5).as_slice());
}
