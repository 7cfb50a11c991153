//! The randomized-key benchmark mode (ISSUE 5 satellite): uniform key
//! draws on a deterministic xorshift PRNG open the hit/miss-mix axis
//! without giving up determinism, and the hot-key default remains the
//! byte-identical historical stream.

use flexos::prelude::*;
use flexos_apps::workloads::{run_redis_bench, run_redis_gets, KeyPattern, RedisBench, RunMetrics};
use flexos_core::compartment::DataSharing;

fn run(bench: RedisBench) -> RunMetrics {
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    run_redis_bench(&os, bench).unwrap()
}

#[test]
fn uniform_keys_are_deterministic_per_seed() {
    let bench = RedisBench {
        keyspace: 16,
        pattern: KeyPattern::Uniform {
            space: 64,
            seed: 0xDEC0DE,
        },
        warmup: 8,
        measured: 80,
        ..RedisBench::default()
    };
    let a = run(bench);
    let b = run(bench);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.cycles, b.cycles, "same seed must replay the same stream");
    assert_eq!(a.ops_per_sec.to_bits(), b.ops_per_sec.to_bits());
}

#[test]
fn miss_mix_moves_the_virtual_clock() {
    // space == keyspace: every draw hits. space > keyspace: a
    // deterministic share of draws miss, changing the per-op work (no
    // value copy on the reply, full-chain dict probes, different key
    // bytes) — the hit/miss mix must be visible on the virtual clock
    // for the same operation count. (Each reply is checked against the
    // PRNG-predicted hit/miss inside the driver.)
    let base = RedisBench {
        keyspace: 8,
        warmup: 8,
        measured: 120,
        ..RedisBench::default()
    };
    let all_hit = run(RedisBench {
        pattern: KeyPattern::Uniform { space: 8, seed: 42 },
        ..base
    });
    let mixed = run(RedisBench {
        pattern: KeyPattern::Uniform {
            space: 1 << 40,
            seed: 42,
        },
        ..base
    });
    assert_eq!(all_hit.ops, mixed.ops);
    assert_ne!(
        all_hit.cycles, mixed.cycles,
        "the miss mix must move the virtual clock"
    );
}

#[test]
fn absent_keys_take_the_miss_path() {
    // The uniform mode's misses go through the server's `$-1` nil
    // reply; pin that path directly at the protocol level.
    let os = SystemBuilder::new(configs::none())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let server = flexos_apps::workloads::install_redis(&os).unwrap();
    server.preload(&[(b"key:1", b"yyy")]).unwrap();
    let mut client =
        flexos_net::TcpClient::connect(&os.net, 50_000, flexos_apps::redis::REDIS_PORT).unwrap();
    let conn = server.accept().unwrap().expect("conn queued");
    let req = flexos_apps::resp::encode_request(&[b"GET", b"key:999"]);
    client.send(&os.net, &req).unwrap();
    assert!(server.serve_one(conn).unwrap());
    client.drain(&os.net).unwrap();
    assert_eq!(client.received(), b"$-1\r\n");
    assert_eq!(server.stats().misses, 1);
}

#[test]
fn uniform_mode_composes_with_pipelining() {
    let m = run(RedisBench {
        keyspace: 32,
        pipeline: 8,
        pattern: KeyPattern::Uniform {
            space: 128,
            seed: 7,
        },
        warmup: 8,
        measured: 64,
    });
    assert_eq!(m.ops, 64);
    assert!(m.cycles > 0);
}

#[test]
fn hot_key_default_is_the_historical_loop() {
    // `run_redis_gets` and an explicit default-pattern `RedisBench`
    // must be the same measurement, cycle for cycle.
    let build = || {
        SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
            .app(flexos_apps::redis_component())
            .build()
            .unwrap()
    };
    let os = build();
    let shorthand = run_redis_gets(&os, 8, 40).unwrap();
    let os = build();
    let explicit = run_redis_bench(
        &os,
        RedisBench {
            warmup: 8,
            measured: 40,
            ..RedisBench::default()
        },
    )
    .unwrap();
    assert_eq!(shorthand.cycles, explicit.cycles);
    assert_eq!(shorthand.ops, explicit.ops);
}

#[test]
fn degenerate_bench_shapes_are_refused_by_name_before_the_image_is_touched() {
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let before = os.cycles();
    for (bench, field) in [
        (
            RedisBench {
                pipeline: 0,
                measured: 8,
                ..RedisBench::default()
            },
            "RedisBench::pipeline",
        ),
        (
            RedisBench {
                keyspace: 1,
                measured: 8,
                ..RedisBench::default()
            },
            "RedisBench::keyspace",
        ),
        (
            // More keys than the dict has buckets: refused by name,
            // before a key is rendered or inserted.
            RedisBench {
                keyspace: u64::MAX,
                measured: 8,
                ..RedisBench::default()
            },
            "RedisBench::keyspace",
        ),
    ] {
        match run_redis_bench(&os, bench) {
            Err(Fault::InvalidConfig { reason }) => {
                assert!(reason.contains(field), "`{reason}` must name {field}")
            }
            other => panic!("{field}: expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(os.cycles(), before, "a refused bench must not run");
    }
    // The image is still usable: nothing was installed on its ports.
    assert!(run_redis_gets(&os, 2, 8).is_ok());
}
