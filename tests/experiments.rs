//! Integration tests: the evaluation's *shape* claims, asserted on small
//! runs (who wins, by roughly what factor, where crossovers fall).

use flexos::prelude::*;
use flexos_apps::workloads::{run_iperf, run_nginx_gets, run_redis_gets, run_sqlite_inserts};
use flexos_core::compartment::DataSharing;

fn redis_throughput(config: SafetyConfig) -> f64 {
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    run_redis_gets(&os, 10, 60).unwrap().ops_per_sec
}

fn nginx_throughput(config: SafetyConfig) -> f64 {
    let os = SystemBuilder::new(config)
        .app(flexos_apps::nginx_component())
        .build()
        .unwrap();
    run_nginx_gets(&os, 10, 60).unwrap().ops_per_sec
}

#[test]
fn redis_baseline_is_about_1_2m_reqs() {
    // Figure 6: the fastest configuration reaches ~1.2M GET/s.
    let rps = redis_throughput(configs::none());
    assert!(
        (900_000.0..1_600_000.0).contains(&rps),
        "redis baseline {rps} req/s"
    );
}

#[test]
fn isolating_lwip_costs_redis_about_11_percent() {
    // §6.1: "isolating LwIP from the rest of the system leads to an 11%
    // performance hit".
    let base = redis_throughput(configs::none());
    let iso = redis_throughput(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap());
    let overhead = base / iso - 1.0;
    assert!(
        (0.05..0.25).contains(&overhead),
        "lwip isolation overhead {overhead:.3}"
    );
}

#[test]
fn isolating_the_scheduler_hits_redis_much_harder_than_nginx() {
    // §6.1: 43% for Redis vs 6% for Nginx — the communication-pattern
    // asymmetry that motivates per-application specialization.
    let redis_base = redis_throughput(configs::none());
    let redis_iso = redis_throughput(configs::mpk2(&["uksched"], DataSharing::Dss).unwrap());
    let redis_overhead = redis_base / redis_iso - 1.0;

    let nginx_base = nginx_throughput(configs::none());
    let nginx_iso = nginx_throughput(configs::mpk2(&["uksched"], DataSharing::Dss).unwrap());
    let nginx_overhead = nginx_base / nginx_iso - 1.0;

    assert!(
        (0.25..0.55).contains(&redis_overhead),
        "redis sched overhead {redis_overhead:.3}"
    );
    assert!(
        nginx_overhead < 0.12,
        "nginx sched overhead {nginx_overhead:.3}"
    );
    assert!(redis_overhead > 3.0 * nginx_overhead);
}

#[test]
fn isolation_for_free_lwip_and_sched_cuts_compose() {
    // §6.1: lwip never talks to the scheduler, so the 3-compartment
    // config costs only a few points more than the 2-compartment one.
    let two = redis_throughput(configs::mpk2(&["uksched", "lwip"], DataSharing::Dss).unwrap());
    let three = redis_throughput(configs::mpk3(&["uksched"], &["lwip"], DataSharing::Dss).unwrap());
    let delta = (two / three - 1.0).abs();
    assert!(delta < 0.08, "B+C composition delta {delta:.3}");
}

#[test]
fn light_gates_are_cheaper_than_dss_gates() {
    // Figure 9's flavour ordering at the config level.
    let light = redis_throughput(configs::mpk2(&["lwip"], DataSharing::SharedStack).unwrap());
    let dss = redis_throughput(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap());
    assert!(light > dss, "light {light} vs dss {dss}");
}

#[test]
fn iperf_batching_closes_the_gap() {
    // Figure 9: at 16B buffers the gates dominate; at 16KB everything
    // converges toward line rate.
    let run = |config: SafetyConfig, buf: u64| {
        let os = SystemBuilder::new(config)
            .app(flexos_apps::iperf_component())
            .build()
            .unwrap();
        run_iperf(&os, buf, 400_000).unwrap()
    };
    let isolated = ["lwip", "newlib", "uksched", "vfscore", "ramfs"];
    for buf in [16u64, 16384] {
        let none = run(configs::none(), buf);
        let dss = run(configs::mpk2(&isolated, DataSharing::Dss).unwrap(), buf);
        let ept = run(configs::ept2(&isolated).unwrap(), buf);
        assert!(none >= dss && dss >= ept, "ordering at {buf}B");
        let gap = none / ept;
        if buf == 16 {
            assert!(gap > 1.5, "small buffers: EPT gap {gap:.2} should be large");
        } else {
            assert!(gap < 1.15, "large buffers: EPT gap {gap:.2} should close");
        }
    }
}

#[test]
fn fig10_ordering_holds() {
    // Figure 10's ranking: Unikraft/FlexOS-NONE fastest, then MPK3, then
    // EPT2 ≈ Linux, then seL4, then the CubicleOS pair.
    let rows = flexos_bench::fig10::run_fig10_detailed(250).unwrap().rows;
    let sec = |sys: &str, prof: &str| {
        rows.iter()
            .find(|r| r.system.to_string().contains(sys) && r.profile.to_string() == prof)
            .map(|r| r.seconds)
            .unwrap()
    };
    let none = sec("FlexOS", "NONE");
    let mpk3 = sec("FlexOS", "MPK3");
    let ept2 = sec("FlexOS", "EPT2");
    let linux = sec("Linux", "PT2");
    let sel4 = sec("SeL4", "PT3");
    let cub_none = sec("CubicleOS", "NONE");
    let cub_mpk3 = sec("CubicleOS", "MPK3");

    assert!(none < mpk3 && mpk3 < ept2, "NONE < MPK3 < EPT2");
    // "FlexOS with EPT2 performs almost identically to Linux" (§6.4).
    assert!(
        (ept2 / linux - 1.0).abs() < 0.25,
        "EPT2 {ept2} vs Linux {linux}"
    );
    assert!(sel4 > ept2, "seL4 slower than EPT2");
    assert!(
        cub_none > sel4,
        "CubicleOS linuxu base slowest of the bases"
    );
    // "Compared to CubicleOS, FlexOS is an order of magnitude faster".
    assert!(
        cub_mpk3 / mpk3 > 5.0,
        "CubicleOS MPK3 {cub_mpk3} vs FlexOS {mpk3}"
    );
    // CubicleOS NONE beats the Unikraft linuxu baseline (Lea allocator).
    let uk_linuxu = sec("linuxu", "NONE");
    assert!(cub_none < uk_linuxu);
}

#[test]
fn sqlite_results_are_correct_not_just_fast() {
    // The benchmark must produce a correct database, not just numbers.
    let os = SystemBuilder::new(configs::none())
        .app(flexos_apps::sqlite_component())
        .build()
        .unwrap();
    let db = flexos_apps::workloads::install_sqlite(&os).unwrap();
    db.exec("CREATE TABLE t (id INTEGER, body TEXT)").unwrap();
    for i in 0..50 {
        db.exec(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"))
            .unwrap();
    }
    let count = db.exec("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(count.count, Some(50));
    let row = db.exec("SELECT * FROM t WHERE rowid = 7").unwrap();
    assert_eq!(row.rows.len(), 1);
    assert_eq!(
        row.rows[0][1],
        flexos_apps::sqlite::sql::Value::Text("row-6".into())
    );
}

#[test]
fn sqlite_crossing_counts_drive_the_mpk3_overhead() {
    // The decomposition behind Figure 10: cycles ≈ base + crossings×gate.
    let os = SystemBuilder::new(configs::none())
        .app(flexos_apps::sqlite_component())
        .build()
        .unwrap();
    let run = run_sqlite_inserts(&os, 100).unwrap();
    // Each INSERT txn performs tens of vfs entries (the journal protocol)
    // and roughly as many time queries.
    let vfs_per_txn = run.vfs_ops as f64 / 100.0;
    let time_per_txn = run.time_queries as f64 / 100.0;
    assert!(
        (20.0..80.0).contains(&vfs_per_txn),
        "vfs ops/txn {vfs_per_txn}"
    );
    assert!(
        time_per_txn > 0.5 * vfs_per_txn,
        "time queries track vfs ops"
    );
}

#[test]
fn redis_nginx_distributions_differ() {
    // Figure 6/7's headline: the same safety configuration prices
    // differently on different applications.
    let cfg = configs::mpk2(&["uksched"], DataSharing::Dss).unwrap();
    let redis_overhead = {
        let b = redis_throughput(configs::none());
        b / redis_throughput(cfg.clone()) - 1.0
    };
    let nginx_overhead = {
        let b = nginx_throughput(configs::none());
        b / nginx_throughput(cfg) - 1.0
    };
    assert!((redis_overhead - nginx_overhead).abs() > 0.1);
}
