//! Table 1: porting effort — patch sizes and shared-variable counts,
//! plus the boundary traffic the ported components generate (per-gate
//! crossing breakdown of a reference Redis run, from the dense counters
//! via `TransformReport::crossing_breakdown`).

use flexos_core::compartment::DataSharing;
use flexos_core::component::Component;
use flexos_core::gate::CrossingBreakdown;
use flexos_machine::fault::Fault;
use flexos_system::{configs, SystemBuilder};

fn row(label: &str, c: &Component) {
    println!(
        "{:>28} {:>13} {:>12}",
        label,
        c.patch.to_string(),
        c.shared_var_count()
    );
}

/// Boundary traffic of the reference run: Redis, lwip isolated, 60 GETs.
fn reference_run() -> Result<CrossingBreakdown, Fault> {
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss)?)
        .app(flexos_apps::redis_component())
        .build()?;
    flexos_apps::workloads::run_redis_gets(&os, 5, 60)?;
    Ok(os.report.crossing_breakdown(&os.env))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    if let Some(arg) = args.first() {
        eprintln!("table1: unexpected argument `{arg}`");
        eprintln!("usage: table1 [--trace PATH] [--metrics PATH]");
        std::process::exit(2);
    }
    println!("# Table 1: porting effort per component");
    println!(
        "{:>28} {:>13} {:>12}",
        "Libs/Apps", "Patch size", "Shared vars"
    );
    row("TCP/IP stack (LwIP)", &flexos_net::component());
    row("scheduler (uksched)", &flexos_sched::component());
    // The filesystem row covers both components (ramfs, vfscore).
    let vfs = flexos_fs::vfscore_component();
    let ramfs = flexos_fs::ramfs_component();
    println!(
        "{:>28} {:>13} {:>12}",
        "filesystem (ramfs, vfscore)",
        format!(
            "+{} / -{}",
            vfs.patch.added + ramfs.patch.added,
            vfs.patch.removed + ramfs.patch.removed
        ),
        vfs.shared_var_count() + ramfs.shared_var_count()
    );
    row("time subsystem (uktime)", &flexos_time::component());
    row("Redis", &flexos_apps::redis_component());
    row("Nginx", &flexos_apps::nginx_component());
    row("SQLite", &flexos_apps::sqlite_component());
    row("iPerf", &flexos_apps::iperf_component());
    println!("\n# paper: LwIP +542/-275 (23), uksched +48/-8 (5), fs +148/-37 (12),");
    println!("#        uktime +10/-9 (0), Redis +279/-90 (16), Nginx +470/-85 (36),");
    println!("#        SQLite +199/-145 (24), iPerf +15/-14 (4)");

    // Boundary traffic: what the ported components' entry points carry in
    // the reference run.
    let bd = reference_run().unwrap_or_else(|fault| {
        eprintln!("table1: reference run failed: {fault}");
        std::process::exit(1);
    });
    println!("\n# boundary traffic, 60 Redis GETs with lwip isolated:");
    let parts: Vec<String> = bd.by_kind.iter().map(|(k, c)| format!("{k}={c}")).collect();
    println!(
        "#   crossings total={} {} direct={} cfi-violations={}",
        bd.total_crossings,
        parts.join(" "),
        bd.direct_calls,
        bd.cfi_violations
    );

    flexos_bench::obs::emit_canonical_if_requested(&obs);
}
