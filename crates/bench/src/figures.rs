//! The text of Figures 9, 11a, 11b and Table 1: each builds the images
//! it needs, measures on the virtual clock, and returns exactly what
//! its binary prints.

use flexos_apps::workloads::{run_iperf, run_redis_gets};
use flexos_core::compartment::DataSharing;
use flexos_core::component::Component;
use flexos_core::config::SafetyConfig;
use flexos_core::prelude::*;
use flexos_machine::cost::CostModel;
use flexos_machine::fault::Fault;
use flexos_system::{configs, SystemBuilder};

/// Everything but the iPerf app: "the rest of the system including the
/// network stack" (§6.3) moves together.
const FIG9_ISOLATED: [&str; 5] = ["lwip", "newlib", "uksched", "vfscore", "ramfs"];

/// iPerf throughput (Gb/s) of `config` at a `buf`-byte receive buffer.
fn iperf_gbps(config: SafetyConfig, buf: u64) -> Result<f64, Fault> {
    let os = SystemBuilder::new(config)
        .app(flexos_apps::iperf_component())
        .build()?;
    // Move ~1 MB per point; enough for the batching effects to show.
    run_iperf(&os, buf, 1_000_000)
}

/// Figure 9: iPerf throughput vs receive-buffer size for Unikraft,
/// FlexOS NONE, MPK2-light, MPK2-DSS, and EPT2.
///
/// # Errors
///
/// Configuration or substrate faults; the first one ends the figure.
pub(crate) fn fig09_text() -> Result<String, Fault> {
    let mut out = format!(
        "# Figure 9: iPerf throughput (Gb/s) vs receive buffer size\n\
         {:>8} {:>10} {:>12} {:>14} {:>12} {:>12}\n",
        "buf(B)", "Unikraft", "FlexOS-NONE", "MPK2-light", "MPK2-dss", "EPT2"
    );
    for buf in (4..=14).map(|p| 1u64 << p) {
        let none = iperf_gbps(configs::none(), buf)?;
        let light = iperf_gbps(
            configs::mpk2(&FIG9_ISOLATED, DataSharing::SharedStack)?,
            buf,
        )?;
        let dss = iperf_gbps(configs::mpk2(&FIG9_ISOLATED, DataSharing::Dss)?, buf)?;
        let ept = iperf_gbps(configs::ept2(&FIG9_ISOLATED)?, buf)?;
        // Unikraft == FlexOS without the flexibility layer: identical
        // hot path, no gate metadata ("you only pay for what you get").
        let unikraft = none;
        out += &format!(
            "{buf:>8} {unikraft:>10.3} {none:>12.3} {light:>14.3} {dss:>12.3} {ept:>12.3}\n"
        );
    }
    out += "\n# paper: MPK within 1.5x of baseline, converging >=128B;\n\
            # EPT 1.1-2.2x slower than MPK-dss, ~90% of baseline >=256B\n";
    Ok(out)
}

/// Cycles for "a function that allocates 1 to 3 shared stack variables
/// (size 1 byte) and returns immediately" (§6.5), averaged over rounds.
fn stack_share_cycles(sharing: DataSharing, buffers: u32) -> Result<u64, Fault> {
    let config = SafetyConfig::builder()
        .compartment(CompartmentSpec::new("c1", Mechanism::IntelMpk).default_compartment())
        .compartment(CompartmentSpec::new("c2", Mechanism::IntelMpk))
        .place("lwip", "c2")
        .data_sharing(sharing)
        .build()?;
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()?;
    let env = &os.env;
    let app = os.app_ids[0];
    // Warm the allocator (first cut of the shared heap is slow-path).
    env.run_as(app, || -> Result<(), Fault> {
        let warm = env.stack_share_alloc(1)?;
        env.stack_share_release(warm)
    })?;
    const ROUNDS: u64 = 32;
    let start = env.machine().clock().now();
    env.run_as(app, || -> Result<(), Fault> {
        for _ in 0..ROUNDS {
            let mut shares = Vec::new();
            for _ in 0..buffers {
                shares.push(env.stack_share_alloc(1)?);
            }
            for share in shares {
                env.stack_share_release(share)?;
            }
        }
        Ok(())
    })?;
    Ok((env.machine().clock().now() - start) / ROUNDS)
}

/// Figure 11a: shared stack-variable allocation latency — heap
/// conversion vs DSS vs fully shared stacks, for 1-3 buffers.
///
/// # Errors
///
/// Configuration or substrate faults; the first one ends the figure.
pub(crate) fn fig11a_text() -> Result<String, Fault> {
    let mut out = format!(
        "# Figure 11a: shared stack allocation latency (cycles)\n\
         {:>9} {:>8} {:>8} {:>14}\n",
        "buffers", "heap", "DSS", "shared-stack"
    );
    for buffers in 1..=3 {
        let heap = stack_share_cycles(DataSharing::HeapConversion, buffers)?;
        let dss = stack_share_cycles(DataSharing::Dss, buffers)?;
        let shared = stack_share_cycles(DataSharing::SharedStack, buffers)?;
        out += &format!("{buffers:>9} {heap:>8} {dss:>8} {shared:>14}\n");
    }
    out += "\n# paper: heap 100-300+ cycles growing per buffer;\n\
            # DSS and shared stack constant at stack speed (2 cycles)\n";
    Ok(out)
}

/// Round-trip latency of one empty cross-component call in `config`
/// (averaged over rounds). The target is resolved once; the measured
/// loop is the pure mechanism cost.
fn gate_cycles(config: SafetyConfig) -> Result<u64, Fault> {
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()?;
    let env = &os.env;
    let app = os.app_ids[0];
    let poll = os.net.entries().poll;
    const ROUNDS: u64 = 64;
    env.run_as(app, || -> Result<u64, Fault> {
        // Warm once (EPT ring setup etc.).
        env.call_resolved(poll, || Ok(()))?;
        let start = env.machine().clock().now();
        for _ in 0..ROUNDS {
            env.call_resolved(poll, || Ok(()))?;
        }
        Ok((env.machine().clock().now() - start) / ROUNDS)
    })
}

/// Figure 11b: gate latencies — function call, MPK-light, MPK-DSS, EPT,
/// and the Linux syscall reference points.
///
/// # Errors
///
/// Configuration or substrate faults; the first one ends the figure.
pub(crate) fn fig11b_text() -> Result<String, Fault> {
    let cost = CostModel::default();
    let rows = [
        ("function", gate_cycles(configs::none())?, 2),
        (
            "MPK-light",
            gate_cycles(configs::mpk2(&["lwip"], DataSharing::SharedStack)?)?,
            62,
        ),
        (
            "MPK-dss",
            gate_cycles(configs::mpk2(&["lwip"], DataSharing::Dss)?)?,
            108,
        ),
        ("EPT", gate_cycles(configs::ept2(&["lwip"])?)?, 462),
        ("syscall (KPTI)", cost.syscall_kpti, 470),
        ("syscall-nokpti", cost.syscall_nokpti, 146),
    ];
    let mut out = format!(
        "# Figure 11b: gate latencies (cycles, round trip)\n{:>16} {:>9} {:>8}\n",
        "gate", "measured", "paper"
    );
    for (gate, measured, paper) in rows {
        out += &format!("{gate:>16} {measured:>9} {paper:>8}\n");
    }
    Ok(out)
}

/// One Table 1 row: label, patch size, shared-variable count.
fn table1_row(label: &str, patch: String, shared_vars: usize) -> String {
    format!("{label:>28} {patch:>13} {shared_vars:>12}\n")
}

fn component_row(label: &str, c: &Component) -> String {
    table1_row(label, c.patch.to_string(), c.shared_var_count())
}

/// Table 1: porting effort — patch sizes and shared-variable counts,
/// plus the boundary traffic the ported components generate (per-gate
/// crossing breakdown of a reference run — Redis, lwip isolated, 60
/// GETs — from the dense counters).
///
/// # Errors
///
/// Configuration or substrate faults from the reference run.
pub(crate) fn table1_text() -> Result<String, Fault> {
    let mut out = String::from("# Table 1: porting effort per component\n");
    out += &format!(
        "{:>28} {:>13} {:>12}\n",
        "Libs/Apps", "Patch size", "Shared vars"
    );
    out += &component_row("TCP/IP stack (LwIP)", &flexos_net::component());
    out += &component_row("scheduler (uksched)", &flexos_sched::component());
    // The filesystem row covers both components (ramfs, vfscore).
    let vfs = flexos_fs::vfscore_component();
    let ramfs = flexos_fs::ramfs_component();
    out += &table1_row(
        "filesystem (ramfs, vfscore)",
        format!(
            "+{} / -{}",
            vfs.patch.added + ramfs.patch.added,
            vfs.patch.removed + ramfs.patch.removed
        ),
        vfs.shared_var_count() + ramfs.shared_var_count(),
    );
    out += &component_row("time subsystem (uktime)", &flexos_time::component());
    out += &component_row("Redis", &flexos_apps::redis_component());
    out += &component_row("Nginx", &flexos_apps::nginx_component());
    out += &component_row("SQLite", &flexos_apps::sqlite_component());
    out += &component_row("iPerf", &flexos_apps::iperf_component());
    out += "\n# paper: LwIP +542/-275 (23), uksched +48/-8 (5), fs +148/-37 (12),\n\
            #        uktime +10/-9 (0), Redis +279/-90 (16), Nginx +470/-85 (36),\n\
            #        SQLite +199/-145 (24), iPerf +15/-14 (4)\n";

    // Boundary traffic: what the ported components' entry points carry
    // in the reference run.
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss)?)
        .app(flexos_apps::redis_component())
        .build()?;
    run_redis_gets(&os, 5, 60)?;
    let bd = os.env.gates().breakdown();
    let parts: Vec<String> = bd.by_kind.iter().map(|(k, c)| format!("{k}={c}")).collect();
    out += &format!(
        "\n# boundary traffic, 60 Redis GETs with lwip isolated:\n\
         #   crossings total={} {} direct={} cfi-violations={}\n",
        bd.total_crossings,
        parts.join(" "),
        bd.direct_calls,
        bd.cfi_violations
    );
    Ok(out)
}
