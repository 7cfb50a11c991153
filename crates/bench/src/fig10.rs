//! Figure 10 (§6.4): the SQLite INSERT workload across systems.
//!
//! The three FlexOS rows (NONE / MPK3 / EPT2) are **fully simulated**:
//! real images with real gates are built and the INSERT workload
//! executes through them. The baseline rows are **measured-run
//! overlays**: the NONE run yields the workload's exact operation
//! counts (vfs entries, time queries, allocator slow-path hits), and
//! each baseline prices those operations with its own crossing
//! primitive, per the calibrated cost model (DESIGN.md §4):
//!
//! * **Unikraft/KVM** — FlexOS NONE minus the small image tax;
//! * **Unikraft/linuxu** — plus the ring-3 privileged-operation tax
//!   (linuxu performs privileged work as Linux syscalls);
//! * **Linux** — every vfs entry becomes a KPTI syscall (470 cycles;
//!   Fig 11b — which is why Linux lands next to EPT2, §6.4);
//! * **seL4/Genode** — every fs *and* time entry becomes a microkernel
//!   IPC through Genode's layers;
//! * **CubicleOS** — linuxu base with the Lea allocator (cheaper slow
//!   paths than TLSF on this churn-heavy workload) and, for MPK3,
//!   `pkey_mprotect`-priced domain transitions.

use std::fmt;

use flexos_apps::workloads::{run_sqlite_inserts, SqliteRun};
use flexos_core::compartment::DataSharing;
use flexos_core::gate::GateKind;
use flexos_machine::cost::CostModel;
use flexos_machine::fault::Fault;
use flexos_system::{configs, SystemBuilder};

/// Which system a row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemUnderTest {
    /// Vanilla Unikraft on QEMU/KVM.
    UnikraftKvm,
    /// Vanilla Unikraft on the linuxu (ring-3 debug) platform.
    UnikraftLinuxu,
    /// FlexOS (QEMU/KVM).
    FlexOs,
    /// Linux process (KPTI enabled).
    Linux,
    /// seL4 with the Genode system.
    Sel4Genode,
    /// CubicleOS (linuxu platform, Lea allocator).
    CubicleOs,
}

impl fmt::Display for SystemUnderTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SystemUnderTest::UnikraftKvm => "Unikraft (QEMU/KVM)",
            SystemUnderTest::UnikraftLinuxu => "Unikraft (linuxu)",
            SystemUnderTest::FlexOs => "FlexOS",
            SystemUnderTest::Linux => "Linux",
            SystemUnderTest::Sel4Genode => "SeL4/Genode",
            SystemUnderTest::CubicleOs => "CubicleOS",
        };
        f.write_str(s)
    }
}

/// The isolation profile of a row (the x-axis labels of Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationProfile {
    /// No isolation.
    None,
    /// Three MPK compartments: fs | time | rest.
    Mpk3,
    /// Two EPT compartments (VMs): fs | rest.
    Ept2,
    /// Two page-table domains (process boundary).
    Pt2,
    /// Three page-table domains.
    Pt3,
}

impl fmt::Display for IsolationProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IsolationProfile::None => "NONE",
            IsolationProfile::Mpk3 => "MPK3",
            IsolationProfile::Ept2 => "EPT2",
            IsolationProfile::Pt2 => "PT2",
            IsolationProfile::Pt3 => "PT3",
        };
        f.write_str(s)
    }
}

/// One bar of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// System.
    pub system: SystemUnderTest,
    /// Isolation profile.
    pub profile: IsolationProfile,
    /// Time for the 5000-INSERT workload, seconds.
    pub seconds: f64,
    /// `true` for fully simulated rows, `false` for measured-run overlays.
    pub(crate) simulated: bool,
}

fn overlay(run: &SqliteRun, cost: &CostModel, extra_cycles: i64) -> f64 {
    let total = run.cycles as i64 + extra_cycles;
    cost.cycles_to_seconds(total.max(0) as u64)
}

fn build_and_run(config: flexos_core::config::SafetyConfig, n: u64) -> Result<SqliteRun, Fault> {
    let os = SystemBuilder::new(config)
        .app(flexos_apps::sqlite_component())
        .build()?;
    run_sqlite_inserts(&os, n)
}

/// Figure 10 results plus the per-profile simulated runs (crossing
/// breakdowns included) for reporting.
#[derive(Debug, Clone)]
pub struct Fig10Detail {
    /// The nine bars in figure order.
    pub rows: Vec<Fig10Row>,
    /// The fully simulated FlexOS runs, per isolation profile.
    pub(crate) simulated: Vec<(IsolationProfile, SqliteRun)>,
}

/// Runs the full Figure 10 experiment with `n` INSERT transactions
/// (the paper uses 5000): the nine bars in figure order, with the
/// simulated [`SqliteRun`]s attached so the figure can report
/// per-gate-kind crossing counts without re-deriving them.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn run_fig10_detailed(n: u64) -> Result<Fig10Detail, Fault> {
    let cost = CostModel::default();

    // --- fully simulated FlexOS rows --------------------------------
    let none_run = build_and_run(configs::none(), n)?;
    let mpk3_run = build_and_run(
        configs::mpk3(&["vfscore", "ramfs"], &["uktime"], DataSharing::Dss)?,
        n,
    )?;
    let ept2_run = build_and_run(configs::ept2(&["vfscore", "ramfs", "uktime"])?, n)?;

    // --- measured-run overlays (see module docs) ----------------------
    let vfs = none_run.vfs_ops as i64;
    let time_q = none_run.time_queries as i64;
    let slow = none_run.alloc_slow_hits as i64;

    let unikraft_kvm = overlay(&none_run, &cost, -(n as i64) * cost.flexos_image_tax as i64);
    let unikraft_linuxu = overlay(&none_run, &cost, vfs * cost.linuxu_op_tax as i64);
    let linux = overlay(&none_run, &cost, vfs * cost.syscall_kpti as i64);
    let sel4 = overlay(
        &none_run,
        &cost,
        (vfs + time_q) * cost.sel4_genode_ipc as i64,
    );
    let cubicle_none = overlay(
        &none_run,
        &cost,
        vfs * cost.linuxu_op_tax as i64 - slow * cost.tlsf_linuxu_slow_delta as i64,
    );
    let cubicle_mpk3 = overlay(
        &none_run,
        &cost,
        vfs * cost.linuxu_op_tax as i64 - slow * cost.tlsf_linuxu_slow_delta as i64
            + (vfs + time_q) * cost.cubicleos_transition as i64,
    );

    use IsolationProfile::{Ept2, Mpk3, None as Flat, Pt2, Pt3};
    let rows = [
        (SystemUnderTest::UnikraftKvm, Flat, unikraft_kvm, false),
        (
            SystemUnderTest::UnikraftLinuxu,
            Flat,
            unikraft_linuxu,
            false,
        ),
        (SystemUnderTest::FlexOs, Flat, none_run.seconds, true),
        (SystemUnderTest::FlexOs, Mpk3, mpk3_run.seconds, true),
        (SystemUnderTest::FlexOs, Ept2, ept2_run.seconds, true),
        (SystemUnderTest::Linux, Pt2, linux, false),
        (SystemUnderTest::Sel4Genode, Pt3, sel4, false),
        (SystemUnderTest::CubicleOs, Flat, cubicle_none, false),
        (SystemUnderTest::CubicleOs, Mpk3, cubicle_mpk3, false),
    ]
    .into_iter()
    .map(|(system, profile, seconds, simulated)| Fig10Row {
        system,
        profile,
        seconds,
        simulated,
    })
    .collect();
    Ok(Fig10Detail {
        rows,
        simulated: vec![
            (IsolationProfile::None, none_run),
            (IsolationProfile::Mpk3, mpk3_run),
            (IsolationProfile::Ept2, ept2_run),
        ],
    })
}

/// Figure 10: seconds per system for `n` INSERT transactions, plus the
/// per-gate-kind crossing counts of the three simulated runs.
///
/// # Errors
///
/// See [`run_fig10_detailed`].
pub(crate) fn fig10_text(n: u64) -> Result<String, Fault> {
    let detail = run_fig10_detailed(n)?;
    let mut out = format!(
        "# Figure 10: time for {n} INSERT transactions (seconds)\n\
         {:>22} {:>8} {:>10} {:>10}\n",
        "system", "profile", "seconds", "source"
    );
    for row in &detail.rows {
        out += &format!(
            "{:>22} {:>8} {:>10.3} {:>10}\n",
            row.system.to_string(),
            row.profile.to_string(),
            row.seconds,
            if row.simulated {
                "simulated"
            } else {
                "overlay"
            }
        );
    }
    out += "\n# gate crossings per simulated run (dense per-kind counters):\n";
    for (profile, run) in &detail.simulated {
        let parts: Vec<String> = GateKind::ALL
            .iter()
            .filter(|k| run.crossings_by_kind[k.index()] > 0)
            .map(|k| format!("{k}={}", run.crossings_by_kind[k.index()]))
            .collect();
        out += &format!(
            "# {:>6}: total={} {}\n",
            profile.to_string(),
            run.total_crossings,
            parts.join(" ")
        );
    }
    out += "\n# paper:       Unikraft .052/.702  FlexOS .054/.106/.173\n\
            # paper:       Linux .177  SeL4 .333  CubicleOS .657/1.557\n";
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_rows_in_figure_order() {
        let rows = run_fig10_detailed(50).unwrap().rows;
        assert_eq!(rows.len(), 9, "Figure 10 has nine bars");
        // Three simulated FlexOS rows, six overlays.
        assert_eq!(rows.iter().filter(|r| r.simulated).count(), 3);
        let profiles: Vec<String> = rows.iter().map(|r| r.profile.to_string()).collect();
        assert_eq!(
            profiles,
            ["NONE", "NONE", "NONE", "MPK3", "EPT2", "PT2", "PT3", "NONE", "MPK3"]
        );
    }

    #[test]
    fn overlays_price_the_same_measured_run() {
        let rows = run_fig10_detailed(50).unwrap().rows;
        let by = |sys: &str, prof: &str| {
            rows.iter()
                .find(|r| r.system.to_string().contains(sys) && r.profile.to_string() == prof)
                .unwrap()
                .seconds
        };
        // Linux adds syscall cost on top of the FlexOS NONE base, so it
        // must sit strictly between NONE and the linuxu-taxed rows.
        assert!(by("FlexOS", "NONE") < by("Linux", "PT2"));
        assert!(by("Linux", "PT2") < by("linuxu", "NONE"));
        // The Unikraft KVM overlay subtracts the image tax: fastest bar.
        assert!(by("QEMU/KVM", "NONE") <= by("FlexOS", "NONE"));
    }

    #[test]
    fn display_names_match_the_figure_axis() {
        assert_eq!(SystemUnderTest::Sel4Genode.to_string(), "SeL4/Genode");
        assert_eq!(IsolationProfile::Mpk3.to_string(), "MPK3");
        assert_eq!(IsolationProfile::Ept2.to_string(), "EPT2");
    }
}
