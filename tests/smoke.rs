//! Workspace smoke test: the umbrella crate re-exports resolve, the
//! prelude carries the types programs need, and a minimal
//! two-compartment configuration builds into a runnable image.

use flexos::prelude::*;

/// Every workspace crate is reachable through its umbrella re-export.
#[test]
fn umbrella_reexports_resolve() {
    // One cheap, side-effect-free touch per re-exported crate.
    let _ = flexos::alloc::stats::AllocStats::default();
    let _ = flexos::apps::redis_component();
    let _ = flexos::core::SafetyConfig::none();
    let _ = flexos::ept::rpc::entry_hash("lwip_poll");
    let _ = flexos::explore::Strategy::ALL;
    let _ = flexos::fs::ramfs_component();
    let _ = flexos::libc::component();
    let _ = flexos::machine::Machine::new(1 << 20);
    let _ = flexos::mpk::MpkBackend::new();
    let _ = flexos::net::component();
    let _ = flexos::sched::component();
    let _ = flexos::system::configs::none();
    let _ = flexos::time::component();
}

/// The prelude exposes the config, builder, fault and machine types by
/// bare name.
#[test]
fn prelude_carries_the_core_types() -> Result<(), Fault> {
    let config: SafetyConfig = configs::none();
    let os: FlexOs = SystemBuilder::new(config)
        .app(flexos::apps::redis_component())
        .build()?;
    assert_eq!(os.env.compartment_count(), 1);
    let _machine: &Machine = os.env.machine();
    Ok(())
}

/// The paper's two-compartment MPK snippet parses and builds.
#[test]
fn minimal_two_compartment_config_builds() -> Result<(), Fault> {
    let config = SafetyConfig::parse_str(
        "compartments:\n\
         - comp1:\n    mechanism: intel-mpk\n    default: True\n\
         - comp2:\n    mechanism: intel-mpk\n\
         libraries:\n\
         - lwip: comp2\n",
    )?;
    let os = SystemBuilder::new(config)
        .app(flexos::apps::redis_component())
        .build()?;
    assert_eq!(os.env.compartment_count(), 2);
    Ok(())
}
