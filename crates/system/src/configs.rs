//! Ready-made safety configurations for the paper's standard scenarios.
//!
//! The evaluation keeps returning to a handful of shapes: everything flat
//! (NONE), one component isolated behind MPK (the Figure 6 two-compartment
//! strategies), the filesystem isolated behind EPT (Figure 10 EPT2), and
//! the filesystem + time split (Figure 10 MPK3). These constructors build
//! them without repeating builder boilerplate.

use flexos_core::compartment::{
    CompartmentSpec, DataSharing, IsolationProfile, Mechanism, ResourceBudget,
};
use flexos_core::config::SafetyConfig;
use flexos_core::hardening::Hardening;
use flexos_machine::fault::Fault;

/// Flat, no isolation (vanilla Unikraft / "FlexOS NONE").
pub fn none() -> SafetyConfig {
    SafetyConfig::none()
}

/// Two MPK compartments: `isolated` components in their own compartment,
/// everything else in the default one. `sharing` picks light vs DSS gates.
///
/// # Errors
///
/// Propagates configuration validation faults.
pub fn mpk2(isolated: &[&str], sharing: DataSharing) -> Result<SafetyConfig, Fault> {
    let mut b = SafetyConfig::builder()
        .compartment(CompartmentSpec::new("comp1", Mechanism::IntelMpk).default_compartment())
        .compartment(CompartmentSpec::new("comp2", Mechanism::IntelMpk))
        .data_sharing(sharing);
    for lib in isolated {
        b = b.place(lib.to_string(), "comp2");
    }
    b.build()
}

/// Three MPK compartments: the Figure 10 MPK3 scenario when called as
/// `mpk3(&["vfscore", "ramfs"], &["uktime"])` — filesystem | time | rest.
///
/// # Errors
///
/// Propagates configuration validation faults.
pub fn mpk3(second: &[&str], third: &[&str], sharing: DataSharing) -> Result<SafetyConfig, Fault> {
    let mut b = SafetyConfig::builder()
        .compartment(CompartmentSpec::new("comp1", Mechanism::IntelMpk).default_compartment())
        .compartment(CompartmentSpec::new("comp2", Mechanism::IntelMpk))
        .compartment(CompartmentSpec::new("comp3", Mechanism::IntelMpk))
        .data_sharing(sharing);
    for lib in second {
        b = b.place(lib.to_string(), "comp2");
    }
    for lib in third {
        b = b.place(lib.to_string(), "comp3");
    }
    b.build()
}

/// Two MPK compartments with *distinct* per-compartment isolation
/// profiles: `main` applies to the default compartment, `iso` to the
/// compartment holding `isolated`. This is the mixed-boundary shape the
/// profile redesign exists for — e.g. a shared-stack (MPK-light) network
/// compartment next to a DSS-gated scheduler in one image.
///
/// # Errors
///
/// Propagates configuration validation faults.
pub fn mpk2_profiled(
    isolated: &[&str],
    main: IsolationProfile,
    iso: IsolationProfile,
) -> Result<SafetyConfig, Fault> {
    let mut b = SafetyConfig::builder()
        .compartment(
            CompartmentSpec::new("comp1", Mechanism::IntelMpk)
                .default_compartment()
                .with_profile(main),
        )
        .compartment(CompartmentSpec::new("comp2", Mechanism::IntelMpk).with_profile(iso));
    for lib in isolated {
        b = b.place(lib.to_string(), "comp2");
    }
    b.build()
}

/// The multi-tenant scenario: two Redis tenants in their own MPK
/// compartments, the network stack (the hostile tenant of the
/// adversarial suite) in a third, the remaining kernel components in the
/// default compartment. `net_budget`, when given, caps the network
/// compartment — the resource-containment demo runs the same shape with
/// and without it.
///
/// # Errors
///
/// Propagates configuration validation faults.
pub fn mpk_tenants(net_budget: Option<ResourceBudget>) -> Result<SafetyConfig, Fault> {
    let mut net = CompartmentSpec::new("net", Mechanism::IntelMpk);
    if let Some(b) = net_budget {
        net = net.with_budget(b);
    }
    SafetyConfig::builder()
        .compartment(CompartmentSpec::new("comp1", Mechanism::IntelMpk).default_compartment())
        .compartment(CompartmentSpec::new("tenant-a", Mechanism::IntelMpk))
        .compartment(CompartmentSpec::new("tenant-b", Mechanism::IntelMpk))
        .compartment(net)
        .place("redis-a", "tenant-a")
        .place("redis-b", "tenant-b")
        .place("lwip", "net")
        .data_sharing(DataSharing::Dss)
        .build()
}

/// Two EPT compartments (VMs): `isolated` components in their own VM —
/// the Figure 9/10 EPT2 scenario.
///
/// # Errors
///
/// Propagates configuration validation faults.
pub fn ept2(isolated: &[&str]) -> Result<SafetyConfig, Fault> {
    let mut b = SafetyConfig::builder()
        .compartment(CompartmentSpec::new("vm-main", Mechanism::VmEpt).default_compartment())
        .compartment(CompartmentSpec::new("vm-iso", Mechanism::VmEpt));
    for lib in isolated {
        b = b.place(lib.to_string(), "vm-iso");
    }
    b.build()
}

/// Applies per-component hardening overrides to an existing configuration
/// (the Figure 6 sweep varies hardening per component).
pub fn with_component_hardening(
    mut config: SafetyConfig,
    hardened: &[(&str, Hardening)],
) -> SafetyConfig {
    for (name, h) in hardened {
        config
            .component_hardening
            .insert(name.to_string().into(), *h);
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpk2_isolates_requested_components() {
        let cfg = mpk2(&["lwip"], DataSharing::Dss).unwrap();
        assert_eq!(cfg.compartment_count(), 2);
        assert_eq!(cfg.placement("lwip"), 1);
        assert_eq!(cfg.placement("redis"), 0);
    }

    #[test]
    fn mpk3_matches_figure_10_shape() {
        let cfg = mpk3(&["vfscore", "ramfs"], &["uktime"], DataSharing::Dss).unwrap();
        assert_eq!(cfg.compartment_count(), 3);
        assert_eq!(cfg.placement("vfscore"), 1);
        assert_eq!(cfg.placement("ramfs"), 1, "ramfs stays with vfscore (§4.4)");
        assert_eq!(cfg.placement("uktime"), 2);
        assert_eq!(cfg.placement("sqlite"), 0);
    }

    #[test]
    fn mpk2_profiled_carries_both_profiles() {
        use flexos_alloc::HeapKind;
        let main = IsolationProfile::default();
        let iso = IsolationProfile {
            data_sharing: DataSharing::SharedStack,
            allocator: HeapKind::Lea,
            hardening: Hardening::NONE,
            budget: ResourceBudget::UNLIMITED,
        };
        let cfg = mpk2_profiled(&["lwip"], main, iso).unwrap();
        assert_eq!(cfg.profile_of(0), main);
        assert_eq!(cfg.profile_of(1), iso);
        assert_eq!(cfg.data_sharing_of(1), DataSharing::SharedStack);
    }

    #[test]
    fn ept2_uses_vms() {
        let cfg = ept2(&["vfscore", "ramfs"]).unwrap();
        assert_eq!(cfg.dominant_mechanism(), Mechanism::VmEpt);
    }

    #[test]
    fn hardening_overrides_apply() {
        let cfg = with_component_hardening(none(), &[("lwip", Hardening::FIG6_BUNDLE)]);
        assert_eq!(cfg.hardening_of("lwip"), Hardening::FIG6_BUNDLE);
        assert_eq!(cfg.hardening_of("redis"), Hardening::NONE);
    }
}
