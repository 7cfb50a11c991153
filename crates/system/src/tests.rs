//! System-assembly tests: the builder wires components, backends, and
//! boot exactly as §3 prescribes.

use flexos_core::compartment::DataSharing;
use flexos_core::prelude::*;

use crate::{configs, SystemBuilder};

#[test]
fn standard_component_set_is_registered() {
    let os = SystemBuilder::new(configs::none())
        .app(Component::new("demo", ComponentKind::App))
        .build()
        .unwrap();
    for name in [
        "uksched", "uktime", "vfscore", "ramfs", "lwip", "newlib", "demo",
    ] {
        assert!(os.component(name).is_some(), "{name} missing");
    }
    assert_eq!(os.app_ids.len(), 1);
}

#[test]
fn boot_spawns_the_main_thread_in_the_apps_compartment() {
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(Component::new("demo", ComponentKind::App))
        .build()
        .unwrap();
    // The app lives in the default compartment; so does its main thread.
    let app_comp = os.env.compartment_of(os.app_ids[0]);
    assert_eq!(app_comp.0, 0);
    assert_eq!(os.sched.stats().spawned, 1);
    assert!(os.sched.registered_stacks() >= 1);
}

#[test]
fn mpk_thread_hook_charges_a_wrpkru() {
    // §3.2's worked example: the MPK backend's thread-creation hook.
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(Component::new("demo", ComponentKind::App))
        .build()
        .unwrap();
    let sched_id = os.component("uksched").unwrap();
    let before = os.cycles();
    os.env
        .run_as(sched_id, || os.sched.spawn(CompartmentId(1)))
        .unwrap();
    let elapsed = os.cycles() - before;
    assert!(
        elapsed >= os.env.machine().cost().wrpkru,
        "thread creation must include the domain-switch wrpkru"
    );
}

#[test]
fn ept_configs_generate_vm_inventory() {
    let os = SystemBuilder::new(configs::ept2(&["vfscore", "ramfs"]).unwrap())
        .app(Component::new("demo", ComponentKind::App))
        .build()
        .unwrap();
    assert_eq!(os.vm_images.len(), 2);
    assert!(os
        .vm_images
        .iter()
        .any(|vm| vm.libraries.contains(&"ramfs".to_string())));
}

#[test]
fn report_survives_the_full_standard_build() {
    let os = SystemBuilder::new(
        configs::mpk3(&["vfscore", "ramfs"], &["uktime"], DataSharing::Dss).unwrap(),
    )
    .app(Component::new("demo", ComponentKind::App))
    .build()
    .unwrap();
    assert_eq!(os.env.compartment_count(), 3);
    // 3 compartments -> 6 directed cross-domain gates.
    assert_eq!(os.env.gate_names().len(), 6);
    assert!(os.report.generated_loc > 0);
    // Every shared-variable placement names a real region.
    assert!(!os.env.shared_var_names().is_empty());
}
