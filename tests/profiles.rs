//! Per-compartment isolation profiles, end to end (ISSUE 5 tentpole):
//! configuration round-trips over per-compartment `data_sharing:` /
//! `allocator:` keys, mixed gate flavours coexisting in one image,
//! per-compartment stack layouts, and per-compartment heap allocators.

use std::rc::Rc;

use flexos::prelude::*;
use flexos_alloc::HeapKind;
use flexos_core::compartment::{CompartmentId, DataSharing, IsolationProfile, ResourceBudget};
use flexos_machine::layout::linker_script;

fn light_profile() -> IsolationProfile {
    IsolationProfile {
        data_sharing: DataSharing::SharedStack,
        allocator: HeapKind::Lea,
        hardening: Hardening::NONE,
        budget: ResourceBudget::UNLIMITED,
    }
}

/// A two-compartment MPK config with distinct per-compartment profiles:
/// DSS+TLSF default compartment, shared-stack+Lea `lwip` compartment.
fn mixed_config() -> SafetyConfig {
    configs::mpk2_profiled(&["lwip"], IsolationProfile::default(), light_profile()).unwrap()
}

#[test]
fn parse_builder_parse_equivalence_over_profiles() {
    let text = "\
data_sharing: heap-conversion
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
    hardening: [cfi]
    data_sharing: shared-stack
    allocator: lea
libraries:
- lwip: comp2
";
    let parsed = SafetyConfig::parse_str(text).unwrap();
    let built = SafetyConfig::builder()
        .compartment(CompartmentSpec::new("comp1", Mechanism::IntelMpk).default_compartment())
        .compartment(
            CompartmentSpec::new("comp2", Mechanism::IntelMpk)
                .with_hardening(Hardening {
                    cfi: true,
                    ..Hardening::NONE
                })
                .with_data_sharing(DataSharing::SharedStack)
                .with_allocator(HeapKind::Lea),
        )
        .place("lwip", "comp2")
        .data_sharing(DataSharing::HeapConversion)
        .build()
        .unwrap();
    assert_eq!(parsed, built);
    // Display → parse_str closes the loop for both construction routes.
    assert_eq!(SafetyConfig::parse_str(&parsed.to_string()).unwrap(), built);
    assert_eq!(SafetyConfig::parse_str(&built.to_string()).unwrap(), parsed);
    // And the resolved profiles agree.
    assert_eq!(parsed.data_sharing_of(0), DataSharing::HeapConversion);
    assert_eq!(parsed.data_sharing_of(1), DataSharing::SharedStack);
    assert_eq!(parsed.allocator_of(1), Some(HeapKind::Lea));
}

#[test]
fn compartment_names_display_cannot_write_back_are_refused() {
    // `Display` writes a header as `- {name}:`, so a name that is empty
    // or holds a `:` would not reparse as itself: `comp2:` comes back as
    // a second `comp2`, `::` as an empty name.
    for header in ["- comp2: :", "- :: :"] {
        let text = format!(
            "compartments:\n- comp1:\n    mechanism: intel-mpk\n    default: True\n\
             - comp2:\n    mechanism: intel-mpk\n{header}\n    mechanism: intel-mpk\n"
        );
        let err = SafetyConfig::parse_str(&text).unwrap_err().to_string();
        assert!(
            err.contains(&format!("line 7: `:` in compartment name: `{header}`")),
            "{err}"
        );
    }
}

#[test]
fn mixed_gates_coexist_in_one_image() {
    // Callee-side gate selection: crossings *into* the shared-stack
    // compartment take the light gate, crossings back into the DSS
    // compartment take the full gate — in the same GateTable.
    let os = SystemBuilder::new(mixed_config())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let env = Rc::clone(&os.env);
    let (c1, c2) = (CompartmentId(0), CompartmentId(1));
    assert_eq!(env.gates().kind(c1, c2), GateKind::MpkLight);
    assert_eq!(env.gates().kind(c2, c1), GateKind::MpkDss);
    // The transform report lists both flavours.
    let gates = os.env.gate_names();
    let kinds: Vec<&str> = gates.iter().map(|(_, _, k)| k.as_str()).collect();
    assert!(kinds.contains(&"mpk-light"), "{kinds:?}");
    assert!(kinds.contains(&"mpk-dss"), "{kinds:?}");

    // Drive both directions and check the per-kind counters.
    let app = env.component_id("redis").unwrap();
    let lwip = env.component_id("lwip").unwrap();
    let sched = env.component_id("uksched").unwrap();
    let env2 = Rc::clone(&env);
    env.run_as(app, move || {
        env2.call_resolved(env2.resolve(lwip, "lwip_poll"), || {
            // From inside the lwip compartment, cross back into comp1.
            env2.call_resolved(env2.resolve(sched, "uksched_yield"), || Ok(()))
                .map(|_| ())
        })
        .unwrap();
    });
    let bd = env.gates().breakdown();
    assert_eq!(env.gates().crossings_of_kind(GateKind::MpkLight), 1);
    assert_eq!(env.gates().crossings_of_kind(GateKind::MpkDss), 1);
    assert_eq!(bd.total_crossings, 2);
    // And the gate costs follow the flavour (62 vs 108).
    let cost = env.machine().cost();
    assert_eq!(env.gates().desc(c1, c2).cost, cost.mpk_light_gate);
    assert_eq!(env.gates().desc(c2, c1).cost, cost.mpk_dss_gate);
}

#[test]
fn stack_layouts_follow_the_compartment_profile() {
    let os = SystemBuilder::new(mixed_config())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let sched_id = os.component("uksched").unwrap();
    let (dss_stack, shared_stack) = os.env.run_as(sched_id, || {
        let (_, a) = os.sched.spawn(CompartmentId(0)).unwrap();
        let (_, b) = os.sched.spawn(CompartmentId(1)).unwrap();
        (a, b)
    });
    assert!(dss_stack.has_dss, "DSS compartment gets a doubled stack");
    assert!(!shared_stack.has_dss, "shared-stack compartment does not");
    let script = linker_script(os.env.machine().layout().regions());
    assert!(script.contains("stack+dss"), "{script}");
    assert!(script.contains("stack-shared"), "{script}");
}

#[test]
fn heap_allocators_follow_the_compartment_profile() {
    let os = SystemBuilder::new(mixed_config())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    assert_eq!(
        os.env.profile_of(CompartmentId(0)).allocator,
        HeapKind::Tlsf
    );
    assert_eq!(os.env.profile_of(CompartmentId(1)).allocator, HeapKind::Lea);
    let lwip = os.component("lwip").unwrap();
    let kind = os.env.run_as(lwip, || os.env.heap().borrow().kind());
    assert_eq!(kind, HeapKind::Lea);
    let redis = os.component("redis").unwrap();
    let kind = os.env.run_as(redis, || os.env.heap().borrow().kind());
    assert_eq!(kind, HeapKind::Tlsf);
    // The resolved profile surfaces through Env.
    assert_eq!(os.env.profile_of(CompartmentId(1)), light_profile());
}

#[test]
fn default_profiles_reproduce_the_global_knob() {
    // A config that never mentions the per-compartment axes must build
    // the same image shape as the old single-knob API.
    let global = configs::mpk2(&["lwip"], DataSharing::SharedStack).unwrap();
    assert_eq!(global.data_sharing(), DataSharing::SharedStack);
    for c in 0..global.compartment_count() {
        assert_eq!(global.data_sharing_of(c), DataSharing::SharedStack);
        assert_eq!(global.allocator_of(c), None);
    }
    let os = SystemBuilder::new(global)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    // One global SharedStack: every cross-compartment gate is light.
    assert!(os.env.gate_names().iter().all(|(_, _, k)| k == "mpk-light"));
    assert_eq!(
        os.env.profile_of(CompartmentId(0)).allocator,
        HeapKind::Tlsf
    );
}

#[test]
fn generated_configs_round_trip_through_their_text() {
    // Every config of `full` and a stride of `full-profiled` borrows its
    // names; the parser owns what it reads. The two must compare equal
    // wherever they meet, per-component hardening overrides included
    // (the text's `hardening:` section), so a hardened Figure 6 point
    // never reparses as its unhardened twin.
    use flexos_sweep::SpaceSpec;
    use std::borrow::Cow;
    let full = SpaceSpec::full(0, 0);
    let profiled = SpaceSpec::full_profiled(0, 0);
    let cases = [
        (&full, (0..full.len()).collect::<Vec<_>>()),
        (&profiled, (0..profiled.len()).step_by(31).collect()),
    ];
    let (mut mixed, mut hardened) = (0, 0);
    for (spec, indices) in cases {
        for i in indices {
            let point = spec.point(i);
            let mut generated = point.config.clone();
            hardened += usize::from(point.hardening_mask != 0);
            let parsed = SafetyConfig::parse_str(&point.config.to_string()).unwrap();
            assert!(matches!(parsed.compartments[0].name, Cow::Owned(_)));
            assert!(matches!(generated.compartments[0].name, Cow::Borrowed(_)));
            assert_eq!(parsed, generated, "{} point {i}: {point}", spec.name);
            assert_eq!(parsed.to_string(), point.config.to_string());
            // An owned name next to borrowed ones in one config.
            if let Some((lib, _)) = generated.libraries.first_mut() {
                *lib = Cow::Owned(lib.to_string());
                assert_eq!(parsed, generated, "{} point {i}: {point}", spec.name);
                mixed += 1;
            }
        }
    }
    assert!(
        mixed > 10_000,
        "{mixed} configs mixed owned and borrowed names"
    );
    assert!(
        hardened > 10_000,
        "{hardened} hardened configs round-tripped"
    );
}
