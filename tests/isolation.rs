//! Integration tests: the isolation properties the paper claims, verified
//! end-to-end on built images.

use flexos::prelude::*;
use flexos_alloc::HeapKind;
use flexos_core::compartment::{DataSharing, IsolationProfile, ResourceBudget};
use flexos_machine::key::ProtKey;
use flexos_sched::dss::{shadow_of, STACK_SIZE};

fn redis_mpk2() -> FlexOs {
    SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap()
}

/// The isolation properties below hold for *any* image that puts lwip
/// behind a real boundary, whatever the mechanism or profile mix: the
/// plain MPK pair, an EPT VM pair, and a mixed-profile MPK pair whose
/// compartments disagree on allocator and hardening (lwip's side keeps
/// the DSS, which the stack property needs).
fn lwip_isolating_images() -> Vec<(&'static str, FlexOs)> {
    let profiled = configs::mpk2_profiled(
        &["lwip"],
        IsolationProfile {
            data_sharing: DataSharing::HeapConversion,
            allocator: HeapKind::Tlsf,
            hardening: Hardening::NONE,
            budget: ResourceBudget::UNLIMITED,
        },
        IsolationProfile {
            data_sharing: DataSharing::Dss,
            allocator: HeapKind::Lea,
            hardening: Hardening::FIG6_BUNDLE,
            budget: ResourceBudget::UNLIMITED,
        },
    )
    .unwrap();
    vec![
        ("mpk2", redis_mpk2()),
        (
            "ept2",
            SystemBuilder::new(configs::ept2(&["lwip"]).unwrap())
                .app(flexos_apps::redis_component())
                .build()
                .unwrap(),
        ),
        (
            "mpk2_profiled",
            SystemBuilder::new(profiled)
                .app(flexos_apps::redis_component())
                .build()
                .unwrap(),
        ),
    ]
}

#[test]
fn compromised_component_cannot_read_foreign_compartment() {
    // §7 "Quickly Isolate Exploitable Libraries": place lwip in its own
    // compartment; a compromised lwip cannot read Redis' keyspace —
    // under MPK, EPT, and mixed per-compartment profiles alike, and
    // (PR 10) on any simulated core count: protection keys and gates
    // are per-compartment state, not per-vCPU state, so the property is
    // core-count-invariant by construction.
    let smp_images = [1usize, 2, 4].into_iter().map(|cores| {
        let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
            .app(flexos_apps::redis_component())
            .cores(cores)
            .build()
            .unwrap();
        ("mpk2-smp", os)
    });
    for (name, os) in lwip_isolating_images().into_iter().chain(smp_images) {
        let env = &os.env;
        let redis = os.app_ids[0];
        let lwip = env.component_id("lwip").unwrap();

        // Redis stores a secret on its private heap.
        let secret_addr = env
            .run_as(redis, || {
                let addr = env.malloc(64)?;
                env.mem_write(addr, b"session-key-0xDEADBEEF")?;
                Ok::<_, Fault>(addr)
            })
            .unwrap();

        // "Compromised" lwip tries to exfiltrate it: the domain faults.
        env.run_as(lwip, || {
            let err = env.mem_read_vec(secret_addr, 22).unwrap_err();
            assert!(matches!(err, Fault::ProtectionKey { .. }), "{name}: {err}");
        });

        // Redis itself still reads it fine.
        env.run_as(redis, || {
            assert_eq!(
                env.mem_read_vec(secret_addr, 22).unwrap(),
                b"session-key-0xDEADBEEF",
                "{name}"
            );
        });
    }
}

#[test]
fn gates_are_the_only_legal_entries() {
    for (name, os) in lwip_isolating_images() {
        let env = &os.env;
        let redis = os.app_ids[0];
        let lwip = env.component_id("lwip").unwrap();
        env.run_as(redis, || {
            // Registered entry point: fine.
            env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(()))
                .unwrap();
            // Internal function: the gate's CFI property refuses it.
            let err = env
                .call_resolved(env.resolve(lwip, "lwip_internal_timer"), || Ok(()))
                .unwrap_err();
            assert!(matches!(err, Fault::IllegalEntryPoint { .. }), "{name}");
        });
    }
}

#[test]
fn dss_shares_exactly_the_shadow_half() {
    // Figure 4: private lower half, shared DSS upper half. All three
    // images keep the DSS on lwip's side of the boundary (in the
    // profiled image only *that* compartment uses it).
    for (name, os) in lwip_isolating_images() {
        let env = &os.env;
        let redis = os.app_ids[0];
        let lwip = env.component_id("lwip").unwrap();
        let lwip_comp = env.compartment_of(lwip);

        // Spawn a thread homed in lwip's compartment; its stack is
        // doubled.
        let (_tid, stack) = env
            .run_as(env.component_id("uksched").unwrap(), || {
                os.sched.spawn(lwip_comp)
            })
            .unwrap();
        assert!(stack.has_dss, "{name}");

        // lwip writes a stack variable and its shadow.
        let var = stack.base + 128;
        let shadow = shadow_of(var);
        assert_eq!(shadow, var + STACK_SIZE);
        env.run_as(lwip, || {
            env.mem_write(var, b"private").unwrap();
            env.mem_write(shadow, b"shared!").unwrap();
        });

        // Redis (another compartment) can read the shadow, not the
        // private variable.
        env.run_as(redis, || {
            assert_eq!(env.mem_read_vec(shadow, 7).unwrap(), b"shared!", "{name}");
            let err = env.mem_read_vec(var, 7).unwrap_err();
            assert!(matches!(err, Fault::ProtectionKey { .. }), "{name}: {err}");
        });
    }
}

#[test]
fn shared_heap_is_reachable_by_all_compartments() {
    let os = redis_mpk2();
    let env = &os.env;
    let redis = os.app_ids[0];
    let lwip = env.component_id("lwip").unwrap();
    let addr = env.run_as(redis, || env.malloc_shared(32)).unwrap();
    env.run_as(redis, || env.mem_write(addr, b"rpc-args").unwrap());
    env.run_as(lwip, || {
        assert_eq!(env.mem_read_vec(addr, 8).unwrap(), b"rpc-args");
    });
}

#[test]
fn ept_vms_duplicate_tcb_and_check_entries() {
    let os = SystemBuilder::new(configs::ept2(&["vfscore", "ramfs"]).unwrap())
        .app(flexos_apps::sqlite_component())
        .build()
        .unwrap();
    // One VM per compartment, each with the full 5-member TCB (§4.2).
    assert_eq!(os.vm_images.len(), 2);
    for vm in &os.vm_images {
        assert_eq!(vm.tcb_members.len(), 5);
    }
    assert!(os.report.tcb.duplicated_per_compartment);

    // RPC server refuses non-entry functions.
    let env = &os.env;
    let app = os.app_ids[0];
    let vfs = env.component_id("vfscore").unwrap();
    env.run_as(app, || {
        let err = env
            .call_resolved(env.resolve(vfs, "vfs_backdoor"), || Ok(()))
            .unwrap_err();
        assert!(matches!(err, Fault::IllegalEntryPoint { .. }));
    });
}

#[test]
fn kasan_detects_overflow_in_hardened_compartment_only() {
    let mut config = configs::mpk2(&["lwip"], DataSharing::Dss).unwrap();
    config
        .component_hardening
        .insert("lwip".into(), Hardening::FIG6_BUNDLE);
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let env = &os.env;
    let lwip = env.component_id("lwip").unwrap();
    env.run_as(lwip, || {
        let addr = env.malloc(32).unwrap();
        // In-bounds: fine. One past the end: KASan redzone.
        env.mem_write(addr, &[0u8; 32]).unwrap();
        let err = env.mem_write(addr + 32, &[1]).unwrap_err();
        assert!(matches!(err, Fault::Kasan { .. }), "got {err}");
    });
}

#[test]
fn kasan_faults_on_never_allocated_bytes_of_the_compartments_own_heap() {
    // The shadow is sized by the heap's use; what lies past it was never
    // allocated and must read as poisoned — far beyond the high-water
    // mark, at the region's last byte, and again after a microreboot has
    // swapped in a fresh heap.
    let mut config = configs::mpk2(&["lwip"], DataSharing::Dss).unwrap();
    config
        .component_hardening
        .insert("lwip".into(), Hardening::FIG6_BUNDLE);
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let env = &os.env;
    let lwip = env.component_id("lwip").unwrap();
    let never_allocated_bytes_fault = || {
        let heap = env.heap();
        let (base, len) = {
            let heap = heap.borrow();
            (heap.region().base(), heap.region().len())
        };
        let live = env.malloc(64).unwrap();
        env.mem_write(live, &[7u8; 64]).unwrap();
        for addr in [live + 4096, base + len / 2, base + len - 8] {
            let mut buf = [0u8; 8];
            let err = env.mem_read(addr, &mut buf).unwrap_err();
            assert!(
                matches!(
                    err,
                    Fault::Kasan {
                        what: "heap-buffer-overflow",
                        ..
                    }
                ),
                "read of never-allocated {addr}: {err}"
            );
        }
        // A read that starts in the live payload and runs off into
        // never-allocated bytes faults too.
        assert!(env.mem_read_vec(live, 8192).is_err());
        env.free(live).unwrap();
    };
    env.run_as(lwip, never_allocated_bytes_fault);
    env.reset_heap(env.compartment_of(lwip));
    env.run_as(lwip, never_allocated_bytes_fault);
}

#[test]
fn whitelists_hold_across_the_built_image() {
    let os = redis_mpk2();
    let env = &os.env;
    let redis = os.app_ids[0];
    // lwip's pbuf pool is whitelisted for newlib and the apps...
    env.run_as(redis, || {
        assert!(env.shared_var("lwip::pbuf_pool").is_ok());
    });
    // ...but lwip's uktime-only tick counter is not redis-accessible.
    env.run_as(redis, || {
        let err = env.shared_var("lwip::tcp_ticks").unwrap_err();
        assert!(matches!(err, Fault::NotWhitelisted { .. }));
    });
}

#[test]
fn same_compartment_config_has_zero_gate_overhead() {
    // Figure 3 step 3': merging everything yields plain calls.
    let os = SystemBuilder::new(configs::none())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let env = &os.env;
    let redis = os.app_ids[0];
    let lwip = env.component_id("lwip").unwrap();
    env.run_as(redis, || {
        let t0 = env.machine().clock().now();
        env.call_resolved(env.resolve(lwip, "lwip_poll"), || Ok(()))
            .unwrap();
        assert_eq!(env.machine().clock().now() - t0, 2);
    });
    assert_eq!(env.gates().total_crossings(), 0);
}

#[test]
fn sections_are_keyed_per_compartment() {
    let os = redis_mpk2();
    let script = os.report.linker_script(&os.env);
    assert!(script.contains("comp1/heap"));
    assert!(script.contains("comp2/heap"));
    assert!(script.contains("shared/heap"));
    // comp2 (lwip) pages carry a different key than comp1 pages.
    let env = &os.env;
    let k1 = env.domain(flexos_core::compartment::CompartmentId(0)).key;
    let k2 = env.domain(flexos_core::compartment::CompartmentId(1)).key;
    assert_ne!(k1, k2);
    assert_ne!(k1, ProtKey::new(15).unwrap());
}
