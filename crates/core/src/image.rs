//! The build-time toolchain: configuration + components → runnable image.
//!
//! This is the Rust analogue of FlexOS' Coccinelle-based build pipeline
//! (§3.1 "Build-time Source Transformations"). Given a [`SafetyConfig`]
//! and the registered components, [`ImageBuilder::build`]:
//!
//! 1. validates the configuration and lets each backend veto it
//!    (MPK's 15-compartment limit, W^X scan, ...);
//! 2. assigns protection domains: one key per compartment plus the
//!    reserved shared-communication key (§4.1);
//! 3. lays out per-compartment `.data`/`.rodata`/`.bss` sections, private
//!    heaps, and the shared heap, tagging pages with their keys — and
//!    emits the generated linker script;
//! 4. instantiates every abstract gate to the mechanism-specific
//!    implementation (same compartment → plain call, Figure 3 step 3');
//! 5. places each `__shared` variable according to its whitelist: inside
//!    its owner's private section when the whitelist stays within one
//!    compartment, in a restricted-group section when spare protection
//!    keys allow (§4.1), else on the global shared section;
//! 6. interns every legal gate entry point into the image's dense
//!    [`crate::entry::EntryTable`] and builds the per-compartment CFI
//!    bitsets (the gates' CFI property, resolved once — never per call);
//! 7. produces a [`TransformReport`] recording everything it did — the
//!    inspectable artifact the paper praises source-level transforms for.
//!    Its linker script, and `Env`'s gate and placement lists, are rendered
//!    from the image when somebody reads them: a build composes no string and
//!    keys every table by compartment or component id, so two builds of
//!    one configuration take the same steps in any process.

use std::rc::Rc;

use flexos_alloc::{Heap, HeapKind};
use flexos_machine::addr::pages_for;
use flexos_machine::fault::Fault;
use flexos_machine::key::{Pkru, ProtKey};
use flexos_machine::layout::{self, Region, RegionKind, RegionName};
use flexos_machine::Machine;

use crate::backend::IsolationBackend;
use crate::compartment::{CompartmentId, IsolationProfile, Mechanism, ResourceBudget};
use crate::component::{Component, ComponentId, ComponentRegistry, VarStorage};
use crate::config::SafetyConfig;
use crate::entry::EntryTable;
use crate::env::{DomainState, Env, EnvParts, SharedVarPlacement};
use crate::gate::{GateKind, GateTable};
use crate::tcb::TcbReport;

/// Protection key reserved for the shared communication domain (§4.1).
pub const SHARED_KEY_INDEX: u8 = 15;

/// Maximum isolated compartments under MPK: 16 keys minus the shared key
/// and the default/TCB key.
pub const MPK_MAX_COMPARTMENTS: usize = 14;

/// What the toolchain did, for inspection and the Table 1/§3.1 claims.
///
/// The report holds the numbers only the build knows. The linker script
/// is rendered on demand from the live image, and the gate and placement
/// lists are `env`'s to name ([`Env::gate_names`],
/// [`Env::shared_var_names`]), so an image nobody inspects pays nothing
/// for being inspectable.
#[derive(Debug, Clone)]
pub struct TransformReport {
    /// Estimated lines of generated/modified code (the paper: ~1 KLoC for
    /// a simple Redis configuration).
    pub generated_loc: u32,
    /// TCB accounting for this image.
    pub tcb: TcbReport,
    /// Regions laid out when the toolchain finished; boot hooks and
    /// threads reserve theirs later, after the script was "generated".
    regions: usize,
}

impl TransformReport {
    /// The generated linker script.
    pub fn linker_script(&self, env: &Env) -> String {
        layout::linker_script(&env.machine().layout().regions()[..self.regions])
    }

    /// Per-compartment private-heap live-bytes high-water marks of the
    /// live image, as `(compartment_name, peak_live_bytes)` in
    /// compartment order — how close each compartment ever got to its
    /// heap quota, not just whether it was refused.
    pub fn heap_highwater(&self, env: &Env) -> Vec<(String, u64)> {
        (0..env.compartment_count())
            .map(|i| {
                let comp = CompartmentId(i as u8);
                (
                    env.domain(comp).name.to_string(),
                    env.heap_stats_of(comp).peak_live,
                )
            })
            .collect()
    }
}

/// A built FlexOS image: the runtime [`Env`] plus the transform report.
pub struct Image {
    /// The runtime environment components execute in.
    pub env: Rc<Env>,
    /// What the toolchain generated.
    pub report: TransformReport,
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Image")
            .field("compartments", &self.env.compartment_count())
            .field("gates", &self.env.gates().instantiated().count())
            .finish()
    }
}

/// Incremental image constructor (the toolchain front end).
pub struct ImageBuilder {
    machine: Rc<Machine>,
    config: SafetyConfig,
    registry: ComponentRegistry,
    heap_pages: u64,
    shared_heap_pages: u64,
    heap_kind: HeapKind,
}

impl ImageBuilder {
    /// Starts a build for `config` on `machine`.
    pub fn new(machine: Rc<Machine>, config: SafetyConfig) -> Self {
        ImageBuilder {
            machine,
            config,
            registry: ComponentRegistry::new(),
            heap_pages: 1024,
            shared_heap_pages: 1024,
            heap_kind: HeapKind::Tlsf,
        }
    }

    /// Registers a ported component.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] on duplicate component names.
    pub fn register(&mut self, component: Component) -> Result<ComponentId, Fault> {
        self.registry
            .register(component)
            .map_err(|name| Fault::InvalidConfig {
                reason: format!("component `{name}` registered twice"),
            })
    }

    /// Sets the per-compartment private heap size in pages.
    pub fn heap_pages(&mut self, pages: u64) -> &mut Self {
        self.heap_pages = pages;
        self
    }

    /// Sets the shared heap size in pages.
    pub fn shared_heap_pages(&mut self, pages: u64) -> &mut Self {
        self.shared_heap_pages = pages;
        self
    }

    /// Chooses the *fallback* allocator policy for heaps the
    /// configuration does not pin (TLSF by default; the CubicleOS
    /// baseline uses Lea, §6.4). Compartments whose resolved
    /// [`IsolationProfile`] names an allocator keep their own.
    pub fn heap_kind(&mut self, kind: HeapKind) -> &mut Self {
        self.heap_kind = kind;
        self
    }

    /// Runs the toolchain and produces the image.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] for inconsistent configurations (including
    /// backend vetoes such as MPK's compartment limit) and
    /// [`Fault::ResourceExhausted`] if the simulated address space cannot
    /// hold the layout.
    pub fn build(self, backends: &[&dyn IsolationBackend]) -> Result<Image, Fault> {
        let config = &self.config;
        config.validate()?;

        // -- step 1: backend validation ---------------------------------
        // Each mechanism once, in order of first use: validation, boot
        // hooks and the regions they reserve follow the configuration.
        let mut mechanisms: Vec<Mechanism> = Vec::new();
        for spec in &config.compartments {
            if !mechanisms.contains(&spec.mechanism) {
                mechanisms.push(spec.mechanism);
            }
        }
        for mech in &mechanisms {
            if *mech == Mechanism::None {
                continue;
            }
            let backend = backends
                .iter()
                .find(|b| b.mechanism() == *mech)
                .ok_or_else(|| Fault::InvalidConfig {
                    reason: format!("no backend registered for mechanism `{mech}`"),
                })?;
            backend.validate(config, &self.registry)?;
        }
        let isolated = mechanisms.iter().any(|m| *m != Mechanism::None);
        let uses_mpk =
            mechanisms.contains(&Mechanism::IntelMpk) || mechanisms.contains(&Mechanism::CubicleOs);
        if uses_mpk && config.compartment_count() > MPK_MAX_COMPARTMENTS {
            return Err(Fault::InvalidConfig {
                reason: format!(
                    "MPK supports at most {MPK_MAX_COMPARTMENTS} compartments \
                     (16 keys minus shared and default), got {}",
                    config.compartment_count()
                ),
            });
        }

        // -- step 2: domain assignment -----------------------------------
        let shared_key = ProtKey::new(SHARED_KEY_INDEX).expect("15 < 16");
        let n_comps = config.compartment_count();
        let mut domains = Vec::with_capacity(n_comps);
        for (i, spec) in config.compartments.iter().enumerate() {
            let (key, pkru) = if !isolated {
                (ProtKey::DEFAULT, Pkru::ALL_ACCESS)
            } else {
                let key = ProtKey::new(i as u8 + 1)?;
                let mut pkru = Pkru::permit_only(&[key, shared_key]);
                // TCB metadata (key 0) stays reachable: the scheduler's
                // run queue, stack registry, boot structures.
                pkru.permit(ProtKey::DEFAULT);
                (key, pkru)
            };
            domains.push(DomainState {
                name: Rc::from(spec.name.as_str()),
                key,
                pkru,
                mechanism: spec.mechanism,
            });
        }

        // -- step 3: sections, heaps, shared heap ------------------------
        // Membership and effective hardening per component.
        let mut comp_of = Vec::with_capacity(self.registry.len());
        let mut hardening = Vec::with_capacity(self.registry.len());
        for (_, component) in self.registry.iter() {
            comp_of.push(CompartmentId(config.placement(&component.name) as u8));
            hardening.push(config.hardening_of(&component.name));
        }

        // Resolved per-compartment profiles: configuration overrides
        // first, image defaults next, the builder's fallback allocator
        // last. These drive heap construction, gate selection, and land
        // verbatim in the runtime `Env` and the transform report.
        let profiles: Vec<IsolationProfile> = config
            .compartments
            .iter()
            .map(|spec| {
                spec.profile_with(
                    config.default_data_sharing,
                    config.default_allocator.unwrap_or(self.heap_kind),
                    config.default_budget.unwrap_or(ResourceBudget::UNLIMITED),
                )
            })
            .collect();

        let kasan_heaps = config.kasan_heaps(self.registry.iter().map(|(_, c)| &*c.name));
        let mut heaps = Vec::with_capacity(n_comps);
        for (i, dom) in domains.iter().enumerate() {
            let scoped = |suffix| RegionName::Scoped {
                owner: Rc::clone(&dom.name),
                suffix,
            };
            for (section, kind) in [
                (".data", RegionKind::Data),
                (".rodata", RegionKind::Rodata),
                (".bss", RegionKind::Bss),
            ] {
                self.machine
                    .map_region_kind(scoped(section), 2, dom.key, kind)?;
            }
            let region = self.machine.map_region_kind(
                scoped("/heap"),
                self.heap_pages,
                dom.key,
                RegionKind::Heap,
            )?;
            let mut heap = Heap::new(Rc::clone(&self.machine), region, profiles[i].allocator);
            if kasan_heaps & 1 << i != 0 {
                heap.enable_kasan();
            }
            heaps.push(Rc::new(RefCellHeap::new(heap)));
        }
        let shared_region = self.machine.map_region_kind(
            "shared/heap",
            self.shared_heap_pages,
            if isolated {
                shared_key
            } else {
                ProtKey::DEFAULT
            },
            RegionKind::SharedHeap,
        )?;
        // The shared communication heap follows the image-wide default
        // allocator (it belongs to no single compartment's profile).
        let shared_heap = Rc::new(RefCellHeap::new(Heap::new(
            Rc::clone(&self.machine),
            shared_region,
            config.default_allocator.unwrap_or(self.heap_kind),
        )));

        // -- step 4: gate instantiation -----------------------------------
        // Costs are pre-computed per pair from the machine's calibrated
        // model: the runtime charges an indexed constant, never consults
        // the model again.
        // The gate flavour is chosen per *callee* compartment: a crossing
        // into compartment `j` uses `j`'s data-sharing strategy (the DSS
        // vs light vs conversion choice protects the callee's stack
        // data), so MPK-light and MPK-DSS boundaries coexist in one
        // image. The stronger mechanism's backend instantiates the gate
        // (both domains must be protected); `GateKind::between` is the
        // rule when no backend covers the pair (e.g. flat pairs).
        let mut gates = GateTable::with_model(n_comps, self.machine.cost().clone());
        for i in 0..n_comps {
            for (j, callee_profile) in profiles.iter().enumerate() {
                if i == j {
                    continue;
                }
                let from = config.compartments[i].mechanism;
                let to = config.compartments[j].mechanism;
                let callee_sharing = callee_profile.data_sharing;
                let kind = backends
                    .iter()
                    .find(|b| b.mechanism() == from.stronger(to))
                    .map(|b| b.gate_kind(callee_sharing))
                    .unwrap_or_else(|| GateKind::between(from, to, callee_sharing));
                gates.set(CompartmentId(i as u8), CompartmentId(j as u8), kind);
            }
        }

        // -- step 5: shared-variable placement ----------------------------
        // One placement per annotation, in registration order: `Env`
        // indexes them by (component, annotation index).
        let mut shared_vars =
            Vec::with_capacity(self.registry.iter().map(|(_, c)| c.shared_vars.len()).sum());
        // Spare keys for restricted sharing groups (§4.1: "FlexOS uses
        // remaining keys for additional shared domains between restricted
        // groups of compartments"): (member compartments, section, bytes
        // used), in order of creation.
        let mut next_group_key = (n_comps as u8 + 1).max(1);
        let mut groups: Vec<(u32, Region, u64)> = Vec::new();

        for (owner_id, component) in self.registry.iter() {
            let owner_dom = comp_of[owner_id.0 as usize];
            for (index, var) in component.shared_vars.iter().enumerate() {
                // Compartments the variable is visible from: its owner's
                // and every (registered) whitelisted component's.
                let members = var
                    .whitelist
                    .iter()
                    .filter_map(|name| self.registry.lookup(name))
                    .fold(1u32 << owner_dom.0, |set, c| {
                        set | 1 << comp_of[c.0 as usize].0
                    });
                let mut shadow = None;

                let addr = if var.storage == VarStorage::Heap {
                    // Dynamically allocated shared data lives on the
                    // shared heap regardless of whitelist shape.
                    shared_heap.borrow_mut().malloc(var.size)?
                } else if members.count_ones() <= 1 || !isolated {
                    // Whitelist stays within one compartment: private
                    // section of the owner.
                    let dom = &domains[owner_dom.0 as usize];
                    self.machine
                        .map_region_kind(
                            RegionName::Var {
                                owner: Rc::clone(&dom.name),
                                var: var.name,
                            },
                            pages_for(var.size).max(1),
                            dom.key,
                            RegionKind::Data,
                        )?
                        .base()
                } else if var.storage == VarStorage::Stack {
                    // Stack-allocated shared data: handled at runtime by
                    // the owner compartment's data-sharing strategy; the
                    // shadow slot reserved on the shared heap is labeled
                    // with that strategy (DSS shadow slot, converted heap
                    // cell, or the shared-stack window).
                    shadow = Some(profiles[owner_dom.0 as usize].data_sharing);
                    shared_heap.borrow_mut().malloc(var.size)?
                } else {
                    // Cross-compartment static: try a restricted group
                    // section keyed by the exact whitelist; fall back to
                    // the global shared section when keys run out.
                    let slot = match groups.iter().position(|(set, ..)| *set == members) {
                        Some(slot) => slot,
                        None => {
                            let key = if uses_mpk && next_group_key < SHARED_KEY_INDEX {
                                let key = ProtKey::new(next_group_key)?;
                                next_group_key += 1;
                                key
                            } else {
                                shared_key
                            };
                            let region = self.machine.map_region_kind(
                                RegionName::Group(members),
                                4,
                                key,
                                RegionKind::Data,
                            )?;
                            groups.push((members, region, 0));
                            groups.len() - 1
                        }
                    };
                    let (_, region, used) = &mut groups[slot];
                    if *used + var.size > region.len() {
                        return Err(Fault::ResourceExhausted {
                            what: "shared group section",
                        });
                    }
                    let addr = region.base() + *used;
                    *used += var.size.next_multiple_of(16);
                    addr
                };

                shared_vars.push(SharedVarPlacement {
                    addr,
                    size: var.size,
                    owner: owner_id,
                    var: index as u16,
                    shadow,
                });
            }
        }

        // Group sections must be visible to their members' PKRUs.
        for (members, region, _) in &groups {
            for (i, dom) in domains.iter_mut().enumerate() {
                if members >> i & 1 == 1 {
                    dom.pkru.permit(region.key());
                }
            }
        }

        // -- step 6: entry points ------------------------------------------
        // Intern every registered entry point and mark it legal in its
        // compartment's dense CFI bitset. This is the moment the paper's
        // "gates are instantiated at build time" claim lands for names:
        // nothing string-shaped survives onto the call path.
        let mut entry_builder = EntryTable::builder(n_comps);
        for (id, component) in self.registry.iter() {
            let dom = comp_of[id.0 as usize];
            for entry in &component.entry_points {
                let eid = entry_builder.intern(entry);
                entry_builder.permit(dom, eid);
            }
        }
        let entries = entry_builder.build();

        // -- step 7: report + env ------------------------------------------
        let backend_loc: u32 = mechanisms
            .iter()
            .filter(|m| **m != Mechanism::None)
            .filter_map(|m| backends.iter().find(|b| b.mechanism() == *m))
            .map(|b| b.tcb_loc())
            .sum();
        let duplicated = mechanisms
            .iter()
            .filter_map(|m| backends.iter().find(|b| b.mechanism() == *m))
            .any(|b| b.duplicates_tcb());
        let report = TransformReport {
            generated_loc: 180 * gates.instantiated().count() as u32
                + 10 * shared_vars.len() as u32
                + 40 * n_comps as u32,
            tcb: TcbReport::new(backend_loc, duplicated, n_comps as u32),
            regions: self.machine.layout().regions().len(),
        };

        let env = Env::from_parts(EnvParts {
            machine: Rc::clone(&self.machine),
            registry: self.registry,
            comp_of,
            hardening,
            domains,
            profiles,
            gates,
            entries,
            shared_vars,
            heaps,
            shared_heap,
        });

        // Backend boot hooks run on the finished environment.
        for mech in &mechanisms {
            if let Some(backend) = backends.iter().find(|b| b.mechanism() == *mech) {
                backend.on_boot(&env)?;
            }
        }

        Ok(Image { env, report })
    }
}

type RefCellHeap = std::cell::RefCell<Heap>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NoneBackend;
    use crate::compartment::CompartmentSpec;
    use crate::component::{ComponentKind, SharedVar};
    use crate::env::Work;
    use crate::hardening::Hardening;

    /// An MPK test backend (the real one lives in `flexos-mpk`).
    struct TestMpk;
    impl IsolationBackend for TestMpk {
        fn name(&self) -> &str {
            "test-mpk"
        }
        fn mechanism(&self) -> Mechanism {
            Mechanism::IntelMpk
        }
        fn gate_kind(&self, sharing: crate::compartment::DataSharing) -> GateKind {
            match sharing {
                crate::compartment::DataSharing::SharedStack => GateKind::MpkLight,
                _ => GateKind::MpkDss,
            }
        }
        fn tcb_loc(&self) -> u32 {
            1400
        }
    }

    fn two_comp_config() -> SafetyConfig {
        SafetyConfig::builder()
            .compartment(CompartmentSpec::new("comp1", Mechanism::IntelMpk).default_compartment())
            .compartment(
                CompartmentSpec::new("comp2", Mechanism::IntelMpk)
                    .with_hardening(Hardening::FIG6_BUNDLE),
            )
            .place("lwip", "comp2")
            .build()
            .unwrap()
    }

    fn build_two_comp() -> Image {
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let mut builder = ImageBuilder::new(machine, two_comp_config());
        builder
            .register(Component::new("app", ComponentKind::App).with_entry_points(&["app_main"]))
            .unwrap();
        builder
            .register(
                Component::new("lwip", ComponentKind::Kernel)
                    .with_shared_vars([SharedVar::stat("netif_state", 128, &["app"])])
                    .with_entry_points(&["lwip_recv", "lwip_send"]),
            )
            .unwrap();
        builder.build(&[&TestMpk, &NoneBackend]).unwrap()
    }

    #[test]
    fn same_compartment_calls_are_direct() {
        let image = build_two_comp();
        let env = &image.env;
        let app = env.component_id("app").unwrap();
        env.run_as(app, || {
            let t0 = env.machine().clock().now();
            env.call_resolved(env.resolve(app, "app_main"), || Ok(()))
                .unwrap();
            // Direct call: 2 cycles, zero isolation overhead (Figure 3 3').
            assert_eq!(env.machine().clock().now() - t0, 2);
        });
        assert_eq!(env.gates().direct_calls(), 1);
        assert_eq!(env.gates().total_crossings(), 0);
    }

    #[test]
    fn cross_compartment_calls_use_mpk_gate() {
        let image = build_two_comp();
        let env = &image.env;
        let app = env.component_id("app").unwrap();
        let lwip = env.component_id("lwip").unwrap();
        env.run_as(app, || {
            let t0 = env.machine().clock().now();
            env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(()))
                .unwrap();
            let elapsed = env.machine().clock().now() - t0;
            // MPK-DSS gate (108) + callee stack-protector frame (lwip is
            // FIG6-hardened).
            assert_eq!(
                elapsed,
                env.machine().cost().mpk_dss_gate + env.machine().cost().stack_protector_frame
            );
        });
        assert_eq!(env.gates().total_crossings(), 1);
    }

    #[test]
    fn illegal_entry_points_are_refused() {
        let image = build_two_comp();
        let env = &image.env;
        let app = env.component_id("app").unwrap();
        let lwip = env.component_id("lwip").unwrap();
        env.run_as(app, || {
            let err = env
                .call_resolved(env.resolve(lwip, "lwip_internal_fn"), || Ok(()))
                .unwrap_err();
            assert!(matches!(err, Fault::IllegalEntryPoint { .. }));
        });
    }

    #[test]
    fn rejected_calls_charge_nothing_and_count_as_violations() {
        // Regression: the gate used to charge its cost and record the
        // crossing *before* the CFI entry-point check, so an
        // `IllegalEntryPoint` rejection still advanced the clock and
        // inflated `total_crossings`. Rejections must be free and land in
        // the dedicated `cfi_violations` counter instead.
        let image = build_two_comp();
        let env = &image.env;
        let app = env.component_id("app").unwrap();
        let lwip = env.component_id("lwip").unwrap();
        env.run_as(app, || {
            let t0 = env.machine().clock().now();
            let err = env
                .call_resolved(env.resolve(lwip, "lwip_internal_fn"), || Ok(()))
                .unwrap_err();
            assert!(matches!(err, Fault::IllegalEntryPoint { .. }));
            assert_eq!(env.machine().clock().now(), t0, "rejection is free");
        });
        assert_eq!(env.gates().total_crossings(), 0);
        assert_eq!(env.gates().cfi_violations(), 1);
        // A legal call afterwards behaves normally.
        env.run_as(app, || {
            env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(()))
                .unwrap();
        });
        assert_eq!(env.gates().total_crossings(), 1);
        assert_eq!(env.gates().cfi_violations(), 1);
        // reset_counters clears the violation count too.
        env.reset_counters();
        assert_eq!(env.gates().cfi_violations(), 0);
    }

    #[test]
    fn resolved_targets_match_the_string_path() {
        let image = build_two_comp();
        let env = &image.env;
        let app = env.component_id("app").unwrap();
        let lwip = env.component_id("lwip").unwrap();
        let target = env.resolve(lwip, "lwip_recv");
        assert_eq!(target.component, lwip);
        assert_eq!(target.compartment, env.compartment_of(lwip));
        env.run_as(app, || {
            let t0 = env.machine().clock().now();
            env.call_resolved(target, || Ok(())).unwrap();
            let resolved_cost = env.machine().clock().now() - t0;
            let t1 = env.machine().clock().now();
            env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(()))
                .unwrap();
            assert_eq!(env.machine().clock().now() - t1, resolved_cost);
        });
        assert_eq!(env.gates().total_crossings(), 2);
    }

    #[test]
    fn report_breakdown_tracks_kind_counters() {
        let image = build_two_comp();
        let env = &image.env;
        let app = env.component_id("app").unwrap();
        let lwip = env.component_id("lwip").unwrap();
        env.run_as(app, || {
            env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(()))
                .unwrap();
            env.call_resolved(env.resolve(lwip, "lwip_send"), || Ok(()))
                .unwrap();
            env.call_resolved(env.resolve(app, "app_main"), || Ok(()))
                .unwrap();
        });
        let bd = env.gates().breakdown();
        assert_eq!(bd.by_kind, vec![(GateKind::MpkDss, 2)]);
        assert_eq!(bd.total_crossings, 2);
        assert_eq!(bd.direct_calls, 1);
        assert_eq!(bd.cfi_violations, 0);
    }

    #[test]
    fn pkru_switches_across_gates_and_isolates_heaps() {
        let image = build_two_comp();
        let env = Rc::clone(&image.env);
        let app = env.component_id("app").unwrap();
        let lwip = env.component_id("lwip").unwrap();
        let env2 = Rc::clone(&env);
        env.run_as(app, move || {
            // Allocate in lwip's compartment from inside lwip...
            let lwip_buf = env2
                .call_resolved(env2.resolve(lwip, "lwip_recv"), || {
                    let addr = env2.malloc(64)?;
                    env2.mem_write(addr, b"secret-packet")?;
                    Ok(addr)
                })
                .unwrap();
            // ...then try to read it from the app compartment: MPK faults.
            let err = env2.mem_read_vec(lwip_buf, 13).unwrap_err();
            assert!(matches!(err, Fault::ProtectionKey { .. }), "got {err}");
        });
    }

    #[test]
    fn shared_heap_is_reachable_from_both_sides() {
        let image = build_two_comp();
        let env = Rc::clone(&image.env);
        let app = env.component_id("app").unwrap();
        let lwip = env.component_id("lwip").unwrap();
        let env2 = Rc::clone(&env);
        env.run_as(app, move || {
            let shared = env2.malloc_shared(32).unwrap();
            env2.mem_write(shared, b"hello").unwrap();
            let got = env2
                .call_resolved(env2.resolve(lwip, "lwip_send"), || {
                    env2.mem_read_vec(shared, 5)
                })
                .unwrap();
            assert_eq!(got, b"hello");
        });
    }

    #[test]
    fn whitelists_enforced_on_shared_vars() {
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let config = SafetyConfig::builder()
            .compartment(CompartmentSpec::new("c1", Mechanism::IntelMpk).default_compartment())
            .compartment(CompartmentSpec::new("c2", Mechanism::IntelMpk))
            .compartment(CompartmentSpec::new("c3", Mechanism::IntelMpk))
            .place("b", "c2")
            .place("c", "c3")
            .build()
            .unwrap();
        let mut builder = ImageBuilder::new(machine, config);
        builder
            .register(
                Component::new("a", ComponentKind::App).with_shared_vars([SharedVar::stat(
                    "table",
                    64,
                    &["b"],
                )]),
            )
            .unwrap();
        builder
            .register(Component::new("b", ComponentKind::Kernel))
            .unwrap();
        builder
            .register(Component::new("c", ComponentKind::Kernel))
            .unwrap();
        let image = builder.build(&[&TestMpk]).unwrap();
        let env = &image.env;
        let (a, b, c) = (
            env.component_id("a").unwrap(),
            env.component_id("b").unwrap(),
            env.component_id("c").unwrap(),
        );
        env.run_as(a, || assert!(env.shared_var("a::table").is_ok()));
        env.run_as(b, || assert!(env.shared_var("a::table").is_ok()));
        env.run_as(c, || {
            assert!(matches!(
                env.shared_var("a::table"),
                Err(Fault::NotWhitelisted { .. })
            ));
        });
    }

    #[test]
    fn hardening_surcharges_apply_per_component() {
        let image = build_two_comp();
        let env = &image.env;
        let app = env.component_id("app").unwrap();
        let lwip = env.component_id("lwip").unwrap();
        let cost = env.machine().cost();
        let work = Work {
            cycles: 100,
            alu_ops: 10,
            frames: 4,
            indirect_calls: 2,
            mem_accesses: 20,
        };
        // app: no hardening → base cycles only.
        env.run_as(app, || {
            let t0 = env.machine().clock().now();
            env.compute(work);
            assert_eq!(env.machine().clock().now() - t0, 100);
        });
        // lwip: FIG6 bundle (kasan+ubsan+stack-protector, no cfi).
        env.run_as(lwip, || {
            let t0 = env.machine().clock().now();
            env.compute(work);
            let expected = 100
                + 10 * cost.ubsan_check
                + 4 * cost.stack_protector_frame
                + 20 * cost.kasan_check;
            assert_eq!(env.machine().clock().now() - t0, expected);
        });
    }

    #[test]
    fn report_lists_gates_sections_and_tcb() {
        let image = build_two_comp();
        let (r, env) = (&image.report, &image.env);
        assert_eq!(&*env.domain(CompartmentId(1)).name, "comp2");
        let gates = env.gate_names();
        assert_eq!(gates.len(), 2, "two directed gates between two comps");
        assert!(gates.iter().all(|(_, _, k)| k == "mpk-dss"));
        assert!(r.linker_script(env).contains("comp1/heap"));
        assert!(r.linker_script(env).contains("shared/heap"));
        assert_eq!(env.shared_var_names().len(), 1);
        assert_eq!(r.tcb.backend_loc, 1400);
        assert!(r.generated_loc > 0);
    }

    #[test]
    fn mpk_compartment_limit_enforced() {
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let mut builder = SafetyConfig::builder();
        for i in 0..15 {
            let mut spec = CompartmentSpec::new(format!("c{i}"), Mechanism::IntelMpk);
            if i == 0 {
                spec = spec.default_compartment();
            }
            builder = builder.compartment(spec);
        }
        let config = builder.build().unwrap();
        let b = ImageBuilder::new(machine, config);
        let err = b.build(&[&TestMpk]).unwrap_err();
        assert!(matches!(err, Fault::InvalidConfig { .. }));
    }

    #[test]
    fn none_config_builds_flat_image() {
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let mut builder = ImageBuilder::new(machine, SafetyConfig::none());
        builder
            .register(Component::new("app", ComponentKind::App))
            .unwrap();
        let image = builder.build(&[&NoneBackend]).unwrap();
        assert_eq!(image.env.compartment_count(), 1);
        assert!(image.env.gate_names().is_empty());
        assert_eq!(image.report.tcb.backend_loc, 0);
    }

    #[test]
    fn light_gates_share_registers_full_gates_scrub() {
        use crate::compartment::DataSharing;
        // Build a shared-stack (light gate) image.
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let config = SafetyConfig::builder()
            .compartment(CompartmentSpec::new("c1", Mechanism::IntelMpk).default_compartment())
            .compartment(CompartmentSpec::new("c2", Mechanism::IntelMpk))
            .place("srv", "c2")
            .data_sharing(DataSharing::SharedStack)
            .build()
            .unwrap();
        let mut builder = ImageBuilder::new(machine, config);
        builder
            .register(Component::new("app", ComponentKind::App))
            .unwrap();
        builder
            .register(Component::new("srv", ComponentKind::Kernel).with_entry_points(&["srv_fn"]))
            .unwrap();
        let image = builder.build(&[&TestMpk]).unwrap();
        let env = Rc::clone(&image.env);
        let app = env.component_id("app").unwrap();
        let srv = env.component_id("srv").unwrap();
        let env2 = Rc::clone(&env);
        env.run_as(app, move || {
            env2.regs().set(10, 0x5EC12E7);
            env2.call_resolved(env2.resolve(srv, "srv_fn"), || {
                // Light gate: register set is shared (lesser guarantees).
                assert_eq!(env2.regs().get(10), 0x5EC12E7);
                Ok(())
            })
            .unwrap();
        });
    }
}
