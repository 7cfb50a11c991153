//! The image runtime environment: gates, domains, heaps, enforcement.
//!
//! `Env` is what a built FlexOS image *is* at runtime: the instantiated
//! gate matrix, one protection domain per compartment, per-compartment
//! heaps plus the shared communication heap, the legal-entry-point table,
//! and the live CPU state (current component, PKRU, registers).
//!
//! Every substrate component holds an `Rc<Env>` and interacts with the
//! world exclusively through it. This file holds the struct, its
//! construction and introspection, the simulated-SMP context switch and
//! the gate; each other policy is an `impl Env` block in a submodule of
//! its own:
//!
//! * [`Env::resolve`] + [`Env::call_resolved`] (here) — the abstract gate
//!   of §3.1, split the way the paper splits it: *resolution* (component
//!   → compartment, entry name → interned [`EntryId`]) happens once, when
//!   a component wires itself up; the *call* is pure index arithmetic
//!   over the flattened gate-descriptor row and dense `Cell` counters —
//!   zero heap allocation, no `RefCell<GateTable>` borrow. Same
//!   compartment → plain call (2 cycles); across compartments → the
//!   configured mechanism's gate: entry point CFI-checked *first*
//!   (rejections charge nothing and count as `cfi_violations`), then the
//!   ledger's admission, then cost charged, crossing counted, PKRU
//!   switched, registers saved/scrubbed (full MPK/EPT gates).
//! * [`Env::compute`] (here) — charges modeled compute cycles with the
//!   instruction-mix surcharges of the enabled hardening (UBSan on ALU
//!   ops, stack protector on frames, CFI on indirect calls, KASan on
//!   private-memory accesses), so hardening overhead *emerges* from what
//!   components actually do.
//! * `budget` — the one budget ledger: limits, window usage, refusals and
//!   the quarantine mask ([`Env::budget_usage`], [`Env::check_budget`],
//!   [`Env::set_quarantined`]).
//! * `faults` — the observed-fault ring ([`Env::observe`]).
//! * `mem` — [`Env::mem_read`] / [`Env::mem_write`] and friends:
//!   simulated-memory access under the *current* domain's PKRU, plus
//!   KASan shadow checks for hardened components.
//! * `heap` — [`Env::malloc`] / [`Env::malloc_shared`]:
//!   compartment-private and shared-heap allocation (§4.1 data
//!   ownership), and the microreboot's [`Env::reset_heap`].
//! * `shared` — [`Env::shared_var`], whitelist-checked access to
//!   `__shared` annotated variables, and stack-data sharing.
//! * `recorder` — [`Env::record_hardening`]: what each component's
//!   hardening flags add to a measured window, counted so a sweep can
//!   price the other hardening assignments of a run instead of
//!   simulating them.

use std::cell::{Cell, Ref, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use flexos_alloc::Heap;
use flexos_machine::cpu::RegisterFile;
use flexos_machine::fault::{Fault, FaultKind};
use flexos_machine::key::{Pkru, ProtKey};
use flexos_machine::smp;
use flexos_machine::trace::EventKind;
use flexos_machine::Machine;

use crate::compartment::{CompartmentId, IsolationProfile, Mechanism};
use crate::component::{ComponentId, ComponentRegistry};
use crate::entry::{CallTarget, EntryId, EntryTable};
use crate::gate::{GateKind, GateTable};
use crate::hardening::Hardening;

mod budget;
mod faults;
mod heap;
mod mem;
mod recorder;
mod shared;
pub use self::{
    budget::BudgetUsage,
    faults::FAULT_RING_CAP,
    shared::{SharedVarPlacement, StackShare},
};

/// One protection domain (compartment) at runtime.
#[derive(Debug, Clone)]
pub struct DomainState {
    /// Compartment name from the configuration (shared with the names
    /// of the compartment's regions).
    pub name: Rc<str>,
    /// Protection key owning this compartment's private pages.
    pub key: ProtKey,
    /// PKRU installed while this compartment executes.
    pub pkru: Pkru,
    /// Isolation mechanism enclosing the compartment.
    pub mechanism: Mechanism,
}

/// Modeled work performed by a component, with the instruction mix that
/// hardening mechanisms instrument (§4.5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Base compute cycles.
    pub cycles: u64,
    /// Arithmetic ops (UBSan adds a check per op).
    pub alu_ops: u64,
    /// Function frames entered (stack protector adds canary store+check).
    pub frames: u64,
    /// Indirect calls (CFI adds a target check).
    pub indirect_calls: u64,
    /// Private-memory accesses not going through simulated memory
    /// (KASan adds a shadow check per access).
    pub mem_accesses: u64,
}

impl Work {
    /// Work consisting of plain compute cycles only.
    pub fn cycles(cycles: u64) -> Work {
        Work {
            cycles,
            ..Work::default()
        }
    }
}

/// Registers that carry arguments across a full (MPK-DSS / EPT) gate;
/// the gate zeroes every register beyond them (§3.1). Every entry point
/// in the image takes two.
const GATE_ARG_REGS: usize = 2;

/// Hook invoked on every cross-domain gate traversal; the EPT backend uses
/// it to drive its shared-memory RPC rings. The entry point arrives as its
/// interned [`EntryId`] (resolve the name via [`Env::entry_name`] off the
/// hot path if needed).
pub(crate) type CrossingHook =
    Box<dyn Fn(&Env, CompartmentId, CompartmentId, EntryId) -> Result<(), Fault>>;

/// The image runtime. See the module docs for the full tour.
pub struct Env {
    machine: Rc<Machine>,
    registry: ComponentRegistry,
    comp_of: Vec<CompartmentId>,
    hardening: Vec<Hardening>,
    domains: Vec<DomainState>,
    profiles: Vec<IsolationProfile>,
    gates: GateTable,
    entries: EntryTable,
    /// Placements in registration order: component by component, each
    /// component's annotations in declaration order.
    shared_vars: Vec<SharedVarPlacement>,
    /// Index into `shared_vars` of each component's first annotation.
    shared_var_base: Vec<usize>,
    heaps: Vec<Rc<RefCell<Heap>>>,
    shared_heap: Rc<RefCell<Heap>>,
    /// `true` if any component in the image is KASan-hardened; when
    /// `false` (most configurations) the per-access shadow filter is a
    /// single flag test.
    kasan_any: bool,
    cur: Cell<ComponentId>,
    pkru: Cell<Pkru>,
    regs: RefCell<RegisterFile>,
    crossing_hook: RefCell<Option<CrossingHook>>,
    /// Observed faults, oldest first (see `faults`).
    fault_ring: RefCell<VecDeque<(ComponentId, FaultKind)>>,
    /// Budgets, usage, refusals and quarantine (see `budget`).
    budget: budget::Ledger,
    /// What each hardening flag multiplies, while on (see `recorder`).
    recorder: recorder::Recorder,
    /// Home core of each compartment ([`smp::ANY_CORE`] = not pinned).
    /// On multi-core machines, gate entries into a compartment homed on
    /// a *different* core pay the remote-gate (doorbell/IPI) surcharge.
    home_core: Vec<Cell<u8>>,
    /// Component that was executing on each core when it was switched
    /// out; [`Env::switch_core`] parks and restores through these.
    core_cur: Vec<Cell<ComponentId>>,
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Env")
            .field("components", &self.registry.len())
            .field("compartments", &self.domains.len())
            .field("profiles", &self.profiles)
            .finish()
    }
}

/// All the pieces the image builder assembles into an [`Env`].
pub(crate) struct EnvParts {
    /// The machine everything runs on.
    pub machine: Rc<Machine>,
    /// Registered components.
    pub registry: ComponentRegistry,
    /// Compartment of each component (indexed by [`ComponentId`]).
    pub comp_of: Vec<CompartmentId>,
    /// Effective hardening of each component.
    pub hardening: Vec<Hardening>,
    /// Runtime domain state per compartment.
    pub domains: Vec<DomainState>,
    /// Resolved per-compartment isolation profiles.
    pub profiles: Vec<IsolationProfile>,
    /// Instantiated gate matrix (pre-computed per-pair costs).
    pub gates: GateTable,
    /// Interned entry points + per-compartment CFI bitsets.
    pub entries: EntryTable,
    /// Placements of `__shared` variables, in registration order (every
    /// annotation of every component, none skipped).
    pub shared_vars: Vec<SharedVarPlacement>,
    /// Private heap per compartment.
    pub heaps: Vec<Rc<RefCell<Heap>>>,
    /// The shared communication heap.
    pub shared_heap: Rc<RefCell<Heap>>,
}

impl Env {
    /// Assembles the runtime from built parts (called by the toolchain).
    pub(crate) fn from_parts(parts: EnvParts) -> Rc<Env> {
        let n = parts.registry.len();
        let n_comps = parts.domains.len();
        let kasan_any = parts.hardening.iter().any(|h| h.kasan);
        // Budgets ride on the resolved profiles — same resolution chain
        // as the data-sharing and allocator axes, no extra plumbing.
        let budget = budget::Ledger::new(parts.profiles.iter().map(|p| p.budget));
        let num_cores = parts.machine.num_cores();
        let mut shared_var_base = Vec::with_capacity(n);
        let mut placed = 0;
        for (_, component) in parts.registry.iter() {
            shared_var_base.push(placed);
            placed += component.shared_vars.len();
        }
        debug_assert_eq!(placed, parts.shared_vars.len());
        Rc::new(Env {
            machine: parts.machine,
            registry: parts.registry,
            comp_of: parts.comp_of,
            hardening: parts.hardening,
            domains: parts.domains,
            profiles: parts.profiles,
            gates: parts.gates,
            entries: parts.entries,
            shared_vars: parts.shared_vars,
            shared_var_base,
            heaps: parts.heaps,
            shared_heap: parts.shared_heap,
            kasan_any,
            cur: Cell::new(ComponentId(0)),
            pkru: Cell::new(Pkru::ALL_ACCESS),
            regs: RefCell::new(RegisterFile::new()),
            crossing_hook: RefCell::new(None),
            fault_ring: RefCell::new(VecDeque::with_capacity(FAULT_RING_CAP)),
            budget,
            recorder: recorder::Recorder::default(),
            home_core: (0..n_comps).map(|_| Cell::new(smp::ANY_CORE)).collect(),
            core_cur: (0..num_cores).map(|_| Cell::new(ComponentId(0))).collect(),
        })
    }

    // --- introspection ----------------------------------------------------

    /// The machine this image runs on.
    pub fn machine(&self) -> &Rc<Machine> {
        &self.machine
    }

    /// The component registry.
    pub fn registry(&self) -> &ComponentRegistry {
        &self.registry
    }

    /// Looks up a component id by name.
    pub fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.registry.lookup(name)
    }

    /// The compartment a component lives in.
    pub fn compartment_of(&self, comp: ComponentId) -> CompartmentId {
        self.comp_of[comp.0 as usize]
    }

    /// Runtime domain state of a compartment.
    pub fn domain(&self, comp: CompartmentId) -> &DomainState {
        &self.domains[comp.0 as usize]
    }

    /// Number of compartments in the image.
    pub fn compartment_count(&self) -> usize {
        self.domains.len()
    }

    /// The resolved isolation profile of a compartment.
    pub fn profile_of(&self, comp: CompartmentId) -> IsolationProfile {
        self.profiles[comp.0 as usize]
    }

    /// Gate matrix and crossing counters.
    pub fn gates(&self) -> &GateTable {
        &self.gates
    }

    /// Instantiated cross-domain gates as `(from, to, kind)` names.
    pub fn gate_names(&self) -> Vec<(String, String, String)> {
        let name = |comp: CompartmentId| self.domain(comp).name.to_string();
        self.gates
            .instantiated()
            .map(|(from, to, kind)| (name(from), name(to), kind.to_string()))
            .collect()
    }

    /// The image's interned entry-point table (CFI bitsets included).
    pub fn entries(&self) -> &EntryTable {
        &self.entries
    }

    /// Resets the gate crossing counters (between benchmark phases) and
    /// opens the hardening recorder's measured window.
    pub fn reset_counters(&self) {
        self.gates.reset_counters();
        self.recorder.restart();
    }

    /// Installs the cross-domain hook (EPT RPC rings).
    pub fn set_crossing_hook(&self, hook: CrossingHook) {
        *self.crossing_hook.borrow_mut() = Some(hook);
    }

    /// The register file (tests verify gate scrubbing through this).
    pub fn regs(&self) -> std::cell::RefMut<'_, RegisterFile> {
        self.regs.borrow_mut()
    }

    // --- simulated SMP ------------------------------------------------------

    /// Pins a compartment's home core: on multi-core machines every gate
    /// entry from another core pays the remote-gate surcharge. The
    /// builder pins driver compartments (lwip) to core 0, FTL-style; app
    /// compartments stay unpinned and execute wherever their shard runs.
    pub fn set_home_core(&self, comp: CompartmentId, core: usize) {
        assert!(core < self.machine.num_cores(), "core {core} out of range");
        self.home_core[comp.0 as usize].set(core as u8);
    }

    /// Switches execution to another simulated core: parks the live
    /// context (PKRU, registers, current component) into the outgoing
    /// vCPU, retargets the machine (and tracer), and restores the
    /// incoming vCPU's parked context. No-op when `core` is already
    /// current; charges nothing — the *decision* of which core runs next
    /// is the deterministic min-clock multiplexer's, not a costed
    /// operation (see `flexos_machine::smp`).
    pub fn switch_core(&self, core: usize) {
        let old = self.machine.current_core();
        if core == old {
            return;
        }
        let out = self.machine.vcpu(old);
        out.pkru.set(self.pkru.get());
        out.regs.set(*self.regs.borrow());
        self.core_cur[old].set(self.cur.get());
        self.machine.set_current_core(core);
        let inc = self.machine.vcpu(core);
        self.pkru.set(inc.pkru.get());
        *self.regs.borrow_mut() = inc.regs.get();
        self.cur.set(self.core_cur[core].get());
    }

    // --- execution --------------------------------------------------------

    /// Enters the image as `component` (boot → app entry) and runs `f`.
    /// Restores the previous context afterwards.
    pub fn run_as<R>(&self, component: ComponentId, f: impl FnOnce() -> R) -> R {
        let prev_comp = self.cur.get();
        let prev_pkru = self.pkru.get();
        self.cur.set(component);
        self.pkru
            .set(self.domains[self.compartment_of(component).0 as usize].pkru);
        let out = f();
        self.cur.set(prev_comp);
        self.pkru.set(prev_pkru);
        out
    }

    /// Resolves an abstract gate target once: component → compartment,
    /// entry name → interned [`EntryId`]. This is the build-time half of
    /// the §3.1 gate split into a value; keep the returned [`CallTarget`]
    /// and call through [`Env::call_resolved`] on hot paths.
    ///
    /// Unknown entry names resolve too (they are interned so faults can
    /// name them) — the resulting target is rejected by the CFI check on
    /// every cross-compartment call.
    pub fn resolve(&self, to: ComponentId, entry: &str) -> CallTarget {
        CallTarget {
            component: to,
            compartment: self.compartment_of(to),
            entry: self.entries.resolve(entry),
        }
    }

    /// The interned name behind an [`EntryId`] (for hooks and reports;
    /// not needed on the call path), borrowed from the intern table.
    pub fn entry_name(&self, entry: EntryId) -> Ref<'_, str> {
        self.entries.name(entry)
    }

    /// The abstract call gate: invokes `target`'s entry point, running `f`
    /// as the callee. This is the image's one gate entry; callers holding
    /// a name write `env.call_resolved(env.resolve(to, "entry"), f)`
    /// (one intern-table lookup, allocation-free once the name has been
    /// seen — first sight of an unregistered name interns it, bounded by
    /// `crate::entry::RUNTIME_INTERN_CAP`) and components with hot
    /// boundaries resolve once at construction time. Two registers carry
    /// arguments across a full gate; it zeroes the rest (§3.1).
    ///
    /// The path is one flattened gate-descriptor read, a
    /// bitset CFI check, `Cell` counter bumps, and the clock charge — no
    /// heap allocation and no `RefCell<GateTable>` borrow anywhere on the
    /// success path.
    ///
    /// # Errors
    ///
    /// [`Fault::IllegalEntryPoint`] if the crossing targets a function not
    /// registered as an entry point of the callee compartment (the gates'
    /// CFI property). Rejected calls charge **no** cycles and record a
    /// `cfi_violations` tick instead of a crossing: the gate never
    /// executes, so the clock must not advance (the callee was never
    /// entered). Also surfaces whatever the crossing hook or `f` return.
    pub fn call_resolved<R>(
        &self,
        target: CallTarget,
        f: impl FnOnce() -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        let from = self.cur.get();
        let from_dom = self.compartment_of(from);
        let to = target.component;
        let to_dom = target.compartment;

        let desc = self.gates.desc(from_dom, to_dom);
        let kind = desc.kind;

        if !kind.crosses_domain() {
            // Same-compartment fast path: a plain call. No PKRU touch, no
            // register save, no CFI — charge, count, run as the callee.
            self.machine.clock().advance(desc.cost);
            self.charge_cycles(from_dom, desc.cost);
            self.gates.record_direct();
            self.cur.set(to);
            if self.recorder.is_on() {
                self.recorder.entry(to, false);
            }
            let callee_h = self.hardening[to.0 as usize];
            if callee_h.stack_protector {
                self.machine
                    .clock()
                    .advance(self.machine.cost().stack_protector_frame);
            }
            let result = f();
            self.cur.set(from);
            return result;
        }

        let saved_regs = {
            // CFI first: compartments can only be entered through
            // registered entry points (§4.1/§4.2). An illegal target is
            // refused *before* the gate executes — nothing is charged and
            // no crossing is recorded.
            if !self.entries.is_legal(to_dom, target.entry) {
                self.gates.record_cfi_violation();
                return Err(Fault::IllegalEntryPoint {
                    entry: self.entries.name(target.entry).to_string(),
                    compartment: self.domains[to_dom.0 as usize].name.to_string(),
                });
            }
            // The ledger admits between CFI and the charge: a quarantined
            // callee or an over-budget caller is refused like a CFI
            // rejection — the gate never executes, nothing is charged,
            // the clock does not advance.
            self.admit_crossing(from_dom, to_dom, desc.cost)?;
            // Stamped *before* the gate cost is charged so the span
            // `[at, at + cost]` is attributable gate overhead.
            let tracer = self.machine.tracer();
            if tracer.is_enabled() {
                tracer.record(
                    self.machine.clock().now(),
                    EventKind::GateEnter {
                        from: from_dom.0,
                        to: to_dom.0,
                        entry: target.entry.0,
                        gate: kind.index() as u8,
                        cost: desc.cost as u32,
                    },
                );
            }
            self.machine.clock().advance(desc.cost);
            self.gates.record_crossing(kind);
            // Cross-core doorbell: a callee compartment homed on another
            // core pays the remote-gate surcharge on top of the
            // mechanism's gate cost. Machine-level overhead, not billed
            // to the caller's compartment budget (like the gate hardware
            // itself, it belongs to no compartment).
            if self.machine.num_cores() > 1 {
                let home = self.home_core[to_dom.0 as usize].get();
                if home != smp::ANY_CORE && usize::from(home) != self.machine.current_core() {
                    self.machine.charge_remote_gate();
                }
            }
            if let Some(hook) = self.crossing_hook.borrow().as_ref() {
                hook(self, from_dom, to_dom, target.entry)?;
            }
            // Full gates isolate the register set; the light gate shares it
            // (ERIM-style, lesser guarantees, §4.1).
            if matches!(kind, GateKind::MpkLight) {
                None
            } else {
                let mut regs = self.regs.borrow_mut();
                let saved = *regs;
                regs.clear_non_args(GATE_ARG_REGS);
                Some(saved)
            }
        };

        // Install the callee context.
        let prev_pkru = self.pkru.get();
        self.pkru.set(self.domains[to_dom.0 as usize].pkru);
        self.cur.set(to);

        // Callee-side hardening charges on entry.
        if self.recorder.is_on() {
            self.recorder.entry(to, true);
        }
        let callee_h = self.hardening[to.0 as usize];
        if callee_h.stack_protector || callee_h.cfi {
            let cost = self.machine.cost();
            let mut entry_cycles = 0;
            if callee_h.stack_protector {
                entry_cycles += cost.stack_protector_frame;
            }
            if callee_h.cfi {
                entry_cycles += cost.cfi_check;
            }
            if entry_cycles > 0 {
                self.machine.clock().advance(entry_cycles);
            }
        }
        let result = f();

        let tracer = self.machine.tracer();
        if tracer.is_enabled() {
            tracer.record(
                self.machine.clock().now(),
                EventKind::GateExit {
                    from: from_dom.0,
                    to: to_dom.0,
                    entry: target.entry.0,
                },
            );
        }

        // Return path: restore caller context (the gate executes the same
        // steps in reverse, §4.1; the cost constant covers the round trip).
        self.cur.set(from);
        self.pkru.set(prev_pkru);
        if let Some(saved) = saved_regs {
            *self.regs.borrow_mut() = saved;
        }
        result
    }

    /// Charges modeled compute work for the current component, applying
    /// the instruction-mix surcharges of its hardening set.
    #[inline]
    pub fn compute(&self, work: Work) {
        let comp = self.cur.get();
        if self.recorder.is_on() {
            self.recorder.work(comp, work);
        }
        let h = self.hardening[comp.0 as usize];
        let cost = self.machine.cost();
        let mut cycles = work.cycles;
        if h.ubsan {
            cycles += work.alu_ops * cost.ubsan_check;
        }
        if h.stack_protector {
            cycles += work.frames * cost.stack_protector_frame;
        }
        if h.cfi {
            cycles += work.indirect_calls * cost.cfi_check;
        }
        if h.kasan {
            cycles += work.mem_accesses * cost.kasan_check;
        }
        self.machine.clock().advance(cycles);
        self.charge_cycles(self.compartment_of(comp), cycles);
    }
}
