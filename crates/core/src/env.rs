//! The image runtime environment: gates, domains, heaps, enforcement.
//!
//! `Env` is what a built FlexOS image *is* at runtime: the instantiated
//! gate matrix, one protection domain per compartment, per-compartment
//! heaps plus the shared communication heap, the legal-entry-point table,
//! and the live CPU state (current component, PKRU, registers).
//!
//! Every substrate component holds an `Rc<Env>` and interacts with the
//! world exclusively through it:
//!
//! * [`Env::resolve`] + [`Env::call_resolved`] — the abstract gate of
//!   §3.1, split the way the paper splits it: *resolution* (component →
//!   compartment, entry name → interned [`EntryId`]) happens once, when a
//!   component wires itself up; the *call* is pure index arithmetic over
//!   the flattened gate-descriptor row and dense `Cell` counters — zero
//!   heap allocation, no `RefCell<GateTable>` borrow. Same compartment →
//!   plain call (2 cycles); across compartments → the configured
//!   mechanism's gate: entry point CFI-checked *first* (rejections charge
//!   nothing and count as `cfi_violations`), then cost charged, crossing
//!   counted, PKRU switched, registers saved/scrubbed (full MPK/EPT
//!   gates).
//! * [`Env::mem_read`] / [`Env::mem_write`] — simulated-memory access
//!   under the *current* domain's PKRU; touching another compartment's
//!   pages faults exactly as MPK would. KASan-hardened components also get
//!   shadow checks here.
//! * [`Env::compute`] — charges modeled compute cycles with the
//!   instruction-mix surcharges of the enabled hardening (UBSan on ALU
//!   ops, stack protector on frames, CFI on indirect calls, KASan on
//!   private-memory accesses), so hardening overhead *emerges* from what
//!   components actually do.
//! * [`Env::malloc`] / [`Env::malloc_shared`] — compartment-private and
//!   shared-heap allocation (§4.1 data ownership).
//! * [`Env::shared_var`] — whitelist-checked access to `__shared`
//!   annotated variables.
//! * [`Env::record_heap_template`] / [`Env::replay_heap_template`] —
//!   what a run did to the current compartment's heap, recorded once and
//!   replayed onto an identical heap (`template`).

use std::cell::{Cell, Ref, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use flexos_alloc::Heap;
use flexos_machine::addr::Addr;
use flexos_machine::cpu::RegisterFile;
use flexos_machine::fault::{Fault, FaultKind};
use flexos_machine::key::{Access, Pkru, ProtKey};
use flexos_machine::smp;
use flexos_machine::trace::{event as trace_event, EventKind};
use flexos_machine::Machine;

use crate::compartment::{CompartmentId, DataSharing, IsolationProfile, Mechanism, ResourceBudget};
use crate::component::{ComponentId, ComponentRegistry, SharedVar};
use crate::entry::{CallTarget, EntryId, EntryTable};
use crate::gate::{GateKind, GateTable};
use crate::hardening::Hardening;

mod template;
pub use template::HeapTemplate;

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

/// Placement of one `__shared` annotated variable after build: where it
/// landed and which annotation it is. Name, whitelist and region text are
/// read through the annotation (`Env::shared_var_decl`) and the layout
/// ([`Env::shared_var_region`]) when asked for, not copied per image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedVarPlacement {
    /// Simulated address of the variable.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Component that owns (declared) the variable.
    pub owner: ComponentId,
    /// Index of the annotation among the owner's `shared_vars`.
    pub var: u16,
    /// For a stack variable shared across compartments: the owner's
    /// data-sharing strategy, under which its shared-heap slot is used.
    pub shadow: Option<DataSharing>,
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

/// Snapshot of one compartment's resource usage within the current
/// accounting window (see [`Env::reset_budget_usage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Live private-heap bytes currently held (frees credit back).
    pub heap_bytes: u64,
    /// Compute + initiated-gate cycles accumulated this window.
    pub cycles: u64,
    /// Cross-compartment calls initiated this window.
    pub crossings: u64,
}

/// Interior-mutable usage counters for one compartment — `Cell` traffic
/// only, same zero-alloc discipline as the gate crossing counters.
#[derive(Debug, Default)]
struct BudgetCells {
    heap_bytes: Cell<u64>,
    cycles: Cell<u64>,
    crossings: Cell<u64>,
}

/// Capacity of the observed-fault ring: enough to audit a multi-fault
/// attack run or a recovery sequence without unbounded growth.
pub const FAULT_RING_CAP: usize = 8;

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
    /// Bounded ring of faults observed (via [`Env::observe`]), oldest
    /// first (capacity [`FAULT_RING_CAP`]; overflow drops the oldest) —
    /// the attack-visible introspection surface of the adversarial
    /// suite. Multi-fault attack runs and recovery sequences stay
    /// auditable; recording charges no cycles.
    fault_ring: RefCell<VecDeque<(ComponentId, FaultKind)>>,
    /// `true` if any compartment in the image carries a resource budget.
    /// When `false` (every pre-budget configuration) the charging paths
    /// reduce to a single predictable branch — unbudgeted images charge
    /// nothing and change no virtual-cycle output.
    budget_enabled: bool,
    /// Resolved per-compartment budgets (mirrors `profiles[i].budget`).
    budgets: Vec<ResourceBudget>,
    /// Per-compartment usage counters for the current accounting window.
    budget_used: Vec<BudgetCells>,
    /// Operations refused with `BudgetExceeded`, per compartment.
    budget_refusals: Vec<Cell<u64>>,
    /// Bitmask of quarantined compartments: gate entries into a
    /// quarantined compartment are refused (supervisor containment).
    quarantined: Cell<u32>,
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
        let budgets: Vec<ResourceBudget> = parts.profiles.iter().map(|p| p.budget).collect();
        let budget_enabled = budgets.iter().any(|b| !b.is_unlimited());
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
            budget_enabled,
            budgets,
            budget_used: (0..n_comps).map(|_| BudgetCells::default()).collect(),
            budget_refusals: (0..n_comps).map(|_| Cell::new(0)).collect(),
            quarantined: Cell::new(0),
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

    /// The data-sharing strategy of one compartment's boundaries
    /// (callee side): crossings *into* `comp` use this flavour, and
    /// `comp`'s thread stacks are laid out for it.
    pub fn data_sharing_of(&self, comp: CompartmentId) -> DataSharing {
        self.profiles[comp.0 as usize].data_sharing
    }

    /// The allocator policy of one compartment's private heap.
    pub fn heap_kind_of(&self, comp: CompartmentId) -> flexos_alloc::HeapKind {
        self.profiles[comp.0 as usize].allocator
    }

    /// The stack-data sharing strategy of the *currently executing*
    /// compartment (per-compartment since the profile redesign; on
    /// images that never override the axis this is the old global
    /// value). Boundary-local code should prefer
    /// [`Env::data_sharing_of`].
    pub(crate) fn data_sharing(&self) -> DataSharing {
        self.data_sharing_of(self.compartment_of(self.cur.get()))
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

    /// Resets the gate crossing counters (between benchmark phases).
    pub fn reset_counters(&self) {
        self.gates.reset_counters();
    }

    /// Installs the cross-domain hook (EPT RPC rings).
    pub fn set_crossing_hook(&self, hook: CrossingHook) {
        *self.crossing_hook.borrow_mut() = Some(hook);
    }

    // --- fault introspection ----------------------------------------------

    /// Passes `r` through unchanged while recording any fault it carries
    /// against the currently executing component in the ring behind
    /// [`Env::observed_faults`]. The attack harness wraps every
    /// adversarial access in this so outcomes can be classified after
    /// the fact; recording is zero cycles and zero host allocation (the
    /// ring is pre-sized), so costed paths are unperturbed.
    pub fn observe<R>(&self, r: Result<R, Fault>) -> Result<R, Fault> {
        if let Err(fault) = &r {
            let comp = self.cur.get();
            let mut ring = self.fault_ring.borrow_mut();
            if ring.len() == FAULT_RING_CAP {
                ring.pop_front();
            }
            ring.push_back((comp, fault.kind()));
            self.machine.tracer().record(
                self.machine.clock().now(),
                EventKind::IsolationFault {
                    component: comp.0,
                    fault: fault.kind() as u8,
                },
            );
        }
        r
    }

    /// The observed-fault ring, oldest first — up to [`FAULT_RING_CAP`]
    /// most recent faults. Attack post-mortems and recovery audits read
    /// the whole sequence instead of just the final kind.
    pub fn observed_faults(&self) -> Vec<(ComponentId, FaultKind)> {
        self.fault_ring.borrow().iter().copied().collect()
    }

    /// Clears the observed-fault record (between attack runs).
    pub fn clear_observed_faults(&self) {
        self.fault_ring.borrow_mut().clear();
    }

    /// The register file (tests verify gate scrubbing through this).
    pub fn regs(&self) -> std::cell::RefMut<'_, RegisterFile> {
        self.regs.borrow_mut()
    }

    // --- simulated SMP ------------------------------------------------------

    /// Number of simulated cores (delegates to the machine).
    pub fn num_cores(&self) -> usize {
        self.machine.num_cores()
    }

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

    // --- resource budgets ---------------------------------------------------
    //
    // Budget semantics (DESIGN.md "Resource budgets & recovery"):
    //
    // * `heap_bytes` caps *live* private-heap bytes — a quota, not a
    //   meter: frees credit the counter back.
    // * `cycles` caps compute + initiated-gate cycles accumulated per
    //   accounting window ([`Env::reset_budget_usage`] opens a window).
    // * `crossings` caps cross-compartment calls *initiated* per window.
    //
    // Enforcement happens only at fallible points: `malloc`, the gate
    // path, and the explicit [`Env::check_budget`] /
    // [`Env::compute_checked`] preemption points — `compute` itself
    // stays infallible. Checks and refusals never advance the clock
    // (same discipline as CFI rejections), and on images with no budget
    // anywhere the entire subsystem is one predictable branch.

    /// `true` if any compartment in this image carries a resource budget.
    pub fn budget_enabled(&self) -> bool {
        self.budget_enabled
    }

    /// Usage snapshot of a compartment within the current accounting
    /// window. All-zero on images with budgets disabled (nothing is
    /// accumulated there).
    pub fn budget_usage(&self, comp: CompartmentId) -> BudgetUsage {
        let cells = &self.budget_used[comp.0 as usize];
        BudgetUsage {
            heap_bytes: cells.heap_bytes.get(),
            cycles: cells.cycles.get(),
            crossings: cells.crossings.get(),
        }
    }

    /// Operations refused with `BudgetExceeded` against a compartment.
    pub fn budget_refusals_of(&self, comp: CompartmentId) -> u64 {
        self.budget_refusals[comp.0 as usize].get()
    }

    /// Opens a fresh accounting window: zeroes every compartment's
    /// cycle/crossing usage and refusal counters. Heap usage is *live
    /// bytes* and deliberately survives the reset — a quota does not
    /// forgive memory still held.
    pub fn reset_budget_usage(&self) {
        for cells in &self.budget_used {
            cells.cycles.set(0);
            cells.crossings.set(0);
        }
        for c in &self.budget_refusals {
            c.set(0);
        }
        if self.budget_enabled {
            self.machine.tracer().record(
                self.machine.clock().now(),
                EventKind::BudgetWindowReset {
                    compartment: trace_event::ALL_COMPARTMENTS,
                },
            );
        }
    }

    /// Opens a fresh accounting window for *one* compartment — the
    /// supervisor's post-microreboot reset. Unlike the image-wide
    /// [`Env::reset_budget_usage`] this also zeroes heap usage: the
    /// reboot just discarded every live allocation.
    pub fn reset_budget_usage_of(&self, comp: CompartmentId) {
        let cells = &self.budget_used[comp.0 as usize];
        cells.heap_bytes.set(0);
        cells.cycles.set(0);
        cells.crossings.set(0);
        self.budget_refusals[comp.0 as usize].set(0);
        self.machine.tracer().record(
            self.machine.clock().now(),
            EventKind::BudgetWindowReset {
                compartment: comp.0,
            },
        );
    }

    /// Quarantines (or releases) a compartment: while quarantined, every
    /// cross-compartment gate entry into it is refused with
    /// [`Fault::Quarantined`] — the supervisor's containment primitive.
    pub fn set_quarantined(&self, comp: CompartmentId, quarantined: bool) {
        let bit = 1u32 << comp.0;
        let cur = self.quarantined.get();
        self.quarantined
            .set(if quarantined { cur | bit } else { cur & !bit });
    }

    /// `true` while `comp` is quarantined.
    pub fn is_quarantined(&self, comp: CompartmentId) -> bool {
        self.quarantined.get() & (1u32 << comp.0) != 0
    }

    /// Explicit budget preemption point: errs if the current
    /// compartment's accumulated cycles exceed its budget. Long-running
    /// loops call this (or [`Env::compute_checked`]) at their natural
    /// yield points — enforcement granularity is the distance between
    /// checks, exactly like timer-interrupt preemption.
    ///
    /// # Errors
    ///
    /// [`Fault::BudgetExceeded`] (resource `"cycles"`) when over budget.
    /// The check itself charges nothing.
    #[inline]
    pub fn check_budget(&self) -> Result<(), Fault> {
        if !self.budget_enabled {
            return Ok(());
        }
        let dom = self.compartment_of(self.cur.get());
        if let Some(limit) = self.budgets[dom.0 as usize].cycles {
            let used = self.budget_used[dom.0 as usize].cycles.get();
            if used > limit {
                return Err(self.budget_refused(dom, "cycles", used, limit));
            }
        }
        Ok(())
    }

    /// [`Env::compute`] followed by [`Env::check_budget`]: charges the
    /// work unconditionally (it already executed), then faults if the
    /// charge pushed the compartment over its cycle budget.
    ///
    /// # Errors
    ///
    /// See [`Env::check_budget`].
    pub fn compute_checked(&self, work: Work) -> Result<(), Fault> {
        self.compute(work);
        self.check_budget()
    }

    /// Swaps a compartment's private heap for a fresh one over the same
    /// region, same allocator policy, same KASan state — the microreboot
    /// primitive: every prior allocation (including attacker hoards and
    /// poisoned blocks) is forgotten.
    pub fn reset_heap(&self, comp: CompartmentId) {
        let cell = &self.heaps[comp.0 as usize];
        let (region, kind, kasan) = {
            let heap = cell.borrow();
            (heap.region().clone(), heap.kind(), heap.kasan_enabled())
        };
        let mut fresh = Heap::new(Rc::clone(&self.machine), region, kind);
        if kasan {
            fresh.enable_kasan();
        }
        *cell.borrow_mut() = fresh;
        if self.budget_enabled {
            self.budget_used[comp.0 as usize].heap_bytes.set(0);
        }
    }

    /// Records a refusal and builds the fault (never advances the clock).
    #[cold]
    fn budget_refused(
        &self,
        dom: CompartmentId,
        resource: &'static str,
        used: u64,
        limit: u64,
    ) -> Fault {
        let c = &self.budget_refusals[dom.0 as usize];
        c.set(c.get() + 1);
        self.machine.tracer().record(
            self.machine.clock().now(),
            EventKind::BudgetRefusal {
                compartment: dom.0,
                resource: match resource {
                    "heap-bytes" => trace_event::resource::HEAP_BYTES,
                    "crossings" => trace_event::resource::CROSSINGS,
                    _ => trace_event::resource::CYCLES,
                },
                would: used,
                limit,
            },
        );
        Fault::BudgetExceeded {
            compartment: self.domains[dom.0 as usize].name.to_string(),
            resource,
            used,
            limit,
        }
    }

    /// Accumulates cycles against a compartment's window (budgeted
    /// images only).
    #[inline]
    fn budget_charge_cycles(&self, dom: CompartmentId, cycles: u64) {
        if self.budget_enabled {
            let c = &self.budget_used[dom.0 as usize].cycles;
            c.set(c.get() + cycles);
            self.machine.tracer().record(
                self.machine.clock().now(),
                EventKind::BudgetCharge {
                    compartment: dom.0,
                    resource: trace_event::resource::CYCLES,
                    amount: cycles,
                },
            );
        }
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
            self.budget_charge_cycles(from_dom, desc.cost);
            self.gates.record_direct();
            self.cur.set(to);
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
            // Budget enforcement sits between CFI and the charge: a
            // quarantined callee or an over-budget caller is refused
            // like a CFI rejection — the gate never executes, nothing
            // is charged, the clock does not advance.
            if self.budget_enabled {
                if self.is_quarantined(to_dom) {
                    return Err(Fault::Quarantined {
                        compartment: self.domains[to_dom.0 as usize].name.to_string(),
                    });
                }
                let budget = &self.budgets[from_dom.0 as usize];
                let used = &self.budget_used[from_dom.0 as usize];
                if let Some(limit) = budget.crossings {
                    let would = used.crossings.get() + 1;
                    if would > limit {
                        return Err(self.budget_refused(from_dom, "crossings", would, limit));
                    }
                }
                if let Some(limit) = budget.cycles {
                    let would = used.cycles.get() + desc.cost;
                    if would > limit {
                        return Err(self.budget_refused(from_dom, "cycles", would, limit));
                    }
                }
                used.crossings.set(used.crossings.get() + 1);
                used.cycles.set(used.cycles.get() + desc.cost);
                self.machine.tracer().record(
                    self.machine.clock().now(),
                    EventKind::BudgetCharge {
                        compartment: from_dom.0,
                        resource: trace_event::resource::CROSSINGS,
                        amount: 1,
                    },
                );
            }
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
        self.budget_charge_cycles(self.compartment_of(comp), cycles);
    }

    // --- memory -----------------------------------------------------------

    #[inline]
    fn kasan_filter(&self, addr: Addr, len: u64, kind: Access) -> Result<(), Fault> {
        if !self.kasan_any || !self.hardening[self.cur.get().0 as usize].kasan {
            return Ok(());
        }
        let dom = self.compartment_of(self.cur.get());
        let heap = &self.heaps[dom.0 as usize];
        if heap.borrow().contains(addr) {
            return heap.borrow_mut().kasan_check(addr, len, kind);
        }
        if self.shared_heap.borrow().contains(addr) {
            return self.shared_heap.borrow_mut().kasan_check(addr, len, kind);
        }
        Ok(())
    }

    /// Reads simulated memory under the current domain's PKRU.
    ///
    /// # Errors
    ///
    /// [`Fault::ProtectionKey`] when the current compartment does not hold
    /// the page's key — the MPK isolation event; [`Fault::Kasan`] under
    /// KASan hardening for redzone/quarantine hits.
    #[inline]
    pub fn mem_read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), Fault> {
        self.kasan_filter(addr, buf.len() as u64, Access::Read)?;
        self.machine.charge_mem_bytes(buf.len() as u64);
        self.machine.memory().read(addr, buf, &self.pkru.get())
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// The length is validated against the machine's memory size before
    /// the vector is allocated: a corrupted length field read *out of*
    /// simulated memory faults cleanly instead of triggering an
    /// arbitrarily large host-side allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`].
    pub fn mem_read_vec(&self, addr: Addr, len: u64) -> Result<Vec<u8>, Fault> {
        if len > self.machine.memory_bytes() {
            return Err(Fault::OutOfBounds { addr, len });
        }
        let mut buf = vec![0u8; len as usize];
        self.mem_read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Reads `len` bytes and **appends** them to `out` — the
    /// reusable-buffer twin of [`Env::mem_read_vec`]: once `out`'s
    /// capacity has converged, steady-state reads perform zero host
    /// allocations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`]; on error `out` is truncated
    /// back to its original length.
    pub fn mem_read_into(&self, addr: Addr, len: u64, out: &mut Vec<u8>) -> Result<(), Fault> {
        if len > self.machine.memory_bytes() {
            return Err(Fault::OutOfBounds { addr, len });
        }
        let start = out.len();
        out.resize(start + len as usize, 0);
        match self.mem_read(addr, &mut out[start..]) {
            Ok(()) => Ok(()),
            Err(fault) => {
                out.truncate(start);
                Err(fault)
            }
        }
    }

    /// Compares simulated memory at `addr` with `bytes`, without copying
    /// or allocating — the rights-checked `memcmp` behind dict key
    /// probes. Charges and faults exactly like an [`Env::mem_read`] of
    /// the same length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`].
    #[inline]
    pub fn mem_compare(&self, addr: Addr, bytes: &[u8]) -> Result<bool, Fault> {
        self.kasan_filter(addr, bytes.len() as u64, Access::Read)?;
        self.machine.charge_mem_bytes(bytes.len() as u64);
        self.machine.memory().compare(addr, bytes, &self.pkru.get())
    }

    /// Copies `len` bytes from `src` to `dst` inside simulated memory —
    /// page-pair-wise, with no host allocation. Charges one read side
    /// plus one write side, exactly like an [`Env::mem_read`] followed by
    /// an [`Env::mem_write`] of the same length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`] / [`Env::mem_write`].
    pub fn mem_copy(&self, src: Addr, dst: Addr, len: u64) -> Result<(), Fault> {
        self.kasan_filter(src, len, Access::Read)?;
        self.machine.charge_mem_bytes(len);
        self.kasan_filter(dst, len, Access::Write)?;
        self.machine.charge_mem_bytes(len);
        self.machine
            .memory_mut()
            .copy(src, dst, len, &self.pkru.get())
    }

    /// Writes simulated memory under the current domain's PKRU.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_read`].
    #[inline]
    pub fn mem_write(&self, addr: Addr, data: &[u8]) -> Result<(), Fault> {
        self.kasan_filter(addr, data.len() as u64, Access::Write)?;
        self.machine.charge_mem_bytes(data.len() as u64);
        self.machine
            .memory_mut()
            .write(addr, data, &self.pkru.get())
    }

    /// Fills `len` bytes at `addr` with `byte` — a `memset` with no host
    /// buffer behind it. Charges and faults exactly like an
    /// [`Env::mem_write`] of `len` bytes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Env::mem_write`].
    pub fn mem_fill(&self, addr: Addr, len: u64, byte: u8) -> Result<(), Fault> {
        self.kasan_filter(addr, len, Access::Write)?;
        self.machine.charge_mem_bytes(len);
        self.machine
            .memory_mut()
            .fill(addr, len, byte, &self.pkru.get())
    }

    // --- heaps ------------------------------------------------------------

    /// Allocates from the current compartment's private heap.
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] when the heap is full;
    /// [`Fault::BudgetExceeded`] when the request would push live bytes
    /// over the compartment's heap budget (a quota refusal: nothing is
    /// allocated and no cycles are charged).
    pub fn malloc(&self, size: u64) -> Result<Addr, Fault> {
        let dom = self.compartment_of(self.cur.get());
        if self.budget_enabled {
            if let Some(limit) = self.budgets[dom.0 as usize].heap_bytes {
                let would = self.budget_used[dom.0 as usize].heap_bytes.get() + size;
                if would > limit {
                    return Err(self.budget_refused(dom, "heap-bytes", would, limit));
                }
            }
        }
        let addr = self.heaps[dom.0 as usize].borrow_mut().malloc(size)?;
        if self.budget_enabled {
            // Charge what the allocator actually granted (rounded
            // block), so free() credits the exact same amount back.
            let granted = self.heaps[dom.0 as usize]
                .borrow()
                .size_of(addr)
                .unwrap_or(size);
            let c = &self.budget_used[dom.0 as usize].heap_bytes;
            c.set(c.get() + granted);
            self.machine.tracer().record(
                self.machine.clock().now(),
                EventKind::BudgetCharge {
                    compartment: dom.0,
                    resource: trace_event::resource::HEAP_BYTES,
                    amount: granted,
                },
            );
        }
        let tracer = self.machine.tracer();
        if tracer.is_enabled() {
            let heap = self.heaps[dom.0 as usize].borrow();
            let granted = heap.size_of(addr).unwrap_or(size);
            let s = heap.stats();
            tracer.record(
                self.machine.clock().now(),
                EventKind::HeapAlloc {
                    compartment: dom.0,
                    bytes: granted,
                    live: s.bytes_allocated.saturating_sub(s.bytes_freed),
                },
            );
        }
        Ok(addr)
    }

    /// Frees a private-heap allocation.
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] on foreign or double frees.
    pub fn free(&self, addr: Addr) -> Result<(), Fault> {
        let dom = self.compartment_of(self.cur.get());
        let tracing = self.machine.tracer().is_enabled();
        let credit = if self.budget_enabled || tracing {
            self.heaps[dom.0 as usize].borrow().size_of(addr)
        } else {
            None
        };
        self.heaps[dom.0 as usize].borrow_mut().free(addr)?;
        if let Some(bytes) = credit {
            if self.budget_enabled {
                let c = &self.budget_used[dom.0 as usize].heap_bytes;
                c.set(c.get().saturating_sub(bytes));
            }
            if tracing {
                let s = self.heaps[dom.0 as usize].borrow().stats();
                self.machine.tracer().record(
                    self.machine.clock().now(),
                    EventKind::HeapFree {
                        compartment: dom.0,
                        bytes,
                        live: s.bytes_allocated.saturating_sub(s.bytes_freed),
                    },
                );
            }
        }
        Ok(())
    }

    /// Allocates from the shared communication heap (§4.1).
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] when the shared heap is full.
    pub fn malloc_shared(&self, size: u64) -> Result<Addr, Fault> {
        self.machine.charge_contention(smp::SHARED_HEAP);
        self.shared_heap.borrow_mut().malloc(size)
    }

    /// Frees a shared-heap allocation.
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] on foreign or double frees.
    pub(crate) fn free_shared(&self, addr: Addr) -> Result<(), Fault> {
        self.machine.charge_contention(smp::SHARED_HEAP);
        self.shared_heap.borrow_mut().free(addr)
    }

    /// The current compartment's private heap.
    pub fn heap(&self) -> Rc<RefCell<Heap>> {
        let dom = self.compartment_of(self.cur.get());
        Rc::clone(&self.heaps[dom.0 as usize])
    }

    /// Allocator statistics of one compartment's private heap — the
    /// per-compartment live-bytes high-water surface behind
    /// `TransformReport::heap_highwater`.
    pub fn heap_stats_of(&self, comp: CompartmentId) -> flexos_alloc::AllocStats {
        self.heaps[comp.0 as usize].borrow().stats()
    }

    /// Aggregated allocator statistics across every heap in the image
    /// (Figure 10's allocator-behaviour accounting).
    pub fn total_alloc_stats(&self) -> flexos_alloc::AllocStats {
        let mut total = flexos_alloc::AllocStats::default();
        let mut add = |s: flexos_alloc::AllocStats| {
            total.mallocs += s.mallocs;
            total.frees += s.frees;
            total.slow_hits += s.slow_hits;
            total.bytes_allocated += s.bytes_allocated;
            total.bytes_freed += s.bytes_freed;
            total.peak_live += s.peak_live;
            total.kasan_reports += s.kasan_reports;
            total.exhaustions += s.exhaustions;
        };
        for heap in &self.heaps {
            add(heap.borrow().stats());
        }
        add(self.shared_heap.borrow().stats());
        total
    }

    // --- shared variables ---------------------------------------------------

    /// Resolves a `__shared` variable by its `component::variable` name,
    /// enforcing its whitelist: only the owner and whitelisted components
    /// may touch it (§3.1). The name is resolved through the registry
    /// here, on lookup; the image keeps no name-keyed table.
    ///
    /// # Errors
    ///
    /// [`Fault::NotWhitelisted`] when the current component is not allowed;
    /// [`Fault::InvalidConfig`] for unknown variable names.
    pub fn shared_var(&self, name: &str) -> Result<&SharedVarPlacement, Fault> {
        let placement = name
            .split_once("::")
            .and_then(|(component, var)| {
                let owner = self.registry.lookup(component)?;
                let decls = &self.registry.get(owner).shared_vars;
                let index = decls.iter().position(|decl| decl.name == var)?;
                Some(&self.shared_vars[self.shared_var_base[owner.0 as usize] + index])
            })
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("unknown shared variable `{name}`"),
            })?;
        let me = self.cur.get();
        let my_name = &self.registry.get(me).name;
        let whitelist = self.shared_var_decl(placement).whitelist;
        if placement.owner == me || whitelist.contains(&my_name.as_ref()) {
            Ok(placement)
        } else {
            Err(Fault::NotWhitelisted {
                variable: name.to_string(),
                compartment: my_name.to_string(),
            })
        }
    }

    /// Shared-variable placements as `(component, variable, region)`
    /// names, in registration order.
    pub fn shared_var_names(&self) -> Vec<(String, String, String)> {
        self.shared_vars
            .iter()
            .map(|placement| {
                (
                    self.registry.get(placement.owner).name.to_string(),
                    self.shared_var_decl(placement).name.to_string(),
                    self.shared_var_region(placement),
                )
            })
            .collect()
    }

    /// The annotation a placement belongs to (name, storage, whitelist).
    pub(crate) fn shared_var_decl(&self, placement: &SharedVarPlacement) -> &SharedVar {
        &self.registry.get(placement.owner).shared_vars[placement.var as usize]
    }

    /// Name of the region a variable was placed in, as the transform
    /// report spells it: the mapped region holding its address, with the
    /// data-sharing label for a cross-compartment stack variable.
    pub fn shared_var_region(&self, placement: &SharedVarPlacement) -> String {
        let layout = self.machine.layout();
        let region = layout
            .find(placement.addr)
            .expect("a placed variable lies in a mapped region");
        let label = match placement.shadow {
            None => return region.name().to_string(),
            Some(DataSharing::Dss) => "dss-shadow",
            Some(DataSharing::HeapConversion) => "heap-conversion",
            Some(DataSharing::SharedStack) => "stack-window",
        };
        format!("{} ({label})", region.name())
    }

    // --- stack data sharing (Figure 11a) -----------------------------------

    /// Models allocating one shared stack variable under the *current
    /// compartment's* data-sharing strategy, returning the cycles it
    /// cost: DSS and shared
    /// stacks are compiler bookkeeping (stack speed); heap conversion pays
    /// a full shared-heap malloc (§4.1 "Data Shadow Stacks", Figure 11a).
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] if heap conversion exhausts the shared
    /// heap.
    pub fn stack_share_alloc(&self, size: u64) -> Result<StackShare, Fault> {
        let cost = self.machine.cost();
        match self.data_sharing() {
            DataSharing::Dss | DataSharing::SharedStack => {
                self.machine.clock().advance(cost.stack_alloc);
                Ok(StackShare::Stack)
            }
            DataSharing::HeapConversion => {
                let addr = self.malloc_shared(size)?;
                Ok(StackShare::Heap(addr))
            }
        }
    }

    /// Releases a [`StackShare`] (frees the heap conversion, no-op for
    /// stack-backed sharing).
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] if a heap-converted variable is released twice.
    pub fn stack_share_release(&self, share: StackShare) -> Result<(), Fault> {
        match share {
            StackShare::Stack => Ok(()),
            StackShare::Heap(addr) => self.free_shared(addr),
        }
    }
}

/// Token for one shared stack variable (see [`Env::stack_share_alloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackShare {
    /// Backed by the DSS or a shared stack — nothing to release.
    Stack,
    /// Converted to a shared-heap allocation at this address.
    Heap(Addr),
}
