//! The recovery supervisor: quarantine + microreboot for faulted
//! compartments (graceful degradation, ISSUE 8 tentpole layer 3).
//!
//! FlexOS §3 promises a misbehaving compartment is *contained*; this
//! module makes containment recoverable. When a compartment trips an
//! isolation fault the supervisor notices (via the [`Env`] fault ring),
//! quarantines the compartment so no gate can enter it, microreboots it
//! — fresh heap from its profile allocator, reinitialized stacks,
//! replayed entry resolution — and releases the quarantine. Other
//! compartments keep serving throughout: the reboot touches only the
//! victim's private state and the supervisor runs from the TCB side.
//!
//! The microreboot state machine, in order (each step deterministic and
//! charged on the virtual clock so recovery latency is measurable):
//!
//! 1. **Quarantine** — set the compartment's quarantine bit: every
//!    cross-compartment entry refuses with `Fault::Quarantined`.
//! 2. **Heap reset** — swap in a fresh heap over the same region with
//!    the same allocator policy and KASan state; attacker hoards and
//!    poisoned blocks are forgotten.
//! 3. **Stack reset** — drop the compartment's thread stacks; gates
//!    re-map epoch-suffixed replacements lazily on the next crossing.
//! 4. **Entry replay** — re-resolve every registered entry point of
//!    every component homed in the compartment and verify it is still
//!    CFI-legal (a reboot must not widen the entry surface).
//! 5. **Release** — clear the compartment's budget window and its
//!    quarantine bit; the compartment serves again.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use flexos_core::compartment::CompartmentId;
use flexos_core::env::Env;
use flexos_machine::fault::FaultKind;
use flexos_machine::trace::{event as trace_event, EventKind};
use flexos_sched::Scheduler;

/// Modeled cost per dropped thread stack (unmap + registry surgery).
pub(crate) const REBOOT_STACK_CYCLES: u64 = 2_000;
/// Modeled cost per replayed entry-point resolution (CFI bitset check).
pub(crate) const REBOOT_ENTRY_CYCLES: u64 = 200;
/// Modeled base cost of one microreboot (quarantine bookkeeping, heap
/// metadata reinitialization, supervisor dispatch) — 20 000 cycles in
/// all — as fixed per-phase shares in state-machine order (quarantine,
/// heap-reset, stack-teardown, entry-replay, release). Heap metadata
/// reinitialization dominates the base cost;
/// the variable per-stack / per-entry costs land in their phases on
/// top of these bases.
pub(crate) const REBOOT_PHASE_BASE_CYCLES: [u64; 5] = [2_000, 12_000, 2_000, 2_000, 2_000];

/// What one microreboot did, in virtual-clock terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The rebooted compartment.
    pub(crate) compartment: CompartmentId,
    /// Its configured name.
    pub compartment_name: String,
    /// The fault kind that triggered recovery (`None` for explicit
    /// operator-initiated reboots).
    pub trigger: Option<FaultKind>,
    /// Virtual cycle at which the reboot began.
    pub(crate) at_cycle: u64,
    /// Thread stacks dropped and queued for remapping.
    pub(crate) stacks_dropped: usize,
    /// Entry points re-resolved and CFI-verified.
    pub(crate) entries_replayed: usize,
    /// End-to-end recovery latency in virtual cycles.
    pub latency_cycles: u64,
    /// Virtual cycles spent in each of the five phases, in
    /// state-machine order (indexes
    /// [`flexos_machine::trace::event::REBOOT_PHASES`]); sums to
    /// `latency_cycles`.
    pub phase_cycles: [u64; 5],
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "microreboot `{}` trigger={} at={} stacks={} entries={} latency={}",
            self.compartment_name,
            self.trigger
                .map(|k| k.to_string())
                .unwrap_or_else(|| "operator".to_string()),
            self.at_cycle,
            self.stacks_dropped,
            self.entries_replayed,
            self.latency_cycles,
        )
    }
}

/// Watches the fault ring and microreboots offending compartments.
pub struct Supervisor {
    env: Rc<Env>,
    sched: Rc<Scheduler>,
    reports: RefCell<Vec<RecoveryReport>>,
    /// Microreboots allowed per compartment before it is evicted
    /// (quarantined permanently). `None` means unbounded — the
    /// historical always-reboot policy.
    restart_budget: Option<u32>,
    /// Reboots performed so far, per compartment (deterministic order).
    reboot_counts: RefCell<BTreeMap<u8, u32>>,
    /// Compartments evicted after exhausting the restart budget.
    evicted: RefCell<Vec<CompartmentId>>,
}

impl Supervisor {
    /// Fault kinds that trigger an automatic microreboot on
    /// [`Supervisor::poll`]: resource-budget exhaustion and poisoned-heap
    /// detection — the containment events a reboot actually cures.
    pub(crate) const DEFAULT_TRIGGERS: &'static [FaultKind] = &[
        FaultKind::BudgetExceeded,
        FaultKind::Kasan,
        FaultKind::BadFree,
    ];

    /// Creates a supervisor over a booted image's environment and
    /// scheduler.
    pub fn new(env: Rc<Env>, sched: Rc<Scheduler>) -> Self {
        Supervisor {
            env,
            sched,
            reports: RefCell::new(Vec::new()),
            restart_budget: None,
            reboot_counts: RefCell::new(BTreeMap::new()),
            evicted: RefCell::new(Vec::new()),
        }
    }

    /// Caps microreboots per compartment: after `budget` reboots, the
    /// next trigger fault **evicts** the compartment instead — its
    /// quarantine bit is set and never cleared, so every subsequent gate
    /// entry refuses with `Fault::Quarantined` while the rest of the
    /// image keeps serving. A crash-looping tenant thus degrades to a
    /// dead tenant rather than an infinite reboot storm.
    pub fn with_restart_budget(mut self, budget: u32) -> Self {
        self.restart_budget = Some(budget);
        self
    }

    /// `true` once `compartment` has been evicted (restart budget
    /// exhausted; permanently quarantined).
    pub fn is_evicted(&self, compartment: CompartmentId) -> bool {
        self.evicted.borrow().contains(&compartment)
    }

    /// Compartments evicted so far, in eviction order.
    pub fn evictions(&self) -> Vec<CompartmentId> {
        self.evicted.borrow().clone()
    }

    /// Microreboots performed on `compartment` so far.
    pub fn reboot_count(&self, compartment: CompartmentId) -> u32 {
        *self
            .reboot_counts
            .borrow()
            .get(&compartment.0)
            .unwrap_or(&0)
    }

    /// Scans the observed-fault ring for the most recent trigger fault
    /// and microreboots the compartment of the component that raised it.
    /// Returns the recovery report if a reboot happened. The ring is
    /// cleared afterwards so one fault burst triggers one reboot.
    pub fn poll(&self) -> Option<RecoveryReport> {
        let hit = self
            .env
            .observed_faults()
            .into_iter()
            .rev()
            .find(|(_, kind)| Self::DEFAULT_TRIGGERS.contains(kind));
        let (component, kind) = hit?;
        let compartment = self.env.compartment_of(component);
        if self.is_evicted(compartment) {
            // Faults from a dead tenant are expected (`Quarantined`
            // refusals); drain the ring and keep serving.
            self.env.clear_observed_faults();
            return None;
        }
        if let Some(budget) = self.restart_budget {
            if self.reboot_count(compartment) >= budget {
                // Budget exhausted: evict instead of rebooting. The
                // quarantine bit stays set forever.
                self.env.set_quarantined(compartment, true);
                self.evicted.borrow_mut().push(compartment);
                self.env.clear_observed_faults();
                return None;
            }
        }
        let report = self.microreboot(compartment, Some(kind));
        self.env.clear_observed_faults();
        Some(report)
    }

    /// Runs the microreboot state machine on `compartment` (see the
    /// module docs for the five steps). Deterministic: identical images
    /// at identical clock values produce identical reports.
    pub fn microreboot(
        &self,
        compartment: CompartmentId,
        trigger: Option<FaultKind>,
    ) -> RecoveryReport {
        let machine = self.env.machine();
        let clock = machine.clock();
        let tracer = machine.tracer();
        let at_cycle = clock.now();

        tracer.record(
            at_cycle,
            EventKind::RebootStart {
                compartment: compartment.0,
                trigger: trigger.map(|k| k as u8).unwrap_or(trace_event::NO_TRIGGER),
            },
        );
        let mut phase_cycles = [0u64; 5];
        let mut phase = |idx: usize, cycles: u64| {
            tracer.record(
                clock.now(),
                EventKind::RebootPhase {
                    compartment: compartment.0,
                    phase: idx as u8,
                },
            );
            clock.advance(cycles);
            phase_cycles[idx] = cycles;
        };

        // 1. Quarantine: nothing enters while the compartment is torn.
        self.env.set_quarantined(compartment, true);
        phase(0, REBOOT_PHASE_BASE_CYCLES[0]);

        // 2. Fresh heap, same region / allocator policy / KASan state.
        self.env.reset_heap(compartment);
        phase(1, REBOOT_PHASE_BASE_CYCLES[1]);

        // 3. Drop thread stacks; replacements map lazily, epoch-tagged.
        let stacks_dropped = self.sched.reset_compartment_stacks(compartment);
        phase(
            2,
            REBOOT_PHASE_BASE_CYCLES[2] + REBOOT_STACK_CYCLES * stacks_dropped as u64,
        );

        // 4. Replay entry resolution: every registered entry point of
        //    every component homed here must still be CFI-legal.
        let mut entries_replayed = 0usize;
        for (id, component) in self.env.registry().iter() {
            if self.env.compartment_of(id) != compartment {
                continue;
            }
            for entry in &component.entry_points {
                let target = self.env.resolve(id, entry);
                debug_assert!(
                    self.env.entries().is_legal(compartment, target.entry),
                    "microreboot must not widen or lose the entry surface"
                );
                entries_replayed += 1;
            }
        }
        phase(
            3,
            REBOOT_PHASE_BASE_CYCLES[3] + REBOOT_ENTRY_CYCLES * entries_replayed as u64,
        );

        // 5. Release: fresh budget window, quarantine lifted.
        self.env.reset_budget_usage_of(compartment);
        self.env.set_quarantined(compartment, false);
        phase(4, REBOOT_PHASE_BASE_CYCLES[4]);

        let latency_cycles = clock.now() - at_cycle;
        tracer.record(
            clock.now(),
            EventKind::RebootEnd {
                compartment: compartment.0,
                latency: latency_cycles,
            },
        );
        tracer.recovery_latency().record(latency_cycles);

        *self
            .reboot_counts
            .borrow_mut()
            .entry(compartment.0)
            .or_insert(0) += 1;
        let report = RecoveryReport {
            compartment,
            compartment_name: self.env.domain(compartment).name.to_string(),
            trigger,
            at_cycle,
            stacks_dropped,
            entries_replayed,
            latency_cycles,
            phase_cycles,
        };
        self.reports.borrow_mut().push(report.clone());
        report
    }

    /// Every recovery performed so far, in order.
    pub fn reports(&self) -> Vec<RecoveryReport> {
        self.reports.borrow().clone()
    }
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("triggers", &Self::DEFAULT_TRIGGERS)
            .field("recoveries", &self.reports.borrow().len())
            .finish()
    }
}
