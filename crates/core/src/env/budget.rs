//! The budget ledger: every compartment's resource limits, its usage in
//! the current accounting window, its refusal count and its quarantine
//! bit (DESIGN.md "Resource budgets & recovery").
//!
//! * `heap_bytes` caps *live* private-heap bytes — a quota, not a
//!   meter: frees credit the counter back.
//! * `cycles` caps compute + initiated-gate cycles accumulated per
//!   accounting window ([`Env::reset_budget_usage`] opens a window).
//! * `crossings` caps cross-compartment calls *initiated* per window.
//!
//! Enforcement happens only at fallible points: `malloc`, the gate path,
//! and the explicit [`Env::check_budget`] / [`Env::compute_checked`]
//! preemption points — `compute` itself stays infallible. A refusal never
//! advances the clock (same discipline as CFI rejections). This module is
//! the only code that compares usage against a limit, counts a refusal
//! or builds [`Fault::BudgetExceeded`]; every charge site calls it in one
//! line, and on an image with no budget each call is one predictable
//! branch that charges nothing.
//!
//! Quarantine is containment, not accounting: a quarantined callee
//! refuses cross-domain entry whether or not the image has budgets. The
//! gate tests one flag for "budgets or quarantine".

use std::cell::Cell;

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;
use flexos_machine::trace::{event as trace_event, EventKind};

use super::{Env, Work};
use crate::compartment::{CompartmentId, ResourceBudget};

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

/// The budgeted resources, numbered by their trace-event codes.
#[derive(Debug, Clone, Copy)]
enum Resource {
    HeapBytes = trace_event::resource::HEAP_BYTES as isize,
    Cycles = trace_event::resource::CYCLES as isize,
    Crossings = trace_event::resource::CROSSINGS as isize,
}

/// The name a [`Fault::BudgetExceeded`] carries, per [`Resource`].
const RESOURCE_NAMES: [&str; 3] = ["heap-bytes", "cycles", "crossings"];

/// All budget and quarantine state of one image; per-compartment arrays
/// are indexed by [`Resource`].
#[derive(Debug)]
pub(super) struct Ledger {
    /// `true` if any compartment carries a budget.
    enabled: bool,
    /// `enabled`, or any compartment quarantined.
    checks: Cell<bool>,
    limits: Vec<[Option<u64>; 3]>,
    used: Vec<[Cell<u64>; 3]>,
    refusals: Vec<Cell<u64>>,
    quarantined: Cell<u32>,
}

impl Ledger {
    /// A ledger over the resolved per-compartment budgets.
    pub(super) fn new(budgets: impl ExactSizeIterator<Item = ResourceBudget>) -> Ledger {
        let n = budgets.len();
        let limits: Vec<_> = budgets
            .map(|b| [b.heap_bytes, b.cycles, b.crossings])
            .collect();
        let enabled = limits.iter().flatten().any(Option::is_some);
        Ledger {
            enabled,
            checks: Cell::new(enabled),
            limits,
            used: (0..n).map(|_| Default::default()).collect(),
            refusals: (0..n).map(|_| Cell::new(0)).collect(),
            quarantined: Cell::new(0),
        }
    }
}

impl Env {
    /// `true` if any compartment in this image carries a resource budget.
    pub fn budget_enabled(&self) -> bool {
        self.budget.enabled
    }

    /// Usage snapshot of a compartment within the current accounting
    /// window. All-zero on images with budgets disabled (nothing is
    /// accumulated there).
    pub fn budget_usage(&self, comp: CompartmentId) -> BudgetUsage {
        let [heap_bytes, cycles, crossings] =
            self.budget.used[comp.0 as usize].each_ref().map(Cell::get);
        BudgetUsage {
            heap_bytes,
            cycles,
            crossings,
        }
    }

    /// Operations refused with `BudgetExceeded` against a compartment.
    pub fn budget_refusals_of(&self, comp: CompartmentId) -> u64 {
        self.budget.refusals[comp.0 as usize].get()
    }

    /// Opens a fresh accounting window: zeroes every compartment's
    /// cycle/crossing usage and refusal counters. Heap usage is *live
    /// bytes* and deliberately survives the reset — a quota does not
    /// forgive memory still held.
    pub fn reset_budget_usage(&self) {
        for used in &self.budget.used {
            used[Resource::Cycles as usize].set(0);
            used[Resource::Crossings as usize].set(0);
        }
        for c in &self.budget.refusals {
            c.set(0);
        }
        if self.budget.enabled {
            self.record(EventKind::BudgetWindowReset {
                compartment: trace_event::ALL_COMPARTMENTS,
            });
        }
    }

    /// Opens a fresh accounting window for *one* compartment — the
    /// supervisor's post-microreboot reset. Unlike the image-wide
    /// [`Env::reset_budget_usage`] this also zeroes heap usage: the
    /// reboot just discarded every live allocation.
    pub fn reset_budget_usage_of(&self, comp: CompartmentId) {
        for c in &self.budget.used[comp.0 as usize] {
            c.set(0);
        }
        self.budget.refusals[comp.0 as usize].set(0);
        self.record(EventKind::BudgetWindowReset {
            compartment: comp.0,
        });
    }

    /// Quarantines (or releases) a compartment: while quarantined, every
    /// cross-compartment gate entry into it is refused with
    /// [`Fault::Quarantined`] — the supervisor's containment primitive.
    pub fn set_quarantined(&self, comp: CompartmentId, quarantined: bool) {
        let bit = 1u32 << comp.0;
        let mask = self.budget.quarantined.get();
        let mask = if quarantined { mask | bit } else { mask & !bit };
        self.budget.quarantined.set(mask);
        self.budget.checks.set(self.budget.enabled || mask != 0);
    }

    /// `true` while `comp` is quarantined.
    pub fn is_quarantined(&self, comp: CompartmentId) -> bool {
        self.budget.quarantined.get() & (1u32 << comp.0) != 0
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
        if !self.budget.enabled {
            return Ok(());
        }
        self.admit(self.compartment_of(self.cur.get()), Resource::Cycles, 0)
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

    /// Admits a cross-domain gate entry from `from` into `to` at gate
    /// cost `cost`: refuses a quarantined callee, then a caller over its
    /// crossing or cycle budget, and charges the caller one crossing and
    /// `cost` cycles.
    #[inline(always)]
    pub(super) fn admit_crossing(
        &self,
        from: CompartmentId,
        to: CompartmentId,
        cost: u64,
    ) -> Result<(), Fault> {
        if !self.budget.checks.get() {
            return Ok(());
        }
        if self.is_quarantined(to) {
            return Err(Fault::Quarantined {
                compartment: self.domains[to.0 as usize].name.to_string(),
            });
        }
        if !self.budget.enabled {
            return Ok(());
        }
        self.admit(from, Resource::Crossings, 1)?;
        self.admit(from, Resource::Cycles, cost)?;
        let cycles = self.used(from, Resource::Cycles);
        cycles.set(cycles.get() + cost);
        self.charge(from, Resource::Crossings, 1);
        Ok(())
    }

    /// Accumulates `cycles` against a compartment's window.
    #[inline]
    pub(super) fn charge_cycles(&self, dom: CompartmentId, cycles: u64) {
        if self.budget.enabled {
            self.charge(dom, Resource::Cycles, cycles);
        }
    }

    /// Refuses a `size`-byte allocation that would push `dom`'s live
    /// heap bytes over its budget.
    #[inline]
    pub(super) fn admit_malloc(&self, dom: CompartmentId, size: u64) -> Result<(), Fault> {
        if !self.budget.enabled {
            return Ok(());
        }
        self.admit(dom, Resource::HeapBytes, size)
    }

    /// Charges the block the allocator granted at `addr` (its rounded
    /// size, so `free` credits the same amount back).
    #[inline]
    pub(super) fn charge_malloc(&self, dom: CompartmentId, addr: Addr, size: u64) {
        if self.budget.enabled {
            let granted = self.heaps[dom.0 as usize].borrow().size_of(addr);
            self.charge(dom, Resource::HeapBytes, granted.unwrap_or(size));
        }
    }

    /// Credits `bytes` freed back to `dom`'s live heap bytes.
    #[inline]
    pub(super) fn credit_free(&self, dom: CompartmentId, bytes: u64) {
        if self.budget.enabled {
            let c = self.used(dom, Resource::HeapBytes);
            c.set(c.get().saturating_sub(bytes));
        }
    }

    /// Forgets `dom`'s live heap bytes (its heap was just replaced).
    pub(super) fn forget_heap(&self, dom: CompartmentId) {
        if self.budget.enabled {
            self.used(dom, Resource::HeapBytes).set(0);
        }
    }

    fn used(&self, dom: CompartmentId, resource: Resource) -> &Cell<u64> {
        &self.budget.used[dom.0 as usize][resource as usize]
    }

    /// Errs, counting the refusal, if `dom`'s usage of `resource` plus
    /// `amount` exceeds its limit.
    #[inline]
    fn admit(&self, dom: CompartmentId, resource: Resource, amount: u64) -> Result<(), Fault> {
        let Some(limit) = self.budget.limits[dom.0 as usize][resource as usize] else {
            return Ok(());
        };
        let would = self.used(dom, resource).get() + amount;
        if would <= limit {
            return Ok(());
        }
        Err(self.refuse(dom, resource, would, limit))
    }

    #[cold]
    fn refuse(&self, dom: CompartmentId, resource: Resource, would: u64, limit: u64) -> Fault {
        let c = &self.budget.refusals[dom.0 as usize];
        c.set(c.get() + 1);
        self.record(EventKind::BudgetRefusal {
            compartment: dom.0,
            resource: resource as u8,
            would,
            limit,
        });
        Fault::BudgetExceeded {
            compartment: self.domains[dom.0 as usize].name.to_string(),
            resource: RESOURCE_NAMES[resource as usize],
            used: would,
            limit,
        }
    }

    fn charge(&self, dom: CompartmentId, resource: Resource, amount: u64) {
        let c = self.used(dom, resource);
        c.set(c.get() + amount);
        self.record(EventKind::BudgetCharge {
            compartment: dom.0,
            resource: resource as u8,
            amount,
        });
    }

    /// Records a trace event at the current cycle.
    fn record(&self, event: EventKind) {
        self.machine
            .tracer()
            .record(self.machine.clock().now(), event);
    }
}
