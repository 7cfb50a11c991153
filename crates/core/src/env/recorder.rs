//! The hardening recorder: what each component's hardening flags add to
//! a run's measured window, counted while the window runs.
//!
//! Hardening adds instrumentation charges to an event sequence it does
//! not change. Each flag multiplies one count of what its component
//! does:
//!
//! * UBSan — the `alu_ops` of its [`Work`];
//! * stack protector — its `frames`, plus every gate entry and direct
//!   call into it;
//! * CFI — its `indirect_calls`, plus every gate entry into it;
//! * KASan — its `mem_accesses`, plus every access it makes to its own
//!   compartment's heap while that heap runs KASan (the shadow check of
//!   `Env::mem_read` and friends).
//!
//! So while the heaps' KASan state stays put, one run prices every
//! other hardening assignment: its cycles minus what its own flags
//! added, plus what the other assignment's flags would add. The
//! recorder counts those four quantities per component and nothing
//! else; with it off, each site pays one `Cell` read and branch, the
//! way the tracer's flag is checked.
//!
//! A run is unfit to price from when the counts do not describe the
//! other assignments' runs. [`Env::record_hardening`] then returns no
//! counts: the image traces or has a budget (a charge moves budget
//! usage too), the run observed a fault or a KASan report, or an access
//! by a component whose own KASan flag is off would have raised a report
//! had the flag been on. The last is evaluated at the access, against
//! the heap's shadow, without charging it.

use std::cell::{Cell, RefCell};

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

use super::{Env, Work};
use crate::component::ComponentId;

/// Per component, indexed by [`ComponentId`]: `[cfi, kasan, ubsan,
/// stack_protector]`, the field order of
/// [`crate::hardening::Hardening`].
type Rows = Vec<[u64; 4]>;

/// Per-component counts of what each hardening flag multiplies, and
/// whether they are being kept. They are sized when a recording starts,
/// so an image nobody records pays nothing for them.
#[derive(Debug, Default)]
pub(super) struct Recorder {
    on: Cell<bool>,
    /// An unflagged access would have raised a KASan report.
    void: Cell<bool>,
    counts: RefCell<Rows>,
}

impl Recorder {
    #[inline]
    pub(super) fn is_on(&self) -> bool {
        self.on.get()
    }

    fn add(&self, comp: ComponentId, counts: [u64; 4]) {
        let mut all = self.counts.borrow_mut();
        for (sum, c) in all[comp.0 as usize].iter_mut().zip(counts) {
            *sum += c;
        }
    }

    /// `work` done by `comp`.
    pub(super) fn work(&self, comp: ComponentId, work: Work) {
        let counts = [
            work.indirect_calls,
            work.mem_accesses,
            work.alu_ops,
            work.frames,
        ];
        self.add(comp, counts);
    }

    /// A call into `comp`: a direct call (stack protector) or a gate
    /// entry (stack protector and CFI).
    pub(super) fn entry(&self, comp: ComponentId, gate: bool) {
        self.add(comp, [u64::from(gate), 0, 0, 1]);
    }

    /// Starts the measured window: what came before it is not counted.
    pub(super) fn restart(&self) {
        self.counts.borrow_mut().fill([0; 4]);
    }
}

impl Env {
    /// Counts an access of the current component to its compartment's
    /// KASan heap, and voids the recording when the component's own flag
    /// is off and the shadow would have reported the access.
    pub(super) fn record_heap_access(&self, comp: ComponentId, addr: Addr, len: u64) {
        self.recorder.add(comp, [0, 1, 0, 0]);
        if !self.hardening[comp.0 as usize].kasan {
            let dom = self.compartment_of(comp);
            if self.heaps[dom.0 as usize]
                .borrow()
                .kasan_verdict(addr, len)
                .is_err()
            {
                self.recorder.void.set(true);
            }
        }
    }

    /// Runs `f` with the hardening recorder on and returns, beside `f`'s
    /// output, what each hardening flag of each component added to `f`'s
    /// measured window: one `[cfi, kasan, ubsan, stack_protector]` row of
    /// cycles per component, indexed by [`ComponentId`], whether the flag
    /// is on or off here (see the module docs). The window opens at the
    /// last [`Env::reset_counters`] and closes when `f` returns.
    ///
    /// The rows are `None` when the run is unfit to price from: the image
    /// traces or has a budget, or the run observed a fault, counted a
    /// KASan report, or made an access that a KASan-hardened component
    /// would have had reported.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns.
    pub fn record_hardening<R>(
        &self,
        f: impl FnOnce() -> Result<R, Fault>,
    ) -> Result<(R, Option<Rows>), Fault> {
        let fit = || !self.budget_enabled() && !self.machine.tracer().is_enabled();
        if !fit() {
            return f().map(|out| (out, None));
        }
        *self.recorder.counts.borrow_mut() = vec![[0; 4]; self.hardening.len()];
        self.recorder.void.set(false);
        self.recorder.on.set(true);
        let out = f();
        self.recorder.on.set(false);
        let mut rows = self.recorder.counts.take();
        let out = out?;
        let clean = fit()
            && !self.recorder.void.get()
            && self.fault_ring.borrow().is_empty()
            && self.total_alloc_stats().kasan_reports == 0;
        let cost = self.machine.cost();
        let price = [
            cost.cfi_check,
            cost.kasan_check,
            cost.ubsan_check,
            cost.stack_protector_frame,
        ];
        for row in &mut rows {
            for (count, p) in row.iter_mut().zip(price) {
                *count *= p;
            }
        }
        Ok((out, clean.then_some(rows)))
    }
}
