//! Heap templates: what a run of simulated work did to the current
//! compartment's heap, recorded once and replayed onto an identical heap
//! instead of simulated again.
//!
//! A run that only allocates from the current compartment's private
//! heap, reads and writes inside that heap's region, and charges the
//! current core's clock has three effects: the heap's [`HeapState`]
//! after it, the region's bytes after it, and the cycles it charged.
//! Each is a function of what the run read — the heap's state, the
//! region's bytes, the running component's hardening and the machine's
//! cost model — and of the run's own inputs, which the caller keys on.
//! So when all of those are equal, the effects are equal, and writing
//! them down is the run.
//!
//! The region's bytes are the one input not compared directly: a
//! template applies only to a *blank* region (every page mapped,
//! readable and writable under the running compartment's PKRU, none
//! ever written — see `Memory::is_blank`). The bytes before are then
//! all zeros, the bytes after are the captured non-zero ones, and no
//! access inside the region could have faulted on rights.
//!
//! Nothing is recorded or replayed while the tracer is on (a replay
//! would drop the run's events) or while the image has any budget
//! (every compartment's usage counters move with a charge).

use std::sync::Arc;

use flexos_alloc::HeapState;
use flexos_machine::addr::{Addr, PAGE_SIZE};
use flexos_machine::cost::CostModel;
use flexos_machine::fault::Fault;
use flexos_machine::mem::PageImage;

use super::Env;
use crate::compartment::CompartmentId;
use crate::hardening::Hardening;

/// What one run did to the current compartment's heap (see the module
/// docs): immutable plain data, so it can be shared across threads and
/// replayed onto any image whose heap is where this one's was.
#[derive(Debug, PartialEq)]
pub struct HeapTemplate {
    region: (Addr, u64),
    hardening: Hardening,
    cost: CostModel,
    before: Arc<HeapState>,
    after: Arc<HeapState>,
    image: Arc<PageImage>,
    cycles: u64,
}

impl HeapTemplate {
    /// Host bytes the template occupies, roughly, counting the parts it
    /// shares with others as its own.
    pub fn host_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.before.host_bytes()
            + self.after.host_bytes()
            + self.image.host_bytes()
    }

    /// Points each part of this template that equals one of `other`'s at
    /// `other`'s copy, so a table keeps every distinct heap state and page
    /// image once: templates that differ only in hardening or allocator
    /// share most of their bytes.
    pub fn share_with(&mut self, other: &HeapTemplate) {
        for mine in [&mut self.before, &mut self.after] {
            for theirs in [&other.before, &other.after] {
                share(mine, theirs);
            }
        }
        share(&mut self.image, &other.image);
    }
}

fn share<T: PartialEq>(mine: &mut Arc<T>, theirs: &Arc<T>) {
    if !Arc::ptr_eq(mine, theirs) && **mine == **theirs {
        *mine = Arc::clone(theirs);
    }
}

impl Env {
    /// The current compartment and its heap region, if a template may be
    /// recorded or replayed here now (see the module docs); the region's
    /// blankness is checked apart, by `is_blank`.
    fn template_site(&self) -> Option<(CompartmentId, (Addr, u64))> {
        if self.budget_enabled() || self.machine.tracer().is_enabled() {
            return None;
        }
        let dom = self.compartment_of(self.cur.get());
        let heap = self.heaps[dom.0 as usize].borrow();
        Some((dom, (heap.region().base(), heap.region().len())))
    }

    /// `true` if the heap region is blank under the current PKRU.
    fn is_blank(&self, (base, len): (Addr, u64)) -> bool {
        self.machine
            .memory()
            .is_blank(base, len / PAGE_SIZE as u64, &self.pkru.get())
    }

    /// Runs `f` and, when the current compartment's heap allows it,
    /// records what `f` did to it as a [`HeapTemplate`].
    ///
    /// `f` must touch nothing but that heap, its region and the current
    /// core's clock, and what it does must follow from them, the running
    /// component's hardening, the cost model and what the caller keys the
    /// template on.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; nothing is recorded then.
    pub fn record_heap_template<R>(
        &self,
        f: impl FnOnce() -> Result<R, Fault>,
    ) -> Result<(R, Option<HeapTemplate>), Fault> {
        let site = self
            .template_site()
            .filter(|&(_, region)| self.is_blank(region));
        let heap = |dom: CompartmentId| self.heaps[dom.0 as usize].borrow();
        let before = site.map(|(dom, _)| Arc::new(heap(dom).state().clone()));
        let (core, component) = (self.machine.current_core(), self.cur.get());
        let start = self.machine.clock().now();
        let out = f()?;
        debug_assert_eq!(
            (core, component),
            (self.machine.current_core(), self.cur.get()),
            "a recorded run stays on its core and component"
        );
        let template = site
            .zip(before)
            .map(|((dom, region), before)| HeapTemplate {
                region,
                hardening: self.hardening[component.0 as usize],
                cost: self.machine.cost().clone(),
                before,
                after: Arc::new(heap(dom).state().clone()),
                image: Arc::new(
                    self.machine
                        .memory()
                        .capture(region.0, region.1 / PAGE_SIZE as u64),
                ),
                cycles: self.machine.clock().now() - start,
            });
        Ok((out, template))
    }

    /// Replays `template` if it applies to the current compartment's heap
    /// now — same region, blank, in the recorded state, same hardening
    /// and cost model — and returns whether it did. A replay leaves the
    /// heap, its region and the current core's clock exactly as the
    /// recorded run would have.
    pub fn replay_heap_template(&self, template: &HeapTemplate) -> bool {
        // Cheapest comparisons first: a table holds several templates,
        // and only the one that matches pays for the state compare and
        // the blankness scan.
        let Some((dom, region)) = self.template_site() else {
            return false;
        };
        if region != template.region
            || self.hardening[self.cur.get().0 as usize] != template.hardening
            || *self.machine.cost() != template.cost
        {
            return false;
        }
        let mut heap = self.heaps[dom.0 as usize].borrow_mut();
        if *heap.state() != *template.before || !self.is_blank(region) {
            return false;
        }
        heap.set_state(&template.after);
        self.machine.memory_mut().restore(&template.image);
        self.machine.clock().advance(template.cycles);
        true
    }
}
