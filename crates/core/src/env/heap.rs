//! Heaps: one private heap per compartment plus the shared
//! communication heap (§4.1 data ownership), each budget charge through
//! the ledger.

use std::cell::RefCell;
use std::rc::Rc;

use flexos_alloc::{AllocStats, Heap};
use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;
use flexos_machine::smp;
use flexos_machine::trace::EventKind;

use super::Env;
use crate::compartment::CompartmentId;

impl Env {
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
        self.admit_malloc(dom, size)?;
        let addr = self.heaps[dom.0 as usize].borrow_mut().malloc(size)?;
        self.charge_malloc(dom, addr, size);
        let tracer = self.machine.tracer();
        if tracer.is_enabled() {
            let heap = self.heaps[dom.0 as usize].borrow();
            let s = heap.stats();
            tracer.record(
                self.machine.clock().now(),
                EventKind::HeapAlloc {
                    compartment: dom.0,
                    bytes: heap.size_of(addr).unwrap_or(size),
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
        let heap = &self.heaps[dom.0 as usize];
        let tracing = self.machine.tracer().is_enabled();
        let credit = (self.budget_enabled() || tracing)
            .then(|| heap.borrow().size_of(addr))
            .flatten();
        heap.borrow_mut().free(addr)?;
        if let Some(bytes) = credit {
            self.credit_free(dom, bytes);
            if tracing {
                let s = heap.borrow().stats();
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
        self.forget_heap(comp);
    }

    /// Allocator statistics of one compartment's private heap — the
    /// per-compartment live-bytes high-water surface behind
    /// `TransformReport::heap_highwater`.
    pub fn heap_stats_of(&self, comp: CompartmentId) -> AllocStats {
        self.heaps[comp.0 as usize].borrow().stats()
    }

    /// Aggregated allocator statistics across every heap in the image
    /// (Figure 10's allocator-behaviour accounting).
    pub fn total_alloc_stats(&self) -> AllocStats {
        let mut total = AllocStats::default();
        let mut add = |s: AllocStats| {
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
}
