//! `flexos_trace` — zero-alloc virtual-clock tracing, the metrics
//! registry, and cycle-attribution profiles for the FlexOS simulator.
//!
//! This crate sits *below* the machine: it knows nothing about
//! compartments, gates or the clock beyond the raw integers the
//! [`event::EventKind`] variants carry. The machine owns one
//! [`Tracer`]; every layer above reaches it through
//! `machine.tracer()` and records id-shaped events stamped with the
//! virtual cycle counter.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled is free.** The simulator's figures are pinned
//!    byte-for-byte and its hot path is pinned zero-alloc, so with
//!    tracing off, [`Tracer::record`] must cost one `Cell` read and a
//!    predictable branch — no allocation, no `RefCell`, no clock
//!    movement. Events never feed back into simulated time.
//! 2. **Enabled is bounded and alloc-free in steady state.** The ring
//!    preallocates its full capacity at [`Tracer::enable`] time and
//!    then overwrites the oldest event on overflow ([`Tracer::dropped`]
//!    counts the loss); recording never allocates.
//! 3. **Deterministic.** Events are a pure function of config + seed,
//!    so the exported JSON ([`chrome::chrome_trace_json`]), the folded
//!    profile ([`profile::attribute`]) and their FNV-1a digests are
//!    byte-identical across runs — observability doubles as a
//!    differential-testing oracle.

mod chrome;
pub mod event;
mod json;
mod metrics;
mod profile;

pub use chrome::{chrome_trace_json, fnv1a, NameTable};
use event::Event;
pub use event::EventKind;
pub use json::JsonStr;
use metrics::Histogram;
pub use metrics::Registry;
pub use profile::attribute;

use std::cell::{Cell, RefCell};

/// How a [`Tracer`] should behave once enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in events; the ring preallocates exactly this
    /// many slots up front and overwrites the oldest once full.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 64Ki events ≈ 2.5 MiB — enough for a reduced figure slice
        // plus a microreboot without wrapping.
        TraceConfig { capacity: 1 << 16 }
    }
}

/// The bounded event ring plus the built-in latency histograms. One
/// per machine; starts disabled and empty (no storage is committed
/// until [`Tracer::enable`]).
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: Cell<bool>,
    capacity: Cell<usize>,
    ring: RefCell<Vec<Event>>,
    /// Next write slot once the ring has wrapped.
    next: Cell<usize>,
    dropped: Cell<u64>,
    /// Core id stamped on recorded events; the machine retargets this
    /// on every core switch so `record` call sites stay unchanged.
    core: Cell<u8>,
    request_latency: Histogram,
    recovery_latency: Histogram,
}

impl Tracer {
    /// A disabled tracer with no storage committed.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Commits ring storage and turns recording on. Re-enabling with a
    /// different capacity reallocates; the ring is cleared either way.
    pub fn enable(&self, config: TraceConfig) {
        let cap = config.capacity.max(1);
        *self.ring.borrow_mut() = Vec::with_capacity(cap);
        self.capacity.set(cap);
        self.next.set(0);
        self.dropped.set(0);
        self.enabled.set(true);
    }

    /// Whether [`Tracer::record`] currently stores events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Records one event. Disabled: one `Cell` read and out. Enabled:
    /// a push into preallocated storage (or an overwrite of the oldest
    /// slot once full) — never an allocation.
    #[inline]
    pub fn record(&self, at: u64, kind: EventKind) {
        if !self.enabled.get() {
            return;
        }
        self.record_slow(at, kind);
    }

    #[cold]
    fn record_slow(&self, at: u64, kind: EventKind) {
        let core = self.core.get();
        let mut ring = self.ring.borrow_mut();
        let cap = self.capacity.get();
        if ring.len() < cap {
            ring.push(Event { at, core, kind });
        } else {
            let slot = self.next.get();
            ring[slot] = Event { at, core, kind };
            self.next.set((slot + 1) % cap);
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// Retargets the core id stamped on subsequent events (called by the
    /// machine on every simulated core switch; stays 0 on single-core
    /// machines).
    #[inline]
    pub fn set_core(&self, core: u8) {
        self.core.set(core);
    }

    /// Events recorded so far, oldest first (the ring is rotated into
    /// chronological order). Allocates — export path only.
    pub fn events(&self) -> Vec<Event> {
        let ring = self.ring.borrow();
        let split = self.next.get();
        let mut out = Vec::with_capacity(ring.len());
        out.extend_from_slice(&ring[split..]);
        out.extend_from_slice(&ring[..split]);
        out
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.borrow().len()
    }

    /// `true` when nothing has been recorded (or the ring was cleared).
    pub fn is_empty(&self) -> bool {
        self.ring.borrow().is_empty()
    }

    /// The built-in end-to-end request latency histogram (recorded by
    /// the workload harness around each measured batch).
    pub fn request_latency(&self) -> &Histogram {
        &self.request_latency
    }

    /// The built-in supervisor recovery latency histogram (one sample
    /// per microreboot).
    pub fn recovery_latency(&self) -> &Histogram {
        &self.recovery_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(at: u64) -> EventKind {
        EventKind::CtxSwitch {
            from: at as u32,
            to: at as u32 + 1,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new();
        t.record(1, tick(1));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_rotates_chronologically() {
        let t = Tracer::new();
        t.enable(TraceConfig { capacity: 4 });
        for at in 0..6 {
            t.record(at, tick(at));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
        let stamps: Vec<u64> = t.events().iter().map(|e| e.at).collect();
        assert_eq!(stamps, vec![2, 3, 4, 5]);
    }

    #[test]
    fn reenable_clears() {
        let t = Tracer::new();
        t.enable(TraceConfig { capacity: 4 });
        for at in 0..6 {
            t.record(at, tick(at));
        }
        assert_eq!((t.len(), t.dropped()), (4, 2));
        t.enable(TraceConfig { capacity: 4 });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn events_carry_the_recording_core() {
        let t = Tracer::new();
        t.enable(TraceConfig { capacity: 4 });
        t.record(1, tick(1));
        t.set_core(3);
        t.record(2, tick(2));
        t.set_core(0);
        t.record(3, tick(3));
        let cores: Vec<u8> = t.events().iter().map(|e| e.core).collect();
        assert_eq!(cores, vec![0, 3, 0]);
    }

    #[test]
    fn steady_state_recording_does_not_grow_capacity() {
        let t = Tracer::new();
        t.enable(TraceConfig { capacity: 8 });
        let cap_before = t.ring.borrow().capacity();
        for at in 0..100 {
            t.record(at, tick(at));
        }
        assert_eq!(t.ring.borrow().capacity(), cap_before);
    }
}
