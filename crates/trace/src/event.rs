//! The typed trace events and their encoding conventions.
//!
//! Events are deliberately *id-shaped*: compartments, components,
//! entries, gate kinds, fault kinds, and threads all appear as the raw
//! integer handles the simulator already uses on its hot paths
//! (`CompartmentId(u8)`, `ComponentId(u16)`, `EntryId(u32)`, enum
//! discriminants). Nothing string-shaped is touched while recording —
//! name resolution happens once, at export time, through a
//! caller-supplied [`crate::chrome::NameTable`]. That keeps this crate
//! dependency-free (it sits *below* the machine) and keeps recording a
//! couple of `Cell` writes.

/// Sentinel compartment id meaning "every compartment" (image-wide
/// budget-window resets).
pub const ALL_COMPARTMENTS: u8 = u8::MAX;

/// Sentinel thread id for "no thread" (the first dispatch has no
/// outgoing context).
pub const NO_THREAD: u32 = u32::MAX;

/// Sentinel fault/trigger code for "none" (operator-initiated
/// microreboots have no triggering fault).
pub const NO_TRIGGER: u8 = u8::MAX;

/// Budget resource codes carried by [`EventKind::BudgetCharge`] /
/// [`EventKind::BudgetRefusal`].
pub mod resource {
    /// Live private-heap bytes (a quota).
    pub const HEAP_BYTES: u8 = 0;
    /// Compute + initiated-gate cycles per accounting window.
    pub const CYCLES: u8 = 1;
    /// Cross-compartment calls initiated per window.
    pub const CROSSINGS: u8 = 2;

    /// Stable display name of a resource code.
    pub(crate) fn name(code: u8) -> &'static str {
        match code {
            HEAP_BYTES => "heap-bytes",
            CYCLES => "cycles",
            CROSSINGS => "crossings",
            _ => "unknown-resource",
        }
    }
}

/// The five supervisor microreboot phases, in state-machine order;
/// [`EventKind::RebootPhase::phase`] indexes this table.
pub const REBOOT_PHASES: [&str; 5] = [
    "quarantine",
    "heap-reset",
    "stack-teardown",
    "entry-replay",
    "release",
];

/// One typed trace event. Every variant is plain-old-data; the whole
/// enum is `Copy` so ring writes are a memcpy into preallocated
/// storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A cross-compartment gate was entered: `from` called `entry` of
    /// `to` through the gate kind `gate`, paying `cost` round-trip
    /// cycles. Stamped *before* the gate cost is charged, so the span
    /// `[at, at + cost]` is attributable gate overhead.
    GateEnter {
        /// Caller compartment.
        from: u8,
        /// Callee compartment.
        to: u8,
        /// Interned entry-point id (`EntryId.0`).
        entry: u32,
        /// Gate kind discriminant (`GateKind::index()`).
        gate: u8,
        /// Pre-computed round-trip gate cost in cycles.
        cost: u32,
    },
    /// The matching return of a [`EventKind::GateEnter`]; stamped when
    /// the callee's closure finished, before the caller context is
    /// restored.
    GateExit {
        /// Caller compartment (same as the enter event).
        from: u8,
        /// Callee compartment.
        to: u8,
        /// Interned entry-point id.
        entry: u32,
    },
    /// A fault was observed (via `Env::observe`) while `component` was
    /// executing. `fault` is the `FaultKind` discriminant.
    IsolationFault {
        /// The component that raised the fault.
        component: u16,
        /// `FaultKind as u8`.
        fault: u8,
    },
    /// A budgeted compartment was charged `amount` of `resource` in the
    /// current accounting window.
    BudgetCharge {
        /// The charged compartment.
        compartment: u8,
        /// [`resource`] code.
        resource: u8,
        /// Units charged (cycles, bytes, or crossings).
        amount: u64,
    },
    /// An operation was refused with `BudgetExceeded`: granting it
    /// would have pushed `resource` usage to `would`, past `limit`.
    BudgetRefusal {
        /// The over-budget compartment.
        compartment: u8,
        /// [`resource`] code.
        resource: u8,
        /// Usage the refused operation would have reached.
        would: u64,
        /// The configured limit.
        limit: u64,
    },
    /// A fresh accounting window was opened ([`ALL_COMPARTMENTS`] for
    /// the image-wide reset, a specific id for the supervisor's
    /// post-reboot reset).
    BudgetWindowReset {
        /// The compartment whose window was reset.
        compartment: u8,
    },
    /// A private-heap allocation succeeded: `bytes` granted, `live`
    /// bytes now live in the compartment's heap (the running value
    /// whose maximum is the live-bytes high-water mark).
    HeapAlloc {
        /// The allocating compartment.
        compartment: u8,
        /// Bytes granted (allocator-rounded block size).
        bytes: u64,
        /// Live bytes after the allocation.
        live: u64,
    },
    /// A private-heap block was freed.
    HeapFree {
        /// The freeing compartment.
        compartment: u8,
        /// Bytes credited back.
        bytes: u64,
        /// Live bytes after the free.
        live: u64,
    },
    /// The scheduler dispatched a different thread ([`NO_THREAD`] when
    /// nothing was running before).
    CtxSwitch {
        /// Previously running thread.
        from: u32,
        /// Newly dispatched thread.
        to: u32,
    },
    /// A frame was queued on the NIC TX ring.
    NicEnqueue {
        /// Frame length in bytes.
        frame_len: u32,
    },
    /// A frame was taken off the NIC RX ring by the stack.
    NicDequeue {
        /// Frame length in bytes.
        frame_len: u32,
    },
    /// A supervisor microreboot began ([`NO_TRIGGER`] for
    /// operator-initiated reboots).
    RebootStart {
        /// The compartment being rebooted.
        compartment: u8,
        /// `FaultKind as u8` of the triggering fault.
        trigger: u8,
    },
    /// A microreboot phase began; `phase` indexes [`REBOOT_PHASES`].
    RebootPhase {
        /// The compartment being rebooted.
        compartment: u8,
        /// Phase ordinal (0–4).
        phase: u8,
    },
    /// The microreboot finished; `latency` is the whole outage window
    /// in virtual cycles.
    RebootEnd {
        /// The rebooted compartment.
        compartment: u8,
        /// End-to-end recovery latency.
        latency: u64,
    },
    /// A cross-core SMP surcharge was paid on the recording core's
    /// clock; `kind` indexes `smp_charge::NAMES`. Stamped *after* the
    /// charge, so the span `[at - cost, at]` is attributable cross-core
    /// overhead. Only multi-core machines emit these.
    SmpCharge {
        /// Charge kind code (`smp_charge`).
        kind: u8,
        /// Cycles charged.
        cost: u32,
    },
}

/// Charge-kind codes carried by [`EventKind::SmpCharge`] (mirrors
/// `flexos_machine::smp::charge` — this crate sits below the machine).
pub(crate) mod smp_charge {
    /// Stable display names, indexed by charge code: 0 is the
    /// cross-core remote-gate (doorbell/IPI) surcharge, 1 shared-heap
    /// contention, 2 shared-NIC-ring contention.
    pub(crate) const NAMES: [&str; 3] = ["ipi", "heap-contention", "ring-contention"];

    /// Stable display name of a charge code.
    pub(crate) fn name(code: u8) -> &'static str {
        NAMES
            .get(code as usize)
            .copied()
            .unwrap_or("unknown-smp-charge")
    }
}

/// One recorded event: a virtual-clock stamp, the recording core, and
/// the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual cycle (on the recording core's clock) at which the event
    /// was recorded.
    pub at: u64,
    /// Core whose clock stamped the event (always 0 on single-core
    /// machines).
    pub(crate) core: u8,
    /// What happened.
    pub(crate) kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_pod() {
        // The ring preallocates capacity × this; keep it cache-friendly.
        assert!(std::mem::size_of::<Event>() <= 40);
    }

    #[test]
    fn resource_names_are_stable() {
        assert_eq!(resource::name(resource::HEAP_BYTES), "heap-bytes");
        assert_eq!(resource::name(resource::CYCLES), "cycles");
        assert_eq!(resource::name(resource::CROSSINGS), "crossings");
        assert_eq!(resource::name(99), "unknown-resource");
    }
}
