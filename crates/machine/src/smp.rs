//! Simulated SMP: virtual CPUs and cross-core contention tracking.
//!
//! The machine models N vCPUs on **one host thread**. Each [`VCpu`] owns
//! its own [`CycleClock`], [`Pkru`], and parked [`RegisterFile`]; exactly
//! one vCPU is *current* at any host instant, and everything that charges
//! cycles charges the current vCPU's clock. Multiplexing is the caller's
//! job (workload drivers, the sweep engine) and is required to be
//! deterministic: advance whichever runnable core has the **lowest
//! virtual clock**, breaking ties by the **lowest core id**. Because the
//! interleaving is a pure function of the virtual clocks — which are
//! themselves pure functions of the configuration and seed — multi-core
//! runs are bit-reproducible at any host worker count, exactly like the
//! single-core simulator.
//!
//! Cross-core costs come in two flavours (`CostModel::remote_gate_ipi`,
//! `CostModel::contention_per_core`):
//!
//! * **Remote gates** — a cross-compartment call whose callee compartment
//!   is *homed* on a different core pays a doorbell + cache-line-handoff
//!   surcharge on top of the mechanism's gate cost.
//! * **Contention** — shared-heap and shared-NIC-ring access pays one
//!   cache-line-transfer surcharge per *other* core that touched the same
//!   region within the current accounting window (a coarse window over
//!   the toucher's own clock, `WINDOW_SHIFT`).
//!
//! With one core both charges vanish behind a single predictable branch,
//! which is what keeps `cores=1` byte-identical to the pre-SMP machine.

use std::cell::Cell;

use crate::clock::CycleClock;
use crate::cpu::RegisterFile;
use crate::key::Pkru;

/// Home-core value meaning "not pinned to any core": calls into the
/// compartment never pay the remote-gate surcharge.
pub const ANY_CORE: u8 = u8::MAX;

/// Contention slot for the shared communication heap.
pub const SHARED_HEAP: usize = 0;
/// Contention slot for the shared NIC rx/tx rings.
pub const NIC_RING: usize = 1;
/// Number of tracked contention slots.
pub(crate) const NUM_SLOTS: usize = 2;

/// Width of the contention accounting window in clock bits: two touches
/// belong to the same window when `now >> WINDOW_SHIFT` agrees (4096
/// cycles ≈ 1.9 µs at 2.2 GHz — about the residency of a contended line
/// in a remote cache before it migrates back).
pub(crate) const WINDOW_SHIFT: u32 = 12;

/// Discriminants of the `SmpCharge` trace event's `kind` field.
pub(crate) mod charge {
    /// Cross-core remote-gate (doorbell/IPI) surcharge.
    pub(crate) const IPI: u8 = 0;
    /// Shared-heap contention surcharge.
    pub(crate) const HEAP: u8 = 1;
    /// Shared-NIC-ring contention surcharge.
    pub(crate) const RING: u8 = 2;
}

/// One virtual CPU: a private clock plus the parked per-core CPU state.
///
/// While a core is current, the *live* PKRU and register file are held by
/// the runtime (`flexos_core::Env`); `pkru`/`regs` here hold the state of
/// cores that are switched *out*, and are parked/restored on every core
/// switch.
#[derive(Debug, Default)]
pub struct VCpu {
    /// This core's virtual-cycle clock.
    pub clock: CycleClock,
    /// PKRU parked while the core is switched out.
    pub pkru: Cell<Pkru>,
    /// Register file parked while the core is switched out.
    pub regs: Cell<RegisterFile>,
}

impl VCpu {
    /// A vCPU in the boot state: clock at zero, all-access PKRU, zeroed
    /// registers.
    pub(crate) fn new() -> VCpu {
        VCpu::default()
    }
}

/// Windowed sharer tracking for the contended shared regions.
///
/// Each slot remembers `(window_id, core_mask)` in a single `Cell`: a
/// touch in a fresh window resets the mask to just the toucher, a touch
/// in the current window returns how many *other* cores are already in
/// the mask — the multiplier for the contention surcharge. Plain `Cell`
/// traffic, zero host allocation, like every other hot-path counter.
#[derive(Debug)]
pub(crate) struct Contention {
    slots: [Cell<(u64, u32)>; NUM_SLOTS],
}

impl Default for Contention {
    fn default() -> Self {
        Contention {
            slots: [Cell::new((0, 0)), Cell::new((0, 0))],
        }
    }
}

impl Contention {
    /// A tracker with every slot untouched.
    pub(crate) fn new() -> Contention {
        Contention::default()
    }

    /// Records that `core` touched `slot` at time `now` (on its own
    /// clock) and returns the number of *other* cores that touched the
    /// same slot within the same window.
    #[inline]
    pub(crate) fn touch(&self, slot: usize, core: usize, now: u64) -> u32 {
        let window = now >> WINDOW_SHIFT;
        let bit = 1u32 << core;
        let (stored_window, mask) = self.slots[slot].get();
        let mask = if stored_window == window { mask } else { 0 };
        self.slots[slot].set((window, mask | bit));
        (mask & !bit).count_ones()
    }

    /// Forgets all sharer state (between benchmark phases).
    pub(crate) fn reset(&self) {
        for s in &self.slots {
            s.set((0, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcpu_boots_cold() {
        let v = VCpu::new();
        assert_eq!(v.clock.now(), 0);
        assert_eq!(v.pkru.get(), Pkru::ALL_ACCESS);
        assert_eq!(v.regs.get(), crate::cpu::RegisterFile::new());
    }

    #[test]
    fn contention_counts_other_cores_in_window() {
        let c = Contention::new();
        // First toucher of a window pays nothing.
        assert_eq!(c.touch(SHARED_HEAP, 0, 100), 0);
        // Same core again: still no *other* sharers.
        assert_eq!(c.touch(SHARED_HEAP, 0, 200), 0);
        // A second core in the same window sees one other sharer...
        assert_eq!(c.touch(SHARED_HEAP, 1, 300), 1);
        // ...and now the first core sees the second.
        assert_eq!(c.touch(SHARED_HEAP, 0, 400), 1);
        // A third core sees both.
        assert_eq!(c.touch(SHARED_HEAP, 2, 500), 2);
    }

    #[test]
    fn fresh_window_resets_the_mask() {
        let c = Contention::new();
        assert_eq!(c.touch(NIC_RING, 0, 10), 0);
        assert_eq!(c.touch(NIC_RING, 1, 20), 1);
        // One full window later the sharer set starts over.
        let later = 10 + (1 << WINDOW_SHIFT);
        assert_eq!(c.touch(NIC_RING, 1, later), 0);
        assert_eq!(c.touch(NIC_RING, 0, later + 5), 1);
    }

    #[test]
    fn slots_are_independent() {
        let c = Contention::new();
        assert_eq!(c.touch(SHARED_HEAP, 0, 50), 0);
        assert_eq!(c.touch(SHARED_HEAP, 1, 60), 1);
        // The ring slot has not been touched by anyone yet.
        assert_eq!(c.touch(NIC_RING, 1, 70), 0);
    }

    #[test]
    fn reset_forgets_sharers() {
        let c = Contention::new();
        c.touch(SHARED_HEAP, 0, 50);
        c.reset();
        assert_eq!(c.touch(SHARED_HEAP, 1, 60), 0);
    }
}
