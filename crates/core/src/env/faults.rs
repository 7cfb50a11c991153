//! The fault log: a bounded ring of the faults observed through
//! [`Env::observe`], oldest first — the attack-visible introspection
//! surface of the adversarial suite and the supervisor's trigger source.
//! Multi-fault attack runs and recovery sequences stay auditable;
//! recording charges no cycles.

use flexos_machine::fault::{Fault, FaultKind};
use flexos_machine::trace::EventKind;

use super::Env;
use crate::component::ComponentId;

/// Capacity of the observed-fault ring: enough to audit a multi-fault
/// attack run or a recovery sequence without unbounded growth (overflow
/// drops the oldest).
pub const FAULT_RING_CAP: usize = 8;

impl Env {
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
}
