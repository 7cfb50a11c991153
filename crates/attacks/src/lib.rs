//! # flexos-attacks — the adversarial isolation suite
//!
//! The paper's core claim (§3, §7) is that a FlexOS configuration buys
//! *exactly* the isolation its mechanisms and profiles promise. The
//! rest of the workspace verifies that claim by construction (types,
//! gate tables, key assignments); this crate verifies it by *assault*:
//! concrete attack workloads run inside built images, each returning a
//! structured [`AttackOutcome`] — blocked with a specific fault kind,
//! or succeeded.
//!
//! Nine attack classes cover the §4 mechanism surface:
//!
//! * [`Attack::OobRead`] / [`Attack::OobWrite`] — out-of-bounds
//!   reads/writes into a neighbour compartment's private heap (the §7
//!   "compromised lwip vs Redis keyspace" scenario).
//! * [`Attack::ForgedEntry`] — a call targeting a function that is not
//!   a registered entry point, past the gates' CFI property
//!   (§4.1/§4.2).
//! * [`Attack::StackSmash`] — a write into a victim thread's private
//!   stack half, probing the DSS boundary of Figure 4.
//! * [`Attack::InfoLeak`] — a probe for victim stack data reachable
//!   through the image's data-sharing strategy (shared stacks leak
//!   live frames; heap conversion leaks stale shares; the DSS leaks
//!   neither).
//! * [`Attack::HeapSmash`] — a classic linear heap overflow inside the
//!   attacker's own compartment, caught only by KASan hardening
//!   (§4.5).
//! * [`Attack::PkruForge`] — a `wrpkru` gadget smuggled into component
//!   text, stopped by the MPK backend's W^X scan (§4.1) or rendered
//!   inert by EPT's separate address spaces (§4.2).
//! * [`Attack::AllocExhaustion`] — an allocator-exhaustion DoS,
//!   contained to the attacker's compartment exactly when the heaps
//!   are split — and refused outright, with `BudgetExceeded`, when the
//!   attacker's compartment carries a heap budget.
//! * [`Attack::CycleHog`] — a compute-burning loop (the CPU-DoS threat
//!   class), stopped only by a per-compartment cycle budget; without
//!   one the hog monopolizes the virtual clock and succeeds.
//!
//! On top sits the differential matrix (`matrix`): every attack runs
//! against a representative grid of mechanism × `IsolationProfile`
//! points, the observed outcome is compared against a per-attack
//! expectation `oracle` derived purely from the configuration, and
//! the empirical blocked-set is checked to be **monotone** in the §5
//! safety order (`flexos_sweep::sweep_leq`): a stronger point must
//! block a superset of what a weaker point blocks — the sweep's
//! partial order as an empirically checked theorem rather than a
//! modeling artifact.
//!
//! The second adversary, [`campaign`], fires seeded faults into a live
//! multi-tenant image under the same hostile-tenant budget.

use std::fmt;

use flexos_machine::fault::{Fault, FaultKind};
use flexos_system::FlexOs;

pub mod campaign;
mod matrix;
mod oracle;
mod workloads;

pub use matrix::{attack_space, attack_space_quick, run_matrix, run_matrix_budgeted};
pub use oracle::expected_mask;

/// The attack classes of the suite, in the order the matrix runs them
/// (the heap-exhausting DoS goes last so earlier attacks see a healthy
/// image; every attack releases what it allocated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attack {
    /// Read a secret out of a neighbour compartment's private heap.
    OobRead,
    /// Overwrite a value in a neighbour compartment's private heap.
    OobWrite,
    /// Call a non-entry-point function of the victim past CFI.
    ForgedEntry,
    /// Write into a victim thread's private stack half.
    StackSmash,
    /// Recover victim stack data through the data-sharing strategy.
    InfoLeak,
    /// Linear overflow of the attacker's own heap allocation.
    HeapSmash,
    /// Smuggle a `wrpkru` gadget into component text.
    PkruForge,
    /// Exhaust the allocator and starve the victim's next allocation.
    AllocExhaustion,
    /// Burn compute in a loop, hogging the CPU past any fair share.
    CycleHog,
}

impl Attack {
    /// Every attack, matrix execution order.
    pub const ALL: [Attack; 9] = [
        Attack::OobRead,
        Attack::OobWrite,
        Attack::ForgedEntry,
        Attack::StackSmash,
        Attack::InfoLeak,
        Attack::HeapSmash,
        Attack::PkruForge,
        Attack::AllocExhaustion,
        Attack::CycleHog,
    ];

    /// Stable short name (CSV/JSON emission).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Attack::OobRead => "oob-read",
            Attack::OobWrite => "oob-write",
            Attack::ForgedEntry => "forged-entry",
            Attack::StackSmash => "stack-smash",
            Attack::InfoLeak => "info-leak",
            Attack::HeapSmash => "heap-smash",
            Attack::PkruForge => "pkru-forge",
            Attack::AllocExhaustion => "alloc-exhaustion",
            Attack::CycleHog => "cycle-hog",
        }
    }

    /// Index of this attack in [`Attack::ALL`] (its bit in a
    /// `u16` blocked-set mask — nine attacks outgrew `u8`).
    pub fn bit(&self) -> u8 {
        Attack::ALL
            .iter()
            .position(|a| a == self)
            .expect("attack is in ALL") as u8
    }

    /// Runs the attack against a built image: `lwip` plays the
    /// compromised component, the first app is the victim.
    ///
    /// # Errors
    ///
    /// Infrastructure faults (setup allocations, spawns) propagate;
    /// faults that *are* the attack outcome are folded into
    /// [`AttackOutcome::Blocked`].
    pub fn run(&self, os: &FlexOs) -> Result<AttackOutcome, Fault> {
        match self {
            Attack::OobRead => workloads::oob_read(os),
            Attack::OobWrite => workloads::oob_write(os),
            Attack::ForgedEntry => workloads::forged_entry(os),
            Attack::StackSmash => workloads::stack_smash(os),
            Attack::InfoLeak => workloads::info_leak(os),
            Attack::HeapSmash => workloads::heap_smash(os),
            Attack::PkruForge => workloads::pkru_forge(os),
            Attack::AllocExhaustion => workloads::alloc_exhaustion(os),
            Attack::CycleHog => workloads::cycle_hog(os),
        }
    }
}

impl fmt::Display for Attack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened when an attack ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The image stopped the attack; `fault` is the isolation event
    /// that stopped it (the observable a defender would see).
    Blocked {
        /// Kind of the fault that stopped the attack.
        fault: FaultKind,
    },
    /// The attack achieved its goal (read the secret, corrupted the
    /// victim, entered the compartment, starved the allocation...).
    Succeeded,
}

impl AttackOutcome {
    /// `true` when the attack was stopped.
    pub(crate) fn blocked(&self) -> bool {
        matches!(self, AttackOutcome::Blocked { .. })
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackOutcome::Blocked { fault } => write!(f, "blocked({fault})"),
            AttackOutcome::Succeeded => f.write_str("succeeded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_bits_are_unique_and_dense() {
        let mut seen = 0u16;
        for a in Attack::ALL {
            let bit = 1u16 << a.bit();
            assert_eq!(seen & bit, 0, "{a} bit collides");
            seen |= bit;
        }
        assert_eq!(seen, 0x1FF, "9 attacks fill the mask");
    }

    #[test]
    fn outcome_display_names_the_fault() {
        let o = AttackOutcome::Blocked {
            fault: FaultKind::ProtectionKey,
        };
        assert!(o.blocked());
        assert_eq!(o.to_string(), "blocked(protection-key)");
        assert!(!AttackOutcome::Succeeded.blocked());
    }
}
