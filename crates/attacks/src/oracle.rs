//! The expectation oracle: what a configuration *claims* to block,
//! derived purely from the [`SweepPoint`] — no simulation.
//!
//! The predicates mirror the §4 enforcement story:
//!
//! * Spatial attacks (OOB read/write, forged entry, PKRU forge) are
//!   blocked exactly when attacker and victim sit in different
//!   compartments **and** the image has a real mechanism — an all-
//!   [`Mechanism::None`] image assigns every domain `ALL_ACCESS` and
//!   its cross-compartment calls degrade to direct calls, so placement
//!   alone protects nothing.
//! * Stack attacks additionally depend on the data-sharing profile:
//!   a fully shared stack is writable from everywhere; heap conversion
//!   keeps the stack private but parks shared frames on the (scrubbed
//!   by nobody) shared heap; only the DSS both privatizes the stack
//!   half and vacates shared slots with their frames (§4.4, Figure 4).
//! * The heap smash is a *local* overflow — no boundary is crossed, so
//!   only the attacker component's own KASan hardening (§4.5) sees it.
//! * Allocator exhaustion is about heap *placement*, not keys: split
//!   compartments get split heaps, which contain the starvation even
//!   on a mechanism-less image. A heap *budget* on the attacker's
//!   compartment preempts placement: the quota refuses the hoard
//!   before the allocator ever runs dry, so the observable flips to
//!   [`FaultKind::BudgetExceeded`].
//! * The cycle hog crosses no boundary and touches no memory — only a
//!   cycle budget on the attacker's compartment blocks it; every
//!   spatial configuration lets it run.
//!
//! Because every predicate is monotone along the §5 safety order
//! (partition refinement preserves separation, `DataSharing::strength`
//! orders the sharing thresholds, hardening is compared by subset, and
//! mechanism rank never *removes* a blocked attack), the predicted
//! blocked-sets are ordered by inclusion whenever
//! [`flexos_sweep::sweep_leq`] orders the points — the property
//! `tests/attack_oracle_prop.rs` fuzzes and the matrix checks
//! empirically.

use flexos_core::compartment::{DataSharing, Mechanism, ResourceBudget};
use flexos_machine::fault::FaultKind;
use flexos_sweep::SweepPoint;

use crate::Attack;

/// Bit of `hardening_mask` covering the `lwip` row of
/// `FIG6_COMPONENTS` (the attacker component).
const LWIP_HARDENED: u8 = 1 << 3;

/// What the oracle predicts for one (attack, configuration) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Expectation {
    /// `true` when the configuration must block the attack.
    pub(crate) blocked: bool,
    /// The fault kind that must stop it (`None` when not blocked).
    pub(crate) fault: Option<FaultKind>,
}

impl Expectation {
    fn blocked_iff(blocked: bool, fault: FaultKind) -> Expectation {
        Expectation {
            blocked,
            fault: blocked.then_some(fault),
        }
    }
}

/// Predicts the outcome of `attack` against `point`'s configuration.
pub(crate) fn expected(attack: Attack, point: &SweepPoint) -> Expectation {
    // Different compartments at all (heap placement follows this)...
    let apart = point.config.placement("lwip") != point.config.placement(point.workload.app());
    // ...and actually enforced by a mechanism (key-backed separation).
    let keyed = apart && point.mechanism != Mechanism::None;
    let (sharing, _) = point.profiles[0];
    match attack {
        Attack::OobRead | Attack::OobWrite => {
            Expectation::blocked_iff(keyed, FaultKind::ProtectionKey)
        }
        Attack::ForgedEntry => Expectation::blocked_iff(keyed, FaultKind::IllegalEntryPoint),
        Attack::StackSmash => Expectation::blocked_iff(
            keyed && sharing != DataSharing::SharedStack,
            FaultKind::ProtectionKey,
        ),
        Attack::InfoLeak => Expectation::blocked_iff(
            keyed && sharing == DataSharing::Dss,
            FaultKind::ProtectionKey,
        ),
        Attack::HeapSmash => {
            Expectation::blocked_iff(point.hardening_mask & LWIP_HARDENED != 0, FaultKind::Kasan)
        }
        Attack::PkruForge => {
            // MPK's W^X scan refuses the gadget statically; any other
            // mechanism leaves the gadget inert and the runtime access
            // faults on the key instead.
            let fault = if point.mechanism == Mechanism::IntelMpk {
                FaultKind::WxViolation
            } else {
                FaultKind::ProtectionKey
            };
            Expectation::blocked_iff(keyed, fault)
        }
        Attack::AllocExhaustion => {
            // A heap quota on the attacker's compartment refuses the
            // hoard regardless of placement; otherwise containment is
            // placement's job.
            if attacker_budget(point).heap_bytes.is_some() {
                Expectation::blocked_iff(true, FaultKind::BudgetExceeded)
            } else {
                Expectation::blocked_iff(apart, FaultKind::ResourceExhausted)
            }
        }
        Attack::CycleHog => Expectation::blocked_iff(
            attacker_budget(point).cycles.is_some(),
            FaultKind::BudgetExceeded,
        ),
    }
}

/// The resource budget resolved for the attacker component's
/// compartment.
fn attacker_budget(point: &SweepPoint) -> ResourceBudget {
    point.config.budget_of(point.config.placement("lwip"))
}

/// The full predicted blocked-set of a point, as an [`Attack::bit`]
/// mask.
pub fn expected_mask(point: &SweepPoint) -> u16 {
    Attack::ALL
        .iter()
        .filter(|a| expected(**a, point).blocked)
        .fold(0u16, |m, a| m | (1 << a.bit()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::attack_space;
    use flexos_explore::Strategy;
    use flexos_sweep::sweep_leq;

    #[test]
    fn together_blocks_only_the_hardened_heap_smash() {
        let spec = attack_space();
        let points: Vec<_> = spec.points().collect();
        for p in points.iter().filter(|p| p.strategy == Strategy::Together) {
            let want = if p.hardening_mask & LWIP_HARDENED != 0 {
                1 << Attack::HeapSmash.bit()
            } else {
                0
            };
            assert_eq!(expected_mask(p), want, "{p}");
        }
    }

    #[test]
    fn split_mpk_dss_hardened_blocks_everything() {
        let spec = attack_space();
        let p = spec
            .points()
            .find(|p| {
                p.strategy == Strategy::SplitLwip
                    && p.mechanism == Mechanism::IntelMpk
                    && p.profiles[0].0 == DataSharing::Dss
                    && p.hardening_mask == 0b1111
            })
            .expect("grid has the strong point");
        // All eight spatial/hardening attacks — but never the cycle
        // hog, which no unbudgeted configuration can stop.
        assert_eq!(expected_mask(&p), 0xFF, "{p}");
        assert_eq!(expected_mask(&p) & (1 << Attack::CycleHog.bit()), 0);
    }

    #[test]
    fn budgets_flip_the_resource_attacks() {
        use flexos_core::compartment::ResourceBudget;
        let spec = attack_space();
        let mut p = spec.points().next().expect("grid is non-empty");
        assert_eq!(
            expected_mask(&p) & (1 << Attack::CycleHog.bit()),
            0,
            "unbudgeted points never block the hog"
        );
        p.config.default_budget = Some(ResourceBudget {
            heap_bytes: Some(2 * 1024 * 1024),
            cycles: Some(1_000_000),
            crossings: Some(100_000),
        });
        let mask = expected_mask(&p);
        assert_ne!(mask & (1 << Attack::CycleHog.bit()), 0);
        assert_ne!(mask & (1 << Attack::AllocExhaustion.bit()), 0);
        assert_eq!(
            expected(Attack::AllocExhaustion, &p).fault,
            Some(FaultKind::BudgetExceeded)
        );
    }

    #[test]
    fn shared_stack_leaks_stack_attacks() {
        let spec = attack_space();
        let p = spec
            .points()
            .find(|p| {
                p.strategy == Strategy::SplitLwip
                    && p.profiles[0].0 == DataSharing::SharedStack
                    && p.hardening_mask == 0
            })
            .expect("grid has a shared-stack point");
        let mask = expected_mask(&p);
        assert_eq!(mask & (1 << Attack::StackSmash.bit()), 0);
        assert_eq!(mask & (1 << Attack::InfoLeak.bit()), 0);
        assert_ne!(mask & (1 << Attack::OobRead.bit()), 0);
    }

    #[test]
    fn predicted_blocked_sets_are_monotone_on_the_attack_grid() {
        let spec = attack_space();
        let points: Vec<_> = spec.points().collect();
        for a in &points {
            for b in &points {
                if sweep_leq(a, b) {
                    let (ma, mb) = (expected_mask(a), expected_mask(b));
                    assert_eq!(ma & !mb, 0, "{a} <= {b} but predicts {ma:09b} vs {mb:09b}");
                }
            }
        }
    }
}
