//! Deterministic fault-injection campaigns.
//!
//! The attack matrix (`matrix`) proves each isolation claim in
//! isolation; this module stresses the *recovery* story: a seeded
//! campaign fires randomized-but-reproducible faults into a live
//! multi-tenant image — budget exhaustion, forged gate calls, heap
//! poison — while a [`Supervisor`] quarantines and microreboots the
//! offending compartment between injections. The point is the paper's
//! §3 containment promise under sustained abuse: the image as a whole
//! never goes down, and every recovery is measurable on the virtual
//! clock.
//!
//! Determinism is the contract that makes campaigns usable as
//! regression oracles: the injection schedule comes from a seeded
//! xorshift64* stream (the same generator the benchmark clients use),
//! every injected fault lands at a virtual-cycle point decided by that
//! stream and the image's own costs, and the resulting
//! [`CampaignLog`] is a pure function of `(seed, rounds)` (every
//! compartment carries the matrix's hostile-tenant budget) — same
//! inputs, byte-identical log. `flexos_faultinject --check` runs
//! a campaign twice and diffs the logs to enforce exactly that.

use std::fmt;
use std::rc::Rc;

use flexos_apps::RedisEntries;
use flexos_core::component::ComponentId;
use flexos_core::env::Work;
use flexos_machine::fault::{Fault, FaultKind};
use flexos_machine::trace::fnv1a;
use flexos_machine::xorshift64star;
use flexos_system::configs::mpk_tenants;
use flexos_system::{FlexOs, Supervisor, SystemBuilder};

use crate::matrix::GRID_BUDGET;

/// The injection classes a campaign draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injection {
    /// Burn compute past the target compartment's cycle budget
    /// ([`FaultKind::BudgetExceeded`]; triggers a microreboot).
    BudgetExhaust,
    /// Call a function that is no registered entry point of a foreign
    /// compartment ([`FaultKind::IllegalEntryPoint`]; refused at the
    /// gate, *no* reboot needed — the CFI check already contained it).
    GateAbuse,
    /// Double-free a block in the target compartment's heap
    /// ([`FaultKind::BadFree`]; heap metadata is suspect, triggers a
    /// microreboot).
    HeapPoison,
}

impl Injection {
    /// All injection classes, draw order.
    pub(crate) const ALL: [Injection; 3] = [
        Injection::BudgetExhaust,
        Injection::GateAbuse,
        Injection::HeapPoison,
    ];

    /// Stable short name (log emission).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Injection::BudgetExhaust => "budget-exhaust",
            Injection::GateAbuse => "gate-abuse",
            Injection::HeapPoison => "heap-poison",
        }
    }
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one campaign run should do.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// xorshift64* seed; the whole schedule derives from it.
    pub seed: u64,
    /// Number of injections to fire.
    pub rounds: u32,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            seed: 0xF1E0_5EED,
            rounds: 32,
        }
    }
}

/// One injection and its observed consequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignEvent {
    /// Injection ordinal (0-based).
    pub(crate) round: u32,
    /// Virtual cycle at which the injection fired.
    pub(crate) at_cycle: u64,
    /// Target component's name.
    pub(crate) target: String,
    /// What was injected.
    pub(crate) injection: Injection,
    /// The fault the image answered with (`None` would mean the
    /// injection was absorbed silently — a containment bug).
    pub(crate) fault: Option<FaultKind>,
    /// Recovery latency in virtual cycles when the supervisor rebooted
    /// a compartment in response; `None` when no reboot was needed.
    pub(crate) recovery_latency: Option<u64>,
    /// Per-phase recovery latencies (quarantine, heap-reset,
    /// stack-teardown, entry-replay, release) when a reboot happened;
    /// sums to `recovery_latency`.
    pub(crate) recovery_phases: Option<[u64; 5]>,
    /// Budget refusals the injection provoked this round, summed across
    /// compartments (sampled *before* the supervisor's release phase
    /// clears the victim's window).
    pub(crate) refusals: u64,
}

impl fmt::Display for CampaignEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let none = || "none".to_string();
        let phases = self
            .recovery_phases
            .map(|p| p.map(|c| c.to_string()).join("/"));
        write!(
            f,
            "round={} cycle={} target={} inject={} fault={} recovery={} refusals={} phases={}",
            self.round,
            self.at_cycle,
            self.target,
            self.injection,
            self.fault.map_or_else(none, |k| k.to_string()),
            self.recovery_latency.map_or_else(none, |l| l.to_string()),
            self.refusals,
            phases.unwrap_or_else(none),
        )
    }
}

/// The full deterministic record of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignLog {
    /// The seed that produced this log.
    pub seed: u64,
    /// One entry per injection, firing order.
    pub events: Vec<CampaignEvent>,
    /// Microreboots performed across the campaign.
    pub reboots: usize,
    /// Virtual clock value after the last injection settled.
    pub(crate) final_cycle: u64,
    /// `true` when the post-campaign health probe (a cross-tenant gate
    /// call into each tenant) succeeded — the image survived.
    pub survived: bool,
}

impl CampaignLog {
    /// The log as stable text lines — the determinism artifact
    /// (`--check` compares these byte-for-byte).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.events.len() + 2);
        out.push(format!(
            "campaign seed={} rounds={}",
            self.seed,
            self.events.len()
        ));
        out.extend(self.events.iter().map(|e| e.to_string()));
        out.push(format!(
            "end cycle={} reboots={} survived={}",
            self.final_cycle, self.reboots, self.survived
        ));
        out
    }

    /// FNV-1a digest over [`CampaignLog::lines`], each ended by a
    /// newline — a compact fingerprint for CI logs.
    pub fn digest(&self) -> u64 {
        fnv1a((self.lines().join("\n") + "\n").as_bytes())
    }
}

/// The campaign's target roster: the hostile net stack and both
/// tenants' Redis components — every injection picks one of these.
const TARGETS: [&str; 3] = ["lwip", "redis-a", "redis-b"];

/// Builds the campaign image: the four-compartment multi-tenant
/// configuration with the matrix's hostile-tenant budget applied to
/// every compartment, two named Redis tenants registered.
///
/// # Errors
///
/// Configuration validation or boot faults.
pub fn build_campaign_image() -> Result<FlexOs, Fault> {
    let mut config = mpk_tenants(Some(GRID_BUDGET))?;
    config.default_budget = Some(GRID_BUDGET);
    let mut redis_a = flexos_apps::redis_component();
    redis_a.name = "redis-a".into();
    let mut redis_b = flexos_apps::redis_component();
    redis_b.name = "redis-b".into();
    SystemBuilder::new(config).app(redis_a).app(redis_b).build()
}

/// Runs one deterministic campaign: `spec.rounds` seeded injections
/// against a fresh multi-tenant image, supervisor polling after each,
/// health probe at the end.
///
/// # Errors
///
/// Infrastructure faults only (build failures, broken probe paths);
/// injected faults are the campaign's *data* and land in the log.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignLog, Fault> {
    let os = build_campaign_image()?;
    run_campaign_on(&os, spec)
}

/// [`run_campaign`] against an already-built image — the traced entry
/// point: callers can enable the machine tracer (and read the trace
/// artifacts off `os` afterwards) without perturbing the campaign
/// schedule.
///
/// # Errors
///
/// See [`run_campaign`].
pub fn run_campaign_on(os: &FlexOs, spec: &CampaignSpec) -> Result<CampaignLog, Fault> {
    let env = Rc::clone(&os.env);
    let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched));
    let ids: Vec<ComponentId> = TARGETS
        .iter()
        .map(|name| {
            os.component(name).ok_or_else(|| Fault::InvalidConfig {
                reason: format!("campaign image has no `{name}` component"),
            })
        })
        .collect::<Result<_, _>>()?;

    let mut state = spec.seed | 1 << 63;
    let mut events = Vec::with_capacity(spec.rounds as usize);
    for round in 0..spec.rounds {
        let draw = xorshift64star(&mut state);
        let target_idx = (draw % TARGETS.len() as u64) as usize;
        let injection = Injection::ALL[(draw >> 8) as usize % Injection::ALL.len()];
        let target = ids[target_idx];
        let at_cycle = env.machine().clock().now();
        // Clear the previous round's accounting window so each
        // injection faults (or not) on its own merits.
        env.reset_budget_usage();

        let fault = match injection {
            Injection::BudgetExhaust => {
                // One checked chunk past the cycle budget: the charge
                // lands, the check refuses.
                let over = GRID_BUDGET.cycles.expect("the grid budget caps cycles") + 1;
                env.run_as(target, || {
                    env.observe(env.compute_checked(Work::cycles(over))).err()
                })
            }
            Injection::GateAbuse => {
                // lwip forging a call into a tenant, or a tenant
                // forging into the other tenant: always a foreign
                // compartment, never a registered entry point.
                let victim = ids[(target_idx + 1) % ids.len()];
                env.run_as(target, || {
                    env.observe(env.call_resolved(env.resolve(victim, "admin_backdoor"), || Ok(())))
                        .err()
                })
            }
            Injection::HeapPoison => env.run_as(target, || {
                let addr = env.malloc(64)?;
                env.free(addr)?;
                Result::<_, Fault>::Ok(env.observe(env.free(addr)).err())
            })?,
        };
        // Sample refusals before poll(): the supervisor's release phase
        // clears the rebooted compartment's refusal counter.
        let refusals = (0..env.compartment_count())
            .map(|i| env.budget_refusals_of(flexos_core::compartment::CompartmentId(i as u8)))
            .sum();
        let recovery = sup.poll();
        events.push(CampaignEvent {
            round,
            at_cycle,
            target: TARGETS[target_idx].to_string(),
            injection,
            fault: fault.as_ref().map(Fault::kind),
            recovery_latency: recovery.as_ref().map(|r| r.latency_cycles),
            recovery_phases: recovery.as_ref().map(|r| r.phase_cycles),
            refusals,
        });
    }

    // Health probe: after the whole barrage, a legitimate gate call
    // into each tenant must still go through.
    env.reset_budget_usage();
    let lwip = ids[0];
    let survived = ids[1..].iter().all(|&tenant| {
        env.run_as(lwip, || {
            env.call_resolved(RedisEntries::resolve(&env, tenant).handle, || Ok(()))
        })
        .is_ok()
    });

    Ok(CampaignLog {
        seed: spec.seed,
        events,
        reboots: sup.reports().len(),
        final_cycle: env.machine().clock().now(),
        survived,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_log() {
        let spec = CampaignSpec::default();
        let a = run_campaign(&spec).expect("campaign runs");
        let b = run_campaign(&spec).expect("campaign runs");
        assert_eq!(a.lines(), b.lines(), "campaigns must be deterministic");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_campaign(&CampaignSpec::default()).expect("campaign runs");
        let b = run_campaign(&CampaignSpec {
            seed: 0xDEAD_BEEF,
            ..CampaignSpec::default()
        })
        .expect("campaign runs");
        assert_ne!(
            a.lines(),
            b.lines(),
            "the seed must actually steer the schedule"
        );
    }

    #[test]
    fn every_injection_faults_and_the_image_survives() {
        let log = run_campaign(&CampaignSpec::default()).expect("campaign runs");
        assert!(log.survived, "tenants must still answer after the barrage");
        for e in &log.events {
            let want = match e.injection {
                Injection::BudgetExhaust => FaultKind::BudgetExceeded,
                Injection::GateAbuse => FaultKind::IllegalEntryPoint,
                Injection::HeapPoison => FaultKind::BadFree,
            };
            assert_eq!(e.fault, Some(want), "round {}: {e}", e.round);
            // Reboot-trigger faults must come with a recovery; gate
            // abuse is contained at the gate and needs none.
            match e.injection {
                Injection::GateAbuse => assert_eq!(e.recovery_latency, None, "{e}"),
                _ => assert!(e.recovery_latency.is_some(), "{e}"),
            }
        }
        assert!(log.reboots > 0, "default schedule must exercise recovery");
    }
}
