//! The attack implementations: `lwip` plays the compromised component
//! (the paper's running example of an exploitable library, §7), the
//! image's first application is the victim.
//!
//! Every attack is self-cleaning — whatever it allocates or spawns it
//! releases — so the matrix can run the whole suite against one built
//! image without attacks perturbing each other. Infrastructure faults
//! (setup allocations failing, missing components) propagate as `Err`;
//! faults that *are* the attack's outcome fold into
//! [`AttackOutcome::Blocked`].

use std::rc::Rc;

use flexos_core::compartment::{DataSharing, Mechanism};
use flexos_core::component::ComponentId;
use flexos_core::env::{Env, StackShare, Work};
use flexos_machine::fault::{Fault, FaultKind};
use flexos_mpk::wxorx::{forge_gadget, scan_text};
use flexos_sched::dss::{dss_span, shadow_of};
use flexos_sched::stack::ThreadStack;
use flexos_system::FlexOs;

use crate::AttackOutcome;

/// The secret the attacker is after (20 bytes, distinctive).
const SECRET: &[u8] = b"session-key-0xA77ACK";
/// Victim data before a corruption attempt.
const CANARY: &[u8] = b"CANARY!";
/// What the attacker tries to replace it with (same length).
const SMASH: &[u8] = b"SMASHED";

struct Scene {
    env: Rc<Env>,
    attacker: ComponentId,
    victim: ComponentId,
}

fn scene(os: &FlexOs) -> Result<Scene, Fault> {
    let env = Rc::clone(&os.env);
    let attacker = env.component_id("lwip").ok_or(Fault::InvalidConfig {
        reason: "image has no lwip component to compromise".to_string(),
    })?;
    let victim = os.app_ids.first().copied().ok_or(Fault::InvalidConfig {
        reason: "image has no application to attack".to_string(),
    })?;
    Ok(Scene {
        env,
        attacker,
        victim,
    })
}

/// Folds an attacker-side access result into an outcome: isolation
/// faults block, success is judged by `leaked`, anything else is an
/// infrastructure error.
fn classify<R>(
    res: Result<R, Fault>,
    leaked: impl FnOnce(R) -> bool,
) -> Result<AttackOutcome, Fault> {
    match res {
        Ok(v) => {
            assert!(leaked(v), "attack access succeeded but achieved nothing");
            Ok(AttackOutcome::Succeeded)
        }
        Err(f) if f.is_isolation_fault() => Ok(AttackOutcome::Blocked { fault: f.kind() }),
        Err(f) => Err(f),
    }
}

/// Spawns a worker thread homed in the victim's compartment (its stack
/// is laid out per the image's data-sharing strategy).
fn spawn_victim_thread(os: &FlexOs, s: &Scene) -> Result<ThreadStack, Fault> {
    let uksched = s.env.component_id("uksched").ok_or(Fault::InvalidConfig {
        reason: "image has no uksched component".to_string(),
    })?;
    let victim_comp = s.env.compartment_of(s.victim);
    let (_tid, stack) = s.env.run_as(uksched, || os.sched.spawn(victim_comp))?;
    Ok(stack)
}

/// Out-of-bounds read: the victim stores a secret on its private heap;
/// the attacker dereferences the (out-of-bounds-computed) address.
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn oob_read(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    let secret = env.run_as(s.victim, || {
        let addr = env.malloc(SECRET.len() as u64)?;
        env.mem_write(addr, SECRET)?;
        Ok::<_, Fault>(addr)
    })?;
    let res = env.run_as(s.attacker, || {
        env.observe(env.mem_read_vec(secret, SECRET.len() as u64))
    });
    let out = classify(res, |bytes| bytes == SECRET)?;
    env.run_as(s.victim, || env.free(secret))?;
    Ok(out)
}

/// Out-of-bounds write: the attacker overwrites a value on the
/// victim's private heap; success means the victim reads corrupted
/// data afterwards.
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn oob_write(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    let target = env.run_as(s.victim, || {
        let addr = env.malloc(CANARY.len() as u64)?;
        env.mem_write(addr, CANARY)?;
        Ok::<_, Fault>(addr)
    })?;
    let res = env.run_as(s.attacker, || env.observe(env.mem_write(target, SMASH)));
    let after = env.run_as(s.victim, || env.mem_read_vec(target, CANARY.len() as u64))?;
    let out = match &res {
        Ok(()) => classify(res, |()| after == SMASH)?,
        Err(_) => {
            assert_eq!(after, CANARY, "blocked write must leave the victim intact");
            classify(res, |()| true)?
        }
    };
    env.run_as(s.victim, || env.free(target))?;
    Ok(out)
}

/// Forged entry call: the attacker calls a function of the victim that
/// is not a registered entry point. Cross-compartment, the gates' CFI
/// property refuses it before the gate executes; same-compartment, a
/// direct call needs no gate and goes through.
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn forged_entry(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    let cfi_before = env.gates().cfi_violations();
    let crossings_before = env.gates().total_crossings();
    let res = env.run_as(s.attacker, || {
        env.observe(env.call_resolved(env.resolve(s.victim, "app_admin_backdoor"), || Ok(())))
    });
    match res {
        Ok(()) => Ok(AttackOutcome::Succeeded),
        Err(f @ Fault::IllegalEntryPoint { .. }) => {
            assert_eq!(
                env.gates().cfi_violations(),
                cfi_before + 1,
                "refused entry must count as a CFI violation"
            );
            assert_eq!(
                env.gates().total_crossings(),
                crossings_before,
                "refused entry must not count as a crossing"
            );
            let (_, refused) = os.ept.rpc_totals();
            assert_eq!(
                refused, 0,
                "caller-side CFI must stop forged entries before any RPC ring push"
            );
            Ok(AttackOutcome::Blocked { fault: f.kind() })
        }
        Err(f) if f.is_isolation_fault() => Ok(AttackOutcome::Blocked { fault: f.kind() }),
        Err(f) => Err(f),
    }
}

/// Stack smash: a write into a victim thread's private stack half.
/// Under the DSS the attacker *can* write the shadow half — that is
/// shared by design (Figure 4) — but the private half must fault.
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn stack_smash(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    let stack = spawn_victim_thread(os, &s)?;
    let var = stack.base + 192;
    env.run_as(s.victim, || env.mem_write(var, CANARY))?;
    if stack.has_dss {
        // The shared half is not the attack: writing it must succeed.
        let shadow = shadow_of(var);
        let (dss_lo, dss_hi) = dss_span(stack.base);
        assert!(shadow >= dss_lo && shadow < dss_hi, "shadow lands in DSS");
        env.run_as(s.attacker, || env.mem_write(shadow, SMASH))?;
    }
    let res = env.run_as(s.attacker, || env.observe(env.mem_write(var, SMASH)));
    let after = env.run_as(s.victim, || env.mem_read_vec(var, CANARY.len() as u64))?;
    match &res {
        Ok(()) => classify(res, |()| after == SMASH),
        Err(_) => {
            assert_eq!(after, CANARY, "blocked smash must leave the frame intact");
            classify(res, |()| true)
        }
    }
}

/// Info leak: recover victim stack data through whatever the image's
/// data-sharing strategy exposes. Shared stacks leak live frames; heap
/// conversion leaks stale shares off the shared heap after release;
/// the DSS exposes only the shadow half, which dies (is vacated) with
/// the frame.
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn info_leak(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    let victim_comp = env.compartment_of(s.victim);
    match env.profile_of(victim_comp).data_sharing {
        DataSharing::HeapConversion => {
            let share = env.run_as(s.victim, || env.stack_share_alloc(SECRET.len() as u64))?;
            match share {
                StackShare::Heap(addr) => {
                    // The victim shares a stack variable for one call's
                    // duration, then releases it. Nothing scrubs the
                    // conversion heap: the stale bytes linger where
                    // every compartment can read them.
                    env.run_as(s.victim, || {
                        env.mem_write(addr, SECRET)?;
                        env.stack_share_release(share)
                    })?;
                    let res = env.run_as(s.attacker, || {
                        env.observe(env.mem_read_vec(addr, SECRET.len() as u64))
                    });
                    classify(res, |bytes| bytes == SECRET)
                }
                StackShare::Stack => stack_probe(os, &s),
            }
        }
        _ => stack_probe(os, &s),
    }
}

/// The stack-resident half of [`info_leak`]: probe a victim thread's
/// frame directly.
fn stack_probe(os: &FlexOs, s: &Scene) -> Result<AttackOutcome, Fault> {
    let env = &s.env;
    let stack = spawn_victim_thread(os, s)?;
    let var = stack.base + 256;
    env.run_as(s.victim, || env.mem_write(var, SECRET))?;
    if stack.has_dss {
        // The victim shared the value through the shadow during a
        // call; the frame has since died and stack discipline vacated
        // the slot (modeled as the epilogue zeroing it).
        let shadow = shadow_of(var);
        env.run_as(s.victim, || {
            env.mem_write(shadow, SECRET)?;
            env.mem_write(shadow, &[0u8; 20])
        })?;
        let stale = env.run_as(s.attacker, || env.mem_read_vec(shadow, SECRET.len() as u64))?;
        assert_ne!(stale, SECRET, "a dead DSS slot must not retain the secret");
    }
    let res = env.run_as(s.attacker, || {
        env.observe(env.mem_read_vec(var, SECRET.len() as u64))
    });
    classify(res, |bytes| bytes == SECRET)
}

/// Heap smash: a classic linear overflow one byte past the attacker's
/// *own* allocation — invisible to compartment boundaries, caught only
/// when the attacker's component is KASan-hardened (§4.5 redzones).
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn heap_smash(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    env.run_as(s.attacker, || {
        let addr = env.malloc(32)?;
        env.mem_write(addr, &[0u8; 32])?;
        let res = env.observe(env.mem_write(addr + 32, &[0x41]));
        env.free(addr)?;
        classify(res, |()| true)
    })
}

/// PKRU forge: smuggle a `wrpkru` gadget into the attacker's text to
/// grant itself the victim's key. The MPK backend's W^X static scan
/// rejects the text at build time (§4.1); under EPT the gadget is
/// architecturally inert — the guest-visible PKRU is not what isolates
/// VMs, so the cross-compartment access still faults.
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn pkru_forge(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    let attacker_comp = env.compartment_of(s.attacker);
    if attacker_comp == env.compartment_of(s.victim) {
        // Same compartment: there is no boundary the gadget needs to
        // defeat; the "escalation" is trivially complete.
        return Ok(AttackOutcome::Succeeded);
    }
    let text = forge_gadget("lwip", 4096);
    if env.domain(attacker_comp).mechanism == Mechanism::IntelMpk {
        let err = scan_text("lwip", &text)
            .expect_err("the W^X scan must reject wrpkru in MPK component text");
        return Ok(AttackOutcome::Blocked { fault: err.kind() });
    }
    // No W^X scan on this backend — but writing the guest PKRU does not
    // move the host-level mapping, so the escape still faults.
    let secret = env.run_as(s.victim, || {
        let addr = env.malloc(SECRET.len() as u64)?;
        env.mem_write(addr, SECRET)?;
        Ok::<_, Fault>(addr)
    })?;
    let res = env.run_as(s.attacker, || {
        env.observe(env.mem_read_vec(secret, SECRET.len() as u64))
    });
    let out = classify(res, |bytes| bytes == SECRET)?;
    env.run_as(s.victim, || env.free(secret))?;
    Ok(out)
}

/// Allocator-exhaustion DoS: the attacker hoards its heap down to
/// sub-64-KiB fragments, then the victim attempts a 256 KiB
/// allocation. Split heaps contain the starvation to the attacker's
/// own compartment; a shared placement starves the victim too.
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn alloc_exhaustion(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    let mut hoard = Vec::new();
    let mut refusals = 0u64;
    let mut budget_refusals = 0u64;
    env.run_as(s.attacker, || {
        let mut size: u64 = 1 << 20;
        while size >= 64 * 1024 {
            match env.observe(env.malloc(size)) {
                Ok(addr) => hoard.push(addr),
                Err(Fault::ResourceExhausted { .. }) => {
                    refusals += 1;
                    size /= 2;
                }
                Err(Fault::BudgetExceeded { .. }) => {
                    budget_refusals += 1;
                    size /= 2;
                }
                Err(f) => return Err(f),
            }
        }
        Ok(())
    })?;
    assert!(
        refusals + budget_refusals > 0,
        "the hoard must run into the heap or its budget"
    );
    if budget_refusals > 0 {
        // The compartment's heap quota stopped the hoard before the
        // allocator ran dry: resource containment by policy, observable
        // in the env's refusal counter. (A budget contains the whole
        // compartment — a co-located victim shares the quota's fate,
        // which is exactly the multi-tenant argument for splitting.)
        let attacker_comp = env.compartment_of(s.attacker);
        assert!(
            env.budget_refusals_of(attacker_comp) >= budget_refusals,
            "every budget refusal must surface in the env's counter"
        );
        for addr in hoard {
            env.run_as(s.attacker, || env.free(addr))?;
        }
        return Ok(AttackOutcome::Blocked {
            fault: FaultKind::BudgetExceeded,
        });
    }
    let exhaustions = env.run_as(s.attacker, || env.heap().borrow().stats().exhaustions);
    assert!(
        exhaustions >= refusals,
        "every refusal must surface in the allocator's exhaustion counter"
    );
    let probe = env.run_as(s.victim, || env.observe(env.malloc(256 * 1024)));
    let out = match probe {
        Ok(addr) => {
            env.run_as(s.victim, || env.free(addr))?;
            // Containment's observable is the attacker's own refusal.
            AttackOutcome::Blocked {
                fault: FaultKind::ResourceExhausted,
            }
        }
        Err(Fault::ResourceExhausted { .. }) => AttackOutcome::Succeeded,
        Err(f) => return Err(f),
    };
    for addr in hoard {
        env.run_as(s.attacker, || env.free(addr))?;
    }
    Ok(out)
}

/// Total compute the hog attempts, in virtual cycles — far past any
/// sane per-window cycle budget, far below anything that would stall
/// the host.
const HOG_TOTAL_CYCLES: u64 = 4_000_000;
/// Work per loop iteration; the budget check runs once per chunk (the
/// preemption-point granularity of [`Env::compute_checked`]).
const HOG_CHUNK_CYCLES: u64 = 50_000;

/// Cycle hog: the compromised component burns compute in a loop — the
/// CPU-DoS threat class no spatial mechanism sees (every cycle is spent
/// inside the attacker's own compartment, touching nobody's memory).
/// Only a per-compartment cycle budget stops it: the hog is refused
/// with `BudgetExceeded` at the first checked chunk past the limit.
/// Without a budget the loop runs to completion and the attack
/// *succeeds* — it monopolized the clock for its full duration.
///
/// # Errors
///
/// Infrastructure faults only.
pub(crate) fn cycle_hog(os: &FlexOs) -> Result<AttackOutcome, Fault> {
    let s = scene(os)?;
    let env = &s.env;
    let res: Result<(), Fault> = env.run_as(s.attacker, || {
        let mut burnt = 0u64;
        while burnt < HOG_TOTAL_CYCLES {
            env.observe(env.compute_checked(Work::cycles(HOG_CHUNK_CYCLES)))?;
            burnt += HOG_CHUNK_CYCLES;
        }
        Ok(())
    });
    match res {
        Ok(()) => Ok(AttackOutcome::Succeeded),
        Err(f) if f.is_isolation_fault() => Ok(AttackOutcome::Blocked { fault: f.kind() }),
        Err(f) => Err(f),
    }
}
