//! # flexos-machine — the simulated hardware substrate
//!
//! FlexOS evaluates isolation mechanisms (Intel MPK, EPT/VM) that are not
//! reachable from portable Rust, so this crate provides the machine they run
//! on: a paged, byte-addressable simulated memory with per-page **memory
//! protection keys**, a per-thread **PKRU** register, a virtual **cycle
//! clock**, and a **cost model** calibrated against the paper's
//! microbenchmarks (Figure 11b: function call 2 cycles, MPK-light gate 62,
//! MPK-DSS gate 108, EPT RPC 462, Linux syscall 470 with KPTI / 146
//! without, on a 2.2 GHz Xeon Silver 4114).
//!
//! The protection semantics are *enforced*, not modeled: every load/store
//! issued through [`mem::Memory`] checks the accessing domain's [`key::Pkru`]
//! against the page's [`key::ProtKey`] and returns
//! [`fault::Fault::ProtectionKey`] on mismatch, exactly like the MMU check
//! the paper describes in §4.1. Only *time* is modeled, through
//! [`cost::CostModel`] charges on the [`clock::CycleClock`].
//!
//! ```
//! use flexos_machine::{Machine, key::{ProtKey, Pkru}};
//!
//! # fn main() -> Result<(), flexos_machine::fault::Fault> {
//! let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
//! let region = machine.map_region("demo-heap", 4, ProtKey::new(3)?)?;
//!
//! // A domain holding key 3 can write the region...
//! let pkru = Pkru::permit_only(&[ProtKey::new(3)?]);
//! machine.memory_mut().write(region.base(), b"hello", &pkru)?;
//!
//! // ...a domain without it faults, as MPK would.
//! let stranger = Pkru::permit_only(&[ProtKey::new(5)?]);
//! let err = machine.memory().read_vec(region.base(), 5, &stranger);
//! assert!(err.is_err());
//! # Ok(()) }
//! ```

pub mod addr;
pub mod clock;
pub mod cost;
pub mod cpu;
pub mod fault;
pub mod key;
pub mod layout;
pub mod mem;
pub mod smp;

mod machine;

pub use flexos_trace as trace;
pub use machine::Machine;

/// One step of the workspace's seeded generator (xorshift64*): advances
/// `state` and returns the scrambled draw. Benchmark-client key draws,
/// fault-injection schedules, synthesized component text and the
/// seeded samplers in `tests/` are this step from some nonzero seed
/// (zero is the generator's fixed point). Deterministic, not
/// cryptographic.
pub fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
