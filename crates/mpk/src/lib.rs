//! # flexos-mpk — the Intel MPK isolation backend (§4.1)
//!
//! MPK tags page-table entries with 4-bit protection keys and filters every
//! access through the per-thread PKRU register. FlexOS associates one key
//! per compartment plus a reserved shared-communication key, giving at most
//! 15 isolated compartments. Because any compartment can execute `wrpkru`,
//! the backend must guarantee no unsanctioned occurrence exists: FlexOS
//! loads no code after compilation, so a **static binary scan plus strict
//! W⊕X** suffices ([`wxorx`]), where runtime-loading systems need
//! call-time checks (ERIM) or binary rewriting.
//!
//! Two gate flavours are offered (§4.1 "MPK Gates"):
//!
//! * the **full gate** (Hodor-style, used with DSS): saves the caller's
//!   register set, zeroes non-argument registers, switches PKRU, looks up
//!   the callee stack in the per-compartment stack registry and switches
//!   to it — 108 cycles round trip on the paper's Xeon 4114;
//! * the **light gate** (ERIM-style): shares stack and registers, only
//!   rewrites the PKRU — 62 cycles, the raw cost of two `wrpkru`.

pub(crate) mod backend;
pub mod wxorx;

pub use backend::MpkBackend;
