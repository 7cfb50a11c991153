//! # flexos-ept — the EPT/VM isolation backend (§4.2)
//!
//! The EPT backend is the extreme point of FlexOS' mechanism space:
//! compartments do not share an address space at all — each becomes its
//! own virtual machine on its own vCPU, carrying a self-contained copy of
//! the TCB (boot code, scheduler, memory manager, backend runtime).
//! Cross-compartment calls are remote procedure calls over shared memory:
//! the caller deposits a function pointer and arguments in a predefined
//! area, the callee VM's busy-waiting RPC server validates that the
//! pointer is a **legal API entry point** and executes it, then posts the
//! return value back. Using raw function pointers is safe because all
//! compartments are built together, so every address is known at build
//! time — and it keeps unmarshalling trivial.
//!
//! The paper's prototype runs on QEMU/KVM patched (< 90 LoC) for
//! lightweight inter-VM shared memory; here the rings live in a
//! shared-keyed region of simulated memory, giving the same structural
//! guarantees (RPC-only crossings, server-side entry checks, per-VM TCB).

pub(crate) mod backend;
pub mod rpc;
pub(crate) mod vm;

pub use backend::EptBackend;
pub use vm::VmImage;
