//! # flexos-alloc — memory allocators for FlexOS
//!
//! Unikraft (and therefore FlexOS) ships pluggable memory allocators; the
//! paper's evaluation exercises two of them plus the data-sharing machinery
//! built on top:
//!
//! * [`tlsf::Tlsf`] — Unikraft's default **TLSF** (two-level segregated
//!   fit) real-time allocator \[Masmano et al., ECRTS'04\], used by every
//!   FlexOS configuration.
//! * [`lea::Lea`] — a **Lea-style** (dlmalloc-lite) best-fit allocator with
//!   exact small bins, used by CubicleOS; its different behaviour under the
//!   SQLite workload explains the baseline inversion in Figure 10 (§6.4).
//! * `bump::Bump` — a trivial arena for boot-time allocations.
//! * [`heap::Heap`] — binds an allocator to a simulated-memory region,
//!   charges the calibrated allocation costs (Figure 11a), and optionally
//!   layers `kasan::Kasan` redzones/quarantine over it (§4.5).
//!
//! Per the documented substitution rule (DESIGN.md, "Deliberate
//! deviations"): allocator payloads live in *simulated* memory and faults
//! are enforced by the machine's protection keys, while the allocators'
//! metadata lives in host memory — the algorithms (segregated fits,
//! coalescing, binning) are real. Host-side that metadata is the free
//! lists, one pair of boundary tags per block (`blockmap::BlockMap`) and,
//! under KASan, one shadow byte per 8-byte granule, a heap page at a
//! time, a page one value covers kept as that value (`kasan::Kasan`).
//! Tags and shadow are **sized by use**: a heap that has handed out
//! 40 KiB of its 16 MiB pays for 40 KiB worth of both, a fresh heap for
//! neither, which is what makes an image cheap to build and a
//! compartment cheap to microreboot.

pub(crate) mod blockmap;
pub(crate) mod bump;
pub(crate) mod heap;
pub(crate) mod kasan;
pub mod lea;
pub mod stats;
pub mod tlsf;

/// The test suites' shared seeded generator (`tests/common/mod.rs`).
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod testrng;

pub use heap::{Heap, HeapKind, HeapState};
pub use stats::AllocStats;

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

/// Minimum allocation granule; everything is rounded up to this.
pub(crate) const MIN_ALIGN: u64 = 16;

/// A region-scoped allocator over simulated addresses.
///
/// Implementors hand out non-overlapping `[addr, addr+size)` ranges within
/// the region they were constructed over. The trait is object-safe so heaps
/// can swap allocator policies at build time (P2-style configurability).
pub trait RegionAlloc: std::fmt::Debug {
    /// Allocates `size` bytes aligned to `align` (a power of two).
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] when the region cannot satisfy the
    /// request.
    fn alloc(&mut self, size: u64, align: u64) -> Result<Addr, Fault>;

    /// Frees a previously allocated address, returning the block size.
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] if `addr` was not allocated by this allocator or
    /// was already freed.
    fn free(&mut self, addr: Addr) -> Result<u64, Fault>;

    /// Size of the live allocation at `addr`, if any.
    fn size_of(&self, addr: Addr) -> Option<u64>;

    /// Total bytes currently allocated (payload, not metadata).
    fn allocated_bytes(&self) -> u64;

    /// Total bytes the region offers.
    fn capacity(&self) -> u64;

    /// `true` if the most recent [`RegionAlloc::alloc`] took the slow path
    /// (block split from a larger class, mapping search, coalescing);
    /// drives the TLSF-vs-Lea cycle accounting of Figure 10.
    fn last_was_slow_path(&self) -> bool;
}
