//! Two-Level Segregated Fit allocator — Unikraft's default.
//!
//! TLSF \[Masmano et al., ECRTS'04; paper ref 63\] indexes free blocks by a
//! first level (power-of-two size class, found with a leading-zero count)
//! and a second level (linear subdivision of each class), giving O(1)
//! malloc/free with bounded fragmentation — the property Unikraft wants for
//! real-time workloads. This implementation keeps the two-level bitmaps and
//! good-fit policy of the original; block payloads live in simulated memory
//! (see crate docs for the metadata-placement note).

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

use crate::blockmap::BlockMap;
use crate::{RegionAlloc, MIN_ALIGN};

/// log2 of the number of second-level subdivisions per first-level class.
const SL_SHIFT: u32 = 4;
/// Second-level subdivisions per first-level class.
const SL_COUNT: usize = 1 << SL_SHIFT;
/// Number of first-level classes (covers blocks up to 2^40 bytes).
const FL_COUNT: usize = 40;
/// Sizes below this all map to first-level class 0.
const SMALL_THRESHOLD: u64 = 1 << (SL_SHIFT + 4); // 256

/// The TLSF allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlsf {
    base: Addr,
    size: u64,
    blocks: BlockMap,
    /// `free_lists[fl][sl]` holds base addresses of free blocks in class
    /// (fl, sl); LIFO for cache warmth.
    free_lists: Vec<[Vec<u64>; SL_COUNT]>,
    /// Bit `fl` set iff any `free_lists[fl]` is non-empty.
    fl_bitmap: u64,
    /// Bit `sl` of `sl_bitmaps[fl]` set iff `free_lists[fl][sl]` non-empty.
    sl_bitmaps: Vec<u16>,
    allocated: u64,
    last_slow: bool,
}

/// Computes the (first-level, second-level) index of a block of `size`.
fn mapping(size: u64) -> (usize, usize) {
    if size < SMALL_THRESHOLD {
        // Small blocks: linear classes of MIN_ALIGN bytes in fl 0.
        (0, ((size / MIN_ALIGN) as usize).min(SL_COUNT - 1))
    } else {
        let fl = 63 - size.leading_zeros() as usize;
        let sl = ((size >> (fl as u32 - SL_SHIFT)) & (SL_COUNT as u64 - 1)) as usize;
        // Offset fl so that SMALL_THRESHOLD lands in class 1.
        (fl - (SL_SHIFT as usize + 4) + 1, sl)
    }
}

/// For allocation we need a class that *guarantees* fit, so round the
/// request up to the next class boundary before mapping.
fn mapping_search(size: u64) -> (usize, usize) {
    if size < SMALL_THRESHOLD {
        mapping(size)
    } else {
        let fl = 63 - size.leading_zeros() as usize;
        let round = (1u64 << (fl as u32 - SL_SHIFT)) - 1;
        mapping(size + round)
    }
}

impl Tlsf {
    /// Creates a TLSF allocator over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or `base` is not `MIN_ALIGN`-aligned.
    pub fn new(base: Addr, size: u64) -> Self {
        assert!(size > 0, "empty region");
        assert!(base.is_aligned(MIN_ALIGN), "misaligned region base");
        let mut tlsf = Tlsf {
            base,
            size,
            blocks: BlockMap::new(base, size),
            free_lists: (0..FL_COUNT).map(|_| Default::default()).collect(),
            fl_bitmap: 0,
            sl_bitmaps: vec![0; FL_COUNT],
            allocated: 0,
            last_slow: false,
        };
        tlsf.file_free(base, size);
        tlsf
    }

    fn file_free(&mut self, addr: Addr, size: u64) {
        let (fl, sl) = mapping(size);
        self.free_lists[fl][sl].push(addr.raw());
        self.fl_bitmap |= 1 << fl;
        self.sl_bitmaps[fl] |= 1 << sl;
    }

    /// Takes the most recently filed block of class (fl, sl) — the LIFO
    /// end of its list — clearing the class's bits when it empties.
    fn pop_free(&mut self, fl: usize, sl: usize) -> Option<u64> {
        let list = &mut self.free_lists[fl][sl];
        let raw = list.pop()?;
        if list.is_empty() {
            self.sl_bitmaps[fl] &= !(1 << sl);
            if self.sl_bitmaps[fl] == 0 {
                self.fl_bitmap &= !(1 << fl);
            }
        }
        Some(raw)
    }

    /// Finds a free class >= (fl, sl) using the bitmaps (the O(1) search
    /// that defines TLSF). Returns `(fl, sl, found_in_exact_class)`.
    fn find_class(&self, fl: usize, sl: usize) -> Option<(usize, usize, bool)> {
        // Try the same fl, at sl or above.
        let sl_mask = self.sl_bitmaps[fl] & (!0u16 << sl);
        if sl_mask != 0 {
            let found_sl = sl_mask.trailing_zeros() as usize;
            return Some((fl, found_sl, found_sl == sl));
        }
        // Otherwise the next non-empty fl above.
        let fl_mask = self.fl_bitmap & (!0u64 << (fl + 1));
        if fl_mask == 0 {
            return None;
        }
        let found_fl = fl_mask.trailing_zeros() as usize;
        let found_sl = self.sl_bitmaps[found_fl].trailing_zeros() as usize;
        Some((found_fl, found_sl, false))
    }
}

impl RegionAlloc for Tlsf {
    fn alloc(&mut self, size: u64, align: u64) -> Result<Addr, Fault> {
        let align = align.max(MIN_ALIGN);
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        // TLSF serves aligned requests by over-allocating; MIN_ALIGN-sized
        // quanta keep ordinary requests exact.
        let want = size.max(1).next_multiple_of(MIN_ALIGN) + (align - MIN_ALIGN);
        let (fl, sl) = mapping_search(want);
        let (ffl, fsl, exact) = self.find_class(fl, sl).ok_or(Fault::ResourceExhausted {
            what: "TLSF heap region",
        })?;
        let raw = self.pop_free(ffl, fsl).expect("bitmap said non-empty");
        let addr = Addr::new(raw);
        let blk = self.blocks.get(addr).expect("filed block exists");
        debug_assert!(blk.free && blk.size >= want && mapping(blk.size) == (ffl, fsl));
        self.blocks.take(addr, want);
        let remainder = blk.size - want;
        if remainder > 0 {
            self.file_free(addr + want, remainder);
        }
        self.allocated += want;
        // Slow path: had to split a bigger class or serve over-aligned.
        self.last_slow = !exact || remainder > 0 && blk.size >= 2 * want || align > MIN_ALIGN;
        Ok(addr)
    }

    fn free(&mut self, addr: Addr) -> Result<u64, Fault> {
        let out = self.blocks.release(addr)?;
        // Neighbours that were absorbed must leave their free lists.
        if out.absorbed > 0 {
            // Remove stale entries: the merged block replaces up to two
            // previously-filed free blocks. We re-scan the lists for any
            // address now interior to the merged block.
            let lo = out.merged_base.raw();
            let hi = lo + out.merged_size;
            for fl in 0..FL_COUNT {
                if self.fl_bitmap & (1 << fl) == 0 {
                    continue;
                }
                for sl in 0..SL_COUNT {
                    self.free_lists[fl][sl].retain(|&a| !(lo <= a && a < hi));
                    if self.free_lists[fl][sl].is_empty() {
                        self.sl_bitmaps[fl] &= !(1 << sl);
                    }
                }
                if self.sl_bitmaps[fl] == 0 {
                    self.fl_bitmap &= !(1 << fl);
                }
            }
        }
        self.file_free(out.merged_base, out.merged_size);
        self.allocated -= out.freed;
        Ok(out.freed)
    }

    fn size_of(&self, addr: Addr) -> Option<u64> {
        self.blocks.get(addr).filter(|b| !b.free).map(|b| b.size)
    }

    fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    fn capacity(&self) -> u64 {
        self.size
    }

    fn last_was_slow_path(&self) -> bool {
        self.last_slow
    }
}

impl Tlsf {
    /// Validates the block-map invariants (tiling, coalescing); used by
    /// property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.blocks.check_invariants(self.base, self.size, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlsf() -> Tlsf {
        Tlsf::new(Addr::new(0x10000), 1 << 20)
    }

    #[test]
    fn mapping_is_monotonic_in_size() {
        let mut prev = mapping(MIN_ALIGN);
        for size in (MIN_ALIGN..8192).step_by(16) {
            let cur = mapping(size);
            assert!(cur >= prev, "mapping went backwards at {size}");
            prev = cur;
        }
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut t = tlsf();
        let a = t.alloc(100, 16).unwrap();
        assert_eq!(t.size_of(a), Some(112)); // rounded to 16
        assert_eq!(t.allocated_bytes(), 112);
        assert_eq!(t.free(a).unwrap(), 112);
        assert_eq!(t.allocated_bytes(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut t = tlsf();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for i in 1..50 {
            let size = (i * 24) as u64;
            let a = t.alloc(size, 16).unwrap();
            let len = t.size_of(a).unwrap();
            for &(b, blen) in &spans {
                assert!(
                    a.raw() + len <= b || b + blen <= a.raw(),
                    "overlap between {a} and {b:#x}"
                );
            }
            spans.push((a.raw(), len));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn free_coalesces_for_reuse() {
        let mut t = tlsf();
        let a = t.alloc(1 << 10, 16).unwrap();
        let b = t.alloc(1 << 10, 16).unwrap();
        let c = t.alloc(1 << 10, 16).unwrap();
        t.free(a).unwrap();
        t.free(c).unwrap();
        t.free(b).unwrap();
        // After freeing everything, a region-sized allocation must succeed.
        let big = t.alloc((1 << 20) - 64, 16);
        assert!(big.is_ok(), "coalescing failed: {big:?}");
    }

    #[test]
    fn oom_faults() {
        let mut t = Tlsf::new(Addr::new(0x10000), 4096);
        assert!(matches!(
            t.alloc(1 << 20, 16),
            Err(Fault::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn double_free_faults() {
        let mut t = tlsf();
        let a = t.alloc(64, 16).unwrap();
        t.free(a).unwrap();
        assert!(matches!(t.free(a), Err(Fault::BadFree { .. })));
    }

    #[test]
    fn aligned_allocations() {
        let mut t = tlsf();
        for shift in 4..12 {
            let align = 1u64 << shift;
            let a = t.alloc(32, align).unwrap();
            assert!(a.is_aligned(16), "TLSF quanta are 16-aligned");
        }
    }

    #[test]
    fn reuse_prefers_recently_freed() {
        let mut t = tlsf();
        let a = t.alloc(128, 16).unwrap();
        let _barrier = t.alloc(128, 16).unwrap(); // keeps `a` from coalescing
        t.free(a).unwrap();
        let b = t.alloc(128, 16).unwrap();
        // LIFO free lists give back the same block (cache warmth).
        assert_eq!(a, b);
    }

    #[test]
    fn slow_path_flag_set_on_class_miss() {
        let mut t = tlsf();
        // First allocation must split the single giant block: slow path.
        let a = t.alloc(64, 16).unwrap();
        assert!(t.last_was_slow_path());
        // With a live barrier preventing coalescing, freeing and
        // re-allocating the same size hits the exact class: fast path.
        let _barrier = t.alloc(64, 16).unwrap();
        t.free(a).unwrap();
        let b = t.alloc(64, 16).unwrap();
        assert_eq!(a, b);
        assert!(!t.last_was_slow_path());
    }

    #[test]
    fn immediate_coalescing_means_churn_stays_slow() {
        // True TLSF coalesces on free; alloc/free churn of a lone block
        // keeps splitting the wilderness — the behaviour that loses to Lea
        // in the paper's Figure 10 SQLite analysis.
        let mut t = tlsf();
        for _ in 0..10 {
            let a = t.alloc(48, 16).unwrap();
            assert!(t.last_was_slow_path());
            t.free(a).unwrap();
        }
    }
}
