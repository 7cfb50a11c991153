//! Lea-style allocator (dlmalloc-lite) — the allocator CubicleOS uses.
//!
//! Doug Lea's malloc \[paper ref 49\] keeps exact-size "fastbin"-like small
//! bins plus a best-fit search over larger free blocks. Under the SQLite
//! workload of Figure 10 its exact small bins avoid the re-splitting TLSF
//! performs, which is why CubicleOS-without-isolation beats the
//! Unikraft-linuxu baseline (§6.4). This implementation reproduces that
//! policy difference over the same `BlockMap` substrate as
//! [`crate::tlsf::Tlsf`].

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

use crate::blockmap::BlockMap;
use crate::{RegionAlloc, MIN_ALIGN};

/// Largest size served from exact small bins.
const SMALL_MAX: u64 = 512;
/// Number of exact small bins (16, 32, ..., 512).
const NUM_SMALL_BINS: usize = (SMALL_MAX / MIN_ALIGN) as usize;

/// The Lea-style allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lea {
    base: Addr,
    size: u64,
    blocks: BlockMap,
    /// Exact-size bins for small requests (LIFO, dlmalloc fastbin flavour).
    small_bins: Vec<Vec<u64>>,
    /// Larger free blocks as `(size, addr)` kept sorted for best-fit.
    large: Vec<(u64, u64)>,
    allocated: u64,
    last_slow: bool,
}

fn small_bin_index(size: u64) -> Option<usize> {
    if size <= SMALL_MAX {
        Some((size / MIN_ALIGN) as usize - 1)
    } else {
        None
    }
}

impl Lea {
    /// Creates a Lea allocator over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or `base` is not `MIN_ALIGN`-aligned.
    pub fn new(base: Addr, size: u64) -> Self {
        assert!(size > 0, "empty region");
        assert!(base.is_aligned(MIN_ALIGN), "misaligned region base");
        let mut lea = Lea {
            base,
            size,
            blocks: BlockMap::new(base, size),
            small_bins: vec![Vec::new(); NUM_SMALL_BINS],
            large: Vec::new(),
            allocated: 0,
            last_slow: false,
        };
        lea.file_free(base, size);
        lea
    }

    fn file_free(&mut self, addr: Addr, size: u64) {
        match small_bin_index(size) {
            Some(bin) => self.small_bins[bin].push(addr.raw()),
            None => {
                let entry = (size, addr.raw());
                let pos = self.large.partition_point(|&e| e < entry);
                self.large.insert(pos, entry);
            }
        }
    }

    fn unfile_free(&mut self, addr: Addr, size: u64) {
        match small_bin_index(size) {
            Some(bin) => {
                if let Some(pos) = self.small_bins[bin].iter().position(|&a| a == addr.raw()) {
                    self.small_bins[bin].swap_remove(pos);
                }
            }
            None => {
                if let Ok(pos) = self.large.binary_search(&(size, addr.raw())) {
                    self.large.remove(pos);
                }
            }
        }
    }

    /// Best-fit over the sorted large list: first entry with size >= want.
    fn best_fit(&self, want: u64) -> Option<(u64, u64)> {
        let pos = self.large.partition_point(|&(s, _)| s < want);
        self.large.get(pos).copied()
    }
}

impl RegionAlloc for Lea {
    fn alloc(&mut self, size: u64, align: u64) -> Result<Addr, Fault> {
        let align = align.max(MIN_ALIGN);
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let want = size.max(1).next_multiple_of(MIN_ALIGN) + (align - MIN_ALIGN);

        // Fast path: exact small bin hit, no split, no search.
        if let Some(bin) = small_bin_index(want) {
            if let Some(&raw) = self.small_bins[bin].last() {
                let addr = Addr::new(raw);
                self.small_bins[bin].pop();
                self.blocks.take(addr, want);
                self.allocated += want;
                self.last_slow = false;
                return Ok(addr);
            }
        }

        // Slow path: best-fit from the large blocks (or any larger small
        // bin), splitting the remainder.
        let candidate = self
            .best_fit(want)
            .or_else(|| {
                // Scan larger small bins for a block to split.
                small_bin_index(want).and_then(|start| {
                    self.small_bins[start + 1..]
                        .iter()
                        .enumerate()
                        .find_map(|(i, bin)| {
                            bin.last()
                                .map(|&a| ((start + 1 + i + 1) as u64 * MIN_ALIGN, a))
                        })
                })
            })
            .ok_or(Fault::ResourceExhausted {
                what: "Lea heap region",
            })?;
        let (bsize, raw) = candidate;
        let addr = Addr::new(raw);
        self.unfile_free(addr, bsize);
        self.blocks.take(addr, want);
        let remainder = bsize - want;
        if remainder > 0 {
            self.file_free(addr + want, remainder);
        }
        self.allocated += want;
        self.last_slow = true;
        Ok(addr)
    }

    fn free(&mut self, addr: Addr) -> Result<u64, Fault> {
        // dlmalloc defers small-chunk coalescing (fastbins); we mirror that
        // by re-filing small frees as-is and only coalescing large ones.
        let blk = self
            .blocks
            .get(addr)
            .filter(|b| !b.free)
            .ok_or(Fault::BadFree { addr })?;
        if small_bin_index(blk.size).is_some() {
            let freed = self.blocks.release_no_coalesce(addr)?;
            self.file_free(addr, freed);
            self.allocated -= freed;
            Ok(freed)
        } else {
            let out = self.blocks.release(addr)?;
            self.scrub_range(out.merged_base.raw(), out.merged_size);
            self.file_free(out.merged_base, out.merged_size);
            self.allocated -= out.freed;
            Ok(out.freed)
        }
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

impl Lea {
    /// Removes every filed free entry whose address lies within
    /// `[lo, lo+len)`; used after the block map coalesced neighbours.
    fn scrub_range(&mut self, lo: u64, len: u64) {
        let hi = lo + len;
        for bin in &mut self.small_bins {
            bin.retain(|&a| !(lo <= a && a < hi));
        }
        self.large.retain(|&(_, a)| !(lo <= a && a < hi));
    }

    /// Validates block-map invariants; used by property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.blocks.check_invariants(self.base, self.size, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lea() -> Lea {
        Lea::new(Addr::new(0x10000), 1 << 20)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut l = lea();
        let a = l.alloc(100, 16).unwrap();
        assert_eq!(l.size_of(a), Some(112));
        l.free(a).unwrap();
        assert_eq!(l.allocated_bytes(), 0);
        l.check_invariants().unwrap();
    }

    #[test]
    fn small_bin_hit_is_fast_path() {
        let mut l = lea();
        let a = l.alloc(64, 16).unwrap();
        l.free(a).unwrap();
        let b = l.alloc(64, 16).unwrap();
        assert_eq!(a, b, "exact bin should return the freed block");
        assert!(
            !l.last_was_slow_path(),
            "exact small-bin reuse is the Lea fast path"
        );
    }

    #[test]
    fn first_cut_is_slow_path() {
        let mut l = lea();
        l.alloc(64, 16).unwrap();
        assert!(l.last_was_slow_path(), "splitting the wilderness is slow");
    }

    #[test]
    fn lea_beats_tlsf_on_repeated_same_size_churn() {
        // The Figure 10 story: on malloc/free churn of identical sizes, Lea
        // hits exact bins (fast path) while TLSF may keep splitting.
        use crate::tlsf::Tlsf;
        let mut l = lea();
        let mut t = Tlsf::new(Addr::new(0x10000), 1 << 20);
        let mut lea_slow = 0;
        let mut tlsf_slow = 0;
        // Warm both allocators, then churn.
        let la = l.alloc(48, 16).unwrap();
        let ta = t.alloc(48, 16).unwrap();
        l.free(la).unwrap();
        t.free(ta).unwrap();
        for _ in 0..100 {
            let a = l.alloc(48, 16).unwrap();
            if l.last_was_slow_path() {
                lea_slow += 1;
            }
            l.free(a).unwrap();
            let b = t.alloc(48, 16).unwrap();
            if t.last_was_slow_path() {
                tlsf_slow += 1;
            }
            t.free(b).unwrap();
        }
        assert!(lea_slow <= tlsf_slow, "lea {lea_slow} vs tlsf {tlsf_slow}");
        assert_eq!(lea_slow, 0);
    }

    #[test]
    fn double_free_faults() {
        let mut l = lea();
        let a = l.alloc(64, 16).unwrap();
        l.free(a).unwrap();
        assert!(matches!(l.free(a), Err(Fault::BadFree { .. })));
    }

    #[test]
    fn oom_faults() {
        let mut l = Lea::new(Addr::new(0x10000), 4096);
        assert!(matches!(
            l.alloc(1 << 20, 16),
            Err(Fault::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn large_allocations_best_fit() {
        let mut l = lea();
        let a = l.alloc(10_000, 16).unwrap();
        let b = l.alloc(20_000, 16).unwrap();
        l.free(a).unwrap();
        l.free(b).unwrap();
        // A 15,000-byte request best-fits into the 20,000 block region...
        let c = l.alloc(15_000, 16).unwrap();
        assert!(l.size_of(c).unwrap() >= 15_000);
        l.check_invariants().unwrap();
    }

    #[test]
    fn mixed_churn_keeps_invariants() {
        let mut l = lea();
        let mut live = Vec::new();
        for i in 0..200u64 {
            if i % 3 == 2 {
                if let Some(a) = live.pop() {
                    l.free(a).unwrap();
                }
            } else {
                live.push(l.alloc(16 + (i * 37) % 2000, 16).unwrap());
            }
        }
        l.check_invariants().unwrap();
        for a in live {
            l.free(a).unwrap();
        }
        assert_eq!(l.allocated_bytes(), 0);
        l.check_invariants().unwrap();
    }
}
