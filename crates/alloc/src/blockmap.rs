//! Shared block bookkeeping for the free-list allocators.
//!
//! Both [`crate::tlsf::Tlsf`] and [`crate::lea::Lea`] manage the region as a
//! sequence of blocks that split on allocation and coalesce with free
//! neighbours on release. `BlockMap` centralizes that boundary-tag logic so
//! the two allocators differ only in their *indexing policy* (two-level
//! segregated fit vs. exact small bins + best-fit), which is exactly the
//! difference the paper's Figure 10 discussion attributes their divergent
//! behaviour to.
//!
//! # Boundary tags, kept host-side
//!
//! A real allocator writes a header at a block's first word and a footer
//! at its last, so `free` finds both neighbours in O(1). This map keeps
//! the same two tags per block, but in host memory (DESIGN.md §7: payloads
//! are simulated, metadata is not): one `u32` per [`MIN_ALIGN`]-byte
//! granule of the region, holding `granules << 2 | HEAD | FREE` at a
//! block's first granule, `granules << 2` at its last, and zero anywhere
//! inside a block. Lookup, split and coalesce are a handful of indexed
//! loads and stores, whatever the number of live blocks.
//!
//! The tags are sized by use, not by the region. They live in chunks of
//! 256 granules — one 4 KiB heap page — and a chunk exists only once a
//! block boundary falls inside its page: the inside of a 512 KiB bucket
//! array costs nothing, and a heap that has handed out 40 KiB owns ten
//! 1 KiB chunks, not a table for its 16 MiB. Two tags are implicit so
//! that an untouched heap owns no chunk at all: granule 0 is always a
//! block's first, so its tag is a field; and the block that reaches the
//! region's end has no footer, because no block follows it to read one.
//!
//! In this crate's unit tests every map runs the previous,
//! `BTreeMap`-backed implementation in lockstep and compares each answer
//! with it (`reference`), so any operation sequence `Tlsf` or `Lea` can
//! produce in a test is also a differential test of the tags.

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

use crate::MIN_ALIGN;

#[cfg(test)]
mod reference;

/// State of one block in the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Block {
    /// Block payload size in bytes.
    pub size: u64,
    /// Whether the block is on a free list.
    pub free: bool,
}

/// Tag bit: the granule is a block's first.
const HEAD: u32 = 0b10;
/// Tag bit (head tags only): the block is free.
const FREE: u32 = 0b01;
/// The granule count sits above the two flag bits.
const COUNT_SHIFT: u32 = 2;

/// Granules per tag chunk: one 4 KiB page of the heap.
const CHUNK_GRANULES: u64 = 256;

type Chunk = [u32; CHUNK_GRANULES as usize];

/// Address-ordered map of all blocks (free and live) in a region.
///
/// Equality is representational: two maps are equal when they hold the
/// same chunks with the same tags, so a clone behaves exactly like its
/// original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockMap {
    base: u64,
    /// Region length in bytes; only the last block may end off-granule.
    size: u64,
    /// Granules in the region, the last one possibly partial.
    granules: u64,
    /// Tag of granule 0, which is always a block's first.
    first: u32,
    /// Tags of the other granules; a missing chunk is all zeros.
    chunks: Vec<Option<Box<Chunk>>>,
    #[cfg(test)]
    reference: reference::BTreeBlocks,
}

impl BlockMap {
    /// Creates a map holding one free block spanning the whole region.
    /// Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the region has more than 2³⁰ granules (16 GiB).
    pub(crate) fn new(base: Addr, size: u64) -> Self {
        let granules = size.div_ceil(MIN_ALIGN);
        assert!(
            granules < 1 << (32 - COUNT_SHIFT),
            "region too large for u32 boundary tags"
        );
        BlockMap {
            base: base.raw(),
            size,
            granules,
            first: (granules as u32) << COUNT_SHIFT | HEAD | FREE,
            chunks: Vec::new(),
            #[cfg(test)]
            reference: reference::BTreeBlocks::new(base, size),
        }
    }

    fn tag(&self, granule: u64) -> u32 {
        if granule == 0 {
            return self.first;
        }
        match self.chunks.get((granule / CHUNK_GRANULES) as usize) {
            Some(Some(chunk)) => chunk[(granule % CHUNK_GRANULES) as usize],
            _ => 0,
        }
    }

    fn set_tag(&mut self, granule: u64, tag: u32) {
        if granule == 0 {
            self.first = tag;
            return;
        }
        let index = (granule / CHUNK_GRANULES) as usize;
        if tag == 0 && !matches!(self.chunks.get(index), Some(Some(_))) {
            return; // already reads as zero
        }
        if index >= self.chunks.len() {
            self.chunks.resize_with(index + 1, || None);
        }
        let chunk =
            self.chunks[index].get_or_insert_with(|| Box::new([0; CHUNK_GRANULES as usize]));
        chunk[(granule % CHUNK_GRANULES) as usize] = tag;
    }

    /// Writes both tags of the block of `count` granules at `granule`.
    fn set_block(&mut self, granule: u64, count: u64, free: bool) {
        let count_bits = (count as u32) << COUNT_SHIFT;
        self.set_tag(granule, count_bits | HEAD | if free { FREE } else { 0 });
        let last = granule + count - 1;
        // A one-granule block's head doubles as its foot; the block at the
        // region's end needs none.
        if count > 1 && last + 1 < self.granules {
            self.set_tag(last, count_bits);
        }
    }

    /// Byte length of the `count`-granule block at `granule`: whole
    /// granules, except that the region may end inside the last one.
    fn bytes(&self, granule: u64, count: u64) -> u64 {
        (count * MIN_ALIGN).min(self.size - granule * MIN_ALIGN)
    }

    /// The granule and head tag of the block starting exactly at `addr`.
    fn head(&self, addr: Addr) -> Option<(u64, u32)> {
        let offset = addr.raw().checked_sub(self.base)?;
        if offset >= self.size || !offset.is_multiple_of(MIN_ALIGN) {
            return None;
        }
        let granule = offset / MIN_ALIGN;
        let tag = self.tag(granule);
        (tag & HEAD != 0).then_some((granule, tag))
    }

    fn block(&self, granule: u64, tag: u32) -> Block {
        Block {
            size: self.bytes(granule, u64::from(tag >> COUNT_SHIFT)),
            free: tag & FREE != 0,
        }
    }

    /// Looks up the block starting exactly at `addr`.
    pub(crate) fn get(&self, addr: Addr) -> Option<Block> {
        let got = self.head(addr).map(|(g, tag)| self.block(g, tag));
        #[cfg(test)]
        assert_eq!(got, self.reference.get(addr), "get({addr})");
        got
    }

    /// Marks the block at `addr` as allocated, splitting off the tail if the
    /// block is larger than `want`. Returns the size actually consumed.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a free block of at least `want` bytes, or
    /// if a split would not fall on a [`MIN_ALIGN`] boundary — callers
    /// (the indexing policies) guarantee both.
    pub(crate) fn take(&mut self, addr: Addr, want: u64) -> u64 {
        let (granule, tag) = self.head(addr).expect("block exists");
        let blk = self.block(granule, tag);
        assert!(blk.free, "taking a live block");
        assert!(blk.size >= want, "block too small");
        if blk.size == want {
            self.set_tag(granule, tag & !FREE);
        } else {
            assert!(
                want > 0 && want.is_multiple_of(MIN_ALIGN),
                "split off-granule"
            );
            let count = u64::from(tag >> COUNT_SHIFT);
            let taken = want / MIN_ALIGN;
            self.set_block(granule, taken, false);
            self.set_block(granule + taken, count - taken, true);
        }
        #[cfg(test)]
        self.reference.take(addr, want);
        want
    }

    /// Releases the block at `addr`, coalescing with free neighbours.
    /// Returns `(payload size freed, coalesced block base, coalesced size,
    /// neighbours absorbed)`.
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] if `addr` is not a live block.
    pub(crate) fn release(&mut self, addr: Addr) -> Result<ReleaseOutcome, Fault> {
        let out = self.release_tags(addr);
        #[cfg(test)]
        assert_eq!(out, self.reference.release(addr), "release({addr})");
        out
    }

    fn release_tags(&mut self, addr: Addr) -> Result<ReleaseOutcome, Fault> {
        let (granule, tag) = match self.head(addr) {
            Some((g, tag)) if tag & FREE == 0 => (g, tag),
            _ => return Err(Fault::BadFree { addr }),
        };
        let count = u64::from(tag >> COUNT_SHIFT);
        let freed = self.bytes(granule, count);
        let mut start = granule;
        let mut total = count;
        let mut absorbed = 0u32;

        // Coalesce with the next block if free: its head and this block's
        // foot become the inside of the merged block.
        let next = granule + count;
        if next < self.granules {
            let next_tag = self.tag(next);
            debug_assert!(next_tag & HEAD != 0, "blocks tile the region");
            if next_tag & FREE != 0 {
                self.set_tag(next - 1, 0);
                self.set_tag(next, 0);
                total += u64::from(next_tag >> COUNT_SHIFT);
                absorbed += 1;
            }
        }
        // Coalesce with the previous block if free; its foot, one granule
        // down, says where it starts.
        if granule > 0 {
            let prev_count = u64::from(self.tag(granule - 1) >> COUNT_SHIFT);
            let prev = granule - prev_count;
            let prev_tag = self.tag(prev);
            debug_assert!(
                prev_tag & HEAD != 0 && u64::from(prev_tag >> COUNT_SHIFT) == prev_count,
                "foot and head agree"
            );
            if prev_tag & FREE != 0 {
                self.set_tag(granule - 1, 0);
                self.set_tag(granule, 0);
                start = prev;
                total += prev_count;
                absorbed += 1;
            }
        }
        self.set_block(start, total, true);

        Ok(ReleaseOutcome {
            freed,
            merged_base: Addr::new(self.base + start * MIN_ALIGN),
            merged_size: self.bytes(start, total),
            absorbed,
        })
    }

    /// Releases the block at `addr` **without** coalescing — dlmalloc-style
    /// deferred coalescing for fastbin-class blocks, which is what lets the
    /// Lea allocator reuse exact-size blocks on churn-heavy workloads
    /// (the Figure 10 behaviour difference).
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] if `addr` is not a live block.
    pub(crate) fn release_no_coalesce(&mut self, addr: Addr) -> Result<u64, Fault> {
        let out = match self.head(addr) {
            Some((granule, tag)) if tag & FREE == 0 => {
                self.set_tag(granule, tag | FREE);
                Ok(self.block(granule, tag).size)
            }
            _ => Err(Fault::BadFree { addr }),
        };
        #[cfg(test)]
        assert_eq!(
            out,
            self.reference.release_no_coalesce(addr),
            "release_no_coalesce({addr})"
        );
        out
    }

    /// Iterates over `(addr, block)` pairs in address order (the block
    /// list the lockstep reference is compared against).
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Addr, Block)> + '_ {
        let mut granule = 0;
        std::iter::from_fn(move || {
            if granule >= self.granules {
                return None;
            }
            let tag = self.tag(granule);
            let at = granule;
            // A missing head would stall the walk; step one granule so
            // `check_invariants` sees the gap instead.
            granule += u64::from(tag >> COUNT_SHIFT).max(1);
            Some((Addr::new(self.base + at * MIN_ALIGN), self.block(at, tag)))
        })
    }

    /// Sum of live payload bytes.
    #[cfg(test)]
    pub(crate) fn live_bytes(&self) -> u64 {
        let live = self
            .iter()
            .filter(|(_, b)| !b.free)
            .map(|(_, b)| b.size)
            .sum();
        assert_eq!(live, self.reference.live_bytes());
        live
    }

    /// Checks the structural invariants: blocks tile the region with no
    /// overlap and no gap, every block's foot agrees with its head, no tag
    /// is left inside a block; unless `allow_adjacent_free` (deferred
    /// coalescing, Lea-style), no two adjacent free blocks exist.
    ///
    /// Used by property tests; `region` is `(base, size)`.
    pub(crate) fn check_invariants(
        &self,
        base: Addr,
        size: u64,
        allow_adjacent_free: bool,
    ) -> Result<(), String> {
        if (base.raw(), size) != (self.base, self.size) {
            return Err(format!(
                "map covers {:#x}+{:#x}, asked about {base}+{size:#x}",
                self.base, self.size
            ));
        }
        let mut granule = 0;
        let mut prev_free = false;
        let mut boundary_tags = 0usize;
        while granule < self.granules {
            let addr = self.base + granule * MIN_ALIGN;
            let tag = self.tag(granule);
            let count = u64::from(tag >> COUNT_SHIFT);
            if tag & HEAD == 0 || count == 0 {
                return Err(format!("gap or overlap: expected block at {addr:#x}"));
            }
            let end = granule + count;
            if end > self.granules {
                return Err(format!(
                    "block at {addr:#x} ends at {:#x}, region ends at {:#x}",
                    self.base + end * MIN_ALIGN,
                    self.base + self.size
                ));
            }
            boundary_tags += 1;
            if count > 1 && end < self.granules {
                boundary_tags += 1;
                if self.tag(end - 1) != (count as u32) << COUNT_SHIFT {
                    return Err(format!(
                        "foot of block at {addr:#x} disagrees with its head"
                    ));
                }
            }
            let free = tag & FREE != 0;
            if prev_free && free && !allow_adjacent_free {
                return Err(format!("uncoalesced free blocks at {addr:#x}"));
            }
            prev_free = free;
            granule = end;
        }
        let stored = 1 + self
            .chunks
            .iter()
            .flatten()
            .map(|chunk| chunk.iter().filter(|&&tag| tag != 0).count())
            .sum::<usize>();
        if stored != boundary_tags {
            return Err(format!(
                "{stored} tags stored, {boundary_tags} block boundaries: a stale tag inside a block"
            ));
        }
        #[cfg(test)]
        {
            self.reference
                .check_invariants(base, size, allow_adjacent_free)?;
            assert!(self.iter().eq(self.reference.iter()), "block lists differ");
        }
        Ok(())
    }
}

/// Result of [`BlockMap::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReleaseOutcome {
    /// Payload bytes of the freed allocation.
    pub freed: u64,
    /// Base of the (possibly coalesced) free block.
    pub merged_base: Addr,
    /// Size of the (possibly coalesced) free block.
    pub merged_size: u64,
    /// Number of free neighbours absorbed (0..=2).
    pub absorbed: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lea::Lea;
    use crate::tlsf::Tlsf;
    use crate::RegionAlloc;

    const BASE: Addr = Addr::new(0x1000);
    const SIZE: u64 = 0x1000;

    #[test]
    fn take_splits() {
        let mut m = BlockMap::new(BASE, SIZE);
        m.take(BASE, 64);
        assert_eq!(
            m.get(BASE),
            Some(Block {
                size: 64,
                free: false
            })
        );
        assert_eq!(
            m.get(BASE + 64),
            Some(Block {
                size: SIZE - 64,
                free: true
            })
        );
        m.check_invariants(BASE, SIZE, false).unwrap();
    }

    #[test]
    fn release_coalesces_both_sides() {
        let mut m = BlockMap::new(BASE, SIZE);
        // A|B|C cut from the front, and a live D so C's right neighbour
        // is not the free remainder.
        for i in 0..4 {
            m.take(BASE + 64 * i, 64);
        }
        // free A and C, then B: releasing B must absorb both neighbours.
        m.release(BASE).unwrap();
        m.release(BASE + 128).unwrap();
        let out = m.release(BASE + 64).unwrap();
        assert_eq!(out.absorbed, 2);
        assert_eq!(out.merged_base, BASE);
        assert_eq!(out.merged_size, 192);
        assert_eq!(
            m.get(BASE + 64),
            None,
            "B's head is inside the merged block"
        );
        m.check_invariants(BASE, SIZE, false).unwrap();
    }

    #[test]
    fn double_free_rejected() {
        let mut m = BlockMap::new(BASE, SIZE);
        m.take(BASE, 32);
        m.release(BASE).unwrap();
        assert!(matches!(m.release(BASE), Err(Fault::BadFree { .. })));
    }

    #[test]
    fn free_of_unknown_address_rejected() {
        let mut m = BlockMap::new(BASE, SIZE);
        assert!(matches!(m.release(BASE + 8), Err(Fault::BadFree { .. })));
        m.take(BASE, 64);
        // Inside a live block, below the region, past it, at its end.
        for addr in [BASE + 16, BASE - 16, BASE + SIZE, BASE + SIZE + 16] {
            assert_eq!(m.get(addr), None);
            assert!(matches!(m.release(addr), Err(Fault::BadFree { .. })));
            assert!(matches!(
                m.release_no_coalesce(addr),
                Err(Fault::BadFree { .. })
            ));
        }
    }

    #[test]
    fn live_bytes_tracks() {
        let mut m = BlockMap::new(BASE, SIZE);
        m.take(BASE, 64);
        assert_eq!(m.live_bytes(), 64);
        m.release(BASE).unwrap();
        assert_eq!(m.live_bytes(), 0);
    }

    #[test]
    fn an_untouched_map_owns_no_chunk_and_the_inside_of_a_block_is_free() {
        let mut m = BlockMap::new(BASE, 1 << 24);
        assert!(m.chunks.is_empty());
        // A 512 KiB block then a small one: boundaries in two pages.
        m.take(BASE, 512 * 1024);
        m.take(BASE + 512 * 1024, 64);
        assert_eq!(m.chunks.iter().flatten().count(), 2);
        m.check_invariants(BASE, 1 << 24, false).unwrap();
    }

    #[test]
    fn a_region_that_ends_off_granule_keeps_its_exact_size() {
        let mut m = BlockMap::new(BASE, 1000);
        m.take(BASE, 64);
        assert_eq!(m.get(BASE + 64).unwrap().size, 936);
        m.take(BASE + 64, 936);
        assert_eq!(m.live_bytes(), 1000);
        m.release(BASE).unwrap();
        let out = m.release(BASE + 64).unwrap();
        assert_eq!((out.merged_base, out.merged_size), (BASE, 1000));
        m.check_invariants(BASE, 1000, false).unwrap();
    }

    /// Drives `alloc` with a seeded stream of allocations (small, large,
    /// over-aligned), frees, double frees and frees of addresses it never
    /// returned, checking the invariants after every step — which, in this
    /// crate's tests, includes block-for-block equality with the
    /// `BTreeMap` reference, on top of the per-answer comparison every
    /// `BlockMap` method makes. Returns an FNV-1a digest of everything the
    /// allocator answered: each address, slow-path flag and granted size,
    /// each freed size, each refusal.
    fn churn<A: RegionAlloc>(mut alloc: A, invariants: fn(&A) -> Result<(), String>) -> u64 {
        let mut rng = crate::testrng::Rng::new(0xB10C_4A95);
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        let mut live: Vec<Addr> = Vec::new();
        let mut dead: Vec<Addr> = Vec::new();
        for step in 0..12_000 {
            match rng.range(0, 16) {
                0..=6 if live.len() < 600 => {
                    let size = match rng.range(0, 8) {
                        0..=4 => rng.range(1, 600),
                        5..=6 => rng.range(600, 8192),
                        _ => rng.range(8192, 96 * 1024),
                    };
                    let align = if rng.range(0, 8) == 0 {
                        16 << rng.range(1, 6)
                    } else {
                        16
                    };
                    match alloc.alloc(size, align) {
                        Ok(addr) => {
                            let granted = alloc.size_of(addr).expect("a live block has a size");
                            assert!(granted >= size, "step {step}: granted {granted} of {size}");
                            fold(addr.raw());
                            fold(u64::from(alloc.last_was_slow_path()));
                            fold(granted);
                            dead.retain(|&d| d != addr);
                            live.push(addr);
                        }
                        Err(fault) => {
                            assert!(matches!(fault, Fault::ResourceExhausted { .. }));
                            fold(u64::MAX);
                        }
                    }
                }
                0..=11 if !live.is_empty() => {
                    let addr = live.swap_remove(rng.range(0, live.len() as u64) as usize);
                    let size = alloc.size_of(addr).expect("live");
                    assert_eq!(alloc.free(addr), Ok(size), "step {step}: free({addr})");
                    assert_eq!(alloc.size_of(addr), None, "freed blocks have no live size");
                    fold(size);
                    dead.push(addr);
                }
                12 if !dead.is_empty() => {
                    // Double free: the address may since have been merged
                    // into a neighbour, re-split, or be a free block's head.
                    let addr = dead[rng.range(0, dead.len() as u64) as usize];
                    assert_eq!(
                        alloc.free(addr),
                        Err(Fault::BadFree { addr }),
                        "step {step}"
                    );
                }
                _ => {
                    // Foreign frees: inside a live block, off-granule,
                    // below the region, past it.
                    let addr = match (rng.range(0, 4), live.first()) {
                        (0, Some(&a)) => a + 16,
                        (1, Some(&a)) => a + 8,
                        (2, _) => Addr::new(0x10000 - 16 * rng.range(1, 64)),
                        _ => Addr::new(0x10000 + (1 << 20) + 16 * rng.range(0, 64)),
                    };
                    if !live.contains(&addr) {
                        assert_eq!(alloc.size_of(addr), None);
                        assert_eq!(
                            alloc.free(addr),
                            Err(Fault::BadFree { addr }),
                            "step {step}"
                        );
                    }
                }
            }
            if step % 8 == 0 {
                invariants(&alloc).unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        assert_eq!(
            alloc.allocated_bytes(),
            live.iter().map(|&a| alloc.size_of(a).unwrap()).sum::<u64>()
        );
        digest
    }

    // The digests were recorded by running `churn` at the commit before
    // the boundary tags (`BTreeMap` blocks): every address, slow-path flag
    // and size either allocator returns is the one it returned then.

    #[test]
    fn tlsf_answers_a_seeded_stream_exactly_as_it_did_over_the_btreemap() {
        let tlsf = Tlsf::new(Addr::new(0x10000), 1 << 20);
        assert_eq!(churn(tlsf, Tlsf::check_invariants), 0x72BE_8069_9CC3_2AA5);
    }

    #[test]
    fn lea_answers_a_seeded_stream_exactly_as_it_did_over_the_btreemap() {
        let lea = Lea::new(Addr::new(0x10000), 1 << 20);
        assert_eq!(churn(lea, Lea::check_invariants), 0x98F6_9355_76FD_06F2);
    }
}
