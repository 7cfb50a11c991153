//! The `BTreeMap`-backed block map this crate used before the boundary
//! tags, kept verbatim as a test-only reference: a [`super::BlockMap`]
//! built in a unit test runs one of these in lockstep and compares every
//! answer with it.

use std::collections::BTreeMap;

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

use super::{Block, ReleaseOutcome};

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BTreeBlocks {
    blocks: BTreeMap<u64, Block>,
}

impl BTreeBlocks {
    pub(crate) fn new(base: Addr, size: u64) -> Self {
        let mut blocks = BTreeMap::new();
        blocks.insert(base.raw(), Block { size, free: true });
        BTreeBlocks { blocks }
    }

    pub(crate) fn get(&self, addr: Addr) -> Option<Block> {
        self.blocks.get(&addr.raw()).copied()
    }

    pub(crate) fn take(&mut self, addr: Addr, want: u64) -> u64 {
        let blk = self.blocks.get_mut(&addr.raw()).expect("block exists");
        assert!(blk.free, "taking a live block");
        assert!(blk.size >= want, "block too small");
        let remainder = blk.size - want;
        blk.size = want;
        blk.free = false;
        if remainder > 0 {
            self.blocks.insert(
                addr.raw() + want,
                Block {
                    size: remainder,
                    free: true,
                },
            );
        }
        want
    }

    pub(crate) fn release(&mut self, addr: Addr) -> Result<ReleaseOutcome, Fault> {
        let raw = addr.raw();
        let blk = match self.blocks.get(&raw) {
            Some(b) if !b.free => *b,
            _ => return Err(Fault::BadFree { addr }),
        };
        let freed = blk.size;
        let mut start = raw;
        let mut size = blk.size;
        let mut absorbed = 0u32;

        // Coalesce with the next block if free and adjacent.
        if let Some((&next_addr, &next)) = self.blocks.range(raw + 1..).next() {
            if next.free && next_addr == raw + blk.size {
                self.blocks.remove(&next_addr);
                size += next.size;
                absorbed += 1;
            }
        }
        // Coalesce with the previous block if free and adjacent.
        if let Some((&prev_addr, &prev)) = self.blocks.range(..raw).next_back() {
            if prev.free && prev_addr + prev.size == raw {
                self.blocks.remove(&raw);
                start = prev_addr;
                size += prev.size;
                absorbed += 1;
            }
        }
        self.blocks.insert(start, Block { size, free: true });

        Ok(ReleaseOutcome {
            freed,
            merged_base: Addr::new(start),
            merged_size: size,
            absorbed,
        })
    }

    pub(crate) fn release_no_coalesce(&mut self, addr: Addr) -> Result<u64, Fault> {
        match self.blocks.get_mut(&addr.raw()) {
            Some(b) if !b.free => {
                b.free = true;
                Ok(b.size)
            }
            _ => Err(Fault::BadFree { addr }),
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (Addr, Block)> + '_ {
        self.blocks.iter().map(|(&a, &b)| (Addr::new(a), b))
    }

    pub(crate) fn live_bytes(&self) -> u64 {
        self.blocks
            .values()
            .filter(|b| !b.free)
            .map(|b| b.size)
            .sum()
    }

    pub(crate) fn check_invariants(
        &self,
        base: Addr,
        size: u64,
        allow_adjacent_free: bool,
    ) -> Result<(), String> {
        let mut cursor = base.raw();
        let mut prev_free = false;
        for (&addr, blk) in &self.blocks {
            if addr != cursor {
                return Err(format!(
                    "gap or overlap: expected block at {cursor:#x}, found {addr:#x}"
                ));
            }
            if prev_free && blk.free && !allow_adjacent_free {
                return Err(format!("uncoalesced free blocks at {addr:#x}"));
            }
            prev_free = blk.free;
            cursor += blk.size;
        }
        if cursor != base.raw() + size {
            return Err(format!(
                "blocks end at {cursor:#x}, region ends at {:#x}",
                base.raw() + size
            ));
        }
        Ok(())
    }
}
