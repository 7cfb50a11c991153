//! Bump (arena) allocator for boot-time allocations.
//!
//! Early boot code (TCB, §3.3) allocates a handful of structures before the
//! real allocator is online; Unikraft uses a simple region bump pointer for
//! this. `free` is a no-op except for the final allocation, which can be
//! popped — enough for boot and for the allocation-latency microbenchmark's
//! "stack-like" comparison point.

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

use crate::{RegionAlloc, MIN_ALIGN};

/// The bump allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bump {
    base: Addr,
    size: u64,
    next: Addr,
    live: Vec<(u64, u64)>, // (addr, size) stack for pop-style frees
}

impl Bump {
    /// Creates a bump allocator over `[base, base + size)`.
    pub(crate) fn new(base: Addr, size: u64) -> Self {
        Bump {
            base,
            size,
            next: base,
            live: Vec::new(),
        }
    }
}

impl RegionAlloc for Bump {
    fn alloc(&mut self, size: u64, align: u64) -> Result<Addr, Fault> {
        let align = align.max(MIN_ALIGN);
        let addr = self.next.align_up(align);
        let want = size.max(1).next_multiple_of(MIN_ALIGN);
        let end = addr
            .checked_add(want)
            .ok_or(Fault::ResourceExhausted { what: "bump arena" })?;
        if end > self.base + self.size {
            return Err(Fault::ResourceExhausted { what: "bump arena" });
        }
        self.next = end;
        self.live.push((addr.raw(), want));
        Ok(addr)
    }

    fn free(&mut self, addr: Addr) -> Result<u64, Fault> {
        // Pop-style: only the most recent allocation can actually be
        // reclaimed; anything else is a (legal) leak until reset.
        match self.live.last().copied() {
            Some((top, size)) if top == addr.raw() => {
                self.live.pop();
                self.next = addr;
                Ok(size)
            }
            _ => {
                let pos = self
                    .live
                    .iter()
                    .position(|&(a, _)| a == addr.raw())
                    .ok_or(Fault::BadFree { addr })?;
                let (_, size) = self.live.remove(pos);
                Ok(size)
            }
        }
    }

    fn size_of(&self, addr: Addr) -> Option<u64> {
        self.live
            .iter()
            .find(|&&(a, _)| a == addr.raw())
            .map(|&(_, s)| s)
    }

    fn allocated_bytes(&self) -> u64 {
        self.live.iter().map(|&(_, s)| s).sum()
    }

    fn capacity(&self) -> u64 {
        self.size
    }

    fn last_was_slow_path(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_sequentially() {
        let mut b = Bump::new(Addr::new(0x1000), 4096);
        let a1 = b.alloc(16, 16).unwrap();
        let a2 = b.alloc(16, 16).unwrap();
        assert!(a2 > a1);
        assert_eq!(a2 - a1, 16);
    }

    #[test]
    fn pop_free_reclaims() {
        let mut b = Bump::new(Addr::new(0x1000), 64);
        let a1 = b.alloc(32, 16).unwrap();
        let a2 = b.alloc(32, 16).unwrap();
        b.free(a2).unwrap();
        let a3 = b.alloc(32, 16).unwrap();
        assert_eq!(a2, a3, "pop free returns space");
        let _ = a1;
    }

    #[test]
    fn exhaustion_faults() {
        let mut b = Bump::new(Addr::new(0x1000), 32);
        b.alloc(32, 16).unwrap();
        assert!(b.alloc(1, 16).is_err());
    }

    #[test]
    fn interior_free_is_tracked_leak() {
        let mut b = Bump::new(Addr::new(0x1000), 4096);
        let a1 = b.alloc(16, 16).unwrap();
        let _a2 = b.alloc(16, 16).unwrap();
        assert_eq!(b.free(a1).unwrap(), 16);
        assert_eq!(b.allocated_bytes(), 16);
        assert!(matches!(b.free(a1), Err(Fault::BadFree { .. })));
    }
}
