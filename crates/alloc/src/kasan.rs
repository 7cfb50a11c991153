//! KASan-style address sanitizer: shadow memory, redzones, quarantine.
//!
//! FlexOS applies software hardening per compartment (§4.5); the prototype
//! uses the kernel address sanitizer among others, instrumenting the
//! compartment's allocator. This module reproduces the classic ASan/KASan
//! design: one shadow byte per 8-byte granule, redzones around every heap
//! allocation, and a quarantine that delays reuse of freed blocks so
//! use-after-free is caught rather than silently recycled.

use std::collections::VecDeque;

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

/// Bytes covered by one shadow byte.
pub(crate) const GRANULE: u64 = 8;

/// Redzone placed before and after each allocation.
pub(crate) const REDZONE: u64 = 16;

/// Shadow encodings (matching ASan's conventions).
mod shadow {
    /// Fully addressable granule.
    pub(crate) const OK: u8 = 0;
    /// Heap redzone.
    pub(crate) const REDZONE: u8 = 0xFA;
    /// Freed (quarantined) memory.
    pub(crate) const FREED: u8 = 0xFD;
}

/// Granules per shadow chunk: 32 KiB of heap, whose shadow is one 4 KiB
/// host page.
const CHUNK: usize = 4096;

/// The shadow of one chunk of granules: one value for all of them, or a
/// byte each.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Chunk {
    Uniform(u8),
    Bytes(Box<[u8; CHUNK]>),
}

impl Chunk {
    /// The chunk's bytes, spelled out first if it was uniform.
    fn bytes_mut(&mut self) -> &mut [u8; CHUNK] {
        if let Chunk::Uniform(value) = *self {
            *self = Chunk::Bytes(Box::new([value; CHUNK]));
        }
        match self {
            Chunk::Bytes(bytes) => bytes,
            Chunk::Uniform(_) => unreachable!("spelled out above"),
        }
    }
}

/// Address sanitizer state for one heap region.
///
/// The shadow is sized by use, not by the region: the chunks cover the
/// heap up to the chunk holding the highest granule ever un-poisoned,
/// and a granule past them *reads as* a redzone — which is what a
/// never-allocated granule is. A chunk that one value covers is that
/// value, not 4096 copies of it: the inside of a 512 KiB bucket array is
/// 15 one-byte chunks, not 60 KiB. A fresh sanitizer allocates nothing,
/// and copying or comparing one costs about what its allocations' edges
/// cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Kasan {
    base: Addr,
    /// Granules in the region (the bound on every check).
    granules: usize,
    /// Shadow of granules `0..CHUNK * shadow.len()`, a chunk at a time;
    /// the rest are redzone.
    shadow: Vec<Chunk>,
    quarantine: VecDeque<(Addr, u64)>,
    quarantined_bytes: u64,
    quarantine_limit: u64,
}

impl Kasan {
    /// Creates a sanitizer for the region `[base, base + size)`, initially
    /// all poisoned (nothing is allocated yet). Allocates nothing.
    pub(crate) fn new(base: Addr, size: u64) -> Self {
        Kasan {
            base,
            granules: (size / GRANULE) as usize + 1,
            shadow: Vec::new(),
            quarantine: VecDeque::new(),
            quarantined_bytes: 0,
            quarantine_limit: 256 * 1024,
        }
    }

    /// Host bytes the shadow and the quarantine occupy.
    pub(crate) fn host_bytes(&self) -> usize {
        let spelled = self
            .shadow
            .iter()
            .filter(|c| matches!(c, Chunk::Bytes(_)))
            .count();
        std::mem::size_of::<Self>()
            + self.shadow.len() * std::mem::size_of::<Chunk>()
            + spelled * CHUNK
            + self.quarantine.len() * std::mem::size_of::<(Addr, u64)>()
    }

    /// Granules the chunks cover.
    fn covered(&self) -> usize {
        self.shadow.len() * CHUNK
    }

    fn granule_range(&self, addr: Addr, len: u64) -> (usize, usize) {
        let start = addr.offset_from(self.base) / GRANULE;
        let end = (addr.offset_from(self.base) + len.max(1) - 1) / GRANULE;
        (start as usize, (end as usize).min(self.granules - 1))
    }

    fn set_shadow(&mut self, addr: Addr, len: u64, value: u8) {
        if len == 0 {
            return;
        }
        let (start, end) = self.granule_range(addr, len);
        // Only un-poisoning adds chunks: past them everything already
        // reads as a redzone.
        if value != shadow::REDZONE && end >= self.covered() {
            self.shadow
                .resize(end / CHUNK + 1, Chunk::Uniform(shadow::REDZONE));
        }
        let covered = self.covered();
        if start >= covered || start > end {
            return;
        }
        let end = end.min(covered - 1);
        for c in start / CHUNK..=end / CHUNK {
            let first = c * CHUNK;
            let (lo, hi) = (start.max(first) - first, end.min(first + CHUNK - 1) - first);
            let chunk = &mut self.shadow[c];
            if (lo, hi) == (0, CHUNK - 1) {
                *chunk = Chunk::Uniform(value);
            } else if *chunk != Chunk::Uniform(value) {
                chunk.bytes_mut()[lo..=hi].fill(value);
            }
        }
    }

    /// Marks an allocation's payload addressable and poisons its redzones.
    /// `addr`/`len` describe the payload (redzones lie outside it).
    ///
    /// When `len` is not granule-aligned the payload's last granule stays
    /// addressable and the trailing redzone starts at the next granule
    /// boundary — the same slack real ASan encodes with partial-granule
    /// shadow values (1..7).
    pub(crate) fn on_alloc(&mut self, addr: Addr, len: u64) {
        self.set_shadow(addr - REDZONE, REDZONE, shadow::REDZONE);
        self.set_shadow(addr, len, shadow::OK);
        let tail = addr + len;
        let aligned_tail = tail.align_up(GRANULE);
        let skip = aligned_tail - tail;
        if REDZONE > skip {
            self.set_shadow(aligned_tail, REDZONE - skip, shadow::REDZONE);
        }
    }

    /// Poisons a freed allocation and moves it to quarantine. Returns the
    /// blocks that fell out of quarantine and may now really be freed.
    pub(crate) fn on_free(&mut self, addr: Addr, len: u64) -> Vec<(Addr, u64)> {
        self.set_shadow(addr, len, shadow::FREED);
        self.quarantine.push_back((addr, len));
        self.quarantined_bytes += len;
        let mut evicted = Vec::new();
        while self.quarantined_bytes > self.quarantine_limit {
            if let Some((a, l)) = self.quarantine.pop_front() {
                self.quarantined_bytes -= l;
                evicted.push((a, l));
            } else {
                break;
            }
        }
        evicted
    }

    /// The first poisoned granule of `start..=end` and its shadow value,
    /// in address order: one inside the chunks, else the first one past
    /// them (a redzone by definition).
    fn first_poisoned_granule(&self, start: usize, end: usize) -> Option<(usize, u8)> {
        let covered = self.covered();
        if start < covered {
            for c in start / CHUNK..=end.min(covered - 1) / CHUNK {
                let first = c * CHUNK;
                let lo = start.max(first) - first;
                let hi = end.min(first + CHUNK - 1) - first;
                match &self.shadow[c] {
                    Chunk::Uniform(shadow::OK) => {}
                    &Chunk::Uniform(value) => return Some((first + lo, value)),
                    Chunk::Bytes(bytes) => {
                        if let Some(at) = first_poisoned(&bytes[lo..=hi]) {
                            return Some((first + lo + at, bytes[lo + at]));
                        }
                    }
                }
            }
        }
        (end >= covered).then_some((start.max(covered), shadow::REDZONE))
    }

    /// Checks an access against the shadow.
    ///
    /// # Errors
    ///
    /// [`Fault::Kasan`] with a classification (`heap-buffer-overflow` for
    /// redzone hits, `use-after-free` for quarantined memory) when any
    /// touched granule is poisoned.
    pub(crate) fn check(&self, addr: Addr, len: u64) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let (start, end) = self.granule_range(addr, len);
        if start > end {
            return Ok(());
        }
        let Some((idx, value)) = self.first_poisoned_granule(start, end) else {
            return Ok(());
        };
        Err(Fault::Kasan {
            addr: self.base + idx as u64 * GRANULE,
            what: match value {
                shadow::FREED => "use-after-free",
                _ => "heap-buffer-overflow",
            },
        })
    }
}

/// Index of the first shadow byte that is not [`shadow::OK`], read
/// eight at a time: `OK` is zero, so a word is clean iff it is zero, and
/// the first poisoned byte of a little-endian word is its lowest nonzero
/// one.
fn first_poisoned(shadow: &[u8]) -> Option<usize> {
    const _: () = assert!(shadow::OK == 0);
    let mut words = shadow.chunks_exact(8);
    for (w, word) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        if word != 0 {
            return Some(w * 8 + word.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b != shadow::OK)?;
    Some(shadow.len() - tail.len() + at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kasan() -> Kasan {
        Kasan::new(Addr::new(0x10000), 1 << 16)
    }

    #[test]
    fn payload_is_addressable_redzones_are_not() {
        let mut k = kasan();
        let a = Addr::new(0x10000 + 256);
        k.on_alloc(a, 64);
        assert!(k.check(a, 64).is_ok());
        let over = k.check(a + 64, 1).unwrap_err();
        assert!(matches!(
            over,
            Fault::Kasan {
                what: "heap-buffer-overflow",
                ..
            }
        ));
        let under = k.check(a - 8, 1).unwrap_err();
        assert!(matches!(
            under,
            Fault::Kasan {
                what: "heap-buffer-overflow",
                ..
            }
        ));
    }

    #[test]
    fn use_after_free_detected() {
        let mut k = kasan();
        let a = Addr::new(0x10000 + 256);
        k.on_alloc(a, 64);
        k.on_free(a, 64);
        let err = k.check(a, 1).unwrap_err();
        assert!(matches!(
            err,
            Fault::Kasan {
                what: "use-after-free",
                ..
            }
        ));
    }

    #[test]
    fn quarantine_evicts_at_limit() {
        let mut k = kasan();
        k.quarantine_limit = 128;
        let a = Addr::new(0x10000 + 1024);
        let b = Addr::new(0x10000 + 2048);
        k.on_alloc(a, 100);
        k.on_alloc(b, 100);
        assert!(k.on_free(a, 100).is_empty(), "under limit: nothing evicted");
        let evicted = k.on_free(b, 100);
        assert_eq!(evicted, vec![(a, 100)], "oldest block leaves quarantine");
        assert_eq!(k.quarantined_bytes, 100);
    }

    #[test]
    fn straddling_access_checks_every_granule() {
        let mut k = kasan();
        let a = Addr::new(0x10000 + 512);
        k.on_alloc(a, 32);
        // An access spanning payload *and* redzone must fail.
        assert!(k.check(a + 24, 16).is_err());
    }

    #[test]
    fn realloc_cycle_reuses_shadow() {
        let mut k = kasan();
        let a = Addr::new(0x10000 + 512);
        k.on_alloc(a, 32);
        k.on_free(a, 32);
        k.on_alloc(a, 32); // reallocated at same address
        assert!(k.check(a, 32).is_ok());
    }

    /// The sanitizer as it was before the shadow was sized by use: one
    /// byte per granule of the region, filled at construction.
    struct EagerShadow {
        base: Addr,
        shadow: Vec<u8>,
    }

    impl EagerShadow {
        fn new(base: Addr, size: u64) -> Self {
            EagerShadow {
                base,
                shadow: vec![shadow::REDZONE; (size / GRANULE) as usize + 1],
            }
        }

        fn set(&mut self, addr: Addr, len: u64, value: u8) {
            if len == 0 {
                return;
            }
            let start = (addr.offset_from(self.base) / GRANULE) as usize;
            let end = ((addr.offset_from(self.base) + len - 1) / GRANULE) as usize;
            let end = end.min(self.shadow.len() - 1);
            self.shadow[start..=end].fill(value);
        }

        fn on_alloc(&mut self, addr: Addr, len: u64) {
            self.set(addr - REDZONE, REDZONE, shadow::REDZONE);
            self.set(addr, len, shadow::OK);
            let tail = (addr + len).align_up(GRANULE);
            let skip = tail - (addr + len);
            if REDZONE > skip {
                self.set(tail, REDZONE - skip, shadow::REDZONE);
            }
        }

        fn check(&self, addr: Addr, len: u64) -> Result<(), Fault> {
            if len == 0 {
                return Ok(());
            }
            let start = (addr.offset_from(self.base) / GRANULE) as usize;
            let end = ((addr.offset_from(self.base) + len - 1) / GRANULE) as usize;
            for idx in start..=end.min(self.shadow.len() - 1) {
                let what = match self.shadow[idx] {
                    shadow::OK => continue,
                    shadow::FREED => "use-after-free",
                    _ => "heap-buffer-overflow",
                };
                return Err(Fault::Kasan {
                    addr: self.base + idx as u64 * GRANULE,
                    what,
                });
            }
            Ok(())
        }
    }

    #[test]
    fn word_scan_matches_a_byte_scan_at_every_start_and_length() {
        // A 512-byte payload across a shadow-chunk boundary,
        // with one freed granule and one redzone granule inside it on
        // either side of that boundary, far enough from either end that a
        // check can cross several clean eight-byte shadow words before
        // reaching them; every access from before the payload to past
        // its end.
        const BASE: Addr = Addr::new(0x10000);
        let a = BASE + (CHUNK as u64 * GRANULE) - 256;
        let mut k = Kasan::new(BASE, 1 << 16);
        let mut eager = EagerShadow::new(BASE, 1 << 16);
        k.on_alloc(a, 512);
        eager.on_alloc(a, 512);
        for (at, value) in [(a + 200, shadow::FREED), (a + 360, shadow::REDZONE)] {
            k.set_shadow(at, GRANULE, value);
            eager.set(at, GRANULE, value);
        }
        let (lo, hi) = (a - 40, a + 512 + 40);
        let mut faults = 0;
        for start in lo.raw()..hi.raw() {
            for len in 0..=hi.raw() - start {
                let addr = Addr::new(start);
                let got = k.check(addr, len);
                assert_eq!(got, eager.check(addr, len), "check({addr}, {len})");
                faults += usize::from(got.is_err());
            }
        }
        assert!(faults > 100_000, "{faults} faulting checks");
    }

    #[test]
    fn a_fresh_sanitizer_owns_no_shadow_and_poisoning_grows_none() {
        let mut k = Kasan::new(Addr::new(0x10000), 16 << 20);
        assert_eq!(k.shadow.capacity(), 0);
        k.set_shadow(Addr::new(0x10000 + 4096), 4096, shadow::REDZONE);
        assert_eq!(k.shadow.capacity(), 0, "already reads as redzone");
        k.on_alloc(Addr::new(0x10000 + 64), 100);
        // Payload granules 8..=20 lie in the first chunk.
        assert_eq!(k.covered(), CHUNK);
        // A payload spanning chunks spells out only the chunks its edges
        // fall in.
        let chunk_bytes = CHUNK as u64 * GRANULE;
        k.on_alloc(Addr::new(0x10000 + chunk_bytes + 16), 5 * chunk_bytes);
        assert_eq!(k.shadow.len(), 7);
        let spelled: Vec<bool> = k
            .shadow
            .iter()
            .map(|c| matches!(c, Chunk::Bytes(_)))
            .collect();
        assert_eq!(spelled, [true, true, false, false, false, false, true]);
    }

    #[test]
    fn lazy_shadow_matches_an_eagerly_filled_one_on_a_seeded_stream() {
        const BASE: Addr = Addr::new(0x40000);
        const SIZE: u64 = 1 << 18;
        let mut rng = crate::testrng::Rng::new(0x5AD0_0001);
        let mut lazy = Kasan::new(BASE, SIZE);
        let mut eager = EagerShadow::new(BASE, SIZE);
        lazy.quarantine_limit = 64 * 1024;
        // Live payloads, carved bottom-up like the allocators do, each
        // with a redzone of room on both sides.
        let mut live: Vec<(Addr, u64)> = Vec::new();
        let mut cursor = BASE + REDZONE;
        let (mut overflows, mut uafs, mut past_high_water, mut checks) = (0, 0, 0, 0);
        let mut uniform = [false; 2];
        let mut evictions = 0;
        for step in 0..20_000 {
            uniform[0] |= lazy.shadow.contains(&Chunk::Uniform(shadow::OK));
            match rng.range(0, 16) {
                0..=3 => {
                    // Now and then a payload of whole chunks, so chunks
                    // go uniform (and uniformly freed).
                    let len = if rng.range(0, 40) == 0 {
                        rng.range(CHUNK as u64 * GRANULE, 80_000)
                    } else {
                        rng.range(1, 300)
                    };
                    if (cursor + len + REDZONE).offset_from(BASE) > SIZE {
                        continue;
                    }
                    lazy.on_alloc(cursor, len);
                    eager.on_alloc(cursor, len);
                    live.push((cursor, len));
                    cursor = (cursor + len + 2 * REDZONE).align_up(16);
                }
                4..=5 if !live.is_empty() => {
                    let (addr, len) = live.swap_remove(rng.range(0, live.len() as u64) as usize);
                    eager.set(addr, len, shadow::FREED);
                    // An evicted block goes back to the allocator, which
                    // may hand it out again: re-allocate it at once.
                    let evicted = lazy.on_free(addr, len);
                    uniform[1] |= lazy.shadow.contains(&Chunk::Uniform(shadow::FREED));
                    evictions += evicted.len();
                    for (a, l) in evicted {
                        lazy.on_alloc(a, l);
                        eager.on_alloc(a, l);
                        live.push((a, l));
                    }
                }
                6 if step % 1000 == 6 => {
                    // Microreboot: `Env::reset_heap` builds a fresh heap
                    // and sanitizer over the same region.
                    lazy = Kasan::new(BASE, SIZE);
                    lazy.quarantine_limit = 64 * 1024;
                    eager = EagerShadow::new(BASE, SIZE);
                    live.clear();
                    cursor = BASE + REDZONE;
                }
                _ => {
                    let high_water = BASE + lazy.covered() as u64 * GRANULE;
                    let (addr, len) = match rng.range(0, 8) {
                        // inside, and just off either end of, a live payload
                        0..=3 if !live.is_empty() => {
                            let (a, l) = live[rng.range(0, live.len() as u64) as usize];
                            let from = rng.range(0, l + 24);
                            (a - 12 + from, rng.range(0, l + 24))
                        }
                        // never allocated: at and past the high-water mark
                        4 => (high_water + rng.range(0, 4096), rng.range(1, 64)),
                        // straddling the high-water mark from below
                        5 => (
                            high_water - rng.range(0, 64).min(lazy.covered() as u64 * GRANULE),
                            128,
                        ),
                        // the region's last granule and the slack past it
                        6 => (BASE + SIZE - rng.range(0, 16), rng.range(1, 32)),
                        _ => (BASE + rng.range(0, SIZE), rng.range(0, 600)),
                    };
                    checks += 1;
                    let got = lazy.check(addr, len);
                    assert_eq!(
                        got,
                        eager.check(addr, len),
                        "step {step}: check({addr}, {len})"
                    );
                    match got {
                        Err(Fault::Kasan {
                            what: "use-after-free",
                            ..
                        }) => uafs += 1,
                        Err(Fault::Kasan { addr: at, .. }) => {
                            overflows += 1;
                            past_high_water += u64::from(at >= high_water);
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(lazy.covered() <= eager.shadow.len().next_multiple_of(CHUNK));
        assert!(checks >= 10_000 && overflows > 1000 && uafs > 100 && past_high_water > 300);
        assert!(evictions > 1000, "{evictions} blocks left quarantine");
        assert_eq!(
            uniform, [true; 2],
            "whole chunks went addressable and freed"
        );
    }
}
