//! Compartment heaps: allocator + region + cycle charging + optional KASan.
//!
//! FlexOS gives every compartment a private heap plus one shared heap for
//! cross-compartment communication (§4.1 "Data Ownership"), and exploits
//! the per-compartment allocator to hook software hardening into it
//! (§4.5). `Heap` is that object: it binds a policy
//! ([`HeapKind::Tlsf`]/[`HeapKind::Lea`]/[`HeapKind::Bump`]) to a mapped
//! region, charges the Figure 11a-calibrated allocation costs on the
//! machine clock, and (when the owning compartment is KASan-hardened)
//! maintains redzones and a quarantine.
//!
//! Everything a heap decides with — the policy's metadata, the KASan
//! shadow and quarantine, the counters — is one plain value,
//! [`HeapState`]: `Clone + Eq`, no pointers into the machine. A heap in
//! a state equal to another's answers every request the same way, which
//! is what lets a recorded effect be replayed onto it (`flexos_core`'s
//! heap templates).

use std::rc::Rc;

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;
use flexos_machine::layout::Region;
use flexos_machine::Machine;

use crate::bump::Bump;
use crate::kasan::{Kasan, REDZONE};
use crate::lea::Lea;
use crate::stats::AllocStats;
use crate::tlsf::Tlsf;
use crate::RegionAlloc;

/// Which allocation policy a heap uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapKind {
    /// Unikraft's default TLSF allocator.
    Tlsf,
    /// Lea/dlmalloc-style allocator (CubicleOS).
    Lea,
    /// Boot-time bump arena.
    Bump,
}

impl HeapKind {
    /// Parses the configuration-file spelling (`tlsf`, `lea`, `bump`) —
    /// the per-compartment `allocator:` key of the safety configuration.
    pub fn parse(name: &str) -> Option<HeapKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "tlsf" => Some(HeapKind::Tlsf),
            "lea" | "dlmalloc" => Some(HeapKind::Lea),
            "bump" => Some(HeapKind::Bump),
            _ => None,
        }
    }
}

impl std::fmt::Display for HeapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HeapKind::Tlsf => "tlsf",
            HeapKind::Lea => "lea",
            HeapKind::Bump => "bump",
        })
    }
}

/// A heap's allocation policy with its metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Policy {
    Tlsf(Tlsf),
    Lea(Lea),
    Bump(Bump),
}

impl Policy {
    fn new(kind: HeapKind, base: Addr, size: u64) -> Policy {
        match kind {
            HeapKind::Tlsf => Policy::Tlsf(Tlsf::new(base, size)),
            HeapKind::Lea => Policy::Lea(Lea::new(base, size)),
            HeapKind::Bump => Policy::Bump(Bump::new(base, size)),
        }
    }

    fn kind(&self) -> HeapKind {
        match self {
            Policy::Tlsf(_) => HeapKind::Tlsf,
            Policy::Lea(_) => HeapKind::Lea,
            Policy::Bump(_) => HeapKind::Bump,
        }
    }

    fn get(&self) -> &dyn RegionAlloc {
        match self {
            Policy::Tlsf(a) => a,
            Policy::Lea(a) => a,
            Policy::Bump(a) => a,
        }
    }

    fn get_mut(&mut self) -> &mut dyn RegionAlloc {
        match self {
            Policy::Tlsf(a) => a,
            Policy::Lea(a) => a,
            Policy::Bump(a) => a,
        }
    }

    fn host_bytes(&self) -> usize {
        match self {
            Policy::Tlsf(a) => a.host_bytes(),
            Policy::Lea(a) => a.host_bytes(),
            Policy::Bump(a) => a.host_bytes(),
        }
    }
}

/// Everything a [`Heap`] decides with: the policy's metadata, the KASan
/// shadow and quarantine when hardened, and the counters. Equality is
/// exact (representational), so two heaps over the same region in equal
/// states answer every later request identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapState {
    alloc: Policy,
    kasan: Option<Kasan>,
    stats: AllocStats,
}

impl HeapState {
    /// Host bytes the state occupies, roughly: what keeping a copy costs.
    pub fn host_bytes(&self) -> usize {
        self.alloc.host_bytes() + self.kasan.as_ref().map_or(0, Kasan::host_bytes)
    }
}

/// A heap bound to a simulated-memory region.
#[derive(Debug)]
pub struct Heap {
    machine: Rc<Machine>,
    region: Region,
    state: HeapState,
}

impl Heap {
    /// Creates a heap of `kind` over `region`.
    pub fn new(machine: Rc<Machine>, region: Region, kind: HeapKind) -> Self {
        let alloc = Policy::new(kind, region.base(), region.len());
        Heap {
            machine,
            region,
            state: HeapState {
                alloc,
                kasan: None,
                stats: AllocStats::default(),
            },
        }
    }

    /// Enables KASan instrumentation (redzones + quarantine) on this heap;
    /// FlexOS does this when the owning compartment requests `kasan`
    /// hardening (§4.5).
    pub fn enable_kasan(&mut self) {
        if self.state.kasan.is_none() {
            self.state.kasan = Some(Kasan::new(self.region.base(), self.region.len()));
        }
    }

    /// The heap's whole decision state (see [`HeapState`]).
    pub fn state(&self) -> &HeapState {
        &self.state
    }

    /// Puts the heap into `state`, which must have been taken from a heap
    /// over the same region. Charges nothing.
    pub fn set_state(&mut self, state: &HeapState) {
        self.state.clone_from(state);
    }

    /// Allocates `size` bytes (16-byte aligned), charging calibrated cycles.
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] when the heap is full.
    pub fn malloc(&mut self, size: u64) -> Result<Addr, Fault> {
        self.malloc_aligned(size, 16)
    }

    /// Allocates `size` bytes at the given alignment.
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] when the heap is full.
    pub(crate) fn malloc_aligned(&mut self, size: u64, align: u64) -> Result<Addr, Fault> {
        let cost = self.machine.cost();
        let state = &mut self.state;
        let (pad_lo, pad_hi) = if state.kasan.is_some() {
            (REDZONE, REDZONE)
        } else {
            (0, 0)
        };
        let alloc = state.alloc.get_mut();
        let addr = match alloc.alloc(size + pad_lo + pad_hi, align) {
            Ok(a) => a,
            Err(e) => {
                // Refusals charge no cycles, so the counter is free to
                // bump without perturbing costed paths.
                state.stats.exhaustions += 1;
                return Err(e);
            }
        };
        let payload = addr + pad_lo;
        let slow = alloc.last_was_slow_path();
        let mut cycles = if slow {
            cost.malloc_slow
        } else {
            cost.malloc_fast
        };
        // Track granted (rounded) payload bytes so malloc/free pair up.
        let granted = alloc
            .size_of(addr)
            .unwrap_or(size + pad_lo + pad_hi)
            .saturating_sub(pad_lo + pad_hi);
        if let Some(kasan) = &mut state.kasan {
            kasan.on_alloc(payload, size);
            // Shadow setup cost scales with the allocation's granule count.
            cycles += 8 + size / 32;
        }
        self.machine.clock().advance(cycles);
        let stats = &mut state.stats;
        stats.mallocs += 1;
        if slow {
            stats.slow_hits += 1;
        }
        stats.bytes_allocated += granted;
        stats.peak_live = stats.peak_live.max(stats.live_bytes());
        Ok(payload)
    }

    /// Frees an allocation made by this heap.
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] on foreign or double frees.
    pub fn free(&mut self, addr: Addr) -> Result<(), Fault> {
        let cost = self.machine.cost();
        let state = &mut self.state;
        let alloc = state.alloc.get_mut();
        let pad = if state.kasan.is_some() { REDZONE } else { 0 };
        let real = addr - pad;
        let mut cycles = cost.free_fast;
        if let Some(kasan) = &mut state.kasan {
            let size = alloc
                .size_of(real)
                .ok_or(Fault::BadFree { addr })?
                .saturating_sub(2 * REDZONE);
            // Quarantine delays the real free; evicted blocks are released.
            let evicted = kasan.on_free(addr, size);
            cycles += 10;
            for (payload, _) in evicted {
                alloc.free(payload - pad)?;
            }
            // The block itself stays quarantined: account the free now.
            state.stats.frees += 1;
            state.stats.bytes_freed += size;
            self.machine.clock().advance(cycles);
            return Ok(());
        }
        let freed = alloc.free(real)?;
        self.machine.clock().advance(cycles);
        state.stats.frees += 1;
        state.stats.bytes_freed += freed;
        Ok(())
    }

    /// Checks a memory access against KASan shadow (no-op when KASan off),
    /// charging one shadow check and counting a report.
    ///
    /// # Errors
    ///
    /// [`Fault::Kasan`] if the access touches a redzone or freed memory.
    pub fn kasan_check(&mut self, addr: Addr, len: u64) -> Result<(), Fault> {
        if self.state.kasan.is_none() {
            return Ok(());
        }
        let r = self.kasan_verdict(addr, len);
        if r.is_err() {
            self.state.stats.kasan_reports += 1;
        }
        self.machine
            .clock()
            .advance(self.machine.cost().kasan_check);
        r
    }

    /// What [`Heap::kasan_check`] would answer for an access, with
    /// nothing charged or counted.
    ///
    /// # Errors
    ///
    /// [`Fault::Kasan`] if the access touches a redzone or freed memory.
    pub fn kasan_verdict(&self, addr: Addr, len: u64) -> Result<(), Fault> {
        self.state
            .kasan
            .as_ref()
            .map_or(Ok(()), |kasan| kasan.check(addr, len))
    }

    /// The heap's allocation policy.
    pub fn kind(&self) -> HeapKind {
        self.state.alloc.kind()
    }

    /// The mapped region backing this heap.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> AllocStats {
        self.state.stats
    }

    /// `true` if KASan instrumentation is enabled.
    pub fn kasan_enabled(&self) -> bool {
        self.state.kasan.is_some()
    }

    /// Live payload size of an allocation (KASan padding excluded).
    pub fn size_of(&self, addr: Addr) -> Option<u64> {
        let pad = if self.state.kasan.is_some() {
            REDZONE
        } else {
            0
        };
        self.state
            .alloc
            .get()
            .size_of(addr - pad)
            .map(|s| s.saturating_sub(2 * pad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::key::{Pkru, ProtKey};

    fn heap(kind: HeapKind) -> Heap {
        let machine = Machine::new(16 * 1024 * 1024);
        let region = machine
            .map_region("test-heap", 256, ProtKey::new(1).unwrap())
            .unwrap();
        Heap::new(machine, region, kind)
    }

    #[test]
    fn kind_parse_roundtrips_the_display_spelling() {
        for kind in [HeapKind::Tlsf, HeapKind::Lea, HeapKind::Bump] {
            assert_eq!(HeapKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(HeapKind::parse("dlmalloc"), Some(HeapKind::Lea));
        assert_eq!(HeapKind::parse("slab"), None);
    }

    #[test]
    fn malloc_charges_cycles() {
        let mut h = heap(HeapKind::Tlsf);
        let before = h.machine.clock().now();
        h.malloc(64).unwrap();
        let elapsed = h.machine.clock().now() - before;
        // First malloc splits the wilderness: slow path (Fig 11a's 100-300
        // cycle band).
        assert_eq!(elapsed, h.machine.cost().malloc_slow);
    }

    #[test]
    fn fast_path_costs_less() {
        let mut h = heap(HeapKind::Tlsf);
        let a = h.malloc(64).unwrap();
        let _barrier = h.malloc(64).unwrap(); // prevents coalescing of `a`
        h.free(a).unwrap();
        let before = h.machine.clock().now();
        h.malloc(64).unwrap();
        let elapsed = h.machine.clock().now() - before;
        assert_eq!(elapsed, h.machine.cost().malloc_fast);
    }

    #[test]
    fn payload_is_usable_memory() {
        let mut h = heap(HeapKind::Lea);
        let a = h.malloc(32).unwrap();
        let pkru = Pkru::permit_only(&[ProtKey::new(1).unwrap()]);
        h.machine.memory_mut().write(a, b"payload", &pkru).unwrap();
        assert_eq!(
            h.machine.memory().read_vec(a, 7, &pkru).unwrap(),
            b"payload"
        );
    }

    #[test]
    fn kasan_detects_overflow() {
        let mut h = heap(HeapKind::Tlsf);
        h.enable_kasan();
        let a = h.malloc(32).unwrap();
        assert!(h.kasan_check(a, 32).is_ok());
        let err = h.kasan_check(a + 32, 4).unwrap_err();
        assert!(matches!(err, Fault::Kasan { .. }));
        assert_eq!(h.stats().kasan_reports, 1);
    }

    #[test]
    fn kasan_detects_use_after_free() {
        let mut h = heap(HeapKind::Tlsf);
        h.enable_kasan();
        let a = h.malloc(32).unwrap();
        h.free(a).unwrap();
        let err = h.kasan_check(a, 1).unwrap_err();
        assert!(matches!(
            err,
            Fault::Kasan {
                what: "use-after-free",
                ..
            }
        ));
    }

    #[test]
    fn stats_track_operations() {
        let mut h = heap(HeapKind::Lea);
        let a = h.malloc(100).unwrap();
        let b = h.malloc(200).unwrap();
        h.free(a).unwrap();
        let s = h.stats();
        assert_eq!(s.mallocs, 2);
        assert_eq!(s.frees, 1);
        // Granted (16-byte-rounded) sizes are tracked: 200 -> 208.
        assert_eq!(s.live_bytes(), 208);
        h.free(b).unwrap();
        assert_eq!(h.stats().live_bytes(), 0);
    }

    #[test]
    fn size_of_reports_payload() {
        let mut h = heap(HeapKind::Tlsf);
        let a = h.malloc(100).unwrap();
        assert_eq!(h.size_of(a), Some(112)); // rounded to 16
    }

    #[test]
    fn the_first_cut_charges_exactly_the_slow_path() {
        let mut h = heap(HeapKind::Tlsf);
        let before = h.machine.clock().now();
        h.malloc(64).unwrap(); // slow (first cut)
        assert_eq!(
            h.machine.clock().now() - before,
            h.machine.cost().malloc_slow
        );
    }

    #[test]
    fn bump_heap_works() {
        let mut h = heap(HeapKind::Bump);
        let a = h.malloc(16).unwrap();
        let b = h.malloc(16).unwrap();
        assert!(b > a);
    }
}
