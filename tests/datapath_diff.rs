//! Differential property test for the fast simulated data path (ISSUE 3).
//!
//! The fused single-walk `Memory` operations — same-page fast paths,
//! the one-entry access-rights cache with epoch invalidation, the
//! page-pair-wise `copy`, the in-place `compare` — are pinned against a
//! **byte-at-a-time reference implementation** with the obvious
//! semantics: check the byte's page, then move the byte. Over random
//! page layouts, keys, PKRUs, and access patterns (including re-keying
//! mid-stream, which must invalidate the rights cache), both
//! implementations must produce identical bytes, identical faults —
//! same variant, same addresses — and identical partial effects on
//! failure.
//!
//! `Memory`'s key table ends at the highest mapped page while the
//! reference keeps one entry per configured page, so every third case
//! maps only the lower half of the range and aims a share of its reads,
//! writes, copies and re-keyings across that edge: past the table must
//! be indistinguishable from unmapped.
//!
//! `Memory` keeps frames only for written pages, in leaves of 512, and
//! sizes its key table and leaf directory as mappings arrive. A third
//! property maps sparse regions over 1 280 pages *between* reads and
//! writes, so both tables grow after frames exist and accesses cross
//! leaf boundaries.
//!
//! A second property pins the integer per-byte charge table against the
//! pre-refactor float formula, cycle for cycle.

mod common;

use flexos_machine::addr::{Addr, PAGE_SIZE};
use flexos_machine::cost::{ByteCostTable, CostModel};
use flexos_machine::fault::Fault;
use flexos_machine::key::{Access, Pkru, ProtKey};
use flexos_machine::mem::Memory;
use flexos_machine::Machine;

use common::Rng;

const REF_PAGES: u64 = 64;

/// The byte-at-a-time reference memory: per-byte page check, then the
/// byte moves. Faults use the production addressing convention (a
/// protection-key fault on the range's first page names the access
/// address, later pages the page base; unmapped pages always the page
/// base) so `Fault` values compare equal structurally.
struct RefMem {
    pages: u64,
    key: Vec<ProtKey>,
    mapped: Vec<bool>,
    data: Vec<u8>,
}

impl RefMem {
    fn new(pages: u64) -> RefMem {
        RefMem {
            pages,
            key: vec![ProtKey::DEFAULT; pages as usize],
            mapped: vec![false; pages as usize],
            data: vec![0u8; (pages as usize) * PAGE_SIZE],
        }
    }

    /// The pages of a `map`/`set_key` range, checked against the size.
    fn span(&self, base: Addr, pages: u64) -> Result<std::ops::Range<usize>, Fault> {
        let first = base.page_index();
        let last = first
            .checked_add(pages)
            .filter(|&end| end <= self.pages)
            .ok_or(Fault::OutOfBounds {
                addr: base,
                len: pages.saturating_mul(PAGE_SIZE as u64),
            })?;
        Ok(first as usize..last as usize)
    }

    fn map(&mut self, base: Addr, pages: u64, key: ProtKey) -> Result<(), Fault> {
        for page in self.span(base, pages)? {
            self.mapped[page] = true;
            self.key[page] = key;
        }
        Ok(())
    }

    fn set_key(&mut self, base: Addr, pages: u64, key: ProtKey) -> Result<(), Fault> {
        for page in self.span(base, pages)? {
            if !self.mapped[page] {
                return Err(Fault::Unmapped {
                    addr: Addr::new((page * PAGE_SIZE) as u64),
                });
            }
            self.key[page] = key;
        }
        Ok(())
    }

    /// The up-front whole-range bounds check both implementations share.
    fn bounds(&self, addr: Addr, len: u64) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let end = addr
            .checked_add(len - 1)
            .ok_or(Fault::OutOfBounds { addr, len })?;
        if end.page_index() >= self.pages {
            return Err(Fault::OutOfBounds { addr, len });
        }
        Ok(())
    }

    /// Per-byte page check with the production fault-addressing rule.
    fn check_byte(&self, at: Addr, range: Addr, pkru: &Pkru, kind: Access) -> Result<(), Fault> {
        let page = at.page_index();
        let page_addr = Addr::new(page * PAGE_SIZE as u64);
        if !self.mapped[page as usize] {
            return Err(Fault::Unmapped { addr: page_addr });
        }
        if !pkru.allows(self.key[page as usize], kind) {
            return Err(Fault::ProtectionKey {
                addr: if page == range.page_index() {
                    range
                } else {
                    page_addr
                },
                key: self.key[page as usize],
                access: kind,
            });
        }
        Ok(())
    }

    fn read(&self, addr: Addr, buf: &mut [u8], pkru: &Pkru) -> Result<(), Fault> {
        self.bounds(addr, buf.len() as u64)?;
        for (i, out) in buf.iter_mut().enumerate() {
            let at = addr + i as u64;
            self.check_byte(at, addr, pkru, Access::Read)?;
            *out = self.data[at.raw() as usize];
        }
        Ok(())
    }

    fn write(&mut self, addr: Addr, buf: &[u8], pkru: &Pkru) -> Result<(), Fault> {
        self.bounds(addr, buf.len() as u64)?;
        for (i, &byte) in buf.iter().enumerate() {
            let at = addr + i as u64;
            self.check_byte(at, addr, pkru, Access::Write)?;
            self.data[at.raw() as usize] = byte;
        }
        Ok(())
    }

    fn fill(&mut self, addr: Addr, len: u64, byte: u8, pkru: &Pkru) -> Result<(), Fault> {
        self.bounds(addr, len)?;
        for i in 0..len {
            let at = addr + i;
            self.check_byte(at, addr, pkru, Access::Write)?;
            self.data[at.raw() as usize] = byte;
        }
        Ok(())
    }

    fn compare(&self, addr: Addr, bytes: &[u8], pkru: &Pkru) -> Result<bool, Fault> {
        self.bounds(addr, bytes.len() as u64)?;
        let mut equal = true;
        for (i, &byte) in bytes.iter().enumerate() {
            let at = addr + i as u64;
            self.check_byte(at, addr, pkru, Access::Read)?;
            equal &= self.data[at.raw() as usize] == byte;
        }
        Ok(equal)
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64, pkru: &Pkru) -> Result<(), Fault> {
        self.bounds(src, len)?;
        self.bounds(dst, len)?;
        // Byte-at-a-time forward copy: read side checked, then write
        // side, then the byte moves — matching the chunked production
        // copy, whose chunks are bounded by both pages' remainders (so
        // the first byte of each chunk faults identically).
        for i in 0..len {
            let s = src + i;
            let d = dst + i;
            self.check_byte(s, src, pkru, Access::Read)?;
            let byte = self.data[s.raw() as usize];
            self.check_byte(d, dst, pkru, Access::Write)?;
            self.data[d.raw() as usize] = byte;
        }
        Ok(())
    }

    /// Full-content dump for divergence detection.
    fn dump(&self) -> &[u8] {
        &self.data
    }
}

fn random_pkru(rng: &mut Rng) -> Pkru {
    match rng.range(0, 4) {
        0 => Pkru::ALL_ACCESS,
        1 => {
            let k = ProtKey::new(rng.range(0, 8) as u8).unwrap();
            Pkru::permit_only(&[k])
        }
        2 => {
            let a = ProtKey::new(rng.range(0, 8) as u8).unwrap();
            let b = ProtKey::new(rng.range(0, 8) as u8).unwrap();
            let mut p = Pkru::permit_only(&[a, b]);
            if rng.next().is_multiple_of(2) {
                p.permit_read_only(ProtKey::new(rng.range(0, 8) as u8).unwrap());
            }
            p
        }
        _ => {
            let mut p = Pkru::NO_ACCESS;
            p.permit_read_only(ProtKey::new(rng.range(0, 8) as u8).unwrap());
            p
        }
    }
}

/// `edge` is the address one past the highest mapped page: where
/// `Memory`'s key table ends.
fn random_addr(rng: &mut Rng, edge: u64) -> Addr {
    match rng.range(0, 16) {
        // Occasionally aim out of bounds or near overflow.
        0 => Addr::new(rng.range(
            REF_PAGES * PAGE_SIZE as u64,
            REF_PAGES * PAGE_SIZE as u64 * 2,
        )),
        1 => Addr::new(u64::MAX - rng.range(0, 4096)),
        // Just below the edge, so that longer accesses run across it,
        // or just above it.
        2..=4 => Addr::new(
            (edge + rng.range(0, PAGE_SIZE as u64 / 2)).saturating_sub(rng.range(0, 6000)),
        ),
        _ => Addr::new(rng.range(0, REF_PAGES * PAGE_SIZE as u64)),
    }
}

fn random_len(rng: &mut Rng) -> u64 {
    match rng.range(0, 4) {
        0 => rng.range(0, 16),                                        // tiny / zero
        1 => rng.range(16, 256),                                      // same-page mostly
        2 => rng.range(PAGE_SIZE as u64 - 32, PAGE_SIZE as u64 + 32), // straddling
        _ => rng.range(1, 4 * PAGE_SIZE as u64),                      // multi-page
    }
}

/// First page of a re-keying: half the time one of the last pages below
/// `top_page` (the end of the mapped prefix), so that the range runs off
/// it, otherwise anywhere.
fn rekey_page(rng: &mut Rng, top_page: u64) -> u64 {
    if rng.next().is_multiple_of(2) {
        top_page.saturating_sub(rng.range(1, 4))
    } else {
        rng.range(0, REF_PAGES)
    }
}

#[test]
fn fast_path_matches_byte_at_a_time_reference() {
    let mut rng = Rng::new(0xDA7A_9A74);
    for case in 0..120 {
        let mut mem = Memory::new(REF_PAGES * PAGE_SIZE as u64);
        let mut refm = RefMem::new(REF_PAGES);

        // Random layout: a handful of regions with random keys; some of
        // the address space stays unmapped — in every third case, all of
        // the upper half.
        let layout_pages = if case % 3 == 0 {
            REF_PAGES / 2 - 8
        } else {
            REF_PAGES
        };
        for _ in 0..rng.range(2, 6) {
            let base = Addr::new(rng.range(0, layout_pages) * PAGE_SIZE as u64);
            let pages = rng.range(1, 9);
            let key = ProtKey::new(rng.range(0, 8) as u8).unwrap();
            assert_eq!(
                mem.map(base, pages, key),
                refm.map(base, pages, key),
                "case {case}: map divergence"
            );
        }

        let top_page = refm
            .mapped
            .iter()
            .rposition(|&m| m)
            .map_or(0, |p| p as u64 + 1);
        let edge = top_page * PAGE_SIZE as u64;

        // Seed contents through the TCB view.
        for _ in 0..4 {
            let addr = Addr::new(rng.range(0, (REF_PAGES - 4) * PAGE_SIZE as u64));
            let seed_len = rng.range(1, 2 * PAGE_SIZE as u64) as usize;
            let data = rng.bytes(seed_len);
            let a = mem.write(addr, &data, &Pkru::ALL_ACCESS);
            let b = refm.write(addr, &data, &Pkru::ALL_ACCESS);
            assert_eq!(a, b, "case {case}: seed write divergence");
        }

        for op in 0..48 {
            let pkru = random_pkru(&mut rng);
            match rng.range(0, 8) {
                0 => {
                    let addr = random_addr(&mut rng, edge);
                    let len = random_len(&mut rng) as usize;
                    let mut got = vec![0u8; len];
                    let mut want = vec![0u8; len];
                    let a = mem.read(addr, &mut got, &pkru);
                    let b = refm.read(addr, &mut want, &pkru);
                    assert_eq!(a, b, "case {case} op {op}: read fault divergence");
                    assert_eq!(got, want, "case {case} op {op}: read bytes divergence");
                }
                1 => {
                    let addr = random_addr(&mut rng, edge);
                    let len = random_len(&mut rng);
                    let a = mem.read_vec(addr, len, &pkru);
                    let mut want = vec![0u8; len.min(1 << 20) as usize];
                    let b = refm.read(addr, &mut want, &pkru).map(|()| want);
                    match (a, b) {
                        (Ok(got), Ok(want)) => {
                            assert_eq!(got, want, "case {case} op {op}: read_vec bytes")
                        }
                        (Err(ea), Err(eb)) => {
                            assert_eq!(ea, eb, "case {case} op {op}: read_vec fault")
                        }
                        (a, b) => panic!("case {case} op {op}: read_vec divergence {a:?} vs {b:?}"),
                    }
                }
                2 => {
                    let addr = random_addr(&mut rng, edge);
                    let write_len = random_len(&mut rng) as usize;
                    let data = rng.bytes(write_len);
                    let a = mem.write(addr, &data, &pkru);
                    let b = refm.write(addr, &data, &pkru);
                    assert_eq!(a, b, "case {case} op {op}: write fault divergence");
                }
                3 => {
                    let addr = random_addr(&mut rng, edge);
                    let len = random_len(&mut rng);
                    let byte = rng.next() as u8;
                    let a = mem.fill(addr, len, byte, &pkru);
                    let b = refm.fill(addr, len, byte, &pkru);
                    assert_eq!(a, b, "case {case} op {op}: fill fault divergence");
                }
                4 => {
                    // Non-overlapping copy (the production copy is
                    // memcpy-flavoured; overlap is documented out).
                    let len = random_len(&mut rng).min(2 * PAGE_SIZE as u64);
                    let src = random_addr(&mut rng, edge);
                    let dst_raw = src
                        .raw()
                        .wrapping_add(len + rng.range(0, 8 * PAGE_SIZE as u64));
                    let dst = Addr::new(dst_raw);
                    let a = mem.copy(src, dst, len, &pkru);
                    let b = refm.copy(src, dst, len, &pkru);
                    assert_eq!(a, b, "case {case} op {op}: copy fault divergence");
                }
                5 => {
                    let addr = random_addr(&mut rng, edge);
                    let cmp_len = random_len(&mut rng) as usize;
                    let bytes = rng.bytes(cmp_len);
                    let a = mem.compare(addr, &bytes, &pkru);
                    let b = refm.compare(addr, &bytes, &pkru);
                    assert_eq!(a, b, "case {case} op {op}: compare divergence");
                }
                6 => {
                    // Re-key a range: the rights cache's epoch must
                    // invalidate, so subsequent ops (above) with the same
                    // PKRU diverge nowhere.
                    let base = Addr::new(rekey_page(&mut rng, top_page) * PAGE_SIZE as u64);
                    let pages = rng.range(1, 6);
                    let key = ProtKey::new(rng.range(0, 8) as u8).unwrap();
                    let a = mem.set_key(base, pages, key);
                    let b = refm.set_key(base, pages, key);
                    assert_eq!(a, b, "case {case} op {op}: set_key divergence");
                }
                _ => {
                    // Access a page, re-key a range starting at it, access
                    // it again under the same PKRU: the second answer must
                    // come from the new key even when the re-keying failed
                    // further up the range and left this page re-keyed.
                    let page = rekey_page(&mut rng, top_page);
                    let addr = Addr::new(page * PAGE_SIZE as u64 + rng.range(0, 4000));
                    let data = rng.bytes(8);
                    let a = mem.write(addr, &data, &pkru);
                    let b = refm.write(addr, &data, &pkru);
                    assert_eq!(a, b, "case {case} op {op}: write before set_key");
                    let base = Addr::new(page * PAGE_SIZE as u64);
                    let pages = rng.range(1, 4);
                    let key = ProtKey::new(rng.range(0, 8) as u8).unwrap();
                    let a = mem.set_key(base, pages, key);
                    let b = refm.set_key(base, pages, key);
                    assert_eq!(a, b, "case {case} op {op}: set_key divergence");
                    let data = rng.bytes(8);
                    let a = mem.write(addr, &data, &pkru);
                    let b = refm.write(addr, &data, &pkru);
                    assert_eq!(a, b, "case {case} op {op}: write after set_key");
                    let mut got = [0u8; 8];
                    let mut want = [0u8; 8];
                    let a = mem.read(addr, &mut got, &pkru);
                    let b = refm.read(addr, &mut want, &pkru);
                    assert_eq!(a, b, "case {case} op {op}: read after set_key");
                    assert_eq!(got, want, "case {case} op {op}: bytes after set_key");
                }
            }
        }

        // Full-content equivalence at the end of the case: every partial
        // write either implementation performed must match.
        assert_same_content(&mem, &refm, &format!("case {case}: final"));
    }
}

/// Every mapped page's content, page by page under the TCB view, against
/// the reference's.
fn assert_same_content(mem: &Memory, refm: &RefMem, what: &str) {
    for page in 0..refm.pages {
        let base = Addr::new(page * PAGE_SIZE as u64);
        let read = mem.read_vec(base, PAGE_SIZE as u64, &Pkru::ALL_ACCESS);
        assert_eq!(
            read.is_ok(),
            refm.mapped[page as usize],
            "{what}: page {page} mapping divergence"
        );
        if let Ok(bytes) = read {
            let at = (page as usize) * PAGE_SIZE;
            assert_eq!(
                bytes,
                &refm.dump()[at..at + PAGE_SIZE],
                "{what}: page {page} content divergence"
            );
        }
    }
}

/// Pages of the sparse property's memory: two and a half leaves.
const SPARSE_PAGES: u64 = 1280;

/// Pages per leaf of `Memory`'s frame store.
const LEAF_PAGES: u64 = 512;

/// Maps a range on both sides and records it in `maps`.
fn map_both(
    (mem, refm, maps): (&mut Memory, &mut RefMem, &mut Vec<(Addr, u64, ProtKey)>),
    base: Addr,
    pages: u64,
    key: ProtKey,
    what: &str,
) -> bool {
    let result = mem.map(base, pages, key);
    assert_eq!(result, refm.map(base, pages, key), "{what}: map divergence");
    if result.is_ok() {
        maps.push((base, pages, key));
    }
    result.is_ok()
}

/// An address inside (or just around) one of the mapped regions, or just
/// below a leaf boundary, or now and then anywhere, or past the end.
fn sparse_addr(rng: &mut Rng, maps: &[(Addr, u64, ProtKey)]) -> Addr {
    let page = PAGE_SIZE as u64;
    match rng.range(0, 8) {
        0 => Addr::new(rng.range(0, SPARSE_PAGES * page)),
        2 => Addr::new(LEAF_PAGES * rng.range(1, 3) * page - rng.range(1, 6000)),
        1 => Addr::new(rng.range(SPARSE_PAGES * page - 2 * page, SPARSE_PAGES * page * 2)),
        _ => {
            let (base, pages, _) = maps[rng.range(0, maps.len() as u64) as usize];
            Addr::new((base.raw() + rng.range(0, (pages + 1) * page)).saturating_sub(page / 2))
        }
    }
}

#[test]
fn sparse_layouts_mapped_between_accesses_match_the_reference() {
    let page = PAGE_SIZE as u64;
    let mut rng = Rng::new(0x5BA2_5E00);
    let (mut grown, mut crossed) = (0, 0);
    for case in 0..48 {
        let mut mem = Memory::new(SPARSE_PAGES * page);
        let mut refm = RefMem::new(SPARSE_PAGES);
        let mut maps = Vec::new();
        // A small low region, written first: everything mapped later
        // extends tables that already hold frames.
        let low = Addr::new(rng.range(1, 32) * page);
        let key = ProtKey::new(rng.range(0, 8) as u8).unwrap();
        let what = format!("case {case}");
        assert!(map_both(
            (&mut mem, &mut refm, &mut maps),
            low,
            rng.range(1, 8),
            key,
            &what
        ));
        let data = rng.bytes(64);
        assert_eq!(
            mem.write(low + 100, &data, &Pkru::ALL_ACCESS),
            refm.write(low + 100, &data, &Pkru::ALL_ACCESS)
        );
        let first_extent = maps[0].0.page_index() + maps[0].1;

        for op in 0..80 {
            let what = format!("case {case} op {op}");
            let pkru = if rng.next().is_multiple_of(2) {
                Pkru::ALL_ACCESS
            } else {
                random_pkru(&mut rng)
            };
            let addr = sparse_addr(&mut rng, &maps);
            let len = random_len(&mut rng);
            let crosses = |len: u64| {
                len > 0
                    && addr.page_index() / LEAF_PAGES != (addr.raw() + len - 1) / page / LEAF_PAGES
            };
            match rng.range(0, 6) {
                0 => {
                    // Half the maps land above everything mapped so far,
                    // a quarter across a leaf boundary.
                    let top = maps
                        .iter()
                        .map(|&(b, p, _)| b.page_index() + p)
                        .max()
                        .unwrap();
                    let first = match rng.range(0, 4) {
                        0 | 1 => top + rng.range(1, 400),
                        2 => LEAF_PAGES * rng.range(1, 3) - rng.range(1, 8),
                        _ => rng.range(0, SPARSE_PAGES),
                    };
                    let pages = rng.range(1, 24);
                    let key = ProtKey::new(rng.range(0, 8) as u8).unwrap();
                    let base = Addr::new(first * page);
                    if map_both((&mut mem, &mut refm, &mut maps), base, pages, key, &what)
                        && first + pages > 4 * first_extent
                    {
                        grown += 1;
                    }
                }
                1 | 2 => {
                    let data = rng.bytes(len as usize);
                    let result = mem.write(addr, &data, &pkru);
                    assert_eq!(result, refm.write(addr, &data, &pkru), "{what}: write");
                    crossed += usize::from(result.is_ok() && crosses(len));
                }
                3 => {
                    let mut got = vec![0u8; len as usize];
                    let mut want = vec![0u8; len as usize];
                    let result = mem.read(addr, &mut got, &pkru);
                    assert_eq!(result, refm.read(addr, &mut want, &pkru), "{what}: read");
                    assert_eq!(got, want, "{what}: read bytes");
                }
                4 => {
                    let byte = if rng.next().is_multiple_of(2) {
                        0
                    } else {
                        rng.next() as u8
                    };
                    let result = mem.fill(addr, len, byte, &pkru);
                    assert_eq!(result, refm.fill(addr, len, byte, &pkru), "{what}: fill");
                    crossed += usize::from(result.is_ok() && byte != 0 && crosses(len));
                }
                _ => {
                    let len = len.min(2 * page);
                    let dst = sparse_addr(&mut rng, &maps);
                    if addr.raw() + len <= dst.raw() || dst.raw() + len <= addr.raw() {
                        let result = mem.copy(addr, dst, len, &pkru);
                        assert_eq!(result, refm.copy(addr, dst, len, &pkru), "{what}: copy");
                    }
                }
            }
        }
        assert_same_content(&mem, &refm, &format!("case {case}: final"));
    }
    // The stream really grew the tables after frames existed and wrote
    // across leaf boundaries.
    assert!(
        grown > 50 && crossed > 10,
        "grown {grown}, crossed {crossed}"
    );
}

#[test]
fn zero_fill_matches_the_reference_whatever_the_pages_hold() {
    // `Memory::fill(.., 0, ..)` leaves a never-written frame
    // unmaterialised. That must be invisible: same faults, same partial
    // effects and same bytes as the byte-at-a-time reference, over pages
    // never written, fully written and partly written, across a guard
    // page and into pages under a key the filler does not hold.
    let own = ProtKey::new(1).unwrap();
    let foreign = ProtKey::new(2).unwrap();
    let pkru = Pkru::permit_only(&[own]);
    let mut rng = Rng::new(0xF111_0000);
    let (mut guard_faults, mut key_faults, mut clean) = (0, 0, 0);
    for case in 0..200 {
        let mut mem = Memory::new(REF_PAGES * PAGE_SIZE as u64);
        let mut refm = RefMem::new(REF_PAGES);
        // own pages | guard | own pages | foreign pages
        let guard = rng.range(4, 12);
        let own_end = guard + 1 + rng.range(2, 8);
        for (first, pages, key) in [
            (0, guard, own),
            (guard + 1, own_end - guard - 1, own),
            (own_end, 4, foreign),
        ] {
            let base = Addr::new(first * PAGE_SIZE as u64);
            assert_eq!(mem.map(base, pages, key), refm.map(base, pages, key));
        }
        // A third of the pages fully written, a third partly, a third
        // never touched.
        for page in 0..own_end + 4 {
            let base = Addr::new(page * PAGE_SIZE as u64);
            let written = match rng.range(0, 3) {
                0 => PAGE_SIZE,
                1 => rng.range(1, 512) as usize,
                _ => continue,
            };
            let data = rng.bytes(written);
            let at = base + rng.range(0, (PAGE_SIZE - data.len()) as u64 + 1);
            assert_eq!(
                mem.write(at, &data, &Pkru::ALL_ACCESS),
                refm.write(at, &data, &Pkru::ALL_ACCESS)
            );
        }
        for op in 0..12 {
            let addr = Addr::new(rng.range(0, (own_end + 2) * PAGE_SIZE as u64));
            let len = match rng.range(0, 3) {
                0 => rng.range(0, 64),
                1 => rng.range(1, PAGE_SIZE as u64),
                _ => rng.range(PAGE_SIZE as u64, 6 * PAGE_SIZE as u64),
            };
            // Mostly zero; the nonzero fills keep the two paths mixed.
            let byte = if op % 4 == 3 { rng.next() as u8 } else { 0 };
            let got = mem.fill(addr, len, byte, &pkru);
            assert_eq!(
                got,
                refm.fill(addr, len, byte, &pkru),
                "case {case} op {op}: fill({addr}, {len}, {byte}) fault divergence"
            );
            match got {
                Err(Fault::Unmapped { .. }) => guard_faults += 1,
                Err(Fault::ProtectionKey { .. }) => key_faults += 1,
                Err(other) => panic!("case {case} op {op}: unexpected {other:?}"),
                Ok(()) => clean += 1,
            }
            assert_same_content(&mem, &refm, &format!("case {case} op {op}"));
        }
    }
    // The stream really crossed the guard page and the foreign key after
    // handling earlier pages, and really completed fills.
    assert!(guard_faults > 50 && key_faults > 50 && clean > 500);
}

#[test]
fn clock_charges_match_the_pre_refactor_float_formula() {
    // The integer byte-cost table replaced a per-access
    // `advance_f64(len * mem_per_byte)`; totals must agree to the cycle,
    // including the IEEE double-rounding corner cases at exact halves
    // (e.g. len ≡ 5 mod 10 with mem_per_byte = 0.7).
    let machine = Machine::new(1024 * 1024);
    let per_byte = machine.cost().mem_per_byte;
    let mut rng = Rng::new(0xC10C_C0DE);
    let mut expected = 0u64;
    let before = machine.clock().now();
    for _ in 0..50_000 {
        let len = match rng.range(0, 3) {
            0 => rng.range(0, 64),
            1 => rng.range(0, 20_000),
            _ => rng.range(0, 100_000),
        };
        machine.charge_mem_bytes(len);
        expected += (len as f64 * per_byte).round() as u64;
    }
    assert_eq!(machine.clock().now() - before, expected);

    // And exhaustively over the whole precomputed table plus overflow
    // region into the float fallback.
    let table = ByteCostTable::new(per_byte);
    for len in 0..(flexos_machine::cost::BYTE_COST_TABLE_LEN as u64 + 4096) {
        assert_eq!(
            table.cycles(len),
            (len as f64 * per_byte).round() as u64,
            "len {len}"
        );
    }
    assert_eq!(per_byte, CostModel::default().mem_per_byte);
}
