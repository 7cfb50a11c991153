//! Paged simulated memory with per-page protection keys.
//!
//! This is the enforcement point of the whole simulation: every load and
//! store names the [`Pkru`] of the executing domain, and the access is
//! checked against the protection key of **every page it touches** before
//! any byte of that page moves — the same check the MMU performs per
//! access under Intel MPK (§4.1). Compartment data really lives here
//! (Redis values, pbufs, ramfs blocks, B-tree pages), so a compartment
//! without the right key *cannot* read another compartment's state, it
//! faults.
//!
//! # The fast data path
//!
//! Every access fuses the rights check and the copy into a **single page
//! walk**: each touched page is checked (mapped? key readable/writable
//! under this PKRU?) and then its bytes move, before the walk advances.
//! Accesses that stay within one page — the overwhelmingly common case
//! for dict buckets, RESP payloads, and ring chunks — take a dedicated
//! fast path: one bounds compare, one rights check, one
//! `copy_from_slice`.
//!
//! Like the hardware, an access that faults on a later page of a
//! multi-page range leaves the earlier pages already written: MPK raises
//! `#PF` at the faulting access, not transactionally. (The pre-PR
//! implementation checked the whole range up front; the byte-identical
//! differential test in `tests/datapath_diff.rs` pins the new,
//! hardware-like semantics against a byte-at-a-time reference.)
//!
//! A one-entry **access-rights cache** (a software TLB) short-circuits
//! the per-page check entirely when the same `(page, PKRU)` pair hits
//! repeatedly — exactly the pattern of a Redis GET probing one dict
//! bucket, or a socket ring draining one page. The cache is tagged with
//! an *epoch* that [`Memory::map`] and [`Memory::set_key`] bump, so
//! re-keying a page (simulated `pkey_mprotect`) can never let a stale
//! rights decision through; PKRU switches need no invalidation because
//! the PKRU value itself is part of the tag. The bump also happens when
//! `set_key` fails part-way (an unmapped page in the range): the pages
//! before it are already re-keyed, like a `pkey_mprotect` that returns
//! `ENOMEM` after changing some of the range.
//!
//! # A key byte per mapped page, a frame per written page
//!
//! Under MPK a page's protection is 4 bits of its page-table entry, and
//! a page costs host memory only once something is stored in it. A
//! [`Memory`] is priced the same way, in two structures:
//!
//! * **The key table**: one byte per page up to the highest page ever
//!   mapped, holding the page's key index, or `UNMAPPED` for a page that
//!   was never mapped (a guard page). [`Memory::new`] allocates nothing
//!   and [`Memory::map`] extends the table to the end of the range it
//!   maps and fills the range with the key. The region allocator hands
//!   out addresses bottom-up, so an image's mapped pages are a prefix of
//!   the address space and the table costs what the image maps — 9 304
//!   bytes for a 1-vCPU mpk2 Redis image (9 270 mapped pages and their
//!   guard pages), of the 65 536 pages its 256 MiB machine could have.
//!   A page past the table was never mapped.
//! * **The frame store**: a 4 KiB frame for each page ever written, in
//!   leaves of 512 frame slots — one leaf covers 2 MiB, like a
//!   last-level page table — allocated on the first write into them,
//!   under a directory of one slot per leaf. A page without a frame
//!   reads as zeros from one shared zero page. A Redis image writes
//!   6–288 of the 9 270–73 782 pages it maps (1 to 8 vCPUs), and none
//!   while it is built or installed, so a build allocates no frame and
//!   a drop visits the directory and the leaves that were written.
//!
//! Growing the key table can move it, and a move copies every entry;
//! whether the host allocator can extend the block in place instead
//! depends on what else the heap holds at that moment, so a table grown
//! by plain doubling makes an image's build cost depend on the heap's
//! history (measured with 24-byte entries: 53–57 of 96 growths moved in
//! one process, 0–2.4 MB copied per 8-vCPU build). When the table must
//! grow, `map` therefore reserves room for four times the new extent,
//! capped at the configured size: an image maps a few small sections,
//! then its compartment heaps, the shared heap and the stacks, and all
//! of those land in reserved room — 16 428 bytes for a 1-vCPU image,
//! taken in one step. The frame directory is sized once, on the first
//! write, to cover that room, and again only after the key table has
//! outgrown it.
//!
//! What each fault means at the edges:
//!
//! * an access, `map` or `set_key` reaching **beyond the
//!   configured size** ⇒ [`Fault::OutOfBounds`], checked before any page
//!   is touched; a `map` or `set_key` whose page count overflows is one
//!   too, its `len` saturated at `u64::MAX`;
//! * a page **within the configured size that was never mapped** —
//!   inside the key table (a guard page) or past its end ⇒
//!   [`Fault::Unmapped`] naming the page base, after the earlier pages
//!   of a multi-page access were written (or re-keyed, for `set_key`).
//!
//! `Memory::size` and the `Debug` page count report the configured
//! size, never the table's length.

use std::cell::Cell;
use std::fmt;

use crate::addr::{Addr, PAGE_SIZE};
use crate::fault::Fault;
use crate::key::{Access, Pkru, ProtKey};

/// Shared backing for reads of mapped-but-never-written pages (the
/// borrowed-read API hands out slices of this instead of materializing
/// zero-filled frames).
static ZERO_PAGE: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];

/// The key-table byte of a page that was never mapped; a mapped page's
/// byte is its key's index, below 16.
const UNMAPPED: u8 = u8::MAX;

/// One written page's bytes.
type Frame = Box<[u8; PAGE_SIZE]>;

/// Frame slots per leaf of the frame store: one 4 KiB leaf of slots
/// covers 2 MiB of simulated memory.
const LEAF_PAGES: usize = 512;

/// A leaf of the frame store; a `None` slot is a page never written.
type Leaf = [Option<Frame>; LEAF_PAGES];

// Out of line: the write path materialises a leaf or a frame once, and
// must stay small every other time.
#[cold]
fn new_leaf() -> Box<Leaf> {
    Box::new([const { None }; LEAF_PAGES])
}

#[cold]
fn new_frame() -> Frame {
    Box::new([0; PAGE_SIZE])
}

/// The one-entry access-rights cache (see the module docs). `page` is
/// `u64::MAX` when empty.
#[derive(Debug, Clone, Copy)]
struct RightsEntry {
    epoch: u64,
    page: u64,
    pkru: Pkru,
    write_ok: bool,
}

impl RightsEntry {
    const EMPTY: RightsEntry = RightsEntry {
        epoch: 0,
        page: u64::MAX,
        pkru: Pkru::NO_ACCESS,
        write_ok: false,
    };
}

/// The simulated physical memory: an array of pages, each tagged with a
/// protection key.
pub struct Memory {
    /// The key table (see the module docs): one byte per page up to the
    /// highest page ever mapped, the page's key index or [`UNMAPPED`].
    /// Pages in `keys.len()..pages` are unmapped.
    keys: Vec<u8>,
    /// The frame store's directory: one slot per leaf of [`LEAF_PAGES`]
    /// pages, sized on the first write to cover the key table's room. A
    /// page whose leaf or slot is missing was never written.
    leaves: Vec<Option<Box<Leaf>>>,
    /// The configured size in pages: the bound every access is checked
    /// against, whatever the table's length.
    pages: u64,
    /// Bumped by [`Memory::map`]/[`Memory::set_key`]; tags `rights_cache`.
    epoch: Cell<u64>,
    rights_cache: Cell<RightsEntry>,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mapped = self.keys.iter().filter(|&&k| k != UNMAPPED).count();
        f.debug_struct("Memory")
            .field("pages", &self.pages)
            .field("mapped_pages", &mapped)
            .finish()
    }
}

impl Memory {
    /// Creates a memory of `bytes` bytes (rounded up to whole pages), all
    /// of it unmapped. This allocates nothing: the key table grows in
    /// [`Memory::map`], the frame store on the first write.
    pub fn new(bytes: u64) -> Self {
        Memory {
            keys: Vec::new(),
            leaves: Vec::new(),
            pages: crate::addr::pages_for(bytes),
            epoch: Cell::new(0),
            rights_cache: Cell::new(RightsEntry::EMPTY),
        }
    }

    /// Total size in bytes.
    pub(crate) fn size(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    /// The page indices of `pages` pages at `base`, if they all lie within
    /// the configured size.
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

    /// Maps `pages` pages starting at `base` (page-aligned) and tags them
    /// with `key`. Boot-time operation; requires no PKRU (the boot code is
    /// TCB, §3.3).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::OutOfBounds`] if the range exceeds physical memory.
    pub fn map(&mut self, base: Addr, pages: u64, key: ProtKey) -> Result<(), Fault> {
        debug_assert_eq!(base.page_offset(), 0, "map base must be page-aligned");
        let span = self.span(base, pages)?;
        if span.end > self.keys.len() {
            if span.end > self.keys.capacity() {
                // Room for four times the new extent (see the module
                // docs): the regions an image maps next must not move
                // the table.
                let room = span.end.saturating_mul(4).min(self.pages as usize);
                self.keys.reserve_exact(room - self.keys.len());
            }
            self.keys.resize(span.end, UNMAPPED);
        }
        self.keys[span].fill(key.index());
        self.bump_epoch();
        Ok(())
    }

    /// Re-tags an already-mapped page range with a new key. This is the
    /// simulated `pkey_mprotect`; the MPK backend uses it at boot to protect
    /// per-compartment data/bss sections (§4.1). Invalidates the
    /// access-rights cache (epoch bump) so stale rights never survive a
    /// re-keying.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::OutOfBounds`] if the range exceeds physical
    /// memory, [`Fault::Unmapped`] if any page in range is unmapped.
    pub fn set_key(&mut self, base: Addr, pages: u64, key: ProtKey) -> Result<(), Fault> {
        for page in self.span(base, pages)? {
            match self.keys.get_mut(page) {
                Some(k) if *k != UNMAPPED => *k = key.index(),
                _ => {
                    // The pages before this one are already re-keyed: a
                    // cached decision about one of them must not outlive
                    // that, so the failing path bumps the epoch too.
                    self.bump_epoch();
                    return Err(Fault::Unmapped {
                        addr: Addr::new((page * PAGE_SIZE) as u64),
                    });
                }
            }
        }
        self.bump_epoch();
        Ok(())
    }

    fn bump_epoch(&self) {
        self.epoch.set(self.epoch.get() + 1);
    }

    /// The key of `page`, or `None` if it was never mapped.
    #[inline]
    fn key(&self, page: u64) -> Option<ProtKey> {
        match self.keys.get(page as usize) {
            Some(&k) if k != UNMAPPED => Some(ProtKey::from_index(k)),
            _ => None,
        }
    }

    /// The frame of `page`, if something was ever written to it.
    #[inline]
    fn written_frame(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        let page = page as usize;
        self.leaves.get(page / LEAF_PAGES)?.as_deref()?[page % LEAF_PAGES].as_deref()
    }

    /// The bytes of `page`: its frame, or the shared zero page if it was
    /// never written.
    #[inline]
    fn frame(&self, page: u64) -> &[u8; PAGE_SIZE] {
        self.written_frame(page).unwrap_or(&ZERO_PAGE)
    }

    /// The frame of `page`, a mapped page, materialised as zeros on the
    /// first write to it — and its leaf on the first write into the leaf.
    #[inline]
    fn frame_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE] {
        let page = page as usize;
        if page / LEAF_PAGES >= self.leaves.len() {
            self.grow_directory();
        }
        let leaf = self.leaves[page / LEAF_PAGES].get_or_insert_with(new_leaf);
        leaf[page % LEAF_PAGES].get_or_insert_with(new_frame)
    }

    /// Sizes the frame directory to cover the key table's room, in one
    /// step (see the module docs): every mapped page has a slot after it.
    #[cold]
    fn grow_directory(&mut self) {
        let slots = self.keys.capacity().div_ceil(LEAF_PAGES);
        self.leaves.reserve_exact(slots - self.leaves.len());
        self.leaves.resize_with(slots, || None);
    }

    /// Validates the overall bounds of a non-empty access and returns its
    /// `(first, last)` page indices. No per-page work happens here — that
    /// is fused into the walk itself.
    #[inline]
    fn range_pages(&self, addr: Addr, len: u64) -> Result<(u64, u64), Fault> {
        debug_assert!(len > 0);
        // `ok_or_else`, not `ok_or`: a `Fault` (a 48-byte enum with
        // `String` variants) must not be constructed and dropped on the
        // success path of every single access.
        #[allow(clippy::unnecessary_lazy_evaluations)]
        let end = addr
            .checked_add(len - 1)
            .ok_or_else(|| Fault::OutOfBounds { addr, len })?;
        let first = addr.page_index();
        let last = end.page_index();
        if last >= self.pages {
            return Err(Fault::OutOfBounds { addr, len });
        }
        Ok((first, last))
    }

    /// The per-page rights check, memoized through the one-entry
    /// access-rights cache. `first_page`/`range_addr` reproduce the fault
    /// addressing convention: a protection-key fault on the range's first
    /// page names the access address, later pages name the page base.
    #[inline]
    fn check_page(
        &self,
        page: u64,
        first_page: u64,
        range_addr: Addr,
        pkru: &Pkru,
        kind: Access,
    ) -> Result<(), Fault> {
        let cached = self.rights_cache.get();
        if cached.page == page && cached.epoch == self.epoch.get() && cached.pkru == *pkru {
            match kind {
                Access::Read => return Ok(()),
                Access::Write if cached.write_ok => return Ok(()),
                Access::Write => {} // cached read-only: recheck below
            }
        }
        // In bounds (`range_pages`) but possibly past the key table:
        // such a page was never mapped.
        let Some(key) = self.key(page) else {
            return Err(Fault::Unmapped {
                addr: Addr::new(page * PAGE_SIZE as u64),
            });
        };
        if !pkru.allows(key, kind) {
            return Err(Fault::ProtectionKey {
                addr: if page == first_page {
                    range_addr
                } else {
                    Addr::new(page * PAGE_SIZE as u64)
                },
                key,
                access: kind,
            });
        }
        self.rights_cache.set(RightsEntry {
            epoch: self.epoch.get(),
            page,
            pkru: *pkru,
            write_ok: pkru.allows(key, Access::Write),
        });
        Ok(())
    }

    /// Reads `buf.len()` bytes at `addr` under `pkru`: a single fused
    /// check-and-copy page walk, with a one-page fast path.
    ///
    /// # Errors
    ///
    /// [`Fault::ProtectionKey`] if any touched page's key is not readable
    /// under `pkru`; [`Fault::Unmapped`]/[`Fault::OutOfBounds`] for bad
    /// addresses.
    #[inline]
    pub fn read(&self, addr: Addr, buf: &mut [u8], pkru: &Pkru) -> Result<(), Fault> {
        let len = buf.len();
        if len == 0 {
            return Ok(());
        }
        let (first, last) = self.range_pages(addr, len as u64)?;
        if first == last {
            // Same-page fast path: one frame, one rights check, one copy.
            self.check_page(first, first, addr, pkru, Access::Read)?;
            let off = addr.page_offset();
            buf.copy_from_slice(&self.frame(first)[off..off + len]);
            return Ok(());
        }
        let mut copied = 0usize;
        let mut cur = addr;
        while copied < len {
            let page = cur.page_index();
            self.check_page(page, first, addr, pkru, Access::Read)?;
            let off = cur.page_offset();
            let take = (PAGE_SIZE - off).min(len - copied);
            buf[copied..copied + take].copy_from_slice(&self.frame(page)[off..off + take]);
            copied += take;
            cur += take as u64;
        }
        Ok(())
    }

    /// Reads `len` bytes at `addr` into a fresh `Vec` under `pkru`.
    ///
    /// The length is validated against the memory size *before* the
    /// buffer is allocated, so a corrupted length field read out of
    /// simulated memory produces a clean [`Fault::OutOfBounds`] instead
    /// of an arbitrarily large host-side allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::read`].
    pub fn read_vec(&self, addr: Addr, len: u64, pkru: &Pkru) -> Result<Vec<u8>, Fault> {
        if len > self.size() {
            return Err(Fault::OutOfBounds { addr, len });
        }
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf, pkru)?;
        Ok(buf)
    }

    /// Runs `f` over the bytes of `addr..addr+len` **without copying**:
    /// one borrowed slice per touched page (never-written pages yield the
    /// shared zero page). The rights check is the same fused walk as
    /// [`Memory::read`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::read`]; `f` is not called for pages
    /// past the faulting one.
    pub(crate) fn with_bytes(
        &self,
        addr: Addr,
        len: u64,
        pkru: &Pkru,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let (first, _) = self.range_pages(addr, len)?;
        let mut done = 0u64;
        let mut cur = addr;
        while done < len {
            let page = cur.page_index();
            self.check_page(page, first, addr, pkru, Access::Read)?;
            let off = cur.page_offset();
            let take = (PAGE_SIZE - off).min((len - done) as usize);
            f(&self.frame(page)[off..off + take]);
            done += take as u64;
            cur += take as u64;
        }
        Ok(())
    }

    /// Compares the bytes at `addr..addr+bytes.len()` with `bytes` under
    /// `pkru`, without copying or allocating — the rights-checked
    /// `memcmp` behind dict key probes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::read`] of the same range.
    pub fn compare(&self, addr: Addr, bytes: &[u8], pkru: &Pkru) -> Result<bool, Fault> {
        let len = bytes.len();
        if len == 0 {
            return Ok(true);
        }
        let (first, last) = self.range_pages(addr, len as u64)?;
        if first == last {
            // Same-page fast path (every dict key probe): one check, one
            // memcmp.
            self.check_page(first, first, addr, pkru, Access::Read)?;
            let off = addr.page_offset();
            return Ok(&self.frame(first)[off..off + len] == bytes);
        }
        let mut equal = true;
        let mut checked = 0usize;
        self.with_bytes(addr, len as u64, pkru, |chunk| {
            equal &= chunk == &bytes[checked..checked + chunk.len()];
            checked += chunk.len();
        })?;
        Ok(equal)
    }

    /// Writes `buf` at `addr` under `pkru`: the same fused single walk as
    /// [`Memory::read`].
    ///
    /// # Errors
    ///
    /// [`Fault::ProtectionKey`] if any touched page's key is not writable
    /// under `pkru`; [`Fault::Unmapped`]/[`Fault::OutOfBounds`] for bad
    /// addresses. A fault on a later page leaves earlier pages written
    /// (hardware semantics; see the module docs).
    #[inline]
    pub fn write(&mut self, addr: Addr, buf: &[u8], pkru: &Pkru) -> Result<(), Fault> {
        let len = buf.len();
        if len == 0 {
            return Ok(());
        }
        let (first, last) = self.range_pages(addr, len as u64)?;
        if first == last {
            self.check_page(first, first, addr, pkru, Access::Write)?;
            let off = addr.page_offset();
            self.frame_mut(first)[off..off + len].copy_from_slice(buf);
            return Ok(());
        }
        let mut copied = 0usize;
        let mut cur = addr;
        while copied < len {
            let page = cur.page_index();
            self.check_page(page, first, addr, pkru, Access::Write)?;
            let off = cur.page_offset();
            let take = (PAGE_SIZE - off).min(len - copied);
            self.frame_mut(page)[off..off + take].copy_from_slice(&buf[copied..copied + take]);
            copied += take;
            cur += take as u64;
        }
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `byte` under `pkru`: the same
    /// page walk as [`Memory::write`], every touched page checked in
    /// order before it is touched. Zero-filling a page that was never
    /// written changes nothing — it already reads as zeros — so such a
    /// frame stays unmaterialised: zeroing a fresh 512 KiB array costs
    /// 128 rights checks, not 128 host pages.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::write`].
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8, pkru: &Pkru) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let (first, _) = self.range_pages(addr, len)?;
        let mut remaining = len;
        let mut cur = addr;
        while remaining > 0 {
            let page = cur.page_index();
            self.check_page(page, first, addr, pkru, Access::Write)?;
            let off = cur.page_offset();
            let take = (PAGE_SIZE - off).min(remaining as usize);
            if byte != 0 || self.written_frame(page).is_some() {
                self.frame_mut(page)[off..off + take].fill(byte);
            }
            remaining -= take as u64;
            cur += take as u64;
        }
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` under a single `pkru` (the
    /// copier must be allowed to read `src` and write `dst`).
    ///
    /// The copy proceeds page-pair-wise through a stack staging buffer —
    /// **no host heap allocation**, and one rights check per touched
    /// `(src, dst)` page pair (amortized to one per page by the rights
    /// cache). Overlapping ranges copy forward, chunk by chunk
    /// (`memcpy`, not `memmove`, semantics — like the hardware, and like
    /// the substrates' uses, which never overlap).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::read`] / [`Memory::write`]; a fault
    /// mid-copy leaves earlier chunks written.
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u64, pkru: &Pkru) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let (sfirst, _) = self.range_pages(src, len)?;
        let (dfirst, _) = self.range_pages(dst, len)?;
        // Both ranges are in bounds here, so the arithmetic cannot wrap.
        debug_assert!(
            src.raw() + len <= dst.raw() || dst.raw() + len <= src.raw(),
            "Memory::copy ranges overlap (memcpy semantics; see docs)"
        );
        let mut staging = [0u8; PAGE_SIZE];
        let mut done = 0u64;
        while done < len {
            let s = src + done;
            let d = dst + done;
            let soff = s.page_offset();
            let doff = d.page_offset();
            let take = (PAGE_SIZE - soff)
                .min(PAGE_SIZE - doff)
                .min((len - done) as usize);
            let spage = s.page_index();
            self.check_page(spage, sfirst, src, pkru, Access::Read)?;
            staging[..take].copy_from_slice(&self.frame(spage)[soff..soff + take]);
            let dpage = d.page_index();
            self.check_page(dpage, dfirst, dst, pkru, Access::Write)?;
            self.frame_mut(dpage)[doff..doff + take].copy_from_slice(&staging[..take]);
            done += take as u64;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::read`].
    pub fn read_u64(&self, addr: Addr, pkru: &Pkru) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b, pkru)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Memory::write`].
    pub fn write_u64(&mut self, addr: Addr, value: u64, pkru: &Pkru) -> Result<(), Fault> {
        self.write(addr, &value.to_le_bytes(), pkru)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with_region(key: ProtKey) -> (Memory, Addr) {
        let mut mem = Memory::new(64 * PAGE_SIZE as u64);
        let base = Addr::new(PAGE_SIZE as u64); // skip null page
        mem.map(base, 8, key).unwrap();
        (mem, base)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let key = ProtKey::new(1).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let pkru = Pkru::permit_only(&[key]);
        mem.write(base + 100, b"flexos", &pkru).unwrap();
        assert_eq!(mem.read_vec(base + 100, 6, &pkru).unwrap(), b"flexos");
    }

    #[test]
    fn zero_fill_on_demand() {
        let key = ProtKey::new(1).unwrap();
        let (mem, base) = mem_with_region(key);
        let pkru = Pkru::permit_only(&[key]);
        assert_eq!(mem.read_vec(base, 16, &pkru).unwrap(), vec![0u8; 16]);
    }

    #[test]
    fn cross_page_access_checks_every_page() {
        let k1 = ProtKey::new(1).unwrap();
        let k2 = ProtKey::new(2).unwrap();
        let mut mem = Memory::new(64 * PAGE_SIZE as u64);
        let base = Addr::new(PAGE_SIZE as u64);
        mem.map(base, 1, k1).unwrap();
        mem.map(base + PAGE_SIZE as u64, 1, k2).unwrap();

        // A write straddling both pages must fail if we only hold k1.
        let pkru = Pkru::permit_only(&[k1]);
        let straddle = base + (PAGE_SIZE as u64 - 2);
        let err = mem.write(straddle, &[1, 2, 3, 4], &pkru).unwrap_err();
        assert!(matches!(err, Fault::ProtectionKey { key, .. } if key == k2));

        // Holding both keys, it succeeds.
        let both = Pkru::permit_only(&[k1, k2]);
        mem.write(straddle, &[1, 2, 3, 4], &both).unwrap();
        assert_eq!(mem.read_vec(straddle, 4, &both).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn foreign_key_faults() {
        let key = ProtKey::new(3).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let stranger = Pkru::permit_only(&[ProtKey::new(4).unwrap()]);
        assert!(matches!(
            mem.read_vec(base, 1, &stranger),
            Err(Fault::ProtectionKey { .. })
        ));
        assert!(matches!(
            mem.write(base, b"x", &stranger),
            Err(Fault::ProtectionKey { .. })
        ));
    }

    #[test]
    fn read_only_key_permits_reads_only() {
        let key = ProtKey::new(3).unwrap();
        let (mut mem, base) = mem_with_region(key);
        // Initialize with full access, then drop to read-only.
        mem.write(base, b"ro", &Pkru::ALL_ACCESS).unwrap();
        let mut pkru = Pkru::NO_ACCESS;
        pkru.permit_read_only(key);
        assert_eq!(mem.read_vec(base, 2, &pkru).unwrap(), b"ro");
        assert!(mem.write(base, b"xx", &pkru).is_err());
    }

    #[test]
    fn read_after_failed_write_is_not_poisoned_by_the_cache() {
        // A read-only PKRU populates the cache via a read, then a write
        // to the same page must still fault (the cached entry records
        // write_ok = false and falls through to the real check).
        let key = ProtKey::new(3).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let mut pkru = Pkru::NO_ACCESS;
        pkru.permit_read_only(key);
        assert!(mem.read_vec(base, 2, &pkru).is_ok());
        assert!(mem.write(base, b"xx", &pkru).is_err());
        // And the failed write must not have poisoned reads either.
        assert!(mem.read_vec(base, 2, &pkru).is_ok());
    }

    #[test]
    fn unmapped_and_oob_fault() {
        let mem = Memory::new(16 * PAGE_SIZE as u64);
        let pkru = Pkru::ALL_ACCESS;
        assert!(matches!(
            mem.read_vec(Addr::new(PAGE_SIZE as u64), 1, &pkru),
            Err(Fault::Unmapped { .. })
        ));
        assert!(matches!(
            mem.read_vec(Addr::new(1 << 40), 1, &pkru),
            Err(Fault::OutOfBounds { .. })
        ));
    }

    #[test]
    fn huge_read_vec_faults_before_allocating() {
        // A corrupted length field (e.g. a dict bucket's val_len read out
        // of simulated memory) must produce a clean fault, not a
        // multi-gigabyte host allocation.
        let mem = Memory::new(16 * PAGE_SIZE as u64);
        let pkru = Pkru::ALL_ACCESS;
        assert!(matches!(
            mem.read_vec(Addr::new(0), u64::MAX, &pkru),
            Err(Fault::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.read_vec(Addr::new(0), 1 << 40, &pkru),
            Err(Fault::OutOfBounds { .. })
        ));
    }

    #[test]
    fn set_key_retags() {
        let k1 = ProtKey::new(1).unwrap();
        let k2 = ProtKey::new(2).unwrap();
        let (mut mem, base) = mem_with_region(k1);
        mem.set_key(base, 8, k2).unwrap();
        let old = Pkru::permit_only(&[k1]);
        assert!(mem.read_vec(base, 1, &old).is_err());
        assert!(mem.read_vec(base, 1, &Pkru::permit_only(&[k2])).is_ok());
    }

    #[test]
    fn set_key_invalidates_the_rights_cache() {
        // Warm the cache with a successful access, re-key the page, and
        // verify the *same* (page, pkru) pair now faults: the epoch bump
        // must defeat the memoized rights decision.
        let k1 = ProtKey::new(1).unwrap();
        let k2 = ProtKey::new(2).unwrap();
        let (mut mem, base) = mem_with_region(k1);
        let pkru = Pkru::permit_only(&[k1]);
        mem.write(base, b"warm", &pkru).unwrap();
        assert_eq!(mem.read_vec(base, 4, &pkru).unwrap(), b"warm");
        mem.set_key(base, 1, k2).unwrap();
        assert!(mem.read_vec(base, 4, &pkru).is_err());
        assert!(mem.write(base, b"cold", &pkru).is_err());
        // The rightful owner reads the old bytes.
        assert_eq!(
            mem.read_vec(base, 4, &Pkru::permit_only(&[k2])).unwrap(),
            b"warm"
        );
    }

    #[test]
    fn failed_set_key_invalidates_the_rights_cache() {
        // `set_key` over [p, p+1] with p+1 unmapped re-keys p and then
        // fails. The write that warmed the cache under key 1 must not
        // vouch for p once it carries key 2.
        let k1 = ProtKey::new(1).unwrap();
        let k2 = ProtKey::new(2).unwrap();
        let mut mem = Memory::new(64 * PAGE_SIZE as u64);
        let p = Addr::new(PAGE_SIZE as u64);
        mem.map(p, 1, k1).unwrap();
        let pkru = Pkru::permit_only(&[k1]);
        mem.write(p, b"warm", &pkru).unwrap();
        assert_eq!(
            mem.set_key(p, 2, k2),
            Err(Fault::Unmapped {
                addr: p + PAGE_SIZE as u64
            })
        );
        // The partial re-key stays: the fault names key 2.
        assert!(matches!(
            mem.write(p, b"cold", &pkru),
            Err(Fault::ProtectionKey { key, .. }) if key == k2
        ));
        assert!(mem.read_vec(p, 4, &pkru).is_err());
        assert_eq!(
            mem.read_vec(p, 4, &Pkru::permit_only(&[k2])).unwrap(),
            b"warm"
        );
    }

    #[test]
    fn key_table_follows_the_mapped_extent() {
        const SIZE: u64 = 256 * 1024 * 1024;
        let page = PAGE_SIZE as u64;
        let key = ProtKey::new(1).unwrap();
        let pkru = Pkru::permit_only(&[key]);
        let mut mem = Memory::new(SIZE);
        assert_eq!(mem.keys.capacity(), 0, "an empty memory owns no table");
        mem.map(Addr::new(page), 16, key).unwrap();
        assert_eq!(mem.keys.len(), 17);
        assert!(mem.keys.capacity() < 128, "table is 16-entry scale");
        assert_eq!(mem.size(), SIZE);
        assert!(format!("{mem:?}").contains("pages: 65536"));
        mem.write(Addr::new(16 * page), b"kept", &pkru).unwrap();

        // Page 17 is within the configured size but past the table.
        let beyond = Addr::new(17 * page);
        assert_eq!(
            mem.read_vec(beyond, 1, &pkru),
            Err(Fault::Unmapped { addr: beyond })
        );
        // A write running off the mapped prefix lands its first page.
        assert_eq!(
            mem.write(beyond - 2, &[7; 4], &pkru),
            Err(Fault::Unmapped { addr: beyond })
        );
        assert_eq!(mem.read_vec(beyond - 2, 2, &pkru).unwrap(), [7, 7]);
        assert_eq!(
            mem.set_key(Addr::new(16 * page), 2, key),
            Err(Fault::Unmapped { addr: beyond })
        );
        // Past the configured size is out of bounds, as ever.
        let last = Addr::new(SIZE - 1);
        assert!(matches!(
            mem.read_vec(last, 2, &pkru),
            Err(Fault::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.set_key(Addr::new(SIZE - page), 2, key),
            Err(Fault::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.map(Addr::new(SIZE - page), 2, key),
            Err(Fault::OutOfBounds { .. })
        ));

        // Mapping higher up extends the table; written pages stay.
        mem.map(Addr::new(1000 * page), 4, key).unwrap();
        assert_eq!(mem.keys.len(), 1004);
        assert_eq!(
            mem.read_vec(Addr::new(16 * page), 4, &pkru).unwrap(),
            b"kept"
        );
        assert_eq!(mem.read_vec(beyond - 2, 2, &pkru).unwrap(), [7, 7]);
        mem.write(Addr::new(1003 * page), b"high", &pkru).unwrap();
        assert_eq!(
            mem.read_vec(Addr::new(500 * page), 1, &pkru),
            Err(Fault::Unmapped {
                addr: Addr::new(500 * page)
            }),
            "the gap the table now spans is still unmapped"
        );
        mem.map(Addr::new(SIZE - page), 1, key).unwrap();
        assert_eq!(mem.keys.len(), 65536);
        mem.write(last, &[1], &pkru).unwrap();
    }

    /// `(leaves, frames)` the frame store holds.
    fn materialised(mem: &Memory) -> (usize, usize) {
        let leaves = mem.leaves.iter().flatten();
        let frames = leaves.clone().flat_map(|leaf| leaf.iter().flatten());
        (leaves.count(), frames.count())
    }

    #[test]
    fn frames_exist_only_where_pages_were_written() {
        let page = PAGE_SIZE as u64;
        let key = ProtKey::new(1).unwrap();
        let pkru = Pkru::permit_only(&[key]);
        let mut mem = Memory::new(256 * 1024 * 1024);
        // A 16 MiB mapping owns a key byte per page and nothing else; so
        // do reads of it and zero-fills of it.
        mem.map(Addr::new(page), 4096, key).unwrap();
        assert!(mem.leaves.is_empty(), "mapping allocated a frame store");
        assert!(mem.compare(Addr::new(page), &[0; 64], &pkru).unwrap());
        mem.fill(Addr::new(page), 8 * page, 0, &pkru).unwrap();
        assert!(mem.leaves.is_empty(), "a zero-fill materialised frames");

        // The first write sizes the directory to the key table's room and
        // materialises one leaf and one frame; a write to a page in the
        // same leaf adds a frame, a fill elsewhere a leaf per 2 MiB.
        mem.write(Addr::new(3000 * page + 5), b"first", &pkru)
            .unwrap();
        let slots = mem.leaves.len();
        assert_eq!(slots, mem.keys.capacity().div_ceil(LEAF_PAGES));
        assert_eq!(materialised(&mem), (1, 1));
        mem.write(Addr::new(3001 * page), b"next", &pkru).unwrap();
        assert_eq!(materialised(&mem), (1, 2));
        mem.fill(Addr::new(1023 * page), 2 * page, 0xEE, &pkru)
            .unwrap();
        assert_eq!(materialised(&mem), (3, 4));

        // Mapping past the room grows the key table; a write up there
        // grows the directory, keeping every frame.
        let high = Addr::new(60_000 * page);
        mem.map(high, 4, key).unwrap();
        assert_eq!(mem.leaves.len(), slots, "mapping alone grows no directory");
        mem.write(high, b"high", &pkru).unwrap();
        assert_eq!(mem.leaves.len(), mem.keys.capacity().div_ceil(LEAF_PAGES));
        assert_eq!(materialised(&mem), (4, 5));
        assert_eq!(
            mem.read_vec(Addr::new(3000 * page + 5), 5, &pkru).unwrap(),
            b"first"
        );
    }

    #[test]
    fn page_counts_that_overflow_fault_instead_of_wrapping() {
        // `first + pages` and `pages * PAGE_SIZE` both overflow here; the
        // caller gets a clean fault and nothing changes, in every build.
        let k1 = ProtKey::new(1).unwrap();
        let k2 = ProtKey::new(2).unwrap();
        let (mut mem, base) = mem_with_region(k1);
        let huge = u64::MAX / PAGE_SIZE as u64 + 2;
        for pages in [huge, u64::MAX] {
            let overflow = Err(Fault::OutOfBounds {
                addr: base,
                len: u64::MAX,
            });
            assert_eq!(mem.map(base, pages, k2), overflow, "map of {pages}");
            assert_eq!(mem.set_key(base, pages, k2), overflow, "set_key of {pages}");
        }
        assert_eq!(
            mem.set_key(base, 1 << 40, k2),
            Err(Fault::OutOfBounds {
                addr: base,
                len: 1 << 52
            })
        );
        // Nothing was re-keyed or mapped: every page is still writable
        // under the old key alone.
        let len = 8 * PAGE_SIZE as u64;
        assert_eq!(mem.fill(base, len, 0, &Pkru::permit_only(&[k1])), Ok(()));
        assert!(format!("{mem:?}").contains("mapped_pages: 8"));
    }

    #[test]
    fn regions_mapped_after_a_growth_land_in_reserved_room() {
        // An image's shape: small sections, a heap, small sections,
        // another heap, a shared heap a quarter the size, stacks. After
        // the growth the first heap forces, nothing moves the table —
        // a build's cost must not depend on whether the host allocator
        // could extend the block in place.
        let key = ProtKey::new(1).unwrap();
        let mut mem = Memory::new(256 * 1024 * 1024);
        let mut next = 2;
        let mut map = |mem: &mut Memory, pages: u64| {
            mem.map(Addr::new(next * PAGE_SIZE as u64), pages, key)
                .unwrap();
            next += pages + 1; // a guard page between regions
        };
        for pages in [2, 2, 2, 4096] {
            map(&mut mem, pages);
        }
        let (table, room) = (mem.keys.as_ptr(), mem.keys.capacity());
        for pages in [2, 2, 4096, 1024, 4, 1, 1, 1, 16] {
            map(&mut mem, pages);
        }
        assert_eq!(mem.keys.as_ptr(), table, "the table moved");
        assert_eq!(mem.keys.capacity(), room);
        // The reserve never exceeds the configured size.
        let mut small = Memory::new(64 * PAGE_SIZE as u64);
        small.map(Addr::new(0), 40, key).unwrap();
        assert_eq!(small.keys.capacity(), 64);
    }

    #[test]
    fn fill_and_copy() {
        let key = ProtKey::new(1).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let pkru = Pkru::permit_only(&[key]);
        mem.fill(base, 32, 0xAB, &pkru).unwrap();
        mem.copy(base, base + 64, 32, &pkru).unwrap();
        assert_eq!(mem.read_vec(base + 64, 32, &pkru).unwrap(), vec![0xAB; 32]);
    }

    #[test]
    fn copy_crosses_pages_correctly() {
        // Regression test for the page-pair-wise copy: misaligned source
        // and destination spanning several pages, bytes verified exactly.
        let key = ProtKey::new(1).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let pkru = Pkru::permit_only(&[key]);
        let pattern: Vec<u8> = (0..3 * PAGE_SIZE + 77).map(|i| (i % 251) as u8).collect();
        let src = base + 13;
        let dst = base + 4 * PAGE_SIZE as u64 + 501;
        mem.write(src, &pattern, &pkru).unwrap();
        mem.copy(src, dst, pattern.len() as u64, &pkru).unwrap();
        assert_eq!(
            mem.read_vec(dst, pattern.len() as u64, &pkru).unwrap(),
            pattern
        );
    }

    #[test]
    fn copy_respects_rights_on_both_ranges() {
        let k1 = ProtKey::new(1).unwrap();
        let k2 = ProtKey::new(2).unwrap();
        let mut mem = Memory::new(64 * PAGE_SIZE as u64);
        let src = Addr::new(PAGE_SIZE as u64);
        let dst = Addr::new(3 * PAGE_SIZE as u64);
        mem.map(src, 1, k1).unwrap();
        mem.map(dst, 1, k2).unwrap();
        mem.write(src, b"secret", &Pkru::ALL_ACCESS).unwrap();

        // Reader holds only the source key: the destination write faults.
        let only_src = Pkru::permit_only(&[k1]);
        assert!(matches!(
            mem.copy(src, dst, 6, &only_src),
            Err(Fault::ProtectionKey {
                access: Access::Write,
                ..
            })
        ));
        // Holder of only the destination key cannot read the source.
        let only_dst = Pkru::permit_only(&[k2]);
        assert!(matches!(
            mem.copy(src, dst, 6, &only_dst),
            Err(Fault::ProtectionKey {
                access: Access::Read,
                ..
            })
        ));
        // Both keys: the copy lands.
        let both = Pkru::permit_only(&[k1, k2]);
        mem.copy(src, dst, 6, &both).unwrap();
        assert_eq!(mem.read_vec(dst, 6, &both).unwrap(), b"secret");
    }

    #[test]
    fn copy_from_zero_page_reads_zeros() {
        let key = ProtKey::new(1).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let pkru = Pkru::permit_only(&[key]);
        // Destination pre-filled, source never written: copy zero-fills.
        mem.fill(base + 64, 16, 0xFF, &pkru).unwrap();
        mem.copy(base, base + 64, 16, &pkru).unwrap();
        assert_eq!(mem.read_vec(base + 64, 16, &pkru).unwrap(), vec![0u8; 16]);
    }

    #[test]
    fn compare_matches_read_semantics() {
        let key = ProtKey::new(1).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let pkru = Pkru::permit_only(&[key]);
        let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 241) as u8).collect();
        let at = base + (PAGE_SIZE as u64 - 50); // straddles a page boundary
        mem.write(at, &data, &pkru).unwrap();
        assert!(mem.compare(at, &data, &pkru).unwrap());
        let mut tweaked = data.clone();
        tweaked[PAGE_SIZE / 2] ^= 0x80;
        assert!(!mem.compare(at, &tweaked, &pkru).unwrap());
        // Untouched memory compares equal to zeros.
        assert!(mem.compare(base + 2048, &[0u8; 64], &pkru).unwrap());
        // Foreign PKRU faults rather than answering.
        let stranger = Pkru::permit_only(&[ProtKey::new(5).unwrap()]);
        assert!(mem.compare(at, &data, &stranger).is_err());
    }

    #[test]
    fn with_bytes_visits_borrowed_chunks() {
        let key = ProtKey::new(1).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let pkru = Pkru::permit_only(&[key]);
        let at = base + (PAGE_SIZE as u64 - 3);
        mem.write(at, b"abcdef", &pkru).unwrap();
        let mut seen = Vec::new();
        let mut chunks = 0;
        mem.with_bytes(at, 6, &pkru, |c| {
            seen.extend_from_slice(c);
            chunks += 1;
        })
        .unwrap();
        assert_eq!(seen, b"abcdef");
        assert_eq!(chunks, 2, "one borrowed chunk per touched page");
    }

    #[test]
    fn scalar_accessors() {
        let key = ProtKey::new(1).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let pkru = Pkru::permit_only(&[key]);
        mem.write_u64(base, 0xDEAD_BEEF_CAFE_F00D, &pkru).unwrap();
        assert_eq!(mem.read_u64(base, &pkru).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn zero_length_access_is_ok() {
        let key = ProtKey::new(1).unwrap();
        let (mut mem, base) = mem_with_region(key);
        let pkru = Pkru::NO_ACCESS;
        // Zero-length accesses touch no pages and cannot fault.
        assert!(mem.read(base, &mut [], &pkru).is_ok());
        assert!(mem.write(base, &[], &pkru).is_ok());
        assert!(mem.copy(base, base + 64, 0, &pkru).is_ok());
        assert!(mem.compare(base, &[], &pkru).is_ok());
    }
}
