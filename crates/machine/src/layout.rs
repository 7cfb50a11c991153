//! Address-space layout: named regions with guard gaps.
//!
//! The FlexOS toolchain generates linker scripts that give each compartment
//! its own `.text`/`.data`/`.rodata`/`.bss` sections plus private heap and
//! stacks (§3.1, §4.1). This module is the simulated equivalent: a region
//! map that carves the simulated address space into named, page-aligned,
//! key-tagged regions separated by unmapped guard pages so that stray
//! accesses land on [`crate::fault::Fault::Unmapped`].

use std::fmt::{self, Write as _};
use std::rc::Rc;

use crate::addr::{Addr, PAGE_SIZE};
use crate::fault::Fault;
use crate::key::ProtKey;

/// What a region is used for; reported in the generated linker script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RegionKind {
    /// Component code (simulated; holds no bytes but occupies layout space).
    Text,
    /// Initialized data section.
    Data,
    /// Read-only data section.
    Rodata,
    /// Zero-initialized data section.
    Bss,
    /// A compartment-private heap.
    Heap,
    /// A shared heap used for cross-compartment communication.
    SharedHeap,
    /// A thread stack (lower half: private stack; upper half: DSS).
    Stack,
    /// Shared-memory RPC rings for the EPT backend.
    RpcRing,
    /// Anything else.
    Other,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegionKind::Text => ".text",
            RegionKind::Data => ".data",
            RegionKind::Rodata => ".rodata",
            RegionKind::Bss => ".bss",
            RegionKind::Heap => "heap",
            RegionKind::SharedHeap => "shared-heap",
            RegionKind::Stack => "stack",
            RegionKind::RpcRing => "rpc-ring",
            RegionKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// A region's name, held as the parts the toolchain composed it from and
/// rendered on [`fmt::Display`]: naming a region allocates nothing, and
/// the text exists only when a linker script or a report asks for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionName {
    /// A fixed name (`shared/heap`).
    Fixed(&'static str),
    /// `{owner}{suffix}`: a compartment's section, heap or RPC ring
    /// (`comp1.data`, `comp1/heap`).
    Scoped {
        /// The owning compartment's name.
        owner: Rc<str>,
        /// Which of the compartment's regions, separator included
        /// (`.data`, `/heap`).
        suffix: &'static str,
    },
    /// `{owner}/.data/{var}`: a private section holding one `__shared`
    /// variable whose whitelist stays inside its compartment.
    Var {
        /// The owning compartment's name.
        owner: Rc<str>,
        /// The variable's symbol name.
        var: &'static str,
    },
    /// `shared/group-{a}-{b}…`: a restricted sharing group's section; bit
    /// `i` is set for member compartment `i`.
    Group(u32),
    /// `{owner}/thread{n}/{layout}` (`@r{epoch}` appended after a
    /// microreboot): one thread's stack inside a compartment.
    Stack {
        /// The compartment the stack belongs to.
        owner: Rc<str>,
        /// The thread's id.
        thread: u32,
        /// `stack`, `stack+dss` or `stack-shared`.
        layout: &'static str,
        /// Microreboot generation of the compartment (0 = never rebooted).
        epoch: u32,
    },
}

impl From<&'static str> for RegionName {
    fn from(name: &'static str) -> Self {
        RegionName::Fixed(name)
    }
}

impl fmt::Display for RegionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionName::Fixed(name) => f.write_str(name),
            RegionName::Scoped { owner, suffix } => write!(f, "{owner}{suffix}"),
            RegionName::Var { owner, var } => write!(f, "{owner}/.data/{var}"),
            RegionName::Group(members) => {
                f.write_str("shared/group")?;
                (0..u32::BITS)
                    .filter(|i| members >> i & 1 == 1)
                    .try_for_each(|i| write!(f, "-{i}"))
            }
            RegionName::Stack {
                owner,
                thread,
                layout,
                epoch,
            } => {
                write!(f, "{owner}/thread{thread}/{layout}")?;
                if *epoch > 0 {
                    write!(f, "@r{epoch}")?;
                }
                Ok(())
            }
        }
    }
}

/// A named, contiguous, page-aligned region of the simulated address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    name: RegionName,
    base: Addr,
    pages: u64,
    key: ProtKey,
    kind: RegionKind,
}

impl Region {
    /// Region name (renders as e.g. `comp1/heap`).
    pub fn name(&self) -> &RegionName {
        &self.name
    }

    /// First address of the region.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size in pages.
    pub(crate) fn pages(&self) -> u64 {
        self.pages
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    /// `true` if the region holds zero pages.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// One past the last address.
    pub(crate) fn end(&self) -> Addr {
        self.base + self.len()
    }

    /// Protection key tagged on the region's pages.
    pub fn key(&self) -> ProtKey {
        self.key
    }

    /// `true` if `addr` falls within the region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Sequential region allocator over the simulated address space.
///
/// Regions are handed out in address order, each preceded by one unmapped
/// guard page. The map retains every allocation for linker-script
/// generation and debugging.
#[derive(Debug)]
pub struct RegionMap {
    next: Addr,
    limit: Addr,
    regions: Vec<Region>,
}

/// Number of unmapped guard pages between consecutive regions.
pub(crate) const GUARD_PAGES: u64 = 1;

impl RegionMap {
    /// Creates a map covering `[PAGE_SIZE, memory_bytes)`; the null page is
    /// never handed out.
    pub(crate) fn new(memory_bytes: u64) -> Self {
        RegionMap {
            next: Addr::new(PAGE_SIZE as u64),
            limit: Addr::new(memory_bytes),
            regions: Vec::new(),
        }
    }

    /// Reserves a region of `pages` pages tagged `key`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::ResourceExhausted`] when the simulated address space
    /// is full, and leaves the map unchanged.
    pub(crate) fn reserve(
        &mut self,
        name: impl Into<RegionName>,
        pages: u64,
        key: ProtKey,
        kind: RegionKind,
    ) -> Result<Region, Fault> {
        let full = || Fault::ResourceExhausted {
            what: "simulated address space",
        };
        let base = self
            .next
            .checked_add(GUARD_PAGES * PAGE_SIZE as u64)
            .ok_or_else(full)?;
        let end = pages
            .checked_mul(PAGE_SIZE as u64)
            .and_then(|len| base.checked_add(len))
            .filter(|&end| end <= self.limit)
            .ok_or_else(full)?;
        let region = Region {
            name: name.into(),
            base,
            pages,
            key,
            kind,
        };
        self.next = end;
        self.regions.push(region.clone());
        Ok(region)
    }

    /// All regions reserved so far, in address order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Finds the region containing `addr`, if any.
    pub fn find(&self, addr: Addr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }
}

/// Renders `regions` as a GNU-ld-flavoured linker script, the artifact the
/// FlexOS toolchain generates per backend (§3.2 step 3). A prefix of
/// [`RegionMap::regions`] is the layout as it stood when that many
/// regions had been reserved.
pub fn linker_script(regions: &[Region]) -> String {
    let mut out = String::from("/* generated by the FlexOS toolchain */\nSECTIONS\n{\n");
    for r in regions {
        let _ = writeln!(
            out,
            "  . = {:#x};\n  {} ({}, {}) : {{ *({}) }} /* {} pages */",
            r.base.raw(),
            r.name,
            r.kind,
            r.key,
            r.name,
            r.pages
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap_and_are_guarded() {
        let mut map = RegionMap::new(1 << 24);
        let k = ProtKey::DEFAULT;
        let a = map.reserve("a", 4, k, RegionKind::Heap).unwrap();
        let b = map.reserve("b", 2, k, RegionKind::Stack).unwrap();
        assert!(a.end() <= b.base());
        // The guard gap is at least one page.
        assert!(b.base() - a.end() >= PAGE_SIZE as u64);
    }

    #[test]
    fn never_hands_out_null_page() {
        let mut map = RegionMap::new(1 << 20);
        let r = map
            .reserve("first", 1, ProtKey::DEFAULT, RegionKind::Data)
            .unwrap();
        assert!(r.base().raw() >= 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn exhaustion_faults() {
        let mut map = RegionMap::new(8 * PAGE_SIZE as u64);
        assert!(matches!(
            map.reserve("big", 100, ProtKey::DEFAULT, RegionKind::Heap),
            Err(Fault::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn page_counts_whose_size_overflows_exhaust_the_space() {
        // `pages * PAGE_SIZE` overflows for both counts: no wrapped,
        // phantom region may be recorded, in any build.
        let mut map = RegionMap::new(1 << 24);
        map.reserve("a", 1, ProtKey::DEFAULT, RegionKind::Heap)
            .unwrap();
        for pages in [u64::MAX / PAGE_SIZE as u64 + 2, u64::MAX] {
            assert_eq!(
                map.reserve("huge", pages, ProtKey::DEFAULT, RegionKind::Heap),
                Err(Fault::ResourceExhausted {
                    what: "simulated address space"
                }),
                "{pages} pages"
            );
        }
        assert_eq!(map.regions().len(), 1);
        let b = map
            .reserve("b", 1, ProtKey::DEFAULT, RegionKind::Heap)
            .unwrap();
        assert_eq!(b.base(), Addr::new(4 * PAGE_SIZE as u64));
    }

    #[test]
    fn find_and_contains() {
        let mut map = RegionMap::new(1 << 22);
        let r = map
            .reserve("comp1/heap", 4, ProtKey::new(2).unwrap(), RegionKind::Heap)
            .unwrap();
        assert!(r.contains(r.base() + 100));
        assert!(!r.contains(r.end()));
        assert_eq!(
            map.find(r.base() + 5).unwrap().name().to_string(),
            "comp1/heap"
        );
        assert!(map.find(r.end()).is_none());
    }

    #[test]
    fn names_render_as_the_toolchain_spells_them() {
        let owner: Rc<str> = Rc::from("comp2");
        let scoped = |suffix| RegionName::Scoped {
            owner: Rc::clone(&owner),
            suffix,
        };
        let stack = |epoch| RegionName::Stack {
            owner: Rc::clone(&owner),
            thread: 7,
            layout: "stack+dss",
            epoch,
        };
        let var = RegionName::Var {
            owner: Rc::clone(&owner),
            var: "errno",
        };
        assert_eq!(RegionName::from("shared/heap").to_string(), "shared/heap");
        assert_eq!(scoped(".bss").to_string(), "comp2.bss");
        assert_eq!(scoped("/heap").to_string(), "comp2/heap");
        assert_eq!(var.to_string(), "comp2/.data/errno");
        assert_eq!(RegionName::Group(0b1101).to_string(), "shared/group-0-2-3");
        assert_eq!(stack(0).to_string(), "comp2/thread7/stack+dss");
        assert_eq!(stack(2).to_string(), "comp2/thread7/stack+dss@r2");
    }

    #[test]
    fn linker_script_mentions_every_region() {
        let mut map = RegionMap::new(1 << 22);
        map.reserve("comp1/.data", 1, ProtKey::new(1).unwrap(), RegionKind::Data)
            .unwrap();
        map.reserve("comp2/.bss", 2, ProtKey::new(2).unwrap(), RegionKind::Bss)
            .unwrap();
        let script = linker_script(map.regions());
        assert!(script.contains("comp1/.data"));
        assert!(script.contains("comp2/.bss"));
        assert!(script.contains("pkey1"));
        assert!(script.contains("pkey2"));
        assert!(script.starts_with("/* generated by the FlexOS toolchain */"));
    }
}
