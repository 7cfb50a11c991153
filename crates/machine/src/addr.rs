//! Simulated virtual addresses and page arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Size of a simulated page in bytes (4 KiB, like the paper's x86-64 host).
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
pub(crate) const PAGE_SHIFT: u32 = 12;

/// A simulated virtual address.
///
/// Addresses are plain `u64` offsets into the simulated address space; the
/// newtype keeps them from being confused with host pointers or sizes
/// (C-NEWTYPE). Address `0` is reserved as the null page and is never
/// mapped, so `Addr::NULL` behaves like a null pointer in the simulation.
///
/// ```
/// use flexos_machine::addr::{Addr, PAGE_SIZE};
///
/// let a = Addr::new(3 * PAGE_SIZE as u64 + 17);
/// assert_eq!(a.page_index(), 3);
/// assert_eq!(a.page_offset(), 17);
/// assert_eq!(a + 4079, Addr::new(4 * PAGE_SIZE as u64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// The null address; never mapped, used as the "no address" sentinel.
    pub(crate) const NULL: Addr = Addr(0);

    /// Creates an address from a raw u64 value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw numeric value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Index of the page containing this address.
    pub const fn page_index(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Byte offset of this address within its page.
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Offset of this address relative to `base`.
    ///
    /// # Panics
    ///
    /// Panics if `self < base`; region-relative offsets are never negative.
    pub fn offset_from(self, base: Addr) -> u64 {
        debug_assert!(self.0 >= base.0, "address below region base");
        self.0 - base.0
    }

    /// Checked addition; `None` on overflow of the simulated address space.
    pub fn checked_add(self, rhs: u64) -> Option<Addr> {
        self.0.checked_add(rhs).map(Addr)
    }

    /// Aligns the address up to `align` (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align_up(self, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        Addr((self.0 + align - 1) & !(align - 1))
    }

    /// Returns `true` if the address is aligned to `align` (a power of two).
    pub fn is_aligned(self, align: u64) -> bool {
        align.is_power_of_two() && self.0 & (align - 1) == 0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl AddAssign<u64> for Addr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<u64> for Addr {
    type Output = Addr;
    fn sub(self, rhs: u64) -> Addr {
        Addr(self.0 - rhs)
    }
}

impl Sub<Addr> for Addr {
    type Output = u64;
    fn sub(self, rhs: Addr) -> u64 {
        self.0 - rhs.0
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> u64 {
        a.0
    }
}

/// Number of pages needed to hold `bytes` bytes.
pub const fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math_roundtrips() {
        let a = Addr::new(5 * PAGE_SIZE as u64 + 123);
        assert_eq!(a.page_index(), 5);
        assert_eq!(a.page_offset(), 123);
    }

    #[test]
    fn align_up_general() {
        assert_eq!(Addr::new(13).align_up(8), Addr::new(16));
        assert_eq!(Addr::new(16).align_up(8), Addr::new(16));
        assert!(Addr::new(32).is_aligned(16));
        assert!(!Addr::new(33).is_aligned(16));
    }

    #[test]
    fn arithmetic_and_offsets() {
        let base = Addr::new(0x1000);
        let a = base + 0x234;
        assert_eq!(a.offset_from(base), 0x234);
        assert_eq!(a - base, 0x234);
        assert_eq!(a - 0x234, base);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE as u64), 1);
        assert_eq!(pages_for(PAGE_SIZE as u64 + 1), 2);
    }

    #[test]
    fn null_is_the_default() {
        assert_eq!(Addr::default(), Addr::NULL);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0x2a).to_string(), "0x2a");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
    }
}
