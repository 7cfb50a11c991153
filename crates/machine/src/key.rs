//! Memory protection keys and the PKRU register.
//!
//! Intel MPK tags every page-table entry with a 4-bit protection key and
//! filters every access through the per-thread PKRU register, which holds an
//! *access-disable* and a *write-disable* bit per key (§4.1 of the paper).
//! This module reproduces those semantics: 16 keys, a PKRU with independent
//! read/write permission bits, and the same "key 0 is the default key"
//! convention x86 uses.

use std::fmt;

use crate::fault::Fault;

/// Number of protection keys offered by the (simulated) hardware.
///
/// Real MPK provides 16 keys; FlexOS reserves one for the shared
/// communication domain, which limits MPK images to 15 compartments (§4.1).
pub(crate) const NUM_KEYS: u8 = 16;

/// A memory protection key (0..=15), assigned per page.
///
/// ```
/// use flexos_machine::key::ProtKey;
///
/// let k = ProtKey::new(3)?;
/// assert_eq!(k.index(), 3);
/// assert!(ProtKey::new(16).is_err());
/// # Ok::<(), flexos_machine::fault::Fault>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProtKey(u8);

impl ProtKey {
    /// The default key pages receive when mapped; x86 convention.
    pub const DEFAULT: ProtKey = ProtKey(0);

    /// Creates a protection key.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::KeyExhausted`] if `index >= 16`, mirroring the
    /// architectural limit that caps MPK compartment counts.
    pub fn new(index: u8) -> Result<Self, Fault> {
        if index < NUM_KEYS {
            Ok(ProtKey(index))
        } else {
            Err(Fault::KeyExhausted { requested: index })
        }
    }

    /// The key's index (0..=15).
    pub const fn index(self) -> u8 {
        self.0
    }

    /// The key whose [`ProtKey::index`] is `index`, which the caller has
    /// already checked is below 16 (a key-table byte, in `mem`).
    pub(crate) const fn from_index(index: u8) -> Self {
        debug_assert!(index < NUM_KEYS);
        ProtKey(index)
    }
}

impl fmt::Display for ProtKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkey{}", self.0)
    }
}

/// Kind of memory access being checked against the PKRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Read => f.write_str("read"),
            Access::Write => f.write_str("write"),
        }
    }
}

/// The per-thread protection-key rights register.
///
/// Bit `i` of `access_disable` forbids *any* access to pages tagged with key
/// `i`; bit `i` of `write_disable` forbids stores. This matches the hardware
/// PKRU layout (2 bits per key). The all-zero PKRU permits everything, which
/// is the state the TCB boots in.
///
/// ```
/// use flexos_machine::key::{Access, Pkru, ProtKey};
///
/// let k2 = ProtKey::new(2)?;
/// let k7 = ProtKey::new(7)?;
/// let mut pkru = Pkru::permit_only(&[k2]);
/// pkru.permit_read_only(k7);
///
/// assert!(pkru.check(k2, Access::Write).is_ok());
/// assert!(pkru.check(k7, Access::Read).is_ok());
/// assert!(pkru.check(k7, Access::Write).is_err());
/// # Ok::<(), flexos_machine::fault::Fault>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pkru {
    access_disable: u16,
    write_disable: u16,
}

impl Pkru {
    /// PKRU granting full access to every key (the boot/TCB state).
    pub const ALL_ACCESS: Pkru = Pkru {
        access_disable: 0,
        write_disable: 0,
    };

    /// PKRU denying access to every key.
    pub const NO_ACCESS: Pkru = Pkru {
        access_disable: u16::MAX,
        write_disable: u16::MAX,
    };

    /// Builds a PKRU that grants read+write to exactly `keys` and denies
    /// everything else.
    pub fn permit_only(keys: &[ProtKey]) -> Pkru {
        let mut pkru = Pkru::NO_ACCESS;
        for &k in keys {
            pkru.permit(k);
        }
        pkru
    }

    /// Grants read+write access to `key`.
    pub fn permit(&mut self, key: ProtKey) {
        let bit = 1u16 << key.0;
        self.access_disable &= !bit;
        self.write_disable &= !bit;
    }

    /// Grants read-only access to `key`.
    pub fn permit_read_only(&mut self, key: ProtKey) {
        let bit = 1u16 << key.0;
        self.access_disable &= !bit;
        self.write_disable |= bit;
    }

    /// Returns `true` if `kind` accesses to pages tagged `key` are allowed.
    #[inline]
    pub fn allows(&self, key: ProtKey, kind: Access) -> bool {
        let bit = 1u16 << key.0;
        if self.access_disable & bit != 0 {
            return false;
        }
        match kind {
            Access::Read => true,
            Access::Write => self.write_disable & bit == 0,
        }
    }

    /// Checks an access, returning the fault the MMU would raise on denial.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::ProtectionKey`] when the access is not permitted.
    pub fn check(&self, key: ProtKey, kind: Access) -> Result<(), Fault> {
        if self.allows(key, kind) {
            Ok(())
        } else {
            Err(Fault::ProtectionKey {
                key,
                access: kind,
                addr: crate::addr::Addr::NULL,
            })
        }
    }

    /// Raw 32-bit PKRU encoding (AD bit at 2i, WD bit at 2i+1), as `wrpkru`
    /// would write it. Useful for the W^X binary scan in the MPK backend.
    pub fn encode(&self) -> u32 {
        let mut v = 0u32;
        for i in 0..NUM_KEYS {
            let bit = 1u16 << i;
            if self.access_disable & bit != 0 {
                v |= 1 << (2 * i);
            }
            if self.write_disable & bit != 0 {
                v |= 1 << (2 * i + 1);
            }
        }
        v
    }

    /// Decodes a raw 32-bit PKRU value (inverse of [`Pkru::encode`]).
    pub fn decode(v: u32) -> Pkru {
        let mut access_disable = 0u16;
        let mut write_disable = 0u16;
        for i in 0..NUM_KEYS {
            if v & (1 << (2 * i)) != 0 {
                access_disable |= 1 << i;
            }
            if v & (1 << (2 * i + 1)) != 0 {
                write_disable |= 1 << i;
            }
        }
        Pkru {
            access_disable,
            write_disable,
        }
    }
}

impl Default for Pkru {
    /// Defaults to the boot state ([`Pkru::ALL_ACCESS`]).
    fn default() -> Self {
        Pkru::ALL_ACCESS
    }
}

impl fmt::Display for Pkru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PKRU({:#010x})", self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_range_enforced() {
        assert!(ProtKey::new(0).is_ok());
        assert!(ProtKey::new(15).is_ok());
        assert!(matches!(
            ProtKey::new(16),
            Err(Fault::KeyExhausted { requested: 16 })
        ));
    }

    #[test]
    fn all_access_allows_everything() {
        let pkru = Pkru::ALL_ACCESS;
        for i in 0..NUM_KEYS {
            let k = ProtKey::new(i).unwrap();
            assert!(pkru.allows(k, Access::Read));
            assert!(pkru.allows(k, Access::Write));
        }
    }

    #[test]
    fn no_access_denies_everything() {
        let pkru = Pkru::NO_ACCESS;
        for i in 0..NUM_KEYS {
            let k = ProtKey::new(i).unwrap();
            assert!(!pkru.allows(k, Access::Read));
        }
    }

    #[test]
    fn permit_only_is_exact() {
        let k3 = ProtKey::new(3).unwrap();
        let k9 = ProtKey::new(9).unwrap();
        let pkru = Pkru::permit_only(&[k3, k9]);
        for i in 0..NUM_KEYS {
            let k = ProtKey::new(i).unwrap();
            let expected = i == 3 || i == 9;
            assert_eq!(pkru.allows(k, Access::Read), expected, "key {i}");
            assert_eq!(pkru.allows(k, Access::Write), expected, "key {i}");
        }
    }

    #[test]
    fn read_only_permits_reads_not_writes() {
        let k = ProtKey::new(5).unwrap();
        let mut pkru = Pkru::NO_ACCESS;
        pkru.permit_read_only(k);
        assert!(pkru.check(k, Access::Read).is_ok());
        assert!(pkru.check(k, Access::Write).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let k1 = ProtKey::new(1).unwrap();
        let k4 = ProtKey::new(4).unwrap();
        let mut pkru = Pkru::permit_only(&[k1]);
        pkru.permit_read_only(k4);
        let decoded = Pkru::decode(pkru.encode());
        assert_eq!(pkru, decoded);
    }

    #[test]
    fn encode_all_access_is_zero() {
        assert_eq!(Pkru::ALL_ACCESS.encode(), 0);
    }
}
