//! The test suites' one seeded generator. `tests/proptests.rs` and
//! `tests/datapath_diff.rs` include it with `mod common;`, and
//! `flexos_alloc`'s unit tests with a `#[path]` to this file, so a seeded
//! op stream means the same thing wherever it is drawn.
#![allow(dead_code)] // each includer uses its own subset

/// Deterministic xorshift64* generator; good enough to churn data
/// structures, not meant for anything cryptographic. Its shift triple
/// (12, 25, 27) is not `flexos_machine::xorshift64star`'s (13, 7, 17),
/// and it stays that way: `flexos_alloc`'s unit tests compare digests
/// recorded from this exact stream.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `[lo, hi)`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    pub(crate) fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}
