//! The seeded generator every workload input is drawn from.
//!
//! SplitMix64: 64 bits of state, full period, and — what matters here —
//! a stream that is a pure function of the seed on every platform, so
//! `--seed N` names one set of inputs forever. The simulator itself
//! never sees the generator, only the inputs made with it.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed` and a purpose label. Each input a workload
    /// draws (fold deal, key stream, payload bytes) has its own label, so
    /// adding a draw to one never shifts another.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        Rng(seed ^ fnv1a_bytes(FNV_BASIS, purpose.as_bytes()))
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (multiply-shift; the bias is below
    /// `n / 2^64`, irrelevant at the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The FNV-1a offset basis: where every digest chain starts.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a digest — the digest used for
/// stream, fold and result fingerprints (stable, dependency-free; not a
/// defence against crafted input, which nothing here receives). The same
/// function as `flexos_trace::fnv1a`, which cannot be chained.
pub fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds `words` (little-endian) into a running FNV-1a digest.
pub fn fnv1a_words(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(h, |h, w| fnv1a_bytes(h, &w.to_le_bytes()))
}

/// Folds a list of point indices into a running FNV-1a digest.
pub fn fnv1a_indices(h: u64, indices: &[usize]) -> u64 {
    indices.iter().fold(h, |h, &i| fnv1a_words(h, &[i as u64]))
}

/// A digest as it is written to result files and `expected.json`.
pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_purpose_different_stream() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, "x"), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, "x"), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, "y"), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range_and_shuffle_permutes() {
        let mut r = Rng::new(1, "t");
        assert!((0..1000).all(|_| r.below(10) < 10));
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
