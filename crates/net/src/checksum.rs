//! Internet ones-complement checksum (RFC 1071).
//!
//! One kernel serves [`checksum`], `checksum_omitting` and
//! `tcp::write_frame`: it sums the data as *little-endian* `u32` words
//! into a `u64` and folds and byte-swaps once at the end. That is exact,
//! not an approximation, by RFC 1071's byte-order independence: a
//! byte-swapped 16-bit word is congruent to 256 × the word modulo
//! `0xFFFF`, a `u32` word is two 16-bit words (`2^16 ≡ 1`), and the
//! end-around-carry fold of a nonzero sum lands on the one representative
//! of its class in `1..=0xFFFF` — so the folded little-endian sum is the
//! byte swap of the folded big-endian one, and only an all-zero input
//! folds to zero either way.

/// Unfolded sum of `data` as little-endian `u32` words, the tail
/// zero-padded. Sums of runs that start at multiples of four bytes add.
pub(crate) fn wide_sum(data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(4);
    let mut sum: u64 = words
        .by_ref()
        .map(|w| u64::from(u32::from_le_bytes([w[0], w[1], w[2], w[3]])))
        .sum();
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 4];
        word[..tail.len()].copy_from_slice(tail);
        sum += u64::from(u32::from_le_bytes(word));
    }
    sum
}

/// Folds a [`wide_sum`] and returns the checksum as a host integer whose
/// big-endian bytes are the wire field.
pub(crate) fn finish(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16).swap_bytes()
}

/// Computes the 16-bit ones-complement checksum of `data`.
///
/// ```
/// use flexos_net::checksum::checksum;
///
/// let data = [0x45u8, 0x00, 0x00, 0x3c];
/// let sum = checksum(&data);
/// // Folding the checksum back over the data yields zero.
/// let mut with_sum = data.to_vec();
/// with_sum.extend_from_slice(&sum.to_be_bytes());
/// assert_eq!(checksum(&with_sum), 0);
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    finish(wide_sum(data))
}

/// Computes [`checksum`] as if the two bytes at `skip` were zero — the
/// in-place verification of a frame's embedded checksum field, with no
/// host-side copy of the frame.
pub(crate) fn checksum_omitting(data: &[u8], skip: usize) -> u16 {
    // A byte at index `i` entered the sum shifted by its place in its
    // little-endian word; taking it back out is exact integer arithmetic.
    let mut sum = wide_sum(data);
    for i in [skip, skip + 1] {
        if let Some(&byte) = data.get(i) {
            sum -= u64::from(byte) << (8 * (i % 4));
        }
    }
    finish(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::xorshift64star;

    /// The kernel this module replaced: big-endian byte pairs summed
    /// into a `u32`, unfolded.
    fn byte_pair_sum(data: &[u8]) -> u32 {
        let mut sum: u32 = 0;
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        sum
    }

    /// Its fold and complement.
    fn byte_pair_finish(mut sum: u32) -> u16 {
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Its `checksum_omitting`: the byte-pair sum less the two skipped
    /// bytes, each the high byte of its pair at an even index.
    fn byte_pair_omitting(data: &[u8], pair_sum: u32, skip: usize) -> u16 {
        let mut sum = pair_sum;
        for i in [skip, skip + 1] {
            if let Some(&byte) = data.get(i) {
                sum -= u32::from(byte) << if i % 2 == 0 { 8 } else { 0 };
            }
        }
        byte_pair_finish(sum)
    }

    #[test]
    fn rfc1071_example() {
        // RFC 1071's worked example: 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(checksum(&[0xFF]), checksum(&[0xFF, 0x00]));
    }

    #[test]
    fn corruption_detected() {
        let mut data = b"hello world, this is a segment".to_vec();
        let sum = checksum(&data);
        data.extend_from_slice(&sum.to_be_bytes());
        // Folding the checksum back over the data yields zero.
        assert_eq!(checksum(&data), 0);
        data[3] ^= 0x40;
        assert_ne!(checksum(&data), 0);
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xFFFF);
    }

    #[test]
    fn wide_kernel_matches_the_byte_pair_loop_at_every_length_and_skip() {
        let mut rng = 0x0C5E_C5E0_0000_0001u64;
        let mut data = vec![0u8; 1500];
        for len in 0..=data.len() {
            // Seeded contents, with all-zero and all-ones frames mixed in
            // (the two folds the ones-complement sum can confuse).
            for byte in &mut data[..len] {
                *byte = match len % 7 {
                    0 => 0,
                    1 => 0xFF,
                    _ => xorshift64star(&mut rng) as u8,
                };
            }
            let frame = &data[..len];
            let pair_sum = byte_pair_sum(frame);
            assert_eq!(checksum(frame), byte_pair_finish(pair_sum), "len {len}");
            for skip in 0..=len {
                assert_eq!(
                    checksum_omitting(frame, skip),
                    byte_pair_omitting(frame, pair_sum, skip),
                    "len {len} skip {skip}"
                );
            }
        }
    }

    #[test]
    fn omitting_matches_a_zeroed_copy() {
        let data: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(73)).collect();
        for skip in 0..=data.len() {
            let mut zeroed = data.clone();
            for i in [skip, skip + 1] {
                if let Some(byte) = zeroed.get_mut(i) {
                    *byte = 0;
                }
            }
            assert_eq!(
                checksum_omitting(&data, skip),
                checksum(&zeroed),
                "skip {skip}"
            );
        }
    }
}
