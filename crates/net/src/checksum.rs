//! Internet ones-complement checksum (RFC 1071).

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
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Computes [`checksum`] as if the two bytes at `skip` were zero — the
/// in-place verification of a frame's embedded checksum field, with no
/// host-side copy of the frame (the pre-PR path cloned every received
/// frame just to zero those two bytes).
pub(crate) fn checksum_omitting(data: &[u8], skip: usize) -> u16 {
    // Sum everything word-wise (the fast path), then subtract the two
    // skipped bytes' contributions: a byte at an even index is the high
    // byte of its big-endian word, at an odd index the low byte.
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    for i in [skip, skip + 1] {
        if let Some(&byte) = data.get(i) {
            sum -= u32::from(byte) << if i % 2 == 0 { 8 } else { 0 };
        }
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn omitting_matches_a_zeroed_copy() {
        let data: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(73)).collect();
        for skip in [0usize, 3, 16, 35, 36] {
            let mut zeroed = data.clone();
            zeroed[skip] = 0;
            if skip + 1 < zeroed.len() {
                zeroed[skip + 1] = 0;
            }
            assert_eq!(
                checksum_omitting(&data, skip),
                checksum(&zeroed),
                "skip {skip}"
            );
        }
    }
}
