//! TCP-lite segments and connection state.
//!
//! A 20-byte header (ports, seq/ack, flags, window, checksum, length)
//! carrying up to `MSS` payload bytes. The state machine covers the
//! paths the evaluation exercises: passive open (three-way handshake),
//! established in-order data transfer with acknowledgments, and FIN
//! teardown.

use flexos_machine::fault::Fault;

use crate::checksum::{checksum_omitting, finish, wide_sum};

/// Byte offset of the checksum field within the header.
const CSUM_OFFSET: usize = 16;

/// Segment header length in bytes.
pub(crate) const HEADER_LEN: usize = 20;

/// Maximum segment payload (Ethernet-ish MTU minus headers).
pub(crate) const MSS: usize = 1460;

/// SYN flag.
pub(crate) const FLAG_SYN: u8 = 0x01;
/// ACK flag.
pub const FLAG_ACK: u8 = 0x02;
/// FIN flag.
pub(crate) const FLAG_FIN: u8 = 0x04;
/// PSH flag.
pub const FLAG_PSH: u8 = 0x10;

/// A parsed TCP-lite segment, borrowing its payload from the frame: the
/// data path parses without copying or allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentView<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number (next expected byte).
    pub ack: u32,
    /// Flag bits.
    pub flags: u8,
    /// Advertised receive window.
    pub window: u16,
    /// Payload bytes, borrowed from the frame.
    pub payload: &'a [u8],
}

impl<'a> SegmentView<'a> {
    /// Parses and checksum-verifies a frame without copying it (the
    /// embedded checksum field is skipped in place rather than zeroed in
    /// a clone).
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] for truncated frames or checksum failures
    /// (the stack drops these and counts them).
    pub fn parse(frame: &'a [u8]) -> Result<SegmentView<'a>, Fault> {
        if frame.len() < HEADER_LEN {
            return Err(Fault::InvalidConfig {
                reason: format!("truncated frame: {} bytes", frame.len()),
            });
        }
        let wire_sum = u16::from_be_bytes([frame[CSUM_OFFSET], frame[CSUM_OFFSET + 1]]);
        if checksum_omitting(frame, CSUM_OFFSET) != wire_sum {
            return Err(Fault::InvalidConfig {
                reason: "checksum mismatch".to_string(),
            });
        }
        Self::parse_offloaded(frame)
    }

    /// `true` if the given flag is set.
    pub(crate) fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// [`SegmentView::parse`] without checksum verification — what a NIC
    /// with receive-checksum offload hands the host. The benchmark
    /// client uses this (its cycles are free, but its host time is not);
    /// the system under test always verifies.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] for truncated frames.
    pub(crate) fn parse_offloaded(frame: &'a [u8]) -> Result<SegmentView<'a>, Fault> {
        if frame.len() < HEADER_LEN {
            return Err(Fault::InvalidConfig {
                reason: format!("truncated frame: {} bytes", frame.len()),
            });
        }
        let len = u16::from_be_bytes([frame[18], frame[19]]) as usize;
        if frame.len() < HEADER_LEN + len {
            return Err(Fault::InvalidConfig {
                reason: "payload shorter than length field".to_string(),
            });
        }
        Ok(SegmentView {
            src_port: u16::from_be_bytes([frame[0], frame[1]]),
            dst_port: u16::from_be_bytes([frame[2], frame[3]]),
            seq: u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]),
            ack: u32::from_be_bytes([frame[8], frame[9], frame[10], frame[11]]),
            flags: frame[12],
            window: u16::from_be_bytes([frame[14], frame[15]]),
            payload: &frame[HEADER_LEN..HEADER_LEN + len],
        })
    }
}

/// Serializes a segment into `out` (cleared first) with a valid
/// checksum: with a recycled `out`, framing performs zero host
/// allocations.
///
/// # Panics
///
/// Panics if the payload exceeds `MSS`.
#[allow(clippy::too_many_arguments)]
pub fn write_frame(
    out: &mut Vec<u8>,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: u8,
    window: u16,
    payload: &[u8],
) {
    assert!(payload.len() <= MSS, "payload exceeds MSS");
    // Assemble the header on the stack, checksum header and payload as
    // two independent word runs (the payload starts at a multiple of
    // four bytes, so the two sums add), and append with two bulk copies
    // — the frame build is on the per-segment fast path of every
    // workload.
    let mut header = [0u8; HEADER_LEN];
    header[0..2].copy_from_slice(&src_port.to_be_bytes());
    header[2..4].copy_from_slice(&dst_port.to_be_bytes());
    header[4..8].copy_from_slice(&seq.to_be_bytes());
    header[8..12].copy_from_slice(&ack.to_be_bytes());
    header[12] = flags;
    header[14..16].copy_from_slice(&window.to_be_bytes());
    header[18..20].copy_from_slice(&(payload.len() as u16).to_be_bytes());
    let sum = finish(wide_sum(&header) + wide_sum(payload));
    header[CSUM_OFFSET..CSUM_OFFSET + 2].copy_from_slice(&sum.to_be_bytes());
    out.clear();
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
}

/// Connection state (the subset of RFC 793 the evaluation exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TcpState {
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Peer sent FIN.
    CloseWait,
}

/// Per-connection control block.
#[derive(Debug, Clone)]
pub(crate) struct Tcb {
    /// Connection state.
    pub state: TcpState,
    /// Next sequence number expected from the peer.
    pub rcv_nxt: u32,
    /// Next sequence number we will send.
    pub snd_nxt: u32,
}

impl Tcb {
    /// Creates a control block in [`TcpState::SynRcvd`] after a SYN.
    pub(crate) fn from_syn(peer_seq: u32, iss: u32) -> Tcb {
        Tcb {
            state: TcpState::SynRcvd,
            rcv_nxt: peer_seq.wrapping_add(1),
            snd_nxt: iss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_parse_roundtrip() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            50000,
            6379,
            1000,
            2000,
            FLAG_ACK | FLAG_PSH,
            4096,
            b"GET mykey",
        );
        assert_eq!(
            SegmentView::parse(&wire).unwrap(),
            SegmentView {
                src_port: 50000,
                dst_port: 6379,
                seq: 1000,
                ack: 2000,
                flags: FLAG_ACK | FLAG_PSH,
                window: 4096,
                payload: b"GET mykey",
            }
        );
    }

    #[test]
    fn corrupted_frame_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 2, 0, 0, FLAG_SYN, 65535, &[]);
        wire[4] ^= 0xFF; // flip sequence bits
        assert!(SegmentView::parse(&wire).is_err());
        let mut wire = Vec::new();
        write_frame(&mut wire, 50000, 6379, 1000, 2000, FLAG_ACK, 4096, b"GET");
        wire[5] ^= 0x10;
        assert!(SegmentView::parse(&wire).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        assert!(SegmentView::parse(&[0u8; 10]).is_err());
        // Length field larger than actual payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 2, 0, 0, 0, 65535, b"xyz");
        wire.truncate(HEADER_LEN + 1);
        // Restore checksum validity is impossible after truncation; parse
        // must fail either on checksum or on the length check.
        assert!(SegmentView::parse(&wire).is_err());
        assert!(SegmentView::parse_offloaded(&wire).is_err());
    }

    #[test]
    fn tcb_from_syn_acknowledges_one() {
        let tcb = Tcb::from_syn(999, 5000);
        assert_eq!(tcb.state, TcpState::SynRcvd);
        assert_eq!(tcb.rcv_nxt, 1000);
        assert_eq!(tcb.snd_nxt, 5000);
    }

    #[test]
    fn write_frame_reuses_its_buffer() {
        let mut buf = vec![0xEE; 64]; // stale contents must be discarded
        write_frame(&mut buf, 1, 2, 7, 9, FLAG_ACK, 512, b"payload");
        assert_eq!(buf.len(), HEADER_LEN + 7);
        let seg = SegmentView::parse(&buf).unwrap();
        assert_eq!(seg.payload, b"payload");
        assert!(seg.has(FLAG_ACK) && !seg.has(FLAG_SYN));
    }

    #[test]
    fn max_payload_enforced() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 2, 0, 0, 0, 65535, &[0u8; MSS]);
        assert_eq!(wire.len(), HEADER_LEN + MSS);
    }
}
