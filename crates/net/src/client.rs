//! Host-side TCP client: the load generator.
//!
//! Models redis-benchmark / wrk / the iPerf client running on dedicated
//! host cores (§6's testbed setup): it speaks real TCP-lite to the stack
//! through the NIC — full handshake, sequenced data, ACK processing —
//! but its own cycles are free, exactly like the paper's client cores.

use flexos_machine::fault::Fault;

use crate::stack::NetStack;
use crate::tcp::{write_frame, SegmentView, FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN, MSS};

/// A client-side TCP connection.
///
/// Every outgoing frame is built straight into a buffer from the NIC's
/// frame pool and handed over without a copy, so a steady-state
/// request/reply loop performs zero host allocations on the client side
/// (the load generator's cycles are free, but its host allocations would
/// still pollute end-to-end alloc measurements).
#[derive(Debug)]
pub struct TcpClient {
    src_port: u16,
    dst_port: u16,
    snd_nxt: u32,
    rcv_nxt: u32,
    established: bool,
    /// Reassembled bytes received from the server.
    rx: Vec<u8>,
}

impl TcpClient {
    /// Builds a frame in a pooled NIC buffer and injects it.
    fn inject(&self, stack: &NetStack, seq: u32, ack: u32, flags: u8, payload: &[u8]) {
        let mut frame = stack.client_take_buf();
        write_frame(
            &mut frame,
            self.src_port,
            self.dst_port,
            seq,
            ack,
            flags,
            65535,
            payload,
        );
        stack.client_inject(frame);
    }

    /// Opens a connection to `dst_port` with a full three-way handshake.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] if the server does not answer with a
    /// SYN-ACK (e.g. nothing listens on the port); stack faults propagate.
    pub fn connect(stack: &NetStack, src_port: u16, dst_port: u16) -> Result<TcpClient, Fault> {
        let iss = 0x2000_0000u32;
        let mut client = TcpClient {
            src_port,
            dst_port,
            snd_nxt: iss,
            rcv_nxt: 0,
            established: false,
            rx: Vec::new(),
        };
        client.inject(stack, iss, 0, FLAG_SYN, &[]);
        stack.service()?;
        client.drain(stack)?;
        if !client.established {
            return Err(Fault::InvalidConfig {
                reason: format!("no SYN-ACK from port {dst_port}"),
            });
        }
        // Final ACK of the handshake.
        client.inject(stack, client.snd_nxt, client.rcv_nxt, FLAG_ACK, &[]);
        stack.service()?;
        Ok(client)
    }

    /// Sends `data` to the server (segmenting at MSS) and lets the stack
    /// process it.
    ///
    /// # Errors
    ///
    /// Stack faults propagate.
    pub fn send(&mut self, stack: &NetStack, data: &[u8]) -> Result<(), Fault> {
        for chunk in data.chunks(MSS) {
            let seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(chunk.len() as u32);
            self.inject(stack, seq, self.rcv_nxt, FLAG_ACK | FLAG_PSH, chunk);
            stack.service()?;
            self.drain(stack)?;
        }
        Ok(())
    }

    /// Collects and processes every frame the server transmitted;
    /// reassembled payload accumulates in the client's receive buffer.
    /// Frame buffers return to the NIC pool once processed.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] on malformed frames (should not happen —
    /// the server computes checksums).
    pub fn drain(&mut self, stack: &NetStack) -> Result<(), Fault> {
        while let Some(frame) = stack.client_take_tx() {
            let outcome = self.process_frame(stack, &frame);
            stack.client_recycle(frame);
            outcome?;
        }
        Ok(())
    }

    fn process_frame(&mut self, stack: &NetStack, frame: &[u8]) -> Result<(), Fault> {
        // Receive-checksum offload: the load generator's NIC verifies;
        // only the system under test spends host time on checksums.
        let seg = SegmentView::parse_offloaded(frame)?;
        if seg.dst_port != self.src_port {
            return Ok(()); // other connections' traffic
        }
        if seg.has(FLAG_SYN) && seg.has(FLAG_ACK) {
            self.rcv_nxt = seg.seq.wrapping_add(1);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.established = true;
            return Ok(());
        }
        if !seg.payload.is_empty() {
            if seg.seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                self.rx.extend_from_slice(seg.payload);
                // ACK the data.
                self.inject(stack, self.snd_nxt, self.rcv_nxt, FLAG_ACK, &[]);
            }
            return Ok(());
        }
        if seg.has(FLAG_FIN) {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
        }
        Ok(())
    }

    /// Everything received and not yet cleared, borrowed.
    pub fn received(&self) -> &[u8] {
        &self.rx
    }

    /// Clears the receive buffer, keeping its capacity.
    pub fn clear_received(&mut self) {
        self.rx.clear();
    }

    /// Bytes received and not yet taken.
    pub fn received_len(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_core::backend::NoneBackend;
    use flexos_core::config::SafetyConfig;
    use flexos_core::image::ImageBuilder;
    use flexos_machine::Machine;
    use std::rc::Rc;

    fn stack() -> Rc<NetStack> {
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let mut b = ImageBuilder::new(machine, SafetyConfig::none());
        let id = b.register(crate::component()).unwrap();
        let image = b.build(&[&NoneBackend]).unwrap();
        Rc::new(NetStack::new(image.env, id))
    }

    fn serve(stack: &NetStack, port: u16) -> crate::socket::SocketHandle {
        let sock = stack.socket();
        stack.bind(sock, port).unwrap();
        stack.listen(sock).unwrap();
        sock
    }

    #[test]
    fn handshake_establishes_and_accepts() {
        let stack = stack();
        let listener = serve(&stack, 6379);
        let client = TcpClient::connect(&stack, 50000, 6379).unwrap();
        assert!(client.established);
        let conn = stack.accept(listener);
        assert!(conn.is_some(), "handshake queues the connection");
    }

    #[test]
    fn connect_to_dead_port_fails() {
        let stack = stack();
        assert!(TcpClient::connect(&stack, 50000, 9999).is_err());
    }

    #[test]
    fn data_flows_client_to_server_and_back() {
        let stack = stack();
        let listener = serve(&stack, 6379);
        let mut client = TcpClient::connect(&stack, 50000, 6379).unwrap();
        let conn = stack.accept(listener).unwrap();

        client.send(&stack, b"PING").unwrap();
        let mut got = Vec::new();
        stack
            .recv_into(conn, 64, &mut got)
            .expect("server sees client bytes");
        assert_eq!(got, b"PING");

        // Server replies; client reassembles.
        stack.send(conn, b"+PONG\r\n").unwrap();
        client.drain(&stack).unwrap();
        assert_eq!(client.received(), b"+PONG\r\n");
        client.clear_received();
        assert_eq!(client.received_len(), 0);
    }

    #[test]
    fn large_transfers_are_segmented_and_reassembled() {
        let stack = stack();
        let listener = serve(&stack, 5001);
        let mut client = TcpClient::connect(&stack, 40000, 5001).unwrap();
        let conn = stack.accept(listener).unwrap();

        let blob: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        client.send(&stack, &blob).unwrap();
        let mut got = Vec::new();
        while got.len() < blob.len() {
            if stack.recv_into(conn, 4096, &mut got).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(got, blob, "10 KB survives MSS segmentation in order");
    }

    #[test]
    fn two_connections_do_not_mix() {
        let stack = stack();
        let listener = serve(&stack, 80);
        let mut c1 = TcpClient::connect(&stack, 40001, 80).unwrap();
        let s1 = stack.accept(listener).unwrap();
        let mut c2 = TcpClient::connect(&stack, 40002, 80).unwrap();
        let s2 = stack.accept(listener).unwrap();

        c1.send(&stack, b"from-c1").unwrap();
        c2.send(&stack, b"from-c2").unwrap();
        let (mut got1, mut got2) = (Vec::new(), Vec::new());
        stack.recv_into(s1, 64, &mut got1).unwrap();
        stack.recv_into(s2, 64, &mut got2).unwrap();
        assert_eq!(got1, b"from-c1");
        assert_eq!(got2, b"from-c2");
    }

    #[test]
    fn fin_reaches_eof() {
        let stack = stack();
        let listener = serve(&stack, 80);
        let client = TcpClient::connect(&stack, 40000, 80).unwrap();
        let conn = stack.accept(listener).unwrap();
        assert!(!stack.at_eof(conn));
        let (seq, ack) = (client.snd_nxt, client.rcv_nxt);
        client.inject(&stack, seq, ack, FLAG_FIN | FLAG_ACK, &[]);
        stack.service().unwrap();
        assert!(stack.at_eof(conn));
    }
}
