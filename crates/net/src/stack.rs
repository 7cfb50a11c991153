//! The lwip component: NIC servicing, TCP processing, socket API.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use flexos_core::component::ComponentId;
use flexos_core::env::{Env, Work};
use flexos_machine::fault::Fault;
use flexos_machine::smp;
use flexos_machine::trace::EventKind;

use crate::nic::SimNic;
use crate::socket::{Socket, SocketHandle, SocketKind};
use crate::tcp::{
    write_frame, SegmentView, Tcb, TcpState, FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_SYN, MSS,
};

/// Default receive-ring capacity per connection.
pub(crate) const RX_RING_BYTES: u64 = 64 * 1024;

/// Initial send sequence number the server side uses (deterministic).
const SERVER_ISS: u32 = 0x1000_0000;

/// Stack counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Segments processed from the NIC.
    pub rx_segments: u64,
    /// Segments transmitted.
    pub tx_segments: u64,
    /// Payload bytes delivered to sockets.
    pub rx_bytes: u64,
    /// Payload bytes sent.
    pub tx_bytes: u64,
    /// Frames dropped on checksum/parse failure.
    pub rx_errors: u64,
    /// `recv` calls served.
    pub recvs: u64,
    /// `send` calls served.
    pub sends: u64,
    /// `poll` calls served.
    pub polls: u64,
}

flexos_core::entry_points! {
    /// lwip's gate entry points, resolved once when the stack is wired up
    /// (the resolve-once pattern: callers gate through these handles
    /// instead of re-resolving names per call). `NAMES` is the list the
    /// component registers.
    pub struct NetEntries {
        socket: "lwip_socket",
        bind: "lwip_bind",
        listen: "lwip_listen",
        accept: "lwip_accept",
        recv: "lwip_recv",
        send: "lwip_send",
        poll: "lwip_poll",
        close: "lwip_close",
    }
}

/// A multiplicative hasher for the stack's port-keyed tables. The PCB
/// lookup sits on every segment's path; SipHash (std's default) costs
/// more host time than the whole simulated state machine, and port pairs
/// need no DoS resistance here — the "attacker" is our own benchmark
/// client.
#[derive(Default)]
pub(crate) struct PortHasher(u64);

impl Hasher for PortHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn write_u16(&mut self, value: u16) {
        self.0 = (self.0 ^ u64::from(value)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // Finalizing xorshift so low bits (what hashbrown indexes with)
        // depend on every input bit.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h
    }
}

type PortMap<K, V> = HashMap<K, V, BuildHasherDefault<PortHasher>>;

/// Interior-mutable per-field counters behind [`NetStats`]. The stack
/// bumps individual `Cell<u64>`s on the hot path instead of
/// copy-modify-writing the whole 64-byte stats struct per event.
#[derive(Debug, Default)]
struct NetStatsCells {
    rx_segments: Cell<u64>,
    tx_segments: Cell<u64>,
    rx_bytes: Cell<u64>,
    tx_bytes: Cell<u64>,
    rx_errors: Cell<u64>,
    recvs: Cell<u64>,
    sends: Cell<u64>,
    polls: Cell<u64>,
}

impl NetStatsCells {
    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    fn add(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }

    fn snapshot(&self) -> NetStats {
        NetStats {
            rx_segments: self.rx_segments.get(),
            tx_segments: self.tx_segments.get(),
            rx_bytes: self.rx_bytes.get(),
            tx_bytes: self.tx_bytes.get(),
            rx_errors: self.rx_errors.get(),
            recvs: self.recvs.get(),
            sends: self.sends.get(),
            polls: self.polls.get(),
        }
    }
}

/// The lwip component state.
pub struct NetStack {
    env: Rc<Env>,
    id: ComponentId,
    entries: NetEntries,
    nic: RefCell<SimNic>,
    sockets: RefCell<Vec<Socket>>,
    /// `(local_port, remote_port)` → the connection's control block and
    /// socket: one lookup per segment.
    pcbs: RefCell<PortMap<(u16, u16), (Tcb, SocketHandle)>>,
    listeners: RefCell<PortMap<u16, SocketHandle>>,
    stats: NetStatsCells,
}

impl std::fmt::Debug for NetStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStack")
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// Per-segment protocol processing cycles (header parse, PCB lookup,
/// state machine) — calibrated with the Figure 6/9 profiles.
const SEGMENT_CYCLES: u64 = 75;
/// Per-socket-API-call cycles.
const SOCKCALL_CYCLES: u64 = 28;
/// Extra per-byte factor for checksumming (on top of the memory-touch
/// charges the rings and NIC already pay).
const CSUM_PER_BYTE: f64 = 1.15;

impl NetStack {
    /// Creates the stack (`id` must be lwip's id in the image).
    pub fn new(env: Rc<Env>, id: ComponentId) -> Self {
        NetStack {
            entries: NetEntries::resolve(&env, id),
            env,
            id,
            nic: RefCell::new(SimNic::new()),
            sockets: RefCell::new(Vec::new()),
            pcbs: RefCell::new(PortMap::default()),
            listeners: RefCell::new(PortMap::default()),
            stats: NetStatsCells::default(),
        }
    }

    /// The stack's gate entry points, resolved at construction time.
    pub fn entries(&self) -> &NetEntries {
        &self.entries
    }

    /// Counters.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    fn charge_sockcall(&self) {
        self.env.compute(Work {
            cycles: SOCKCALL_CYCLES,
            alu_ops: 8,
            frames: 2,
            mem_accesses: 5,
            ..Work::default()
        });
    }

    fn charge_segment(&self, payload_len: usize) {
        // Same charge either way ((0.0 * CSUM_PER_BYTE) as u64 == 0);
        // the branch only spares control segments the host-side float
        // conversion.
        let csum_cycles = if payload_len == 0 {
            0
        } else {
            (payload_len as f64 * CSUM_PER_BYTE) as u64
        };
        self.env.compute(Work {
            cycles: SEGMENT_CYCLES + csum_cycles,
            alu_ops: 20 + payload_len as u64 / 4,
            frames: 4,
            mem_accesses: 12 + payload_len as u64 / 8,
            indirect_calls: 1,
        });
    }

    // --- socket API (entry points) -------------------------------------

    /// Creates a socket.
    pub fn socket(&self) -> SocketHandle {
        self.charge_sockcall();
        let mut socks = self.sockets.borrow_mut();
        socks.push(Socket::new());
        SocketHandle((socks.len() - 1) as u32)
    }

    /// Binds a socket to a local port.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] if the port is taken or the handle is bad.
    pub fn bind(&self, sock: SocketHandle, port: u16) -> Result<(), Fault> {
        self.charge_sockcall();
        if self.listeners.borrow().contains_key(&port) {
            return Err(Fault::InvalidConfig {
                reason: format!("port {port} already bound"),
            });
        }
        let mut socks = self.sockets.borrow_mut();
        let s = socks
            .get_mut(sock.0 as usize)
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("bad socket {sock:?}"),
            })?;
        s.port = port;
        Ok(())
    }

    /// Starts listening.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] for unbound/bad sockets.
    pub fn listen(&self, sock: SocketHandle) -> Result<(), Fault> {
        self.charge_sockcall();
        let port = {
            let socks = self.sockets.borrow();
            let s = socks
                .get(sock.0 as usize)
                .ok_or_else(|| Fault::InvalidConfig {
                    reason: format!("bad socket {sock:?}"),
                })?;
            if s.port == 0 {
                return Err(Fault::InvalidConfig {
                    reason: "listen on unbound socket".to_string(),
                });
            }
            s.port
        };
        self.listeners.borrow_mut().insert(port, sock);
        Ok(())
    }

    /// Accepts a completed connection, if one is queued.
    pub fn accept(&self, sock: SocketHandle) -> Option<SocketHandle> {
        self.charge_sockcall();
        self.sockets
            .borrow_mut()
            .get_mut(sock.0 as usize)?
            .accept_queue
            .pop_front()
    }

    /// Services the NIC: parses, checksum-verifies and processes every
    /// pending frame; delivers payload into socket rings. Returns the
    /// number of segments processed.
    ///
    /// # Errors
    ///
    /// Memory faults touching pbufs/rings (isolation violations).
    pub fn poll(&self) -> Result<u32, Fault> {
        let mut processed = 0u32;
        NetStatsCells::bump(&self.stats.polls);
        loop {
            let frame = match self.nic.borrow_mut().rx_pop() {
                Some(f) => f,
                None => break,
            };
            let machine = self.env.machine();
            machine.tracer().record(
                machine.clock().now(),
                EventKind::NicDequeue {
                    frame_len: frame.len() as u32,
                },
            );
            // The rx descriptor ring is shared hardware state: cores
            // draining it in the same window pay a coherence surcharge
            // (free on single-core machines).
            machine.charge_contention(smp::NIC_RING);
            // NIC DMA + parse + checksum over the whole frame.
            machine.charge_mem_bytes(frame.len() as u64);
            // Zero-copy parse: the payload stays borrowed from the frame
            // all the way into the socket ring.
            let seg = match SegmentView::parse(&frame) {
                Ok(seg) => seg,
                Err(_) => {
                    NetStatsCells::bump(&self.stats.rx_errors);
                    self.nic.borrow_mut().recycle(frame);
                    continue;
                }
            };
            self.charge_segment(seg.payload.len());
            NetStatsCells::bump(&self.stats.rx_segments);
            let outcome = self.process_segment(seg);
            self.nic.borrow_mut().recycle(frame);
            outcome?;
            processed += 1;
        }
        Ok(processed)
    }

    fn process_segment(&self, seg: SegmentView<'_>) -> Result<(), Fault> {
        let key = (seg.dst_port, seg.src_port);
        // New connection?
        if seg.has(FLAG_SYN) && !seg.has(FLAG_ACK) {
            if !self.listeners.borrow().contains_key(&seg.dst_port) {
                return Ok(()); // no listener: drop (no RST needed here)
            }
            let conn_sock = {
                let sock =
                    Socket::connection(&self.env, seg.dst_port, seg.src_port, RX_RING_BYTES)?;
                let mut socks = self.sockets.borrow_mut();
                socks.push(sock);
                SocketHandle((socks.len() - 1) as u32)
            };
            let tcb = Tcb::from_syn(seg.seq, SERVER_ISS);
            self.transmit_parts(
                seg.dst_port,
                seg.src_port,
                tcb.snd_nxt,
                tcb.rcv_nxt,
                FLAG_SYN | FLAG_ACK,
                &[],
            );
            self.pcbs.borrow_mut().insert(key, (tcb, conn_sock));
            return Ok(());
        }

        // One PCB lookup. Data and FIN segments are ACKed with the
        // connection's sequence numbers once the borrow ends; every other
        // segment stops here.
        let (snd, rcv) = {
            let mut pcbs = self.pcbs.borrow_mut();
            let Some((tcb, conn)) = pcbs.get_mut(&key) else {
                return Ok(()); // unknown connection: drop
            };
            match tcb.state {
                TcpState::SynRcvd => {
                    if seg.has(FLAG_ACK) && seg.ack == tcb.snd_nxt.wrapping_add(1) {
                        tcb.state = TcpState::Established;
                        tcb.snd_nxt = tcb.snd_nxt.wrapping_add(1);
                        if let Some(&listener) = self.listeners.borrow().get(&seg.dst_port) {
                            if let Some(l) = self.sockets.borrow_mut().get_mut(listener.0 as usize)
                            {
                                l.accept_queue.push_back(*conn);
                            }
                        }
                    }
                    return Ok(());
                }
                TcpState::Established if !seg.payload.is_empty() => {
                    // In order: deliver. Out of order: drop. Either way,
                    // ACK the next expected sequence.
                    if seg.seq == tcb.rcv_nxt {
                        tcb.rcv_nxt = tcb.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                        let pushed = {
                            let mut socks = self.sockets.borrow_mut();
                            let s = socks.get_mut(conn.0 as usize).expect("conn socket exists");
                            s.rx.as_mut()
                                .expect("connection has rx ring")
                                .push(&self.env, seg.payload)?
                        };
                        NetStatsCells::add(&self.stats.rx_bytes, pushed);
                    }
                }
                TcpState::Established if seg.has(FLAG_FIN) => {
                    tcb.rcv_nxt = tcb.rcv_nxt.wrapping_add(1);
                    tcb.state = TcpState::CloseWait;
                    if let Some(s) = self.sockets.borrow_mut().get_mut(conn.0 as usize) {
                        s.peer_closed = true;
                    }
                }
                // Pure ACK: nothing to do (no retransmit queue to clear in
                // the lite model).
                TcpState::Established | TcpState::CloseWait => return Ok(()),
            }
            (tcb.snd_nxt, tcb.rcv_nxt)
        };
        self.transmit_parts(seg.dst_port, seg.src_port, snd, rcv, FLAG_ACK, &[]);
        Ok(())
    }

    /// Frames a segment into a pooled NIC buffer and queues it — the
    /// zero-allocation transmit path (no `Segment` with an owned payload
    /// is ever materialized).
    fn transmit_parts(&self, src: u16, dst: u16, seq: u32, ack: u32, flags: u8, payload: &[u8]) {
        self.charge_segment(payload.len());
        let mut nic = self.nic.borrow_mut();
        let mut frame = nic.take_buf();
        write_frame(&mut frame, src, dst, seq, ack, flags, 65535, payload);
        let machine = self.env.machine();
        // Shared tx descriptor ring — same coherence surcharge as the
        // rx side when several cores transmit in one window.
        machine.charge_contention(smp::NIC_RING);
        machine.charge_mem_bytes(frame.len() as u64);
        NetStatsCells::bump(&self.stats.tx_segments);
        machine.tracer().record(
            machine.clock().now(),
            EventKind::NicEnqueue {
                frame_len: frame.len() as u32,
            },
        );
        nic.tx_push(frame);
    }

    /// Non-blocking receive into a caller-provided buffer: drains up to
    /// `maxlen` buffered bytes, appending them to `out`, and returns how
    /// many arrived — 0 when nothing is buffered (blocking lives in the
    /// libc wrapper — see the crate docs). Zero host allocations once
    /// `out`'s capacity has converged.
    ///
    /// # Errors
    ///
    /// Bad-handle faults; memory faults reading the ring.
    pub fn recv_into(
        &self,
        sock: SocketHandle,
        maxlen: u64,
        out: &mut Vec<u8>,
    ) -> Result<u64, Fault> {
        self.charge_sockcall();
        NetStatsCells::bump(&self.stats.recvs);
        let mut socks = self.sockets.borrow_mut();
        let s = socks
            .get_mut(sock.0 as usize)
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("bad socket {sock:?}"),
            })?;
        match &mut s.rx {
            Some(rx) => rx.pop_into(&self.env, maxlen, out),
            None => Err(Fault::InvalidConfig {
                reason: "recv on listening socket".to_string(),
            }),
        }
    }

    /// Sends `data` on a connection, segmenting at `MSS`.
    ///
    /// # Errors
    ///
    /// Bad-handle faults.
    pub fn send(&self, sock: SocketHandle, data: &[u8]) -> Result<u64, Fault> {
        self.charge_sockcall();
        let (local, peer) = {
            let socks = self.sockets.borrow();
            let s = socks
                .get(sock.0 as usize)
                .ok_or_else(|| Fault::InvalidConfig {
                    reason: format!("bad socket {sock:?}"),
                })?;
            if s.kind != SocketKind::Connection {
                return Err(Fault::InvalidConfig {
                    reason: "send on listening socket".to_string(),
                });
            }
            (s.port, s.peer_port)
        };
        let key = (local, peer);
        for chunk in data.chunks(MSS) {
            let (seq, ack) = {
                let mut pcbs = self.pcbs.borrow_mut();
                let (tcb, _) = pcbs.get_mut(&key).ok_or_else(|| Fault::InvalidConfig {
                    reason: "send on connection without TCB".to_string(),
                })?;
                let seq = tcb.snd_nxt;
                tcb.snd_nxt = tcb.snd_nxt.wrapping_add(chunk.len() as u32);
                (seq, tcb.rcv_nxt)
            };
            self.transmit_parts(local, peer, seq, ack, FLAG_ACK | FLAG_PSH, chunk);
        }
        NetStatsCells::bump(&self.stats.sends);
        NetStatsCells::add(&self.stats.tx_bytes, data.len() as u64);
        Ok(data.len() as u64)
    }

    /// Bytes currently buffered on a connection (the libc wrapper's
    /// "would recv block?" probe).
    pub fn rx_available(&self, sock: SocketHandle) -> u64 {
        self.sockets
            .borrow()
            .get(sock.0 as usize)
            .and_then(|s| s.rx.as_ref().map(|r| r.len()))
            .unwrap_or(0)
    }

    /// `true` once the peer closed and all data was drained.
    pub fn at_eof(&self, sock: SocketHandle) -> bool {
        self.sockets
            .borrow()
            .get(sock.0 as usize)
            .map(|s| s.peer_closed && s.rx.as_ref().map(|r| r.is_empty()).unwrap_or(true))
            .unwrap_or(true)
    }

    // --- host-side access for clients/drivers ---------------------------

    /// Client side: an empty pooled NIC buffer to build a frame in.
    pub(crate) fn client_take_buf(&self) -> Vec<u8> {
        self.nic.borrow_mut().take_buf()
    }

    /// Client-side injection of a frame built in a
    /// [`NetStack::client_take_buf`] buffer (free; models traffic from
    /// the load generator's dedicated cores). Returns `false` when the
    /// NIC dropped the frame.
    pub(crate) fn client_inject(&self, frame: Vec<u8>) -> bool {
        self.nic.borrow_mut().inject(frame)
    }

    /// Client side: takes the next transmitted frame, if any. Hand the
    /// buffer back with [`NetStack::client_recycle`] once processed so
    /// the frame pool stays warm.
    pub(crate) fn client_take_tx(&self) -> Option<Vec<u8>> {
        self.nic.borrow_mut().tx_pop()
    }

    /// Returns a frame buffer obtained from [`NetStack::client_take_tx`]
    /// to the NIC's pool.
    pub(crate) fn client_recycle(&self, frame: Vec<u8>) {
        self.nic.borrow_mut().recycle(frame)
    }

    /// Host-side servicing helper: runs [`NetStack::poll`] *as* the lwip
    /// component (used by test clients to model NIC interrupt servicing).
    ///
    /// # Errors
    ///
    /// Propagates [`NetStack::poll`] faults.
    pub(crate) fn service(&self) -> Result<u32, Fault> {
        self.env.run_as(self.id, || self.poll())
    }
}
