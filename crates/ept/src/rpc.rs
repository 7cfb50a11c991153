//! Shared-memory RPC rings (§4.2 "EPT Gates").
//!
//! One ring per callee VM, in a region every compartment's PKRU maps
//! (shared memory is the only thing EPT compartments have in common). A
//! ring entry carries the function pointer (its build-time hash here),
//! two argument words, and a status word the server flips when the reply
//! is ready. The paper's servers busy-wait; the 462-cycle Figure 11b
//! constant is the measured round trip including the cache-line
//! ping-pong, so ring operations here move real bytes through simulated
//! memory but do not double-charge the clock.
//!
//! The operations take the simulated [`Memory`] itself, so one crossing
//! — the caller's push, the server's turn — runs under a single borrow
//! of it, and they move the 16-byte header and a 32-byte entry as ranged
//! accesses: one rights-checked walk each, under the given PKRU, instead
//! of one per word. A crossing is seven walks of simulated memory.

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;
use flexos_machine::key::Pkru;
use flexos_machine::mem::Memory;

#[cfg(test)]
mod reference;

/// Entries per ring.
pub(crate) const RING_ENTRIES: u64 = 64;

/// Bytes per ring entry: entry_hash u64, arg0 u64, arg1 u64, status u64.
pub(crate) const ENTRY_BYTES: u64 = 32;

/// Ring header: head u64, tail u64.
pub(crate) const HEADER_BYTES: u64 = 16;

/// Entry status words.
mod status {
    pub(crate) const EMPTY: u64 = 0;
    pub(crate) const REQUEST: u64 = 1;
    pub(crate) const DONE: u64 = 2;
}

/// Build-time hash of an entry-point name; stands in for the function
/// pointer the paper deposits (all addresses known at build time).
pub fn entry_hash(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One RPC request as read back by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RpcRequest {
    /// Ring slot the request occupies.
    pub slot: u64,
    /// Hash of the requested entry point.
    pub entry: u64,
    /// First argument word.
    pub arg0: u64,
    /// Second argument word.
    pub arg1: u64,
}

/// A shared-memory RPC ring for one callee VM.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RpcRing {
    base: Addr,
}

impl RpcRing {
    /// Wraps a ring at `base` (a shared-keyed region holding the header
    /// and [`RING_ENTRIES`] entries).
    pub(crate) fn new(base: Addr) -> Self {
        RpcRing { base }
    }

    fn head_addr(&self) -> Addr {
        self.base
    }

    fn tail_addr(&self) -> Addr {
        self.base + 8
    }

    fn entry_addr(&self, slot: u64) -> Addr {
        self.base + HEADER_BYTES + (slot % RING_ENTRIES) * ENTRY_BYTES
    }

    /// Reads `(head, tail)` in one access.
    #[inline]
    fn header(&self, mem: &Memory, pkru: &Pkru) -> Result<(u64, u64), Fault> {
        let [head, tail] = read_words(mem, self.head_addr(), pkru)?;
        Ok((head, tail))
    }

    /// Caller side: deposits a request, returning its slot.
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] when the ring is full; protection
    /// faults if `pkru` does not map the shared region.
    #[inline]
    pub(crate) fn push_request(
        &self,
        mem: &mut Memory,
        pkru: &Pkru,
        entry: u64,
        arg0: u64,
        arg1: u64,
    ) -> Result<u64, Fault> {
        let (head, tail) = self.header(mem, pkru)?;
        if head - tail >= RING_ENTRIES {
            return Err(Fault::ResourceExhausted { what: "RPC ring" });
        }
        let slot = head;
        write_words(
            mem,
            self.entry_addr(slot),
            [entry, arg0, arg1, status::REQUEST],
            pkru,
        )?;
        write_words(mem, self.head_addr(), [head + 1], pkru)?;
        Ok(slot)
    }

    /// Server side: takes its turn at the ring (the paper's servers
    /// busy-wait on this). The oldest pending request, if there is one,
    /// is handed to `handler`; the reply it returns is published and the
    /// request retired. A handler that returns `None` refuses the request
    /// — an illegal function pointer — and leaves it pending, as a server
    /// that faults on it would. Returns the request it looked at.
    ///
    /// # Errors
    ///
    /// Protection faults if `pkru` does not map the shared region.
    #[inline]
    pub(crate) fn serve_next(
        &self,
        mem: &mut Memory,
        pkru: &Pkru,
        handler: impl FnOnce(&RpcRequest) -> Option<u64>,
    ) -> Result<Option<RpcRequest>, Fault> {
        let (head, tail) = self.header(mem, pkru)?;
        if tail >= head {
            return Ok(None);
        }
        let at = self.entry_addr(tail);
        let [entry, arg0, arg1, status_word] = read_words(mem, at, pkru)?;
        if status_word != status::REQUEST {
            // A fresh (zeroed) slot is EMPTY; a retired one is DONE.
            debug_assert!(
                status_word == status::EMPTY || status_word == status::DONE,
                "corrupt RPC slot status {status_word}"
            );
            return Ok(None);
        }
        let request = RpcRequest {
            slot: tail,
            entry,
            arg0,
            arg1,
        };
        if let Some(ret) = handler(&request) {
            // The reply replaces `arg0`; `arg1` is rewritten as read.
            write_words(mem, at + 8, [ret, arg1, status::DONE], pkru)?;
            write_words(mem, self.tail_addr(), [tail + 1], pkru)?;
        }
        Ok(Some(request))
    }
}

/// Reads `N` consecutive little-endian words at `addr` in one access.
#[inline]
fn read_words<const N: usize>(mem: &Memory, addr: Addr, pkru: &Pkru) -> Result<[u64; N], Fault> {
    let mut bytes = [0u8; ENTRY_BYTES as usize];
    let bytes = &mut bytes[..8 * N];
    mem.read(addr, bytes, pkru)?;
    let mut words = [0u64; N];
    for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    Ok(words)
}

/// Writes `words` little-endian at `addr` in one access.
#[inline]
fn write_words<const N: usize>(
    mem: &mut Memory,
    addr: Addr,
    words: [u64; N],
    pkru: &Pkru,
) -> Result<(), Fault> {
    let mut bytes = [0u8; ENTRY_BYTES as usize];
    for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    mem.write(addr, &bytes[..8 * N], pkru)
}

/// The per-VM pool of threads servicing RPC requests (§4.2: "each RPC
/// server maintains a pool of threads that are used to service RPCs").
#[derive(Debug)]
pub(crate) struct RpcServerPool {
    /// Requests serviced.
    serviced: u64,
    /// Requests refused for illegal entry points.
    refused: u64,
}

impl RpcServerPool {
    /// Creates a pool that has serviced nothing yet.
    pub(crate) fn new() -> Self {
        RpcServerPool {
            serviced: 0,
            refused: 0,
        }
    }

    /// Records a serviced request.
    pub(crate) fn record_serviced(&mut self) {
        self.serviced += 1;
    }

    /// Records a refused (illegal entry point) request.
    pub(crate) fn record_refused(&mut self) {
        self.refused += 1;
    }

    /// Requests serviced so far.
    pub(crate) fn serviced(&self) -> u64 {
        self.serviced
    }

    /// Requests refused so far.
    pub(crate) fn refused(&self) -> u64 {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::key::ProtKey;
    use flexos_machine::Machine;

    fn ring() -> (std::rc::Rc<Machine>, RpcRing, Pkru) {
        let machine = Machine::new(8 * 1024 * 1024);
        let region = machine
            .map_region("rpc-ring", 1, ProtKey::new(15).unwrap())
            .unwrap();
        let pkru = Pkru::permit_only(&[ProtKey::new(15).unwrap()]);
        (machine, RpcRing::new(region.base()), pkru)
    }

    #[test]
    fn request_reply_roundtrip() {
        let (machine, ring, pkru) = ring();
        let mem = &mut *machine.memory_mut();
        let h = entry_hash("vfs_write");
        let slot = ring.push_request(mem, &pkru, h, 42, 7).unwrap();
        // A refused request stays pending and unanswered...
        let refused = ring.serve_next(mem, &pkru, |_| None).unwrap().unwrap();
        let [_, arg0, _, status_word] = read_words(mem, ring.entry_addr(slot), &pkru).unwrap();
        assert_eq!((arg0, status_word), (42, status::REQUEST));
        // ...and the next turn sees it again.
        let req = ring
            .serve_next(mem, &pkru, |req| Some(req.arg0 + 1295))
            .unwrap()
            .unwrap();
        assert_eq!(req, refused);
        assert_eq!((req.slot, req.entry), (slot, h));
        assert_eq!((req.arg0, req.arg1), (42, 7));
        // The reply replaced `arg0` and the slot is marked done.
        let [_, reply, _, status_word] = read_words(mem, ring.entry_addr(slot), &pkru).unwrap();
        assert_eq!((reply, status_word), (1337, status::DONE));
        // Retired: nothing pending.
        assert_eq!(ring.serve_next(mem, &pkru, |_| Some(0)).unwrap(), None);
    }

    #[test]
    fn ring_fills_up() {
        let (machine, ring, pkru) = ring();
        let mem = &mut *machine.memory_mut();
        for i in 0..RING_ENTRIES {
            ring.push_request(mem, &pkru, 1, i, 0).unwrap();
        }
        assert!(matches!(
            ring.push_request(mem, &pkru, 1, 0, 0),
            Err(Fault::ResourceExhausted { .. })
        ));
    }

    /// The ring's bytes as the shared domain sees them.
    fn ring_bytes(machine: &Machine, ring: &RpcRing, pkru: &Pkru) -> Vec<u8> {
        machine
            .memory()
            .read_vec(ring.base, HEADER_BYTES + RING_ENTRIES * ENTRY_BYTES, pkru)
            .unwrap()
    }

    /// The reference server's turn: pop, then retire what was popped
    /// unless the handler refuses it.
    fn reference_serve_next(
        ring: &RpcRing,
        machine: &Machine,
        pkru: &Pkru,
        handler: impl FnOnce(&RpcRequest) -> Option<u64>,
    ) -> Result<Option<RpcRequest>, Fault> {
        let popped = reference::pop_request(ring, machine, pkru)?;
        if let Some(ret) = popped.as_ref().and_then(handler) {
            reference::complete(ring, machine, pkru, popped.unwrap().slot, ret)?;
        }
        Ok(popped)
    }

    #[test]
    fn foreign_domain_faults_on_the_first_access_with_nothing_written() {
        let (machine, ring, owner) = ring();
        let (ref_machine, ref_ring, _) = self::ring();
        let before = ring_bytes(&machine, &ring, &owner);
        let stranger = Pkru::permit_only(&[ProtKey::new(3).unwrap()]);
        let pushed = ring
            .push_request(&mut machine.memory_mut(), &stranger, 1, 2, 3)
            .map(drop);
        let served = ring
            .serve_next(&mut machine.memory_mut(), &stranger, |_| Some(9))
            .map(drop);
        let got = [pushed, served];
        let want = [
            reference::push_request(&ref_ring, &ref_machine, &stranger, 1, 2, 3).map(drop),
            reference_serve_next(&ref_ring, &ref_machine, &stranger, |_| Some(9)).map(drop),
        ];
        assert_eq!(got, want, "the same fault, naming the same address");
        for fault in &got {
            assert!(
                matches!(fault, Err(Fault::ProtectionKey { .. })),
                "{fault:?}"
            );
        }
        assert_eq!(ring_bytes(&machine, &ring, &owner), before);
    }

    #[test]
    fn ranged_operations_match_the_word_at_a_time_reference() {
        // Seeded call sequences, in long runs of pushes then long runs of
        // server turns so the ring runs full, drains and wraps
        // (RING_ENTRIES = 64 slots, a few thousand operations). One
        // server turn in eight refuses its request and leaves it pending;
        // a read-only PKRU takes its turn, so a write refused after a
        // permitted read is compared too. After every call: same return
        // value or fault, same ring bytes.
        for seed in 1..=8u64 {
            let (machine, ring, pkru) = self::ring();
            let (ref_machine, ref_ring, _) = self::ring();
            let mut read_only = Pkru::NO_ACCESS;
            read_only.permit_read_only(ProtKey::new(15).unwrap());
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            // The draw is the generator's state, as this stream always was.
            let mut next = move || {
                flexos_machine::xorshift64star(&mut state);
                state
            };
            let (mut pushes, mut full, mut refusals) = (0u64, 0u64, 0u64);
            for step in 0..4000 {
                let draw = next();
                let filling = (step / 150) % 2 == 0;
                let who = if draw >> 8 & 15 == 0 {
                    &read_only
                } else {
                    &pkru
                };
                let (a, b, c) = (next(), next(), next());
                let same = match draw % 10 {
                    0..=8 if filling => {
                        let got = ring.push_request(&mut machine.memory_mut(), who, a, b, c);
                        let want = reference::push_request(&ref_ring, &ref_machine, who, a, b, c);
                        pushes += u64::from(got.is_ok());
                        full += u64::from(matches!(got, Err(Fault::ResourceExhausted { .. })));
                        got == want
                    }
                    0..=6 => {
                        let reply = (draw >> 12 & 7 != 0).then_some(a);
                        refusals += u64::from(reply.is_none());
                        ring.serve_next(&mut machine.memory_mut(), who, |_| reply)
                            == reference_serve_next(&ref_ring, &ref_machine, who, |_| reply)
                    }
                    _ => {
                        // Any slot ever handed out: pending, retired, reused.
                        let slot = (draw >> 16) % pushes.max(1);
                        reference::fetch_reply(&ring, &machine, who, slot)
                            == reference::fetch_reply(&ref_ring, &ref_machine, who, slot)
                    }
                };
                assert!(same, "seed {seed} step {step}: answered differently");
                assert_eq!(
                    ring_bytes(&machine, &ring, &pkru),
                    ring_bytes(&ref_machine, &ref_ring, &pkru),
                    "seed {seed} step {step}: left different bytes"
                );
            }
            assert!(pushes > RING_ENTRIES * 4, "seed {seed}: the ring wrapped");
            assert!(full > 0 && refusals > 0, "seed {seed}: {full} {refusals}");
        }
    }

    #[test]
    fn entry_hash_is_stable_and_distinct() {
        assert_eq!(entry_hash("recv"), entry_hash("recv"));
        assert_ne!(entry_hash("recv"), entry_hash("send"));
    }

    #[test]
    fn pool_counters() {
        let mut pool = RpcServerPool::new();
        pool.record_serviced();
        pool.record_refused();
        assert_eq!(pool.serviced(), 1);
        assert_eq!(pool.refused(), 1);
    }
}
