//! Sockets and per-socket receive rings in simulated memory.

use std::collections::VecDeque;
use std::rc::Rc;

use flexos_core::env::Env;
use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

/// Handle to a socket in the stack's socket table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(pub u32);

/// What a socket is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SocketKind {
    /// Passive listener.
    Listen,
    /// One TCP connection.
    Connection,
}

/// Byte ring buffer in simulated memory backing a socket's receive queue.
///
/// The ring's storage is allocated on the lwip compartment's heap; the
/// head/tail indices live host-side (they model registers/pcb fields).
#[derive(Debug)]
pub(crate) struct SockBuf {
    base: Addr,
    cap: u64,
    /// `cap - 1` when `cap` is a power of two (the default ring size is):
    /// lets the wrap computation be a mask instead of a `u64` division on
    /// every push/pop chunk.
    mask: Option<u64>,
    head: u64, // total bytes ever written
    tail: u64, // total bytes ever read
}

impl SockBuf {
    /// Allocates a ring of `cap` bytes on the current compartment's heap.
    ///
    /// # Errors
    ///
    /// Heap exhaustion.
    pub(crate) fn new(env: &Env, cap: u64) -> Result<Self, Fault> {
        let base = env.malloc(cap)?;
        Ok(SockBuf {
            base,
            cap,
            mask: cap.is_power_of_two().then(|| cap - 1),
            head: 0,
            tail: 0,
        })
    }

    #[inline]
    fn wrap(&self, pos: u64) -> u64 {
        match self.mask {
            Some(mask) => pos & mask,
            None => pos % self.cap,
        }
    }

    /// Bytes available to read.
    pub(crate) fn len(&self) -> u64 {
        self.head - self.tail
    }

    /// `true` when nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Free space.
    pub(crate) fn space(&self) -> u64 {
        self.cap - self.len()
    }

    /// Appends `data`, returning how many bytes fit.
    ///
    /// # Errors
    ///
    /// Protection faults if the current domain cannot write the ring.
    pub(crate) fn push(&mut self, env: &Env, data: &[u8]) -> Result<u64, Fault> {
        let take = (data.len() as u64).min(self.space());
        let mut written = 0u64;
        while written < take {
            let pos = self.wrap(self.head + written);
            let chunk = (self.cap - pos).min(take - written);
            env.mem_write(
                self.base + pos,
                &data[written as usize..(written + chunk) as usize],
            )?;
            written += chunk;
        }
        self.head += take;
        Ok(take)
    }

    /// Removes up to `maxlen` bytes, appending them to `out`: ring bytes
    /// land in the caller's buffer straight from simulated memory, with
    /// zero host allocations once `out`'s capacity has converged.
    /// Returns the number of bytes popped.
    ///
    /// # Errors
    ///
    /// Protection faults if the current domain cannot read the ring.
    pub(crate) fn pop_into(
        &mut self,
        env: &Env,
        maxlen: u64,
        out: &mut Vec<u8>,
    ) -> Result<u64, Fault> {
        let take = maxlen.min(self.len());
        let mut read = 0u64;
        while read < take {
            let pos = self.wrap(self.tail + read);
            let chunk = (self.cap - pos).min(take - read);
            env.mem_read_into(self.base + pos, chunk, out)?;
            read += chunk;
        }
        self.tail += take;
        Ok(take)
    }
}

/// One socket-table entry.
#[derive(Debug)]
pub(crate) struct Socket {
    /// What the socket is.
    pub kind: SocketKind,
    /// Bound local port (0 = unbound).
    pub port: u16,
    /// Receive ring (connections only).
    pub rx: Option<SockBuf>,
    /// Completed connections awaiting `accept` (listeners only).
    pub accept_queue: VecDeque<SocketHandle>,
    /// Peer port (connections only).
    pub peer_port: u16,
    /// `true` once the peer sent FIN and the ring drained.
    pub peer_closed: bool,
}

impl Socket {
    /// A fresh unbound listener-capable socket.
    pub(crate) fn new() -> Socket {
        Socket {
            kind: SocketKind::Listen,
            port: 0,
            rx: None,
            accept_queue: VecDeque::new(),
            peer_port: 0,
            peer_closed: false,
        }
    }

    /// A connection socket with an rx ring.
    pub(crate) fn connection(
        env: &Rc<Env>,
        port: u16,
        peer_port: u16,
        cap: u64,
    ) -> Result<Socket, Fault> {
        Ok(Socket {
            kind: SocketKind::Connection,
            port,
            rx: Some(SockBuf::new(env, cap)?),
            accept_queue: VecDeque::new(),
            peer_port,
            peer_closed: false,
        })
    }
}

impl Default for Socket {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_core::backend::NoneBackend;
    use flexos_core::config::SafetyConfig;
    use flexos_core::image::ImageBuilder;
    use flexos_core::prelude::{Component, ComponentKind};
    use flexos_machine::Machine;

    fn env() -> Rc<Env> {
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let mut b = ImageBuilder::new(machine, SafetyConfig::none());
        b.register(Component::new("lwip", ComponentKind::Kernel))
            .unwrap();
        b.build(&[&NoneBackend]).unwrap().env
    }

    #[test]
    fn ring_roundtrip_in_order() {
        let env = env();
        let lwip = env.component_id("lwip").unwrap();
        env.run_as(lwip, || {
            let mut buf = SockBuf::new(&env, 64).unwrap();
            assert_eq!(buf.push(&env, b"hello ").unwrap(), 6);
            assert_eq!(buf.push(&env, b"world").unwrap(), 5);
            let mut out = Vec::new();
            assert_eq!(buf.pop_into(&env, 8, &mut out).unwrap(), 8);
            assert_eq!(out, b"hello wo");
            // Pops append: the caller's buffer keeps what it held.
            assert_eq!(buf.pop_into(&env, 100, &mut out).unwrap(), 3);
            assert_eq!(out, b"hello world");
            assert!(buf.is_empty());
        });
    }

    #[test]
    fn ring_wraps_around() {
        let env = env();
        let lwip = env.component_id("lwip").unwrap();
        env.run_as(lwip, || {
            let mut buf = SockBuf::new(&env, 16).unwrap();
            let mut out = Vec::new();
            for round in 0..10 {
                let msg = format!("round-{round:02}");
                assert_eq!(buf.push(&env, msg.as_bytes()).unwrap(), 8);
                out.clear();
                assert_eq!(buf.pop_into(&env, 8, &mut out).unwrap(), 8);
                assert_eq!(out, msg.as_bytes());
            }
        });
    }

    #[test]
    fn ring_respects_capacity() {
        let env = env();
        let lwip = env.component_id("lwip").unwrap();
        env.run_as(lwip, || {
            let mut buf = SockBuf::new(&env, 8).unwrap();
            assert_eq!(buf.push(&env, b"0123456789").unwrap(), 8);
            assert_eq!(buf.space(), 0);
            let mut out = Vec::new();
            assert_eq!(buf.pop_into(&env, 4, &mut out).unwrap(), 4);
            assert_eq!(out, b"0123");
            assert_eq!(buf.push(&env, b"ab").unwrap(), 2);
            out.clear();
            assert_eq!(buf.pop_into(&env, 10, &mut out).unwrap(), 6);
            assert_eq!(out, b"4567ab");
        });
    }
}
