//! The simulated NIC: a loopback device between the OS and the
//! benchmark client.
//!
//! The paper's testbed dedicates separate host cores to the load
//! generators (redis-benchmark, wrk, the iPerf client); their cycles do
//! not count against the system under test. The simulation mirrors that:
//! the *client side* of the NIC (inject/collect) is free, while the
//! *stack side* (rx pop, tx push) charges DMA-ish per-byte costs to the
//! lwip component.

use std::collections::VecDeque;

/// Queue depth of each direction.
pub(crate) const QUEUE_DEPTH: usize = 1024;

/// Recycled frame buffers kept around (enough for every in-flight frame
/// of the workloads; beyond this, returned buffers are simply dropped).
const POOL_DEPTH: usize = 64;

/// The simulated loopback NIC.
///
/// Frame buffers are **pooled**: consumed frames return to a free list
/// via [`SimNic::recycle`] and both sides build new frames straight
/// into [`SimNic::take_buf`] buffers, so a steady-state request/reply
/// exchange moves frames with zero host allocations and no copies.
#[derive(Debug, Default)]
pub(crate) struct SimNic {
    rx: VecDeque<Vec<u8>>,
    tx: VecDeque<Vec<u8>>,
    pool: Vec<Vec<u8>>,
}

impl SimNic {
    /// Creates an idle NIC.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// An empty frame buffer from the pool (or a fresh one).
    pub(crate) fn take_buf(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a consumed frame's buffer to the pool.
    pub(crate) fn recycle(&mut self, mut frame: Vec<u8>) {
        if self.pool.len() < POOL_DEPTH {
            frame.clear();
            self.pool.push(frame);
        }
    }

    // --- client (host) side: free -------------------------------------

    /// Client side: places a frame built in a [`SimNic::take_buf`]
    /// buffer on the wire towards the OS. Returns `false` (recycling the
    /// frame) when the queue is full.
    pub(crate) fn inject(&mut self, frame: Vec<u8>) -> bool {
        if self.rx.len() >= QUEUE_DEPTH {
            self.recycle(frame);
            return false;
        }
        self.rx.push_back(frame);
        true
    }

    /// Client side: takes the next transmitted frame, if any. Return the
    /// buffer with [`SimNic::recycle`] once processed to keep the
    /// steady-state path allocation-free.
    pub(crate) fn tx_pop(&mut self) -> Option<Vec<u8>> {
        self.tx.pop_front()
    }

    // --- stack side -----------------------------------------------------

    /// Stack side: takes the next received frame, if any.
    pub(crate) fn rx_pop(&mut self) -> Option<Vec<u8>> {
        self.rx.pop_front()
    }

    /// Stack side: queues a frame for transmission.
    pub(crate) fn tx_push(&mut self, frame: Vec<u8>) {
        self.tx.push_back(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pooled frame holding `bytes`, the way the client builds one.
    fn frame(nic: &mut SimNic, bytes: &[u8]) -> Vec<u8> {
        let mut frame = nic.take_buf();
        frame.extend_from_slice(bytes);
        frame
    }

    #[test]
    fn frames_flow_both_ways() {
        let mut nic = SimNic::new();
        let f = frame(&mut nic, &[1, 2, 3]);
        assert!(nic.inject(f));
        assert_eq!(nic.rx_pop(), Some(vec![1, 2, 3]));
        assert_eq!(nic.rx_pop(), None);
        nic.tx_push(vec![4, 5]);
        assert_eq!(nic.tx_pop(), Some(vec![4, 5]));
        assert_eq!(nic.tx_pop(), None);
    }

    #[test]
    fn pooled_frames_recycle() {
        let mut nic = SimNic::new();
        let f = frame(&mut nic, b"abc");
        assert!(nic.inject(f));
        let f = nic.rx_pop().unwrap();
        assert_eq!(f, b"abc");
        let cap = f.capacity();
        let ptr = f.as_ptr();
        nic.recycle(f);
        // The next pooled frame (of no greater size) reuses the buffer.
        let f = frame(&mut nic, b"def");
        assert!(nic.inject(f));
        let f = nic.rx_pop().unwrap();
        assert_eq!(f, b"def");
        assert!(f.capacity() >= cap);
        assert_eq!(f.as_ptr(), ptr, "buffer was reused, not reallocated");
    }

    #[test]
    fn full_queue_drops() {
        let mut nic = SimNic::new();
        for i in 0..QUEUE_DEPTH {
            let f = frame(&mut nic, &[i as u8]);
            assert!(nic.inject(f));
        }
        let f = frame(&mut nic, &[0xFF]);
        let ptr = f.as_ptr();
        assert!(!nic.inject(f));
        let reused = nic.take_buf();
        assert_eq!(reused.as_ptr(), ptr, "dropped frame went to the pool");
    }
}
