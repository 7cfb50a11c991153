//! The iPerf port: raw stream throughput (§6.3, Figure 9).
//!
//! The paper's scenario: the iPerf application code sits in one
//! compartment, the **rest of the system including the network stack** in
//! the other. The server's receive loop passes buffers of a configurable
//! size to `recv`, so the crossings-per-byte ratio — and therefore the
//! batching behaviour of Figure 9 — is set directly by the buffer size.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use flexos_core::component::ComponentId;
use flexos_core::env::{Env, Work};
use flexos_libc::Newlib;
use flexos_machine::fault::Fault;
use flexos_net::SocketHandle;

/// Default iperf port.
pub const IPERF_PORT: u16 = 5001;

/// The iPerf server application component.
pub struct IperfServer {
    env: Rc<Env>,
    id: ComponentId,
    libc: Rc<Newlib>,
    listener: Cell<Option<SocketHandle>>,
    /// Reusable receive buffer (the iperf client reuses one buffer too).
    rx_scratch: RefCell<Vec<u8>>,
}

impl std::fmt::Debug for IperfServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IperfServer").finish_non_exhaustive()
    }
}

impl IperfServer {
    /// Creates the server (`id` must be the iperf component's id).
    pub(crate) fn new(env: Rc<Env>, id: ComponentId, libc: Rc<Newlib>) -> Self {
        IperfServer {
            env,
            id,
            libc,
            listener: Cell::new(None),
            rx_scratch: RefCell::new(Vec::new()),
        }
    }

    /// Starts listening on [`IPERF_PORT`].
    ///
    /// # Errors
    ///
    /// Stack faults.
    pub(crate) fn start(&self) -> Result<(), Fault> {
        self.start_on(IPERF_PORT)
    }

    /// [`IperfServer::start`] on an explicit port (one listener shard
    /// per core in multi-core runs).
    ///
    /// # Errors
    ///
    /// Stack faults.
    pub(crate) fn start_on(&self, port: u16) -> Result<(), Fault> {
        self.env.run_as(self.id, || {
            let sock = self.libc.listen(port)?;
            self.listener.set(Some(sock));
            Ok(())
        })
    }

    /// Accepts one client.
    ///
    /// # Errors
    ///
    /// Stack faults; accept-before-start errors.
    pub fn accept(&self) -> Result<Option<SocketHandle>, Fault> {
        self.env.run_as(self.id, || {
            let listener = self.listener.get().ok_or_else(|| Fault::InvalidConfig {
                reason: "iperf: accept before start".to_string(),
            })?;
            self.libc.accept(listener)
        })
    }

    /// The receive loop: calls `recv` with `buf_size`-byte buffers until
    /// the stream goes quiet; returns bytes received this call.
    ///
    /// # Errors
    ///
    /// Stack faults.
    pub fn drain(&self, conn: SocketHandle, buf_size: u64) -> Result<u64, Fault> {
        self.env.run_as(self.id, || {
            let mut got = 0u64;
            let mut chunk = self.rx_scratch.borrow_mut();
            loop {
                let n = self.libc.recv_into(conn, buf_size, &mut chunk)?;
                if n == 0 {
                    break;
                }
                // Per-buffer accounting the real iperf does: byte counter
                // update + occasional interval bookkeeping.
                self.env.compute(Work {
                    cycles: 14,
                    alu_ops: 6,
                    frames: 1,
                    mem_accesses: 4,
                    ..Work::default()
                });
                got += n;
            }
            Ok(got)
        })
    }
}
