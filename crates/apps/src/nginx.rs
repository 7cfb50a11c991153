//! The Nginx port: event-driven static file serving (§6.1).
//!
//! Structurally different from Redis in exactly the ways Figure 6/7 show:
//!
//! * **event-driven, not blocking**: nginx uses edge-triggered readiness
//!   (`recv_nowait`-style), touching the scheduler only once per loop —
//!   isolating uksched costs ~6% here vs Redis' 43%;
//! * **bigger per-request payload**: it serves the 612-byte welcome page,
//!   so per-byte work dominates and gate costs amortize differently (the
//!   reason its Figure 6 overhead distribution is flatter);
//! * the served file is read through the VFS once at startup and cached
//!   (nginx's open-file cache), keeping the filesystem off the hot path.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use flexos_core::component::ComponentId;
use flexos_core::entry::CallTarget;
use flexos_core::env::{Env, Work};
use flexos_fs::OpenFlags;
use flexos_libc::Newlib;
use flexos_machine::fault::Fault;
use flexos_net::SocketHandle;
use flexos_sched::Scheduler;

use crate::http;

/// Default HTTP port.
pub const NGINX_PORT: u16 = 80;

/// The Nginx server application component.
pub struct NginxServer {
    env: Rc<Env>,
    id: ComponentId,
    libc: Rc<Newlib>,
    sched: Rc<Scheduler>,
    /// `uksched_yield`, resolved once (one full yield every few ticks).
    sched_yield: CallTarget,
    /// `uksched_current`, resolved once (the cheap per-tick touch).
    sched_current: CallTarget,
    listener: Cell<Option<SocketHandle>>,
    /// Open-file cache: the welcome page, loaded via the VFS at startup.
    cached_page: RefCell<Vec<u8>>,
    pending: RefCell<Vec<u8>>,
    /// The rendered `200 OK` response head, and the `(content length,
    /// keep-alive)` it was rendered for: re-rendered only when they change.
    head: RefCell<Vec<u8>>,
    head_for: Cell<Option<(usize, bool)>>,
    /// Reusable response assembly buffer (ngx_output_chain staging).
    response_scratch: RefCell<Vec<u8>>,
    /// Reusable socket receive buffer.
    rx_scratch: RefCell<Vec<u8>>,
    loop_ticks: Cell<u64>,
}

impl NginxServer {
    /// Creates the server (`id` must be the nginx component's id).
    pub(crate) fn new(
        env: Rc<Env>,
        id: ComponentId,
        libc: Rc<Newlib>,
        sched: Rc<Scheduler>,
    ) -> Self {
        let sched_yield = sched.entries().yield_now;
        let sched_current = sched.entries().current;
        NginxServer {
            env,
            id,
            libc,
            sched,
            sched_yield,
            sched_current,
            listener: Cell::new(None),
            cached_page: RefCell::new(Vec::new()),
            pending: RefCell::new(Vec::new()),
            head: RefCell::new(Vec::new()),
            head_for: Cell::new(None),
            response_scratch: RefCell::new(Vec::new()),
            rx_scratch: RefCell::new(Vec::new()),
            loop_ticks: Cell::new(0),
        }
    }

    /// Writes the welcome page into the VFS, opens + reads it back into
    /// the open-file cache, and starts listening on `port` — nginx's
    /// startup path (the sharded driver runs one listener per core).
    ///
    /// # Errors
    ///
    /// VFS or stack faults.
    pub(crate) fn start_on(&self, port: u16) -> Result<(), Fault> {
        self.env.run_as(self.id, || {
            let page = http::welcome_page();
            let fd = self
                .libc
                .open("/usr/share/nginx/index.html", OpenFlags::CREATE)?;
            self.libc.write(fd, &page)?;
            self.libc.lseek(fd, 0)?;
            let cached = self.libc.read(fd, page.len() as u64)?;
            self.libc.close(fd)?;
            *self.cached_page.borrow_mut() = cached;
            let sock = self.libc.listen(port)?;
            self.listener.set(Some(sock));
            Ok(())
        })
    }

    /// Accepts one pending connection.
    ///
    /// # Errors
    ///
    /// Stack faults; start-before-accept configuration errors.
    pub fn accept(&self) -> Result<Option<SocketHandle>, Fault> {
        self.env.run_as(self.id, || {
            let listener = self.listener.get().ok_or_else(|| Fault::InvalidConfig {
                reason: "nginx: accept before start".to_string(),
            })?;
            self.libc.accept(listener)
        })
    }

    /// One event-loop iteration: edge-triggered read, parse, respond.
    /// Returns `false` when the connection is quiescent/closed.
    ///
    /// # Errors
    ///
    /// Protocol violations and substrate faults.
    pub fn serve_one(&self, conn: SocketHandle) -> Result<bool, Fault> {
        self.env.run_as(self.id, || self.serve_one_inner(conn))
    }

    fn serve_one_inner(&self, conn: SocketHandle) -> Result<bool, Fault> {
        // Event-loop bookkeeping: one scheduler touch per iteration; a
        // full yield only every few ticks (epoll-style batching) — the
        // reason Figure 6's scheduler effects are mild for Nginx.
        let ticks = self.loop_ticks.get() + 1;
        self.loop_ticks.set(ticks);
        if ticks.is_multiple_of(4) {
            self.env.call_resolved(self.sched_yield, || {
                self.sched.yield_now();
                Ok(())
            })?;
        } else {
            self.env.call_resolved(self.sched_current, || {
                self.sched.current();
                Ok(())
            })?;
        }
        self.env.compute(Work {
            cycles: 80,
            alu_ops: 30,
            frames: 5,
            indirect_calls: 2,
            mem_accesses: 20,
        });

        // Edge-triggered read: no scheduler blocking on the hot path.
        {
            let mut chunk = self.rx_scratch.borrow_mut();
            let got = self.libc.recv_nowait_into(conn, 8192, &mut chunk)?;
            if got == 0 && self.pending.borrow().is_empty() {
                return Ok(false);
            }
            let mut pending = self.pending.borrow_mut();
            self.libc.memcpy(&mut pending, &chunk)?;
        }
        // Parse straight out of the pending buffer — no per-iteration
        // clone of the buffered bytes, and the request borrows from it,
        // so what the response depends on is decided before the drain.
        let (serves_page, keep_alive, header_count, used) = {
            let buffered = self.pending.borrow();

            // Header scanning through libc (ngx_http_parse_request_line +
            // header loop — one memchr per header line).
            let mut scan_from = 0usize;
            for _ in 0..4 {
                match self
                    .libc
                    .memchr(&buffered[scan_from.min(buffered.len())..], b'\n')?
                {
                    Some(rel) => scan_from += rel + 1,
                    None => break,
                }
            }
            match http::parse_request(&buffered)? {
                Some((request, used)) => (
                    request.method == "GET" && matches!(request.path, "/" | "/index.html"),
                    request.keep_alive,
                    request.header_count,
                    used,
                ),
                None => return Ok(true), // incomplete head: stay registered
            }
        };
        self.pending.borrow_mut().drain(..used);
        self.env.compute(Work {
            cycles: 160 + 6 * header_count as u64,
            alu_ops: 70,
            frames: 8,
            indirect_calls: 3,
            mem_accesses: 40,
        });

        if serves_page {
            // Response assembly: itoa for Content-Length, memcpy of head
            // and body into the (reused) output chain buffer — the body
            // comes straight from the open-file cache, no clone.
            let body = self.cached_page.borrow();
            let mut digits = [0u8; flexos_libc::ITOA_BUF];
            self.libc.itoa_digits(body.len() as i64, &mut digits)?;
            let mut head = self.head.borrow_mut();
            if self.head_for.get() != Some((body.len(), keep_alive)) {
                head.clear();
                http::write_response_head(&mut head, body.len(), keep_alive);
                self.head_for.set(Some((body.len(), keep_alive)));
            }
            let mut response = self.response_scratch.borrow_mut();
            response.clear();
            self.libc.memcpy(&mut response, &head)?;
            self.libc.memcpy(&mut response, &body)?;
            self.libc.send_nowait(conn, &response)?;
        } else {
            let mut response = self.response_scratch.borrow_mut();
            response.clear();
            http::write_response_404(&mut response);
            self.libc.send_nowait(conn, &response)?;
        }
        Ok(true)
    }
}
