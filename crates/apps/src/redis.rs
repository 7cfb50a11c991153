//! The Redis port: event loop, RESP commands, keyspace (§6.1).
//!
//! Mirrors the structure the paper's Figure 6 profile depends on:
//!
//! * a **blocking** event loop: every request blocks on `recv`, which
//!   consults and yields to the scheduler through the libc — the reason
//!   isolating uksched costs Redis ~43% while Nginx pays ~6%;
//! * heavy libc chatter: RESP parsing and reply building go through
//!   newlib string helpers (`memchr`, `atoi`, `itoa`, `memcpy`), making
//!   the redis↔newlib edge the hottest in the image — which is why the
//!   Figure 8 strategies keep redis+newlib co-located;
//! * the keyspace lives in a [`Dict`] on the Redis compartment's heap, in
//!   simulated, key-protected memory.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use flexos_core::component::ComponentId;
use flexos_core::entry::CallTarget;
use flexos_core::env::{Env, Work};
use flexos_libc::{Newlib, ITOA_BUF};
use flexos_machine::fault::Fault;
use flexos_net::SocketHandle;
use flexos_sched::Scheduler;

use crate::dict::Dict;
use crate::resp;

/// Counters for the harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedisStats {
    /// Commands processed.
    pub commands: u64,
    /// GET hits.
    pub hits: u64,
    /// GET misses.
    pub misses: u64,
}

/// The Redis server application component.
pub struct RedisServer {
    env: Rc<Env>,
    id: ComponentId,
    libc: Rc<Newlib>,
    sched: Rc<Scheduler>,
    /// `uksched_yield`, resolved once (the R↔S beforeSleep edge).
    sched_yield: CallTarget,
    /// `uksched_current`, resolved once.
    sched_current: CallTarget,
    dict: RefCell<Dict>,
    listener: Cell<Option<SocketHandle>>,
    pending: RefCell<Vec<u8>>,
    /// Reusable parse target — argument buffers retain their capacity
    /// across requests, so steady-state parsing allocates nothing.
    req_scratch: RefCell<resp::RespRequest>,
    /// Reusable reply build buffer.
    reply_scratch: RefCell<Vec<u8>>,
    /// Reusable value staging buffer (dict value → reply memcpy source).
    val_scratch: RefCell<Vec<u8>>,
    /// Reusable socket receive buffer.
    rx_scratch: RefCell<Vec<u8>>,
    stats: Cell<RedisStats>,
}

/// Default redis port.
pub const REDIS_PORT: u16 = 6379;

/// Buckets in the server's dict: the most keys it can hold.
pub(crate) const DICT_BUCKETS: u64 = 16384;

impl RedisServer {
    /// Creates the server (`id` must be the redis component's id).
    ///
    /// # Errors
    ///
    /// Heap exhaustion allocating the keyspace.
    pub(crate) fn new(
        env: Rc<Env>,
        id: ComponentId,
        libc: Rc<Newlib>,
        sched: Rc<Scheduler>,
    ) -> Result<Self, Fault> {
        let dict = env.run_as(id, || Dict::with_capacity(Rc::clone(&env), DICT_BUCKETS))?;
        let sched_yield = sched.entries().yield_now;
        let sched_current = sched.entries().current;
        Ok(RedisServer {
            env,
            id,
            libc,
            sched,
            sched_yield,
            sched_current,
            dict: RefCell::new(dict),
            listener: Cell::new(None),
            pending: RefCell::new(Vec::new()),
            req_scratch: RefCell::new(resp::RespRequest::new()),
            reply_scratch: RefCell::new(Vec::new()),
            val_scratch: RefCell::new(Vec::new()),
            rx_scratch: RefCell::new(Vec::new()),
            stats: Cell::new(RedisStats::default()),
        })
    }

    /// This component's id.
    pub fn component_id(&self) -> ComponentId {
        self.id
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RedisStats {
        self.stats.get()
    }

    /// Binds and listens on `port`, running as the redis component —
    /// one listener shard per core, and multi-tenant images run several
    /// Redis instances side by side, one port per tenant.
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

    /// Accepts one pending connection (runs as the redis component).
    ///
    /// # Errors
    ///
    /// Stack faults; no-listener configuration errors.
    pub fn accept(&self) -> Result<Option<SocketHandle>, Fault> {
        self.env.run_as(self.id, || {
            let listener = self.listener.get().ok_or_else(|| Fault::InvalidConfig {
                reason: "redis: accept before start".to_string(),
            })?;
            self.libc.accept(listener)
        })
    }

    /// One event-loop iteration on a connection: blocking-recv until at
    /// least one full request is buffered, then **drain every buffered
    /// request** — parse, execute, reply — before returning (real Redis
    /// processes a client's whole input buffer per `aeMain` tick, which
    /// is what makes `redis-benchmark -P` pipelining pay: one
    /// yield/cron round and one recv chain serve `P` commands). Returns
    /// `false` at EOF.
    ///
    /// Unpipelined clients buffer at most one request, so for them a
    /// tick is exactly one request — the pre-pipelining behaviour,
    /// cycle for cycle.
    ///
    /// # Errors
    ///
    /// Protocol violations and substrate faults.
    pub fn serve_one(&self, conn: SocketHandle) -> Result<bool, Fault> {
        self.env.run_as(self.id, || self.serve_one_inner(conn))
    }

    fn serve_one_inner(&self, conn: SocketHandle) -> Result<bool, Fault> {
        // Event-loop bookkeeping: the beforeSleep()/serverCron() pattern —
        // Redis touches the scheduler every iteration (R↔S edge).
        self.env.call_resolved(self.sched_yield, || {
            self.sched.yield_now();
            Ok(())
        })?;
        self.env.call_resolved(self.sched_current, || {
            self.sched.current();
            Ok(())
        })?;
        self.env.compute(Work {
            cycles: 170,
            alu_ops: 55,
            frames: 9,
            indirect_calls: 3,
            mem_accesses: 40,
        });

        // Blocking read until one full RESP request is buffered, then
        // drain the buffer: `decode_request_into` parses one request at
        // a time out of a multi-request buffer, so the drain loop keeps
        // consuming until the buffer is empty or a request is
        // incomplete. Every buffer on this loop — pending bytes, the
        // parsed request, the staged value, the reply — is reused across
        // requests, so a steady-state GET performs zero host allocations
        // end to end (asserted by `tests/hotpath_alloc.rs`).
        let mut served_any = false;
        loop {
            let used = {
                let pending = self.pending.borrow();
                if pending.is_empty() {
                    None
                } else {
                    self.parse_with_libc(&pending, &mut self.req_scratch.borrow_mut())?
                }
            };
            if let Some(used) = used {
                let mut pending = self.pending.borrow_mut();
                if used == pending.len() {
                    pending.clear(); // common case: whole buffer consumed
                } else {
                    pending.drain(..used);
                }
                drop(pending);
                let req = self.req_scratch.borrow();
                let mut reply = self.reply_scratch.borrow_mut();
                self.execute(&req, &mut reply)?;
                self.libc.send(conn, &reply)?;
                let mut s = self.stats.get();
                s.commands += 1;
                self.stats.set(s);
                served_any = true;
                continue; // drain any further buffered requests
            }
            if served_any {
                // Buffer exhausted (or holds a partial request the next
                // tick will finish): the tick is over.
                return Ok(true);
            }
            let mut chunk = self.rx_scratch.borrow_mut();
            if self.libc.recv_into(conn, 4096, &mut chunk)? == 0 {
                return Ok(false); // EOF or starved
            }
            let mut pending = self.pending.borrow_mut();
            self.libc.memcpy(&mut pending, &chunk)?;
        }
    }

    /// RESP parse, issuing the libc string calls real Redis makes
    /// (sdssplitlen/memchr/atoi chatter — the R↔N hot edge). Fills `req`
    /// in place and returns the bytes consumed.
    fn parse_with_libc(
        &self,
        buf: &[u8],
        req: &mut resp::RespRequest,
    ) -> Result<Option<usize>, Fault> {
        // Header line scan.
        self.libc.memchr(buf, b'\n')?;
        // Argument-count and first-bulk-length parses.
        if buf.len() > 1 {
            let digits_end = buf[1..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .unwrap_or(0);
            if digits_end > 0 {
                self.libc.atoi(&buf[1..1 + digits_end])?;
            }
        }
        self.libc.memchr(&buf[buf.len().min(4)..], b'$')?;
        self.env.compute(Work {
            cycles: 230,
            alu_ops: 95,
            frames: 12,
            mem_accesses: 30 + buf.len().min(128) as u64 / 2,
            indirect_calls: 4,
        });
        resp::decode_request_into(buf, req)
    }

    /// Executes one command, building the reply into the reusable
    /// `reply` buffer (cleared first).
    fn execute(&self, req: &resp::RespRequest, reply: &mut Vec<u8>) -> Result<(), Fault> {
        reply.clear();
        let argv = &req.argv;
        if argv.is_empty() {
            reply.extend_from_slice(&resp::error_reply("empty command"));
            return Ok(());
        }
        // Command dispatch (table lookup + indirect call in real Redis).
        self.env.compute(Work {
            cycles: 210,
            alu_ops: 80,
            frames: 11,
            indirect_calls: 4,
            mem_accesses: 48,
        });
        let cmd = &argv[0];
        let mut s = self.stats.get();
        if cmd.eq_ignore_ascii_case(b"GET") && argv.len() == 2 {
            let mut value = self.val_scratch.borrow_mut();
            value.clear();
            match self.dict.borrow().get_into(&argv[1], &mut value)? {
                Some(_) => {
                    s.hits += 1;
                    // Reply building through libc: itoa for the length
                    // header + memcpy of the payload — all into reused
                    // buffers.
                    let mut digits = [0u8; ITOA_BUF];
                    let n = self.libc.itoa_digits(value.len() as i64, &mut digits)?;
                    reply.push(b'$');
                    self.libc.memcpy(reply, &digits[..n])?;
                    reply.extend_from_slice(b"\r\n");
                    self.libc.memcpy(reply, &value)?;
                    reply.extend_from_slice(b"\r\n");
                }
                None => {
                    s.misses += 1;
                    reply.extend_from_slice(b"$-1\r\n");
                }
            }
        } else if cmd.eq_ignore_ascii_case(b"SET") && argv.len() == 3 {
            self.dict.borrow_mut().set(&argv[1], &argv[2])?;
            reply.extend_from_slice(b"+OK\r\n");
        } else if cmd.eq_ignore_ascii_case(b"PING") {
            reply.extend_from_slice(b"+PONG\r\n");
        } else if cmd.eq_ignore_ascii_case(b"DEL") && argv.len() == 2 {
            let existed = self.dict.borrow_mut().del(&argv[1])?;
            reply.extend_from_slice(&resp::int_reply(existed as i64));
        } else {
            reply.extend_from_slice(&resp::error_reply("unknown command"));
        }
        self.stats.set(s);
        Ok(())
    }

    /// Direct keyspace access for test setup (bypasses the protocol, still
    /// runs as the redis component so memory protection applies).
    ///
    /// # Errors
    ///
    /// Dict/heap faults.
    pub fn preload(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), Fault> {
        self.env.run_as(self.id, || {
            let mut dict = self.dict.borrow_mut();
            for (k, v) in pairs {
                dict.set(k, v)?;
            }
            Ok(())
        })
    }

    /// Runs `f` over the server's dictionary as the server component —
    /// the corruption-test hook: the adversarial suite locates a bucket
    /// ([`Dict::bucket_of`]) and forges its metadata in simulated
    /// memory, then asserts the read path's length cap catches it.
    pub fn with_dict<R>(&self, f: impl FnOnce(&Dict) -> R) -> R {
        self.env.run_as(self.id, || f(&self.dict.borrow()))
    }
}
