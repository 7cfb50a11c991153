//! # flexos-libc — the newlib shim component
//!
//! Applications on Unikraft link against newlib; in FlexOS the libc is a
//! component like any other (the "newlib" row of Figure 6) and sits on
//! the hottest boundary of the whole system: applications call string,
//! memory, and I/O helpers constantly, and the libc in turn drives the
//! network stack, the VFS, and the scheduler. That call pattern is what
//! makes the Figure 6 placements interesting:
//!
//! * isolating `redis+newlib` together from the kernel is much cheaper
//!   than splitting `redis | newlib`, because the app↔libc edge carries
//!   ~an order of magnitude more calls than libc↔kernel edges;
//! * the *blocking* socket semantics live here, not in lwip: an empty
//!   receive buffer makes the libc consult and yield to the scheduler.
//!   That is why isolating the scheduler costs Redis 43% (its event loop
//!   blocks constantly) but Nginx only 6% (§6.1) — and why isolating
//!   lwip|uksched apart is nearly free ("isolation for free"): lwip never
//!   calls the scheduler on the hot path.
//!
//! Every public method performs the abstract-gate dance: the *caller's*
//! component is current when [`flexos_core::env::Env::call_resolved`]
//! fires, so crossings are attributed to the right boundary
//! automatically. All targets — the libc's own `nl_*` entries and the
//! lwip/vfs/uksched/uktime entries it fronts — are resolved once when
//! the libc is wired up ([`flexos_core::entry::CallTarget`] handles);
//! the per-call path performs no string hashing and no allocation.

use std::rc::Rc;

use flexos_core::component::ComponentId;
use flexos_core::env::{Env, Work};
use flexos_core::prelude::{Component, ComponentKind, SharedVar};
use flexos_fs::{Fd, OpenFlags, Vfs, VfsEntries};
use flexos_machine::fault::Fault;
use flexos_net::{NetEntries, NetStack, SocketHandle};
use flexos_sched::{SchedEntries, Scheduler};

flexos_core::entry_points! {
    /// newlib's own gate entry points, resolved once at construction —
    /// the app↔libc boundary is the hottest edge in every Figure 6
    /// profile, so nothing string-shaped may survive onto it.
    struct NewlibEntries {
        strlen: "nl_strlen",
        memchr: "nl_memchr",
        atoi: "nl_atoi",
        itoa: "nl_itoa",
        memcpy: "nl_memcpy",
        listen: "nl_listen",
        accept: "nl_accept",
        recv: "nl_recv",
        send: "nl_send",
        open: "nl_open",
        close: "nl_close",
        read: "nl_read",
        write: "nl_write",
        lseek: "nl_lseek",
        fsync: "nl_fsync",
        unlink: "nl_unlink",
        stat: "nl_stat",
        time: "nl_time",
    }
}

/// The newlib component.
pub struct Newlib {
    env: Rc<Env>,
    net: Rc<NetStack>,
    vfs: Rc<Vfs>,
    sched: Rc<Scheduler>,
    entries: NewlibEntries,
    net_gates: NetEntries,
    vfs_gates: VfsEntries,
    sched_gates: SchedEntries,
}

impl std::fmt::Debug for Newlib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Newlib").finish_non_exhaustive()
    }
}

/// Attempts a blocking recv makes before giving up (each failed attempt
/// yields to the scheduler — the N↔S hot edge).
const RECV_RETRIES: u32 = 3;

/// Digits buffer size for [`Newlib::itoa_digits`] (`i64::MIN` plus sign).
pub const ITOA_BUF: usize = 20;

impl Newlib {
    /// Creates the libc bound to the kernel components it fronts.
    pub fn new(
        env: Rc<Env>,
        id: ComponentId,
        net: Rc<NetStack>,
        vfs: Rc<Vfs>,
        sched: Rc<Scheduler>,
    ) -> Self {
        Newlib {
            entries: NewlibEntries::resolve(&env, id),
            net_gates: *net.entries(),
            vfs_gates: *vfs.entries(),
            sched_gates: *sched.entries(),
            env,
            net,
            vfs,
            sched,
        }
    }

    // --- string/memory helpers (the app↔libc hot chatter) ---------------

    /// `memchr`: finds `needle`, charged per byte scanned.
    ///
    /// # Errors
    ///
    /// Gate faults.
    pub fn memchr(&self, hay: &[u8], needle: u8) -> Result<Option<usize>, Fault> {
        self.env.call_resolved(self.entries.memchr, || {
            let pos = hay.iter().position(|&b| b == needle);
            let scanned = pos.map(|p| p + 1).unwrap_or(hay.len());
            self.env.compute(Work {
                cycles: 6 + scanned as u64 / 8,
                alu_ops: scanned as u64 / 8 + 1,
                frames: 1,
                mem_accesses: scanned as u64 / 8 + 1,
                ..Work::default()
            });
            Ok(pos)
        })
    }

    /// `atoi` for ASCII decimal integers.
    ///
    /// # Errors
    ///
    /// Gate faults; [`Fault::InvalidConfig`] on non-numeric input.
    pub fn atoi(&self, s: &[u8]) -> Result<i64, Fault> {
        self.env.call_resolved(self.entries.atoi, || {
            self.env.compute(Work {
                cycles: 8 + s.len() as u64,
                alu_ops: 2 * s.len() as u64 + 2,
                frames: 1,
                mem_accesses: s.len() as u64,
                ..Work::default()
            });
            // Manual digit fold on the fast path (str::parse's UTF-8 and
            // trim machinery measurably outweighs the whole parse for
            // the 1-3 digit fields RESP carries).
            let trimmed = {
                let mut t = s;
                while let [b, rest @ ..] = t {
                    if b.is_ascii_whitespace() {
                        t = rest;
                    } else {
                        break;
                    }
                }
                while let [rest @ .., b] = t {
                    if b.is_ascii_whitespace() {
                        t = rest;
                    } else {
                        break;
                    }
                }
                t
            };
            let bad = || {
                let txt = String::from_utf8_lossy(s);
                Fault::InvalidConfig {
                    reason: format!("atoi: `{txt}` is not a number"),
                }
            };
            let (negative, digits) = match trimmed {
                [b'-', rest @ ..] => (true, rest),
                [b'+', rest @ ..] => (false, rest),
                other => (false, other),
            };
            if digits.is_empty() {
                return Err(bad());
            }
            let mut value = 0i64;
            for &b in digits {
                if !b.is_ascii_digit() {
                    return Err(bad());
                }
                value = value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(i64::from(b - b'0')))
                    .ok_or_else(bad)?;
            }
            Ok(if negative { -value } else { value })
        })
    }

    /// `itoa` into a caller-provided stack buffer: formats `value` into
    /// `buf` and returns the digit count, charged per digit, with zero
    /// host allocations.
    ///
    /// # Errors
    ///
    /// Gate faults.
    pub fn itoa_digits(&self, value: i64, buf: &mut [u8; ITOA_BUF]) -> Result<usize, Fault> {
        self.env.call_resolved(self.entries.itoa, || {
            let mut cursor = ITOA_BUF;
            let negative = value < 0;
            let mut rest = value.unsigned_abs();
            loop {
                cursor -= 1;
                buf[cursor] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            if negative {
                cursor -= 1;
                buf[cursor] = b'-';
            }
            let len = ITOA_BUF - cursor;
            buf.copy_within(cursor.., 0);
            self.env.compute(Work {
                cycles: 10 + 3 * len as u64,
                alu_ops: 4 * len as u64,
                frames: 1,
                mem_accesses: len as u64,
                ..Work::default()
            });
            Ok(len)
        })
    }

    /// `memcpy` between host buffers, charged per byte (the libc-side
    /// staging copy of an I/O path).
    ///
    /// # Errors
    ///
    /// Gate faults.
    pub fn memcpy(&self, dst: &mut Vec<u8>, src: &[u8]) -> Result<(), Fault> {
        self.env.call_resolved(self.entries.memcpy, || {
            self.env.compute(Work {
                cycles: 8 + (src.len() as f64 * 0.35) as u64,
                alu_ops: src.len() as u64 / 16 + 1,
                frames: 1,
                mem_accesses: src.len() as u64 / 8 + 1,
                ..Work::default()
            });
            dst.extend_from_slice(src);
            Ok(())
        })
    }

    // --- sockets ---------------------------------------------------------

    /// Creates a listening socket bound to `port`.
    ///
    /// # Errors
    ///
    /// Gate faults; port-in-use faults from the stack.
    pub fn listen(&self, port: u16) -> Result<SocketHandle, Fault> {
        self.env.call_resolved(self.entries.listen, || {
            let net = Rc::clone(&self.net);
            let sock = self
                .env
                .call_resolved(self.net_gates.socket, || Ok(net.socket()))?;
            self.env
                .call_resolved(self.net_gates.bind, || net.bind(sock, port))?;
            self.env
                .call_resolved(self.net_gates.listen, || net.listen(sock))?;
            Ok(sock)
        })
    }

    /// Accepts a pending connection, servicing the NIC first.
    ///
    /// # Errors
    ///
    /// Gate faults.
    pub fn accept(&self, listener: SocketHandle) -> Result<Option<SocketHandle>, Fault> {
        self.env.call_resolved(self.entries.accept, || {
            let net = Rc::clone(&self.net);
            self.env
                .call_resolved(self.net_gates.poll, || net.poll().map(|_| ()))?;
            self.env
                .call_resolved(self.net_gates.accept, || Ok(net.accept(listener)))
        })
    }

    /// POSIX-flavoured **blocking** `recv` (Redis/iPerf flavour): probes
    /// scheduler state, polls the stack only when the shared
    /// `mbox_poll_flag` says the ring is empty, and inserts the
    /// cooperative yield point Unikraft's blocking sockets require — the
    /// call pattern behind Redis' 43% scheduler-isolation cost (§6.1).
    ///
    /// `out` is cleared and receives up to `maxlen` bytes; returns how
    /// many arrived (0 at EOF or after the retry budget). Zero host
    /// allocations once `out`'s capacity has converged.
    ///
    /// # Errors
    ///
    /// Gate faults.
    pub fn recv_into(
        &self,
        sock: SocketHandle,
        maxlen: u64,
        out: &mut Vec<u8>,
    ) -> Result<u64, Fault> {
        out.clear();
        self.env.call_resolved(self.entries.recv, || {
            // fd-table lookup, sockaddr staging, iovec setup.
            self.env.compute(Work {
                cycles: 95,
                alu_ops: 30,
                frames: 6,
                indirect_calls: 2,
                mem_accesses: 22,
            });
            let net = &self.net;
            let sched = &self.sched;
            // Blocking-path prologue: current-thread check.
            self.env.call_resolved(self.sched_gates.current, || {
                sched.current();
                Ok(())
            })?;
            for _ in 0..RECV_RETRIES {
                // The `mbox_poll_flag` shared annotation lets the libc see
                // ring occupancy without a gate; poll only when empty.
                if net.rx_available(sock) == 0 {
                    self.env
                        .call_resolved(self.net_gates.poll, || net.poll().map(|_| ()))?;
                }
                let got = self
                    .env
                    .call_resolved(self.net_gates.recv, || net.recv_into(sock, maxlen, out))?;
                if got > 0 {
                    // Copy into the caller's buffer (recv(2) semantics).
                    self.env.compute(Work {
                        cycles: 20 + (got as f64 * 0.7) as u64,
                        alu_ops: got / 16 + 4,
                        frames: 2,
                        mem_accesses: got / 8 + 4,
                        ..Work::default()
                    });
                    // Cooperative yield point after blocking I/O completes.
                    self.env.call_resolved(self.sched_gates.yield_now, || {
                        sched.yield_now();
                        Ok(())
                    })?;
                    return Ok(got);
                }
                if net.at_eof(sock) {
                    return Ok(0);
                }
                // Empty buffer: cooperative blocking through the scheduler.
                self.env.call_resolved(self.sched_gates.yield_now, || {
                    sched.yield_now();
                    Ok(())
                })?;
            }
            Ok(0)
        })
    }

    /// **Event-driven** `recv` (Nginx flavour): edge-triggered readiness,
    /// no scheduler interaction on the hot path — the reason Nginx pays
    /// only ~6% for an isolated scheduler (§6.1).
    ///
    /// `out` is cleared first; returns how many bytes arrived. Zero host
    /// allocations once `out`'s capacity has converged.
    ///
    /// # Errors
    ///
    /// Gate faults.
    pub fn recv_nowait_into(
        &self,
        sock: SocketHandle,
        maxlen: u64,
        out: &mut Vec<u8>,
    ) -> Result<u64, Fault> {
        out.clear();
        self.env.call_resolved(self.entries.recv, || {
            let net = &self.net;
            if net.rx_available(sock) == 0 {
                self.env
                    .call_resolved(self.net_gates.poll, || net.poll().map(|_| ()))?;
            }
            let got = self
                .env
                .call_resolved(self.net_gates.recv, || net.recv_into(sock, maxlen, out))?;
            // Copy into the caller's buffer (recv(2) semantics).
            self.env.compute(Work {
                cycles: 20 + (got as f64 * 0.7) as u64,
                alu_ops: got / 16 + 4,
                frames: 2,
                mem_accesses: got / 8 + 4,
                ..Work::default()
            });
            Ok(got)
        })
    }

    /// **Blocking-flavour** `send`: transmits, then passes through the
    /// scheduler's current-check and cooperative yield point (Unikraft's
    /// blocking-socket epilogue).
    ///
    /// # Errors
    ///
    /// Gate faults.
    pub fn send(&self, sock: SocketHandle, data: &[u8]) -> Result<u64, Fault> {
        self.env.call_resolved(self.entries.send, || {
            // fd-table lookup, iovec setup, copy-out staging.
            self.env.compute(Work {
                cycles: 80 + (data.len() as f64 * 0.25) as u64,
                alu_ops: 25 + data.len() as u64 / 16,
                frames: 5,
                indirect_calls: 2,
                mem_accesses: 18 + data.len() as u64 / 8,
            });
            let net = &self.net;
            let sched = &self.sched;
            let n = self
                .env
                .call_resolved(self.net_gates.send, || net.send(sock, data))?;
            self.env.call_resolved(self.sched_gates.current, || {
                sched.current();
                Ok(())
            })?;
            self.env.call_resolved(self.sched_gates.yield_now, || {
                sched.yield_now();
                Ok(())
            })?;
            Ok(n)
        })
    }

    /// **Event-driven** `send` (Nginx flavour): no scheduler interaction.
    ///
    /// # Errors
    ///
    /// Gate faults.
    pub fn send_nowait(&self, sock: SocketHandle, data: &[u8]) -> Result<u64, Fault> {
        self.env.call_resolved(self.entries.send, || {
            let net = Rc::clone(&self.net);
            self.env
                .call_resolved(self.net_gates.send, || net.send(sock, data))
        })
    }

    // --- files ------------------------------------------------------------

    /// `open(2)`.
    ///
    /// # Errors
    ///
    /// Gate faults; vfs faults.
    pub fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd, Fault> {
        self.env.call_resolved(self.entries.open, || {
            let vfs = Rc::clone(&self.vfs);
            self.env
                .call_resolved(self.vfs_gates.open, || vfs.open(path, flags))
        })
    }

    /// `close(2)`.
    ///
    /// # Errors
    ///
    /// Gate faults; vfs faults.
    pub fn close(&self, fd: Fd) -> Result<(), Fault> {
        self.env.call_resolved(self.entries.close, || {
            let vfs = Rc::clone(&self.vfs);
            self.env
                .call_resolved(self.vfs_gates.close, || vfs.close(fd))
        })
    }

    /// `read(2)`.
    ///
    /// # Errors
    ///
    /// Gate faults; vfs faults.
    pub fn read(&self, fd: Fd, len: u64) -> Result<Vec<u8>, Fault> {
        self.env.call_resolved(self.entries.read, || {
            let vfs = Rc::clone(&self.vfs);
            self.env
                .call_resolved(self.vfs_gates.read, || vfs.read(fd, len))
        })
    }

    /// `write(2)`.
    ///
    /// # Errors
    ///
    /// Gate faults; vfs faults.
    pub fn write(&self, fd: Fd, data: &[u8]) -> Result<u64, Fault> {
        self.env.call_resolved(self.entries.write, || {
            let vfs = Rc::clone(&self.vfs);
            self.env
                .call_resolved(self.vfs_gates.write, || vfs.write(fd, data))
        })
    }

    /// `lseek(2)`.
    ///
    /// # Errors
    ///
    /// Gate faults; vfs faults.
    pub fn lseek(&self, fd: Fd, offset: u64) -> Result<(), Fault> {
        self.env.call_resolved(self.entries.lseek, || {
            let vfs = Rc::clone(&self.vfs);
            self.env
                .call_resolved(self.vfs_gates.lseek, || vfs.lseek(fd, offset))
        })
    }

    /// `fsync(2)`.
    ///
    /// # Errors
    ///
    /// Gate faults; vfs faults.
    pub fn fsync(&self, fd: Fd) -> Result<(), Fault> {
        self.env.call_resolved(self.entries.fsync, || {
            let vfs = Rc::clone(&self.vfs);
            self.env
                .call_resolved(self.vfs_gates.fsync, || vfs.fsync(fd))
        })
    }

    /// `unlink(2)`.
    ///
    /// # Errors
    ///
    /// Gate faults; vfs faults.
    pub fn unlink(&self, path: &str) -> Result<(), Fault> {
        self.env.call_resolved(self.entries.unlink, || {
            let vfs = Rc::clone(&self.vfs);
            self.env
                .call_resolved(self.vfs_gates.unlink, || vfs.unlink(path))
        })
    }

    /// `stat(2)` size probe.
    ///
    /// # Errors
    ///
    /// Gate faults; vfs faults.
    pub fn file_size(&self, path: &str) -> Result<u64, Fault> {
        self.env.call_resolved(self.entries.stat, || {
            let vfs = Rc::clone(&self.vfs);
            self.env
                .call_resolved(self.vfs_gates.stat, || vfs.stat(path).map(|s| s.size))
        })
    }
}

/// The component descriptor for newlib. Not a Table 1 row (the paper
/// folds libc changes into the application ports); shared-variable set
/// and patch size reflect the Figure 6 "newlib" component.
pub fn component() -> Component {
    Component::new("newlib", ComponentKind::UserLib)
        .with_shared_vars([
            SharedVar::stat(
                "errno_global",
                4,
                &["redis", "nginx", "iperf", "sqlite", "lwip"],
            ),
            SharedVar::heap(
                "stdio_buffers",
                4096,
                &["redis", "nginx", "iperf", "sqlite"],
            ),
            SharedVar::heap(
                "malloc_arena_meta",
                512,
                &["redis", "nginx", "iperf", "sqlite"],
            ),
            SharedVar::stack("fmt_scratch", 128, &["redis", "nginx", "sqlite"]),
            SharedVar::stat("locale_tab", 256, &["redis", "nginx"]),
            SharedVar::stat("atexit_list", 64, &["redis"]),
        ])
        .with_entry_points(NewlibEntries::NAMES)
        .with_patch(130, 42)
}
