//! Workload drivers: the paper's load generators (§6).
//!
//! Each driver installs an application into a booted [`FlexOs`] instance,
//! drives it with the paper's client (redis-benchmark-style GET loop,
//! wrk-style HTTP loop, the iPerf stream, the 5000-INSERT SQLite loop),
//! and reports virtual-cycle metrics. Client-side work is free (dedicated
//! client cores in the paper's testbed); everything the OS does is
//! charged on the machine clock.
//!
//! Redis and Nginx each have **one sharded driver**: a listener shard
//! per simulated core (port `base + core`, its own server instance and
//! keep-alive connections), the cores interleaved min-clock-first on one
//! host thread. `cores = 1` is not a special case but the one-shard,
//! one-connection instance of that loop — shard 0 listens on the app's
//! base port and the single client connects from 50_000 / 51_000, which
//! is the historical single-core stream byte for byte.

use std::rc::Rc;

use flexos_core::gate::GATE_KIND_COUNT;
use flexos_machine::fault::Fault;
use flexos_machine::xorshift64star;
use flexos_net::{SocketHandle, TcpClient};
use flexos_system::FlexOs;

use crate::iperf::{IperfServer, IPERF_PORT};
use crate::nginx::{NginxServer, NGINX_PORT};
use crate::redis::{KeyspacePreload, RedisServer, DICT_BUCKETS, REDIS_PORT};
use crate::resp;
use crate::sqlite::Sqlite;

/// Metrics from one measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Operations performed in the measured phase.
    pub ops: u64,
    /// Cycles consumed by the measured phase.
    pub cycles: u64,
    /// Cycles per operation.
    pub cycles_per_op: f64,
    /// Operations per second at the calibrated clock.
    pub ops_per_sec: f64,
}

fn metrics(os: &FlexOs, ops: u64, cycles: u64) -> RunMetrics {
    let cycles_per_op = cycles as f64 / ops.max(1) as f64;
    RunMetrics {
        ops,
        cycles,
        cycles_per_op,
        ops_per_sec: os.env.machine().cost().freq_hz as f64 / cycles_per_op,
    }
}

/// Installs a Redis server (component `redis` must be registered in the
/// image) and returns it started and listening.
///
/// # Errors
///
/// Missing component or substrate faults.
pub fn install_redis(os: &FlexOs) -> Result<Rc<RedisServer>, Fault> {
    install_redis_named(os, "redis", REDIS_PORT)
}

/// Installs a Redis server from an arbitrarily named component on an
/// explicit port — multi-tenant images register `redis-a`/`redis-b` and
/// run one instance per tenant, side by side.
///
/// # Errors
///
/// Missing component or substrate faults.
pub fn install_redis_named(
    os: &FlexOs,
    component: &str,
    port: u16,
) -> Result<Rc<RedisServer>, Fault> {
    let id = os
        .component(component)
        .ok_or_else(|| Fault::InvalidConfig {
            reason: format!("image has no `{component}` component"),
        })?;
    let server = Rc::new(RedisServer::new(
        Rc::clone(&os.env),
        id,
        Rc::clone(&os.libc),
        Rc::clone(&os.sched),
    )?);
    server.start_on(port)?;
    Ok(server)
}

/// Key-selection pattern of the benchmark client (the hit/miss-mix
/// axis; redis-benchmark's `-r`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyPattern {
    /// Every GET targets the same hot key (`key:1`) — redis-benchmark
    /// without `-r`, and the byte-identical historical Figure 6 stream.
    #[default]
    HotKey,
    /// Each GET draws a key index uniformly from `[0, space)` on a
    /// deterministic xorshift64* PRNG seeded with `seed`: same seed,
    /// same request stream, same virtual cycles — randomized keys
    /// without giving up sweep determinism. Indices at or beyond the
    /// preloaded keyspace miss (`$-1` replies), so `space >
    /// keyspace` dials in a miss mix of `1 - keyspace/space`.
    Uniform {
        /// Exclusive upper bound of drawn key indices (clamped to at
        /// least 1).
        space: u64,
        /// PRNG seed (any value; an internal bit is forced nonzero).
        seed: u64,
    },
}

/// Parameters of the generalized redis-benchmark loop (the knobs the
/// real tool exposes as `-r`-style keyspace size and `-P` pipelining).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedisBench {
    /// Keys preloaded as `key:0..keyspace` before the measured loop.
    /// With the default [`KeyPattern::HotKey`] every GET targets the
    /// *same* key (`key:1`), so the keyspace size changes dict
    /// occupancy (chain lengths, simulated-memory footprint) without
    /// changing the request stream. Must be at least 2 so `key:1`
    /// exists.
    pub keyspace: u64,
    /// Requests sent back-to-back per batch (`redis-benchmark -P`). The
    /// server drains the whole batch in one event-loop tick, so depth
    /// changes the crossings-per-request ratio exactly like iPerf's
    /// buffer-size sweep.
    pub pipeline: u64,
    /// Which keys the client asks for.
    pub pattern: KeyPattern,
    /// GETs performed before measurement starts.
    pub warmup: u64,
    /// GETs measured.
    pub measured: u64,
}

impl Default for RedisBench {
    /// The historical Figure 6 shape: 3 preloaded keys, no pipelining,
    /// hot-key GETs (set `warmup`/`measured` yourself).
    fn default() -> Self {
        RedisBench {
            keyspace: 3,
            pipeline: 1,
            pattern: KeyPattern::HotKey,
            warmup: 0,
            measured: 0,
        }
    }
}

/// redis-benchmark-style GET loop: connects, preloads 3 keys, then
/// performs `warmup + measured` unpipelined GETs, returning measured
/// metrics. (The Figure 6 workload; shorthand for [`run_redis_bench`]
/// with `keyspace: 3, pipeline: 1`.)
///
/// # Errors
///
/// Substrate faults; protocol errors.
pub fn run_redis_gets(os: &FlexOs, warmup: u64, measured: u64) -> Result<RunMetrics, Fault> {
    run_redis_bench(
        os,
        RedisBench {
            warmup,
            measured,
            ..RedisBench::default()
        },
    )
}

/// The value preloaded for `key:{i}` — cycling x/y/z so the 3-key
/// preload stays byte-identical to the historical `xxx/yyy/zzz`
/// fixture. Shared by the preload and the uniform-mode expected-reply
/// builder so the two can never desynchronize.
fn preload_value(i: u64) -> &'static [u8; 3] {
    const VALUES: [[u8; 3]; 3] = [*b"xxx", *b"yyy", *b"zzz"];
    &VALUES[(i % 3) as usize]
}

/// Appends `key:{i}` to `out` the way `format!` renders it, with no
/// `String` and no formatter.
fn push_key(out: &mut Vec<u8>, mut i: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (i % 10) as u8;
        i /= 10;
        if i == 0 {
            break;
        }
    }
    out.extend_from_slice(b"key:");
    out.extend_from_slice(&digits[at..]);
}

/// Preloads `key:0..keyspace`, each with its `preload_value`, in key
/// order. The simulated work — and so the clock, the heap and the dict's
/// layout — is that of `keyspace` single-pair [`RedisServer::preload`]s
/// in the same order.
///
/// Every sweep point of one keyspace preloads the same keys into a heap
/// in one of a handful of states, so the first preload into each state
/// is recorded and later ones replay it (`RedisServer::preload_keyspace_with`):
/// the same heap, the same region bytes and the same cycles, without
/// simulating the allocations again. The result says which happened.
///
/// # Errors
///
/// [`Fault::ResourceExhausted`], before rendering a key, when the
/// keyspace cannot fit the dict; dict/heap faults.
pub fn preload_keyspace(server: &RedisServer, keyspace: u64) -> Result<KeyspacePreload, Fault> {
    if keyspace > DICT_BUCKETS {
        return Err(Fault::ResourceExhausted {
            what: "redis dict buckets",
        });
    }
    server.preload_keyspace_with(keyspace, || preload_keyspace_direct(server, keyspace))
}

/// [`preload_keyspace`] simulated: the keys are rendered into one buffer
/// and handed to one [`RedisServer::preload`] call, so the host pays a
/// few allocations for the whole keyspace instead of one per key.
fn preload_keyspace_direct(server: &RedisServer, keyspace: u64) -> Result<(), Fault> {
    let n = keyspace as usize;
    let mut keys = Vec::with_capacity(n * "key:1024".len());
    let mut ends = Vec::with_capacity(n);
    for i in 0..keyspace {
        push_key(&mut keys, i);
        ends.push(keys.len());
    }
    let mut pairs: Vec<(&[u8], &[u8])> = Vec::with_capacity(n);
    let mut start = 0;
    for (i, &end) in (0..keyspace).zip(&ends) {
        pairs.push((&keys[start..end], preload_value(i)));
        start = end;
    }
    server.preload(&pairs)
}

/// Runs per-core shard loops in virtual-time order until every core has
/// executed `batches_per_core` batches: each turn picks the unfinished
/// core with the smallest per-core clock (lowest core id on ties),
/// switches the machine onto it, and runs exactly one batch — so
/// execution stays single-host-threaded and bit-reproducible while the
/// cores interleave exactly as their virtual clocks dictate. Returns
/// each core's clock after its last batch (its phase end).
fn drive_cores(
    os: &FlexOs,
    batches_per_core: u64,
    record_latency: bool,
    mut batch: impl FnMut(usize) -> Result<(), Fault>,
) -> Result<Vec<u64>, Fault> {
    let machine = os.env.machine();
    let cores = os.env.machine().num_cores();
    let mut done = vec![0u64; cores];
    let mut ends: Vec<u64> = (0..cores).map(|c| machine.core_clock(c).now()).collect();
    loop {
        let mut pick: Option<usize> = None;
        for (c, &c_done) in done.iter().enumerate() {
            if c_done >= batches_per_core {
                continue;
            }
            let earlier = match pick {
                Some(p) => machine.core_clock(c).now() < machine.core_clock(p).now(),
                None => true,
            };
            if earlier {
                pick = Some(c);
            }
        }
        let Some(c) = pick else { break };
        os.env.switch_core(c);
        let t0 = machine.core_clock(c).now();
        batch(c)?;
        let t1 = machine.core_clock(c).now();
        if record_latency {
            machine.tracer().request_latency().record(t1 - t0);
        }
        done[c] += 1;
        if done[c] >= batches_per_core {
            ends[c] = t1;
        }
    }
    Ok(ends)
}

/// The two phases of a sharded run: `warmup` batches on every core,
/// counters reset, then `measured` batches on every core with each
/// batch's latency recorded. Returns the measured-phase makespan (the
/// slowest core's span) and leaves the machine on core 0.
fn drive_phases(
    os: &FlexOs,
    warmup: u64,
    measured: u64,
    mut batch: impl FnMut(usize) -> Result<(), Fault>,
) -> Result<u64, Fault> {
    let machine = os.env.machine();
    drive_cores(os, warmup, false, &mut batch)?;
    os.env.reset_counters();
    machine.reset_smp_counters();
    let starts: Vec<u64> = (0..os.env.machine().num_cores())
        .map(|c| machine.core_clock(c).now())
        .collect();
    let ends = drive_cores(os, measured, true, &mut batch)?;
    os.env.switch_core(0);
    Ok(starts
        .iter()
        .zip(&ends)
        .map(|(s, e)| e - s)
        .max()
        .unwrap_or(0))
}

/// Source port of client connection `i` of shard `core`: `src_base +
/// 1000·core + i`, continued from the bottom of the port space past
/// 65 535. Shards 0–15 of Redis (base 50 000) and 0–14 of nginx (base
/// 51 000) fit below the top; Redis shards 16–31 take 464–15 495 and
/// nginx shards 15–31 464–16 495, 1 000 ports apart — clear of each
/// other and of both apps' listeners (80 and 6 379 plus the core).
fn client_port(src_base: u16, core: usize, i: usize) -> u16 {
    ((usize::from(src_base) + 1_000 * core + i) % (1 << 16)) as u16
}

/// One listener shard's keep-alive client connections, served
/// round-robin: the paper's single client connection on a one-core
/// image, 32 per core above (8 cores ⇒ 256 concurrent connections).
struct ShardConns {
    clients: Vec<TcpClient>,
    conns: Vec<SocketHandle>,
    next: usize,
}

impl ShardConns {
    /// Connects `core`'s clients to `app`'s shard listening on `port`
    /// (source ports from [`client_port`]), taking each server-side
    /// handle from `accept`.
    fn open(
        os: &FlexOs,
        app: &str,
        core: usize,
        src_base: u16,
        port: u16,
        mut accept: impl FnMut() -> Result<Option<SocketHandle>, Fault>,
    ) -> Result<ShardConns, Fault> {
        let count = if os.env.machine().num_cores() == 1 {
            1
        } else {
            32
        };
        let mut clients = Vec::with_capacity(count);
        let mut conns = Vec::with_capacity(count);
        for i in 0..count {
            clients.push(TcpClient::connect(
                &os.net,
                client_port(src_base, core, i),
                port,
            )?);
            conns.push(accept()?.ok_or_else(|| Fault::InvalidConfig {
                reason: format!("{app}: handshake did not queue a connection"),
            })?);
        }
        Ok(ShardConns {
            clients,
            conns,
            next: 0,
        })
    }

    /// The connection whose turn it is, both ends.
    fn rotate(&mut self) -> (&mut TcpClient, SocketHandle) {
        let idx = self.next;
        self.next = (idx + 1) % self.clients.len();
        (&mut self.clients[idx], self.conns[idx])
    }
}

/// One per-core Redis listener shard: its own server instance (own dict,
/// preloaded identically on every core), its own port, its connections,
/// and the client-side request stream.
struct RedisShard {
    server: Rc<RedisServer>,
    conns: ShardConns,
    rng: u64,
    request: Vec<u8>,
    expected: Vec<u8>,
}

impl RedisShard {
    /// Installs, preloads and connects `core`'s shard (port `REDIS_PORT
    /// + core`); the machine must be on `core`.
    fn open(os: &FlexOs, bench: &RedisBench, core: usize) -> Result<RedisShard, Fault> {
        let port = REDIS_PORT + core as u16;
        let server = install_redis_named(os, "redis", port)?;
        // Values cycle x/y/z so the 3-key preload is byte-identical to
        // the historical `key:0=xxx, key:1=yyy, key:2=zzz` fixture.
        preload_keyspace(&server, bench.keyspace)?;
        let conns = ShardConns::open(os, "redis", core, 50_000, port, || server.accept())?;
        let mut request = Vec::new();
        let mut expected = Vec::new();
        if bench.pattern == KeyPattern::HotKey {
            let one_request = resp::encode_request(&[b"GET", b"key:1"]);
            for _ in 0..bench.pipeline {
                request.extend_from_slice(&one_request);
                expected.extend_from_slice(b"$3\r\nyyy\r\n");
            }
        }
        let rng = match bench.pattern {
            // Force a nonzero state (xorshift has an all-zero fixed
            // point) without disturbing low seed bits.
            KeyPattern::Uniform { seed, .. } => seed | (1 << 63),
            KeyPattern::HotKey => 0,
        };
        Ok(RedisShard {
            server,
            conns,
            rng,
            request,
            expected,
        })
    }
}

/// One batch on a shard: rotate to the next connection, send `pipeline`
/// requests in one client write, tick the shard's event loop until the
/// whole batch is served, drain and check the replies.
///
/// Hot-key batches were built once — the byte-identical historical
/// request stream. Uniform batches are rebuilt per batch from the PRNG;
/// that formatting is host-side client work, off the measured virtual
/// clock (client cores are free in the paper's testbed).
fn redis_shard_batch(os: &FlexOs, bench: &RedisBench, shard: &mut RedisShard) -> Result<(), Fault> {
    if let KeyPattern::Uniform { space, .. } = bench.pattern {
        let space = space.max(1);
        shard.request.clear();
        shard.expected.clear();
        for _ in 0..bench.pipeline {
            let i = xorshift64star(&mut shard.rng) % space;
            let key = format!("key:{i}");
            shard
                .request
                .extend_from_slice(&resp::encode_request(&[b"GET", key.as_bytes()]));
            if i < bench.keyspace {
                shard.expected.extend_from_slice(b"$3\r\n");
                shard.expected.extend_from_slice(preload_value(i));
                shard.expected.extend_from_slice(b"\r\n");
            } else {
                shard.expected.extend_from_slice(b"$-1\r\n");
            }
        }
    }
    let (client, conn) = shard.conns.rotate();
    client.send(&os.net, &shard.request)?;
    let target = shard.server.stats().commands + bench.pipeline;
    while shard.server.stats().commands < target {
        if !shard.server.serve_one(conn)? {
            return Err(Fault::InvalidConfig {
                reason: "redis: connection starved mid-batch".to_string(),
            });
        }
    }
    client.drain(&os.net)?;
    if client.received() != shard.expected {
        return Err(Fault::InvalidConfig {
            reason: "redis: a reply differs from the one the key pattern expects".to_string(),
        });
    }
    client.clear_received();
    Ok(())
}

/// The generalized redis-benchmark loop (keyspace-size, pipeline-depth,
/// and key-pattern axes). At the [`RedisBench::default`] shape
/// (`keyspace: 3, pipeline: 1`, hot key) on a one-core image this
/// reproduces the original Figure 6 GET loop cycle for cycle: same
/// preloaded key/value bytes, same request stream, one request per
/// event-loop tick. [`KeyPattern::Uniform`] opens the hit/miss-mix axis
/// on a deterministic PRNG (misses reply `$-1` and stay cheaper than
/// hits — no value copy — so the mix moves cycles/op without breaking
/// run-to-run determinism).
///
/// One listener shard per core (port `REDIS_PORT + core`), the cores
/// multiplexed min-clock-first by `drive_cores`; every core runs the
/// full `warmup + measured` load. A batch sends `pipeline` requests in
/// one client write, then ticks the shard until the whole batch is
/// served; each tick drains every buffered request, so deep pipelines
/// amortize the per-tick scheduler/cron crossings over many commands.
/// `ops` is the aggregate over cores and `cycles` the makespan (the
/// slowest core's measured-phase span), so `cycles_per_op` reflects
/// per-core throughput including cross-core gate (IPI) and contention
/// surcharges — none of which exist at one core.
///
/// # Errors
///
/// [`Fault::InvalidConfig`] naming the field, before the image is
/// touched, for `keyspace < 2` (the hot key `key:1` would not exist),
/// a keyspace larger than the server's dict, or `pipeline == 0`;
/// [`Fault::InvalidConfig`] naming redis when a reply is not the one the
/// key pattern expects; substrate faults; protocol errors.
pub fn run_redis_bench(os: &FlexOs, bench: RedisBench) -> Result<RunMetrics, Fault> {
    if !(2..=DICT_BUCKETS).contains(&bench.keyspace) {
        return Err(Fault::InvalidConfig {
            reason: format!(
                "RedisBench::keyspace is {}, must be at least 2 so `key:1` exists \
                 and at most {DICT_BUCKETS}, the dict's buckets",
                bench.keyspace
            ),
        });
    }
    if bench.pipeline == 0 {
        return Err(Fault::InvalidConfig {
            reason: "RedisBench::pipeline is 0, must be at least 1".to_string(),
        });
    }
    let cores = os.env.machine().num_cores();
    let mut shards = Vec::with_capacity(cores);
    for core in 0..cores {
        os.env.switch_core(core);
        shards.push(RedisShard::open(os, &bench, core)?);
    }
    let batches = |ops: u64| ops.div_ceil(bench.pipeline);
    let measured_batches = batches(bench.measured);
    let makespan = drive_phases(os, batches(bench.warmup), measured_batches, |c| {
        redis_shard_batch(os, &bench, &mut shards[c])
    })?;
    Ok(metrics(
        os,
        cores as u64 * measured_batches * bench.pipeline,
        makespan,
    ))
}

/// Installs an Nginx server and returns it started (welcome page written
/// through the VFS and cached).
///
/// # Errors
///
/// Missing component or substrate faults.
pub fn install_nginx(os: &FlexOs) -> Result<Rc<NginxServer>, Fault> {
    install_nginx_on(os, NGINX_PORT)
}

/// [`install_nginx`] listening on an explicit port (one shard per core
/// in multi-core runs).
///
/// # Errors
///
/// Missing component or substrate faults.
pub(crate) fn install_nginx_on(os: &FlexOs, port: u16) -> Result<Rc<NginxServer>, Fault> {
    let id = os.component("nginx").ok_or_else(|| Fault::InvalidConfig {
        reason: "image has no `nginx` component".to_string(),
    })?;
    let server = Rc::new(NginxServer::new(
        Rc::clone(&os.env),
        id,
        Rc::clone(&os.libc),
        Rc::clone(&os.sched),
    ));
    server.start_on(port)?;
    Ok(server)
}

/// The wrk-style keep-alive request the nginx driver replays.
const NGINX_REQUEST: &[u8] =
    b"GET /index.html HTTP/1.1\r\nHost: flexos\r\nConnection: keep-alive\r\n\r\n";

/// One per-core nginx listener shard (port `NGINX_PORT + core`) and its
/// connections.
struct NginxShard {
    server: Rc<NginxServer>,
    conns: ShardConns,
}

/// One request on a shard: rotate to the next connection, send, serve,
/// drain and check the reply.
fn nginx_shard_batch(os: &FlexOs, shard: &mut NginxShard) -> Result<(), Fault> {
    let (client, conn) = shard.conns.rotate();
    client.send(&os.net, NGINX_REQUEST)?;
    shard.server.serve_one(conn)?;
    client.drain(&os.net)?;
    // A 200 head and the 612-byte body.
    if !client.received().starts_with(b"HTTP/1.1 200 OK") || client.received_len() <= 612 {
        return Err(Fault::InvalidConfig {
            reason: "nginx: a reply is not the 200 and welcome page".to_string(),
        });
    }
    client.clear_received();
    Ok(())
}

/// wrk-style keep-alive GET loop against the welcome page: one nginx
/// shard per core, cores multiplexed min-clock-first; every core serves
/// the full `warmup + measured` GET load, `ops` is the aggregate and
/// `cycles` the measured-phase makespan. On a one-core image that is
/// one listener on `NGINX_PORT`, one connection, one clock.
///
/// # Errors
///
/// [`Fault::InvalidConfig`] naming nginx when a reply is not a `200` with
/// the welcome page; substrate faults; protocol errors.
pub fn run_nginx_gets(os: &FlexOs, warmup: u64, measured: u64) -> Result<RunMetrics, Fault> {
    let cores = os.env.machine().num_cores();
    let mut shards = Vec::with_capacity(cores);
    for core in 0..cores {
        os.env.switch_core(core);
        let port = NGINX_PORT + core as u16;
        let server = install_nginx_on(os, port)?;
        let conns = ShardConns::open(os, "nginx", core, 51_000, port, || server.accept())?;
        shards.push(NginxShard { server, conns });
    }
    let makespan = drive_phases(os, warmup, measured, |c| {
        nginx_shard_batch(os, &mut shards[c])
    })?;
    Ok(metrics(os, cores as u64 * measured, makespan))
}

/// Installs the iPerf server.
///
/// # Errors
///
/// Missing component or substrate faults.
pub fn install_iperf(os: &FlexOs) -> Result<Rc<IperfServer>, Fault> {
    let id = os.component("iperf").ok_or_else(|| Fault::InvalidConfig {
        reason: "image has no `iperf` component".to_string(),
    })?;
    let server = Rc::new(IperfServer::new(
        Rc::clone(&os.env),
        id,
        Rc::clone(&os.libc),
    ));
    server.start()?;
    Ok(server)
}

/// iPerf stream: the client pushes `total_bytes` in MSS segments; the
/// server drains with `recv_buf`-byte buffers. Returns goodput in Gb/s.
///
/// # Errors
///
/// See [`run_iperf_metrics`].
pub fn run_iperf(os: &FlexOs, recv_buf: u64, total_bytes: u64) -> Result<f64, Fault> {
    // On success the stream arrived in full, so `total_bytes` is the
    // exact byte count (`ops` is KiB, rounded).
    let m = run_iperf_metrics(os, recv_buf, total_bytes)?;
    Ok(os.env.machine().cost().gbps(total_bytes, m.cycles))
}

/// [`run_iperf`] reporting [`RunMetrics`] instead of Gb/s: `ops` is the
/// KiB moved, `ops_per_sec` the KiB/s rate (the sweep engine's uniform
/// metric shape).
///
/// # Errors
///
/// [`Fault::InvalidConfig`] naming iperf when the stream does not arrive
/// in full; substrate faults.
pub fn run_iperf_metrics(
    os: &FlexOs,
    recv_buf: u64,
    total_bytes: u64,
) -> Result<RunMetrics, Fault> {
    let server = install_iperf(os)?;
    let mut client = TcpClient::connect(&os.net, 52_000, IPERF_PORT)?;
    let conn = server.accept()?.ok_or_else(|| Fault::InvalidConfig {
        reason: "iperf: handshake did not queue a connection".to_string(),
    })?;

    let chunk = vec![0xA5u8; 8 * 1024];
    // Warm the path.
    client.send(&os.net, &chunk[..1024])?;
    server.drain(conn, recv_buf)?;

    os.env.reset_counters();
    let start = os.cycles();
    let mut sent = 0u64;
    let mut received = 0u64;
    while sent < total_bytes {
        let take = chunk.len().min((total_bytes - sent) as usize);
        client.send(&os.net, &chunk[..take])?;
        sent += take as u64;
        received += server.drain(conn, recv_buf)?;
    }
    let cycles = os.cycles() - start;
    if received != total_bytes {
        return Err(Fault::InvalidConfig {
            reason: format!("iperf: {received} of {total_bytes} bytes arrived"),
        });
    }
    Ok(metrics(os, received.div_ceil(1024), cycles))
}

/// Counters captured from a SQLite run, used by the Figure 10 baseline
/// overlays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqliteRun {
    /// Transactions executed.
    pub txns: u64,
    /// Cycles for the measured loop.
    pub cycles: u64,
    /// Wall seconds at the calibrated clock.
    pub seconds: f64,
    /// vfs operations issued (each one app→fs gate entry).
    pub vfs_ops: u64,
    /// uktime queries issued (each one fs→time gate entry).
    pub time_queries: u64,
    /// Allocator slow-path hits across all heaps.
    pub alloc_slow_hits: u64,
    /// Allocator operations (malloc+free) across all heaps.
    pub alloc_ops: u64,
    /// Total cross-domain gate traversals in the measured loop.
    pub total_crossings: u64,
    /// Traversals by gate kind (index =
    /// [`flexos_core::gate::GateKind::index`]), snapshotted from the
    /// dense counters through the transform report.
    pub crossings_by_kind: [u64; GATE_KIND_COUNT],
}

/// Installs a SQLite engine over `/db.sqlite`.
///
/// # Errors
///
/// Missing component or substrate faults.
pub fn install_sqlite(os: &FlexOs) -> Result<Rc<Sqlite>, Fault> {
    let id = os.component("sqlite").ok_or_else(|| Fault::InvalidConfig {
        reason: "image has no `sqlite` component".to_string(),
    })?;
    let db = Sqlite::open(Rc::clone(&os.env), id, Rc::clone(&os.libc), "/db.sqlite")?;
    Ok(Rc::new(db))
}

/// The Figure 10 workload: `n` INSERTs, each in its own transaction.
///
/// # Errors
///
/// SQL or substrate faults.
pub fn run_sqlite_inserts(os: &FlexOs, n: u64) -> Result<SqliteRun, Fault> {
    let db = install_sqlite(os)?;
    db.exec("CREATE TABLE kv (id INTEGER, body TEXT)")?;
    // Warm one txn so file creation is off the measured path.
    db.exec("INSERT INTO kv VALUES (0, 'warmup-row-payload-xxxxxxxxxxxx')")?;

    os.env.reset_counters();
    os.vfs.reset_stats();
    let time_q0 = os.time.queries();
    let alloc0 = os.env.total_alloc_stats();
    let start = os.cycles();
    for i in 0..n {
        let stmt = format!("INSERT INTO kv VALUES ({i}, 'row-payload-{i:08}-xxxxxxxxxxxxxxxx')");
        let out = db.exec(&stmt)?;
        debug_assert_eq!(out.changes, 1);
    }
    let cycles = os.cycles() - start;
    let alloc1 = os.env.total_alloc_stats();
    let breakdown = os.env.gates().breakdown();
    let mut crossings_by_kind = [0u64; GATE_KIND_COUNT];
    for &(kind, count) in &breakdown.by_kind {
        crossings_by_kind[kind.index()] = count;
    }
    Ok(SqliteRun {
        txns: n,
        cycles,
        seconds: os.env.machine().cost().cycles_to_seconds(cycles),
        vfs_ops: os.vfs.stats().total_ops(),
        time_queries: os.time.queries() - time_q0,
        alloc_slow_hits: alloc1.slow_hits - alloc0.slow_hits,
        alloc_ops: alloc1.total_ops() - alloc0.total_ops(),
        total_crossings: breakdown.total_crossings,
        crossings_by_kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_core::config::SafetyConfig;
    use flexos_system::SystemBuilder;

    fn image(app: flexos_core::component::Component, cores: usize) -> FlexOs {
        SystemBuilder::new(SafetyConfig::none())
            .app(app)
            .cores(cores)
            .build()
            .unwrap()
    }

    #[test]
    fn a_reply_that_is_not_the_expected_one_is_a_fault_in_every_build() {
        let os = image(crate::redis_component(), 1);
        let bench = RedisBench {
            measured: 1,
            ..RedisBench::default()
        };
        let mut shard = RedisShard::open(&os, &bench, 0).unwrap();
        redis_shard_batch(&os, &bench, &mut shard).unwrap();
        shard.expected = b"$3\r\nzzz\r\n".to_vec();
        match redis_shard_batch(&os, &bench, &mut shard) {
            Err(Fault::InvalidConfig { reason }) => {
                assert!(reason.starts_with("redis: "), "{reason}")
            }
            other => panic!("a wrong reply passed: {other:?}"),
        }
    }

    #[test]
    fn shards_at_every_core_count_connect_from_distinct_ports() {
        for (base, listen) in [(50_000, REDIS_PORT), (51_000, NGINX_PORT)] {
            for cores in 1..=32usize {
                let per_core = if cores == 1 { 1 } else { 32 };
                let listeners: Vec<u16> = (0..cores).map(|c| listen + c as u16).collect();
                let mut ports: Vec<u16> = (0..cores)
                    .flat_map(|c| (0..per_core).map(move |i| client_port(base, c, i)))
                    .collect();
                assert!(
                    ports.iter().all(|p| !listeners.contains(p)),
                    "{cores} cores"
                );
                ports.sort_unstable();
                ports.dedup();
                assert_eq!(ports.len(), cores * per_core, "{cores} cores");
            }
        }
        // Release builds wrapped the top shards to the bottom of the
        // port space before the range was written down.
        assert_eq!(client_port(50_000, 16, 0), 464);
        assert_eq!(client_port(51_000, 15, 0), 464);
        for cores in 1..=32 {
            let redis = image(crate::redis_component(), cores);
            let bench = RedisBench {
                keyspace: 2,
                measured: 1,
                ..RedisBench::default()
            };
            run_redis_bench(&redis, bench).unwrap();
            let nginx = image(crate::nginx_component(), cores);
            run_nginx_gets(&nginx, 0, 1).unwrap();
        }
    }

    #[test]
    fn keys_render_as_format_does() {
        let mut out = Vec::new();
        for i in (0..=100_000).chain([u64::from(u32::MAX), u64::MAX]) {
            out.clear();
            push_key(&mut out, i);
            assert_eq!(out, format!("key:{i}").as_bytes());
        }
    }
}
