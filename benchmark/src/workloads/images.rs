//! Long-lived single-core images and the pre-encoded request streams
//! that drive them (the `steady-1core` image set; `probes` and the
//! self-tests reuse single images from it).
//!
//! An image is built once, its application installed, preloaded and
//! connected, and is then driven through the same three public calls the
//! repository's own load generators use — `TcpClient::send`, the
//! server's `serve_one`, `TcpClient::drain` — with every reply compared
//! byte for byte against a reply the harness worked out beforehand from
//! the seed. All formatting happens before the timed window: inside it
//! the harness only hands out slices of a ring.

use std::rc::Rc;
use std::time::Instant;

use flexos_apps::iperf::IPERF_PORT;
use flexos_apps::nginx::NGINX_PORT;
use flexos_apps::redis::REDIS_PORT;
use flexos_apps::workloads::{install_iperf, install_nginx, install_redis, install_sqlite};
use flexos_apps::{http, resp, IperfServer, NginxServer, RedisServer, Sqlite};
use flexos_core::compartment::DataSharing;
use flexos_core::config::SafetyConfig;
use flexos_core::hardening::Hardening;
use flexos_machine::fault::Fault;
use flexos_net::{NetStack, SocketHandle, TcpClient};
use flexos_system::{configs, FlexOs, SystemBuilder};

use crate::host;
use crate::rng::{fnv1a_bytes, Rng, FNV_BASIS};
use crate::spans::Tap;

/// Requests in one pre-encoded ring.
pub const RING: usize = 4096;
/// Operations per timed batch of the latency percentiles.
pub const LATENCY_BATCH: u64 = 256;
/// Redis keys preloaded; requests draw from [`REDIS_KEY_SPACE`], so one
/// request in five misses.
pub const REDIS_PRELOADED: u64 = 512;
/// Redis key indices requests are drawn from.
pub const REDIS_KEY_SPACE: u64 = 640;
/// iPerf client chunk and server receive buffer, bytes.
pub const IPERF_CHUNK: usize = 8 * 1024;
/// iPerf server receive buffer, bytes.
pub const IPERF_RECV_BUF: u64 = 16 * 1024;

/// The application an image runs, with the parameter that shapes its
/// request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Redis GETs, `pipeline` requests per client write.
    Redis {
        /// Requests sent back to back per batch.
        pipeline: usize,
    },
    /// Nginx keep-alive GETs, one in five for a path that does not exist.
    Nginx,
    /// iPerf stream: one operation is one KiB received.
    Iperf,
    /// SQLite INSERTs, one transaction each.
    Sqlite,
}

/// One image of a steady workload.
#[derive(Debug, Clone, Copy)]
pub struct ImageSpec {
    /// Name used in metric names (`apps.ns_per_op.<name>`).
    pub name: &'static str,
    /// Application and stream shape.
    pub app: App,
    /// The safety configuration.
    pub config: fn() -> Result<SafetyConfig, Fault>,
    /// Operations per round of the timed window (a whole number of
    /// ring batches). Sized so each image takes a comparable share of
    /// a round on the reference host.
    pub ops_per_round: u64,
    /// Rebuild the image before every round. Only SQLite: its table and
    /// journal grow with every INSERT until the simulated heap is full,
    /// and an INSERT into a large table costs more than one into a small
    /// one, so a round always starts from an empty database — which is
    /// also the shape of the paper's own Figure 10 run.
    pub fresh_each_round: bool,
}

fn all_hardened() -> Result<SafetyConfig, Fault> {
    let hardened: Vec<(&str, Hardening)> = [
        "nginx", "newlib", "uksched", "lwip", "vfscore", "ramfs", "uktime",
    ]
    .into_iter()
    .map(|c| (c, Hardening::FIG6_BUNDLE))
    .collect();
    Ok(configs::with_component_hardening(
        configs::mpk2(&["lwip"], DataSharing::Dss)?,
        &hardened,
    ))
}

/// The seven `steady-1core` images. Each puts a different layer in
/// charge of its cost: nothing (flat), MPK gates, pipelining over
/// light gates, EPT RPC, hardening instrumentation, bulk memory copy,
/// and allocator + filesystem + time.
pub const STEADY_1CORE: [ImageSpec; 7] = [
    ImageSpec {
        name: "redis-flat",
        app: App::Redis { pipeline: 1 },
        config: || Ok(configs::none()),
        ops_per_round: 64 * RING as u64,
        fresh_each_round: false,
    },
    ImageSpec {
        name: "redis-mpk2",
        app: App::Redis { pipeline: 1 },
        config: || configs::mpk2(&["lwip"], DataSharing::Dss),
        ops_per_round: 64 * RING as u64,
        fresh_each_round: false,
    },
    ImageSpec {
        name: "redis-mpk3-p16",
        app: App::Redis { pipeline: 16 },
        config: || configs::mpk3(&["lwip"], &["uksched"], DataSharing::SharedStack),
        ops_per_round: 96 * RING as u64,
        fresh_each_round: false,
    },
    ImageSpec {
        name: "redis-ept2",
        app: App::Redis { pipeline: 1 },
        config: || configs::ept2(&["lwip"]),
        ops_per_round: 40 * RING as u64,
        fresh_each_round: false,
    },
    ImageSpec {
        name: "nginx-mpk2-hard",
        app: App::Nginx,
        config: all_hardened,
        ops_per_round: 40 * RING as u64,
        fresh_each_round: false,
    },
    ImageSpec {
        name: "iperf-mpk2",
        app: App::Iperf,
        config: || configs::mpk2(&["lwip"], DataSharing::Dss),
        ops_per_round: 16 * RING as u64 * (IPERF_CHUNK as u64 / 1024),
        fresh_each_round: false,
    },
    ImageSpec {
        name: "sqlite-mpk3",
        app: App::Sqlite,
        config: || configs::mpk3(&["vfscore", "ramfs"], &["uktime"], DataSharing::Dss),
        ops_per_round: 7 * RING as u64 / 2,
        fresh_each_round: true,
    },
];

/// A ring of pre-encoded request batches and the reply each must get.
#[derive(Debug)]
pub struct Stream {
    requests: Vec<u8>,
    request_spans: Vec<(u32, u32)>,
    replies: Vec<u8>,
    reply_spans: Vec<(u32, u32)>,
    /// Operations one batch stands for.
    pub ops_per_batch: u64,
    /// FNV-1a over every request and expected reply, in ring order: two
    /// seeds give two digests.
    pub digest: u64,
}

impl Stream {
    fn new(ops_per_batch: u64) -> Stream {
        Stream {
            requests: Vec::new(),
            request_spans: Vec::new(),
            replies: Vec::new(),
            reply_spans: Vec::new(),
            ops_per_batch,
            digest: 0,
        }
    }

    fn push(&mut self, request: &[u8], reply: &[u8]) {
        let span = |buf: &mut Vec<u8>, bytes: &[u8]| {
            let start = buf.len() as u32;
            buf.extend_from_slice(bytes);
            (start, buf.len() as u32)
        };
        let rq = span(&mut self.requests, request);
        self.request_spans.push(rq);
        let rp = span(&mut self.replies, reply);
        self.reply_spans.push(rp);
    }

    fn seal(mut self) -> Stream {
        self.digest = fnv1a_bytes(fnv1a_bytes(FNV_BASIS, &self.requests), &self.replies);
        self
    }

    /// Batches in the ring.
    pub fn len(&self) -> usize {
        self.request_spans.len()
    }

    /// `true` for a ring without batches.
    pub fn is_empty(&self) -> bool {
        self.request_spans.is_empty()
    }

    /// Request bytes and expected reply bytes of batch `i`.
    pub fn batch(&self, i: usize) -> (&[u8], &[u8]) {
        let (a, b) = self.request_spans[i];
        let (c, d) = self.reply_spans[i];
        (
            &self.requests[a as usize..b as usize],
            &self.replies[c as usize..d as usize],
        )
    }

    /// Overwrites the first byte of batch `i`'s expected reply — the
    /// self-test's "deliberately corrupted expected reply".
    pub fn corrupt_expected(&mut self, i: usize) {
        let (c, _) = self.reply_spans[i];
        self.replies[c as usize] ^= 0xff;
    }
}

/// The value preloaded under Redis key index `i` for `seed`: sixteen
/// hex digits, so hits copy a fixed-size value.
pub fn redis_value(seed: u64, i: u64) -> String {
    format!("{:016x}", Rng::new(seed ^ i, "redis-value").next_u64())
}

fn redis_stream(seed: u64, pipeline: usize) -> Stream {
    let mut rng = Rng::new(seed, "redis-keys");
    let mut stream = Stream::new(pipeline as u64);
    let (mut request, mut reply) = (Vec::new(), Vec::new());
    for i in 0..RING {
        let key_index = rng.below(REDIS_KEY_SPACE);
        let key = format!("key:{key_index}");
        request.extend_from_slice(&resp::encode_request(&[b"GET", key.as_bytes()]));
        if key_index < REDIS_PRELOADED {
            reply.extend_from_slice(
                format!("$16\r\n{}\r\n", redis_value(seed, key_index)).as_bytes(),
            );
        } else {
            reply.extend_from_slice(b"$-1\r\n");
        }
        if (i + 1) % pipeline == 0 {
            stream.push(&request, &reply);
            request.clear();
            reply.clear();
        }
    }
    stream.seal()
}

fn nginx_stream(seed: u64) -> Stream {
    let mut rng = Rng::new(seed, "nginx-paths");
    let mut stream = Stream::new(1);
    let page = http::welcome_page();
    let mut ok = http::response_head(page.len(), true);
    ok.extend_from_slice(&page);
    let not_found = http::response_404();
    for _ in 0..RING {
        let draw = rng.below(10);
        let (path, reply) = match draw {
            0 | 1 => (format!("/missing-{}.html", rng.below(1000)), &not_found),
            2..=5 => ("/".to_string(), &ok),
            _ => ("/index.html".to_string(), &ok),
        };
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: flexos\r\nConnection: keep-alive\r\n\r\n");
        stream.push(request.as_bytes(), reply);
    }
    stream.seal()
}

/// iPerf batches are windows into one seeded payload (a ring of 4096
/// distinct 8 KiB chunks would be 32 MiB of set-up for no extra
/// coverage); the "reply" is empty — what is checked is that the server
/// drained exactly the bytes sent.
fn iperf_stream(seed: u64) -> Stream {
    let mut rng = Rng::new(seed, "iperf-payload");
    let mut stream = Stream::new(IPERF_CHUNK as u64 / 1024);
    const WINDOW_STEP: usize = 64;
    let payload_len = IPERF_CHUNK + RING * WINDOW_STEP;
    stream.requests = (0..payload_len.div_ceil(8))
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .take(payload_len)
        .collect();
    let mut starts: Vec<u32> = (0..RING).map(|i| (i * WINDOW_STEP) as u32).collect();
    rng.shuffle(&mut starts);
    for start in starts {
        stream
            .request_spans
            .push((start, start + IPERF_CHUNK as u32));
        stream.reply_spans.push((0, 0));
    }
    stream.seal()
}

/// The text stored by SQLite ring statement `i` for `seed`.
pub fn sqlite_payload(seed: u64, i: usize) -> String {
    format!(
        "row-payload-{:016x}-xxxxxxxx",
        Rng::new(seed ^ i as u64, "sqlite-payload").next_u64()
    )
}

fn sqlite_stream(seed: u64) -> Stream {
    let mut stream = Stream::new(1);
    for i in 0..RING {
        let statement = format!("INSERT INTO kv VALUES ({i}, '{}')", sqlite_payload(seed, i));
        stream.push(statement.as_bytes(), b"");
    }
    stream.seal()
}

enum Driver {
    Redis {
        server: Rc<RedisServer>,
        client: TcpClient,
        conn: SocketHandle,
    },
    Nginx {
        server: Rc<NginxServer>,
        client: TcpClient,
        conn: SocketHandle,
    },
    Iperf {
        server: Rc<IperfServer>,
        client: TcpClient,
        conn: SocketHandle,
    },
    Sqlite {
        db: Rc<Sqlite>,
        inserted: u64,
    },
}

/// What one [`LiveImage::drive`] call did.
#[derive(Debug, Clone, Default)]
pub struct Drive {
    /// Operations attempted.
    pub ops: u64,
    /// Operations whose reply (or drained byte count, or row count) was
    /// not the expected one.
    pub failed: u64,
    /// Host seconds.
    pub secs: f64,
    /// Virtual cycles the image's clock advanced.
    pub cycles: u64,
    /// Gate crossings (`env.gates()` counter delta).
    pub crossings: u64,
    /// Host allocation calls made by this thread meanwhile.
    pub allocs: u64,
    /// Host microseconds of each [`LATENCY_BATCH`]-operation batch.
    pub batch_us: Vec<f32>,
}

/// A built, installed, preloaded and connected image with its stream.
pub struct LiveImage {
    /// The image's description.
    pub spec: ImageSpec,
    /// The booted instance.
    pub os: FlexOs,
    /// The request ring.
    pub stream: Stream,
    driver: Driver,
    cursor: usize,
    seed: u64,
}

/// One request/reply exchange over TCP: send (span `net.rx`: the
/// stack's input path), `serve` (span `apps.serve`: the server's event
/// loop), drain (span `net.drain`: the output path), then the reply
/// compared with `expected`.
fn exchange<T: Tap>(
    tap: &mut T,
    net: &NetStack,
    client: &mut TcpClient,
    request: &[u8],
    expected: &[u8],
    serve: impl FnOnce() -> Result<(), Fault>,
) -> Result<bool, Fault> {
    tap.enter("net.rx");
    client.send(net, request)?;
    tap.exit();
    tap.enter("apps.serve");
    serve()?;
    tap.exit();
    tap.enter("net.drain");
    client.drain(net)?;
    tap.exit();
    let ok = client.received() == expected;
    client.clear_received();
    Ok(ok)
}

pub(crate) fn no_conn(app: &str) -> Fault {
    Fault::InvalidConfig {
        reason: format!("{app}: handshake did not queue a connection"),
    }
}

impl LiveImage {
    /// Build, install, preload, connect: the image at the point where
    /// its first request can be sent — what a sweep point pays before
    /// its first request. Spans: `system.build`, `apps.install`.
    fn boot<T: Tap>(spec: ImageSpec, seed: u64, tap: &mut T) -> Result<(FlexOs, Driver), Fault> {
        let component = match spec.app {
            App::Redis { .. } => flexos_apps::redis_component(),
            App::Nginx => flexos_apps::nginx_component(),
            App::Iperf => flexos_apps::iperf_component(),
            App::Sqlite => flexos_apps::sqlite_component(),
        };
        tap.enter("system.build");
        let os = SystemBuilder::new((spec.config)()?).app(component).build();
        tap.exit();
        let os = os?;
        tap.enter("apps.install");
        let driver = Self::install(&os, spec.app, seed);
        tap.exit();
        Ok((os, driver?))
    }

    /// Host seconds [`LiveImage::bring_up`] spends before stream
    /// generation (build, install, preload, connect) on a throw-away
    /// image of `spec`, dropped outside the timing.
    ///
    /// # Errors
    ///
    /// Configuration or substrate faults.
    pub fn boot_seconds(spec: ImageSpec, seed: u64) -> Result<f64, Fault> {
        let start = Instant::now();
        let booted = Self::boot(spec, seed, &mut ())?;
        let secs = start.elapsed().as_secs_f64();
        drop(booted);
        Ok(secs)
    }

    /// Builds `spec`'s image and brings it to the point where the first
    /// measured request can be sent, with the stream generated from
    /// `seed`. Spans: `system.build`, `apps.install`,
    /// `harness.stream_gen`.
    ///
    /// # Errors
    ///
    /// Configuration or substrate faults.
    pub fn bring_up<T: Tap>(spec: ImageSpec, seed: u64, tap: &mut T) -> Result<LiveImage, Fault> {
        let (os, driver) = Self::boot(spec, seed, tap)?;
        tap.enter("harness.stream_gen");
        let stream = match spec.app {
            App::Redis { pipeline } => redis_stream(seed, pipeline),
            App::Nginx => nginx_stream(seed),
            App::Iperf => iperf_stream(seed),
            App::Sqlite => sqlite_stream(seed),
        };
        tap.exit();
        Ok(LiveImage {
            spec,
            os,
            stream,
            driver,
            cursor: 0,
            seed,
        })
    }

    fn install(os: &FlexOs, app: App, seed: u64) -> Result<Driver, Fault> {
        Ok(match app {
            App::Redis { .. } => {
                let server = install_redis(os)?;
                for i in 0..REDIS_PRELOADED {
                    let key = format!("key:{i}");
                    server.preload(&[(key.as_bytes(), redis_value(seed, i).as_bytes())])?;
                }
                let client = TcpClient::connect(&os.net, 50_000, REDIS_PORT)?;
                let conn = server.accept()?.ok_or_else(|| no_conn("redis"))?;
                Driver::Redis {
                    server,
                    client,
                    conn,
                }
            }
            App::Nginx => {
                let server = install_nginx(os)?;
                let client = TcpClient::connect(&os.net, 51_000, NGINX_PORT)?;
                let conn = server.accept()?.ok_or_else(|| no_conn("nginx"))?;
                Driver::Nginx {
                    server,
                    client,
                    conn,
                }
            }
            App::Iperf => {
                let server = install_iperf(os)?;
                let client = TcpClient::connect(&os.net, 52_000, IPERF_PORT)?;
                let conn = server.accept()?.ok_or_else(|| no_conn("iperf"))?;
                Driver::Iperf {
                    server,
                    client,
                    conn,
                }
            }
            App::Sqlite => {
                let db = install_sqlite(os)?;
                db.exec("CREATE TABLE kv (id INTEGER, body TEXT)")?;
                Driver::Sqlite { db, inserted: 0 }
            }
        })
    }

    /// Sends the next `ops` operations of the ring (rounded up to whole
    /// batches) and checks every reply. Spans, per batch: root
    /// `apps.request`, children `net.rx`, `apps.serve` and `net.drain`.
    ///
    /// # Errors
    ///
    /// Substrate faults. A wrong reply is not an error: it is counted in
    /// [`Drive::failed`] and the loop goes on.
    pub fn drive<T: Tap>(&mut self, ops: u64, tap: &mut T) -> Result<Drive, Fault> {
        let batches = ops.div_ceil(self.stream.ops_per_batch);
        let per_latency_batch = (LATENCY_BATCH / self.stream.ops_per_batch).max(1);
        let mut out = Drive {
            batch_us: Vec::with_capacity((batches / per_latency_batch) as usize + 1),
            ..Drive::default()
        };
        let cycles0 = self.os.cycles();
        let crossings0 = self.os.env.gates().total_crossings();
        let (allocs0, _) = host::thread_allocs();
        let start = Instant::now();
        let mut mark = start;
        for b in 0..batches {
            let (request, expected) = self.stream.batch(self.cursor);
            self.cursor = (self.cursor + 1) % self.stream.len();
            tap.root("apps.request", b);
            let ok = match &mut self.driver {
                Driver::Redis {
                    server,
                    client,
                    conn,
                } => {
                    let pipeline = self.stream.ops_per_batch;
                    exchange(tap, &self.os.net, client, request, expected, || {
                        let target = server.stats().commands + pipeline;
                        while server.stats().commands < target && server.serve_one(*conn)? {}
                        Ok(())
                    })?
                }
                Driver::Nginx {
                    server,
                    client,
                    conn,
                } => exchange(tap, &self.os.net, client, request, expected, || {
                    server.serve_one(*conn).map(drop)
                })?,
                Driver::Iperf {
                    server,
                    client,
                    conn,
                } => {
                    tap.enter("net.rx");
                    client.send(&self.os.net, request)?;
                    tap.exit();
                    tap.enter("apps.serve");
                    let drained = server.drain(*conn, IPERF_RECV_BUF)?;
                    tap.exit();
                    drained == request.len() as u64
                }
                Driver::Sqlite { db, inserted } => {
                    tap.enter("apps.serve");
                    let statement = std::str::from_utf8(request).expect("statements are ASCII");
                    let result = db.exec(statement)?;
                    tap.exit();
                    *inserted += 1;
                    result.changes == 1
                }
            };
            tap.exit();
            if !ok {
                out.failed += self.stream.ops_per_batch;
            }
            if (b + 1) % per_latency_batch == 0 {
                let now = Instant::now();
                out.batch_us.push((now - mark).as_secs_f64() as f32 * 1e6);
                mark = now;
            }
        }
        out.secs = start.elapsed().as_secs_f64();
        out.ops = batches * self.stream.ops_per_batch;
        out.cycles = self.os.cycles() - cycles0;
        out.crossings = self.os.env.gates().total_crossings() - crossings0;
        out.allocs = host::thread_allocs().0 - allocs0;
        out.failed += self.check_state(out.ops)?;
        Ok(out)
    }

    /// State checks a reply comparison cannot make: SQLite's table must
    /// hold exactly the rows inserted so far, and a seeded row must read
    /// back with the text its statement stored. Returns the operations
    /// to count as failed (all `ops` of the call when a check fails).
    fn check_state(&mut self, ops: u64) -> Result<u64, Fault> {
        let Driver::Sqlite { db, inserted } = &self.driver else {
            return Ok(0);
        };
        if *inserted == 0 {
            return Ok(0);
        }
        let count = db.exec("SELECT COUNT(*) FROM kv")?.count;
        let rowid = 1 + Rng::new(self.seed ^ *inserted, "sqlite-probe").below(*inserted);
        let row = db.exec(&format!("SELECT * FROM kv WHERE rowid = {rowid}"))?;
        let want = flexos_apps::sqlite::sql::Value::Text(sqlite_payload(
            self.seed,
            (rowid as usize - 1) % RING,
        ));
        let ok =
            count == Some(*inserted) && row.rows.len() == 1 && row.rows[0].get(1) == Some(&want);
        Ok(if ok { 0 } else { ops })
    }
}

/// Looks an image of [`STEADY_1CORE`] up by name.
///
/// # Panics
///
/// Panics on an unknown name — callers pass literals.
pub fn steady_image(name: &str) -> ImageSpec {
    *STEADY_1CORE
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no steady image named `{name}`"))
}
