//! Code-level assertion for the zero-allocation claim on the resolved
//! call path (ISSUE 2 acceptance criterion): `Env::call_resolved` through
//! a [`CallTarget`] performs **zero** heap allocations — no `String`, no
//! `Vec`, no `RefCell<GateTable>`-style boxing — once the target is
//! resolved.
//!
//! A counting global allocator wraps the system allocator; the test
//! drives thousands of cross-compartment calls through every MPK gate
//! flavour and asserts the allocation counter never moves.
//!
//! The counters are **per thread** (const-initialised `thread_local!`
//! `Cell`s: no allocation, no lock, no destructor), because libtest runs
//! the tests of this file on parallel threads and a process-wide counter
//! lets one test's build show up in another's measured window. Each
//! test's simulation stays on its own thread, so every assertion here is
//! exact at any `--test-threads`.
//!
//! The same counters gate what a *build* costs (`build_cost_*` below):
//! exact byte counts, no timing, so a change that brings per-image
//! recomputation back fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use flexos::prelude::*;
use flexos_alloc::{Heap, HeapState};
use flexos_apps::workloads::{preload_keyspace, run_redis_bench, RedisBench};
use flexos_apps::RedisServer;
use flexos_core::compartment::DataSharing;
use flexos_machine::addr::PAGE_SIZE;
use flexos_machine::key::Pkru;
use flexos_sweep::{SpaceSpec, SweepPoint, Workload};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static SEQUENCE: Cell<u64> = const { Cell::new(FNV_OFFSET) };
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Counts one allocator call of `bytes` new bytes against the calling
/// thread.
fn count(bytes: usize, asked: Layout) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
    fold(b'+', asked);
}

/// Folds one request (`+`) or release (`-`) of `layout` into the
/// thread's FNV-1a digest of its allocator traffic: what the host heap's
/// state after a build and its drop is a function of.
fn fold(what: u8, layout: Layout) {
    SEQUENCE.with(|c| {
        let mut digest = c.get();
        let words = [layout.size() as u64, layout.align() as u64];
        for byte in std::iter::once(what).chain(words.into_iter().flat_map(u64::to_le_bytes)) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        c.set(digest);
    });
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees are this allocator's; the counting
// touches only `Cell`s in thread-local storage and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        fold(b'-', layout);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(
            new_size.saturating_sub(layout.size()),
            Layout::from_size_align(new_size, layout.align()).unwrap_or(layout),
        );
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes requested from the allocator by the calling thread so far.
fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

fn assert_call_path_alloc_free(sharing: DataSharing, gate_cycles: u64) {
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], sharing).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let env = std::rc::Rc::clone(&os.env);
    let app = os.app_ids[0];
    let lwip = env.component_id("lwip").unwrap();

    // Resolve once (may intern — that is the build-time half).
    let cross = env.resolve(lwip, "lwip_poll");
    let direct = env.resolve(app, "redis_main");

    env.run_as(app, || {
        // Warm both paths so lazy one-time work is off the measured loop.
        env.call_resolved(cross, || Ok(())).unwrap();
        let _ = env.call_resolved(direct, || Ok(()));

        let before = allocations();
        let t0 = env.machine().clock().now();
        for _ in 0..10_000 {
            env.call_resolved(cross, || Ok(())).unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "cross-compartment call path allocated ({sharing:?} gate)"
        );
        // Figure 11b's calibrated charge, end to end through a built
        // image and the resolved path.
        assert_eq!(
            env.machine().clock().now() - t0,
            10_000 * gate_cycles,
            "virtual cycles per {sharing:?} crossing"
        );

        let before = allocations();
        for _ in 0..10_000 {
            let _ = env.call_resolved(direct, || Ok(()));
        }
        assert_eq!(
            allocations() - before,
            0,
            "same-compartment call path allocated"
        );
    });
    assert_eq!(env.gates().total_crossings(), 10_001);
}

#[test]
fn resolved_mpk_dss_calls_do_not_allocate() {
    assert_call_path_alloc_free(DataSharing::Dss, 108);
}

#[test]
fn resolved_mpk_light_calls_do_not_allocate() {
    assert_call_path_alloc_free(DataSharing::SharedStack, 62);
}

#[test]
fn steady_state_redis_get_is_allocation_free_end_to_end() {
    // The whole data path of ISSUE 3: client frame framing and NIC
    // injection, lwip poll/parse/ring-push, the libc's blocking recv,
    // RESP parse, the dict probe (rights-checked compare + value read),
    // reply build, send, and the client's drain+ACK — all through reused
    // buffers and pooled frames. After warm-up, a GET must not touch the
    // host heap at all.
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let server = flexos_apps::workloads::install_redis(&os).unwrap();
    server.preload(&[(b"key:1", b"yyy")]).unwrap();
    let mut client =
        flexos_net::TcpClient::connect(&os.net, 50_000, flexos_apps::redis::REDIS_PORT).unwrap();
    let conn = server.accept().unwrap().expect("handshake queues conn");
    let request = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);

    let run_one = |client: &mut flexos_net::TcpClient| {
        client.send(&os.net, &request).unwrap();
        server.serve_one(conn).unwrap();
        client.drain(&os.net).unwrap();
        assert_eq!(client.received(), b"$3\r\nyyy\r\n", "GET must hit");
        client.clear_received();
    };
    // Warm every reusable buffer, scratch Vec, and the NIC frame pool,
    // and sweep the 64 KiB socket ring through one full wrap so all of
    // its zero-fill-on-demand pages are materialized (each page faults
    // in — one host allocation — the first time the ring cursor crosses
    // it, exactly like anonymous memory faulting in on first touch).
    for _ in 0..3000 {
        run_one(&mut client);
    }
    let before = allocations();
    for _ in 0..200 {
        run_one(&mut client);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state Redis GET allocated on the host heap"
    );
}

#[test]
fn steady_state_nginx_get_is_allocation_free_end_to_end() {
    // The nginx twin of the test above, on the all-hardened `mpk2` image
    // the benchmark's `nginx-mpk2-hard` drives, over its request mix:
    // both spellings of the welcome page and a miss. The parsed request
    // borrows method and path from the pending buffer, the `Connection`
    // header is matched without lower-casing a copy, and the response
    // head and the 404 are rendered into the server's reused buffers.
    let hardened: Vec<(&str, Hardening)> = [
        "nginx", "newlib", "uksched", "lwip", "vfscore", "ramfs", "uktime",
    ]
    .into_iter()
    .map(|component| (component, Hardening::FIG6_BUNDLE))
    .collect();
    let config = configs::with_component_hardening(
        configs::mpk2(&["lwip"], DataSharing::Dss).unwrap(),
        &hardened,
    );
    let os = SystemBuilder::new(config)
        .app(flexos_apps::nginx_component())
        .build()
        .unwrap();
    let server = flexos_apps::workloads::install_nginx(&os).unwrap();
    let mut client =
        flexos_net::TcpClient::connect(&os.net, 51_000, flexos_apps::nginx::NGINX_PORT).unwrap();
    let conn = server.accept().unwrap().expect("handshake queues conn");
    let page = flexos_apps::http::welcome_page();
    let mut ok = flexos_apps::http::response_head(page.len(), true);
    ok.extend_from_slice(&page);
    let not_found = flexos_apps::http::response_404();
    let exchanges: Vec<(Vec<u8>, &[u8])> = [
        ("/", &ok[..]),
        ("/index.html", &ok[..]),
        ("/missing-7.html", &not_found[..]),
    ]
    .into_iter()
    .map(|(path, reply)| {
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: flexos\r\nConnection: keep-alive\r\n\r\n");
        (request.into_bytes(), reply)
    })
    .collect();

    let run_one = |client: &mut flexos_net::TcpClient, i: usize| {
        let (request, reply) = &exchanges[i % exchanges.len()];
        client.send(&os.net, request).unwrap();
        server.serve_one(conn).unwrap();
        client.drain(&os.net).unwrap();
        assert_eq!(client.received(), *reply, "exchange {i}");
        client.clear_received();
    };
    // Warm-up as for Redis: reusable buffers, the frame pool, and one
    // full wrap of the socket rings.
    for i in 0..3000 {
        run_one(&mut client, i);
    }
    let before = allocations();
    for i in 0..300 {
        run_one(&mut client, i);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state nginx GET allocated on the host heap"
    );
}

#[test]
fn steady_state_budgeted_redis_get_is_allocation_free() {
    // ISSUE 8: budget *charging* rides the same hot path — the malloc
    // quota pre-check, the gate's crossings/cycles pre-check, and the
    // post-charge are all `Cell` arithmetic over boot-built vectors.
    // With budgets enabled on every compartment, a steady-state GET
    // must remain host-allocation-free (the enforcement is literally
    // free until a limit trips).
    let mut config = configs::mpk2(&["lwip"], DataSharing::Dss).unwrap();
    config.default_budget = Some(flexos_core::compartment::ResourceBudget {
        heap_bytes: Some(8 * 1024 * 1024),
        cycles: Some(1 << 40),
        crossings: Some(1 << 30),
    });
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    assert!(os.env.budget_enabled(), "budgets must actually be armed");
    let server = flexos_apps::workloads::install_redis(&os).unwrap();
    server.preload(&[(b"key:1", b"yyy")]).unwrap();
    let mut client =
        flexos_net::TcpClient::connect(&os.net, 50_000, flexos_apps::redis::REDIS_PORT).unwrap();
    let conn = server.accept().unwrap().expect("handshake queues conn");
    let request = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);

    let run_one = |client: &mut flexos_net::TcpClient| {
        client.send(&os.net, &request).unwrap();
        server.serve_one(conn).unwrap();
        client.drain(&os.net).unwrap();
        assert_eq!(client.received(), b"$3\r\nyyy\r\n", "GET must hit");
        client.clear_received();
    };
    for _ in 0..3000 {
        run_one(&mut client);
    }
    let lwip = os.env.component_id("lwip").unwrap();
    let net_comp = os.env.compartment_of(lwip);
    let charged_before = os.env.budget_usage(net_comp).cycles;
    let before = allocations();
    for _ in 0..200 {
        run_one(&mut client);
    }
    assert_eq!(
        allocations() - before,
        0,
        "budget-charged steady-state Redis GET allocated on the host heap"
    );
    assert!(
        os.env.budget_usage(net_comp).cycles > charged_before,
        "the measured loop must actually charge the budget"
    );
}

#[test]
fn resolved_ept_rpc_calls_do_not_allocate() {
    // The EPT crossing hook drives a full shared-memory RPC round trip
    // (ring push, server pop, legality check, completion) per gate
    // traversal. Since the dense-state rework it is one `RefCell`
    // borrow over precomputed vectors — the ring PKRU, the `EntryId` →
    // hash table, and the sorted legal-entry rows are all built at
    // boot — so the crossing performs zero host allocations.
    let os = SystemBuilder::new(configs::ept2(&["lwip"]).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let env = std::rc::Rc::clone(&os.env);
    let app = os.app_ids[0];
    let lwip = env.component_id("lwip").unwrap();
    let cross = env.resolve(lwip, "lwip_poll");
    env.run_as(app, || {
        // Warm: first ring touches fault in their zero-fill pages.
        env.call_resolved(cross, || Ok(())).unwrap();
        let before = allocations();
        let t0 = env.machine().clock().now();
        for _ in 0..10_000 {
            env.call_resolved(cross, || Ok(())).unwrap();
        }
        assert_eq!(
            allocations() - before,
            0,
            "EPT RPC crossing allocated on the host heap"
        );
        assert_eq!(
            env.machine().clock().now() - t0,
            10_000 * 462,
            "virtual cycles per EPT RPC crossing"
        );
    });
    assert_eq!(env.gates().total_crossings(), 10_001);
}

#[test]
fn steady_state_redis_get_over_ept_is_allocation_free_end_to_end() {
    // The EPT twin of the MPK test above: the whole GET data path plus
    // one RPC-ring round trip per crossing must stay off the host heap.
    let os = SystemBuilder::new(configs::ept2(&["lwip"]).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let server = flexos_apps::workloads::install_redis(&os).unwrap();
    server.preload(&[(b"key:1", b"yyy")]).unwrap();
    let mut client =
        flexos_net::TcpClient::connect(&os.net, 50_000, flexos_apps::redis::REDIS_PORT).unwrap();
    let conn = server.accept().unwrap().expect("handshake queues conn");
    let request = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);

    let run_one = |client: &mut flexos_net::TcpClient| {
        client.send(&os.net, &request).unwrap();
        server.serve_one(conn).unwrap();
        client.drain(&os.net).unwrap();
        assert_eq!(client.received(), b"$3\r\nyyy\r\n", "GET must hit");
        client.clear_received();
    };
    for _ in 0..3000 {
        run_one(&mut client);
    }
    let before = allocations();
    for _ in 0..200 {
        run_one(&mut client);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state Redis GET over EPT allocated on the host heap"
    );
}

#[test]
fn steady_state_uniform_get_miss_mix_is_allocation_free() {
    // The KeyPattern::Uniform axis mixes hits with `$-1` misses. The
    // named workload first (its debug assertions pin every reply to
    // the pattern), then the zero-alloc claim on a manual loop: the
    // *server-side* miss path — probe, empty-bucket stop, `$-1` reply
    // build, send — must stay off the host heap just like the hit
    // path. (Uniform-mode request *construction* is client/host-side
    // and allocates by design, so the measured loop prebuilds the
    // request bytes.)
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let metrics = flexos_apps::workloads::run_redis_bench(
        &os,
        flexos_apps::workloads::RedisBench {
            keyspace: 3,
            pipeline: 2,
            pattern: flexos_apps::workloads::KeyPattern::Uniform { space: 8, seed: 42 },
            warmup: 64,
            measured: 128,
        },
    )
    .unwrap();
    assert_eq!(metrics.ops, 128);

    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let server = flexos_apps::workloads::install_redis(&os).unwrap();
    server
        .preload(&[(b"key:0", b"xxx"), (b"key:1", b"yyy"), (b"key:2", b"zzz")])
        .unwrap();
    let mut client =
        flexos_net::TcpClient::connect(&os.net, 50_000, flexos_apps::redis::REDIS_PORT).unwrap();
    let conn = server.accept().unwrap().expect("handshake queues conn");

    // Six key indices over a 3-key keyspace: half the stream misses.
    let requests: Vec<Vec<u8>> = (0..6u8)
        .map(|i| flexos_apps::resp::encode_request(&[b"GET", format!("key:{i}").as_bytes()]))
        .collect();
    let replies: [&[u8]; 6] = [
        b"$3\r\nxxx\r\n",
        b"$3\r\nyyy\r\n",
        b"$3\r\nzzz\r\n",
        b"$-1\r\n",
        b"$-1\r\n",
        b"$-1\r\n",
    ];
    let mut step = 0usize;
    let mut run_one = |client: &mut flexos_net::TcpClient| {
        let i = step % 6;
        step += 1;
        client.send(&os.net, &requests[i]).unwrap();
        server.serve_one(conn).unwrap();
        client.drain(&os.net).unwrap();
        assert_eq!(client.received(), replies[i], "key:{i} reply");
        client.clear_received();
    };
    for _ in 0..3000 {
        run_one(&mut client);
    }
    let before = allocations();
    for _ in 0..200 {
        run_one(&mut client);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state uniform GET (hit/miss mix) allocated on the host heap"
    );
    assert!(server.stats().misses > 0, "the stream must actually miss");
}

#[test]
fn forged_val_len_faults_via_the_length_cap_without_allocating() {
    // Attack-adjacent corruption on the reply path: forge a bucket's
    // `val_len` to u32::MAX in simulated memory. The next GET must die
    // in `mem_read_into`'s length cap (`OutOfBounds`) *before* the
    // reply buffer resizes — a forged length must not become a host
    // allocation, let alone a 4 GiB one.
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let server = flexos_apps::workloads::install_redis(&os).unwrap();
    server.preload(&[(b"key:1", b"yyy")]).unwrap();
    let mut client =
        flexos_net::TcpClient::connect(&os.net, 50_000, flexos_apps::redis::REDIS_PORT).unwrap();
    let conn = server.accept().unwrap().expect("handshake queues conn");
    let request = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);

    // Reach steady state first so every reusable buffer is warm.
    for _ in 0..3000 {
        client.send(&os.net, &request).unwrap();
        server.serve_one(conn).unwrap();
        client.drain(&os.net).unwrap();
        assert_eq!(client.received(), b"$3\r\nyyy\r\n");
        client.clear_received();
    }

    // Corrupt the bucket's val_len field in place.
    let bucket = server
        .with_dict(|d| d.bucket_of(b"key:1"))
        .unwrap()
        .expect("key:1 is preloaded");
    let redis = server.component_id();
    os.env
        .run_as(redis, || {
            os.env.mem_write(
                bucket + flexos_apps::dict::Dict::VAL_LEN_OFFSET,
                &u32::MAX.to_le_bytes(),
            )
        })
        .unwrap();

    let before = allocations();
    client.send(&os.net, &request).unwrap();
    let err = server.serve_one(conn).unwrap_err();
    assert!(matches!(err, Fault::OutOfBounds { .. }), "got {err}");
    assert_eq!(
        allocations() - before,
        0,
        "the forged length must fault before any host allocation"
    );
}

#[test]
fn disabled_tracing_keeps_the_get_path_alloc_free_and_cycle_exact() {
    // ISSUE 9: the tracer is compiled into every image — `Env`'s gate,
    // malloc, and fault paths all carry `tracer().record(..)` calls.
    // Disabled (the default), that must cost one `Cell` read and a
    // branch: the steady-state GET stays host-allocation-free, and the
    // virtual clock lands on *exactly* the same cycle as an identical
    // run with the ring recording — events never advance the clock.
    let build = || {
        SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
            .app(flexos_apps::redis_component())
            .build()
            .unwrap()
    };
    let drive = |os: &flexos::system::FlexOs, measure_allocs: bool| -> u64 {
        let server = flexos_apps::workloads::install_redis(os).unwrap();
        server.preload(&[(b"key:1", b"yyy")]).unwrap();
        let mut client =
            flexos_net::TcpClient::connect(&os.net, 50_000, flexos_apps::redis::REDIS_PORT)
                .unwrap();
        let conn = server.accept().unwrap().expect("handshake queues conn");
        let request = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);
        let run_one = |client: &mut flexos_net::TcpClient| {
            client.send(&os.net, &request).unwrap();
            server.serve_one(conn).unwrap();
            client.drain(&os.net).unwrap();
            assert_eq!(client.received(), b"$3\r\nyyy\r\n", "GET must hit");
            client.clear_received();
        };
        for _ in 0..3000 {
            run_one(&mut client);
        }
        let before = allocations();
        for _ in 0..200 {
            run_one(&mut client);
        }
        if measure_allocs {
            assert_eq!(
                allocations() - before,
                0,
                "tracing-compiled-in-but-disabled GET allocated on the host heap"
            );
        }
        os.cycles()
    };

    let untraced = build();
    assert!(!untraced.env.machine().tracer().is_enabled());
    let untraced_cycles = drive(&untraced, true);

    let traced = build();
    traced
        .env
        .machine()
        .tracer()
        .enable(flexos::trace::TraceConfig::default());
    let traced_cycles = drive(&traced, false);
    assert!(
        !traced.env.machine().tracer().is_empty(),
        "the traced twin must actually record events"
    );
    assert_eq!(
        untraced_cycles, traced_cycles,
        "tracing must never advance the virtual clock"
    );
}

#[test]
fn str_wrapper_resolves_without_allocating_after_first_use() {
    // A caller holding only a name re-resolves through the intern table
    // each call: one hash lookup, no allocation once the name is interned.
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let env = std::rc::Rc::clone(&os.env);
    let app = os.app_ids[0];
    let lwip = env.component_id("lwip").unwrap();
    env.run_as(app, || {
        env.call_resolved(env.resolve(lwip, "lwip_poll"), || Ok(()))
            .unwrap();
        let before = allocations();
        for _ in 0..1_000 {
            env.call_resolved(env.resolve(lwip, "lwip_poll"), || Ok(()))
                .unwrap();
        }
        assert_eq!(
            allocations() - before,
            0,
            "resolving an interned name allocated"
        );
    });
}

/// Bytes and allocator calls `f` costs the calling thread.
fn cost_of<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes, calls) = (allocated_bytes(), allocations());
    let out = f();
    (out, allocated_bytes() - bytes, allocations() - calls)
}

#[test]
fn build_cost_of_a_machine_is_independent_of_its_memory_size() {
    // Warm the thread's shared byte-cost table: it is built once, not per
    // machine.
    drop(Machine::new(Machine::DEFAULT_MEM_BYTES));
    let (machine, bytes, _) = cost_of(|| Machine::new(Machine::DEFAULT_MEM_BYTES));
    assert!(
        bytes <= 16 * 1024,
        "Machine::new(256 MiB) allocated {bytes} bytes: a frame table or cost table per machine is back"
    );
    assert_eq!(machine.memory_bytes(), Machine::DEFAULT_MEM_BYTES);
}

#[test]
fn build_cost_of_an_mpk_image_is_bounded_and_does_not_grow() {
    let build = || {
        SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
            .app(flexos_apps::redis_component())
            .build()
            .unwrap()
    };
    // The first build on a thread also pays the once-per-thread work:
    // the W^X scan of each component's text and the byte-cost table.
    let (first, first_bytes, first_calls) = cost_of(build);
    drop(first);
    let (second, second_bytes, second_calls) = cost_of(build);
    assert!(
        second_bytes <= 256 * 1024 && second_calls <= 400,
        "an mpk2 Redis build allocated {second_bytes} bytes in {second_calls} calls: \
         a build composes no names, copies no descriptor strings and pays \
         host memory per page written, not per page mapped"
    );
    assert!(
        second_bytes <= first_bytes && second_calls <= first_calls,
        "a repeated build must not cost more than the first: \
         {second_bytes} B / {second_calls} calls after {first_bytes} B / {first_calls} calls"
    );
    drop(second);
    let (_third, third_bytes, third_calls) = cost_of(build);
    assert_eq!(
        (third_bytes, third_calls),
        (second_bytes, second_calls),
        "builds of one configuration on a warm thread cost the same, exactly"
    );
}

#[test]
fn build_cost_of_an_8_vcpu_image_is_priced_by_pages_written() {
    // Eight vCPUs map eight times the heaps, stacks and memory of one —
    // 73 816 pages for an mpk2 Redis image — and a build writes none of
    // them: it costs a key byte per mapped page, not a frame-table entry.
    let build = || {
        SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
            .app(flexos_apps::redis_component())
            .cores(8)
            .build()
            .unwrap()
    };
    drop(build()); // the once-per-thread work
    let (_os, bytes, calls) = cost_of(build);
    assert!(
        bytes <= 512 * 1024,
        "an 8-vCPU mpk2 Redis build allocated {bytes} bytes in {calls} calls"
    );
}

/// An all-hardened `mpk3` Redis image: every compartment's heap under
/// KASan, three sharing groups, every placement kind.
fn build_all_hardened_mpk3() -> FlexOs {
    let mut config = configs::mpk3(&["lwip"], &["vfscore"], DataSharing::Dss).unwrap();
    for compartment in &mut config.compartments {
        compartment.hardening = Hardening::FIG6_BUNDLE;
    }
    SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap()
}

const SEQUENCE_LINE: &str = "build-alloc-sequence";

/// Not a test of its own: the child-process half of the test below.
/// Prints the allocator-call count of a thread's first build and of a
/// warm one, each with the digest of the `(size, align)` sequence the
/// build requested and its drop released.
#[test]
#[ignore = "helper: run by builds_allocate_the_same_sequence_in_every_process"]
fn print_build_alloc_sequence() {
    for pass in ["first", "warm"] {
        SEQUENCE.with(|c| c.set(FNV_OFFSET));
        let (os, _, calls) = cost_of(build_all_hardened_mpk3);
        drop(os);
        let digest = SEQUENCE.with(Cell::get);
        println!("{SEQUENCE_LINE} {pass} calls={calls} digest={digest:016x}");
    }
}

#[test]
fn builds_allocate_the_same_sequence_in_every_process() {
    // A build's host cost depends on the heap's history, and a build
    // that iterates a `RandomState`-hashed table makes that history —
    // which sizes are requested in which order — differ from process to
    // process. Every table on the build path is dense or ordered, so two
    // processes must request — and, dropping the image, release — the
    // same sizes in the same order, exactly.
    let sequence_of_a_fresh_process = || {
        let exe = std::env::current_exe().expect("the test binary has a path");
        let out = std::process::Command::new(exe)
            .args(["--ignored", "--exact", "print_build_alloc_sequence"])
            .args(["--nocapture", "--test-threads=1"])
            .output()
            .expect("the test binary runs");
        assert!(out.status.success(), "helper failed: {out:?}");
        let lines: Vec<String> = String::from_utf8(out.stdout)
            .expect("helper prints ASCII")
            .lines()
            // libtest's own `test NAME ... ` shares the first line.
            .filter_map(|line| Some(line[line.find(SEQUENCE_LINE)?..].to_string()))
            .collect();
        assert_eq!(lines.len(), 2, "helper prints a first and a warm build");
        lines
    };
    let (one, other) = (sequence_of_a_fresh_process(), sequence_of_a_fresh_process());
    assert_eq!(
        one, other,
        "two processes built one configuration differently"
    );
}

#[test]
fn build_cost_of_an_all_hardened_image_does_not_include_its_heaps_capacity() {
    // Three KASan-hardened compartments, each over a 16 MiB heap: a shadow
    // filled at build would be 2 MiB apiece. The shadow is sized by what
    // the heap has handed out, which at build time is next to nothing.
    let build = build_all_hardened_mpk3;
    drop(build()); // the once-per-thread work
    let (os, bytes, calls) = cost_of(build);
    for name in ["redis", "lwip", "vfscore"] {
        let component = os.env.component_id(name).unwrap();
        let hardened = os
            .env
            .run_as(component, || os.env.heap().borrow().kasan_enabled());
        assert!(hardened, "{name}'s compartment heap runs under KASan");
    }
    assert!(
        bytes <= 1024 * 1024,
        "an all-hardened mpk3 Redis build allocated {bytes} bytes in {calls} calls: \
         a per-heap KASan shadow sized by capacity is back"
    );
}

/// The keyspace every Redis-1024 sweep point preloads.
const KEYSPACE: u64 = 1024;

/// A fresh build of `config` at `cores` cores with a Redis server
/// installed on `core`, on a port of its own, so `run_redis_bench` can
/// install the benchmark's servers beside it afterwards.
fn redis_image(config: &SafetyConfig, cores: usize, core: usize) -> (FlexOs, Rc<RedisServer>) {
    let os = SystemBuilder::new(config.clone())
        .app(flexos_apps::redis_component())
        .cores(cores)
        .build()
        .unwrap();
    os.env.switch_core(core);
    let server = flexos_apps::workloads::install_redis_named(&os, "redis", 7000).unwrap();
    (os, server)
}

/// The redis compartment's heap on an image.
fn redis_heap(os: &FlexOs, server: &RedisServer) -> Rc<RefCell<Heap>> {
    os.env.run_as(server.component_id(), || os.env.heap())
}

/// Every core's clock on an image.
fn core_clocks(os: &FlexOs) -> Vec<u64> {
    let machine = os.env.machine();
    (0..os.env.machine().num_cores())
        .map(|c| machine.core_clock(c).now())
        .collect()
}

/// Asserts that two images hold the same keyspace preload in everything
/// later work can observe but the clocks, which the key lookups advance.
fn assert_same_preload(
    label: &str,
    (a, server_a): &(FlexOs, Rc<RedisServer>),
    (b, server_b): &(FlexOs, Rc<RedisServer>),
) {
    let comp = a.env.compartment_of(server_a.component_id());
    assert_eq!(
        a.env.heap_stats_of(comp),
        b.env.heap_stats_of(comp),
        "{label}: heap statistics"
    );
    {
        let (heap_a, heap_b) = (redis_heap(a, server_a), redis_heap(b, server_b));
        let (heap_a, heap_b) = (heap_a.borrow(), heap_b.borrow());
        // The whole state: the allocator's blocks and free lists, the KASan
        // shadow and quarantine, the counters.
        assert!(
            heap_a.state() == heap_b.state(),
            "{label}: heap state (block list, KASan shadow)"
        );
        let region = heap_a.region();
        let (memory_a, memory_b) = (a.env.machine().memory(), b.env.machine().memory());
        let (mut page_a, mut page_b) = ([0u8; PAGE_SIZE], [0u8; PAGE_SIZE]);
        for at in (0..region.len())
            .step_by(PAGE_SIZE)
            .map(|o| region.base() + o)
        {
            memory_a.read(at, &mut page_a, &Pkru::ALL_ACCESS).unwrap();
            memory_b.read(at, &mut page_b, &Pkru::ALL_ACCESS).unwrap();
            assert!(page_a == page_b, "{label}: heap bytes at {at}");
        }
    }
    for i in 0..KEYSPACE {
        let key = format!("key:{i}");
        let bucket = server_a.with_dict(|d| d.bucket_of(key.as_bytes())).unwrap();
        assert!(bucket.is_some(), "{label}: {key} is preloaded");
        assert_eq!(
            bucket,
            server_b.with_dict(|d| d.bucket_of(key.as_bytes())).unwrap(),
            "{label}: {key}'s bucket"
        );
    }
}

/// What a keyspace preload reads of an image with Redis installed,
/// beyond the keyspace and the (default) cost model: the redis heap's
/// whole state, which fixes where the dict sits, and redis's hardening.
/// The heap's region is the same in every image of `full`.
fn redis_heap_key(point: &SweepPoint) -> (HeapState, Hardening) {
    let (os, server) = redis_image(&point.config, 1, 0);
    let state = redis_heap(&os, &server).borrow().state().clone();
    (state, point.config.hardening_of("redis"))
}

#[test]
fn keyspace_preload_is_one_call_that_simulates_one_preload_per_key() {
    // `preload_keyspace` renders every key into one buffer and makes one
    // `RedisServer::preload` call. It must be the preload: on twin
    // images, one preloaded key by key through single-pair
    // `RedisServer::preload`s and one by the call must agree on every
    // clock, the heap's whole state, every byte of its region, every
    // key's bucket and the benchmark loop run next. The call stays one
    // call's worth of host allocations (per key, the preload was a
    // `format!` and a call: 1169–1204 allocator calls).
    //
    // Covered: one image for each redis-heap state the Redis-1024 shapes
    // of `full` reach, and one 2-core image preloading on core 1.
    let redis_1024 = Workload::RedisGet {
        keyspace: KEYSPACE as u32,
        pipeline: 1,
    };
    let full = SpaceSpec::full(0, 0);
    let mut keys: Vec<((HeapState, Hardening), SweepPoint)> = Vec::new();
    for i in (0..full.len()).filter(|&i| full.shape(i).workload == redis_1024) {
        let point = full.point(i);
        let key = redis_heap_key(&point);
        if !keys.iter().any(|(k, _)| *k == key) {
            keys.push((key, point));
        }
    }
    assert_eq!(
        keys.len(),
        6,
        "TLSF or Lea × KASan heap or not × hardened redis or not"
    );

    let first = keys[0].1.clone();
    let cases = keys
        .into_iter()
        .map(|(_, point)| (point, 1, 0))
        .chain([(first, 2, 1)]);
    for (point, cores, core) in cases {
        let label = format!("{point} at {cores} cores");
        let images: [_; 2] = std::array::from_fn(|_| redis_image(&point.config, cores, core));
        let [preloaded, twin] = &images;
        let ((), _, calls) = cost_of(|| preload_keyspace(&preloaded.1, KEYSPACE).unwrap());
        assert!(
            calls < 256,
            "{label}: the preload made {calls} allocator calls"
        );
        preload_key_by_key(&twin.1);
        assert_eq!(
            core_clocks(&preloaded.0),
            core_clocks(&twin.0),
            "{label}: clocks"
        );
        assert_same_preload(&label, preloaded, twin);
        let bench = RedisBench {
            keyspace: KEYSPACE,
            warmup: 4,
            measured: 16,
            ..RedisBench::default()
        };
        let [a, b] = images
            .each_ref()
            .map(|(os, _)| run_redis_bench(os, bench).unwrap());
        assert_eq!(a, b, "{label}: the benchmark loop run next");
    }
}

/// `key:0..KEYSPACE` as 1024 single-pair preloads, in key order.
fn preload_key_by_key(server: &RedisServer) {
    for i in 0..KEYSPACE {
        let value = [b'x' + (i % 3) as u8; 3];
        server
            .preload(&[(format!("key:{i}").as_bytes(), &value)])
            .unwrap();
    }
}

#[test]
fn installing_redis_does_not_materialise_its_empty_dict() {
    // The dict's bucket array is 512 KiB of simulated zeros. Zeroing it
    // must cost neither a host buffer of that size nor the 128 frames
    // under it: a frame that was never written already reads as zeros.
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let (server, bytes, calls) = cost_of(|| flexos_apps::workloads::install_redis(&os).unwrap());
    assert!(
        bytes <= 64 * 1024,
        "install_redis allocated {bytes} bytes in {calls} calls"
    );
    drop(server);
}

#[test]
fn a_warm_section_5_fold_allocates_only_its_two_result_vectors() {
    // A priced point is arithmetic on its shape: once the fold's classes
    // are recorded, sweeping its 1 000 points (every eighth of `full`, so
    // every workload) costs the slot vector and
    // the result vector, whatever the points. Decoding a shape costs
    // nothing, on uniform and per-compartment spaces alike, and building
    // a point's config costs at most its three collections.
    let full = SpaceSpec::full(1, 4);
    let fold: Vec<usize> = (0..full.len()).step_by(8).collect();
    flexos_sweep::run_indices(&full, &fold, 1).unwrap();
    let (results, _, calls) = cost_of(|| flexos_sweep::run_indices(&full, &fold, 1).unwrap());
    assert_eq!(results.len(), fold.len());
    assert_eq!(
        calls, 2,
        "a warm 1 000-point fold made {calls} allocator calls"
    );

    let profiled = SpaceSpec::full_profiled(1, 4);
    for spec in [&full, &profiled] {
        let (_, _, calls) = cost_of(|| {
            for i in (0..spec.len()).step_by(spec.len() / 8000) {
                std::hint::black_box(spec.shape(i));
            }
        });
        assert_eq!(calls, 0, "{}: decoding shapes allocated", spec.name);
    }
    for i in 0..full.len() {
        let (point, _, calls) = cost_of(|| full.point(i));
        assert!(
            calls <= 3,
            "{point}: building its config made {calls} calls"
        );
    }
}

#[test]
fn a_warm_lazy_fold_allocates_a_pinned_number_of_times() {
    // One fold of the benchmark's lazy space (`full-profiled` restricted
    // to one Redis shape and nginx: every 36th of its 62 208 points),
    // swept with the primary budget and the six-level Pareto ladder.
    // After a warming pass every class is recorded, so the count is the
    // lazy engine's own bookkeeping: per scope one relation and its
    // chain cover (a vector per chain), per classification its status
    // and unknown sets and one result vector per round, plus the
    // measurement batches and the outcome — 3 276 calls for 1 728
    // points. A per-pair or per-propagation allocation, a per-batch set
    // or a second build of a scope's relation moves it.
    let mut spec = SpaceSpec::full_profiled(1, 4);
    spec.workloads = vec![
        Workload::RedisGet {
            keyspace: 1024,
            pipeline: 4,
        },
        Workload::NginxGet,
    ];
    let fold: Vec<usize> = (0..spec.len()).step_by(36).collect();
    assert_eq!(fold.len(), 1728);
    let cfg = flexos_sweep::LazyConfig {
        threads: 1,
        budgets: flexos_sweep::BudgetVector::uniform(0.8),
        verify_inference: false,
        pareto_fracs: vec![0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
    };
    let warm = flexos_sweep::lazy_sweep(&spec, &fold, &cfg, None).unwrap();
    let (outcome, _, calls) =
        cost_of(|| flexos_sweep::lazy_sweep(&spec, &fold, &cfg, None).unwrap());
    assert_eq!(outcome.stats, warm.stats);
    assert_eq!(
        calls, 3276,
        "a warm lazy fold ({:?}) made {calls} allocator calls",
        outcome.stats
    );
}
