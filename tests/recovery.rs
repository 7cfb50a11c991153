//! Resource budgets + supervisor recovery, end to end (ISSUE 8
//! acceptance): a hostile tenant exhausts its budgets, gets
//! quarantined and microrebooted, and the co-tenant never notices —
//! same replies, same cycles per operation, image never down.

use std::rc::Rc;

use flexos::prelude::*;
use flexos_apps::{redis::RedisServer, resp, workloads::install_redis_named, RedisEntries};
use flexos_attacks::{Attack, AttackOutcome};
use flexos_core::compartment::ResourceBudget;
use flexos_core::env::Work;
use flexos_machine::addr::Addr;
use flexos_machine::fault::FaultKind;
use flexos_net::client::TcpClient;

mod common;
use common::Rng;

/// The budget the hostile `net` compartment runs under.
const NET_BUDGET: ResourceBudget = ResourceBudget {
    heap_bytes: Some(2 * 1024 * 1024),
    cycles: Some(1_000_000),
    crossings: Some(100_000),
};

/// Builds the two-tenant image: redis-a/tenant-a, redis-b/tenant-b,
/// lwip alone in `net` (budgeted or not), on `cores` simulated vCPUs.
fn tenants_image_cores(net_budget: Option<ResourceBudget>, cores: usize) -> FlexOs {
    tenants_on(configs::mpk_tenants(net_budget).unwrap(), cores)
}

/// The two Redis tenants registered on `config`, on `cores` vCPUs.
fn tenants_on(config: SafetyConfig, cores: usize) -> FlexOs {
    let mut redis_a = flexos_apps::redis_component();
    redis_a.name = "redis-a".into();
    let mut redis_b = flexos_apps::redis_component();
    redis_b.name = "redis-b".into();
    SystemBuilder::new(config)
        .app(redis_a)
        .app(redis_b)
        .cores(cores)
        .build()
        .unwrap()
}

fn tenants_image(net_budget: Option<ResourceBudget>) -> FlexOs {
    tenants_image_cores(net_budget, 1)
}

/// One tenant's serving loop: preloaded key, live client connection.
struct Tenant {
    server: Rc<RedisServer>,
    client: TcpClient,
    conn: flexos_net::SocketHandle,
}

fn tenant_up(os: &FlexOs, component: &str, port: u16, client_port: u16) -> Tenant {
    let server = install_redis_named(os, component, port).unwrap();
    server.preload(&[(b"key:1", b"yyy")]).unwrap();
    let client = TcpClient::connect(&os.net, client_port, port).unwrap();
    let conn = server.accept().unwrap().expect("handshake queued");
    Tenant {
        server,
        client,
        conn,
    }
}

/// Serves `n` GETs on the tenant's connection and returns the raw
/// reply bytes — the stream the byte-identity claims are made over.
fn serve_gets(os: &FlexOs, tenant: &mut Tenant, n: u64) -> Vec<u8> {
    let request = resp::encode_request(&[b"GET", b"key:1"]);
    for _ in 0..n {
        tenant.client.send(&os.net, &request).unwrap();
        let target = tenant.server.stats().commands + 1;
        while tenant.server.stats().commands < target {
            assert!(tenant.server.serve_one(tenant.conn).unwrap());
        }
        tenant.client.drain(&os.net).unwrap();
    }
    let replies = tenant.client.received().to_vec();
    tenant.client.clear_received();
    replies
}

#[test]
fn hostile_tenant_is_blocked_rebooted_and_the_image_survives() {
    // Budgets ON: the acceptance demo. The hostile net compartment
    // carries NET_BUDGET; both tenants are unlimited.
    let os = tenants_image(Some(NET_BUDGET));
    let env = Rc::clone(&os.env);
    let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched));
    let mut a = tenant_up(&os, "redis-a", 6379, 50_000);
    let mut b = tenant_up(&os, "redis-b", 6380, 50_001);

    // Both tenants serve before the attack.
    env.reset_budget_usage();
    assert_eq!(serve_gets(&os, &mut a, 5), b"$3\r\nyyy\r\n".repeat(5));
    assert_eq!(serve_gets(&os, &mut b, 5), b"$3\r\nyyy\r\n".repeat(5));

    // The hostile tenant's DoS attempts are refused with the budget
    // fault, not absorbed by the shared substrate.
    env.reset_budget_usage();
    assert_eq!(
        Attack::AllocExhaustion.run(&os).unwrap(),
        AttackOutcome::Blocked {
            fault: FaultKind::BudgetExceeded
        }
    );
    env.reset_budget_usage();
    assert_eq!(
        Attack::CycleHog.run(&os).unwrap(),
        AttackOutcome::Blocked {
            fault: FaultKind::BudgetExceeded
        }
    );

    // The supervisor notices and microreboots the attacked (offending)
    // compartment — `net`, where the compromised lwip lives.
    let report = sup.poll().expect("budget faults trigger recovery");
    assert_eq!(report.compartment_name, "net");
    assert_eq!(report.trigger, Some(FaultKind::BudgetExceeded));
    assert!(report.latency_cycles > 0);
    let lwip = env.component_id("lwip").unwrap();
    assert!(!env.is_quarantined(env.compartment_of(lwip)));

    // Both tenants keep serving, byte-identical replies, through and
    // after the reboot.
    assert_eq!(serve_gets(&os, &mut a, 5), b"$3\r\nyyy\r\n".repeat(5));
    assert_eq!(serve_gets(&os, &mut b, 5), b"$3\r\nyyy\r\n".repeat(5));
}

#[test]
fn surviving_tenant_stream_and_throughput_match_the_unbudgeted_baseline() {
    // Parametrized over simulated core counts (PR 10): the recovery
    // path and the co-tenant byte-identity claim must hold unchanged
    // whether the image runs on 1, 2, or 4 vCPUs (the tenant loop stays
    // on core 0, so the claim is exact at every core count).
    for cores in [1usize, 2, 4] {
        // Baseline: budgets OFF, nobody attacks. Tenant B serves 40 GETs.
        let base_os = tenants_image_cores(None, cores);
        let _base_a = tenant_up(&base_os, "redis-a", 6379, 50_000);
        let mut base_b = tenant_up(&base_os, "redis-b", 6380, 50_001);
        let start = base_os.cycles();
        let base_replies = serve_gets(&base_os, &mut base_b, 40);
        let base_cycles = base_os.cycles() - start;

        // Attacked run: budgets ON, hostile lwip exhausts them mid-stream,
        // supervisor reboots `net` — tenant B's stream must not change.
        let os = tenants_image_cores(Some(NET_BUDGET), cores);
        let env = Rc::clone(&os.env);
        let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched));
        let _a = tenant_up(&os, "redis-a", 6379, 50_000);
        let mut b = tenant_up(&os, "redis-b", 6380, 50_001);
        env.reset_budget_usage();

        let start = os.cycles();
        let mut replies = serve_gets(&os, &mut b, 20);
        let serve_cycles_first = os.cycles() - start;

        // Mid-stream attack + recovery (refusals and the reboot run on the
        // supervisor/TCB side; the measured tenant path is untouched).
        let lwip = env.component_id("lwip").unwrap();
        let hog = env.run_as(lwip, || {
            env.observe(env.compute_checked(Work::cycles(NET_BUDGET.cycles.unwrap() + 1)))
        });
        assert!(matches!(hog, Err(Fault::BudgetExceeded { .. })));
        sup.poll().expect("recovery happened");

        let start = os.cycles();
        replies.extend(serve_gets(&os, &mut b, 20));
        let serve_cycles_second = os.cycles() - start;

        assert_eq!(
            replies, base_replies,
            "surviving tenant's reply stream must be byte-identical at {cores} core(s)"
        );
        // Budget charging is off the virtual clock and the reboot touched
        // only `net`: the co-tenant's cycles match the baseline exactly —
        // before and after the recovery.
        assert_eq!(
            serve_cycles_first + serve_cycles_second,
            base_cycles,
            "co-tenant throughput diverged at {cores} core(s)"
        );
    }
}

#[test]
fn crash_looping_compartment_is_evicted_after_the_restart_budget() {
    // PR 10 satellite: with a restart budget of 2, the third trigger
    // fault evicts the compartment — permanent quarantine instead of an
    // infinite reboot storm.
    let os = tenants_image(Some(NET_BUDGET));
    let env = Rc::clone(&os.env);
    let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched)).with_restart_budget(2);
    let lwip = env.component_id("lwip").unwrap();
    let net = env.compartment_of(lwip);
    let trip = || {
        let hog = env.run_as(lwip, || {
            env.observe(env.compute_checked(Work::cycles(NET_BUDGET.cycles.unwrap() + 1)))
        });
        assert!(matches!(hog, Err(Fault::BudgetExceeded { .. })));
    };

    // The first two faults are cured by microreboots, as before.
    for round in 1..=2u32 {
        trip();
        let report = sup.poll().expect("within the restart budget: reboot");
        assert_eq!(report.compartment_name, "net");
        assert_eq!(sup.reboot_count(net), round);
        assert!(!sup.is_evicted(net));
    }

    // The third exhausts the budget: no reboot, eviction instead.
    trip();
    assert!(sup.poll().is_none(), "budget exhausted: no more reboots");
    assert!(sup.is_evicted(net));
    assert_eq!(sup.evictions(), vec![net]);
    assert_eq!(sup.reboot_count(net), 2, "the evicting fault never reboots");
    assert!(env.is_quarantined(net), "eviction is permanent quarantine");

    // Gates refuse entry into the dead tenant from now on...
    let redis = os.component("redis-a").unwrap();
    env.run_as(redis, || {
        assert!(matches!(
            env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(()))
                .unwrap_err(),
            Fault::Quarantined { .. }
        ));
    });
    // ...and further fault bursts drain quietly: still no reboot, the
    // quarantine bit never clears.
    let _ = env.run_as(redis, || {
        env.observe(env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(())))
    });
    assert!(sup.poll().is_none());
    assert!(env.is_quarantined(net));
    assert_eq!(sup.reports().len(), 2);
}

#[test]
fn eviction_quarantines_on_an_unbudgeted_image_too() {
    // Quarantine is containment, not accounting: with no budget
    // anywhere in the image, an evicted compartment still refuses every
    // gate entry.
    let os = tenants_image(None);
    let env = Rc::clone(&os.env);
    let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched)).with_restart_budget(0);
    let lwip = env.component_id("lwip").unwrap();
    let net = env.compartment_of(lwip);
    let double_free = env
        .run_as(lwip, || {
            let addr = env.malloc(64)?;
            env.free(addr)?;
            Ok::<_, Fault>(env.observe(env.free(addr)))
        })
        .unwrap();
    assert!(matches!(double_free, Err(Fault::BadFree { .. })));
    assert!(sup.poll().is_none(), "no restart budget: eviction");
    assert!(sup.is_evicted(net));

    let redis = os.component("redis-a").unwrap();
    env.run_as(redis, || {
        assert!(matches!(
            env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(()))
                .unwrap_err(),
            Fault::Quarantined { .. }
        ));
    });
}

/// Small enough that the seeded mix below runs into every limit.
const LAW_BUDGET: ResourceBudget = ResourceBudget {
    heap_bytes: Some(24 * 1024),
    cycles: Some(40_000),
    crossings: Some(120),
};

#[test]
fn ledger_heap_bytes_are_the_live_granted_blocks_and_refusals_move_no_clock() {
    // Every compartment under LAW_BUDGET, a seeded mix of mallocs, frees
    // and gate calls from the three tenants, and one microreboot of
    // `net` halfway. After every step, each compartment's ledger heap
    // bytes must equal the granted sizes of the blocks the test still
    // holds there, read back through the allocator.
    let mut config = configs::mpk_tenants(Some(LAW_BUDGET)).unwrap();
    config.default_budget = Some(LAW_BUDGET);
    let os = tenants_on(config, 1);
    let env = Rc::clone(&os.env);
    let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched));
    let actors = ["redis-a", "redis-b", "lwip"].map(|name| os.component(name).unwrap());
    // Each actor gates into a registered entry point of another one.
    let targets = [
        os.net.entries().recv,
        RedisEntries::resolve(&env, actors[0]).handle,
        RedisEntries::resolve(&env, actors[1]).handle,
    ];
    let net = env.compartment_of(actors[2]);
    let mut held: Vec<Vec<Addr>> = vec![Vec::new(); actors.len()];
    let mut refusals = 0;
    let mut rng = Rng::new(0x1ed9_e7a1);
    for step in 0..1_500 {
        if step == 750 {
            sup.microreboot(net, None);
            held[2].clear();
        }
        if step % 250 == 0 {
            env.reset_budget_usage();
        }
        let actor = rng.range(0, 3) as usize;
        let me = actors[actor];
        let before = env.machine().clock().now();
        let outcome = env.run_as(me, || match rng.range(0, 4) {
            0 | 1 => env
                .malloc(rng.range(1, 3_000))
                .map(|addr| held[actor].push(addr)),
            2 if !held[actor].is_empty() => {
                let pick = rng.range(0, held[actor].len() as u64) as usize;
                let addr = held[actor].swap_remove(pick);
                env.free(addr)
            }
            _ => env.call_resolved(targets[actor], || Ok(())),
        });
        match outcome {
            Ok(()) => {}
            Err(Fault::BudgetExceeded { .. }) => {
                assert_eq!(
                    env.machine().clock().now(),
                    before,
                    "step {step}: a refusal moved the clock"
                );
                refusals += 1;
            }
            Err(other) => panic!("step {step}: unexpected fault {other}"),
        }
        for (actor, &component) in actors.iter().enumerate() {
            let heap = env.run_as(component, || env.heap());
            let live: u64 = held[actor]
                .iter()
                .map(|&addr| heap.borrow().size_of(addr).expect("a held block is live"))
                .sum();
            let dom = env.compartment_of(component);
            assert_eq!(
                env.budget_usage(dom).heap_bytes,
                live,
                "step {step}: {}",
                env.domain(dom).name
            );
        }
    }
    assert!(refusals > 0, "the mix never reached a limit");
}

#[test]
fn isolation_trio_still_holds_after_a_microreboot() {
    let os = tenants_image(Some(NET_BUDGET));
    let env = Rc::clone(&os.env);
    let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched));
    let redis = os.component("redis-a").unwrap();
    let lwip = env.component_id("lwip").unwrap();

    // Trip a budget fault and recover.
    env.run_as(lwip, || {
        let _ = env.observe(env.compute_checked(Work::cycles(2_000_000)));
    });
    let report = sup.poll().expect("recovery happened");
    assert_eq!(report.compartment_name, "net");

    // 1. Cross-compartment reads still fault.
    let secret = env
        .run_as(redis, || {
            let addr = env.malloc(64)?;
            env.mem_write(addr, b"post-reboot-secret")?;
            Ok::<_, Fault>(addr)
        })
        .unwrap();
    env.run_as(lwip, || {
        assert!(matches!(
            env.mem_read_vec(secret, 18).unwrap_err(),
            Fault::ProtectionKey { .. }
        ));
    });

    // 2. Gates are still the only legal entries — the replayed entry
    // surface is neither widened nor lost.
    env.run_as(redis, || {
        env.call_resolved(env.resolve(lwip, "lwip_recv"), || Ok(()))
            .unwrap();
        assert!(matches!(
            env.call_resolved(env.resolve(lwip, "lwip_internal_timer"), || Ok(()))
                .unwrap_err(),
            Fault::IllegalEntryPoint { .. }
        ));
    });

    // 3. The rebooted compartment's heap is fresh and serving: a new
    // allocation succeeds and is private to `net` again.
    let fresh = env.run_as(lwip, || env.malloc(4096)).unwrap();
    env.run_as(redis, || {
        assert!(matches!(
            env.mem_read_vec(fresh, 16).unwrap_err(),
            Fault::ProtectionKey { .. }
        ));
    });
    env.run_as(lwip, || env.free(fresh)).unwrap();
}

#[test]
fn budget_faults_populate_the_ring_and_window_resets_clear_usage() {
    let os = tenants_image(Some(NET_BUDGET));
    let env = Rc::clone(&os.env);
    let lwip = env.component_id("lwip").unwrap();
    let net = env.compartment_of(lwip);
    env.reset_budget_usage();

    // Overrun the cycle budget repeatedly: every refusal is observable
    // in the ring (bounded) and in the per-compartment refusal counter.
    for _ in 0..12 {
        let _ = env.run_as(lwip, || env.observe(env.check_budget()));
        env.run_as(lwip, || env.compute(Work::cycles(500_000)));
    }
    let _ = env.run_as(lwip, || env.observe(env.check_budget()));
    assert!(env.budget_refusals_of(net) > 0);
    let ring = env.observed_faults();
    assert!(!ring.is_empty() && ring.len() <= flexos_core::env::FAULT_RING_CAP);
    assert!(ring
        .iter()
        .all(|(id, kind)| { *id == lwip && *kind == FaultKind::BudgetExceeded }));

    // A window reset clears cycles and refusals; the next check passes.
    env.reset_budget_usage();
    assert_eq!(env.budget_refusals_of(net), 0);
    env.run_as(lwip, || env.check_budget()).unwrap();
    env.clear_observed_faults();
    assert!(env.observed_faults().is_empty());
}
