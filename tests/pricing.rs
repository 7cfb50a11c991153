//! The pricing law: a one-core point that `engine::run_point` prices from
//! its hardening class equals the point simulated, bit for bit — and the
//! cases the engine must not price never are.
//!
//! Every test here shares one process-wide class table, as a sweep does.
//! Each class is first primed from a seeded random member (its recorded
//! run), then every point is run through `run_point` and compared with
//! `engine::simulate_point`, which never prices.

use std::collections::HashMap;
use std::rc::Rc;

use flexos::prelude::*;
use flexos::sweep::{engine, PointShape, SpaceSpec};
use flexos_apps::workloads::{run_redis_bench, run_redis_gets, RedisBench};
use flexos_core::compartment::{DataSharing, ResourceBudget};
use flexos_core::env::{Env, Work};
use flexos_machine::trace::TraceConfig;
use flexos_machine::xorshift64star;
use flexos_mpk::MpkBackend;

/// Request counts: the sweep's in release, a tenth of them in debug.
const COUNTS: (u64, u64) = if cfg!(debug_assertions) {
    (2, 20)
} else {
    (20, 200)
};

/// A point's shape with its hardening mask and index cleared: the points
/// one recorded run may price (classes also split on KASan heaps).
fn mask_free(mut shape: PointShape) -> PointShape {
    shape.index = 0;
    shape.hardening_mask = 0;
    shape
}

/// Primes every class among `indices` from a seeded random member, then
/// checks that each point's `run_point` result equals its simulation.
/// Returns how many points were checked.
fn priced_equals_simulated(spec: &SpaceSpec, indices: &[usize], seed: u64) -> usize {
    let mut groups: HashMap<PointShape, Vec<usize>> = HashMap::new();
    for &i in indices {
        groups.entry(mask_free(spec.shape(i))).or_default().push(i);
    }
    let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
    groups.sort();
    let mut rng = seed | 1;
    for group in &mut groups {
        // Every ordering of a group's masks primes some class first.
        for k in (1..group.len()).rev() {
            group.swap(k, (xorshift64star(&mut rng) % (k as u64 + 1)) as usize);
        }
        for &i in group.iter() {
            engine::run_point(spec, i).unwrap();
        }
    }
    for &i in indices {
        let priced = engine::run_point(spec, i).unwrap();
        let simulated = engine::simulate_point(spec, i).unwrap();
        assert_eq!(priced, simulated, "point {i}: {}", spec.label_of(i));
    }
    indices.len()
}

/// A seeded stride of at least `n` points of `spec`.
fn stride(spec: &SpaceSpec, n: usize, seed: u64) -> Vec<usize> {
    let step = spec.len() / n;
    let offset = (seed as usize) % step;
    (0..n).map(|k| offset + k * step).collect()
}

#[test]
fn quick_with_all_sixteen_masks_prices_exactly() {
    let mut spec = SpaceSpec::quick(COUNTS.0, COUNTS.1);
    spec.hardening_masks = (0..16).collect();
    let all: Vec<usize> = (0..spec.len()).collect();
    assert_eq!(priced_equals_simulated(&spec, &all, 0x51), 2176);
}

#[test]
fn figure_6_spaces_price_exactly() {
    for app in ["redis", "nginx"] {
        let spec = SpaceSpec::fig6(app, COUNTS.0, COUNTS.1);
        let all: Vec<usize> = (0..spec.len()).collect();
        assert_eq!(priced_equals_simulated(&spec, &all, 0xF16), 80);
    }
}

#[test]
fn strides_of_full_and_full_profiled_price_exactly() {
    let full = SpaceSpec::full(COUNTS.0, COUNTS.1);
    assert_eq!(
        priced_equals_simulated(&full, &stride(&full, 1000, 7), 0xF0),
        1000
    );
    let profiled = SpaceSpec::full_profiled(COUNTS.0, COUNTS.1);
    assert_eq!(
        priced_equals_simulated(&profiled, &stride(&profiled, 1000, 11), 0xF1),
        1000
    );
}

#[test]
fn two_core_points_are_never_priced() {
    // At two cores most classes break the law: a priced point would
    // differ from its simulation here.
    let mut spec = SpaceSpec::quick(COUNTS.0, COUNTS.1);
    spec.workloads.truncate(3);
    spec.mechanisms.truncate(1);
    spec.allocators.truncate(1);
    spec.hardening_masks = (0..16).collect();
    spec.cores = vec![2];
    let all: Vec<usize> = (0..spec.len()).collect();
    priced_equals_simulated(&spec, &all, 0x2C);
}

/// Each app's component names in registry order, from one image built
/// for it.
fn registered_names() -> HashMap<&'static str, Vec<String>> {
    let apps = [
        ("redis", flexos_apps::redis_component()),
        ("nginx", flexos_apps::nginx_component()),
        ("iperf", flexos_apps::iperf_component()),
    ];
    apps.into_iter()
        .map(|(app, component)| {
            let os = SystemBuilder::new(SafetyConfig::none())
                .app(component)
                .build()
                .unwrap();
            let names = os.env.registry().iter().map(|(_, c)| c.name.to_string());
            (app, names.collect())
        })
        .collect()
}

#[test]
fn the_shape_reads_kasan_heaps_and_surcharges_as_the_config_does() {
    // The class key and the price read a point's hardening from its
    // shape; the image builder reads it from the built config
    // (`SafetyConfig::kasan_heaps`, `hardening_of`). Over every point of
    // `quick` and `full` and a seeded stride of `full-profiled`, the two
    // must agree on which heaps run KASan and on what the flags add to a
    // window, for seeded per-flag cycles.
    let names = registered_names();
    let mut rng = 0x6A5_u64;
    let per_flag: HashMap<&str, Vec<[u64; 4]>> = names
        .iter()
        .map(|(&app, names)| {
            let rows = names
                .iter()
                .map(|_| std::array::from_fn(|_| xorshift64star(&mut rng) % (1 << 20)))
                .collect();
            (app, rows)
        })
        .collect();
    let (quick, full) = (SpaceSpec::quick(0, 0), SpaceSpec::full(0, 0));
    let profiled = SpaceSpec::full_profiled(0, 0);
    let cases = [
        (&quick, (0..quick.len()).collect::<Vec<_>>()),
        (&full, (0..full.len()).collect()),
        (&profiled, stride(&profiled, 5000, 0x6A5)),
    ];
    let mut hardened = 0;
    for (spec, indices) in cases {
        for i in indices {
            let point = spec.point(i);
            let app = point.workload.app();
            let registered = || names[app].iter().map(String::as_str);
            let rows = &per_flag[app];
            assert_eq!(
                point.kasan_heaps(registered()),
                point.config.kasan_heaps(registered()),
                "{} point {i}: {point}",
                spec.name
            );
            let by_config: u64 = registered()
                .zip(rows)
                .map(|(name, row)| {
                    let h = point.config.hardening_of(name);
                    [h.cfi, h.kasan, h.ubsan, h.stack_protector]
                        .iter()
                        .zip(row)
                        .map(|(&on, &cycles)| u64::from(on) * cycles)
                        .sum::<u64>()
                })
                .sum();
            assert_eq!(
                point.surcharge(registered(), rows),
                by_config,
                "{} point {i}: {point}",
                spec.name
            );
            hardened += usize::from(by_config > 0);
        }
    }
    assert!(hardened > 4000, "only {hardened} points carry a surcharge");
}

fn hardened_redis(config: SafetyConfig) -> FlexOs {
    SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap()
}

fn mpk3_all_hardened() -> SafetyConfig {
    let mut config = configs::mpk3(&["uksched"], &["lwip"], DataSharing::Dss).unwrap();
    for c in &mut config.compartments {
        c.hardening = Hardening::FIG6_BUNDLE;
    }
    config
}

#[test]
fn a_traced_or_budgeted_image_records_nothing() {
    let run = |os: &FlexOs| os.env.record_hardening(|| run_redis_gets(os, 2, 20));
    let plain = hardened_redis(mpk3_all_hardened());
    let (_, rows) = run(&plain).unwrap();
    let rows = rows.expect("an untraced, unbudgeted run records");
    assert!(rows.iter().any(|row| row.iter().any(|&c| c > 0)));

    let traced = hardened_redis(mpk3_all_hardened());
    traced.env.machine().tracer().enable(TraceConfig::default());
    assert_eq!(run(&traced).unwrap().1, None, "traced");

    let mut config = mpk3_all_hardened();
    config.default_budget = Some(ResourceBudget {
        heap_bytes: Some(1 << 30),
        ..ResourceBudget::UNLIMITED
    });
    let budgeted = hardened_redis(config);
    assert_eq!(run(&budgeted).unwrap().1, None, "budgeted");
}

#[test]
fn an_access_a_kasan_flag_would_report_voids_the_recording() {
    // Two components share a compartment, one KASan-hardened: the heap
    // runs KASan, and the other one's reads are not checked, but would be
    // under its own flag.
    let mut config = SafetyConfig::none();
    config
        .component_hardening
        .insert("lwip".into(), Hardening::FIG6_BUNDLE);
    let os = hardened_redis(config);
    let redis = os.component("redis").unwrap();
    let read_freed = || {
        os.env.run_as(redis, || {
            let block = os.env.malloc(64)?;
            os.env.free(block)?;
            os.env.mem_read(block, &mut [0; 8])
        })
    };
    let (_, rows) = os.env.record_hardening(read_freed).unwrap();
    assert_eq!(rows, None);
    // A run with every access in bounds records.
    let (_, rows) = os
        .env
        .record_hardening(|| {
            run_redis_bench(
                &os,
                RedisBench {
                    warmup: 2,
                    measured: 20,
                    ..RedisBench::default()
                },
            )
        })
        .unwrap();
    assert!(rows.is_some());
}

/// Hardening with bit 0 = CFI, 1 = KASan, 2 = UBSan, 3 = stack
/// protector: the column order of `Env::record_hardening`'s rows.
fn flags(bits: u8) -> Hardening {
    Hardening {
        cfi: bits & 1 != 0,
        kasan: bits & 2 != 0,
        ubsan: bits & 4 != 0,
        stack_protector: bits & 8 != 0,
    }
}

/// An image of three components: `a` and `b` share compartment 1, whose
/// heap runs KASan in every assignment because `b` is always
/// KASan-hardened; `c` is alone in compartment 2, never KASan-hardened.
fn three_components(a: Hardening, b: Hardening, c: Hardening) -> Rc<Env> {
    let config = SafetyConfig::builder()
        .compartment(CompartmentSpec::new("comp1", Mechanism::IntelMpk).default_compartment())
        .compartment(CompartmentSpec::new("comp2", Mechanism::IntelMpk))
        .place("c", "comp2")
        .harden_component("a", a)
        .harden_component("b", Hardening { kasan: true, ..b })
        .harden_component("c", Hardening { kasan: false, ..c })
        .build()
        .unwrap();
    let mut builder = ImageBuilder::new(Machine::new(Machine::DEFAULT_MEM_BYTES), config);
    for (name, entry) in [("a", "a_entry"), ("b", "b_entry"), ("c", "c_entry")] {
        let component = Component::new(name, ComponentKind::Kernel).with_entry_points(&[entry]);
        builder.register(component).unwrap();
    }
    builder.build(&[&MpkBackend::new()]).unwrap().env
}

/// As `a`: work, accesses to its own heap and to the shared heap, a
/// direct call into `b` and a gate entry into `c`, each callee doing
/// work too. Returns the cycles of the window.
fn touch_every_charge_site(env: &Env) -> Result<u64, Fault> {
    let id = |name| env.component_id(name).unwrap();
    let (a, b, c) = (id("a"), id("b"), id("c"));
    env.run_as(a, || {
        env.reset_counters();
        let t0 = env.machine().clock().now();
        env.compute(Work {
            cycles: 100,
            alu_ops: 7,
            frames: 5,
            indirect_calls: 3,
            mem_accesses: 11,
        });
        let own = env.malloc(64)?;
        env.mem_write(own, &[1; 16])?;
        env.mem_read(own, &mut [0; 8])?;
        let shared = env.malloc_shared(64)?;
        env.mem_write(shared, &[2; 16])?;
        env.mem_read(shared, &mut [0; 8])?;
        let callee_work = Work {
            cycles: 10,
            alu_ops: 2,
            frames: 1,
            indirect_calls: 1,
            mem_accesses: 3,
        };
        env.call_resolved(env.resolve(b, "b_entry"), || {
            env.compute(callee_work);
            Ok(())
        })?;
        env.call_resolved(env.resolve(c, "c_entry"), || {
            env.compute(callee_work);
            Ok(())
        })?;
        Ok(env.machine().clock().now() - t0)
    })
}

#[test]
fn one_recording_prices_every_flag_at_every_charge_site() {
    let recorded = three_components(Hardening::NONE, Hardening::NONE, Hardening::NONE);
    let (cycles, rows) = recorded
        .record_hardening(|| touch_every_charge_site(&recorded))
        .unwrap();
    let rows = rows.expect("a clean run records");
    let surcharge = |assignment: [Hardening; 3]| -> u64 {
        assignment
            .iter()
            .zip(&rows)
            .map(|(h, row)| {
                [h.cfi, h.kasan, h.ubsan, h.stack_protector]
                    .iter()
                    .zip(row)
                    .map(|(&on, &cycles)| u64::from(on) * cycles)
                    .sum::<u64>()
            })
            .sum()
    };
    let base = cycles - surcharge([Hardening::NONE, flags(0b0010), Hardening::NONE]);
    for a in 0..16 {
        for b in [0b0010, 0b1111] {
            for c in [0b0000, 0b1101] {
                let assignment = [flags(a), flags(b), flags(c)];
                let env = three_components(assignment[0], assignment[1], assignment[2]);
                assert_eq!(
                    touch_every_charge_site(&env).unwrap(),
                    base + surcharge(assignment),
                    "a {a:04b}, b {b:04b}, c {c:04b}"
                );
            }
        }
    }
}
