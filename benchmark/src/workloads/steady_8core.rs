//! `steady-8core`: four images on simulated SMP, through the
//! repository's public sharded drivers.
//!
//! The same gate, network and application layers as `steady-1core`, but
//! through the core multiplexer, the IPI and the contention-window
//! paths. Eight cores and two are both measured, because a gate-path
//! specialisation or a merge of the twin drivers that helps one core
//! count and hurts the other shows only then.
//!
//! The sharded driver is private to `flexos_apps`, so an image is driven
//! by one call — `run_redis_bench` / `run_nginx_gets` on a multi-core
//! instance — that installs the per-core shards, connects 32 clients per
//! shard, warms up and measures. It cannot be called twice on one
//! instance, so every round builds its images afresh, outside the timed
//! calls. The hot-key pattern is used because its batch is built once;
//! the uniform pattern formats a key per request inside the call. The
//! request stream is therefore the same for every seed: what the seed
//! draws here is the order of the images within a round.

use std::time::Instant;

use flexos_apps::workloads::{run_nginx_gets, run_redis_bench, RedisBench, RunMetrics};
use flexos_core::compartment::DataSharing;
use flexos_core::config::SafetyConfig;
use flexos_machine::fault::Fault;
use flexos_system::{configs, FlexOs, SystemBuilder};

use super::{Outcome, Plan, SETUP_REPEATS};
use crate::host;
use crate::json::Value;
use crate::rng::Rng;
use crate::spans::{Spans, Tap};
use crate::stats::{median, quantile};

/// One multi-core image and the request count that sizes its call.
#[derive(Debug, Clone, Copy)]
pub struct SmpImage {
    /// Name used in metric names.
    pub name: &'static str,
    /// `true` for nginx, `false` for Redis.
    pub nginx: bool,
    /// The safety configuration.
    pub config: fn() -> Result<SafetyConfig, Fault>,
    /// Simulated cores.
    pub cores: usize,
    /// Measured requests *per core*; a tenth as many warm up.
    pub measured: u64,
}

/// The four `steady-8core` images.
pub const STEADY_8CORE: [SmpImage; 4] = [
    SmpImage {
        name: "redis-mpk2-c8",
        nginx: false,
        config: || configs::mpk2(&["lwip"], DataSharing::Dss),
        cores: 8,
        measured: 48_000,
    },
    SmpImage {
        name: "redis-ept2-c8",
        nginx: false,
        config: || configs::ept2(&["lwip"]),
        cores: 8,
        measured: 32_000,
    },
    SmpImage {
        name: "nginx-mpk2-c8",
        nginx: true,
        config: || configs::mpk2(&["lwip"], DataSharing::Dss),
        cores: 8,
        measured: 36_000,
    },
    SmpImage {
        name: "redis-mpk2-c2",
        nginx: false,
        config: || configs::mpk2(&["lwip"], DataSharing::Dss),
        cores: 2,
        measured: 192_000,
    },
];

fn build<T: Tap>(image: &SmpImage, tap: &mut T) -> Result<FlexOs, Fault> {
    let component = if image.nginx {
        flexos_apps::nginx_component()
    } else {
        flexos_apps::redis_component()
    };
    tap.enter("system.build");
    let os = SystemBuilder::new((image.config)()?)
        .app(component)
        .cores(image.cores)
        .build();
    tap.exit();
    os
}

/// The one public call that installs, connects, warms up and measures.
/// Returns the virtual metrics and the host seconds.
fn drive<T: Tap>(
    image: &SmpImage,
    os: &FlexOs,
    measured: u64,
    tap: &mut T,
) -> Result<(RunMetrics, f64), Fault> {
    let start = Instant::now();
    tap.enter("apps.install_drive");
    let metrics = if image.nginx {
        run_nginx_gets(os, measured / 10, measured)
    } else {
        run_redis_bench(
            os,
            RedisBench {
                warmup: measured / 10,
                measured,
                ..RedisBench::default()
            },
        )
    };
    tap.exit();
    Ok((metrics?, start.elapsed().as_secs_f64()))
}

fn measured_of(plan: &Plan, image: &SmpImage) -> u64 {
    plan.scaled(image.measured, 20)
}

/// The seed's draw: the order images take within every round.
fn image_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..STEADY_8CORE.len()).collect();
    Rng::new(seed, "smp-image-order").shuffle(&mut order);
    order
}

/// Set-up: the four images built, and a twentieth of a round driven
/// through each to fault in what the timed calls will touch.
fn set_up<T: Tap>(plan: &Plan, tap: &mut T) -> Result<(), Fault> {
    for image in &STEADY_8CORE {
        let os = build(image, tap)?;
        tap.enter("harness.warmup");
        let warm = drive(image, &os, measured_of(plan, image) / 20, &mut ());
        tap.exit();
        warm?;
    }
    Ok(())
}

fn pinned(order: &[usize], first_round: &[Option<RunMetrics>]) -> (Value, Value) {
    let mut any_seed = Value::obj();
    for (image, m) in STEADY_8CORE.iter().zip(first_round) {
        let m = m.expect("a complete round measures every image");
        any_seed.set(
            image.name,
            Value::obj().with("ops", m.ops).with("cycles", m.cycles),
        );
    }
    let names: Vec<Value> = order.iter().map(|&k| STEADY_8CORE[k].name.into()).collect();
    (any_seed, Value::obj().with("order", names))
}

/// The untraced run: every end-to-end metric.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn run(plan: &Plan) -> Result<Outcome, Fault> {
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        set_up(plan, &mut ())?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let order = image_order(plan.seed);

    let mut out = Outcome::default();
    let mut round_s = Vec::new();
    let mut build_s = Vec::new();
    let mut image_s: Vec<Vec<f64>> = vec![Vec::new(); STEADY_8CORE.len()];
    let mut first_round: Vec<Option<RunMetrics>> = vec![None; STEADY_8CORE.len()];
    let mut ops_per_round = 0u64;
    let window = Instant::now();
    loop {
        let (mut secs, mut building) = (0.0, 0.0);
        for &k in &order {
            let image = &STEADY_8CORE[k];
            let start = Instant::now();
            let os = build(image, &mut ())?;
            building += start.elapsed().as_secs_f64();
            let measured = measured_of(plan, image);
            let (m, s) = drive(image, &os, measured, &mut ())?;
            out.attempted += m.ops;
            secs += s;
            image_s[k].push(s);
            match first_round[k] {
                None => {
                    ops_per_round += m.ops;
                    first_round[k] = Some(m);
                    if m.ops != measured * image.cores as u64 {
                        out.failed += m.ops;
                        out.fail(format!("{}: measured {} ops", image.name, m.ops));
                    }
                }
                // The stream is fixed, so every round must repeat the
                // first cycle for cycle.
                Some(first) if first != m => {
                    out.failed += m.ops;
                    out.fail(format!("{}: a later round's cycles differ", image.name));
                }
                Some(_) => {}
            }
        }
        round_s.push(secs);
        build_s.push(building);
        if window.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
    }

    let (any_seed, this_seed) = pinned(&order, &first_round);
    out.deterministic = Value::obj()
        .with("any_seed", any_seed)
        .with("this_seed", this_seed);
    let mut per_image = Value::obj();
    for (image, secs) in STEADY_8CORE.iter().zip(&image_s) {
        let ops = (measured_of(plan, image) * image.cores as u64) as f64;
        per_image.set(
            image.name,
            Value::obj()
                .with("ops_per_round", ops)
                .with("ns_per_op_median", median(secs) * 1e9 / ops),
        );
    }
    out.metric("setup_s", median(&setup_s));
    out.metric("points_per_s", STEADY_8CORE.len() as f64 / median(&build_s));
    out.metric("sim_ops_per_s", ops_per_round as f64 / median(&round_s));
    out.metric("peak_rss_mib", host::peak_rss_mib());
    out.details = Value::obj()
        .with("setup_repeats", SETUP_REPEATS)
        .with("rounds", round_s.len())
        .with("ops_per_round", ops_per_round)
        .with("round_s_median", median(&round_s))
        .with("round_s_p90", quantile(&round_s, 0.9))
        .with(
            "round_s",
            round_s.iter().map(|&s| Value::Num(s)).collect::<Vec<_>>(),
        )
        .with("images", per_image);
    Ok(out)
}

/// The trace run: one round untraced and one with spans around the
/// build and the driver call of each image.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn trace(plan: &Plan, spans: &mut Spans) -> Result<Outcome, Fault> {
    spans.enter_root("harness.setup", 0);
    let ready = set_up(plan, spans);
    spans.exit();
    ready?;
    let mut out = Outcome::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for (k, &i) in image_order(plan.seed).iter().enumerate() {
        let image = &STEADY_8CORE[i];
        let measured = measured_of(plan, image);
        let os = build(image, &mut ())?;
        let (plain, secs) = drive(image, &os, measured, &mut ())?;
        plain_s += secs;
        let name = image.name;
        out.metric(
            &format!("apps.ns_per_op.{name}"),
            secs * 1e9 / plain.ops as f64,
        );
        out.metric(&format!("apps.cycles_per_op.{name}"), plain.cycles_per_op);

        spans.enter_root("harness.image", k as u64);
        let os = build(image, spans)?;
        let (traced, secs) = drive(image, &os, measured, spans)?;
        spans.within("system.drop", || drop(os));
        spans.exit();
        traced_s += secs;
        out.attempted += plain.ops + traced.ops;
        if plain != traced {
            out.failed += traced.ops;
            out.fail(format!(
                "{name}: the traced call's cycles differ from the untraced one's"
            ));
        }
    }
    out.metric("harness.trace_overhead_ratio", traced_s / plain_s);
    Ok(out)
}
