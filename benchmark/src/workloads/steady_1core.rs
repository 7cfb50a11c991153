//! `steady-1core`: seven long-lived single-core images, each driven by
//! a request stream pre-encoded from the seed.
//!
//! Request-bound: building the images is well under a thousandth of the
//! window, so work on image construction predicts *no change* here and
//! work on gates, the data path, the allocator or the applications must
//! show. Pipelined beside unpipelined Redis and bulk copy beside small
//! requests are in one set so that a gain for one use that costs
//! another is seen.

use std::time::Instant;

use flexos_machine::fault::Fault;

use super::images::{Drive, ImageSpec, LiveImage, LATENCY_BATCH, STEADY_1CORE};
use super::{Outcome, Plan, SETUP_REPEATS};
use crate::host;
use crate::json::Value;
use crate::spans::{Spans, Tap};
use crate::stats::{median, quantile};

/// Request batches per image recorded with spans in a trace run.
const TRACED_BATCHES: u64 = 1024;

fn round_ops(plan: &Plan, spec: &ImageSpec) -> u64 {
    plan.scaled(spec.ops_per_round, 1).div_ceil(LATENCY_BATCH) * LATENCY_BATCH
}

/// Brings one image up and sends it a tenth of a round as warm-up.
fn bring_up_warm<T: Tap>(
    spec: ImageSpec,
    plan: &Plan,
    tap: &mut T,
) -> Result<(LiveImage, Drive), Fault> {
    let mut image = LiveImage::bring_up(spec, plan.seed, tap)?;
    tap.enter("harness.warmup");
    let warm = image.drive(round_ops(plan, &spec) / 10, &mut ());
    tap.exit();
    Ok((image, warm?))
}

/// Brings the whole image set up, warmed. Returns the images and the
/// warm-up drives.
fn set_up<T: Tap>(plan: &Plan, tap: &mut T) -> Result<(Vec<LiveImage>, Vec<Drive>), Fault> {
    let mut images = Vec::with_capacity(STEADY_1CORE.len());
    let mut warmups = Vec::with_capacity(STEADY_1CORE.len());
    for spec in STEADY_1CORE {
        let (image, warm) = bring_up_warm(spec, plan, tap)?;
        images.push(image);
        warmups.push(warm);
    }
    Ok((images, warmups))
}

fn image_entry(image: &LiveImage, drive: &Drive) -> Value {
    Value::obj()
        .with("ops", drive.ops)
        .with("cycles", drive.cycles)
        .with("stream_digest", format!("{:016x}", image.stream.digest))
}

/// The untraced run: every end-to-end metric.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn run(plan: &Plan) -> Result<Outcome, Fault> {
    run_with(plan, |_| {})
}

/// [`run`], with `tamper` applied to each image once set-up is over.
/// The self-tests corrupt an expected reply through it, to see that a
/// wrong reply is counted and fails the run.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn run_with(plan: &Plan, mut tamper: impl FnMut(&mut LiveImage)) -> Result<Outcome, Fault> {
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set is dropped before the clock starts: teardown
        // is not set-up.
        drop(live.take());
        let start = Instant::now();
        let set = set_up(plan, &mut ())?;
        setup_s.push(start.elapsed().as_secs_f64());
        live = Some(set);
    }
    let (mut images, warmups) = live.expect("SETUP_REPEATS is at least 1");
    images.iter_mut().for_each(&mut tamper);

    let mut attempted: u64 = warmups.iter().map(|d| d.ops).sum();
    let mut failed: u64 = warmups.iter().map(|d| d.failed).sum();
    let mut round_s = Vec::new();
    let mut bringup_s = Vec::new();
    let mut image_s: Vec<Vec<f64>> = vec![Vec::new(); images.len()];
    let mut first_round: Vec<Drive> = Vec::new();
    let ops_per_round: u64 = STEADY_1CORE.iter().map(|s| round_ops(plan, s)).sum();
    let window = Instant::now();
    loop {
        // One sample per round of what bringing the set up costs, on
        // throw-away images: spread over the window like the rounds, so
        // a slow second of the host costs one sample here too.
        let mut bringup = 0.0;
        for spec in STEADY_1CORE {
            bringup += LiveImage::boot_seconds(spec, plan.seed)?;
        }
        bringup_s.push(bringup);
        let mut secs = 0.0;
        for (k, image) in images.iter_mut().enumerate() {
            if image.spec.fresh_each_round && !round_s.is_empty() {
                let (fresh, warm) = bring_up_warm(image.spec, plan, &mut ())?;
                attempted += warm.ops;
                failed += warm.failed;
                *image = fresh;
            }
            let drive = image.drive(round_ops(plan, &image.spec), &mut ())?;
            attempted += drive.ops;
            failed += drive.failed;
            secs += drive.secs;
            image_s[k].push(drive.secs);
            if round_s.is_empty() {
                first_round.push(drive);
            }
        }
        round_s.push(secs);
        if window.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
    }

    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    let mut per_image = Value::obj();
    let mut pinned = Value::obj();
    for ((image, drive), secs) in images.iter().zip(&first_round).zip(&image_s) {
        let ops = round_ops(plan, &image.spec);
        if drive.ops != ops {
            out.fail(format!(
                "{}: drove {} ops, asked {ops}",
                image.spec.name, drive.ops
            ));
        }
        pinned.set(image.spec.name, image_entry(image, drive));
        per_image.set(
            image.spec.name,
            Value::obj()
                .with("ops_per_round", ops)
                .with("ns_per_op_median", median(secs) * 1e9 / ops as f64)
                .with("cycles_per_op", drive.cycles as f64 / ops as f64),
        );
    }
    out.deterministic = Value::obj()
        .with("any_seed", Value::obj())
        .with("this_seed", pinned);
    out.metric("setup_s", median(&setup_s));
    out.metric("points_per_s", images.len() as f64 / median(&bringup_s));
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

/// The trace run: one untraced round for the per-image numbers, then
/// [`TRACED_BATCHES`] batches per image with spans around each layer
/// call. Returns the workload-path per-layer metrics.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn trace(plan: &Plan, spans: &mut Spans) -> Result<Outcome, Fault> {
    spans.enter_root("harness.setup", 0);
    let set = set_up(plan, spans);
    spans.exit();
    let (mut images, warmups) = set?;
    let mut out = Outcome {
        attempted: warmups.iter().map(|d| d.ops).sum(),
        failed: warmups.iter().map(|d| d.failed).sum(),
        ..Outcome::default()
    };
    let mut samples = Value::obj();
    let (mut untraced_ns, mut traced_ns) = (0.0, 0.0);
    let mut traced_ops = 0u64;
    for image in &mut images {
        let name = image.spec.name;
        let plain = image.drive(round_ops(plan, &image.spec), &mut ())?;
        let per_op = |x: f64| x / plain.ops as f64;
        out.metric(&format!("apps.ns_per_op.{name}"), per_op(plain.secs * 1e9));
        out.metric(
            &format!("apps.cycles_per_op.{name}"),
            per_op(plain.cycles as f64),
        );
        out.metric(
            &format!("apps.allocs_per_op.{name}"),
            per_op(plain.allocs as f64),
        );
        out.metric(
            &format!("core.crossings_per_op.{name}"),
            per_op(plain.crossings as f64),
        );
        let batches: Vec<f64> = plain.batch_us.iter().map(|&us| f64::from(us)).collect();
        out.metric(&format!("apps.batch_p50_us.{name}"), median(&batches));
        out.metric(
            &format!("apps.batch_p99_us.{name}"),
            quantile(&batches, 0.99),
        );
        samples.set(
            name,
            Value::obj()
                .with("ops", plain.ops)
                .with("batches", batches.len()),
        );

        let traced_count = plan.scaled(TRACED_BATCHES, 16) * image.stream.ops_per_batch;
        let traced = image.drive(traced_count, spans)?;
        traced_ops += traced.ops;
        untraced_ns += per_op(plain.secs * 1e9);
        traced_ns += traced.secs * 1e9 / traced.ops as f64;
        out.attempted += plain.ops + traced.ops;
        out.failed += plain.failed + traced.failed;
    }
    // Only the traced drives above record these spans (warm-up is
    // untraced), so their totals are the traced windows'.
    let per_traced_op = |span: &str| spans.total_s(span) * 1e9 / traced_ops as f64;
    out.metric("net.rx_ns_per_op", per_traced_op("net.rx"));
    out.metric("apps.serve_ns_per_op", per_traced_op("apps.serve"));
    out.metric("net.drain_ns_per_op", per_traced_op("net.drain"));
    // Mean over images of traced ÷ untraced host time per operation.
    out.metric("harness.trace_overhead_ratio", traced_ns / untraced_ns);
    out.details = Value::obj()
        .with("traced_ops", traced_ops)
        .with("samples", samples);
    Ok(out)
}
