//! `explore-exhaustive`: the §5 sweep as users and CI run it — every
//! point of `SpaceSpec::full(20, 200)` built, driven and dropped, fold
//! by fold, with a star report per fold.
//!
//! Build-bound: an image is built and dropped for ~220 requests, so work
//! on image construction must show here and work on the request path
//! must not. The seed deals the 8000 points into stratified folds; a
//! pass never revisits a point, so a cache keyed on what points share
//! gets a real sweep's hit rate, not a replay's.

use std::collections::BTreeMap;
use std::time::Instant;

use std::rc::Rc;

use flexos_apps::iperf::IPERF_PORT;
use flexos_apps::nginx::NGINX_PORT;
use flexos_apps::redis::REDIS_PORT;
use flexos_apps::workloads::{install_iperf, install_nginx, install_redis};
use flexos_apps::{IperfServer, NginxServer, RedisServer};
use flexos_explore::Strategy;
use flexos_machine::cost::CostModel;
use flexos_machine::fault::Fault;
use flexos_net::{SocketHandle, TcpClient};
use flexos_sweep::{
    mechanism_rank, run_indices, star_report_vec, sweep_leq, BudgetVector, PointResult, PointShape,
    SpaceSpec, SweepPoint, Workload,
};
use flexos_system::{FlexOs, SystemBuilder};

use super::images::no_conn;
use super::{Outcome, Plan, SETUP_REPEATS};
use crate::host;
use crate::json::Value;
use crate::rng::{fnv1a_indices, fnv1a_words, hex, Rng, FNV_BASIS};
use crate::spans::Spans;
use crate::stats::{median, quantile};

/// Warm-up requests per point.
pub const WARMUP: u64 = 20;
/// Measured requests per point.
pub const MEASURED: u64 = 200;
/// Folds a pass over the space is dealt into (1000 points each).
pub const FOLDS: usize = 8;
/// Budget of the per-fold star report: a share of each workload's best.
pub const BUDGET: f64 = 0.8;

/// The swept space at the plan's scale.
pub fn space(plan: &Plan) -> SpaceSpec {
    SpaceSpec::full(plan.scaled(WARMUP, 1), plan.scaled(MEASURED, 2))
}

/// Position of a shape on the axes folds are stratified by.
pub fn stratum_of(spec: &SpaceSpec, shape: &PointShape) -> (usize, usize, u8) {
    let workload = spec
        .workloads
        .iter()
        .position(|w| *w == shape.workload)
        .expect("a shape's workload is on its spec's axis");
    let strategy = Strategy::ALL
        .iter()
        .position(|s| *s == shape.strategy)
        .expect("every strategy is in ALL");
    (workload, strategy, mechanism_rank(shape.mechanism))
}

/// Deals every point of `spec` into `folds` folds: points are grouped
/// into strata by `key`, shuffled within each stratum, and dealt round
/// robin across strata in key order — so every fold holds the same
/// share of every stratum, and two folds cost the same to within the
/// shuffle.
pub fn deal_folds<K: Ord>(
    spec: &SpaceSpec,
    folds: usize,
    rng: &mut Rng,
    key: impl Fn(&PointShape) -> K,
) -> Vec<Vec<usize>> {
    let mut strata: BTreeMap<K, Vec<usize>> = BTreeMap::new();
    for i in 0..spec.len() {
        strata.entry(key(&spec.shape(i))).or_default().push(i);
    }
    let mut out = vec![Vec::new(); folds];
    let mut next = 0usize;
    for stratum in strata.values_mut() {
        rng.shuffle(stratum);
        for &i in stratum.iter() {
            out[next % folds].push(i);
            next += 1;
        }
    }
    out
}

/// 16-bit fingerprint of one point's virtual result. `expected.json`
/// holds one per point of the space; a point's result is a pure function
/// of the point, so the table verifies any fold of any seed.
pub fn fingerprint(r: &PointResult) -> u16 {
    fnv1a_words(FNV_BASIS, &[r.index as u64, r.ops, r.cycles]) as u16
}

fn results_digest(results: &[PointResult]) -> u64 {
    results.iter().fold(FNV_BASIS, |h, r| {
        fnv1a_words(h, &[r.index as u64, r.ops, r.cycles])
    })
}

/// One unit of work: the fold swept by the engine on one worker, then
/// the star report over its results. Returns the results, the report's
/// `(surviving, stars)` as spec indices, and the host seconds.
type Unit = (Vec<PointResult>, Vec<usize>, Vec<usize>, f64);

fn run_unit(spec: &SpaceSpec, fold: &[usize]) -> Result<Unit, Fault> {
    let start = Instant::now();
    let results = run_indices(spec, fold, 1)?;
    let points: Vec<SweepPoint> = fold.iter().map(|&i| spec.point(i)).collect();
    let (_, report) = star_report_vec(&points, &results, &BudgetVector::uniform(BUDGET));
    let secs = start.elapsed().as_secs_f64();
    let to_spec = |local: &[usize]| local.iter().map(|&l| fold[l]).collect();
    Ok((
        results,
        to_spec(&report.surviving),
        to_spec(&report.stars),
        secs,
    ))
}

/// Checks one unit's outputs against what the harness can work out on
/// its own: the fingerprint table (when given), the survivors from the
/// budget's definition, and the stars as exactly the maximal survivors.
/// Returns a description of the first discrepancy.
fn check_unit(
    spec: &SpaceSpec,
    fold: &[usize],
    results: &[PointResult],
    surviving: &[usize],
    stars: &[usize],
    fingerprints: Option<&[u16]>,
) -> Result<(), String> {
    let requested = spec.measured;
    for (r, &i) in results.iter().zip(fold) {
        // Pipelined Redis points round the request count up to whole
        // batches of at most 16.
        if r.index != i || r.ops < requested || r.ops >= requested + 16 || r.cycles == 0 {
            return Err(format!(
                "point {i}: result index {} ops {} cycles {}",
                r.index, r.ops, r.cycles
            ));
        }
        if let Some(table) = fingerprints {
            if table.get(i) != Some(&fingerprint(r)) {
                return Err(format!(
                    "point {i} ({}): virtual result (ops {}, cycles {}) differs from expected.json",
                    spec.label_of(i),
                    r.ops,
                    r.cycles
                ));
            }
        }
    }
    let mut best: Vec<(Workload, f64)> = Vec::new();
    let shapes: Vec<PointShape> = fold.iter().map(|&i| spec.shape(i)).collect();
    for (shape, r) in shapes.iter().zip(results) {
        match best.iter_mut().find(|(w, _)| *w == shape.workload) {
            Some((_, b)) => *b = b.max(r.ops_per_sec),
            None => best.push((shape.workload, r.ops_per_sec)),
        }
    }
    let best_of = |w: Workload| {
        best.iter()
            .find(|(bw, _)| *bw == w)
            .map_or(f64::NAN, |b| b.1)
    };
    let want: Vec<usize> = shapes
        .iter()
        .zip(results)
        .filter(|(s, r)| r.ops_per_sec / best_of(s.workload) >= BUDGET)
        .map(|(s, _)| s.index)
        .collect();
    if want != surviving {
        return Err(format!(
            "star report kept {} survivors, the budget's definition gives {}",
            surviving.len(),
            want.len()
        ));
    }
    let survivors: Vec<SweepPoint> = surviving.iter().map(|&i| spec.point(i)).collect();
    for a in &survivors {
        let dominated = survivors
            .iter()
            .any(|b| a.index != b.index && sweep_leq(a, b));
        if dominated == stars.contains(&a.index) {
            return Err(format!(
                "point {} is {}maximal among survivors but the report says otherwise",
                a.index,
                if dominated { "not " } else { "" }
            ));
        }
    }
    Ok(())
}

fn set_up(plan: &Plan) -> (SpaceSpec, Vec<Vec<usize>>) {
    let spec = space(plan);
    let mut rng = Rng::new(plan.seed, "exhaustive-folds");
    let folds = deal_folds(&spec, FOLDS * plan.divisor as usize, &mut rng, |s| {
        stratum_of(&spec, s)
    });
    (spec, folds)
}

/// The untimed warm-up sweep of set-up: the `quick` space, thinned by
/// the plan's divisor.
pub fn warm_up(plan: &Plan) -> Result<(), Fault> {
    let quick = SpaceSpec::quick(plan.scaled(WARMUP, 1), plan.scaled(MEASURED, 2));
    let indices: Vec<usize> = (0..quick.len()).step_by(plan.divisor as usize).collect();
    run_indices(&quick, &indices, 1).map(|_| ())
}

/// The untraced run: every end-to-end metric.
///
/// `fingerprints` is the per-point table of `expected.json` (it pins
/// the 20 + 200 request counts, so scaled-down self-tests pass `None`).
///
/// # Errors
///
/// A fault in the warm-up sweep. A fault in a measured fold is counted
/// as failed operations instead.
pub fn run(plan: &Plan, fingerprints: Option<&[u16]>) -> Result<Outcome, Fault> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let set = set_up(plan);
        warm_up(plan)?;
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some(set);
    }
    let (spec, mut folds) = prepared.expect("SETUP_REPEATS is at least 1");

    let mut out = Outcome::default();
    let mut unit_s = Vec::new();
    let mut unit_ops_per_s = Vec::new();
    let mut pass = 0u64;
    let window = Instant::now();
    'window: loop {
        for fold in &folds {
            out.attempted += fold.len() as u64;
            match run_unit(&spec, fold) {
                Ok((results, surviving, stars, secs)) => {
                    if unit_s.is_empty() {
                        out.deterministic = Value::obj().with("any_seed", Value::obj()).with(
                            "this_seed",
                            Value::obj()
                                .with("fold_digest", hex(fnv1a_indices(FNV_BASIS, fold)))
                                .with("results_digest", hex(results_digest(&results)))
                                .with("surviving", surviving.len())
                                .with("stars", hex(fnv1a_indices(FNV_BASIS, &stars))),
                        );
                    }
                    unit_s.push(secs);
                    unit_ops_per_s.push(results.iter().map(|r| r.ops).sum::<u64>() as f64 / secs);
                    if let Err(why) =
                        check_unit(&spec, fold, &results, &surviving, &stars, fingerprints)
                    {
                        out.failed += fold.len() as u64;
                        out.fail(format!("unit {}: {why}", unit_s.len() - 1));
                    }
                }
                Err(fault) => {
                    out.failed += fold.len() as u64;
                    out.fail(format!(
                        "a point of unit {} faulted: {fault:?}",
                        unit_s.len()
                    ));
                }
            }
            if window.elapsed().as_secs_f64() >= plan.seconds {
                break 'window;
            }
        }
        // Every point visited once: deal a fresh pass.
        pass += 1;
        let mut rng = Rng::new(plan.seed.wrapping_add(pass), "exhaustive-folds");
        folds = deal_folds(&spec, folds.len(), &mut rng, |s| stratum_of(&spec, s));
    }
    if unit_s.is_empty() {
        // Every unit faulted: there is no timing to report.
        unit_s.push(f64::NAN);
        unit_ops_per_s.push(f64::NAN);
    }

    let fold_points = folds[0].len() as f64;
    out.metric("setup_s", median(&setup_s));
    out.metric("points_per_s", fold_points / median(&unit_s));
    out.metric("sim_ops_per_s", median(&unit_ops_per_s));
    out.metric("peak_rss_mib", host::peak_rss_mib());
    out.details = Value::obj()
        .with("space", spec.name.as_str())
        .with("space_points", spec.len())
        .with(
            "requests_per_point",
            Value::obj()
                .with("warmup", spec.warmup)
                .with("measured", spec.measured),
        )
        .with("folds_per_pass", folds.len())
        .with("points_per_fold", folds[0].len())
        .with("setup_repeats", SETUP_REPEATS)
        .with("units", unit_s.len())
        .with("unit_s_median", median(&unit_s))
        .with("unit_s_p90", quantile(&unit_s, 0.9))
        .with(
            "unit_s",
            unit_s.iter().map(|&s| Value::Num(s)).collect::<Vec<_>>(),
        );
    Ok(out)
}

/// What replaying one point outside the engine measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// The point's result, as `engine::run_point` would report it.
    pub result: PointResult,
    /// Host seconds from point generation to the end of drop.
    pub secs: f64,
}

/// An application installed, preloaded and connected, ready for its
/// first request: what `apps.install` covers.
enum Installed {
    Redis {
        server: Rc<RedisServer>,
        client: TcpClient,
        conn: SocketHandle,
        pipeline: u64,
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
        recv_buf: u64,
    },
}

/// The keep-alive request the repository's nginx driver replays.
const NGINX_REQUEST: &[u8] =
    b"GET /index.html HTTP/1.1\r\nHost: flexos\r\nConnection: keep-alive\r\n\r\n";

fn install(os: &FlexOs, workload: Workload) -> Result<Installed, Fault> {
    Ok(match workload {
        Workload::RedisGet { keyspace, pipeline } => {
            let server = install_redis(os)?;
            for i in 0..u64::from(keyspace) {
                let key = format!("key:{i}");
                server.preload(&[(key.as_bytes(), &[b'x' + (i % 3) as u8; 3])])?;
            }
            let client = TcpClient::connect(&os.net, 50_000, REDIS_PORT)?;
            let conn = server.accept()?.ok_or_else(|| no_conn(workload.app()))?;
            Installed::Redis {
                server,
                client,
                conn,
                pipeline: u64::from(pipeline),
            }
        }
        Workload::NginxGet => {
            let server = install_nginx(os)?;
            let client = TcpClient::connect(&os.net, 51_000, NGINX_PORT)?;
            let conn = server.accept()?.ok_or_else(|| no_conn(workload.app()))?;
            Installed::Nginx {
                server,
                client,
                conn,
            }
        }
        Workload::IperfStream { recv_buf } => {
            let server = install_iperf(os)?;
            let client = TcpClient::connect(&os.net, 52_000, IPERF_PORT)?;
            let conn = server.accept()?.ok_or_else(|| no_conn(workload.app()))?;
            Installed::Iperf {
                server,
                client,
                conn,
                recv_buf: u64::from(recv_buf),
            }
        }
    })
}

/// Warm-up plus measured requests, request for request what the
/// repository's single-core drivers send (`run_redis_bench` with the
/// hot-key pattern, `run_nginx_gets`, `run_iperf_metrics`), with every
/// reply checked. Returns `(ops, cycles, replies_ok)` of the measured
/// phase.
fn drive(
    os: &FlexOs,
    installed: &mut Installed,
    warmup: u64,
    measured: u64,
) -> Result<(u64, u64, bool), Fault> {
    let mut ok = true;
    match installed {
        Installed::Redis {
            server,
            client,
            conn,
            pipeline,
        } => {
            let one = flexos_apps::resp::encode_request(&[b"GET", b"key:1"]);
            let request = one.repeat(*pipeline as usize);
            let expected = b"$3\r\nyyy\r\n".repeat(*pipeline as usize);
            let mut batch = |ok: &mut bool| -> Result<(), Fault> {
                client.send(&os.net, &request)?;
                let target = server.stats().commands + *pipeline;
                while server.stats().commands < target {
                    if !server.serve_one(*conn)? {
                        return Err(Fault::InvalidConfig {
                            reason: "redis: connection starved mid-batch".to_string(),
                        });
                    }
                }
                client.drain(&os.net)?;
                *ok &= client.received() == expected;
                client.clear_received();
                Ok(())
            };
            for _ in 0..warmup.div_ceil(*pipeline) {
                batch(&mut ok)?;
            }
            os.env.reset_counters();
            let start = os.cycles();
            let batches = measured.div_ceil(*pipeline);
            for _ in 0..batches {
                batch(&mut ok)?;
            }
            Ok((batches * *pipeline, os.cycles() - start, ok))
        }
        Installed::Nginx {
            server,
            client,
            conn,
        } => {
            let mut one = |ok: &mut bool| -> Result<(), Fault> {
                client.send(&os.net, NGINX_REQUEST)?;
                server.serve_one(*conn)?;
                client.drain(&os.net)?;
                *ok &= client.received().starts_with(b"HTTP/1.1 200 OK")
                    && client
                        .received()
                        .ends_with(&flexos_apps::http::welcome_page());
                client.clear_received();
                Ok(())
            };
            for _ in 0..warmup {
                one(&mut ok)?;
            }
            os.env.reset_counters();
            let start = os.cycles();
            for _ in 0..measured {
                one(&mut ok)?;
            }
            Ok((measured, os.cycles() - start, ok))
        }
        Installed::Iperf {
            server,
            client,
            conn,
            recv_buf,
        } => {
            let chunk = vec![0xA5u8; 8 * 1024];
            client.send(&os.net, &chunk[..1024])?;
            server.drain(*conn, *recv_buf)?;
            os.env.reset_counters();
            let start = os.cycles();
            let total = measured * 1024;
            let (mut sent, mut received) = (0u64, 0u64);
            while sent < total {
                let take = chunk.len().min((total - sent) as usize);
                client.send(&os.net, &chunk[..take])?;
                sent += take as u64;
                received += server.drain(*conn, *recv_buf)?;
            }
            Ok((
                received.div_ceil(1024),
                os.cycles() - start,
                received == total,
            ))
        }
    }
}

/// Runs point `index` of `spec` the way `engine::run_point` does, but
/// from the harness, with a span around each layer call: `sweep.point`
/// (root, id = index) → `sweep.point_gen` (`SpaceSpec::point`),
/// `system.build`, `apps.install` (install, preload, connect),
/// `apps.drive` (warm-up and measured requests), `system.drop`. The
/// result must equal `engine::run_point`'s, which callers check.
///
/// # Errors
///
/// Configuration or substrate faults; a reply that is not the expected
/// one.
///
/// # Panics
///
/// Panics on a multi-core point: the spaces replayed here have none.
pub fn replay_point(spec: &SpaceSpec, index: usize, spans: &mut Spans) -> Result<Replayed, Fault> {
    let start = Instant::now();
    spans.enter_root("sweep.point", index as u64);
    let point = spans.within("sweep.point_gen", || spec.point(index));
    assert_eq!(point.cores, 1, "replay drives single-core points");
    let component = match point.workload {
        Workload::RedisGet { .. } => flexos_apps::redis_component(),
        Workload::NginxGet => flexos_apps::nginx_component(),
        Workload::IperfStream { .. } => flexos_apps::iperf_component(),
    };
    let built = spans.within("system.build", || {
        SystemBuilder::new(point.config.clone())
            .app(component)
            .build()
    });
    let measured = built.and_then(|os| {
        let installed = spans.within("apps.install", || install(&os, point.workload));
        installed.and_then(|mut installed| {
            let driven = spans.within("apps.drive", || {
                drive(&os, &mut installed, spec.warmup, spec.measured)
            });
            // The servers hold the image's `Rc`s: they go with it.
            spans.within("system.drop", move || drop((installed, os)));
            driven
        })
    });
    spans.exit();
    let (ops, cycles, replies_ok) = measured?;
    if !replies_ok {
        return Err(Fault::InvalidConfig {
            reason: format!("point {index}: a reply was not the expected one"),
        });
    }
    // `RunMetrics`' own arithmetic, so the floats compare equal.
    let cycles_per_op = cycles as f64 / ops.max(1) as f64;
    Ok(Replayed {
        result: PointResult {
            index,
            ops,
            cycles,
            ops_per_sec: CostModel::default().freq_hz as f64 / cycles_per_op,
        },
        secs: start.elapsed().as_secs_f64(),
    })
}

/// Shares of replayed-point time by phase, and the per-point
/// percentiles: the `sweep.*` metrics both explore workloads report.
pub fn sweep_path_metrics(out: &mut Outcome, spans: &Spans, point_s: &[f64]) {
    let total = spans.total_s("sweep.point");
    let share = |name: &str| spans.total_s(name) / total;
    out.metric(
        "sweep.point_gen_us",
        spans.total_s("sweep.point_gen") * 1e6 / point_s.len() as f64,
    );
    out.metric("sweep.point_ms.p50", median(point_s) * 1e3);
    out.metric("sweep.point_ms.p99", quantile(point_s, 0.99) * 1e3);
    out.metric("sweep.share.build", share("system.build"));
    out.metric("sweep.share.install", share("apps.install"));
    out.metric("sweep.share.drive", share("apps.drive"));
    out.metric("sweep.share.drop", share("system.drop"));
}

/// The trace run: one fold swept untraced, replayed point by point with
/// spans (each replay must return what `engine::run_point` returns),
/// its star report timed, and the fold swept again on two workers.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn trace(
    plan: &Plan,
    spans: &mut Spans,
    fingerprints: Option<&[u16]>,
) -> Result<Outcome, Fault> {
    spans.enter_root("harness.setup", 0);
    let (spec, folds) = set_up(plan);
    let warm = warm_up(plan);
    spans.exit();
    warm?;
    let fold = &folds[0];
    let mut out = Outcome {
        attempted: fold.len() as u64,
        ..Outcome::default()
    };

    let (results, surviving, stars, untraced_s) = run_unit(&spec, fold)?;
    if let Err(why) = check_unit(&spec, fold, &results, &surviving, &stars, fingerprints) {
        out.failed += fold.len() as u64;
        out.fail(why);
    }

    let traced = Instant::now();
    let mut point_s = Vec::with_capacity(fold.len());
    for (&i, engine) in fold.iter().zip(&results) {
        let replayed = replay_point(&spec, i, spans)?;
        if replayed.result != *engine {
            out.failed += 1;
            out.fail(format!(
                "replayed point {i} differs from engine::run_point's result"
            ));
        }
        point_s.push(replayed.secs);
    }
    spans.enter_root("sweep.report", 0);
    let points: Vec<SweepPoint> = fold.iter().map(|&i| spec.point(i)).collect();
    std::hint::black_box(star_report_vec(
        &points,
        &results,
        &BudgetVector::uniform(BUDGET),
    ));
    spans.exit();
    let traced_s = traced.elapsed().as_secs_f64();

    // One engine call per worker count; on a one-core host the second is
    // the first again and the ratio says so by reading ~1.
    let workers = host::nproc().min(2);
    let timed = |threads: usize| -> Result<f64, Fault> {
        let start = Instant::now();
        run_indices(&spec, fold, threads)?;
        Ok(start.elapsed().as_secs_f64())
    };
    let (one, many) = (timed(1)?, timed(workers)?);

    sweep_path_metrics(&mut out, spans, &point_s);
    out.metric("sweep.report_ms", spans.total_s("sweep.report") * 1e3);
    out.metric("sweep.scaling_2t", one / many);
    out.metric("harness.trace_overhead_ratio", traced_s / untraced_s);
    out.details = Value::obj()
        .with("replayed_points", point_s.len())
        .with("scaling_workers", workers);
    Ok(out)
}
