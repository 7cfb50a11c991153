//! The thread-per-worker sweep executor.
//!
//! Every point of a [`SpaceSpec`] is an independent experiment: build
//! an image for the point's configuration, drive its workload, read
//! the virtual clock. The simulation is single-threaded by design
//! (`Rc`-based machine state), so parallelism comes from **instances,
//! not sharing**: each worker thread mints points from the shared spec
//! and builds a private [`Machine`](flexos_machine::Machine) per point.
//! No machine ever crosses a thread boundary. What workers do share is
//! plain recorded data — the keyspace preload templates
//! (`flexos_core::env::HeapTemplate`) and the hardening class table
//! below — and each entry of it reproduces a simulation exactly, so a
//! point's virtual-cycle outcome stays a pure function of the point:
//! worker count, scheduling order and which point of a class ran first
//! cannot perturb it. `tests/sweep_determinism.rs` and
//! `tests/pricing.rs` hold the engine to that claim, and `sweep
//! --verify` re-simulates every point through [`simulate_point`].
//!
//! **Hardening is a price, not a path.** A point's hardening mask only
//! adds per-component instrumentation charges to an event sequence it
//! does not change, so one-core points that differ only in hardening —
//! with their compartment heaps running KASan alike — form a *class*
//! whose cycles are one recorded base plus what each point's flags add
//! (the `classes` module has the argument and its guards). [`run_point`]
//! simulates the first point of a class with
//! `flexos_core`'s recorder on and prices every later one in
//! microseconds, without building an image: `full`'s 8000 points are
//! 2440 classes, and an exhaustive sweep simulates 2440 of them. A
//! multi-core point, or a class whose recorded run was unfit to price
//! from, is simulated every time.
//!
//! What a simulated point costs is what it touches. The
//! configuration-independent products of a build — the W⊕X verdict on
//! each component's text, the byte-cost table — are memoised per thread
//! (`flexos_mpk::wxorx`, `flexos_machine::cost`); the KASan shadow and
//! the allocators' block tags grow with a heap's use (`flexos_alloc`);
//! zeroing Redis's empty 512 KiB dict materialises no page
//! (`Memory::fill`); and a keyspace-1024 preload replays a template
//! recorded once per process. Timed phase by phase over 404 points of
//! `explore-lazy`'s Redis shape (keyspace 1024, pipeline 4, 220
//! requests; 2-core Xeon @ 2.1 GHz, release), a simulated point splits
//! as build ≈ 16 µs, install ≈ 2 µs, preload ≈ 38 µs replayed (≈ 320 µs
//! simulated), drive + drop ≈ 150 µs. A priced point costs one
//! `SpaceSpec::point` call, a table lookup and the sum of its flags.
//!
//! Workers self-schedule from an atomic cursor (dynamic load balancing:
//! EPT points cost several times an MPK point host-side, and a priced
//! point almost nothing), and write results into per-point slots, so
//! output order is always enumeration order regardless of completion
//! order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use flexos_apps::workloads::{
    run_iperf_metrics, run_nginx_gets, run_redis_bench, RedisBench, RunMetrics,
};
use flexos_machine::fault::Fault;
use flexos_system::{FlexOs, SystemBuilder};

use crate::classes::{self, Verdict};
use crate::space::{SpaceSpec, SweepPoint, Workload};

/// Measured outcome of one sweep point. `ops`/`cycles` are virtual
/// (simulated) quantities and the payload of the determinism guarantee;
/// `ops_per_sec` is derived from them at the machine's calibrated
/// clock. Labels are *not* stored — derive them on demand with
/// [`SpaceSpec::label_of`], so a 10⁵-point run holds no per-point
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Point index within the spec's enumeration.
    pub index: usize,
    /// Operations measured (requests; KiB for iPerf).
    pub ops: u64,
    /// Virtual cycles consumed by the measured phase.
    pub cycles: u64,
    /// Operations per second at the calibrated clock (KiB/s for iPerf).
    pub ops_per_sec: f64,
}

impl PointResult {
    fn new(index: usize, m: RunMetrics) -> PointResult {
        PointResult {
            index,
            ops: m.ops,
            cycles: m.cycles,
            ops_per_sec: m.ops_per_sec,
        }
    }
}

/// Default worker count: the `SWEEP_THREADS` environment variable,
/// defaulting to the host's available parallelism.
pub fn sweep_threads() -> usize {
    std::env::var("SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Measures one point of `spec`: priced from its hardening class when
/// the class has been recorded (see the module docs), simulated
/// otherwise. The result is bit-identical to [`simulate_point`]'s.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn run_point(spec: &SpaceSpec, index: usize) -> Result<PointResult, Fault> {
    let point = spec.point(index);
    if point.cores != 1 {
        return simulate(spec, &point, index);
    }
    match classes::lookup(spec, &point) {
        Verdict::Priced {
            ops,
            cycles,
            freq_hz,
        } => {
            // `RunMetrics`' own arithmetic, so the floats are equal.
            let cycles_per_op = cycles as f64 / ops.max(1) as f64;
            Ok(PointResult {
                index,
                ops,
                cycles,
                ops_per_sec: freq_hz as f64 / cycles_per_op,
            })
        }
        Verdict::Simulate => simulate(spec, &point, index),
        Verdict::Record => {
            let os = build(&point)?;
            let (m, rows) = match os.env.record_hardening(|| drive(&os, spec, &point)) {
                Ok(run) => run,
                Err(fault) => {
                    classes::record(spec, &point, &os, None);
                    return Err(fault);
                }
            };
            classes::record(spec, &point, &os, rows.map(|rows| (m, rows)));
            Ok(PointResult::new(index, m))
        }
    }
}

/// Builds and measures one point of `spec`, always by simulation: the
/// reference `sweep --verify` holds [`run_point`]'s priced results to.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn simulate_point(spec: &SpaceSpec, index: usize) -> Result<PointResult, Fault> {
    simulate(spec, &spec.point(index), index)
}

fn simulate(spec: &SpaceSpec, point: &SweepPoint, index: usize) -> Result<PointResult, Fault> {
    let os = build(point)?;
    drive(&os, spec, point).map(|m| PointResult::new(index, m))
}

/// Boots the point's image with its application registered.
fn build(point: &SweepPoint) -> Result<FlexOs, Fault> {
    let component = match point.workload {
        Workload::RedisGet { .. } => flexos_apps::redis_component(),
        Workload::NginxGet => flexos_apps::nginx_component(),
        Workload::IperfStream { .. } => flexos_apps::iperf_component(),
    };
    SystemBuilder::new(point.config.clone())
        .app(component)
        .cores(point.cores as usize)
        .build()
}

/// Installs and drives the point's workload on `os`.
fn drive(os: &FlexOs, spec: &SpaceSpec, point: &SweepPoint) -> Result<RunMetrics, Fault> {
    match point.workload {
        Workload::RedisGet { keyspace, pipeline } => run_redis_bench(
            os,
            RedisBench {
                keyspace: u64::from(keyspace),
                pipeline: u64::from(pipeline),
                warmup: spec.warmup,
                measured: spec.measured,
                ..RedisBench::default()
            },
        ),
        Workload::NginxGet => run_nginx_gets(os, spec.warmup, spec.measured),
        // iPerf warms itself with one fixed 1 KiB chunk; `measured` is
        // the KiB streamed.
        Workload::IperfStream { recv_buf } => {
            run_iperf_metrics(os, u64::from(recv_buf), spec.measured * 1024)
        }
    }
}

/// Runs the given point `indices` of `spec` over `threads` worker
/// threads, returning results in `indices` order (`results[k].index ==
/// indices[k]`), bit-identical at any worker count. This is the one
/// executor: [`run_parallel`] is "every index" through it, and the lazy
/// engine's measurement batches call it directly. With `threads <= 1`
/// the points run inline on the calling thread, in `indices` order —
/// the serial reference `--verify` and the tests compare against.
///
/// Workers self-schedule positions from an atomic cursor, so each
/// result slot has exactly one writer — the slots are once-written
/// [`OnceLock`]s, not mutexes.
///
/// # Errors
///
/// Every requested point is executed; when any fault, the
/// first-by-position fault is returned and the rest are logged to
/// stderr (a sweep must never silently drop a fault).
///
/// # Panics
///
/// Panics if a worker thread itself panicked (a point's simulation
/// invariant failed).
pub fn run_indices(
    spec: &SpaceSpec,
    indices: &[usize],
    threads: usize,
) -> Result<Vec<PointResult>, Fault> {
    let n = indices.len();
    let threads = threads.clamp(1, n.max(1));
    let slots: Vec<OnceLock<Result<PointResult, Fault>>> =
        (0..n).map(|_| OnceLock::new()).collect();
    if threads <= 1 {
        for (k, &i) in indices.iter().enumerate() {
            slots[k].set(run_point(spec, i)).expect("slot written once");
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    slots[k]
                        .set(run_point(spec, indices[k]))
                        .expect("cursor hands each position to one worker");
                });
            }
        });
    }
    let mut results = Vec::with_capacity(n);
    let mut first_fault: Option<Fault> = None;
    for (k, slot) in slots.into_iter().enumerate() {
        match slot
            .into_inner()
            .expect("every position below the cursor was executed")
        {
            Ok(r) => results.push(r),
            Err(fault) => {
                if first_fault.is_none() {
                    first_fault = Some(fault);
                } else {
                    eprintln!("sweep: point {} faulted: {fault:?}", indices[k]);
                }
            }
        }
    }
    match first_fault {
        Some(fault) => Err(fault),
        None => Ok(results),
    }
}

/// Runs every point of `spec` over `threads` worker threads, in
/// enumeration order: [`run_indices`] over `0..spec.len()`.
///
/// # Errors
///
/// See [`run_indices`].
pub fn run_parallel(spec: &SpaceSpec, threads: usize) -> Result<Vec<PointResult>, Fault> {
    let indices: Vec<usize> = (0..spec.len()).collect();
    run_indices(spec, &indices, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceSpec;

    fn tiny() -> SpaceSpec {
        let mut spec = SpaceSpec::quick(4, 16);
        // 2 workloads x (1 + 2x2 combos) x 1 mask = 10 points: enough
        // shape for an engine test, small enough for the unit suite.
        spec.workloads.truncate(2);
        spec.strategies.truncate(3);
        spec.hardening_masks = vec![0b0001];
        spec
    }

    #[test]
    fn results_are_in_enumeration_order_and_nonzero() {
        let spec = tiny();
        let results = run_parallel(&spec, 3).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.cycles > 0);
            assert!(r.ops > 0);
            assert!(r.ops_per_sec > 0.0);
        }
    }

    #[test]
    fn thread_knob_parses_and_clamps() {
        // No env manipulation (tests run threaded); just the default.
        assert!(sweep_threads() >= 1);
    }
}
