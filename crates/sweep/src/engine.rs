//! The thread-per-worker sweep executor.
//!
//! Every point of a [`SpaceSpec`] is an independent experiment: build
//! an image for the point's configuration, drive its workload, read
//! the virtual clock. The simulation is single-threaded by design
//! (`Rc`-based machine state), so parallelism comes from **instances,
//! not sharing**: each worker thread mints points from the shared spec
//! and builds a private [`Machine`](flexos_machine::Machine) per point.
//! No simulation state ever crosses a thread boundary — only the
//! [`PointResult`]s — which is what makes the parallel sweep
//! *deterministic*: a point's virtual-cycle outcome is a pure function
//! of the point, so worker count and scheduling order cannot perturb
//! it. `tests/sweep_determinism.rs` holds the engine to that claim.
//!
//! A point costs one image build, so what a build recomputes is what a
//! sweep pays 8000 times. The configuration-independent products of a
//! build — the W⊕X verdict on each component's text, the byte-cost
//! table — are memoised below this layer, **per thread**
//! (`flexos_mpk::wxorx`, `flexos_machine::cost`): the first point a
//! worker runs pays for them, every later point on that worker reuses
//! them, and the rule above stays literally true — the memos are
//! thread-local, so they never cross a thread boundary either. The
//! engine does nothing to get this (no template, no reset path); it only
//! has to keep a worker's points on one thread, which it does. (A
//! multi-worker [`run_indices`] call starts fresh worker threads, so its
//! workers pay the once-per-thread work once per call: under a
//! millisecond each.)
//!
//! What is left of a point is priced by what the point touches, not by
//! what its image could hold: the KASan shadow and the allocators' block
//! tags grow with a heap's use (`flexos_alloc`), and zeroing Redis's
//! empty 512 KiB dict materialises no page (`Memory::fill`). The one
//! phase that repeated identical work — a keyspace-1024 point preloading
//! the same 1024 keys into a heap in one of six states — replays a
//! template recorded once per process (`flexos_core::env::HeapTemplate`).
//! Timed phase by phase over 404 points of `explore-lazy`'s Redis shape
//! (keyspace 1024, pipeline 4, 220 requests; 2-core Xeon @ 2.1 GHz,
//! release), a point splits as build ≈ 16 µs, install ≈ 2 µs, preload
//! ≈ 38 µs replayed (≈ 320 µs simulated), drive + drop ≈ 150 µs: the
//! request loop is the largest share again. The build figure is
//! `system.build_us.mpk` from `flexos_benchmark --workload
//! explore-exhaustive --seed 1 --trace 1` on the same host (three runs:
//! 15.6, 16.3 and 16.6 µs); the others were timed in-engine.
//!
//! Workers self-schedule from an atomic cursor (dynamic load balancing:
//! EPT points cost several times an MPK point host-side), and write
//! results into per-point slots, so output order is always enumeration
//! order regardless of completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use flexos_apps::workloads::{
    run_iperf_metrics, run_nginx_gets, run_redis_bench, RedisBench, RunMetrics,
};
use flexos_machine::fault::Fault;
use flexos_system::SystemBuilder;

use crate::space::{SpaceSpec, Workload};

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

/// Builds and measures one point of `spec`.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn run_point(spec: &SpaceSpec, index: usize) -> Result<PointResult, Fault> {
    let point = spec.point(index);
    let component = match point.workload {
        Workload::RedisGet { .. } => flexos_apps::redis_component(),
        Workload::NginxGet => flexos_apps::nginx_component(),
        Workload::IperfStream { .. } => flexos_apps::iperf_component(),
    };
    let os = SystemBuilder::new(point.config.clone())
        .app(component)
        .cores(point.cores as usize)
        .build()?;
    let m = match point.workload {
        Workload::RedisGet { keyspace, pipeline } => run_redis_bench(
            &os,
            RedisBench {
                keyspace: u64::from(keyspace),
                pipeline: u64::from(pipeline),
                warmup: spec.warmup,
                measured: spec.measured,
                ..RedisBench::default()
            },
        )?,
        Workload::NginxGet => run_nginx_gets(&os, spec.warmup, spec.measured)?,
        // iPerf warms itself with one fixed 1 KiB chunk; `measured` is
        // the KiB streamed.
        Workload::IperfStream { recv_buf } => {
            run_iperf_metrics(&os, u64::from(recv_buf), spec.measured * 1024)?
        }
    };
    Ok(PointResult::new(index, m))
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
