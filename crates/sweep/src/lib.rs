//! # flexos-sweep — the parallel configuration-exploration engine
//!
//! FlexOS's central bet (§5) is that isolation flexibility only pays
//! off if the enormous configuration space can be explored
//! *automatically*. This crate is the one §5 stack — one space model,
//! one executor, one safety order — and Figure 6's 80-point sweep is
//! just its smallest named space:
//!
//! * [`SpaceSpec`] — a declarative configuration space: isolation
//!   mechanism × compartmentalization strategy × data-sharing profile
//!   × heap-allocator profile × per-component hardening × application
//!   × workload parameters (keyspace size, RESP pipeline depth, iPerf
//!   receive-buffer size, simulated cores). Named spaces scale from
//!   the Figure 6 sweep ([`SpaceSpec::fig6`], 80 points; `fig06`–
//!   `fig08` run it) to the full product space ([`SpaceSpec::full`],
//!   8000 points). Every point's config comes from one builder,
//!   [`flexos_explore::assigned_config`].
//! * [`engine`] — [`run_indices`], the thread-per-worker executor
//!   ([`run_parallel`] is "every index" through it). Every point is an
//!   independent simulation (each worker builds its own `Rc`-based
//!   [`Machine`](flexos_machine::Machine) per point), so the sweep
//!   parallelizes embarrassingly **and deterministically**: the
//!   virtual-cycle results are bit-identical at any worker count,
//!   one worker included (`tests/sweep_determinism.rs` pins this).
//! * [`report`] — [`sweep_leq`], the single definition of the §5
//!   partial safety order: points are comparable when they share a
//!   workload and per-component allocators, and dominate each other in
//!   partition refinement, hardening, mechanism strength, data-sharing
//!   strength, (fewer) cores and resource budgets; budget pruning
//!   (scalar or per-workload [`report::BudgetVector`]) and Figure
//!   8-style stars then run over the whole space.
//! * [`lazy`] — the order-guided lazy engine: chain covers + binary
//!   search over each scope of that same order (it compares the packed
//!   keys `sweep_leq` compares), a measurement memo over
//!   canonical experiments, and per-workload Pareto frontiers. On
//!   mixed-profile spaces ([`SpaceSpec::full_profiled`], 3×10⁵
//!   enumerated points) only the points the order cannot infer are
//!   ever executed, with `--verify-inference` re-measuring the rest to
//!   check the monotonicity assumption rather than trust it.
//! * [`emit`] — JSON summaries (the checked-in `BENCH_sweep.json`) and
//!   CSV point dumps for downstream plotting.
//!
//! The `sweep` binary in `flexos_bench` drives all of this from the
//! command line; `SWEEP_THREADS`, `SWEEP_WARMUP`, and `SWEEP_MEASURED`
//! tune worker count and per-point traffic (CI runs a reduced,
//! multi-threaded sweep and fails on serial/parallel divergence).

mod classes;
pub mod emit;
pub mod engine;
pub mod lazy;
pub mod report;
mod space;

pub use engine::{
    run_indices, run_parallel, run_point, simulate_point, sweep_threads, PointResult,
};
pub use lazy::{lazy_sweep, LazyConfig, LazyOutcome};
pub use report::{
    mechanism_rank, star_report_vec, sweep_leq, sweep_order_pairs, sweep_poset, BudgetVector,
};
pub use space::{PointShape, SpaceSpec, SweepPoint, Workload};
