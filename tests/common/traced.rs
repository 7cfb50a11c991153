//! The canonical traced run: `tests/trace.rs` checks that it is a pure
//! function of its configuration, `tests/goldens.rs` holds its digests
//! and metrics to the recorded text. Both include this file with a
//! `#[path]`.

use flexos::prelude::*;
use flexos_apps::workloads::RunMetrics;
use flexos_bench::cli::run_traced_canonical;
use flexos_system::observe::{trace_artifacts, TraceArtifacts};

/// The binaries' canonical traced run (`run_traced_canonical`) at counts
/// small enough for the test suite: Redis over MPK/DSS, a GET workload,
/// and an operator microreboot of the lwip compartment so the trace
/// carries a recovery span.
pub(crate) fn traced_run() -> (FlexOs, RunMetrics, TraceArtifacts) {
    let (os, metrics) = run_traced_canonical((50, 200)).unwrap();
    let artifacts = trace_artifacts(&os.env);
    (os, metrics, artifacts)
}
