//! The canonical traced run: `tests/trace.rs` checks that it is a pure
//! function of its configuration, `tests/goldens.rs` holds its digests
//! and metrics to the recorded text. Both include this file with a
//! `#[path]`.

use std::rc::Rc;

use flexos::prelude::*;
use flexos::trace::TraceConfig;
use flexos_apps::workloads::{run_redis_gets, RunMetrics};
use flexos_core::compartment::DataSharing;
use flexos_system::observe::{trace_artifacts, TraceArtifacts};

/// One canonical traced run, small enough for the test suite: Redis
/// over MPK/DSS, a GET workload, and an operator microreboot of the
/// lwip compartment so the trace carries a recovery span.
pub(crate) fn traced_run() -> (FlexOs, RunMetrics, TraceArtifacts) {
    let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    os.env.machine().tracer().enable(TraceConfig::default());
    let metrics = run_redis_gets(&os, 50, 200).unwrap();
    let lwip = os.component("lwip").unwrap();
    let sup = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched));
    sup.microreboot(os.env.compartment_of(lwip), None);
    let artifacts = trace_artifacts(&os.env);
    (os, metrics, artifacts)
}
