//! The export side of the observability layer: name resolution, trace
//! artifacts (Chrome JSON + attribution profile + digests), and the
//! image-wide metrics registry.
//!
//! Recording lives below (the machine's `Tracer`, the `Env` counters);
//! this module is where the id-shaped event stream meets the image
//! metadata only the system layer holds — compartment and component
//! names, the entry intern table, scheduler and network statistics.
//! Everything here allocates freely: it runs once per run, after the
//! measured region.

use flexos_core::compartment::CompartmentId;
use flexos_core::entry::EntryId;
use flexos_core::env::Env;
use flexos_core::gate::GateKind;
use flexos_machine::fault::FaultKind;
use flexos_machine::trace::{attribute, chrome_trace_json, fnv1a, NameTable, Registry};

use crate::builder::FlexOs;

/// Builds the export-time name table for an image: compartments,
/// components, interned entry points, gate kinds, fault kinds.
pub(crate) fn name_table(env: &Env) -> NameTable {
    NameTable {
        compartments: (0..env.compartment_count())
            .map(|i| env.domain(CompartmentId(i as u8)).name.to_string())
            .collect(),
        components: env
            .registry()
            .iter()
            .map(|(_, c)| c.name.to_string())
            .collect(),
        entries: (0..env.entries().len())
            .map(|i| env.entry_name(EntryId(i as u32)).to_string())
            .collect(),
        gates: GateKind::ALL.iter().map(|k| k.to_string()).collect(),
        faults: FaultKind::ALL.iter().map(|k| k.to_string()).collect(),
    }
}

/// The rendered trace outputs of one run: the Chrome `trace_event`
/// document, the folded cycle-attribution profile, and their FNV-1a
/// digests (the determinism oracle CI compares across runs).
#[derive(Debug)]
pub struct TraceArtifacts {
    /// Chrome `trace_event` JSON (load in `chrome://tracing`/Perfetto).
    pub chrome_json: String,
    /// Indented per-compartment × per-entry cycle-attribution tree.
    pub profile: String,
    /// FNV-1a digest of `chrome_json`.
    pub chrome_digest: u64,
    /// FNV-1a digest of `profile`.
    pub profile_digest: u64,
    /// Events held in the ring at export time.
    pub events: usize,
    /// Events lost to ring overwrite (0 unless the ring wrapped).
    pub dropped: u64,
}

/// Folds the machine's event ring into [`TraceArtifacts`]. Pure
/// function of the recorded events and the image's names — same
/// config + seed ⇒ byte-identical artifacts.
pub fn trace_artifacts(env: &Env) -> TraceArtifacts {
    let tracer = env.machine().tracer();
    let names = name_table(env);
    let events = tracer.events();
    let chrome_json = chrome_trace_json(&events, &names);
    let profile = attribute(&events, &names).render();
    TraceArtifacts {
        chrome_digest: fnv1a(chrome_json.as_bytes()),
        profile_digest: fnv1a(profile.as_bytes()),
        chrome_json,
        profile,
        events: events.len(),
        dropped: tracer.dropped(),
    }
}

/// Snapshots every counter surface of a running image into one
/// insertion-ordered [`Registry`] and renders it as JSON: the clock,
/// gate traffic, per-compartment budget/heap accounting, allocator,
/// scheduler and network statistics, the built-in latency histograms,
/// and the trace-ring state itself. Registration order is fixed, so
/// the export is byte-stable for a given image state.
pub fn metrics_json(os: &FlexOs) -> String {
    let env = &os.env;
    let reg = Registry::new();

    reg.set_counter("clock.cycles", env.machine().clock().now());

    let bd = env.gates().breakdown();
    reg.set_counter("gates.crossings", bd.total_crossings);
    reg.set_counter("gates.direct_calls", bd.direct_calls);
    reg.set_counter("gates.cfi_violations", bd.cfi_violations);
    for (kind, n) in &bd.by_kind {
        reg.set_counter(&format!("gates.by_kind.{kind}"), *n);
    }

    for i in 0..env.compartment_count() {
        let comp = CompartmentId(i as u8);
        let name = &env.domain(comp).name;
        let usage = env.budget_usage(comp);
        reg.set_counter(&format!("budget.{name}.cycles_used"), usage.cycles);
        reg.set_counter(&format!("budget.{name}.crossings_used"), usage.crossings);
        reg.set_counter(&format!("budget.{name}.heap_bytes_live"), usage.heap_bytes);
        reg.set_counter(
            &format!("budget.{name}.refusals"),
            env.budget_refusals_of(comp),
        );
        reg.set_counter(
            &format!("heap.{name}.peak_live_bytes"),
            env.heap_stats_of(comp).peak_live,
        );
    }

    let alloc = env.total_alloc_stats();
    reg.set_counter("alloc.mallocs", alloc.mallocs);
    reg.set_counter("alloc.frees", alloc.frees);
    reg.set_counter("alloc.bytes_allocated", alloc.bytes_allocated);
    reg.set_counter("alloc.bytes_freed", alloc.bytes_freed);
    reg.set_counter("alloc.peak_live", alloc.peak_live);
    reg.set_counter("alloc.exhaustions", alloc.exhaustions);

    let sched = os.sched.stats();
    reg.set_counter("sched.spawned", sched.spawned);
    reg.set_counter("sched.yields", sched.yields);
    reg.set_counter("sched.switches", sched.switches);

    let net = os.net.stats();
    reg.set_counter("net.rx_segments", net.rx_segments);
    reg.set_counter("net.tx_segments", net.tx_segments);
    reg.set_counter("net.rx_bytes", net.rx_bytes);
    reg.set_counter("net.tx_bytes", net.tx_bytes);
    reg.set_counter("net.rx_errors", net.rx_errors);

    let tracer = env.machine().tracer();
    reg.set_histogram(
        "latency.request_cycles",
        tracer.request_latency().snapshot(),
    );
    reg.set_histogram(
        "latency.recovery_cycles",
        tracer.recovery_latency().snapshot(),
    );
    reg.set_counter("trace.events", tracer.len() as u64);
    reg.set_counter("trace.dropped", tracer.dropped());

    reg.to_json()
}
