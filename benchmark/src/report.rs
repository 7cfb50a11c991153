//! One run, from workload name to result: run the workload (and, in a
//! trace run, the probes), hold the outcome to the declaration and the
//! pins, and render what is printed and written.

use crate::expected::Expected;
use crate::host;
use crate::json::Value;
use crate::manifest;
use crate::probes;
use crate::spans::Spans;
use crate::workloads::{
    explore_exhaustive, explore_lazy, steady_1core, steady_8core, Outcome, Plan,
};

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Finished {
    /// The full record for a result file: metrics, counts, host, pins.
    pub record: Value,
    /// The contract's last line of standard output.
    pub last_line: String,
    /// The metric table for a reader.
    pub human: String,
    /// 0 when the run was correct, 1 otherwise.
    pub exit_code: i32,
}

/// Runs `workload` under `plan`. In a trace run the probes run too and
/// the spans come back with the outcome.
///
/// # Errors
///
/// An unknown workload name; a fault outside the measured operations
/// (set-up, warm-up), in words.
pub fn execute(
    workload: &str,
    plan: &Plan,
    trace: bool,
    expected: Option<&Expected>,
) -> Result<(Outcome, Option<Spans>), String> {
    let fingerprints = expected.and_then(Expected::fingerprints);
    let fingerprints = fingerprints.as_deref();
    let fault = |f| format!("{workload}: {f:?}");
    if !trace {
        let outcome = match workload {
            "explore-exhaustive" => explore_exhaustive::run(plan, fingerprints),
            "explore-lazy" => explore_lazy::run(plan),
            "steady-1core" => steady_1core::run(plan),
            "steady-8core" => steady_8core::run(plan),
            other => return Err(format!("unknown workload `{other}`")),
        };
        return Ok((outcome.map_err(fault)?, None));
    }
    let mut spans = Spans::new();
    let outcome = match workload {
        "explore-exhaustive" => explore_exhaustive::trace(plan, &mut spans, fingerprints),
        "explore-lazy" => explore_lazy::trace(plan, &mut spans),
        "steady-1core" => steady_1core::trace(plan, &mut spans),
        "steady-8core" => steady_8core::trace(plan, &mut spans),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut outcome = outcome.map_err(fault)?;
    let probed = probes::run(plan).map_err(fault)?;
    // A layer off this workload's path was not busy: 0.
    for d in manifest::path_metrics() {
        if !outcome.metrics.iter().any(|(n, _)| *n == d.name) {
            outcome.metric(&d.name, 0.0);
        }
    }
    outcome.metrics.extend(probed.metrics);
    outcome.deterministic = Value::obj().with("any_seed", probed.exact);
    outcome.details.set("paper_table", probed.paper_table);
    Ok((outcome, Some(spans)))
}

/// Holds `outcome` to the declaration and to `expected.json`, and
/// renders it.
pub fn finish(
    workload: &str,
    plan: &Plan,
    trace: bool,
    mut outcome: Outcome,
    expected: Option<&Expected>,
    malloc_pinned: bool,
) -> Finished {
    if let Some(expected) = expected {
        let problems = expected.check(workload, plan.seed, trace, &outcome.deterministic);
        outcome.check_failures.extend(problems);
    }
    let declared = if trace {
        manifest::per_layer()
    } else {
        manifest::end_to_end()
    };
    let undeclared = manifest::check_emitted(&outcome.metrics, &declared);
    outcome.check_failures.extend(undeclared);
    let correct = outcome.correct();
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let mut metrics = Value::obj();
    let mut human = String::new();
    for (name, value) in &outcome.metrics {
        let unit = declared
            .iter()
            .find(|d| d.name == *name)
            .map_or("?", |d| d.unit);
        metrics.set(name, Value::obj().with("value", *value).with("unit", unit));
        human.push_str(&format!("{name:<44} {value:>18.6} {unit}\n"));
    }
    human.push_str(&format!(
        "{:<44} {fail_ratio:>18.6} ratio   ({} of {} operations)\n",
        "fail_ratio", outcome.failed, outcome.attempted
    ));
    human.push_str(&format!(
        "{:<44} {:>18} 0/1\n",
        "virt_cycles_digest_ok",
        u8::from(outcome.check_failures.is_empty())
    ));
    for failure in &outcome.check_failures {
        human.push_str(&format!("CHECK FAILED: {failure}\n"));
    }

    let last_line = Value::obj()
        .with("correct", correct)
        .with("attempted", outcome.attempted.max(1))
        .with("failed", outcome.failed)
        .with("metrics", metrics.clone())
        .to_string();
    let record = Value::obj()
        .with("workload", workload)
        .with("seed", plan.seed)
        .with("seconds", plan.seconds)
        .with("trace", trace)
        .with("correct", correct)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("fail_ratio", fail_ratio)
        .with(
            "check_failures",
            outcome
                .check_failures
                .iter()
                .map(|f| Value::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("metrics", metrics)
        .with("details", outcome.details)
        .with("deterministic", outcome.deterministic)
        .with("malloc_pinned", malloc_pinned)
        .with("host", host::metadata());
    Finished {
        record,
        last_line,
        human,
        exit_code: i32::from(!correct),
    }
}
