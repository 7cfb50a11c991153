//! The four workloads. Each is a closed loop with one client: the next
//! request is sent only after the previous reply was checked.
//!
//! Every workload has the same shape. Set-up is run [`SETUP_REPEATS`]
//! times and its median reported, so that work moved into set-up shows.
//! The timed window then runs *units* of fixed work — a fold of sweep
//! points, one lazy sweep, one round over an image set — until
//! `--seconds` have passed, and reports the median unit, so a noisy
//! second costs one sample, not the result. Op counts inside a unit are
//! constants of the harness; only how many units fit is left to the
//! clock.

pub mod explore_exhaustive;
pub mod explore_lazy;
pub mod images;
pub mod steady_1core;
pub mod steady_8core;

use crate::json::Value;

/// Times set-up is repeated in one run.
pub const SETUP_REPEATS: usize = 9;

/// Seed used when none is given, and the one `expected.json` pins
/// per-seed outputs for.
pub const DEFAULT_SEED: u64 = 1;

/// What to run: the seed, the timed window, and the divisor the
/// self-tests apply to every op count (1 in real runs).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Op counts are divided by this (self-tests: 50).
    pub divisor: u64,
}

impl Plan {
    /// `count / divisor`, at least `floor`.
    pub fn scaled(&self, count: u64, floor: u64) -> u64 {
        (count / self.divisor).max(floor)
    }
}

/// What a workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (points, requests, KiB, INSERTs).
    pub attempted: u64,
    /// Operations that failed: a faulted point, a wrong reply, or all
    /// the operations of a unit whose deterministic check failed.
    pub failed: u64,
    /// Deterministic checks that failed, in words (empty when correct).
    pub check_failures: Vec<String>,
    /// Metric values by name (units live in `manifest`).
    pub metrics: Vec<(String, f64)>,
    /// Counts behind the metrics: the seed's draws, op counts, sample
    /// counts of each median and percentile.
    pub details: Value,
    /// The virtual-clock results: equal for equal seeds, whatever the
    /// host does. What `expected.json` pins.
    pub deterministic: Value,
}

impl Default for Outcome {
    /// Nothing attempted yet.
    fn default() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            metrics: Vec::new(),
            details: Value::obj(),
            deterministic: Value::obj(),
        }
    }
}

impl Outcome {
    /// `true` when nothing failed and every deterministic check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.check_failures.push(what);
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }
}
