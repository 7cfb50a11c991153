//! The differential attack matrix: every [`Attack`] against a
//! representative grid of mechanism × profile points, checked two
//! ways.
//!
//! 1. **Expectation**: each (attack, configuration) cell must come out
//!    exactly as the [`oracle`](crate::oracle) predicts from the
//!    configuration alone — blocked (and by the right fault kind) or
//!    succeeded. A cell that blocks less than claimed is a safety bug;
//!    one that blocks *more* than claimed means the model charges for
//!    isolation it doesn't advertise.
//! 2. **Monotonicity**: along every edge of the §5 safety order
//!    ([`flexos_sweep::sweep_leq`]), the empirical blocked-set of the
//!    weaker point must be contained in the stronger point's — the
//!    sweep's partial order checked as an empirical theorem over the
//!    grid, not a modeling assumption.
//!
//! The grid reuses [`SpaceSpec`] so points, labels, and the order edges
//! come from the same machinery the sweep engine uses; attacks run
//! against freshly built images and drive **no** workload traffic, so
//! the matrix cannot perturb any costed path (the fig06–fig11b and
//! table1 pipelines stay byte-identical).

use flexos_machine::fault::Fault;
use flexos_machine::trace::JsonStr;
use flexos_sweep::{sweep_order_pairs, SpaceSpec, SweepPoint, Workload};
use flexos_system::SystemBuilder;

use flexos_core::compartment::{DataSharing, Mechanism, ResourceBudget};

use crate::oracle::{expected, expected_mask, Expectation};
use crate::{Attack, AttackOutcome};

/// The full representative grid: redis × {MPK, EPT} × all five
/// strategies × all three data-sharing profiles × four hardening masks
/// (none, everyone-but-lwip, lwip-only, all) — 100 points. The
/// `0b0111` mask matters: it pins heap-smash expectations to the
/// *attacker's* hardening, not "anything in the image is hardened".
pub fn attack_space() -> SpaceSpec {
    SpaceSpec {
        name: "attack-full".to_string(),
        workloads: vec![Workload::RedisGet {
            keyspace: 3,
            pipeline: 1,
        }],
        mechanisms: vec![Mechanism::IntelMpk, Mechanism::VmEpt],
        strategies: flexos_explore::Strategy::ALL.to_vec(),
        data_sharings: vec![
            DataSharing::Dss,
            DataSharing::HeapConversion,
            DataSharing::SharedStack,
        ],
        allocators: vec![flexos_alloc::HeapKind::Tlsf],
        hardening_masks: vec![0b0000, 0b0111, 0b1000, 0b1111],
        cores: vec![1],
        per_compartment_profiles: false,
        warmup: 0,
        measured: 0,
    }
}

/// The CI-sized grid (quick-space analogue): MPK only, DSS vs shared
/// stack, lwip hardened or not — 18 points, still covering every
/// attack-relevant axis kind.
pub fn attack_space_quick() -> SpaceSpec {
    SpaceSpec {
        mechanisms: vec![Mechanism::IntelMpk],
        data_sharings: vec![DataSharing::Dss, DataSharing::SharedStack],
        hardening_masks: vec![0b0000, 0b1000],
        name: "attack-quick".to_string(),
        ..attack_space()
    }
}

/// One point's row of the matrix.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Point index within the grid's enumeration.
    pub(crate) index: usize,
    /// The point's label, with a `+budget` suffix when its config
    /// carries a budget (copied so reports need no spec access).
    pub(crate) label: String,
    /// Per-attack (observed outcome, oracle expectation) cells, in
    /// [`Attack::ALL`] order.
    pub(crate) outcomes: Vec<(Attack, AttackOutcome, Expectation)>,
    /// Observed blocked-set, as an [`Attack::bit`] mask.
    pub blocked_mask: u16,
    /// Predicted blocked-set ([`expected_mask`]).
    pub(crate) expected_mask: u16,
}

/// The whole matrix, plus everything that disagreed.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Grid name (`attack-full`, `attack-quick`).
    pub space: String,
    /// One row per grid point, enumeration order.
    pub runs: Vec<PointRun>,
    /// Cells whose outcome contradicts the oracle (empty when ok).
    pub mismatches: Vec<String>,
    /// §5 order edges along which the blocked-set shrank (empty when
    /// ok).
    pub order_violations: Vec<String>,
}

impl MatrixReport {
    /// `true` when every cell matched the oracle and every order edge
    /// was monotone.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.order_violations.is_empty()
    }

    /// Single-line JSON summary (hand-rolled like
    /// [`flexos_sweep::SweepSummary`]; no serde in the workspace).
    pub fn to_json(&self) -> String {
        let strings = |items: &[String]| -> String {
            let quoted: Vec<String> = items.iter().map(|s| JsonStr(s).to_string()).collect();
            quoted.join(",")
        };
        let attacks: Vec<String> = Attack::ALL.iter().map(|a| a.name().to_string()).collect();
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|run| {
                let cells: Vec<String> = run
                    .outcomes
                    .iter()
                    .map(|(attack, outcome, exp)| {
                        format!(
                            "[{},{},{}]",
                            JsonStr(attack.name()),
                            JsonStr(&outcome.to_string()),
                            exp.blocked
                        )
                    })
                    .collect();
                format!(
                    "{{\"index\":{},\"label\":{},\"blocked_mask\":{},\"expected_mask\":{},\
                     \"cells\":[{}]}}",
                    run.index,
                    JsonStr(&run.label),
                    run.blocked_mask,
                    run.expected_mask,
                    cells.join(",")
                )
            })
            .collect();
        format!(
            "{{\"space\":{},\"points\":{},\"ok\":{},\"attacks\":[{}],\"runs\":[{}],\
             \"mismatches\":[{}],\"order_violations\":[{}]}}",
            JsonStr(&self.space),
            self.runs.len(),
            self.ok(),
            strings(&attacks),
            runs.join(","),
            strings(&self.mismatches),
            strings(&self.order_violations)
        )
    }
}

/// Builds `point`'s image and runs the whole suite against it, in
/// [`Attack::ALL`] order (the exhaustion DoS last; every attack cleans
/// up after itself).
///
/// # Errors
///
/// Configuration faults from the build, or infrastructure faults from
/// an attack's setup — never the attacks' own adversarial faults,
/// which fold into the outcomes.
pub(crate) fn run_point_attacks(point: &SweepPoint) -> Result<PointRun, Fault> {
    let component = match point.workload {
        Workload::RedisGet { .. } => flexos_apps::redis_component(),
        Workload::NginxGet => flexos_apps::nginx_component(),
        Workload::IperfStream { .. } => flexos_apps::iperf_component(),
    };
    let os = SystemBuilder::new(point.config.clone())
        .app(component)
        .build()?;
    let mut outcomes = Vec::with_capacity(Attack::ALL.len());
    let mut blocked_mask = 0u16;
    for attack in Attack::ALL {
        // Each attack gets a fresh accounting window, so rows are
        // order-independent: boot-time cycles and a previous attack's
        // crossings never count against the next one's budget. (Live
        // heap bytes survive by design — attacks are self-cleaning, so
        // the quota sees only boot-time residue.)
        os.env.reset_budget_usage();
        let outcome = attack.run(&os)?;
        if outcome.blocked() {
            blocked_mask |= 1 << attack.bit();
        }
        outcomes.push((attack, outcome, expected(attack, point)));
    }
    let mut label = point.to_string();
    if point.config.any_budget() {
        label.push_str("+budget");
    }
    Ok(PointRun {
        index: point.index,
        label,
        outcomes,
        blocked_mask,
        expected_mask: expected_mask(point),
    })
}

/// Runs every attack against every point of `spec` and cross-checks
/// the outcomes against the oracle and the §5 safety order.
///
/// # Errors
///
/// See `run_point_attacks`; the first faulting point aborts the
/// matrix.
pub fn run_matrix(spec: &SpaceSpec) -> Result<MatrixReport, Fault> {
    run_matrix_points(&spec.name, spec.points().collect())
}

/// The hostile-tenant budget: what the budgeted grid and the fault
/// campaign (`campaign`) give every compartment — 2 MiB of live heap
/// (an eighth of a compartment heap), one million cycles per
/// accounting window, and a crossings cap high enough that only a loop
/// could hit it.
pub(crate) const GRID_BUDGET: ResourceBudget = ResourceBudget {
    heap_bytes: Some(2 * 1024 * 1024),
    cycles: Some(1_000_000),
    crossings: Some(100_000),
};

/// `spec`'s grid with [`GRID_BUDGET`] as every compartment's budget
/// (its rows' labels carry `+budget`); indices continue after the
/// unbudgeted grid so the two can run as one matrix.
pub(crate) fn budgeted_points(spec: &SpaceSpec) -> Vec<SweepPoint> {
    let offset = spec.len();
    spec.points()
        .map(|mut p| {
            p.config.default_budget = Some(GRID_BUDGET);
            p.shape.index += offset;
            p
        })
        .collect()
}

/// [`run_matrix`] over `spec`'s grid *and* its `budgeted_points`
/// clone in one report: every unbudgeted point sits below its budgeted
/// twin in the §5 order (unlimited <= any limit, per axis), so the
/// order check now also proves budgets only ever *add* blocked attacks.
///
/// # Errors
///
/// See `run_point_attacks`.
pub fn run_matrix_budgeted(spec: &SpaceSpec) -> Result<MatrixReport, Fault> {
    let mut points: Vec<SweepPoint> = spec.points().collect();
    points.extend(budgeted_points(spec));
    run_matrix_points(&format!("{}+budget", spec.name), points)
}

/// The matrix core: runs the suite against an explicit point list
/// (what [`run_matrix`] and [`run_matrix_budgeted`] feed).
///
/// # Errors
///
/// See [`run_point_attacks`]; the first faulting point aborts the
/// matrix.
pub(crate) fn run_matrix_points(
    space: &str,
    points: Vec<SweepPoint>,
) -> Result<MatrixReport, Fault> {
    let mut runs = Vec::with_capacity(points.len());
    let mut mismatches = Vec::new();
    for point in &points {
        let run = run_point_attacks(point)?;
        for (attack, outcome, exp) in &run.outcomes {
            match (outcome, exp) {
                (AttackOutcome::Succeeded, Expectation { blocked: true, .. }) => {
                    mismatches.push(format!(
                        "{}: {attack} succeeded but the configuration claims to block it",
                        run.label
                    ));
                }
                (AttackOutcome::Blocked { fault }, Expectation { blocked: false, .. }) => {
                    mismatches.push(format!(
                        "{}: {attack} blocked({fault}) but the configuration does not \
                         claim to block it",
                        run.label
                    ));
                }
                (
                    AttackOutcome::Blocked { fault },
                    Expectation {
                        blocked: true,
                        fault: Some(want),
                    },
                ) if fault != want => {
                    mismatches.push(format!(
                        "{}: {attack} blocked by {fault}, oracle expects {want}",
                        run.label
                    ));
                }
                _ => {}
            }
        }
        runs.push(run);
    }
    let mut order_violations = Vec::new();
    for (i, j) in sweep_order_pairs(&points) {
        let (weak, strong) = (runs[i].blocked_mask, runs[j].blocked_mask);
        if weak & !strong != 0 {
            order_violations.push(format!(
                "{} <= {} in the safety order, but blocks {:09b} vs {:09b}",
                runs[i].label, runs[j].label, weak, strong
            ));
        }
    }
    Ok(MatrixReport {
        space: space.to_string(),
        runs,
        mismatches,
        order_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_advertised_shapes() {
        // 1 + 4 x 2 x 3 = 25 shape combos x 4 masks.
        assert_eq!(attack_space().len(), 100);
        // 1 + 4 x 1 x 2 = 9 shape combos x 2 masks.
        assert_eq!(attack_space_quick().len(), 18);
    }

    #[test]
    fn budgeted_quick_grid_matches_oracle_and_order() {
        let report = run_matrix_budgeted(&attack_space_quick()).expect("matrix runs");
        assert!(
            report.ok(),
            "mismatches: {:?}\norder: {:?}",
            report.mismatches,
            report.order_violations
        );
        assert_eq!(report.runs.len(), 36);
        // Budgets must add the resource attacks to every budgeted row.
        for run in report.runs.iter().skip(18) {
            assert_ne!(
                run.blocked_mask & (1 << Attack::CycleHog.bit()),
                0,
                "{}",
                run.label
            );
            assert_ne!(
                run.blocked_mask & (1 << Attack::AllocExhaustion.bit()),
                0,
                "{}",
                run.label
            );
        }
    }

    #[test]
    fn quick_grid_matches_oracle_and_order() {
        let report = run_matrix(&attack_space_quick()).expect("matrix runs");
        assert!(
            report.ok(),
            "mismatches: {:?}\norder: {:?}",
            report.mismatches,
            report.order_violations
        );
        assert_eq!(report.runs.len(), 18);
        let json = report.to_json();
        assert!(json.contains("\"ok\":true"));
        assert!(json.contains("\"space\":\"attack-quick\""));
        assert!(json.contains("\"alloc-exhaustion\""));
    }
}
