//! The differential attack matrix, end to end on the full
//! representative grid: every attack against every mechanism × profile
//! point, checked against the expectation oracle and the §5 safety
//! order (ISSUE 6 acceptance).

use flexos_attacks::{attack_space, expected_mask, run_matrix, Attack};
use flexos_sweep::sweep_order_pairs;

#[test]
fn full_grid_matches_the_oracle_and_is_monotone() {
    let spec = attack_space();
    let report = run_matrix(&spec).expect("matrix runs");
    assert_eq!(report.runs.len(), 100);
    assert!(
        report.ok(),
        "expectation mismatches: {:#?}\norder violations: {:#?}",
        report.mismatches,
        report.order_violations
    );

    // ok() already certifies cell-level agreement; pin the mask-level
    // consequence explicitly (the empirical blocked-set IS the claim).
    let points: Vec<_> = spec.points().collect();
    for (run, point) in report.runs.iter().zip(&points) {
        assert_eq!(run.blocked_mask, expected_mask(point), "{point}");
    }

    // The grid must be discriminating: every attack class is blocked
    // somewhere and succeeds somewhere — an attack that never lands
    // (or never gets stopped) tests nothing. The one exception proves
    // the budget story: the cycle hog crosses no spatial boundary, so
    // the *unbudgeted* grid must never block it (the budgeted quick
    // grid, exercised in the crate tests, blocks it everywhere).
    for attack in Attack::ALL {
        let bit = 1u16 << attack.bit();
        if attack == Attack::CycleHog {
            assert!(
                report.runs.iter().all(|r| r.blocked_mask & bit == 0),
                "no unbudgeted configuration can stop the cycle hog"
            );
            continue;
        }
        assert!(
            report.runs.iter().any(|r| r.blocked_mask & bit != 0),
            "{attack} is never blocked on the grid"
        );
        assert!(
            report.runs.iter().any(|r| r.blocked_mask & bit == 0),
            "{attack} never succeeds on the grid"
        );
    }

    // And the monotonicity check must actually have edges to walk:
    // the grid spans the §5 order, it is not an antichain.
    let edges = sweep_order_pairs(&points);
    assert!(
        edges.len() > 100,
        "expected a rich safety order over the grid, got {} edges",
        edges.len()
    );
    // Including at least one *strict* edge where the stronger point
    // blocks strictly more.
    assert!(
        edges
            .iter()
            .any(|&(i, j)| { report.runs[i].blocked_mask != report.runs[j].blocked_mask }),
        "no safety-order edge changes the blocked-set"
    );
}
