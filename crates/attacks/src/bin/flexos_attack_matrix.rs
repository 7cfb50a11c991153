//! `flexos_attack_matrix` — runs the adversarial suite over a
//! configuration grid and cross-checks outcomes against the
//! expectation oracle and the §5 safety order.
//!
//! ```text
//! flexos_attack_matrix [--space quick|full] [--budget] [--quiet]
//!                      [--trace PATH] [--metrics PATH]
//! ```
//!
//! `--budget` doubles the grid: every point runs unbudgeted *and* with
//! the uniform `flexos_attacks::GRID_BUDGET` compartment budget, and
//! the order check spans the unbudgeted -> budgeted edges.
//!
//! Prints the matrix as one JSON line on stdout (machine-readable,
//! like the sweep binary) and a human summary on stderr. Exit status:
//! `0` when every cell matches the oracle and every order edge is
//! monotone, `1` when a `--trace`/`--metrics` path cannot be written,
//! `2` on any expectation or monotonicity violation, `3` on usage or
//! infrastructure errors.

use std::process::ExitCode;

use flexos_attacks::{attack_space, attack_space_quick, run_matrix, run_matrix_budgeted};
use flexos_bench::cli::{self, CliError};

const USAGE: &str = "flexos_attack_matrix [--space quick|full] [--budget] [--quiet] \
    [--trace PATH] [--metrics PATH]";

/// Everything between argv and the exit status of a matrix that ran.
fn matrix_main(mut raw: Vec<String>) -> Result<u8, CliError> {
    let obs = cli::extract_obs_args(&mut raw)?;
    let mut space = "quick".to_string();
    let mut budget = false;
    let mut quiet = false;
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--space" => {
                space = args
                    .next()
                    .ok_or_else(|| CliError::Usage("missing value for --space".to_string()))?;
            }
            "--budget" => budget = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!("usage: {USAGE}");
                return Ok(0);
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let spec = match space.as_str() {
        "quick" => attack_space_quick(),
        "full" => attack_space(),
        other => return Err(CliError::Usage(format!("unknown space `{other}`"))),
    };
    let result = if budget {
        run_matrix_budgeted(&spec)
    } else {
        run_matrix(&spec)
    };
    let report = result
        .map_err(|fault| CliError::Run(format!("attack matrix infrastructure fault: {fault}")))?;
    cli::print_stdout(&(report.to_json() + "\n"))?;
    if !quiet {
        let blocked: usize = report
            .runs
            .iter()
            .map(|r| r.blocked_mask.count_ones() as usize)
            .sum();
        eprintln!(
            "{}: {} points x {} attacks, {} cells blocked, {} mismatches, {} order violations",
            report.space,
            report.runs.len(),
            flexos_attacks::Attack::ALL.len(),
            blocked,
            report.mismatches.len(),
            report.order_violations.len()
        );
    }
    for m in &report.mismatches {
        eprintln!("expectation violated: {m}");
    }
    for v in &report.order_violations {
        eprintln!("monotonicity violated: {v}");
    }
    cli::emit_canonical_if_requested(&obs)?;
    Ok(if report.ok() { 0 } else { 2 })
}

fn main() -> ExitCode {
    let result = matrix_main(std::env::args().skip(1).collect());
    cli::adversary_exit("flexos_attack_matrix", USAGE, result)
}
