//! `flexos_faultinject` — fires a seeded fault-injection campaign at a
//! multi-tenant image under supervisor recovery and prints the
//! deterministic log.
//!
//! ```text
//! flexos_faultinject [--seed N] [--rounds N] [--check] [--quiet]
//!                    [--trace PATH] [--metrics PATH]
//! ```
//!
//! `--check` runs the same campaign twice and compares the logs
//! byte-for-byte — the determinism gate CI runs on every push. With
//! `--trace`/`--metrics` the *first* campaign runs with the event ring
//! enabled (the replay stays untraced, so `--check` doubles as proof
//! that tracing never perturbs the virtual clock) and the campaign's
//! own trace/metrics artifacts are written after the log. Exit
//! status: `0` on success, `1` when the image did not survive,
//! `--check` found a divergence or a `--trace`/`--metrics` path cannot
//! be written, `3` on usage or infrastructure errors.

use std::process::ExitCode;

use flexos_attacks::campaign::{build_campaign_image, run_campaign, run_campaign_on, CampaignSpec};
use flexos_bench::cli::{self, CliError};
use flexos_machine::fault::Fault;
use flexos_machine::trace::TraceConfig;

const USAGE: &str = "flexos_faultinject [--seed N] [--rounds N] [--check] [--quiet] \
    [--trace PATH] [--metrics PATH]";

fn infrastructure(fault: Fault) -> CliError {
    CliError::Run(format!("fault-injection infrastructure fault: {fault}"))
}

/// Everything between argv and the exit status of a campaign that ran.
fn campaign_main(mut raw: Vec<String>) -> Result<u8, CliError> {
    let obs = cli::extract_obs_args(&mut raw)?;
    let mut spec = CampaignSpec::default();
    let mut check = false;
    let mut quiet = false;
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        let mut count = |flag: &str, min: u64| {
            let text = args
                .next()
                .ok_or_else(|| CliError::Usage(format!("missing value for {flag}")))?;
            cli::parse_count(flag, &text, min)
        };
        match arg.as_str() {
            "--seed" => spec.seed = count("--seed", 0)?,
            "--rounds" => {
                spec.rounds = u32::try_from(count("--rounds", 0)?)
                    .map_err(|e| CliError::Usage(format!("bad --rounds: {e}")))?;
            }
            "--check" => check = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!("usage: {USAGE}");
                return Ok(0);
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let traced_os = if obs.requested() {
        let os = build_campaign_image().map_err(infrastructure)?;
        os.env.machine().tracer().enable(TraceConfig::default());
        Some(os)
    } else {
        None
    };
    let log = match &traced_os {
        Some(os) => run_campaign_on(os, &spec),
        None => run_campaign(&spec),
    }
    .map_err(infrastructure)?;
    if !quiet {
        cli::print_stdout(
            &log.lines()
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>(),
        )?;
    }
    eprintln!(
        "campaign seed={:#x} rounds={} reboots={} survived={} digest={:#018x}",
        log.seed,
        log.events.len(),
        log.reboots,
        log.survived,
        log.digest()
    );
    if check {
        let replay = run_campaign(&spec)
            .map_err(|fault| CliError::Run(format!("fault-injection replay fault: {fault}")))?;
        if replay.lines() != log.lines() {
            eprintln!("determinism violated: replay diverged from first run");
            for (a, b) in log.lines().iter().zip(replay.lines()) {
                if *a != b {
                    eprintln!("  first : {a}");
                    eprintln!("  replay: {b}");
                }
            }
            return Ok(1);
        }
        eprintln!("determinism check passed: replay is byte-identical");
    }
    if let Some(os) = &traced_os {
        cli::emit_observability(os, &obs)?;
    }
    if !log.survived {
        eprintln!("image did not survive the campaign");
        return Ok(1);
    }
    Ok(0)
}

fn main() -> ExitCode {
    let result = campaign_main(std::env::args().skip(1).collect());
    cli::adversary_exit("flexos_faultinject", USAGE, result)
}
