//! Figure 11b: gate latencies — function call, MPK-light, MPK-DSS, EPT,
//! and the Linux syscall reference points.

use flexos_core::compartment::DataSharing;
use flexos_core::config::SafetyConfig;
use flexos_machine::cost::CostModel;
use flexos_machine::fault::Fault;
use flexos_system::{configs, SystemBuilder};

/// Measures the round-trip latency of one empty cross-component call in
/// the given configuration (averaged over rounds). The target is
/// resolved once; the measured loop is the pure mechanism cost.
fn measure(config: SafetyConfig) -> Result<u64, Fault> {
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()?;
    let env = &os.env;
    let app = os.app_ids[0];
    let lwip = env
        .component_id("lwip")
        .ok_or_else(|| Fault::InvalidConfig {
            reason: "image has no `lwip` component".to_string(),
        })?;
    let poll = env.resolve(lwip, "lwip_poll");
    const ROUNDS: u64 = 64;
    env.run_as(app, || -> Result<u64, Fault> {
        // Warm once (EPT ring setup etc.).
        env.call_resolved(poll, || Ok(()))?;
        let start = env.machine().clock().now();
        for _ in 0..ROUNDS {
            env.call_resolved(poll, || Ok(()))?;
        }
        Ok((env.machine().clock().now() - start) / ROUNDS)
    })
}

/// The figure takes no arguments of its own (`--trace`/`--metrics` are
/// stripped before this sees the list).
fn parse_args(args: &[String]) -> Result<(), String> {
    match args.first() {
        None => Ok(()),
        Some(arg) => Err(format!("unexpected argument `{arg}`")),
    }
}

/// Prints the figure; the first fault ends it.
fn report() -> Result<(), Fault> {
    let cost = CostModel::default();
    let call = measure(configs::none())?;
    let light = measure(configs::mpk2(&["lwip"], DataSharing::SharedStack)?)?;
    let dss = measure(configs::mpk2(&["lwip"], DataSharing::Dss)?)?;
    let ept = measure(configs::ept2(&["lwip"])?)?;

    println!("# Figure 11b: gate latencies (cycles, round trip)");
    println!("{:>16} {:>9} {:>8}", "gate", "measured", "paper");
    println!("{:>16} {:>9} {:>8}", "function", call, 2);
    println!("{:>16} {:>9} {:>8}", "MPK-light", light, 62);
    println!("{:>16} {:>9} {:>8}", "MPK-dss", dss, 108);
    println!("{:>16} {:>9} {:>8}", "EPT", ept, 462);
    println!(
        "{:>16} {:>9} {:>8}",
        "syscall (KPTI)", cost.syscall_kpti, 470
    );
    println!(
        "{:>16} {:>9} {:>8}",
        "syscall-nokpti", cost.syscall_nokpti, 146
    );
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    if let Err(e) = parse_args(&args) {
        eprintln!("fig11b: {e}");
        eprintln!("usage: fig11b [--trace PATH] [--metrics PATH]");
        std::process::exit(2);
    }
    if let Err(fault) = report() {
        eprintln!("fig11b: run failed: {fault}");
        std::process::exit(1);
    }
    flexos_bench::obs::emit_canonical_if_requested(&obs);
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    #[test]
    fn stray_arguments_are_usage_errors_not_panics() {
        assert_eq!(parse_args(&[]), Ok(()));
        let err = parse_args(&["--bogus".to_string()]).unwrap_err();
        assert!(err.contains("`--bogus`"), "{err}");
    }
}
