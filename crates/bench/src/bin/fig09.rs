//! Figure 9: iPerf throughput vs receive-buffer size for Unikraft,
//! FlexOS NONE, MPK2-light, MPK2-DSS, and EPT2.

use flexos_apps::workloads::run_iperf;
use flexos_core::compartment::DataSharing;
use flexos_core::config::SafetyConfig;
use flexos_machine::fault::Fault;
use flexos_system::{configs, SystemBuilder};

const ISOLATED: [&str; 5] = ["lwip", "newlib", "uksched", "vfscore", "ramfs"];

fn run(config: SafetyConfig, buf: u64) -> Result<f64, Fault> {
    let os = SystemBuilder::new(config)
        .app(flexos_apps::iperf_component())
        .build()?;
    // Move ~1 MB per point; enough for the batching effects to show.
    run_iperf(&os, buf, 1_000_000)
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
    let bufs: Vec<u64> = (4..=14).map(|p| 1u64 << p).collect();
    println!("# Figure 9: iPerf throughput (Gb/s) vs receive buffer size");
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>12} {:>12}",
        "buf(B)", "Unikraft", "FlexOS-NONE", "MPK2-light", "MPK2-dss", "EPT2"
    );
    for &buf in &bufs {
        // The iperf app compartment vs "the rest of the system including
        // the network stack" (§6.3): everything else moves together.
        let none = run(configs::none(), buf)?;
        let light = run(configs::mpk2(&ISOLATED, DataSharing::SharedStack)?, buf)?;
        let dss = run(configs::mpk2(&ISOLATED, DataSharing::Dss)?, buf)?;
        let ept = run(configs::ept2(&ISOLATED)?, buf)?;
        // Unikraft == FlexOS without the flexibility layer: identical
        // hot path, no gate metadata ("you only pay for what you get").
        let unikraft = none;
        println!(
            "{:>8} {:>10.3} {:>12.3} {:>14.3} {:>12.3} {:>12.3}",
            buf, unikraft, none, light, dss, ept
        );
    }
    println!("\n# paper: MPK within 1.5x of baseline, converging >=128B;");
    println!("# EPT 1.1-2.2x slower than MPK-dss, ~90% of baseline >=256B");
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    if let Err(e) = parse_args(&args) {
        eprintln!("fig09: {e}");
        eprintln!("usage: fig09 [--trace PATH] [--metrics PATH]");
        std::process::exit(2);
    }
    if let Err(fault) = report() {
        eprintln!("fig09: run failed: {fault}");
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
