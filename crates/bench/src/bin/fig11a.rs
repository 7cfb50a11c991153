//! Figure 11a: shared stack-variable allocation latency — heap
//! conversion vs DSS vs fully shared stacks, for 1-3 buffers.

use flexos_core::compartment::DataSharing;
use flexos_core::config::SafetyConfig;
use flexos_core::prelude::*;
use flexos_machine::fault::Fault;
use flexos_system::SystemBuilder;

fn measure(sharing: DataSharing, buffers: u32) -> Result<u64, Fault> {
    let config = SafetyConfig::builder()
        .compartment(CompartmentSpec::new("c1", Mechanism::IntelMpk).default_compartment())
        .compartment(CompartmentSpec::new("c2", Mechanism::IntelMpk))
        .place("lwip", "c2")
        .data_sharing(sharing)
        .build()?;
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()?;
    let env = &os.env;
    let app = os.app_ids[0];
    // Warm the allocator (first cut of the shared heap is slow-path).
    env.run_as(app, || -> Result<(), Fault> {
        let warm = env.stack_share_alloc(1)?;
        env.stack_share_release(warm)
    })?;
    // "a function that allocates 1 to 3 shared stack variables (size
    // 1 byte) and returns immediately" (§6.5), averaged over rounds.
    const ROUNDS: u64 = 32;
    let start = env.machine().clock().now();
    env.run_as(app, || -> Result<(), Fault> {
        for _ in 0..ROUNDS {
            let mut shares = Vec::new();
            for _ in 0..buffers {
                shares.push(env.stack_share_alloc(1)?);
            }
            for share in shares {
                env.stack_share_release(share)?;
            }
        }
        Ok(())
    })?;
    Ok((env.machine().clock().now() - start) / ROUNDS)
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
    println!("# Figure 11a: shared stack allocation latency (cycles)");
    println!(
        "{:>9} {:>8} {:>8} {:>14}",
        "buffers", "heap", "DSS", "shared-stack"
    );
    for buffers in 1..=3 {
        let heap = measure(DataSharing::HeapConversion, buffers)?;
        let dss = measure(DataSharing::Dss, buffers)?;
        let shared = measure(DataSharing::SharedStack, buffers)?;
        println!("{buffers:>9} {heap:>8} {dss:>8} {shared:>14}");
    }
    println!("\n# paper: heap 100-300+ cycles growing per buffer;");
    println!("# DSS and shared stack constant at stack speed (2 cycles)");
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    if let Err(e) = parse_args(&args) {
        eprintln!("fig11a: {e}");
        eprintln!("usage: fig11a [--trace PATH] [--metrics PATH]");
        std::process::exit(2);
    }
    if let Err(fault) = report() {
        eprintln!("fig11a: run failed: {fault}");
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
