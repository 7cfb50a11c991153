//! §7 "Quickly React to Hardware Protections Breaking Down": an MPK-class
//! vulnerability is announced; switch the same image from MPK gates to
//! EPT/VM isolation by editing one word of the configuration — the
//! engineering cost is nil.
//!
//! ```sh
//! cargo run --example switch_backend
//! ```

use flexos::prelude::*;
use flexos_apps::workloads::run_redis_gets;

fn build_and_measure(mechanism: &str) -> Result<(f64, String), Fault> {
    // One configuration file, one word different.
    let text = format!(
        "compartments:\n\
         - comp1:\n    mechanism: {mechanism}\n    default: True\n\
         - comp2:\n    mechanism: {mechanism}\n\
         libraries:\n\
         - lwip: comp2\n"
    );
    let config = SafetyConfig::parse_str(&text)?;
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()?;
    let m = run_redis_gets(&os, 10, 40)?;
    let gates = os
        .env
        .gate_names()
        .into_iter()
        .next()
        .map(|(_, _, kind)| kind)
        .unwrap_or_else(|| "none".into());
    Ok((m.ops_per_sec, gates))
}

fn main() -> Result<(), Fault> {
    println!("Tuesday: running with MPK gates.");
    let (mpk_rps, mpk_gate) = build_and_measure("intel-mpk")?;
    println!("  gates: {mpk_gate:>9}   throughput: {mpk_rps:>9.0} GET/s");

    println!("\nWednesday: PKU bypass disclosed. Rebuild with EPT:");
    let (ept_rps, ept_gate) = build_and_measure("vm-ept")?;
    println!("  gates: {ept_gate:>9}   throughput: {ept_rps:>9.0} GET/s");

    println!(
        "\nsame application, same annotations; {:.1}% throughput traded for\n\
         disjoint-address-space isolation until the microcode fix ships.",
        (mpk_rps / ept_rps - 1.0) * 100.0
    );
    Ok(())
}
