//! Quickstart: build two FlexOS images of the *same* application with
//! different safety configurations — the paper's core promise — and
//! watch the isolation actually hold.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use flexos::prelude::*;
use flexos_apps::workloads::run_redis_gets;
use flexos_core::compartment::DataSharing;

fn main() -> Result<(), Fault> {
    // 1. A flat image (vanilla-Unikraft behaviour)...
    let flat = SystemBuilder::new(configs::none())
        .app(flexos_apps::redis_component())
        .build()?;
    let base = run_redis_gets(&flat, 10, 50)?;
    println!("flat image:        {:>9.0} GET/s", base.ops_per_sec);

    // 2. ...and the same app with the network stack behind an MPK gate.
    //    Same code, one configuration change (P1/P2 of the paper).
    let isolated = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss)?)
        .app(flexos_apps::redis_component())
        .build()?;
    let iso = run_redis_gets(&isolated, 10, 50)?;
    println!(
        "lwip isolated:     {:>9.0} GET/s  ({:.1}% overhead)",
        iso.ops_per_sec,
        (base.ops_per_sec / iso.ops_per_sec - 1.0) * 100.0
    );

    // 3. The isolation is real: redis' keyspace is physically
    //    unreachable from the lwip compartment.
    let env = &isolated.env;
    let redis = isolated.app_ids[0];
    let lwip = env.component_id("lwip").expect("lwip registered");
    let secret = env.run_as(redis, || {
        let addr = env.malloc(32)?;
        env.mem_write(addr, b"top-secret-value")?;
        Ok::<_, Fault>(addr)
    })?;
    env.run_as(lwip, || match env.mem_read_vec(secret, 16) {
        Err(Fault::ProtectionKey { .. }) => {
            println!("lwip -> redis heap: protection-key fault (as MPK guarantees)");
        }
        other => println!("unexpected: {other:?}"),
    });

    // 4. The toolchain's artifacts are inspectable, like the paper's
    //    source-level transformations.
    println!("\ngates instantiated:");
    for (from, to, kind) in isolated.env.gate_names() {
        println!("  {from} -> {to}: {kind}");
    }
    println!("{}", isolated.report.tcb);
    Ok(())
}
