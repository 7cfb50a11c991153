//! §7 "Quickly Isolate Exploitable Libraries": a vulnerability is
//! disclosed in the network stack; rebuild with lwip in its own
//! EPT-backed compartment with full hardening — seconds of work, and the
//! exploit's blast radius collapses to one VM.
//!
//! ```sh
//! cargo run --example isolate_vulnerable_lib
//! ```

use flexos::prelude::*;

fn main() -> Result<(), Fault> {
    // Day 0: the embargoed bug report arrives. Ship this config:
    let config_text = "\
compartments:
- comp1:
    mechanism: vm-ept
    default: True
- quarantine:
    mechanism: vm-ept
    hardening: [kasan, ubsan, stack-protector]
libraries:
- lwip: quarantine
";
    let config = SafetyConfig::parse_str(config_text)?;
    println!("quarantine configuration:\n{config}");

    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()?;
    println!(
        "built: {} VMs, TCB {} LoC total",
        os.vm_images.len(),
        os.report.tcb.total_loc()
    );

    let env = &os.env;
    let redis = os.app_ids[0];
    let lwip = env.component_id("lwip").expect("lwip registered");

    // The attacker owns lwip. What can they reach?
    let secret = env.run_as(redis, || {
        let addr = env.malloc(64)?;
        env.mem_write(addr, b"customer-database-encryption-key")?;
        Ok::<_, Fault>(addr)
    })?;

    env.run_as(lwip, || {
        println!("\ncompromised lwip attempts, from inside its VM:");
        match env.mem_read_vec(secret, 32) {
            Err(f) => println!("  read app memory      -> {f}"),
            Ok(_) => println!("  read app memory      -> LEAKED (bug!)"),
        }
        match env.call_resolved(env.resolve(redis, "redis_internal_eval"), || Ok(())) {
            Err(f) => println!("  jump into app        -> {f}"),
            Ok(()) => println!("  jump into app        -> ENTERED (bug!)"),
        }
        // KASan hardening also catches in-compartment memory abuse.
        let own = env.malloc(16).expect("own allocation");
        match env.mem_write(own + 16, &[0x41]) {
            Err(f) => println!("  heap overflow (own)  -> {f}"),
            Ok(()) => println!("  heap overflow (own)  -> undetected"),
        }
    });

    println!("\nexploit contained; patch at leisure.");
    Ok(())
}
