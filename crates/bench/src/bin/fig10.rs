//! Figure 10: SQLite 5000-INSERT comparison across systems.

use flexos_baselines::run_fig10_detailed;
use flexos_core::gate::GateKind;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    let n = match args.as_slice() {
        [] => Ok(5000),
        [n] => n
            .parse::<u64>()
            .map_err(|e| format!("bad INSERT count `{n}`: {e}")),
        [_, extra, ..] => Err(format!("unexpected argument `{extra}`")),
    }
    .unwrap_or_else(|e| {
        eprintln!("fig10: {e}");
        eprintln!("usage: fig10 [INSERTS] [--trace PATH] [--metrics PATH]");
        std::process::exit(2);
    });
    eprintln!("running the {n}-INSERT SQLite workload on 3 FlexOS images...");
    let detail = run_fig10_detailed(n).unwrap_or_else(|fault| {
        eprintln!("fig10: run failed: {fault}");
        std::process::exit(1);
    });
    let rows = &detail.rows;

    println!("# Figure 10: time for {n} INSERT transactions (seconds)");
    println!(
        "{:>22} {:>8} {:>10} {:>10}",
        "system", "profile", "seconds", "source"
    );
    for row in rows {
        println!(
            "{:>22} {:>8} {:>10.3} {:>10}",
            row.system.to_string(),
            row.profile.to_string(),
            row.seconds,
            if row.simulated {
                "simulated"
            } else {
                "overlay"
            }
        );
    }
    println!("\n# gate crossings per simulated run (dense per-kind counters):");
    for (profile, run) in &detail.simulated {
        let parts: Vec<String> = GateKind::ALL
            .iter()
            .filter(|k| run.crossings_by_kind[k.index()] > 0)
            .map(|k| format!("{k}={}", run.crossings_by_kind[k.index()]))
            .collect();
        println!(
            "# {:>6}: total={} {}",
            profile.to_string(),
            run.total_crossings,
            parts.join(" ")
        );
    }
    println!("\n# paper:       Unikraft .052/.702  FlexOS .054/.106/.173");
    println!("# paper:       Linux .177  SeL4 .333  CubicleOS .657/1.557");

    flexos_bench::obs::emit_canonical_if_requested(&obs);
}
