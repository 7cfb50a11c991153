//! §5 partial safety ordering, end to end: take the Figure 6 space
//! (`SpaceSpec::fig6`, on a reduced strategy set for speed), measure
//! each configuration with the sweep engine, build the poset under
//! `sweep_leq`, prune under a budget, and print the stars.
//!
//! ```sh
//! cargo run --example explore_safety [budget_req_per_sec]
//! ```

use flexos::prelude::*;
use flexos_bench::fig6_label;
use flexos_explore::{prune_and_star_by, Poset, Strategy};
use flexos_sweep::{run_parallel, sweep_leq, SpaceSpec};

fn main() -> Result<(), Fault> {
    let budget: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(800_000.0);

    // Measure a 32-point slice of the space (strategies A+B, all
    // hardening masks) to keep the example quick.
    let mut spec = SpaceSpec::fig6("redis", 5, 30);
    spec.strategies = vec![Strategy::Together, Strategy::SplitLwip];
    println!("measuring {} configurations...", spec.len());
    let slice: Vec<_> = spec.points().collect();
    let perf: Vec<f64> = run_parallel(&spec, 1)?
        .iter()
        .map(|r| r.ops_per_sec)
        .collect();

    let poset = Poset::new(perf, |a, b| sweep_leq(&slice[a], &slice[b]));
    poset.check_axioms().expect("sound partial order");
    let report = prune_and_star_by(&poset, |_| budget);

    println!(
        "\nbudget {:.0} req/s: {} survive, {} pruned, {} starred",
        budget,
        report.surviving.len(),
        report.pruned(slice.len()),
        report.stars.len()
    );
    for &s in &report.stars {
        println!(
            "  * {:>9.0} req/s  {}",
            poset.performance(s),
            fig6_label(&slice[s])
        );
    }
    println!("\npick any star: it is a safest-available configuration at this budget.");
    Ok(())
}
