//! Figure 8: the Redis configuration poset and the safest configurations
//! above a 500k req/s budget (stars).

use flexos_bench::{fig08_text, fig6_counts};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    let budget = match args.first().map(|s| s.parse::<f64>()) {
        None => 500_000.0,
        Some(Ok(budget)) => budget,
        Some(Err(e)) => {
            eprintln!("fig08: bad budget `{}`: {e}", args[0]);
            eprintln!("usage: fig08 [BUDGET_REQ_PER_SEC] [--trace PATH] [--metrics PATH]");
            std::process::exit(2);
        }
    };
    eprintln!("running 80 redis configurations...");
    let text = fig08_text(budget, fig6_counts()).unwrap_or_else(|fault| {
        eprintln!("fig08: run failed: {fault}");
        std::process::exit(1);
    });
    print!("{text}");

    flexos_bench::obs::emit_canonical_if_requested(&obs);
}
