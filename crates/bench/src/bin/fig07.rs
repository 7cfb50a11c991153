//! Figure 7: normalized Nginx vs Redis performance per configuration,
//! grouped by compartment count.

use flexos_bench::{fig07_text, fig6_counts};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = flexos_bench::obs::extract_obs_args(&mut args);
    eprintln!("running 2x80 configurations (redis + nginx)...");
    let text = fig07_text(fig6_counts()).unwrap_or_else(|fault| {
        eprintln!("fig07: run failed: {fault}");
        std::process::exit(1);
    });
    print!("{text}");

    flexos_bench::obs::emit_canonical_if_requested(&obs);
}
