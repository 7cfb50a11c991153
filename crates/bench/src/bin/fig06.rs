//! Figure 6: Redis/Nginx throughput over the 80-configuration sweep.

use flexos_bench::obs::{emit_canonical_if_requested, extract_obs_args};
use flexos_bench::{fig06_text, fig6_counts};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = extract_obs_args(&mut args);
    let app = args.first().map_or("redis", String::as_str);
    if !matches!(app, "redis" | "nginx") {
        eprintln!("fig06: unknown app `{app}`");
        eprintln!("usage: fig06 [redis|nginx] [--trace PATH] [--metrics PATH]");
        std::process::exit(2);
    }
    eprintln!("running 80 configurations for {app}...");
    let text = fig06_text(app, fig6_counts()).unwrap_or_else(|fault| {
        eprintln!("fig06: run failed: {fault}");
        std::process::exit(1);
    });
    print!("{text}");

    emit_canonical_if_requested(&obs);
}
