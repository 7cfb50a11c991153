//! Figure 10: SQLite 5000-INSERT comparison across systems.

fn main() -> std::process::ExitCode {
    flexos_bench::cli::figure_main("fig10")
}
