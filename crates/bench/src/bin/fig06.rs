//! Figure 6: Redis/Nginx throughput over the 80-configuration sweep.

fn main() -> std::process::ExitCode {
    flexos_bench::cli::figure_main("fig06")
}
