//! Figure 7: normalized Nginx vs Redis performance per configuration,
//! grouped by compartment count.

fn main() -> std::process::ExitCode {
    flexos_bench::cli::figure_main("fig07")
}
