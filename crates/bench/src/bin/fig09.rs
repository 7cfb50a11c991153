//! Figure 9: iPerf throughput vs receive-buffer size for Unikraft,
//! FlexOS NONE, MPK2-light, MPK2-DSS, and EPT2.

fn main() -> std::process::ExitCode {
    flexos_bench::cli::figure_main("fig09")
}
