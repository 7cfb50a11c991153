//! Figure 11b: gate latencies — function call, MPK-light, MPK-DSS, EPT,
//! and the Linux syscall reference points.

fn main() -> std::process::ExitCode {
    flexos_bench::cli::figure_main("fig11b")
}
