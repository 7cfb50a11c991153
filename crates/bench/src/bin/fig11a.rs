//! Figure 11a: shared stack-variable allocation latency — heap
//! conversion vs DSS vs fully shared stacks, for 1-3 buffers.

fn main() -> std::process::ExitCode {
    flexos_bench::cli::figure_main("fig11a")
}
