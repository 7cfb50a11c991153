//! Table 1: porting effort — patch sizes and shared-variable counts,
//! plus the boundary traffic of a reference Redis run.

fn main() -> std::process::ExitCode {
    flexos_bench::cli::figure_main("table1")
}
