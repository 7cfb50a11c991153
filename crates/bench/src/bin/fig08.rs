//! Figure 8: the Redis configuration poset and the safest configurations
//! above a 500k req/s budget (stars).

fn main() -> std::process::ExitCode {
    flexos_bench::cli::figure_main("fig08")
}
