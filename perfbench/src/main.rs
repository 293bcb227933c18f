//! The benchmark binary without tracing (end-to-end run).

fn main() {
    std::process::exit(tsdtw_perfbench::cli_main());
}
