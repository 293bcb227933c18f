//! The benchmark binary with timing spans compiled in (per-layer run).

fn main() {
    std::process::exit(tsdtw_perfbench::cli_main());
}
