//! The tsdtw benchmark: three closed-loop, one-client workloads over the
//! serial public entry points, each in its own process.
//!
//! * `nn-classify` — cascaded 1-NN classification ([`nn`]);
//! * `subseq-search` — UCR-suite subsequence search ([`search`]);
//! * `align` — cDTW vs FastDTW on one long pair ([`align`]).
//!
//! Built without the `trace` feature the binary runs the plain entry
//! points (the end-to-end run). Built with it, the binary runs the
//! `_metered` entry points under a per-op flight recorder and reports the
//! per-layer metrics of [`layers`], writing the span table to the output
//! directory at exit. `run.py` builds both, runs them and prints the
//! result line; see `README.md`.

pub mod align;
pub mod layers;
pub mod measure;
pub mod nn;
pub mod search;
pub mod spans;

use measure::{measure, RunResult};
use std::path::PathBuf;
use tsdtw_obs::Json;

/// Whether this build runs the traced form of the workloads.
pub const TRACED: bool = cfg!(feature = "trace");

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["nn-classify", "subseq-search", "align"];

/// Nominal duration of one measured pass on the reference machine
/// (seconds), taken in its slower mode so a run seldom measures for
/// longer than asked. A run makes `round(seconds / nominal)` passes (at
/// least one), so its work is fixed by the arguments alone and never by
/// the clock.
fn nominal_pass_s(workload: &str) -> f64 {
    match workload {
        "nn-classify" => 0.45,
        "subseq-search" => 1.15,
        "align" => 0.105,
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// Passes a run of `seconds` makes.
pub fn passes_for(workload: &str, seconds: f64) -> usize {
    ((seconds / nominal_pass_s(workload)).round() as usize).max(1)
}

/// Runs `workload` at its benchmark size.
pub fn run_workload(workload: &str, seed: u64, passes: usize) -> tsdtw_core::Result<RunResult> {
    match workload {
        "nn-classify" => measure::<nn::NnClassify>(&nn::NnConfig::BENCH, seed, passes, TRACED),
        "subseq-search" => {
            measure::<search::SubseqSearch>(&search::SearchConfig::BENCH, seed, passes, TRACED)
        }
        "align" => measure::<align::Align>(&align::AlignConfig::BENCH, seed, passes, TRACED),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    out_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <nn-classify|subseq-search|align> \
--seed <u64> --seconds <s> [--out-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut out_dir) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        out_dir,
    })
}

/// The run's summary as one JSON object (the line `run.py` reads).
pub fn summary(workload: &str, seed: u64, r: &RunResult) -> Json {
    let lat = r.latency();
    let mut j = Json::object();
    j.set("workload", workload)
        .set("seed", seed)
        .set("traced", r.traced)
        .set("passes", r.passes)
        .set("distinct", r.distinct)
        .set("attempted", r.attempted)
        .set("ok", r.ok)
        .set("ops_per_s", r.ops_per_s())
        .set("wall_ops_per_s", r.wall_ops_per_s())
        .set("latency_p50_ms", lat.p50_s * 1e3)
        .set("latency_tail_ms", lat.tail_s * 1e3)
        .set("tail_percentile", lat.tail_pct)
        .set("tail_samples", lat.samples)
        .set("setup_s", r.setup_best_s())
        .set("setup_reps", r.setup_s.len())
        .set("peak_rss_mb", r.peak_rss_mb.unwrap_or(0.0));
    let mut figures = Json::object();
    for &(name, v) in &r.figures {
        figures.set(name, v);
    }
    j.set("figures", figures);
    if r.traced {
        let mut layers = Json::object();
        for (name, unit, v) in layers::per_layer(r) {
            let mut m = Json::object();
            m.set("value", v).set("unit", unit);
            layers.set(name, m);
        }
        j.set("per_layer", layers);
    }
    j
}

/// Entry point of both binaries; returns the process exit code.
pub fn cli_main() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let passes = passes_for(&args.workload, args.seconds);
    let r = match run_workload(&args.workload, args.seed, passes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return 1;
        }
    };
    if r.traced {
        let table = r.spans.render(r.attempted);
        eprintln!(
            "-- spans ({}, seed {}) --\n{table}",
            args.workload, args.seed
        );
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!("spans-{}-seed{}.txt", args.workload, args.seed));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &table))
            {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return 1;
            }
        }
    }
    println!(
        "{}",
        summary(&args.workload, args.seed, &r).to_string_compact()
    );
    0
}
