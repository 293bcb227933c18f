//! The closed-loop measurement shared by every workload: one client, one
//! thread, serial entry points, a whole number of passes over the
//! workload's distinct inputs after one warm-up pass.

use crate::spans::SpanTable;
use std::time::Instant;
use tsdtw_core::error::Result;
use tsdtw_datasets::SeededRng;
use tsdtw_obs::WorkMeter;

/// Flight-recorder ring capacity for one traced op, in events. The
/// recorder grows its buffer on demand, so this is only a ceiling; the
/// heaviest ops record a few thousand events.
const RECORDER_CAPACITY: usize = 1 << 22;

/// Work meters of the measured traced ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Meters {
    /// Exact DTW and everything that feeds it: lower bounds, envelopes,
    /// early-abandoning and path-recovering DP.
    pub exact: WorkMeter,
    /// FastDTW (every resolution level and its DP).
    pub fastdtw: WorkMeter,
}

/// Time split of one set-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Generating the inputs.
    pub gen_s: f64,
    /// Z-normalising resident state.
    pub znorm_s: f64,
}

/// A benchmark workload: a fixed set of distinct inputs made from a seed,
/// the public call that serves one of them, and the check of its output.
pub trait Workload: Sized {
    /// Input sizes (the benchmark's and the smaller test ones).
    type Config;
    /// One op's output.
    type Out;
    /// How many times set-up runs in one process; `setup_s` is the
    /// fastest. A workload whose set-up takes only milliseconds sets it
    /// higher, so that its reps span about as much time as the others'.
    const SETUP_REPS: usize = 11;

    /// Generates the inputs and builds resident state: the timed set-up.
    fn setup(cfg: &Self::Config, seed: u64) -> Result<(Self, SetupTimes)>;
    /// Computes the reference answers the checks compare against. Not
    /// part of set-up and not timed.
    fn build_oracle(&mut self) -> Result<()>;
    /// Number of distinct inputs (ops per pass).
    fn distinct(&self) -> usize;
    /// Serves input `i` through the untraced public entry points.
    fn run(&mut self, i: usize) -> Result<Self::Out>;
    /// Serves input `i` through the `_metered` entry points, inside the
    /// benchmark's own span around each public call.
    fn run_metered(&mut self, i: usize, meters: &mut Meters) -> Result<Self::Out>;
    /// Whether the output of input `i` is correct.
    fn check(&mut self, i: usize, out: &Self::Out) -> bool;
    /// Workload-specific figures derived from the checked outputs, as
    /// `(name, value)`; names of times end in `_ms`, every other figure
    /// is a pure function of the seed.
    fn figures(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Everything one measured run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Whether the ops ran traced (metered, spans recorded).
    pub traced: bool,
    /// Measured passes.
    pub passes: usize,
    /// Distinct inputs per pass.
    pub distinct: usize,
    /// Ops attempted (passes × distinct).
    pub attempted: u64,
    /// Ops whose output passed its check.
    pub ok: u64,
    /// Per-op latency, seconds, in run order.
    pub latencies_s: Vec<f64>,
    /// Time of each measured pass's calls, seconds: the sum of its op
    /// latencies, so checks and the traced run's recorder bookkeeping
    /// are excluded alike from both runs.
    pub pass_s: Vec<f64>,
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Each set-up's split.
    pub setup_times: Vec<SetupTimes>,
    /// Peak resident set size after set-up, oracle and the warm-up pass,
    /// MiB (`None` where `/proc` is unavailable).
    pub peak_rss_mb: Option<f64>,
    /// Work counts of the measured ops (traced runs only).
    pub meters: Meters,
    /// Span table of the measured ops (traced runs only).
    pub spans: SpanTable,
    /// Workload-specific figures.
    pub figures: Vec<(&'static str, f64)>,
    /// Order the distinct inputs are served in within each pass.
    pub order: Vec<usize>,
}

/// The seeded order inputs are served in (a Fisher–Yates shuffle).
fn serve_order(distinct: usize, seed: u64) -> Vec<usize> {
    let mut rng = SeededRng::new(seed ^ 0x0D0E_5EED);
    let mut order: Vec<usize> = (0..distinct).collect();
    for k in (1..distinct).rev() {
        let j = rng.index(0, k + 1);
        order.swap(k, j);
    }
    order
}

/// One timed set-up, its times recorded in `res`.
fn timed_setup<W: Workload>(cfg: &W::Config, seed: u64, res: &mut RunResult) -> Result<W> {
    let t0 = Instant::now();
    let (w, times) = W::setup(cfg, seed)?;
    res.setup_s.push(t0.elapsed().as_secs_f64());
    res.setup_times.push(times);
    Ok(w)
}

/// Runs workload `W`: set-up, the oracle, one warm-up pass, then `passes`
/// measured passes. Each pass's outputs are checked after the pass,
/// outside its timing.
///
/// Set-up runs [`Workload::SETUP_REPS`] times. The first builds the state
/// the run serves; the others are timed and dropped between the measured
/// passes, spread evenly over them, so that they see the machine over the
/// whole run as the passes do, not in one burst at its start.
pub fn measure<W: Workload>(
    cfg: &W::Config,
    seed: u64,
    passes: usize,
    traced: bool,
) -> Result<RunResult> {
    let mut res = RunResult {
        traced,
        passes,
        ..RunResult::default()
    };
    let mut w = timed_setup::<W>(cfg, seed, &mut res)?;
    w.build_oracle()?;
    res.distinct = w.distinct();
    res.order = serve_order(res.distinct, seed);

    // Warm-up pass: same code path, nothing recorded. An op that fails
    // here fails again in the measured passes and is counted there.
    for &i in &res.order {
        let _ = if traced {
            w.run_metered(i, &mut Meters::default())
        } else {
            w.run(i)
        };
    }
    // The workload's peak: set-up, oracle and a whole pass. The extra
    // set-ups below hold a second copy of the state for a moment.
    res.peak_rss_mb = peak_rss_mb();

    let mut outs = Vec::with_capacity(res.distinct);
    for pass in 1..=passes {
        outs.clear();
        let mut pass_s = 0.0;
        for &i in &res.order {
            if traced {
                tsdtw_obs::recorder_start(RECORDER_CAPACITY);
            }
            let t0 = Instant::now();
            let out = if traced {
                w.run_metered(i, &mut res.meters)
            } else {
                w.run(i)
            };
            let op_s = t0.elapsed().as_secs_f64();
            res.latencies_s.push(op_s);
            pass_s += op_s;
            if traced {
                let trace = tsdtw_obs::recorder_stop().expect("recorder started above");
                res.spans.absorb(&trace);
            }
            outs.push((i, out));
        }
        res.pass_s.push(pass_s);
        for (i, out) in outs.drain(..) {
            res.attempted += 1;
            if out.is_ok_and(|o| w.check(i, &o)) {
                res.ok += 1;
            }
        }
        while res.setup_s.len() < 1 + (W::SETUP_REPS - 1) * pass / passes {
            drop(timed_setup::<W>(cfg, seed, &mut res)?);
        }
    }
    while res.setup_s.len() < W::SETUP_REPS {
        drop(timed_setup::<W>(cfg, seed, &mut res)?);
    }
    res.figures = w.figures();
    Ok(res)
}

/// Peak resident set size of this process (`VmHWM`), MiB; `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sorted copy of `v`.
pub(crate) fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank median of sorted samples.
pub(crate) fn median_sorted(s: &[f64]) -> f64 {
    s[tsdtw_obs::nearest_rank(s.len(), 0.5) - 1]
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`: the sample at nearest rank `n − 10`, which is
/// the `100·(n−10)/n`-th percentile. With fewer than 11 samples it falls
/// back to the maximum (percentile 100).
fn tail_sorted(s: &[f64]) -> (f64, f64) {
    let n = s.len();
    if n < 11 {
        return (s[n - 1], 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Latency figures of a run, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median of the per-input latencies.
    pub p50_s: f64,
    /// The highest percentile with at least ten samples beyond it (the
    /// slowest input when there are fewer than 11).
    pub tail_s: f64,
    /// Which percentile `tail_s` is.
    pub tail_pct: f64,
    /// Per-input samples the tail is taken over.
    pub samples: usize,
}

impl RunResult {
    /// Each input's latency: the fastest of its ops over the measured
    /// passes, in serving order.
    ///
    /// Every pass repeats the same deterministic work on the same input,
    /// so the spread between an input's ops is the machine's, not the
    /// program's: on a shared host the same op runs in a fast and a slow
    /// mode (up to 1.4× apart) as other tenants come and go, in spells of
    /// seconds to a minute. The machine only ever slows an op down, so
    /// the minimum is the estimate of the op's cost that spells move
    /// least; a mean or median follows the share of slow-mode time in the
    /// run and moves with it.
    pub fn per_input_s(&self) -> Vec<f64> {
        (0..self.distinct)
            .map(|k| {
                self.latencies_s
                    .iter()
                    .skip(k)
                    .step_by(self.distinct)
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// The fastest set-up, seconds: set-up is deterministic work too, and
    /// the machine's slow spells move its median as they move an op's.
    pub fn setup_best_s(&self) -> f64 {
        self.setup_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Throughput of the program's work, ops per second: one pass over
    /// the distinct inputs at their per-input latencies
    /// ([`Self::per_input_s`]), as a one-client closed loop would serve
    /// it.
    pub fn ops_per_s(&self) -> f64 {
        self.distinct as f64 / self.per_input_s().iter().sum::<f64>()
    }

    /// Throughput over the wall time of the measured calls (every op of
    /// every pass, contention included). Reported alongside, not gated.
    pub fn wall_ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.pass_s.iter().sum::<f64>()
    }

    /// The run's latency figures, the median and tail taken over the
    /// per-input latencies, so the tail ranks the slow inputs rather than
    /// the repetitions of one.
    pub fn latency(&self) -> Latency {
        let s = sorted(&self.per_input_s());
        let (tail_s, tail_pct) = tail_sorted(&s);
        Latency {
            p50_s: median_sorted(&s),
            tail_s,
            tail_pct,
            samples: s.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 12 inputs × 3 passes; input k takes k+1 ms, 3 ms more in the
    /// second pass and 1 ms more in the third.
    fn run_12x3() -> RunResult {
        let distinct = 12;
        let latencies_s: Vec<f64> = [0, 3, 1]
            .iter()
            .flat_map(|&extra| (0..distinct).map(move |k| (k + 1 + extra) as f64 * 1e-3))
            .collect();
        RunResult {
            distinct,
            attempted: latencies_s.len() as u64,
            pass_s: vec![0.078, 0.114, 0.09],
            setup_s: vec![0.3, 0.1, 0.2],
            latencies_s,
            ..RunResult::default()
        }
    }

    #[test]
    fn an_inputs_latency_and_set_up_are_their_fastest() {
        let r = run_12x3();
        let want: Vec<f64> = (1..=12).map(|k| k as f64 * 1e-3).collect();
        assert_eq!(r.per_input_s(), want);
        // One pass at 78 ms.
        assert!((r.ops_per_s() - 12.0 / 0.078).abs() < 1e-9);
        assert!((r.wall_ops_per_s() - 36.0 / 0.282).abs() < 1e-9);
        assert_eq!(r.setup_best_s(), 0.1);
    }

    #[test]
    fn latency_is_taken_over_per_input_latencies() {
        let lat = run_12x3().latency();
        assert_eq!(lat.samples, 12);
        // Nearest-rank median of 1..=12 ms: rank 6.
        assert!((lat.p50_s - 6e-3).abs() < 1e-12);
        // Ten inputs beyond the tail: rank 2 of 12.
        assert!((lat.tail_s - 2e-3).abs() < 1e-12);
        assert!((lat.tail_pct - 100.0 * 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn few_inputs_take_the_slowest_as_the_tail() {
        // Input 0 takes 1, 3, …, 19; input 1 takes 2, 4, …, 20.
        let r = RunResult {
            distinct: 2,
            latencies_s: (1..=20).map(|v| v as f64).collect(),
            ..RunResult::default()
        };
        let lat = r.latency();
        assert_eq!((lat.samples, lat.p50_s, lat.tail_s), (2, 1.0, 2.0));
        assert_eq!(lat.tail_pct, 100.0);
    }
}
