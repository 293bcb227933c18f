//! `align`: the paper's head-to-head on one long pair (Case B). One op is
//! `cdtw_with_path` at w = 0.83 % followed by `fastdtw_with_path` with
//! r = 10 on a studio/live performance pair. No lower bound runs.

use crate::measure::{Meters, SetupTimes, Workload};
use std::time::Instant;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_with_path, percent_to_band};
use tsdtw_core::dtw::full::dtw_distance;
use tsdtw_core::dtw::windowed::windowed_with_path_metered;
use tsdtw_core::error::Result;
use tsdtw_core::fastdtw::{fastdtw_metered, fastdtw_with_path};
use tsdtw_core::{SearchWindow, WarpingPath};
use tsdtw_datasets::music::{performance_pair, PerformancePair};
use tsdtw_datasets::SeededRng;

/// Sizes of the `align` inputs.
#[derive(Debug, Clone, Copy)]
pub struct AlignConfig {
    /// Series length.
    pub n: usize,
    /// Warping window, percent; the live version drifts by `n·w/100`.
    pub w_percent: f64,
    /// FastDTW radius.
    pub radius: usize,
    /// Distinct pairs.
    pub pairs: usize,
}

impl AlignConfig {
    /// The benchmark's inputs: the `caseb` experiment's N = 8000,
    /// w = 0.83 %, r = 10, over 8 distinct pairs.
    pub const BENCH: AlignConfig = AlignConfig {
        n: 8000,
        w_percent: 0.83,
        radius: 10,
        pairs: 8,
    };
}

/// One op's output.
pub struct AlignOut {
    /// `cDTW_w` distance and path.
    pub cdtw: (f64, WarpingPath),
    /// `FastDTW_r` distance and path.
    pub fastdtw: (f64, WarpingPath),
    /// Time of the `cdtw_with_path` call, seconds.
    pub cdtw_s: f64,
    /// Time of the `fastdtw_with_path` call, seconds.
    pub fastdtw_s: f64,
}

/// Resident state: the pairs and their exact full-DTW distances.
pub struct Align {
    pairs: Vec<PerformancePair>,
    band: usize,
    radius: usize,
    exact: Vec<f64>,
    /// FastDTW distance of each pair, from the first checked op.
    fastdtw_seen: Vec<Option<f64>>,
    call_s: [f64; 2],
    calls: u64,
}

/// A valid warping path for `x`, `y` (starts at (0,0), ends at
/// (n−1,m−1), monotone, continuous) whose replayed cost is `d`, within
/// `band` of the diagonal when one is given.
fn path_ok(p: &WarpingPath, x: &[f64], y: &[f64], d: f64, band: Option<usize>) -> bool {
    WarpingPath::new(p.cells().to_vec()).is_ok()
        && p.validate_for(x.len(), y.len()).is_ok()
        && band.is_none_or(|b| p.max_diagonal_deviation() <= b)
        && p.replay_cost(x, y, SquaredCost)
            .is_ok_and(|c| c.to_bits() == d.to_bits())
}

impl Workload for Align {
    type Config = AlignConfig;
    type Out = AlignOut;
    /// Set-up takes ~20 ms, so 11 reps would span a fifth of a second; 51
    /// take about a second, as the other workloads' 11 do (0.7–2.5 s).
    const SETUP_REPS: usize = 51;

    fn setup(cfg: &AlignConfig, seed: u64) -> Result<(Self, SetupTimes)> {
        let t0 = Instant::now();
        let mut rng = SeededRng::new(seed);
        let drift = cfg.n as f64 * cfg.w_percent / 100.0;
        let pairs = (0..cfg.pairs)
            .map(|_| performance_pair(cfg.n, drift, rng.child_seed()))
            .collect::<Result<_>>()?;
        let gen_s = t0.elapsed().as_secs_f64();
        let w = Align {
            pairs,
            band: percent_to_band(cfg.n, cfg.w_percent)?,
            radius: cfg.radius,
            exact: Vec::new(),
            fastdtw_seen: vec![None; cfg.pairs],
            call_s: [0.0; 2],
            calls: 0,
        };
        Ok((
            w,
            SetupTimes {
                gen_s,
                znorm_s: 0.0,
            },
        ))
    }

    fn build_oracle(&mut self) -> Result<()> {
        self.exact = self
            .pairs
            .iter()
            .map(|p| dtw_distance(&p.studio, &p.live, SquaredCost))
            .collect::<Result<_>>()?;
        Ok(())
    }

    fn distinct(&self) -> usize {
        self.pairs.len()
    }

    fn run(&mut self, i: usize) -> Result<AlignOut> {
        let p = &self.pairs[i];
        let t0 = Instant::now();
        let cdtw = cdtw_with_path(&p.studio, &p.live, self.band, SquaredCost)?;
        let t1 = Instant::now();
        let fastdtw = fastdtw_with_path(&p.studio, &p.live, self.radius, SquaredCost)?;
        Ok(AlignOut {
            cdtw,
            fastdtw,
            cdtw_s: (t1 - t0).as_secs_f64(),
            fastdtw_s: t1.elapsed().as_secs_f64(),
        })
    }

    fn run_metered(&mut self, i: usize, meters: &mut Meters) -> Result<AlignOut> {
        let p = &self.pairs[i];
        let t0 = Instant::now();
        let cdtw = {
            // `cdtw_with_path` is exactly this window and kernel; the
            // metered form is the only way to count its cells.
            let _span = tsdtw_obs::span("bench.cdtw_with_path");
            let window = SearchWindow::sakoe_chiba(p.studio.len(), p.live.len(), self.band);
            windowed_with_path_metered(&p.studio, &p.live, &window, SquaredCost, &mut meters.exact)?
        };
        let t1 = Instant::now();
        let fastdtw = {
            let _span = tsdtw_obs::span("bench.fastdtw_with_path");
            let (d, path, _) = fastdtw_metered(
                &p.studio,
                &p.live,
                self.radius,
                SquaredCost,
                &mut meters.fastdtw,
            )?;
            (d, path)
        };
        Ok(AlignOut {
            cdtw,
            fastdtw,
            cdtw_s: (t1 - t0).as_secs_f64(),
            fastdtw_s: t1.elapsed().as_secs_f64(),
        })
    }

    /// Both paths are valid and replay to their distances (the cDTW path
    /// stays inside the band); FastDTW never beats exact DTW, nor does
    /// cDTW; every pass returns the same FastDTW distance per pair.
    fn check(&mut self, i: usize, out: &AlignOut) -> bool {
        let p = &self.pairs[i];
        let exact = self.exact[i];
        let (cd, cpath) = &out.cdtw;
        let (fd, fpath) = &out.fastdtw;
        let seen = *self.fastdtw_seen[i].get_or_insert(*fd);
        self.call_s[0] += out.cdtw_s;
        self.call_s[1] += out.fastdtw_s;
        self.calls += 1;
        path_ok(cpath, &p.studio, &p.live, *cd, Some(self.band))
            && path_ok(fpath, &p.studio, &p.live, *fd, None)
            && *cd >= exact
            && *fd >= exact
            && seen.to_bits() == fd.to_bits()
    }

    /// `approx_error_pct`: mean over the pairs of 100·(FastDTW − DTW)/DTW;
    /// plus the mean time of each of the two calls, timed from outside.
    fn figures(&self) -> Vec<(&'static str, f64)> {
        let errs: Vec<f64> = self
            .fastdtw_seen
            .iter()
            .zip(&self.exact)
            .filter_map(|(f, &e)| f.map(|f| 100.0 * (f - e) / e))
            .collect();
        let calls = self.calls.max(1) as f64;
        vec![
            (
                "approx_error_pct",
                errs.iter().sum::<f64>() / errs.len().max(1) as f64,
            ),
            ("cdtw_call_ms", self.call_s[0] * 1e3 / calls),
            ("fastdtw_call_ms", self.call_s[1] * 1e3 / calls),
        ]
    }
}
