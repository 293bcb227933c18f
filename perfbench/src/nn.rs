//! `nn-classify`: 1-NN of one held-out query against a resident,
//! z-normalised labelled set through the UCR-suite cascade
//! (`mining::knn::nn_cascade`: LB_Kim → LB_Keogh ×2 → early-abandoning
//! cDTW). The DTW kernel does nearly all the work here.
//!
//! The resident state is several independent labelled sets (as a server
//! holding one per tenant would), each queried by its own held-out
//! queries. Query cost is bimodal — some classes prune far less than
//! others — and the class templates are drawn from the seed, so with one
//! set the median query lands in either mode depending on the seed. Over
//! 16 sets the mix, and with it the median and tail, barely moves with the
//! seed (a deterministic cost model of the meters puts the spread across
//! seeds of the median at 3 %, against 10 % with one set).

use crate::measure::{Meters, SetupTimes, Workload};
use std::time::Instant;
use tsdtw_core::dtw::banded::percent_to_band;
use tsdtw_core::error::Result;
use tsdtw_datasets::gesture::{uwave_like, GestureConfig};
use tsdtw_datasets::{LabeledDataset, SeededRng};
use tsdtw_mining::knn::{nn_brute_force, nn_cascade, nn_cascade_metered, DistanceSpec, NnResult};
use tsdtw_mining::LabeledView;

/// Sizes of the `nn-classify` inputs.
#[derive(Debug, Clone, Copy)]
pub struct NnConfig {
    /// Independent labelled sets.
    pub sets: usize,
    /// Series length.
    pub length: usize,
    /// Gesture classes.
    pub n_classes: usize,
    /// Exemplars generated per class.
    pub per_class: usize,
    /// Every `test_every`-th exemplar of each class is a held-out query.
    pub test_every: usize,
    /// Warping window, percent of the length (also the generator's
    /// maximum warp).
    pub w_percent: f64,
}

impl NnConfig {
    /// The benchmark's inputs: 16 sets of UWave-like gestures, N = 315,
    /// 8 classes, each with 384 train series and 8 held-out queries (one
    /// per class), w = 4 %: 128 queries in all.
    pub const BENCH: NnConfig = NnConfig {
        sets: 16,
        length: 315,
        n_classes: 8,
        per_class: 49,
        test_every: 49,
        w_percent: 4.0,
    };
}

/// Resident state: the z-normalised train sets and the held-out
/// queries, each with the index of its set.
pub struct NnClassify {
    train: Vec<LabeledDataset>,
    queries: Vec<(usize, Vec<f64>)>,
    band: usize,
    oracle: Vec<NnResult>,
}

impl NnClassify {
    /// The train set query `i` runs against.
    fn view(&self, i: usize) -> LabeledView<'_> {
        let set = &self.train[self.queries[i].0];
        LabeledView::new(&set.series, &set.labels).expect("train sets are non-empty")
    }
}

impl Workload for NnClassify {
    type Config = NnConfig;
    type Out = NnResult;

    fn setup(cfg: &NnConfig, seed: u64) -> Result<(Self, SetupTimes)> {
        let gen = GestureConfig {
            length: cfg.length,
            n_classes: cfg.n_classes,
            per_class: cfg.per_class,
            max_shift: cfg.length as f64 * cfg.w_percent / 100.0,
            ..GestureConfig::default()
        };
        let mut rng = SeededRng::new(seed);
        let (mut gen_s, mut znorm_s) = (0.0, 0.0);
        let mut train = Vec::with_capacity(cfg.sets);
        let mut queries = Vec::new();
        for set in 0..cfg.sets {
            let t0 = Instant::now();
            let data = uwave_like(&gen, rng.child_seed())?;
            let (mut tr, mut te) = data.split_stratified(cfg.test_every)?;
            let t1 = Instant::now();
            tr.znorm_all()?;
            te.znorm_all()?;
            znorm_s += t1.elapsed().as_secs_f64();
            gen_s += (t1 - t0).as_secs_f64();
            train.push(tr);
            queries.extend(te.series.into_iter().map(|q| (set, q)));
        }
        let w = NnClassify {
            train,
            queries,
            band: percent_to_band(cfg.length, cfg.w_percent)?,
            oracle: Vec::new(),
        };
        Ok((w, SetupTimes { gen_s, znorm_s }))
    }

    fn build_oracle(&mut self) -> Result<()> {
        let spec = DistanceSpec::CdtwBand(self.band);
        self.oracle = (0..self.queries.len())
            .map(|i| nn_brute_force(&self.view(i), &self.queries[i].1, spec, usize::MAX))
            .collect::<Result<_>>()?;
        Ok(())
    }

    fn distinct(&self) -> usize {
        self.queries.len()
    }

    fn run(&mut self, i: usize) -> Result<NnResult> {
        nn_cascade(&self.view(i), &self.queries[i].1, self.band, usize::MAX)
    }

    fn run_metered(&mut self, i: usize, meters: &mut Meters) -> Result<NnResult> {
        let _span = tsdtw_obs::span("bench.nn_cascade");
        nn_cascade_metered(
            &self.view(i),
            &self.queries[i].1,
            self.band,
            usize::MAX,
            &mut meters.exact,
        )
    }

    /// Same index and bitwise the same distance as the brute-force scan.
    fn check(&mut self, i: usize, out: &NnResult) -> bool {
        let want = &self.oracle[i];
        out.index == want.index
            && out.label == want.label
            && out.distance.to_bits() == want.distance.to_bits()
    }
}
