//! `subseq-search`: UCR-suite subsequence search
//! (`mining::search::subsequence_search`) of a length-128 query over one
//! shard of a resident random-walk haystack. Lower bounds settle almost
//! every position; just-in-time z-normalisation runs at all of them.
//!
//! Search cost depends steeply on the query: a z-normalised query of high
//! complexity (the length of its line, `sqrt(Σ Δq²)`) matches nothing
//! closely, so the best-so-far stays high and few positions are pruned.
//! One query's cost varies several-fold, so a mix of a few random queries
//! makes the mean cost swing with the seed. The benchmark therefore
//! serves many small ops, one query per shard, and draws the queries
//! stratified by complexity: from a seeded pool, the query at the middle
//! of each of `shards` equal complexity strata.

use crate::measure::{Meters, SetupTimes, Workload};
use std::time::Instant;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::cdtw_distance;
use tsdtw_core::error::Result;
use tsdtw_core::norm::znorm;
use tsdtw_datasets::random_walk::random_walk;
use tsdtw_datasets::SeededRng;
use tsdtw_mining::search::{
    subsequence_search, subsequence_search_brute, subsequence_search_metered, SearchResult,
};

/// Sizes of the `subseq-search` inputs.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Haystack shards; op `i` searches shard `i` with query `i`.
    pub shards: usize,
    /// Points per shard.
    pub shard_len: usize,
    /// Query length.
    pub query_len: usize,
    /// Sakoe–Chiba band, cells.
    pub band: usize,
    /// Candidate queries drawn per stratum.
    pub pool_per_query: usize,
    /// How many ops (the first ones) are also checked for optimality
    /// against the brute-force search.
    pub brute_checked: usize,
}

impl SearchConfig {
    /// The benchmark's inputs: a 2.05M-point random-walk haystack in 256
    /// shards of 8,000 points, 256 queries of length 128 (band 6), 16
    /// of them brute-force checked.
    pub const BENCH: SearchConfig = SearchConfig {
        shards: 256,
        shard_len: 8_000,
        query_len: 128,
        band: 6,
        pool_per_query: 16,
        brute_checked: 16,
    };
}

/// Resident state: the haystack shards and one query per shard.
pub struct SubseqSearch {
    shards: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
    band: usize,
    brute_checked: usize,
    brute: Vec<SearchResult>,
}

/// Complexity of a series after z-normalisation: `sqrt(Σ Δq²)`.
fn complexity(q: &[f64]) -> Result<f64> {
    let z = znorm(q)?;
    Ok(z.windows(2)
        .map(|d| (d[1] - d[0]).powi(2))
        .sum::<f64>()
        .sqrt())
}

/// `n` queries stratified by complexity: from `n · per` seeded random
/// walks sorted by complexity, the middle one of each run of `per`.
fn stratified_queries(
    rng: &mut SeededRng,
    n: usize,
    per: usize,
    len: usize,
) -> Result<Vec<Vec<f64>>> {
    let mut pool = (0..n * per)
        .map(|_| {
            let q = random_walk(len, rng.child_seed())?;
            Ok((complexity(&q)?, q))
        })
        .collect::<Result<Vec<_>>>()?;
    pool.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok((0..n)
        .map(|k| std::mem::take(&mut pool[k * per + per / 2].1))
        .collect())
}

impl SubseqSearch {
    /// Re-derives the distance of query `i` at `pos` the way the searcher
    /// defines it: the window z-normalised from the rolling sums at that
    /// position, against the z-normalised query, under plain `cDTW`.
    fn distance_at(&self, i: usize, pos: usize) -> Result<f64> {
        let h = &self.shards[i];
        let m = self.queries[i].len();
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for &v in &h[..m] {
            sum += v;
            sum_sq += v * v;
        }
        for p in 1..=pos {
            let (out, inc) = (h[p - 1], h[p + m - 1]);
            sum += inc - out;
            sum_sq += inc * inc - out * out;
        }
        let mean = sum / m as f64;
        let std = (sum_sq / m as f64 - mean * mean).max(0.0).sqrt();
        let inv = if std > f64::EPSILON { 1.0 / std } else { 0.0 };
        let window: Vec<f64> = h[pos..pos + m].iter().map(|&v| (v - mean) * inv).collect();
        cdtw_distance(&znorm(&self.queries[i])?, &window, self.band, SquaredCost)
    }
}

impl Workload for SubseqSearch {
    type Config = SearchConfig;
    type Out = SearchResult;

    fn setup(cfg: &SearchConfig, seed: u64) -> Result<(Self, SetupTimes)> {
        let t0 = Instant::now();
        let mut rng = SeededRng::new(seed);
        let shards = (0..cfg.shards)
            .map(|_| random_walk(cfg.shard_len, rng.child_seed()))
            .collect::<Result<_>>()?;
        let queries = stratified_queries(&mut rng, cfg.shards, cfg.pool_per_query, cfg.query_len)?;
        let gen_s = t0.elapsed().as_secs_f64();
        let w = SubseqSearch {
            shards,
            queries,
            band: cfg.band,
            brute_checked: cfg.brute_checked.min(cfg.shards),
            brute: Vec::new(),
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
        self.brute = (0..self.brute_checked)
            .map(|i| subsequence_search_brute(&self.shards[i], &self.queries[i], self.band))
            .collect::<Result<_>>()?;
        Ok(())
    }

    fn distinct(&self) -> usize {
        self.queries.len()
    }

    fn run(&mut self, i: usize) -> Result<SearchResult> {
        subsequence_search(&self.shards[i], &self.queries[i], self.band)
    }

    fn run_metered(&mut self, i: usize, meters: &mut Meters) -> Result<SearchResult> {
        let _span = tsdtw_obs::span("bench.subsequence_search");
        subsequence_search_metered(
            &self.shards[i],
            &self.queries[i],
            self.band,
            &mut meters.exact,
        )
    }

    /// The reported distance re-derives bitwise from the reported
    /// position; for the brute-checked queries the position is the
    /// brute-force optimum and the distances agree to 1e-9 relative (the
    /// brute force normalises each window in two passes, not from rolling
    /// sums, so the last bits may differ).
    fn check(&mut self, i: usize, out: &SearchResult) -> bool {
        let m = self.queries[i].len();
        if out.position + m > self.shards[i].len() {
            return false;
        }
        let rederived = self.distance_at(i, out.position);
        if rederived.map(f64::to_bits).ok() != Some(out.distance.to_bits()) {
            return false;
        }
        match self.brute.get(i) {
            Some(b) => {
                b.position == out.position
                    && (b.distance - out.distance).abs() <= 1e-9 * b.distance.max(1.0)
            }
            None => true,
        }
    }
}
