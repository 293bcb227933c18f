//! The benchmark's own guarantees, on small inputs: every op passes its
//! check, two runs with one seed give identical work counts and figures
//! (so the per-layer counts repeat exactly), and another seed changes the
//! inputs.

use tsdtw_perfbench::align::{Align, AlignConfig};
use tsdtw_perfbench::layers::per_layer;
use tsdtw_perfbench::measure::{measure, RunResult, Workload};
use tsdtw_perfbench::nn::{NnClassify, NnConfig};
use tsdtw_perfbench::search::{SearchConfig, SubseqSearch};

const NN: NnConfig = NnConfig {
    sets: 2,
    length: 64,
    n_classes: 4,
    per_class: 8,
    test_every: 4,
    w_percent: 10.0,
};

const SEARCH: SearchConfig = SearchConfig {
    shards: 6,
    shard_len: 1500,
    query_len: 32,
    band: 3,
    pool_per_query: 4,
    brute_checked: 3,
};

const ALIGN: AlignConfig = AlignConfig {
    n: 400,
    w_percent: 2.0,
    radius: 4,
    pairs: 3,
};

/// Counts that must repeat exactly: the work meters, the workload
/// figures that are not times (those end in `_ms`), and every per-layer
/// metric that is not a time, rendered bit-exactly.
fn counts(r: &RunResult) -> String {
    let layers: Vec<_> = per_layer(r)
        .into_iter()
        .filter(|(_, unit, _)| !matches!(*unit, "ms" | "ns" | "s"))
        .map(|(name, _, v)| (name, v.to_bits()))
        .collect();
    let figures: Vec<_> = r
        .figures
        .iter()
        .filter(|(name, _)| !name.ends_with("_ms"))
        .map(|(name, v)| (name, v.to_bits()))
        .collect();
    format!("{:?}\n{figures:?}\n{layers:?}", r.meters)
}

fn check<W: Workload>(cfg: &W::Config) {
    let a = measure::<W>(cfg, 7, 2, true).expect("run");
    let b = measure::<W>(cfg, 7, 2, true).expect("run");
    let c = measure::<W>(cfg, 8, 2, true).expect("run");
    for r in [&a, &b, &c] {
        assert!(r.attempted > 0);
        assert_eq!(r.ok, r.attempted, "every op passes its check");
        assert_eq!(r.attempted, 2 * r.distinct as u64);
    }
    assert_eq!(a.order, b.order);
    assert_eq!(counts(&a), counts(&b), "one seed, identical counts");
    assert_ne!(counts(&a), counts(&c), "another seed changes the inputs");
    // The untraced run serves the same inputs and passes the same checks.
    let plain = measure::<W>(cfg, 7, 1, false).expect("run");
    assert_eq!(plain.ok, plain.attempted);
    assert_eq!(plain.figures.len(), a.figures.len());
}

#[test]
fn nn_classify_is_deterministic_and_correct() {
    check::<NnClassify>(&NN);
}

#[test]
fn subseq_search_is_deterministic_and_correct() {
    check::<SubseqSearch>(&SEARCH);
}

#[test]
fn align_is_deterministic_and_correct() {
    check::<Align>(&ALIGN);
    let r = measure::<Align>(&ALIGN, 7, 1, true).expect("run");
    let err = r
        .figures
        .iter()
        .find(|(n, _)| *n == "approx_error_pct")
        .expect("align reports its FastDTW error")
        .1;
    assert!(err >= 0.0, "FastDTW never beats exact DTW");
}

#[test]
fn per_layer_metrics_are_complete_and_unique() {
    let r = measure::<NnClassify>(&NN, 1, 1, true).expect("run");
    let names: Vec<_> = per_layer(&r).into_iter().map(|(n, _, _)| n).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are unique");
    for required in [
        "dtw.cells_per_op",
        "prune.kim_frac",
        "fastdtw.levels",
        "datasets.gen_s",
    ] {
        assert!(names.contains(&required), "{required} reported");
    }
}
