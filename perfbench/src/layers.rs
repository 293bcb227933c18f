//! Per-layer metrics of a traced run: work counts from the `_metered`
//! entry points and busy/self times from the span table. A layer that
//! does not run in a workload reports 0.

use crate::measure::RunResult;
use crate::spans::SpanRow;

/// Span labels of the exact DTW kernels (`core::dtw`).
const DTW_KERNELS: &[&str] = &[
    "cdtw",
    "dtw_ea",
    "dtw_windowed",
    "dtw_batch",
    "dtw_wavefront",
    "dtw_full",
    "dtw_pruned",
    "dtw_rle",
];

/// Span labels of the FastDTW recursion, whose DP belongs to FastDTW.
const FASTDTW: &[&str] = &["fastdtw", "fastdtw_level", "fastdtw_base"];

/// Span labels of `core::lower_bounds`, including the cascade's own glue
/// and its stage-4 cumulative-bound preparation (`cascade_dtw` self time).
const LOWER_BOUNDS: &[&str] = &[
    "cascade",
    "lb_kim",
    "lb_keogh_qc",
    "lb_keogh_cq",
    "cascade_dtw",
    "lb_keogh",
    "lb_improved",
    "lb_yi",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn is(label: &'static str) -> impl Fn(&SpanRow) -> bool {
    move |r| r.label == label
}

/// Every per-layer metric except `trace.overhead_frac` (which needs the
/// untraced run too), as `(name, unit, value)`.
pub fn per_layer(r: &RunResult) -> Vec<(&'static str, &'static str, f64)> {
    let ops = r.attempted as f64;
    let per_op = |v: f64| ratio(v, ops);
    let ms_per_op = |s: f64| ratio(s * 1e3, ops);
    let ex = &r.meters.exact;
    let fd = &r.meters.fastdtw;
    let sp = &r.spans;

    // Exact-DTW busy time: outermost DTW kernel spans outside FastDTW.
    let dtw_busy_s = sp.total_s(|row| {
        DTW_KERNELS.contains(&row.label)
            && !DTW_KERNELS.contains(&row.parent)
            && !FASTDTW.contains(&row.parent)
    });
    let fastdtw_busy_s = sp.total_s(is("fastdtw"));
    let fastdtw_cells = fd.cells as f64;
    let candidates = ex.candidates() as f64;
    let figure = |name: &str| {
        r.figures
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let median = |f: fn(&crate::measure::SetupTimes) -> f64| {
        let v: Vec<f64> = r.setup_times.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            crate::measure::median_sorted(&crate::measure::sorted(&v))
        }
    };

    vec![
        // core::dtw
        ("dtw.cells_per_op", "count", per_op(ex.cells as f64)),
        (
            "dtw.window_fill_frac",
            "frac",
            ex.fill_fraction().unwrap_or(0.0),
        ),
        (
            "early_abandon.rows_filled_frac",
            "frac",
            ratio(ex.ea_rows_filled as f64, ex.ea_rows_total as f64),
        ),
        ("dtw.busy_ms_per_op", "ms", ms_per_op(dtw_busy_s)),
        (
            "dtw.ns_per_cell",
            "ns",
            ratio(dtw_busy_s * 1e9, ex.cells as f64),
        ),
        (
            "batch.lanes_per_group",
            "count",
            ratio(ex.batch_lanes as f64, ex.batch_groups as f64),
        ),
        // core::lower_bounds
        ("lower_bounds.kim_per_op", "count", per_op(ex.lb_kim as f64)),
        (
            "lower_bounds.keogh_per_op",
            "count",
            per_op(ex.lb_keogh as f64),
        ),
        (
            "lower_bounds.busy_ms_per_op",
            "ms",
            ms_per_op(sp.self_s(|row| LOWER_BOUNDS.contains(&row.label))),
        ),
        (
            "prune.kim_frac",
            "frac",
            ratio(ex.pruned_kim as f64, candidates),
        ),
        (
            "prune.keogh_qc_frac",
            "frac",
            ratio(ex.pruned_keogh_qc as f64, candidates),
        ),
        (
            "prune.keogh_cq_frac",
            "frac",
            ratio(ex.pruned_keogh_cq as f64, candidates),
        ),
        (
            "prune.dtw_abandoned_frac",
            "frac",
            ratio(ex.dtw_abandoned as f64, candidates),
        ),
        (
            "prune.dtw_exact_frac",
            "frac",
            ratio(ex.dtw_exact as f64, candidates),
        ),
        // core::envelope
        (
            "envelope.built_per_op",
            "count",
            per_op(ex.envelopes_built as f64),
        ),
        (
            "envelope.points_per_op",
            "count",
            per_op(ex.envelope_points as f64),
        ),
        (
            "envelope.busy_ms_per_op",
            "ms",
            ms_per_op(sp.total_s(is("envelope"))),
        ),
        // mining::search
        // Candidates the pruning funnel disposed of: haystack windows in
        // a search, train series in a cascaded 1-NN.
        ("search.candidates_per_op", "count", per_op(candidates)),
        (
            "search.self_ms_per_op",
            "ms",
            ms_per_op(sp.self_s(is("subsequence_search"))),
        ),
        // mining::knn
        ("knn.self_ms_per_op", "ms", ms_per_op(sp.self_s(is("knn")))),
        // core::fastdtw, core::paa
        (
            "fastdtw.levels",
            "count",
            ratio(fd.levels.len() as f64, ops),
        ),
        ("fastdtw.cells_per_op", "count", per_op(fastdtw_cells)),
        ("fastdtw.busy_ms_per_op", "ms", ms_per_op(fastdtw_busy_s)),
        (
            "fastdtw.expand_ms_per_op",
            "ms",
            ms_per_op(sp.total_s(is("fastdtw_expand"))),
        ),
        (
            "paa.busy_ms_per_op",
            "ms",
            ms_per_op(sp.total_s(is("paa_halve"))),
        ),
        (
            "fastdtw.ns_per_cell",
            "ns",
            ratio(fastdtw_busy_s * 1e9, fastdtw_cells),
        ),
        (
            "fastdtw.cells_over_cdtw_cells",
            "ratio",
            ratio(fastdtw_cells, ex.cells as f64),
        ),
        ("fastdtw.approx_error_pct", "%", figure("approx_error_pct")),
        (
            "align.cdtw_ms_per_op",
            "ms",
            ms_per_op(sp.total_s(is("bench.cdtw_with_path"))),
        ),
        (
            "align.fastdtw_ms_per_op",
            "ms",
            ms_per_op(sp.total_s(is("bench.fastdtw_with_path"))),
        ),
        // memory and set-up
        (
            "dtw.dp_peak_bytes",
            "bytes",
            ex.dp_peak_bytes.max(fd.dp_peak_bytes) as f64,
        ),
        ("datasets.gen_s", "s", median(|t| t.gen_s)),
        ("norm.znorm_s", "s", median(|t| t.znorm_s)),
    ]
}
