//! Order statistics used by every metric.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// closest ranks (the "R-7" rule); NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Paired speed-ups `ref / par` of interleaved measurements. Pairing
/// makes the ratio insensitive to host drift slower than one pair.
pub fn paired_ratios(pairs: &[(f64, f64)]) -> Vec<f64> {
    pairs.iter().map(|&(r, p)| r / p).collect()
}

/// Median over fixed windows of each window's `q`-quantile, so that a
/// minority of windows disturbed by the host does not move it.
/// `samples` are `(time, value)`; a window of length `window` starting
/// at `t0` holds the samples with `t0 ≤ time < t0 + window`. Windows
/// with fewer than `min_count` samples are skipped, so a half-empty last
/// window does not count. NaN when no window qualifies.
pub fn windowed_quantile(samples: &[(f64, f64)], window: f64, min_count: usize, q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let t0 = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let k = ((t - t0) / window) as usize;
        if buckets.len() <= k {
            buckets.resize_with(k + 1, Vec::new);
        }
        buckets[k].push(v);
    }
    let per_window: Vec<f64> = buckets
        .iter()
        .filter(|b| b.len() >= min_count)
        .map(|b| quantile(b, q))
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        // p99 of 1..=100 sits between the two largest ranks.
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&h, 0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn paired_ratio_is_reference_over_parallel() {
        let r = paired_ratios(&[(10.0, 5.0), (3.0, 6.0)]);
        assert_eq!(r, vec![2.0, 0.5]);
        // A uniform slowdown of both sides leaves the ratio unchanged.
        let s = paired_ratios(&[(17.0, 8.5)]);
        assert_eq!(s, vec![2.0]);
    }

    #[test]
    fn windowed_quantile_ignores_one_disturbed_window() {
        let mut s = Vec::new();
        for w in 0..5 {
            for i in 0..100 {
                let t = w as f64 + i as f64 / 100.0;
                // Window 2 holds a 5 ms stall; the others are steady.
                let v = if w == 2 && i > 50 {
                    5000.0
                } else {
                    10.0 + i as f64 / 100.0
                };
                s.push((t, v));
            }
        }
        let p = windowed_quantile(&s, 1.0, 10, 0.99);
        assert!(
            p < 11.0,
            "median of window p99s must ignore the stall, got {p}"
        );
        assert!((windowed_quantile(&s, 1.0, 10, 0.5) - 10.495).abs() < 1e-9);
        // A window below the minimum count is skipped.
        s.push((5.5, 1e9));
        assert_eq!(windowed_quantile(&s, 1.0, 10, 0.99), p);
        assert!(windowed_quantile(&[], 1.0, 1, 0.99).is_nan());
    }
}
