//! Order statistics: nearest-rank percentiles under the "ten samples
//! beyond" rule, and the quartile spread the acceptance procedure uses.

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for even counts); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Whether `xs` has enough samples for percentile `p` (in (0, 100)): at
/// least [`BEYOND`] samples lie strictly above the nearest-rank position.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= BEYOND
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p`; `None` unless the sample supports it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if !supports(xs.len(), p) {
        return None;
    }
    Some(sorted(xs)[rank(xs.len(), p) - 1])
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) gives them.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten samples above it.
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // One sample fewer and p99 is no longer supported.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        // p90 of 100 has exactly ten beyond; p95 of 100 only five.
        assert_eq!(percentile(&xs[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&xs[..100], 95.0), None);
        assert!(supports(200, 95.0) && !supports(199, 95.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut xs: Vec<f64> = (1..=300).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 95.0), Some(285.0));
        assert_eq!(median(&xs), Some(150.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        let ys = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert_eq!(quartiles(&ys), Some((1.25, 5.75)));
        assert_eq!(median(&ys), Some(3.5));
        assert!((spread(&ys).unwrap() - 4.5 / 3.5).abs() < 1e-12);
        // Two points: Python extrapolates to [0.75, 1.5, 2.25] for [1, 2].
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }
}
