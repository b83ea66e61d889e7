//! Order statistics for benchmark samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; 0 for an empty sample (a metric that does not apply).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile, `p` in `[0, 100]`; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) gives them — the rule the acceptance
/// pipeline measures spread with. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1], delta = i*(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - 4.0 * j as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&xs), 5.5);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
    }
}
