//! Small statistics toolbox: summary stats, percentiles, least-squares fits.
//!
//! The adaptive K-Means iteration budget (paper §3.3, Eqs. 1–3) fits a linear
//! model to clustering time and a quadratic model to per-layer GPU compute
//! time; `fit_linear` / `fit_quadratic` implement those regressions over
//! profiled samples. The distribution helpers back the Fig. 6 power-law
//! analysis.

/// Arithmetic mean; 0.0 on empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 on inputs shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Linear-interpolated percentile, `p` in `[0, 100]`. Panics on empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in percentile input"));
    let rank = (p / 100.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        s[lo]
    } else {
        let t = rank - lo as f64;
        s[lo] * (1.0 - t) + s[hi] * t
    }
}

/// Ordinary least squares fit of `y ≈ a + b·x`. Returns `(a, b)`.
///
/// Degenerate inputs (fewer than 2 points, or zero x-variance) return a flat
/// line through the mean.
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return (mean(ys), 0.0);
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
    }
    if sxx == 0.0 || n == 0.0 {
        return (my, 0.0);
    }
    let b = sxy / sxx;
    (my - b * mx, b)
}

/// Ordinary least squares fit of `y ≈ a + b·x + c·x²`. Returns `(a, b, c)`.
///
/// Solves the 3×3 normal equations via Gaussian elimination with partial
/// pivoting; falls back to the linear fit when the system is singular.
pub fn fit_quadratic(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len());
    if xs.len() < 3 {
        let (a, b) = fit_linear(xs, ys);
        return (a, b, 0.0);
    }
    // Accumulate moments S_k = sum x^k for k=0..4 and T_k = sum y x^k.
    let mut s = [0.0f64; 5];
    let mut t = [0.0f64; 3];
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let mut xp = 1.0;
        for sk in s.iter_mut() {
            *sk += xp;
            xp *= x;
        }
        let mut xp = 1.0;
        for tk in t.iter_mut() {
            *tk += y * xp;
            xp *= x;
        }
    }
    let mut a = [
        [s[0], s[1], s[2], t[0]],
        [s[1], s[2], s[3], t[1]],
        [s[2], s[3], s[4], t[2]],
    ];
    // Gaussian elimination with partial pivoting.
    for col in 0..3 {
        let piv = (col..3)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).expect("finite"))
            .expect("non-empty");
        if a[piv][col].abs() < 1e-12 {
            let (la, lb) = fit_linear(xs, ys);
            return (la, lb, 0.0);
        }
        a.swap(col, piv);
        for row in 0..3 {
            if row == col {
                continue;
            }
            let f = a[row][col] / a[col][col];
            for k in col..4 {
                a[row][k] -= f * a[col][k];
            }
        }
    }
    (a[0][3] / a[0][0], a[1][3] / a[1][1], a[2][3] / a[2][2])
}

/// Fit the tail exponent of an empirical power law by linear regression of
/// `log(value)` on `log(rank)` over sorted-descending positive values.
/// Returns the slope (≤ 0 for heavy-tailed data) or `None` when fewer than
/// 4 positive values exist.
pub fn powerlaw_slope(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| *x > 0.0).collect();
    if v.len() < 4 {
        return None;
    }
    v.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let xs: Vec<f64> = (1..=v.len()).map(|r| (r as f64).ln()).collect();
    let ys: Vec<f64> = v.iter().map(|x| x.ln()).collect();
    Some(fit_linear(&xs, &ys).1)
}

/// Gini coefficient of a non-negative distribution — a scale-free measure of
/// concentration used to quantify "a few tokens dominate attention mass".
/// Returns 0 for uniform mass, → 1 as mass concentrates on one element.
pub fn gini(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| *x >= 0.0).collect();
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let total: f64 = v.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let mut weighted = 0.0;
    for (i, x) in v.iter().enumerate() {
        weighted += (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * x;
    }
    weighted / (n as f64 * total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let (a, b) = fit_linear(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_inputs() {
        assert_eq!(fit_linear(&[], &[]), (0.0, 0.0));
        assert_eq!(fit_linear(&[1.0], &[5.0]), (5.0, 0.0));
        let (a, b) = fit_linear(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]);
        assert_eq!(b, 0.0);
        assert!((a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quadratic_fit_recovers_exact_parabola() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.5 - 0.7 * x + 0.3 * x * x).collect();
        let (a, b, c) = fit_quadratic(&xs, &ys);
        assert!((a - 1.5).abs() < 1e-6, "a={a}");
        assert!((b + 0.7).abs() < 1e-6, "b={b}");
        assert!((c - 0.3).abs() < 1e-7, "c={c}");
    }

    #[test]
    fn quadratic_fit_falls_back_when_singular() {
        // All x equal -> singular; must not panic.
        let (_, _, c) = fit_quadratic(&[1.0, 1.0, 1.0, 1.0], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn powerlaw_slope_negative_for_zipf() {
        let vals: Vec<f64> = (1..=200).map(|r| 1.0 / r as f64).collect();
        let slope = powerlaw_slope(&vals).expect("enough data");
        assert!((slope + 1.0).abs() < 0.05, "slope {slope}");
    }

    #[test]
    fn powerlaw_slope_requires_data() {
        assert!(powerlaw_slope(&[1.0, 2.0]).is_none());
        assert!(powerlaw_slope(&[0.0; 10]).is_none());
    }

    #[test]
    fn gini_uniform_zero_concentrated_high() {
        let uniform = [1.0; 100];
        assert!(gini(&uniform).abs() < 1e-9);
        let mut spike = vec![0.0; 100];
        spike[0] = 1.0;
        assert!(gini(&spike) > 0.95);
    }
}
