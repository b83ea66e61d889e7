//! Adaptive K-Means iteration budget (paper §3.3, Eqs. 1–3).
//!
//! Clustering must finish inside the GPU's per-layer compute window or it
//! blocks decoding. The paper fits
//!
//! ```text
//! Time_clus(s, T) = α₁ + β₁ · s · T          (Eq. 1)
//! Time_comp(s)    = α₂ + β₂ · s + γ₂ · s²    (Eq. 2)
//! ```
//!
//! from a handful of profiled sequence lengths, then solves
//! `Time_clus = Time_comp` for the largest admissible iteration count
//!
//! ```text
//! T_max(s) = (γ₂ s² + β₂ s + α₂ − α₁) / (β₁ s)   (Eq. 3)
//! ```
//!
//! clipped to a configured `[min, max]` band. [`AdaptiveIterBudget`] performs
//! the regression over profile samples and evaluates Eq. 3.

use pqc_tensor::stats::{fit_linear, fit_quadratic};

/// One profiled observation of clustering time.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSample {
    /// Sequence length clustered.
    pub seq_len: f64,
    /// K-Means iterations run.
    pub iters: f64,
    /// Observed wall/simulated time (any consistent unit).
    pub time: f64,
}

/// One profiled observation of single-layer GPU compute time.
#[derive(Debug, Clone, Copy)]
pub struct ComputeSample {
    /// Sequence length processed.
    pub seq_len: f64,
    /// Observed time (same unit as [`ClusterSample::time`]).
    pub time: f64,
}

/// Fitted cost model + clipping band.
///
/// ```
/// use pqc_pq::AdaptiveIterBudget;
///
/// // cluster time = 2 + 0.001·s·T; compute time = 1 + 0.002·s + 1e-6·s².
/// let budget = AdaptiveIterBudget::from_coefficients(
///     (2.0, 0.001),
///     (1.0, 0.002, 1e-6),
///     (1, 100),
/// );
/// // Quadratic compute outgrows linear clustering: longer inputs afford
/// // more K-Means iterations (paper Fig. 8 / Eq. 3).
/// assert!(budget.t_max(64_000.0) > budget.t_max(8_000.0));
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveIterBudget {
    alpha1: f64,
    beta1: f64,
    alpha2: f64,
    beta2: f64,
    gamma2: f64,
    clip_min: usize,
    clip_max: usize,
}

impl AdaptiveIterBudget {
    /// Fit the two regressions from profiles.
    ///
    /// `clip` bounds the returned iteration counts: the paper clips `T_max`
    /// "to ensure that the number of iterations is neither too small nor too
    /// large".
    pub fn fit(
        cluster: &[ClusterSample],
        compute: &[ComputeSample],
        clip: (usize, usize),
    ) -> Self {
        assert!(!cluster.is_empty(), "need clustering profile samples");
        assert!(!compute.is_empty(), "need compute profile samples");
        assert!(clip.0 >= 1 && clip.0 <= clip.1, "invalid clip band {clip:?}");
        let xs: Vec<f64> = cluster.iter().map(|c| c.seq_len * c.iters).collect();
        let ys: Vec<f64> = cluster.iter().map(|c| c.time).collect();
        let (alpha1, beta1) = fit_linear(&xs, &ys);

        let cx: Vec<f64> = compute.iter().map(|c| c.seq_len).collect();
        let cy: Vec<f64> = compute.iter().map(|c| c.time).collect();
        let (alpha2, beta2, gamma2) = fit_quadratic(&cx, &cy);

        Self { alpha1, beta1, alpha2, beta2, gamma2, clip_min: clip.0, clip_max: clip.1 }
    }

    /// Construct directly from known coefficients (used by the latency
    /// simulator whose cost model is analytic, so no regression is needed).
    pub fn from_coefficients(
        (alpha1, beta1): (f64, f64),
        (alpha2, beta2, gamma2): (f64, f64, f64),
        clip: (usize, usize),
    ) -> Self {
        assert!(clip.0 >= 1 && clip.0 <= clip.1);
        Self { alpha1, beta1, alpha2, beta2, gamma2, clip_min: clip.0, clip_max: clip.1 }
    }

    /// Eq. 3: largest iteration count whose clustering time fits inside the
    /// compute window, clipped to the configured band.
    pub fn t_max(&self, seq_len: f64) -> usize {
        if seq_len <= 0.0 || self.beta1 <= 0.0 {
            return self.clip_max;
        }
        let raw = (self.gamma2 * seq_len * seq_len + self.beta2 * seq_len + self.alpha2
            - self.alpha1)
            / (self.beta1 * seq_len);
        let t = raw.floor();
        if !t.is_finite() || t < self.clip_min as f64 {
            self.clip_min
        } else if t > self.clip_max as f64 {
            self.clip_max
        } else {
            t as usize
        }
    }

    /// The clip band `(min, max)`.
    pub fn clip(&self) -> (usize, usize) {
        (self.clip_min, self.clip_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build synthetic profiles from ground-truth coefficients.
    fn synthetic() -> (Vec<ClusterSample>, Vec<ComputeSample>) {
        let (a1, b1) = (2.0, 0.001); // cluster: 2 + 0.001·s·T
        let (a2, b2, g2) = (1.0, 0.002, 1e-6); // compute: 1 + 0.002 s + 1e-6 s²
        let mut cl = Vec::new();
        for &s in &[1000.0, 2000.0, 4000.0, 8000.0] {
            for &t in &[1.0, 5.0, 10.0] {
                cl.push(ClusterSample { seq_len: s, iters: t, time: a1 + b1 * s * t });
            }
        }
        let cp = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0]
            .iter()
            .map(|&s| ComputeSample { seq_len: s, time: a2 + b2 * s + g2 * s * s })
            .collect();
        (cl, cp)
    }

    #[test]
    fn recovers_coefficients_and_tmax() {
        let (cl, cp) = synthetic();
        let b = AdaptiveIterBudget::fit(&cl, &cp, (1, 1000));
        // T_max(s) = (1e-6 s² + 0.002 s + 1 - 2) / (0.001 s)
        for &s in &[2000.0f64, 8000.0, 32000.0] {
            let expect = ((1e-6 * s * s + 0.002 * s - 1.0) / (0.001 * s)).floor() as usize;
            assert_eq!(b.t_max(s), expect, "s={s}");
        }
    }

    #[test]
    fn tmax_grows_with_sequence_length() {
        // Compute is quadratic, clustering linear: longer sequences admit
        // more iterations — exactly the paper's Fig. 8 observation.
        let (cl, cp) = synthetic();
        let b = AdaptiveIterBudget::fit(&cl, &cp, (1, 10_000));
        assert!(b.t_max(64_000.0) > b.t_max(8_000.0));
        assert!(b.t_max(8_000.0) > b.t_max(1_000.0));
    }

    #[test]
    fn clipping_applies() {
        let (cl, cp) = synthetic();
        let b = AdaptiveIterBudget::fit(&cl, &cp, (3, 12));
        assert!(b.t_max(100.0) >= 3);
        assert!(b.t_max(10_000_000.0) <= 12);
    }

    #[test]
    fn short_sequences_get_min_iters() {
        let (cl, cp) = synthetic();
        let b = AdaptiveIterBudget::fit(&cl, &cp, (2, 100));
        // At tiny s the compute window is smaller than cluster setup cost.
        assert_eq!(b.t_max(10.0), 2);
    }

    #[test]
    fn from_coefficients_equals_fit() {
        let (cl, cp) = synthetic();
        let fitted = AdaptiveIterBudget::fit(&cl, &cp, (1, 1000));
        let direct = AdaptiveIterBudget::from_coefficients(
            (2.0, 0.001),
            (1.0, 0.002, 1e-6),
            (1, 1000),
        );
        for &s in &[500.0, 5_000.0, 50_000.0] {
            assert_eq!(fitted.t_max(s), direct.t_max(s), "s={s}");
        }
    }

    #[test]
    fn degenerate_beta_returns_clip_max() {
        let b = AdaptiveIterBudget::from_coefficients((0.0, 0.0), (1.0, 1.0, 0.0), (1, 7));
        assert_eq!(b.t_max(1000.0), 7);
    }

    #[test]
    #[should_panic(expected = "invalid clip band")]
    fn bad_clip_panics() {
        let (cl, cp) = synthetic();
        let _ = AdaptiveIterBudget::fit(&cl, &cp, (5, 2));
    }
}
