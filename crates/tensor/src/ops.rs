//! Row-wise numeric kernels: softmax, norms, cosine, argmax.

use crate::matrix::dot;

/// In-place numerically-stable softmax over a single slice.
pub fn softmax_inplace(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in xs.iter_mut() {
        *v *= inv;
    }
}

/// L2 norm of a slice.
pub fn l2_norm(xs: &[f32]) -> f32 {
    dot(xs, xs).sqrt()
}

/// Cosine similarity; returns 0 when either vector is all-zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Index of the maximum element (first on ties). Panics on empty input.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut bv = xs[0];
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > bv {
            bv = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut xs = vec![1.0f32, 2.0, 3.0, -5.0];
        softmax_inplace(&mut xs);
        let s: f32 = xs.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(xs.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn softmax_shift_invariant() {
        let mut a = vec![1.0f32, 2.0, 3.0];
        let mut b = vec![101.0f32, 102.0, 103.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_magnitudes() {
        let mut xs = vec![1000.0f32, 999.0, -1000.0];
        softmax_inplace(&mut xs);
        assert!(xs.iter().all(|v| v.is_finite()));
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_bounds_and_identity() {
        let a = [1.0f32, 2.0, 3.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        let b = [-1.0f32, -2.0, -3.0];
        assert!((cosine(&a, &b) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&a, &[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn argmax_first_max_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }
}
