//! Row-major dense `f32` matrices.
//!
//! Everything the transformer substrate and PQ need reduces to dense GEMM,
//! transposed GEMM, and row-wise reductions over contiguous `f32` buffers.
//! We keep a single simple type rather than a general tensor: shapes above
//! rank 2 (layers, heads) are modelled as collections of matrices, matching
//! how the paper manipulates per-layer per-head keys.

use crate::rng::Rng64;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from an existing buffer. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length != rows*cols");
        Self { rows, cols, data }
    }

    /// Build by evaluating `f(r, c)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Gaussian random matrix with standard deviation `std`.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng64) -> Self {
        let mut data = vec![0.0; rows * cols];
        rng.fill_normal(&mut data, std);
        Self { rows, cols, data }
    }

    /// Rows drawn from a mixture of `centers` unit Gaussians with
    /// per-dimension noise `spread` — the clustered shape attention keys
    /// have, and the regime coarse quantizers (IVF) exploit. Each row's
    /// component is chosen uniformly at random, so the cluster layout has
    /// no periodic structure in the row index.
    pub fn clustered(rows: usize, cols: usize, centers: usize, spread: f32, rng: &mut Rng64) -> Self {
        assert!(centers >= 1, "need at least one mixture component");
        let mix = Self::randn(centers, cols, 1.0, rng);
        let assign: Vec<usize> = (0..rows).map(|_| rng.below(centers)).collect();
        Self::from_fn(rows, cols, |i, j| mix.get(assign[i], j) + spread * rng.normal_f32(0.0, 1.0))
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Copy a row out of another matrix into row `r` of `self`.
    pub fn copy_row_from(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(r).copy_from_slice(src);
    }

    /// A new matrix containing the listed rows (gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.copy_row_from(i, self.row(idx));
        }
        out
    }

    /// A new matrix containing rows `lo..hi`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows);
        Matrix::from_vec(hi - lo, self.cols, self.data[lo * self.cols..hi * self.cols].to_vec())
    }

    /// Vertically stack two matrices with equal column counts.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Matrix transpose — blocked over `TRANSPOSE_TILE`-square tiles so both
    /// the read and write sides stay within a few cache lines per tile.
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 32;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        for rb in (0..rows).step_by(TILE) {
            let r_hi = (rb + TILE).min(rows);
            for cb in (0..cols).step_by(TILE) {
                let c_hi = (cb + TILE).min(cols);
                for r in rb..r_hi {
                    for c in cb..c_hi {
                        out.data[c * rows + r] = self.data[r * cols + c];
                    }
                }
            }
        }
        out
    }

    /// `self @ other` — cache-friendly ikj loop order. The inner loop runs
    /// straight-line over contiguous rows; no per-element branching (a
    /// `skip-if-zero` shortcut would silently turn `0·NaN` / `0·∞` into `0`,
    /// which is a wrong result, not an optimisation).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner-dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (p, &a) in arow.iter().enumerate() {
                let brow = &other.data[p * n..(p + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ other.T` — avoids materialising the transpose; inner loops are
    /// contiguous dot products, which is the hot shape for Q·Kᵀ.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transb_into(other, &mut out);
        out
    }

    /// `self @ other.T` written into a caller-owned output matrix (shape
    /// `(self.rows, other.rows)`), so steady-state callers allocate nothing.
    pub fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_transb dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        assert_eq!(out.shape(), (m, n), "matmul_transb output shape mismatch");
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            let orow = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &other.data[j * k..(j + 1) * k];
                *o = dot(arow, brow);
            }
        }
    }

    /// Elementwise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise in-place scale.
    pub fn scale(&mut self, s: f32) {
        for v in self.data.iter_mut() {
            *v *= s;
        }
    }

    /// Apply a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute elementwise difference between two matrices.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Dot product of two equal-length slices (manually unrolled 8-wide with
/// independent accumulators so LLVM vectorises it into FMA lanes reliably).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 8;
    let mut acc = [0.0f32; 8];
    for i in 0..chunks {
        let j = i * 8;
        let av = &a[j..j + 8];
        let bv = &b[j..j + 8];
        for l in 0..8 {
            acc[l] += av[l] * bv[l];
        }
    }
    let mut s = (acc[0] + acc[4]) + (acc[1] + acc[5]) + (acc[2] + acc[6]) + (acc[3] + acc[7]);
    for j in chunks * 8..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// Squared Euclidean distance between two equal-length slices (unrolled
/// 8-wide like [`dot`] — this is the K-Means assignment inner loop).
#[inline]
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 8;
    let mut acc = [0.0f32; 8];
    for i in 0..chunks {
        let j = i * 8;
        let av = &a[j..j + 8];
        let bv = &b[j..j + 8];
        for l in 0..8 {
            let d = av[l] - bv[l];
            acc[l] += d * d;
        }
    }
    let mut s = (acc[0] + acc[4]) + (acc[1] + acc[5]) + (acc[2] + acc[6]) + (acc[3] + acc[7]);
    for j in chunks * 8..a.len() {
        let d = a[j] - b[j];
        s += d * d;
    }
    s
}

/// `out += alpha * x` (used by attention weighted sums and K-Means centroid
/// updates), unrolled 8-wide.
#[inline]
pub fn axpy(out: &mut [f32], x: &[f32], alpha: f32) {
    debug_assert_eq!(out.len(), x.len());
    let chunks = out.len() / 8;
    for i in 0..chunks {
        let j = i * 8;
        let ov = &mut out[j..j + 8];
        let xv = &x[j..j + 8];
        for l in 0..8 {
            ov[l] += alpha * xv[l];
        }
    }
    for j in chunks * 8..out.len() {
        out[j] += alpha * x[j];
    }
}

/// Squared L2 norm of every row of `m`, appended into `out` (cleared first).
pub fn row_sq_norms_into(m: &Matrix, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(m.rows());
    for r in 0..m.rows() {
        let row = m.row(r);
        out.push(dot(row, row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng64::new(1);
        let a = Matrix::randn(5, 5, 1.0, &mut rng);
        let c = a.matmul(&Matrix::eye(5));
        assert!(a.max_abs_diff(&c) < 1e-6);
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let mut rng = Rng64::new(2);
        let a = Matrix::randn(4, 6, 1.0, &mut rng);
        let b = Matrix::randn(7, 6, 1.0, &mut rng);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_transb(&b);
        assert!(via_t.max_abs_diff(&direct) < 1e-4);
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero() {
        // IEEE: 0·NaN = NaN and 0·∞ = NaN. A skip-if-zero shortcut in the
        // inner loop would silently produce 0 instead.
        let a = m(1, 2, &[0.0, 1.0]);
        let b = m(2, 1, &[f32::NAN, 2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        let c = m(2, 1, &[f32::INFINITY, 2.0]);
        assert!(a.matmul(&c).get(0, 0).is_nan());
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(3);
        let a = Matrix::randn(3, 8, 1.0, &mut rng);
        assert_eq!(a, a.transpose().transpose());
    }

    #[test]
    fn gather_rows_picks_rows() {
        let a = m(3, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[20.0, 21.0, 0.0, 1.0]);
    }

    #[test]
    fn slice_and_vstack_roundtrip() {
        let mut rng = Rng64::new(4);
        let a = Matrix::randn(6, 3, 1.0, &mut rng);
        let top = a.slice_rows(0, 2);
        let bottom = a.slice_rows(2, 6);
        assert_eq!(top.vstack(&bottom), a);
    }

    #[test]
    fn dot_matches_naive() {
        let mut rng = Rng64::new(5);
        for len in [0usize, 1, 3, 4, 7, 16, 33] {
            let a: Vec<f32> = (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            let naive: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-4);
        }
    }

    #[test]
    fn squared_l2_zero_for_identical() {
        let a = [1.0f32, -2.0, 3.5];
        assert_eq!(squared_l2(&a, &a), 0.0);
    }

    #[test]
    fn frobenius_known() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul inner-dimension mismatch")]
    fn matmul_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut out = vec![1.0f32, 1.0];
        axpy(&mut out, &[2.0, 4.0], 0.5);
        assert_eq!(out, vec![2.0, 3.0]);
    }
}
