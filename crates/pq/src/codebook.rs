//! Product-quantization codebooks over key vectors.
//!
//! A [`PqCodebook`] mirrors the paper's Step ❷: the `d_h`-dimensional key
//! space is split into `m` sub-spaces of `d_m = d_h / m` dimensions, each
//! clustered into `2^b` centroids. Tokens carry one `b`-bit code per
//! sub-space ([`PqCodes`]); approximate inner products are computed by the
//! ADC machinery in [`crate::adc`].

use crate::kmeans::{kmeans, KMeansConfig};
use pqc_tensor::Matrix;

/// PQ hyper-parameters: `m` partitions × `2^b` centroids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqConfig {
    /// Number of sub-spaces the key dimension is split into.
    pub m: usize,
    /// Bits per code; each sub-space has `2^b` centroids.
    pub b: u32,
    /// Maximum K-Means iterations for construction (the adaptive budget).
    pub max_iters: usize,
    /// Seed for clustering.
    pub seed: u64,
}

impl PqConfig {
    /// Number of centroids per sub-space.
    pub fn centroids_per_subspace(&self) -> usize {
        1usize << self.b
    }

    /// Bytes of PQ-code traffic for `s` tokens (`m·s·b/8`, paper §4.1.3).
    pub fn code_bytes(&self, s: usize) -> usize {
        (self.m * s * self.b as usize).div_ceil(8)
    }

    /// Communication ratio of PQ codes relative to FP16 keys of head
    /// dimension `dh`: `m·b / (16·dh)` (paper §4.1.3).
    pub fn comm_ratio(&self, dh: usize) -> f64 {
        (self.m as f64 * self.b as f64) / (16.0 * dh as f64)
    }
}

/// Token-block granularity of the fused score-and-select scan: it sizes the
/// score scratch, and 512 × f32 block scores stay comfortably in L1.
pub const CODE_BLOCK: usize = 512;

/// PQ codes for a sequence of tokens, stored **subspace-major** (SoA): one
/// contiguous column of `u16` codes per sub-space.
///
/// The ADC scan ([`crate::adc::AdcTable::score_and_select_into`]) walks each column
/// sequentially while its 2^b-entry LUT row stays in L1 — the layout is what
/// makes the fused scan fast. `u16` accommodates every configuration the
/// paper sweeps (`m·b ≤ 16`, so `b ≤ 16`).
///
/// Each column also tracks its running maximum code, so the scan proves its
/// table reads in bounds once per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PqCodes {
    len: usize,
    /// `cols[j][i]` = code of token `i` in sub-space `j`.
    cols: Vec<Vec<u16>>,
    /// Running per-column maximum code; lets the ADC scan validate bounds
    /// once per column instead of once per element.
    max_code: Vec<u16>,
}

impl PqCodes {
    /// An empty code table for `m` sub-spaces.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "PqCodes needs at least one sub-space");
        Self {
            len: 0,
            cols: vec![Vec::new(); m],
            max_code: vec![0; m],
        }
    }

    /// Build directly from per-sub-space columns (all equal length).
    pub fn from_columns(cols: Vec<Vec<u16>>) -> Self {
        assert!(!cols.is_empty(), "PqCodes needs at least one sub-space");
        let len = cols[0].len();
        assert!(cols.iter().all(|c| c.len() == len), "ragged code columns");
        let max_code = cols.iter().map(|c| c.iter().copied().max().unwrap_or(0)).collect();
        Self { len, cols, max_code }
    }

    /// Number of encoded tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tokens are encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sub-space count.
    pub fn m(&self) -> usize {
        self.cols.len()
    }

    /// Codes of token `i` (one per sub-space) — a small gather across the
    /// columns, kept for compatibility with token-at-a-time callers
    /// (reconstruction, tests). Hot paths should use [`Self::column`].
    pub fn token(&self, i: usize) -> Vec<u16> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// [`Self::token`] into a caller-owned buffer (cleared first) — the
    /// allocation-free row gather the IVF build/maintenance paths use.
    pub fn token_into(&self, i: usize, out: &mut Vec<u16>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c[i]));
    }

    /// Code of token `i` in sub-space `j`.
    #[inline]
    pub fn code(&self, i: usize, j: usize) -> u16 {
        self.cols[j][i]
    }

    /// The contiguous code column of sub-space `j` (one entry per token).
    #[inline]
    pub fn column(&self, j: usize) -> &[u16] {
        &self.cols[j]
    }

    /// Largest code present in sub-space `j` (0 when empty); an upper bound
    /// the ADC scan checks once per column before its unchecked LUT walk.
    #[inline]
    pub fn max_code(&self, j: usize) -> u16 {
        self.max_code[j]
    }

    /// Append one token's codes.
    pub fn push(&mut self, token_codes: &[u16]) {
        assert_eq!(token_codes.len(), self.cols.len());
        for ((col, mx), &c) in self.cols.iter_mut().zip(self.max_code.iter_mut()).zip(token_codes) {
            col.push(c);
            *mx = (*mx).max(c);
        }
        self.len += 1;
    }
}

/// A trained product quantizer for one (layer, head) key space.
///
/// ```
/// use pqc_pq::{PqCodebook, PqConfig};
/// use pqc_tensor::{Matrix, Rng64};
///
/// let mut rng = Rng64::new(1);
/// let keys = Matrix::randn(256, 32, 1.0, &mut rng);          // (s, d_h)
/// let cfg = PqConfig { m: 2, b: 6, max_iters: 10, seed: 1 }; // paper default
/// let (book, codes) = PqCodebook::train(&keys, cfg);
/// assert_eq!(codes.len(), 256);
/// // Codes cost m·b = 12 bits/token vs 32·16 = 512 bits of FP16 keys.
/// assert!(cfg.comm_ratio(32) < 0.03);
/// // Reconstruction approximates the original key.
/// let approx = book.reconstruct(&codes.token(0));
/// assert_eq!(approx.len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct PqCodebook {
    cfg: PqConfig,
    /// Dimension of the full key vector.
    dh: usize,
    /// Dimension of each sub-space (`dh / m`).
    dm: usize,
    /// One `(k_c, dm)` centroid matrix per sub-space.
    centroids: Vec<Matrix>,
    /// `‖centroid‖²` per sub-space per centroid, cached at train time so the
    /// eviction-path nearest-centroid assignment runs the batched
    /// `‖c‖² − 2·x·c` formulation without recomputing norms.
    cent_norms: Vec<Vec<f32>>,
    /// K-Means iterations actually run, per sub-space (diagnostics).
    iters_run: Vec<usize>,
    /// Total clustering inertia (diagnostics).
    inertia: f64,
}

impl PqCodebook {
    /// Train a codebook from a `(s, dh)` key matrix and encode all rows.
    ///
    /// Panics if `dh` is not divisible by `m` or the key matrix is empty —
    /// both are configuration errors, not runtime conditions.
    pub fn train(keys: &Matrix, cfg: PqConfig) -> (Self, PqCodes) {
        let (s, dh) = keys.shape();
        assert!(s > 0, "cannot train PQ on zero keys");
        assert!(cfg.m > 0 && dh % cfg.m == 0, "dh={dh} not divisible by m={}", cfg.m);
        let dm = dh / cfg.m;
        let k = cfg.centroids_per_subspace();

        // Sub-space clustering. Each sub-space is independent; run them on
        // scoped threads, matching the paper's m·h_kv parallel CPU processes.
        let subviews: Vec<Matrix> = (0..cfg.m).map(|j| subspace_view(keys, j, dm)).collect();
        let mut results: Vec<Option<crate::kmeans::KMeansResult>> = (0..cfg.m).map(|_| None).collect();
        let subspace_cfg = |j: usize| KMeansConfig {
            k,
            max_iters: cfg.max_iters,
            tol: 1e-4,
            seed: cfg.seed.wrapping_add(j as u64).wrapping_mul(0x9E37_79B9),
        };
        if cfg.m > 1 && s >= 1024 {
            std::thread::scope(|scope| {
                for (j, slot) in results.iter_mut().enumerate() {
                    let view = &subviews[j];
                    let kcfg = subspace_cfg(j);
                    scope.spawn(move || {
                        *slot = Some(kmeans(view, &kcfg));
                    });
                }
            });
        } else {
            for (j, slot) in results.iter_mut().enumerate() {
                *slot = Some(kmeans(&subviews[j], &subspace_cfg(j)));
            }
        }

        let mut centroids = Vec::with_capacity(cfg.m);
        let mut cent_norms = Vec::with_capacity(cfg.m);
        let mut iters_run = Vec::with_capacity(cfg.m);
        let mut inertia = 0.0;
        let mut cols = Vec::with_capacity(cfg.m);
        for res in results {
            let res = res.expect("kmeans result missing");
            // Each sub-space's assignments become one SoA code column as-is.
            cols.push(res.assignments.iter().map(|&a| a as u16).collect());
            inertia += res.inertia;
            iters_run.push(res.iters_run);
            let mut norms = Vec::new();
            pqc_tensor::row_sq_norms_into(&res.centroids, &mut norms);
            cent_norms.push(norms);
            centroids.push(res.centroids);
        }
        let codes = PqCodes::from_columns(cols);

        (Self { cfg, dh, dm, centroids, cent_norms, iters_run, inertia }, codes)
    }

    /// The configuration this codebook was trained with.
    pub fn config(&self) -> PqConfig {
        self.cfg
    }

    /// Full key dimension.
    pub fn dh(&self) -> usize {
        self.dh
    }

    /// Sub-space dimension.
    pub fn dm(&self) -> usize {
        self.dm
    }

    /// Centroid matrix of sub-space `j` (`k_c x dm`).
    pub fn centroids(&self, j: usize) -> &Matrix {
        &self.centroids[j]
    }

    /// Iterations K-Means actually ran per sub-space.
    pub fn iters_run(&self) -> &[usize] {
        &self.iters_run
    }

    /// Total construction inertia (sum over sub-spaces).
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Assign PQ codes to a single new key vector (nearest centroid per
    /// sub-space). This is the decode-phase path for tokens evicted from the
    /// local window (Algorithm 2, line 4).
    pub fn assign(&self, key: &[f32]) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.cfg.m);
        self.assign_into(key, &mut out);
        out
    }

    /// [`Self::assign`] into a caller-owned buffer (cleared first), using the
    /// cached centroid norms so the per-sub-space argmin is a batched
    /// `‖c‖² − 2·x·c` scan over unrolled dot products. Decode-loop eviction
    /// encoding allocates nothing after warm-up.
    pub fn assign_into(&self, key: &[f32], out: &mut Vec<u16>) {
        assert_eq!(key.len(), self.dh);
        out.clear();
        for j in 0..self.cfg.m {
            let sub = &key[j * self.dm..(j + 1) * self.dm];
            let (best, _) =
                pqc_tensor::nearest_centroid_cached(sub, &self.centroids[j], &self.cent_norms[j]);
            out.push(best as u16);
        }
    }

    /// Reconstruct the approximate key vector of a token from its codes.
    pub fn reconstruct(&self, token_codes: &[u16]) -> Vec<f32> {
        assert_eq!(token_codes.len(), self.cfg.m);
        let mut out = Vec::with_capacity(self.dh);
        for (j, &c) in token_codes.iter().enumerate() {
            out.extend_from_slice(self.centroids[j].row(c as usize));
        }
        out
    }
}

/// Extract the `(s, dm)` sub-matrix of sub-space `j`.
fn subspace_view(keys: &Matrix, j: usize, dm: usize) -> Matrix {
    let s = keys.rows();
    let mut out = Matrix::zeros(s, dm);
    for i in 0..s {
        let src = &keys.row(i)[j * dm..(j + 1) * dm];
        out.row_mut(i).copy_from_slice(src);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqc_tensor::{squared_l2, Rng64};

    fn random_keys(s: usize, dh: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::new(seed);
        Matrix::randn(s, dh, 1.0, &mut rng)
    }

    #[test]
    fn train_shapes() {
        let keys = random_keys(200, 32, 1);
        let cfg = PqConfig { m: 4, b: 4, max_iters: 10, seed: 1 };
        let (book, codes) = PqCodebook::train(&keys, cfg);
        assert_eq!(book.dm(), 8);
        assert_eq!(codes.len(), 200);
        assert_eq!(codes.m(), 4);
        for j in 0..4 {
            assert_eq!(book.centroids(j).shape(), (16, 8));
        }
    }

    #[test]
    fn training_converges_and_is_reproducible_on_fixed_seed_matrix() {
        // With a generous iteration budget, Lloyd iterations on a fixed-seed
        // matrix must hit the early-stop tolerance well before the cap, and
        // re-training with the identical config must reproduce the codebook
        // bit-for-bit (inertia, iteration counts, and all codes).
        let keys = random_keys(512, 16, 7);
        let cfg = PqConfig { m: 2, b: 4, max_iters: 200, seed: 7 };
        let (book, codes) = PqCodebook::train(&keys, cfg);
        for (j, &it) in book.iters_run().iter().enumerate() {
            assert!(it < cfg.max_iters, "sub-space {j} never converged ({it} iters)");
        }
        assert!(book.inertia().is_finite() && book.inertia() >= 0.0);

        // A tighter budget can only leave inertia the same or worse.
        let (short, _) =
            PqCodebook::train(&keys, PqConfig { m: 2, b: 4, max_iters: 1, seed: 7 });
        assert!(
            book.inertia() <= short.inertia() + 1e-6,
            "more iterations worsened inertia: {} vs {}",
            book.inertia(),
            short.inertia()
        );

        let (book2, codes2) = PqCodebook::train(&keys, cfg);
        assert_eq!(book.inertia(), book2.inertia(), "inertia not reproducible");
        assert_eq!(book.iters_run(), book2.iters_run(), "iteration counts differ");
        for i in 0..codes.len() {
            assert_eq!(codes.token(i), codes2.token(i), "codes differ at token {i}");
        }
    }

    #[test]
    fn codes_in_range() {
        let keys = random_keys(300, 16, 2);
        let cfg = PqConfig { m: 2, b: 3, max_iters: 8, seed: 2 };
        let (_, codes) = PqCodebook::train(&keys, cfg);
        for i in 0..codes.len() {
            for c in codes.token(i) {
                assert!(c < 8, "code {c} out of range for b=3");
            }
        }
    }

    #[test]
    fn reconstruction_better_than_random_centroid() {
        let keys = random_keys(400, 32, 3);
        let cfg = PqConfig { m: 4, b: 6, max_iters: 15, seed: 3 };
        let (book, codes) = PqCodebook::train(&keys, cfg);
        let mut err_assigned = 0.0f64;
        let mut err_fixed = 0.0f64;
        for i in 0..keys.rows() {
            let rec = book.reconstruct(&codes.token(i));
            err_assigned += squared_l2(keys.row(i), &rec) as f64;
            // Compare against always using centroid 0 in every sub-space.
            let fixed = book.reconstruct(&[0u16; 4]);
            err_fixed += squared_l2(keys.row(i), &fixed) as f64;
        }
        assert!(
            err_assigned < err_fixed * 0.8,
            "assigned {err_assigned} vs fixed {err_fixed}"
        );
    }

    #[test]
    fn assign_matches_training_codes() {
        // Re-assigning a training vector must give codes at least as close
        // as the training assignment (they should be identical since both
        // pick the nearest centroid).
        let keys = random_keys(128, 16, 4);
        let cfg = PqConfig { m: 2, b: 4, max_iters: 12, seed: 4 };
        let (book, codes) = PqCodebook::train(&keys, cfg);
        for i in 0..keys.rows() {
            let re = book.assign(keys.row(i));
            let trained_rec = book.reconstruct(&codes.token(i));
            let re_rec = book.reconstruct(&re);
            let d_train = squared_l2(keys.row(i), &trained_rec);
            let d_re = squared_l2(keys.row(i), &re_rec);
            assert!(d_re <= d_train + 1e-5, "token {i}: reassign worse");
        }
    }

    #[test]
    fn m1_single_subspace_works() {
        let keys = random_keys(100, 8, 5);
        let cfg = PqConfig { m: 1, b: 5, max_iters: 10, seed: 5 };
        let (book, codes) = PqCodebook::train(&keys, cfg);
        assert_eq!(book.dm(), 8);
        assert_eq!(codes.m(), 1);
    }

    #[test]
    fn comm_ratio_matches_paper_formula() {
        // Paper §4.1.3: m=2, b=6, dh=128 -> 12/2048 = (b/8)*(1/128) <= 1/128.
        let cfg = PqConfig { m: 2, b: 6, max_iters: 1, seed: 0 };
        let r = cfg.comm_ratio(128);
        assert!((r - 12.0 / 2048.0).abs() < 1e-12);
        // m=4, b=8, dh=128 -> 32/2048 = 1/64.
        let cfg2 = PqConfig { m: 4, b: 8, max_iters: 1, seed: 0 };
        assert!((cfg2.comm_ratio(128) - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn code_bytes_rounds_up() {
        let cfg = PqConfig { m: 2, b: 6, max_iters: 1, seed: 0 };
        // 2 codes * 6 bits = 12 bits -> 2 bytes per token.
        assert_eq!(cfg.code_bytes(1), 2);
        assert_eq!(cfg.code_bytes(100), 150);
    }

    #[test]
    fn parallel_and_serial_training_agree() {
        // s >= 1024 triggers the threaded path; the result must be
        // identical to the serial path because seeds are per-sub-space.
        let keys = random_keys(1100, 16, 6);
        let cfg = PqConfig { m: 4, b: 4, max_iters: 6, seed: 6 };
        let (book_a, codes_a) = PqCodebook::train(&keys, cfg);
        let small = keys.slice_rows(0, 1100); // same data, force clone
        let (book_b, codes_b) = PqCodebook::train(&small, cfg);
        assert_eq!(codes_a, codes_b);
        for j in 0..4 {
            assert_eq!(book_a.centroids(j), book_b.centroids(j));
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_dh_panics() {
        let keys = random_keys(10, 10, 7);
        let cfg = PqConfig { m: 3, b: 2, max_iters: 1, seed: 0 };
        let _ = PqCodebook::train(&keys, cfg);
    }
}
