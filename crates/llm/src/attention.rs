//! Attention kernels: causal prefill attention, selective decode attention,
//! sparse-pattern masking, and score capture for the policies that learn
//! from prefill attention (H2O, SnapKV).
//!
//! Prefill is one kernel, [`causal_attention`]: a per-row two-pass sweep
//! (scaled dots over the allowed keys, softmax, weighted value sum) whose
//! every operation touches only its own row. Its output is therefore
//! bit-identical for any chunking of the prompt and any capture setting;
//! capture only reads the probability rows the sweep materialises anyway.
//!
//! Decode is the blocked single-pass online softmax of
//! [`attend_selected_into`]: logits for a block of keys are computed into
//! an L1-resident buffer, the running row maximum is raised once per block,
//! the accumulator is rescaled (`acc' = acc·e^{m−m'}`), and the block's
//! weighted values are folded in — the FlashAttention recurrence, with no
//! buffer that grows with the gathered set. It runs as an AVX2 clone when
//! the host supports it, with the same IEEE operations in the same order.

use pqc_tensor::{axpy, dot, softmax_inplace, Matrix};

/// Key-block width of the decode online-softmax sweep: logits for one block
/// (`KEY_BLOCK` f32s) stay in L1, and the accumulator rescale amortises over
/// the block.
const KEY_BLOCK: usize = 64;

/// Restricts which keys each prefill query row may attend to.
///
/// `Dense` is ordinary causal attention. `AShape` is the MInference-style
/// pattern used by Table 5: every query sees the first `init` tokens plus a
/// `local`-wide sliding window ("Λ-shape": vertical stripe + diagonal slash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillPattern {
    /// Full causal attention.
    Dense,
    /// Sparse Λ-shaped attention.
    AShape {
        /// Number of initial tokens every query attends to.
        init: usize,
        /// Sliding-window width (keys `j` with `i - j < local`).
        local: usize,
    },
}

impl PrefillPattern {
    /// Whether query row `i` may attend to key `j` (`j <= i` presumed).
    #[inline]
    pub fn allows(&self, i: usize, j: usize) -> bool {
        debug_assert!(j <= i);
        match *self {
            PrefillPattern::Dense => true,
            PrefillPattern::AShape { init, local } => j < init || i - j < local,
        }
    }
}

/// Accumulates attention-probability statistics during prefill for one
/// (layer, kv-head). Used by H2O (full accumulation), SnapKV/PyramidKV
/// (observation-window accumulation), and the Fig. 6 distribution analysis
/// (sampled raw rows).
#[derive(Debug, Clone)]
pub struct ScoreCapture {
    /// Sum over all query rows of softmax probabilities per key (H2O).
    pub accum: Vec<f32>,
    /// Sum over the last `window` query rows only (SnapKV).
    pub window_accum: Vec<f32>,
    /// Observation-window width.
    pub window: usize,
    /// Query rows whose full probability vector should be kept (Fig. 6).
    pub sample_rows: Vec<usize>,
    /// Captured `(row, probabilities)` pairs.
    pub samples: Vec<(usize, Vec<f32>)>,
    /// Sorted copy of `sample_rows` built by [`Self::prepare`], so per-row
    /// membership checks are a binary search instead of a linear scan —
    /// without mutating the caller-owned field.
    sorted_rows: Vec<usize>,
    /// Reusable dense scatter buffer for sparse (masked) rows.
    scratch: Vec<f32>,
}

impl ScoreCapture {
    /// A capture sized for `s` tokens with a SnapKV window of `window`.
    pub fn new(s: usize, window: usize) -> Self {
        Self {
            accum: vec![0.0; s],
            window_accum: vec![0.0; s],
            window,
            sample_rows: Vec::new(),
            samples: Vec::new(),
            sorted_rows: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Refresh the sorted sample-row index; called once per attention pass.
    fn prepare(&mut self) {
        self.sorted_rows.clear();
        self.sorted_rows.extend_from_slice(&self.sample_rows);
        self.sorted_rows.sort_unstable();
    }

    /// Record a dense probability row (`probs[j]` = mass on key `j`).
    fn record(&mut self, row: usize, probs: &[f32], s_total: usize) {
        for (j, &p) in probs.iter().enumerate() {
            self.accum[j] += p;
        }
        if row + self.window >= s_total {
            for (j, &p) in probs.iter().enumerate() {
                self.window_accum[j] += p;
            }
        }
        if self.sorted_rows.binary_search(&row).is_ok() {
            self.samples.push((row, probs.to_vec()));
        }
    }

    /// Fold `other` into `self`: slot-wise sums of `accum`/`window_accum`
    /// (in ascending key order) and concatenated samples.
    ///
    /// This is how per-(kv-head, query-in-group) captures combine into the
    /// per-kv-head capture the policies consume. Prefill records one capture
    /// per group member, row by row, and merges them in ascending group
    /// order, so the floating-point accumulation order — and therefore every
    /// capture bit — is independent of how prefill was chunked.
    pub fn merge(&mut self, other: &ScoreCapture) {
        assert_eq!(self.accum.len(), other.accum.len(), "capture length mismatch");
        assert_eq!(self.window, other.window, "capture window mismatch");
        for (a, &b) in self.accum.iter_mut().zip(other.accum.iter()) {
            *a += b;
        }
        for (a, &b) in self.window_accum.iter_mut().zip(other.window_accum.iter()) {
            *a += b;
        }
        self.samples.extend(other.samples.iter().cloned());
    }

    /// Record a sparse row given the allowed key indices and their
    /// probabilities; the dense scatter goes through one reusable scratch
    /// buffer instead of a fresh allocation per masked row.
    fn record_sparse(&mut self, row: usize, allowed: &[usize], probs: &[f32], s_total: usize) {
        debug_assert_eq!(allowed.len(), probs.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.resize(row + 1, 0.0);
        for (&j, &p) in allowed.iter().zip(probs.iter()) {
            scratch[j] = p;
        }
        self.record(row, &scratch, s_total);
        self.scratch = scratch;
    }
}

/// Causal prefill attention for one single-(kv)head **chunk** of query
/// rows against the key prefix: query row `r` of `q` sits at absolute
/// position `row_offset + r` and attends the keys of `k`/`v` that `pattern`
/// allows among `0..=row_offset + r` (rows `0..row_offset + q.rows()` must
/// already be populated, RoPE'd). A whole prompt is the chunk at
/// `row_offset = 0` with `q.rows() == s_total`.
///
/// This is the one prefill kernel, a per-row two-pass sweep: scaled dots
/// over the allowed keys, `softmax`, per-key `axpy`, and each row's
/// materialised probabilities handed to the capture when there is one.
/// Every operation touches only its own row and the capture accumulates
/// rows in ascending order, so a prompt split into chunks at any boundaries
/// produces the same output and capture bits as one whole-prompt call, and
/// capturing never changes the output. `s_total` is the full prompt length
/// (it anchors the capture's observation window, which must not depend on
/// chunking).
pub fn causal_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    row_offset: usize,
    s_total: usize,
    pattern: PrefillPattern,
    capture: Option<&mut ScoreCapture>,
) -> Matrix {
    let (rows, dh) = q.shape();
    assert_eq!(k.cols(), dh);
    assert_eq!(k.shape(), v.shape());
    assert!(row_offset + rows <= s_total, "chunk extends past the prompt");
    assert!(k.rows() >= row_offset + rows, "key prefix shorter than the chunk needs");
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = Matrix::zeros(rows, dh);
    let mut scores: Vec<f32> = Vec::with_capacity(row_offset + rows);
    let mut allowed: Vec<usize> = Vec::with_capacity(row_offset + rows);
    let mut cap = capture;
    if let Some(c) = cap.as_deref_mut() {
        c.prepare();
    }

    for r in 0..rows {
        let i = row_offset + r;
        scores.clear();
        allowed.clear();
        let qi = q.row(r);
        for j in 0..=i {
            if pattern.allows(i, j) {
                allowed.push(j);
                scores.push(dot(qi, k.row(j)) * scale);
            }
        }
        softmax_inplace(&mut scores);
        let orow = out.row_mut(r);
        for (&j, &p) in allowed.iter().zip(scores.iter()) {
            axpy(orow, v.row(j), p);
        }
        if let Some(c) = cap.as_deref_mut() {
            if allowed.len() == i + 1 {
                c.record(i, &scores, s_total);
            } else {
                c.record_sparse(i, &allowed, &scores, s_total);
            }
        }
    }
    out
}

/// Whether the host supports AVX2 (std caches the CPUID probe). The AVX2
/// decode clone below runs the *same* IEEE operations in the same order as
/// the baseline clone — 8-lane mul/add instead of 4-lane, identical lane
/// split and reduction — so dispatch never changes results, only speed.
#[inline]
fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Decode-time attention of a single query vector over an arbitrary set of
/// gathered keys/values (the selective-attention kernel, Step ❻), into
/// caller-owned score and output buffers (both cleared first) — the decode
/// loop runs one of these per query head per layer per step, so buffer
/// reuse removes its steady-state allocations.
///
/// Single-pass blocked online softmax: `scores` only ever holds one
/// `KEY_BLOCK`-wide logit block, and the softmax + weighted sum complete
/// in the same sweep as the score computation.
pub fn attend_selected_into(
    query: &[f32],
    keys: &Matrix,
    values: &Matrix,
    scores: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    let dh = query.len();
    assert_eq!(keys.cols(), dh);
    assert_eq!(keys.shape(), values.shape());
    let n = keys.rows();
    assert!(n > 0, "attend_selected over empty set");
    let scale = 1.0 / (dh as f32).sqrt();
    out.clear();
    out.resize(dh, 0.0);
    if use_avx2() {
        // SAFETY: AVX2 support verified at runtime by `use_avx2`.
        unsafe { attend_selected_avx2(query, keys, values, n, scale, scores, out.as_mut_slice()) }
    } else {
        attend_selected_baseline(query, keys, values, n, scale, scores, out.as_mut_slice());
    }
}

/// Shared body: one blocked sweep over the `n` keys. Per [`KEY_BLOCK`]
/// block, compute the logits into `scores`, raise the running max `m` once
/// (rescaling the normaliser `l = Σ e^{w − m}` and the accumulator by
/// `e^{m − m'}`), then fold the block's exponentiated weights and values in.
/// `out` doubles as the accumulator and is normalised in place at the end.
#[inline(always)]
fn attend_selected_body(
    query: &[f32],
    keys: &Matrix,
    values: &Matrix,
    n: usize,
    scale: f32,
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    let (mut m, mut l) = (f32::NEG_INFINITY, 0.0f32);
    let mut lo = 0;
    while lo < n {
        let hi = (lo + KEY_BLOCK).min(n);
        scores.clear();
        let mut blk_max = f32::NEG_INFINITY;
        for j in lo..hi {
            let w = dot(query, keys.row(j)) * scale;
            blk_max = blk_max.max(w);
            scores.push(w);
        }
        if blk_max > m {
            if l > 0.0 {
                let rescale = (m - blk_max).exp();
                l *= rescale;
                for a in out.iter_mut() {
                    *a *= rescale;
                }
            }
            m = blk_max;
        }
        for (off, &w) in scores.iter().enumerate() {
            let e = (w - m).exp();
            l += e;
            axpy(out, values.row(lo + off), e);
        }
        lo = hi;
    }
    let inv = 1.0 / l;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

#[inline(never)]
fn attend_selected_baseline(
    query: &[f32],
    keys: &Matrix,
    values: &Matrix,
    n: usize,
    scale: f32,
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    attend_selected_body(query, keys, values, n, scale, scores, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attend_selected_avx2(
    query: &[f32],
    keys: &Matrix,
    values: &Matrix,
    n: usize,
    scale: f32,
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    attend_selected_body(query, keys, values, n, scale, scores, out);
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn attend_selected_avx2(
    query: &[f32],
    keys: &Matrix,
    values: &Matrix,
    n: usize,
    scale: f32,
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    attend_selected_body(query, keys, values, n, scale, scores, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqc_tensor::Rng64;

    fn rand_mats(s: usize, dh: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = Rng64::new(seed);
        (
            Matrix::randn(s, dh, 1.0, &mut rng),
            Matrix::randn(s, dh, 1.0, &mut rng),
            Matrix::randn(s, dh, 1.0, &mut rng),
        )
    }

    #[test]
    fn first_row_copies_first_value() {
        let (q, k, v) = rand_mats(5, 8, 1);
        let out = causal_attention(&q, &k, &v, 0, 5, PrefillPattern::Dense, None);
        // Query 0 can only attend to key 0: softmax over one element = 1.
        for (a, b) in out.row(0).iter().zip(v.row(0).iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn attend_selected_full_set_matches_last_prefill_row() {
        let (q, k, v) = rand_mats(12, 8, 2);
        let out = causal_attention(&q, &k, &v, 0, 12, PrefillPattern::Dense, None);
        let (mut scores, mut dec) = (Vec::new(), Vec::new());
        attend_selected_into(q.row(11), &k, &v, &mut scores, &mut dec);
        for (a, b) in out.row(11).iter().zip(dec.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn capture_accumulates_probability_mass() {
        let (q, k, v) = rand_mats(10, 8, 3);
        let mut cap = ScoreCapture::new(10, 3);
        let _ = causal_attention(&q, &k, &v, 0, 10, PrefillPattern::Dense, Some(&mut cap));
        // Total accumulated mass = number of query rows (each row sums to 1).
        let total: f32 = cap.accum.iter().sum();
        assert!((total - 10.0).abs() < 1e-4, "total {total}");
        // Window mass = window rows.
        let wtotal: f32 = cap.window_accum.iter().sum();
        assert!((wtotal - 3.0).abs() < 1e-4, "wtotal {wtotal}");
    }

    #[test]
    fn capture_samples_requested_rows() {
        let (q, k, v) = rand_mats(8, 4, 4);
        let mut cap = ScoreCapture::new(8, 2);
        cap.sample_rows = vec![3, 7];
        let _ = causal_attention(&q, &k, &v, 0, 8, PrefillPattern::Dense, Some(&mut cap));
        assert_eq!(cap.samples.len(), 2);
        assert_eq!(cap.samples[0].0, 3);
        assert_eq!(cap.samples[0].1.len(), 4);
        assert_eq!(cap.samples[1].1.len(), 8);
    }

    #[test]
    fn ashape_pattern_masks_middle() {
        let p = PrefillPattern::AShape { init: 2, local: 3 };
        // Row 10: allowed j in {0,1} ∪ {8,9,10}.
        assert!(p.allows(10, 0));
        assert!(p.allows(10, 1));
        assert!(!p.allows(10, 2));
        assert!(!p.allows(10, 7));
        assert!(p.allows(10, 8));
        assert!(p.allows(10, 10));
    }

    #[test]
    fn ashape_equals_dense_for_short_rows() {
        let (q, k, v) = rand_mats(6, 8, 5);
        let dense = causal_attention(&q, &k, &v, 0, 6, PrefillPattern::Dense, None);
        // init+local cover everything when i < init + local.
        let ashape = PrefillPattern::AShape { init: 3, local: 3 };
        let sparse = causal_attention(&q, &k, &v, 0, 6, ashape, None);
        assert!(dense.max_abs_diff(&sparse) < 1e-6);
    }

    #[test]
    fn ashape_differs_from_dense_for_long_rows() {
        let (q, k, v) = rand_mats(32, 8, 6);
        let dense = causal_attention(&q, &k, &v, 0, 32, PrefillPattern::Dense, None);
        let ashape = PrefillPattern::AShape { init: 2, local: 4 };
        let sparse = causal_attention(&q, &k, &v, 0, 32, ashape, None);
        assert!(dense.max_abs_diff(&sparse) > 1e-4);
    }

    #[test]
    fn chunked_rows_match_monolithic_capture_bits() {
        // Any chunking of the query rows must reproduce the capturing
        // whole-prompt sweep exactly: outputs, accumulators, and samples;
        // and capturing must not change the output.
        for (s, chunk) in [(10usize, 3usize), (16, 1), (7, 16), (12, 4), (9, 9)] {
            for pattern in
                [PrefillPattern::Dense, PrefillPattern::AShape { init: 2, local: 3 }]
            {
                let (q, k, v) = rand_mats(s, 8, 0xC0 + s as u64);
                let mut cap_mono = ScoreCapture::new(s, 4.min(s));
                cap_mono.sample_rows = vec![2, s - 1];
                let mono = causal_attention(&q, &k, &v, 0, s, pattern, Some(&mut cap_mono));
                assert_eq!(causal_attention(&q, &k, &v, 0, s, pattern, None), mono);

                let mut cap_chunk = ScoreCapture::new(s, 4.min(s));
                cap_chunk.sample_rows = vec![2, s - 1];
                let mut done = 0;
                let mut out = Matrix::zeros(s, 8);
                while done < s {
                    let hi = (done + chunk).min(s);
                    let qc = q.slice_rows(done, hi);
                    let oc = causal_attention(&qc, &k, &v, done, s, pattern, Some(&mut cap_chunk));
                    for r in done..hi {
                        out.row_mut(r).copy_from_slice(oc.row(r - done));
                    }
                    done = hi;
                }
                assert_eq!(out, mono, "s={s} chunk={chunk} {pattern:?} outputs");
                assert_eq!(cap_chunk.accum, cap_mono.accum, "s={s} chunk={chunk} accum");
                assert_eq!(cap_chunk.window_accum, cap_mono.window_accum);
                assert_eq!(cap_chunk.samples, cap_mono.samples);
            }
        }
    }

    #[test]
    fn merge_sums_slots_and_concatenates_samples() {
        let mut a = ScoreCapture::new(4, 2);
        a.accum = vec![1.0, 2.0, 3.0, 4.0];
        a.window_accum = vec![0.5; 4];
        a.samples = vec![(1, vec![0.25; 2])];
        let mut b = ScoreCapture::new(4, 2);
        b.accum = vec![10.0, 20.0, 30.0, 40.0];
        b.window_accum = vec![1.5; 4];
        b.samples = vec![(1, vec![0.75; 2]), (3, vec![0.1; 4])];
        a.merge(&b);
        assert_eq!(a.accum, vec![11.0, 22.0, 33.0, 44.0]);
        assert_eq!(a.window_accum, vec![2.0; 4]);
        assert_eq!(
            a.samples,
            vec![(1, vec![0.25; 2]), (1, vec![0.75; 2]), (3, vec![0.1; 4])]
        );
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn attend_selected_empty_panics() {
        let k = Matrix::zeros(0, 4);
        let v = Matrix::zeros(0, 4);
        attend_selected_into(&[0.0; 4], &k, &v, &mut Vec::new(), &mut Vec::new());
    }
}
