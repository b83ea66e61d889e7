//! Attention kernels: causal prefill attention (O(s) memory, blocked
//! single-pass online softmax), selective decode attention, sparse-pattern
//! masking, and score capture for the policies that learn from prefill
//! attention (H2O, SnapKV).
//!
//! The hot paths are single-sweep: logits for a block of keys are computed
//! into an L1-resident buffer, the running row maximum is updated once per
//! block, the accumulator is rescaled (`acc' = acc·e^{m−m'}`), and the
//! block's weighted values are folded in — the FlashAttention recurrence,
//! with no full-length logits buffer and no second softmax pass. Dense
//! prefill additionally tiles 4 query rows at a time so each key/value row
//! is loaded once per tile instead of once per row. Score capture needs the
//! materialised probability rows, so capturing callers — and partial prefill
//! chunks, which must match them bit for bit — take the per-row two-pass
//! sweep, [`causal_attention_rows`].

use pqc_tensor::{axpy, dot, softmax_inplace, Matrix};

/// Key-block width of the online-softmax sweeps: logits for one block
/// (`KEY_BLOCK` f32s per row) stay in L1, and the accumulator rescale
/// amortises over the block.
const KEY_BLOCK: usize = 64;

/// Query rows processed together by the dense prefill tile.
const ROW_TILE: usize = 4;

/// Below this sequence length the dense prefill uses the same per-row sweep
/// as masked patterns: tiny tiles don't amortise their bookkeeping, and a
/// shared code path keeps "Λ-shape that covers everything" bit-identical to
/// dense on the short fixtures that assert it.
const TILE_MIN_S: usize = 64;

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

    /// Number of keys query row `i` attends to.
    pub fn keys_for_row(&self, i: usize) -> usize {
        match *self {
            PrefillPattern::Dense => i + 1,
            PrefillPattern::AShape { init, local } => {
                if i < init + local {
                    i + 1 // init and local regions cover the whole prefix
                } else {
                    init + local
                }
            }
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

/// Running online-softmax state for one query row: the FlashAttention
/// `(m, l)` pair; the unnormalised accumulator lives in a caller-owned
/// slice so row tiles can pack several side by side.
#[derive(Debug, Clone, Copy)]
struct OnlineState {
    /// Running maximum logit.
    m: f32,
    /// Running normaliser `Σ e^{w − m}`.
    l: f32,
}

impl OnlineState {
    fn new() -> Self {
        Self { m: f32::NEG_INFINITY, l: 0.0 }
    }

    /// Raise the running max to `m_new`, rescaling `l` and `acc` by
    /// `e^{m − m'}`. No-op when the max doesn't move.
    #[inline]
    fn raise_max(&mut self, m_new: f32, acc: &mut [f32]) {
        if m_new > self.m {
            if self.l > 0.0 {
                let scale_old = (self.m - m_new).exp();
                self.l *= scale_old;
                for a in acc.iter_mut() {
                    *a *= scale_old;
                }
            }
            self.m = m_new;
        }
    }

    /// Normalise `acc` into `out` (`out = acc / l`).
    #[inline]
    fn finish(&self, acc: &[f32], out: &mut [f32]) {
        // NaN `l` is allowed: it propagates NaN to the output, matching the
        // two-pass softmax on NaN inputs.
        debug_assert!(self.l > 0.0 || self.l.is_nan(), "online softmax over empty key set");
        let inv = 1.0 / self.l;
        for (o, a) in out.iter_mut().zip(acc.iter()) {
            *o = a * inv;
        }
    }
}

/// Single-pass blocked sweep of one query over the contiguous key range
/// `[lo, hi)`: per block, compute the logits into `logits_buf`, raise the
/// running max once, then fold the exponentiated weights and values into
/// `acc`. Shared by the masked/short prefill rows and the decode kernel so
/// every contiguous-segment sweep is the same recurrence, bit for bit.
#[allow(clippy::too_many_arguments)]
#[inline]
fn online_sweep_segment(
    query: &[f32],
    k: &Matrix,
    v: &Matrix,
    lo: usize,
    hi: usize,
    scale: f32,
    state: &mut OnlineState,
    acc: &mut [f32],
    logits_buf: &mut Vec<f32>,
) {
    let mut blk_lo = lo;
    while blk_lo < hi {
        let blk_hi = (blk_lo + KEY_BLOCK).min(hi);
        logits_buf.clear();
        let mut blk_max = f32::NEG_INFINITY;
        for j in blk_lo..blk_hi {
            let w = dot(query, k.row(j)) * scale;
            blk_max = blk_max.max(w);
            logits_buf.push(w);
        }
        state.raise_max(blk_max, acc);
        let m = state.m;
        for (off, &w) in logits_buf.iter().enumerate() {
            let e = (w - m).exp();
            state.l += e;
            axpy(acc, v.row(blk_lo + off), e);
        }
        blk_lo = blk_hi;
    }
}

/// The two contiguous key segments query row `i` attends to under
/// `pattern`, merged into one when they touch or overlap (so a Λ-shape that
/// covers the whole prefix sweeps exactly like dense).
#[inline]
fn allowed_segments(pattern: PrefillPattern, i: usize) -> ((usize, usize), (usize, usize)) {
    match pattern {
        PrefillPattern::Dense => ((0, i + 1), (0, 0)),
        PrefillPattern::AShape { init, local } => {
            let seg1_hi = init.min(i + 1);
            let seg2_lo = (i + 1).saturating_sub(local);
            if seg2_lo <= seg1_hi {
                ((0, i + 1), (0, 0))
            } else {
                ((0, seg1_hi), (seg2_lo, i + 1))
            }
        }
    }
}

/// Causal single-(kv)head prefill attention.
///
/// `q` is `(s, d_h)` for one query head; `k`/`v` are `(s, d_h)` for its kv
/// head (already RoPE'd). Memory O(s), time O(s²·d_h) — the FlashAttention
/// trade the paper assumes — via the blocked single-pass online softmax:
/// no per-row logits vector over the whole prefix, no second softmax sweep.
/// Dense prefill of long sequences additionally processes [`ROW_TILE`]
/// query rows per pass so each K/V row is fetched once per tile.
///
/// Capturing callers (H2O/SnapKV statistics, Fig. 6 sampling) need the full
/// probability rows, which the online path never materialises, so they take
/// the two-pass sweep of [`causal_attention_rows`] (at `row_offset = 0`).
/// Consequently capture is **not bit-transparent**:
/// capturing and non-capturing prefills of the same prompt agree to float
/// tolerance, not to the bit (normalise-then-accumulate vs the online
/// accumulate-then-normalise). Comparisons that require bit-identity must
/// hold the capture setting fixed — the session layer does (its prefills
/// always capture).
pub fn causal_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    pattern: PrefillPattern,
    capture: Option<&mut ScoreCapture>,
) -> Matrix {
    let (s, dh) = q.shape();
    assert_eq!(k.shape(), (s, dh));
    assert_eq!(v.shape(), (s, dh));
    if capture.is_some() {
        return causal_attention_rows(q, k, v, 0, s, pattern, capture);
    }
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = Matrix::zeros(s, dh);

    if matches!(pattern, PrefillPattern::Dense) && s >= TILE_MIN_S {
        if use_avx2() {
            // SAFETY: AVX2 support verified at runtime by `use_avx2`.
            unsafe { dense_tiled_avx2(q, k, v, &mut out, scale) }
        } else {
            dense_tiled_baseline(q, k, v, &mut out, scale);
        }
        return out;
    }

    if use_avx2() {
        // SAFETY: AVX2 support verified at runtime by `use_avx2`.
        unsafe { rows_online_avx2(q, k, v, pattern, &mut out, scale) }
    } else {
        rows_online_baseline(q, k, v, pattern, &mut out, scale);
    }
    out
}

/// Whether the host supports AVX2 (std caches the CPUID probe). The AVX2
/// kernel clones below run the *same* IEEE operations in the same order as
/// the baseline clones — 8-lane mul/add instead of 4-lane, identical lane
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

/// Masked patterns and short sequences: per-row blocked online sweep over
/// the allowed contiguous segments.
#[inline(always)]
fn rows_online_body(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    pattern: PrefillPattern,
    out: &mut Matrix,
    scale: f32,
) {
    let (s, dh) = q.shape();
    let mut logits_buf: Vec<f32> = Vec::with_capacity(KEY_BLOCK);
    let mut acc = vec![0.0f32; dh];
    for i in 0..s {
        let qi = q.row(i);
        acc.iter_mut().for_each(|a| *a = 0.0);
        let mut state = OnlineState::new();
        let (seg1, seg2) = allowed_segments(pattern, i);
        for (lo, hi) in [seg1, seg2] {
            online_sweep_segment(qi, k, v, lo, hi, scale, &mut state, &mut acc, &mut logits_buf);
        }
        // A degenerate pattern (AShape with init = local = 0) can leave a
        // row with no allowed keys; match the two-pass path's behaviour
        // (softmax over nothing = zero row) instead of dividing by l = 0.
        // The zero-row shortcut applies only to the genuinely-empty case —
        // NaN inputs leave `m` raised (or `l` NaN) and fall through to
        // `finish`, which propagates NaN exactly like the two-pass path.
        if state.l != 0.0 || state.m != f32::NEG_INFINITY {
            state.finish(&acc, out.row_mut(i));
        }
    }
}

#[inline(never)]
fn rows_online_baseline(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    pattern: PrefillPattern,
    out: &mut Matrix,
    scale: f32,
) {
    rows_online_body(q, k, v, pattern, out, scale);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_online_avx2(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    pattern: PrefillPattern,
    out: &mut Matrix,
    scale: f32,
) {
    rows_online_body(q, k, v, pattern, out, scale);
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn rows_online_avx2(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    pattern: PrefillPattern,
    out: &mut Matrix,
    scale: f32,
) {
    rows_online_body(q, k, v, pattern, out, scale);
}

/// Dense prefill fast path: tiles of [`ROW_TILE`] query rows sweep the key
/// prefix together. Full [`KEY_BLOCK`]-wide key blocks below the tile are
/// shared (the K and V blocks stay L1-hot across the tile's rows); the
/// causal staircase inside the tile is finished with per-key updates.
///
/// The online-softmax state lives in local arrays and the recurrence is
/// written out straight-line: routing every key through the abstracted
/// per-segment helper measurably (≈2×) slows this loop down.
#[inline(always)]
fn dense_tiled_body(q: &Matrix, k: &Matrix, v: &Matrix, out: &mut Matrix, scale: f32) {
    let (s, dh) = q.shape();
    let mut logits = vec![0.0f32; ROW_TILE * KEY_BLOCK];
    let mut acc = vec![0.0f32; ROW_TILE * dh];
    let mut m = [f32::NEG_INFINITY; ROW_TILE];
    let mut l = [0.0f32; ROW_TILE];

    let mut i0 = 0usize;
    while i0 < s {
        let rows = ROW_TILE.min(s - i0);
        acc.iter_mut().for_each(|a| *a = 0.0);
        m[..rows].fill(f32::NEG_INFINITY);
        l[..rows].fill(0.0);

        // Shared full key blocks: every row of the tile attends to all of
        // `[0, i0)`.
        let mut blk_lo = 0usize;
        while blk_lo < i0 {
            let blk_hi = (blk_lo + KEY_BLOCK).min(i0);
            let blk_len = blk_hi - blk_lo;
            // Logit tile: the key block (≤ KEY_BLOCK·d_h floats) is L1-hot,
            // so each query row sweeps it with its own registers pinned.
            // (A paired-row `dot2` variant was measured here and lost ~30%:
            // the doubled accumulator state spills on SSE register budgets.)
            for r in 0..rows {
                let qr = q.row(i0 + r);
                let wrow = &mut logits[r * KEY_BLOCK..r * KEY_BLOCK + blk_len];
                for (off, j) in (blk_lo..blk_hi).enumerate() {
                    wrow[off] = dot(qr, k.row(j)) * scale;
                }
            }
            // Per-row max raise + in-place exponentiation of the tile.
            for r in 0..rows {
                let w = &mut logits[r * KEY_BLOCK..r * KEY_BLOCK + blk_len];
                let blk_max = w.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                if blk_max > m[r] {
                    if l[r] > 0.0 {
                        let rescale = (m[r] - blk_max).exp();
                        l[r] *= rescale;
                        for a in acc[r * dh..(r + 1) * dh].iter_mut() {
                            *a *= rescale;
                        }
                    }
                    m[r] = blk_max;
                }
                let mr = m[r];
                let mut lr = l[r];
                for e in w.iter_mut() {
                    *e = (*e - mr).exp();
                    lr += *e;
                }
                l[r] = lr;
            }
            // Value tile: per row, fold the block's weighted values into the
            // row accumulator (the value block stays L1-hot across rows, the
            // accumulator stays register/L1-hot across the block).
            for r in 0..rows {
                let accr = &mut acc[r * dh..(r + 1) * dh];
                let wrow = &logits[r * KEY_BLOCK..r * KEY_BLOCK + blk_len];
                for (off, j) in (blk_lo..blk_hi).enumerate() {
                    axpy(accr, v.row(j), wrow[off]);
                }
            }
            blk_lo = blk_hi;
        }

        // Causal staircase: row i0+r additionally attends keys [i0, i0+r],
        // folded in per key, then the row is normalised out.
        for r in 0..rows {
            let i = i0 + r;
            let qi = q.row(i);
            let accr = &mut acc[r * dh..(r + 1) * dh];
            for j in i0..=i {
                let w = dot(qi, k.row(j)) * scale;
                if w > m[r] {
                    if l[r] > 0.0 {
                        let rescale = (m[r] - w).exp();
                        l[r] *= rescale;
                        for a in accr.iter_mut() {
                            *a *= rescale;
                        }
                    }
                    m[r] = w;
                }
                let e = (w - m[r]).exp();
                l[r] += e;
                axpy(accr, v.row(j), e);
            }
            let inv = 1.0 / l[r];
            for (o, a) in out.row_mut(i).iter_mut().zip(accr.iter()) {
                *o = a * inv;
            }
        }
        i0 += rows;
    }
}

#[inline(never)]
fn dense_tiled_baseline(q: &Matrix, k: &Matrix, v: &Matrix, out: &mut Matrix, scale: f32) {
    dense_tiled_body(q, k, v, out, scale);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_tiled_avx2(q: &Matrix, k: &Matrix, v: &Matrix, out: &mut Matrix, scale: f32) {
    dense_tiled_body(q, k, v, out, scale);
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn dense_tiled_avx2(q: &Matrix, k: &Matrix, v: &Matrix, out: &mut Matrix, scale: f32) {
    dense_tiled_body(q, k, v, out, scale);
}

/// Causal prefill attention for one **chunk** of query rows against the
/// full key prefix: query row `r` of `q` sits at absolute position
/// `row_offset + r` and attends keys `0..=row_offset + r` of `k`/`v`
/// (whose rows `0..row_offset + q.rows()` must already be populated).
///
/// This is the chunked-prefill kernel and the only two-pass sweep: per-row
/// scaled dots over the allowed keys, `softmax`, per-key `axpy`, each row's
/// materialised probabilities handed to the capture. A capturing
/// [`causal_attention`] is this routine over all rows, so a prefill split
/// into chunks at any boundaries produces bit-identical outputs and
/// bit-identical capture statistics to the unchunked capturing prefill:
/// every per-row operation touches only that row, and the capture
/// accumulates rows in ascending order regardless of chunk boundaries.
/// `s_total` is the full prompt length (it anchors the capture's
/// observation window, which must not depend on chunking).
pub fn causal_attention_rows(
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

/// Decode-time attention of a single query vector over an arbitrary set of
/// gathered keys/values (the selective-attention kernel, Step ❻), into
/// caller-owned score and output buffers (both cleared first) — the decode
/// loop runs one of these per query head per layer per step, so buffer
/// reuse removes its steady-state allocations.
///
/// Single-pass blocked online softmax: `scores` now only ever holds one
/// [`KEY_BLOCK`]-wide logit block (it no longer scales with the gathered
/// set), and the softmax + weighted sum complete in the same sweep as the
/// score computation. Same recurrence as the prefill row path.
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

/// Shared body: `out` doubles as the online accumulator and is normalised
/// in place at the end.
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
    let mut state = OnlineState::new();
    online_sweep_segment(query, keys, values, 0, n, scale, &mut state, out, scores);
    let inv = 1.0 / state.l;
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
        let out = causal_attention(&q, &k, &v, PrefillPattern::Dense, None);
        // Query 0 can only attend to key 0: softmax over one element = 1.
        for (a, b) in out.row(0).iter().zip(v.row(0).iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn attend_selected_full_set_matches_last_prefill_row() {
        let (q, k, v) = rand_mats(12, 8, 2);
        let out = causal_attention(&q, &k, &v, PrefillPattern::Dense, None);
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
        let _ = causal_attention(&q, &k, &v, PrefillPattern::Dense, Some(&mut cap));
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
        let _ = causal_attention(&q, &k, &v, PrefillPattern::Dense, Some(&mut cap));
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
        let dense = causal_attention(&q, &k, &v, PrefillPattern::Dense, None);
        // init+local cover everything when i < init + local.
        let sparse = causal_attention(
            &q,
            &k,
            &v,
            PrefillPattern::AShape { init: 3, local: 3 },
            None,
        );
        assert!(dense.max_abs_diff(&sparse) < 1e-6);
    }

    #[test]
    fn ashape_differs_from_dense_for_long_rows() {
        let (q, k, v) = rand_mats(32, 8, 6);
        let dense = causal_attention(&q, &k, &v, PrefillPattern::Dense, None);
        let sparse = causal_attention(
            &q,
            &k,
            &v,
            PrefillPattern::AShape { init: 2, local: 4 },
            None,
        );
        assert!(dense.max_abs_diff(&sparse) > 1e-4);
    }

    #[test]
    fn keys_for_row_matches_allows() {
        for pattern in [
            PrefillPattern::Dense,
            PrefillPattern::AShape { init: 2, local: 3 },
            PrefillPattern::AShape { init: 0, local: 1 },
            PrefillPattern::AShape { init: 5, local: 5 },
        ] {
            for i in 0..40 {
                let counted = (0..=i).filter(|&j| pattern.allows(i, j)).count();
                assert_eq!(pattern.keys_for_row(i), counted, "{pattern:?} row {i}");
            }
        }
    }

    #[test]
    fn chunked_rows_match_monolithic_capture_bits() {
        // Any chunking of the query rows must reproduce the capturing
        // monolithic sweep exactly: outputs, accumulators, and samples.
        for (s, chunk) in [(10usize, 3usize), (16, 1), (7, 16), (12, 4), (9, 9)] {
            for pattern in
                [PrefillPattern::Dense, PrefillPattern::AShape { init: 2, local: 3 }]
            {
                let (q, k, v) = rand_mats(s, 8, 0xC0 + s as u64);
                let mut cap_mono = ScoreCapture::new(s, 4.min(s));
                cap_mono.sample_rows = vec![2, s - 1];
                let mono = causal_attention(&q, &k, &v, pattern, Some(&mut cap_mono));

                let mut cap_chunk = ScoreCapture::new(s, 4.min(s));
                cap_chunk.sample_rows = vec![2, s - 1];
                let mut done = 0;
                let mut out = Matrix::zeros(s, 8);
                while done < s {
                    let hi = (done + chunk).min(s);
                    let qc = q.slice_rows(done, hi);
                    let oc = causal_attention_rows(
                        &qc,
                        &k,
                        &v,
                        done,
                        s,
                        pattern,
                        Some(&mut cap_chunk),
                    );
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
