//! Attention kernels: causal prefill attention, selective decode attention,
//! sparse-pattern masking, and score capture for the policies that learn
//! from prefill attention (H2O, SnapKV).
//!
//! Prefill is one kernel, [`causal_attention`], blocked FlashAttention-style
//! (Dao et al., 2022) but without the online rescale, which would change
//! bits. Once per call the key prefix is transposed into lane blocks of
//! `LANES` keys, so each AVX2 operation advances 8 keys' scores for one
//! query row, each lane running `dot`'s exact lane split and reduction. Query rows go
//! in tiles of `ROW_TILE`: scores, then a per-row `softmax_inplace` (and the
//! capture's records, in ascending row order), then the value sum, which for
//! a full `Dense` tile keeps all four rows' outputs in registers while it
//! walks the tile's common causal prefix. Every score, probability and
//! output element is the same sequence of IEEE operations as a plain
//! per-row loop (`dot`, `softmax_inplace`, `axpy` in ascending key order),
//! so the output is bit-identical for any chunking of the prompt and any
//! capture setting; the test module keeps that loop as the reference.
//!
//! Decode is the blocked single-pass online softmax of
//! [`attend_selected_into`]: logits for a block of keys are computed into
//! an L1-resident buffer, the running row maximum is raised once per block,
//! the accumulator is rescaled (`acc' = acc·e^{m−m'}`), and the block's
//! weighted values are folded in — the FlashAttention recurrence, with no
//! buffer that grows with the gathered set.
//!
//! Both kernels run as an AVX2 clone when the host supports it, with the
//! same IEEE operations in the same order (no FMA), so dispatch changes
//! speed, never results.

use std::ops::Range;

use pqc_tensor::{axpy, dot, softmax_inplace, Matrix};

/// Key-block width of the decode online-softmax sweep: logits for one block
/// (`KEY_BLOCK` f32s) stay in L1, and the accumulator rescale amortises over
/// the block.
const KEY_BLOCK: usize = 64;

/// Keys per prefill lane block: one AVX2 vector of scores, one key a lane.
const LANES: usize = 8;

/// Query rows per prefill tile; a full `Dense` tile's value sum holds this
/// many output rows in registers.
const ROW_TILE: usize = 4;

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

    /// The keys query row `i` attends, `{j <= i : allows(i, j)}`, as two
    /// disjoint ascending ranges (either may be empty): the `init` stripe,
    /// then the diagonal window. `Dense` is one range.
    fn key_ranges(&self, i: usize) -> [Range<usize>; 2] {
        match *self {
            PrefillPattern::Dense => [0..i + 1, i + 1..i + 1],
            PrefillPattern::AShape { init, local } => {
                let stripe = init.min(i + 1);
                [0..stripe, (i + 1).saturating_sub(local).max(stripe)..i + 1]
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

    /// Record a sparse row given its allowed key ranges and their
    /// probabilities; the dense scatter goes through one reusable scratch
    /// buffer instead of a fresh allocation per masked row.
    fn record_sparse(&mut self, row: usize, keys: [Range<usize>; 2], probs: &[f32], s_total: usize) {
        debug_assert_eq!(keys[0].len() + keys[1].len(), probs.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.resize(row + 1, 0.0);
        for (j, &p) in keys.into_iter().flatten().zip(probs.iter()) {
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
/// This is the one prefill kernel (see the module doc): lane-blocked scaled
/// dots over each row's one or two allowed key ranges, `softmax_inplace`,
/// then the value sum in ascending key order, register-tiled over four rows
/// for `Dense`; each row's probabilities go to the capture when there is
/// one. Every operation of a row depends only on that row and the capture
/// accumulates rows in ascending order, so a prompt split into chunks at
/// any boundaries produces the same output and capture bits as one
/// whole-prompt call, and capturing never changes the output. `s_total` is
/// the full prompt length (it anchors the capture's observation window,
/// which must not depend on chunking).
///
/// Panics if an `AShape` pattern has `local == 0`, which would leave rows
/// with no key (not even their own).
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
    if let PrefillPattern::AShape { local, .. } = pattern {
        assert!(local >= 1, "{pattern:?}: local must be >= 1 so every row attends its own key");
    }
    let mut out = Matrix::zeros(rows, dh);
    let mut cap = capture;
    if let Some(c) = cap.as_deref_mut() {
        c.prepare();
    }
    let call = PrefillCall { q, k, v, row_offset, s_total, pattern };
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 support verified at runtime by `use_avx2`.
        unsafe { prefill_avx2(&call, cap, &mut out) };
        return out;
    }
    prefill_baseline(&call, cap, &mut out);
    out
}

/// The checked inputs of one [`causal_attention`] call, shared by the
/// baseline and AVX2 clones.
struct PrefillCall<'a> {
    q: &'a Matrix,
    k: &'a Matrix,
    v: &'a Matrix,
    row_offset: usize,
    s_total: usize,
    pattern: PrefillPattern,
}

/// Keys `0..n` of `k` in lane blocks of `LANES` keys: block `b` is
/// `[[f32; LANES]; dh]`, element `[d][l]` = dimension `d` of key
/// `b·LANES + l`; lanes past `n` are zero (their scores are never read).
fn transpose_key_blocks(k: &Matrix, n: usize) -> Vec<f32> {
    let dh = k.cols();
    let mut kt = vec![0.0f32; n.div_ceil(LANES) * dh * LANES];
    for j in 0..n {
        let blk = &mut kt[(j / LANES) * dh * LANES..];
        for (d, &x) in k.row(j).iter().enumerate() {
            blk[d * LANES + j % LANES] = x;
        }
    }
    kt
}

/// Shared body: row tiles of [`ROW_TILE`], each in three passes — scores,
/// softmax + capture in ascending row order, value sum into `out`.
/// `score(q_row, block)` is the calling clone's lane kernel.
///
/// A row's buffer is indexed by key while it is scored: every lane block
/// that touches one of its key ranges is stored whole at its keys' slots,
/// then the window range is moved down behind the `init` stripe, so the
/// buffer holds exactly the allowed keys' scores in ascending key order.
#[inline(always)]
fn prefill_body(
    score: impl Fn(&[f32], &[f32]) -> [f32; LANES],
    call: &PrefillCall<'_>,
    mut cap: Option<&mut ScoreCapture>,
    out: &mut Matrix,
) {
    let PrefillCall { q, k, v, row_offset, s_total, pattern } = *call;
    let (rows, dh) = q.shape();
    let n_keys = row_offset + rows;
    let kt = transpose_key_blocks(k, n_keys);
    let blk_len = dh * LANES;
    let mut probs: [Vec<f32>; ROW_TILE] = std::array::from_fn(|_| vec![0.0; n_keys.div_ceil(LANES) * LANES]);
    let mut lens = [0usize; ROW_TILE];
    let mut r0 = 0;
    while r0 < rows {
        let tile = ROW_TILE.min(rows - r0);
        for t in 0..tile {
            let (qi, [stripe, window]) = (q.row(r0 + t), pattern.key_ranges(row_offset + r0 + t));
            let buf = &mut probs[t];
            for keys in [&stripe, &window] {
                if keys.is_empty() {
                    continue;
                }
                let (b0, b1) = (keys.start / LANES, keys.end.div_ceil(LANES));
                let blocks = kt[b0 * blk_len..b1 * blk_len].chunks_exact(blk_len);
                for (blk, dst) in blocks.zip(buf[b0 * LANES..b1 * LANES].chunks_exact_mut(LANES)) {
                    dst.copy_from_slice(&score(qi, blk));
                }
            }
            buf.copy_within(window.clone(), stripe.end);
            lens[t] = stripe.len() + window.len();
        }
        for t in 0..tile {
            let i = row_offset + r0 + t;
            let p = &mut probs[t][..lens[t]];
            softmax_inplace(p);
            if let Some(c) = cap.as_deref_mut() {
                if p.len() == i + 1 {
                    c.record(i, p, s_total);
                } else {
                    c.record_sparse(i, pattern.key_ranges(i), p, s_total);
                }
            }
        }
        if tile == ROW_TILE && pattern == PrefillPattern::Dense {
            accumulate_dense_tile(&probs, v, out, r0, row_offset + r0 + 1);
        } else {
            for t in 0..tile {
                let orow = out.row_mut(r0 + t);
                let keys = pattern.key_ranges(row_offset + r0 + t);
                for (j, &pj) in keys.into_iter().flatten().zip(probs[t][..lens[t]].iter()) {
                    axpy(orow, v.row(j), pj);
                }
            }
        }
        r0 += tile;
    }
}

/// Value sum of a full `Dense` tile: rows `r0 + t` attend keys
/// `0..n0 + t`. Output columns go in register strips of 16, 8, then 1.
#[inline(always)]
fn accumulate_dense_tile(probs: &[Vec<f32>; ROW_TILE], v: &Matrix, out: &mut Matrix, r0: usize, n0: usize) {
    let dh = v.cols();
    let mut c0 = 0;
    while c0 < dh {
        c0 += match dh - c0 {
            16.. => store_strip(out, r0, c0, accumulate_strip::<16>(probs, v, c0, n0)),
            8.. => store_strip(out, r0, c0, accumulate_strip::<8>(probs, v, c0, n0)),
            _ => store_strip(out, r0, c0, accumulate_strip::<1>(probs, v, c0, n0)),
        };
    }
}

/// Columns `c0..c0 + W` of a `Dense` tile's four output rows, held in
/// registers (returned by value; written in place they stay in memory):
/// `o[t][d] += p[t][j]·v[j][d]` for `j` ascending over the common prefix
/// `0..n0`, then each row's triangle tail `n0..n0 + t` — `axpy`'s
/// operations in `axpy`'s order, per element.
#[inline(always)]
fn accumulate_strip<const W: usize>(
    probs: &[Vec<f32>; ROW_TILE],
    v: &Matrix,
    c0: usize,
    n0: usize,
) -> [[f32; W]; ROW_TILE] {
    let dh = v.cols();
    let mut o = [[0.0f32; W]; ROW_TILE];
    let p: [&[f32]; ROW_TILE] = std::array::from_fn(|t| &probs[t][..n0]);
    for (j, vrow) in v.as_slice()[..n0 * dh].chunks_exact(dh).enumerate() {
        let vj: &[f32; W] = vrow[c0..c0 + W].try_into().expect("strip is W wide");
        for t in 0..ROW_TILE {
            let pt = p[t][j];
            for d in 0..W {
                o[t][d] += pt * vj[d];
            }
        }
    }
    for t in 1..ROW_TILE {
        for j in n0..n0 + t {
            let (pt, vj) = (probs[t][j], &v.row(j)[c0..c0 + W]);
            for d in 0..W {
                o[t][d] += pt * vj[d];
            }
        }
    }
    o
}

/// Write a strip from [`accumulate_strip`] into rows `r0..r0 + ROW_TILE`;
/// returns the strip width.
#[inline(always)]
fn store_strip<const W: usize>(out: &mut Matrix, r0: usize, c0: usize, o: [[f32; W]; ROW_TILE]) -> usize {
    for (t, row) in o.iter().enumerate() {
        out.row_mut(r0 + t)[c0..c0 + W].copy_from_slice(row);
    }
    W
}

/// Scaled scores of one query row against one lane block (`blk[d·LANES + l]`
/// = dimension `d` of key `l`). Lane `l` runs `dot`'s exact sequence: eight
/// accumulators `0.0 + q[m]·k[m]`, `+= q[8c+m]·k[8c+m]` per further chunk,
/// the `(((a0+a4) + (a1+a5)) + (a2+a6)) + (a3+a7)` reduction, the scalar tail
/// for `dh % 8`, then `· scale`.
#[inline(always)]
fn score_block(q: &[f32], blk: &[f32], scale: f32) -> [f32; LANES] {
    let (q_body, q_tail) = q.split_at(q.len() / 8 * 8);
    let (k_body, k_tail) = blk.split_at(q_body.len() * LANES);
    let mut acc = [[0.0f32; LANES]; 8];
    for (qc, kc) in q_body.chunks_exact(8).zip(k_body.chunks_exact(8 * LANES)) {
        for ((a, &qd), kd) in acc.iter_mut().zip(qc).zip(kc.chunks_exact(LANES)) {
            for l in 0..LANES {
                a[l] += qd * kd[l];
            }
        }
    }
    let mut s = [0.0f32; LANES];
    for l in 0..LANES {
        let a = |m: usize| acc[m][l];
        let mut x = (a(0) + a(4)) + (a(1) + a(5)) + (a(2) + a(6)) + (a(3) + a(7));
        for (&qd, kd) in q_tail.iter().zip(k_tail.chunks_exact(LANES)) {
            x += qd * kd[l];
        }
        s[l] = x * scale;
    }
    s
}

/// [`score_block`] in AVX2 intrinsics, one key per lane: the same IEEE
/// operations in the same order (`mul` then `add`, never FMA). LLVM's
/// autovectoriser turns the scalar lane loop into shuffles instead.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn score_block_avx2(q: &[f32], blk: &[f32], scale: f32) -> [f32; LANES] {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let (q_body, q_tail) = q.split_at(q.len() / 8 * 8);
    let (k_body, k_tail) = blk.split_at(q_body.len() * LANES);
    let term = |qd: f32, kd: &[f32]| -> __m256 {
        let kd: &[f32; LANES] = kd.try_into().expect("a lane row is LANES wide");
        // SAFETY: `kd` is a reference to exactly the 8 f32s the unaligned
        // load reads.
        _mm256_mul_ps(_mm256_set1_ps(qd), unsafe { _mm256_loadu_ps(kd.as_ptr()) })
    };
    let mut acc = [_mm256_setzero_ps(); 8];
    for (qc, kc) in q_body.chunks_exact(8).zip(k_body.chunks_exact(8 * LANES)) {
        for ((a, &qd), kd) in acc.iter_mut().zip(qc).zip(kc.chunks_exact(LANES)) {
            *a = _mm256_add_ps(*a, term(qd, kd));
        }
    }
    let add = |x, y| _mm256_add_ps(x, y);
    let mut x = add(
        add(add(add(acc[0], acc[4]), add(acc[1], acc[5])), add(acc[2], acc[6])),
        add(acc[3], acc[7]),
    );
    for (&qd, kd) in q_tail.iter().zip(k_tail.chunks_exact(LANES)) {
        x = add(x, term(qd, kd));
    }
    let mut s = [0.0f32; LANES];
    // SAFETY: `s` holds exactly the 8 f32s the unaligned store writes.
    unsafe { _mm256_storeu_ps(s.as_mut_ptr(), _mm256_mul_ps(x, _mm256_set1_ps(scale))) };
    s
}

#[inline(never)]
fn prefill_baseline(call: &PrefillCall<'_>, cap: Option<&mut ScoreCapture>, out: &mut Matrix) {
    let scale = 1.0 / (call.q.cols() as f32).sqrt();
    prefill_body(|q, blk| score_block(q, blk, scale), call, cap, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn prefill_avx2(call: &PrefillCall<'_>, cap: Option<&mut ScoreCapture>, out: &mut Matrix) {
    let scale = 1.0 / (call.q.cols() as f32).sqrt();
    prefill_body(|q, blk| score_block_avx2(q, blk, scale), call, cap, out);
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

    /// The plain per-row loop the blocked kernel must reproduce bit for bit:
    /// scaled `dot` over each allowed key in ascending order, one
    /// `softmax_inplace`, one `axpy` per allowed key, and the row's
    /// probabilities (scattered densely when masked) handed to the capture.
    fn reference_causal_attention(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        row_offset: usize,
        s_total: usize,
        pattern: PrefillPattern,
        mut cap: Option<&mut ScoreCapture>,
    ) -> Matrix {
        let (rows, dh) = q.shape();
        let scale = 1.0 / (dh as f32).sqrt();
        let mut out = Matrix::zeros(rows, dh);
        if let Some(c) = cap.as_deref_mut() {
            c.prepare();
        }
        for r in 0..rows {
            let i = row_offset + r;
            let allowed: Vec<usize> = (0..=i).filter(|&j| pattern.allows(i, j)).collect();
            let mut scores: Vec<f32> = allowed.iter().map(|&j| dot(q.row(r), k.row(j)) * scale).collect();
            softmax_inplace(&mut scores);
            let orow = out.row_mut(r);
            for (&j, &p) in allowed.iter().zip(scores.iter()) {
                axpy(orow, v.row(j), p);
            }
            if let Some(c) = cap.as_deref_mut() {
                let mut dense = vec![0.0; i + 1];
                for (&j, &p) in allowed.iter().zip(scores.iter()) {
                    dense[j] = p;
                }
                c.record(i, &dense, s_total);
            }
        }
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_capture(a: &ScoreCapture, b: &ScoreCapture, ctx: &str) {
        assert_eq!(bits(&a.accum), bits(&b.accum), "{ctx}: accum");
        assert_eq!(bits(&a.window_accum), bits(&b.window_accum), "{ctx}: window_accum");
        assert_eq!(a.samples.len(), b.samples.len(), "{ctx}: sample count");
        for ((ra, pa), (rb, pb)) in a.samples.iter().zip(b.samples.iter()) {
            assert_eq!((ra, bits(pa)), (rb, bits(pb)), "{ctx}: samples");
        }
    }

    /// `q`, `k`, `v` with signed zeros mixed in: some query rows all `+0.0`
    /// or all `-0.0`, and `v[r][0] = -0.0` for every fourth row, row 0
    /// included (a row that attends only key 0 must sum `0.0 + 1·(-0.0)`
    /// to `+0.0`); `q_scale` stretches the scores so the softmax tail
    /// underflows.
    fn edge_mats(s: usize, dh: usize, q_scale: f32, seed: u64) -> (Matrix, Matrix, Matrix) {
        let (mut q, k, mut v) = rand_mats(s, dh, seed);
        q.map_inplace(|x| x * q_scale);
        for r in 0..s {
            match r % 5 {
                1 => q.row_mut(r).fill(0.0),
                3 => q.row_mut(r).fill(-0.0),
                _ => {}
            }
            if r % 4 == 0 {
                v.row_mut(r)[0] = -0.0;
            }
        }
        (q, k, v)
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_the_reference_loop() {
        let patterns = [
            PrefillPattern::Dense,
            PrefillPattern::AShape { init: 0, local: 1 },
            PrefillPattern::AShape { init: 3, local: 2 },
            PrefillPattern::AShape { init: 4, local: 17 },
        ];
        for s in [1usize, 2, 7, 8, 9, 63, 64, 65, 130, 513] {
            for dh in [5usize, 8, 12, 16, 32] {
                for q_scale in [1.0f32, 40.0] {
                    let (q, k, v) = edge_mats(s, dh, q_scale, 0x5EED ^ (s * 64 + dh) as u64);
                    for pattern in patterns {
                        let new_cap = || {
                            let mut c = ScoreCapture::new(s, 5.min(s));
                            c.sample_rows = vec![s - 1, 0, s / 2];
                            c
                        };
                        let mut cap_ref = new_cap();
                        let want = reference_causal_attention(&q, &k, &v, 0, s, pattern, Some(&mut cap_ref));
                        for chunk in [s, 1, 3, 37] {
                            let ctx = format!("s={s} dh={dh} q×{q_scale} {pattern:?} chunk={chunk}");
                            let mut cap = new_cap();
                            let mut out = Vec::with_capacity(s * dh);
                            let mut done = 0;
                            while done < s {
                                let hi = (done + chunk).min(s);
                                let qc = q.slice_rows(done, hi);
                                let oc = causal_attention(&qc, &k, &v, done, s, pattern, Some(&mut cap));
                                out.extend_from_slice(oc.as_slice());
                                done = hi;
                            }
                            assert_eq!(bits(&out), bits(want.as_slice()), "{ctx}: outputs");
                            assert_same_capture(&cap, &cap_ref, &ctx);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_and_baseline_clones_are_bit_identical() {
        #[cfg(target_arch = "x86_64")]
        if use_avx2() {
            for (s, dh, pattern) in [
                (131usize, 16usize, PrefillPattern::Dense),
                (70, 32, PrefillPattern::Dense),
                (77, 12, PrefillPattern::AShape { init: 3, local: 9 }),
                (45, 5, PrefillPattern::Dense),
            ] {
                let (q, k, v) = edge_mats(s, dh, 3.0, 0xA5 + s as u64);
                let call = PrefillCall { q: &q, k: &k, v: &v, row_offset: 0, s_total: s, pattern };
                let run = |avx2: bool| {
                    let mut cap = ScoreCapture::new(s, 4);
                    cap.prepare();
                    let mut out = Matrix::zeros(s, dh);
                    if avx2 {
                        // SAFETY: the host supports AVX2 (checked above).
                        unsafe { prefill_avx2(&call, Some(&mut cap), &mut out) };
                    } else {
                        prefill_baseline(&call, Some(&mut cap), &mut out);
                    }
                    (out, cap)
                };
                let ((a, cap_a), (b, cap_b)) = (run(false), run(true));
                let ctx = format!("s={s} dh={dh} {pattern:?}");
                assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{ctx}: outputs");
                assert_same_capture(&cap_a, &cap_b, &ctx);
            }
        }
    }

    #[test]
    fn key_ranges_list_the_allowed_keys_in_ascending_order() {
        let mut patterns = vec![PrefillPattern::Dense];
        for init in 0..6 {
            for local in 1..7 {
                patterns.push(PrefillPattern::AShape { init, local });
            }
        }
        for pattern in patterns {
            for i in 0..20 {
                let from_ranges: Vec<usize> = pattern.key_ranges(i).into_iter().flatten().collect();
                let allowed: Vec<usize> = (0..=i).filter(|&j| pattern.allows(i, j)).collect();
                assert_eq!(from_ranges, allowed, "{pattern:?} row {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "local must be >= 1")]
    fn ashape_without_a_local_window_panics() {
        let (q, k, v) = rand_mats(4, 8, 9);
        let _ = causal_attention(&q, &k, &v, 0, 4, PrefillPattern::AShape { init: 2, local: 0 }, None);
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
