//! Asymmetric Distance Computation (ADC) for inner-product search.
//!
//! Decode-phase Step ❹: multiply the partitioned query against PQ centroids
//! once (`(m, 1, dm) × (m, dm, 2^b)` in the paper's shapes), producing a
//! lookup table; then every token's approximate attention logit is the sum of
//! `m` table entries addressed by its codes. This is O(2^b·dh + s·m) instead
//! of O(s·dh) for exact scores.

use crate::codebook::{PqCodebook, PqCodes, CODE_BLOCK};
use crate::ivf::IvfIndex;
use pqc_tensor::{dot, TopK};

/// Pre-computed per-query lookup table: `table[j][c]` is the inner product of
/// query sub-vector `j` with centroid `c` of sub-space `j`.
///
/// Alongside the raw table a **prefix-max** copy is kept (`prefmax[j][c]` =
/// max of `table[j][0..=c]`): combined with [`PqCodes`]' per-block max-code
/// tracking it upper-bounds the best achievable score of any token block in
/// O(m), which is what lets the fused score-and-select scan skip blocks that
/// cannot beat the running k-th-best threshold.
#[derive(Debug, Clone, Default)]
pub struct AdcTable {
    m: usize,
    k_c: usize,
    table: Vec<f32>,
    prefmax: Vec<f32>,
}

impl AdcTable {
    /// Build the table for one query vector.
    pub fn build(book: &PqCodebook, query: &[f32]) -> Self {
        let mut t = Self::default();
        t.rebuild(book, query);
        t
    }

    /// Rebuild in place for a new query, reusing the table buffer — the
    /// per-decode-step path allocates nothing after warm-up.
    pub fn rebuild(&mut self, book: &PqCodebook, query: &[f32]) {
        assert_eq!(query.len(), book.dh(), "query dimension mismatch");
        let m = book.config().m;
        let dm = book.dm();
        let k_c = book.centroids(0).rows();
        self.m = m;
        self.k_c = k_c;
        self.table.clear();
        self.table.reserve(m * k_c);
        self.prefmax.clear();
        self.prefmax.reserve(m * k_c);
        for j in 0..m {
            let sub = &query[j * dm..(j + 1) * dm];
            let cents = book.centroids(j);
            debug_assert_eq!(cents.rows(), k_c);
            let mut running = f32::NEG_INFINITY;
            for c in 0..k_c {
                let v = dot(sub, cents.row(c));
                self.table.push(v);
                running = running.max(v);
                self.prefmax.push(running);
            }
        }
    }

    /// Upper bound on the score of any token in block `blk` of `codes`:
    /// per column, no code in the block exceeds its tracked block max, so
    /// the prefix-max table entry at that code bounds the column's
    /// contribution. Summation mirrors the scan's association (sequential
    /// adds), and f32 addition is monotone, so the bound dominates every
    /// in-block score *as computed by the scan*, bit for bit.
    #[inline]
    fn block_score_bound(&self, codes: &PqCodes, blk: usize) -> f32 {
        let mut bound = 0.0f32;
        for j in 0..self.m {
            let c = codes.block_max_code(j, blk) as usize;
            bound += self.prefmax[j * self.k_c + c];
        }
        bound
    }

    /// Table entry for sub-space `j`, centroid `c`.
    #[inline]
    pub fn entry(&self, j: usize, c: usize) -> f32 {
        self.table[j * self.k_c + c]
    }

    /// Approximate inner product of the query with one token's codes.
    #[inline]
    pub fn score_token(&self, token_codes: &[u16]) -> f32 {
        debug_assert_eq!(token_codes.len(), self.m);
        let mut s = 0.0;
        for (j, &c) in token_codes.iter().enumerate() {
            s += self.entry(j, c as usize);
        }
        s
    }

    /// One bounds proof per column: every code in column `j` is
    /// ≤ max_code(j), so the per-element LUT lookups in the scans below
    /// cannot go out of bounds and can skip the per-access check.
    fn assert_codes_bounded(&self, codes: &PqCodes) {
        assert_eq!(codes.m(), self.m, "sub-space count mismatch");
        for j in 0..self.m {
            assert!(
                codes.is_empty() || (codes.max_code(j) as usize) < self.k_c,
                "code column {j} exceeds table width {}",
                self.k_c
            );
        }
    }

    /// Scores of the token range `[lo, hi)`, written into `out` (cleared
    /// first; `out[i]` scores token `lo + i`). Per-token accumulation order
    /// is identical to [`Self::score_token`], so any split of a scan into
    /// ranges is bit-identical to the whole-prefix scan.
    ///
    /// Callers must have validated code bounds via
    /// [`Self::assert_codes_bounded`] (the public entry points do).
    fn score_range_into(&self, codes: &PqCodes, lo: usize, hi: usize, out: &mut Vec<f32>) {
        debug_assert!(lo <= hi && hi <= codes.len());
        out.clear();
        if lo >= hi || self.m == 0 {
            out.resize(hi.saturating_sub(lo), 0.0);
            return;
        }
        let lut = |j: usize| &self.table[j * self.k_c..(j + 1) * self.k_c];
        let col = |j: usize| &codes.column(j)[lo..hi];
        // First pass *writes* (no zero-fill, no read-modify-write): one
        // column alone, or the first two columns fused.
        let mut j = if self.m == 1 {
            let r0 = lut(0);
            let c0 = col(0);
            // SAFETY: codes bounded by the max_code assertions above.
            out.extend(c0.iter().map(|&a| unsafe { *r0.get_unchecked(a as usize) }));
            1
        } else {
            let (r0, r1) = (lut(0), lut(1));
            let (c0, c1) = (col(0), col(1));
            // Two sequential adds keep f32 association identical to
            // `score_token` (bit-identical scores).
            // SAFETY: codes bounded by the max_code assertions above.
            out.extend(c0.iter().zip(c1.iter()).map(|(&a, &b)| unsafe {
                let t = *r0.get_unchecked(a as usize);
                t + *r1.get_unchecked(b as usize)
            }));
            2
        };
        // Remaining columns accumulate pairwise: half the passes over `out`,
        // still sequential adds per token for bit-identical association.
        while j + 1 < self.m {
            let (r0, r1) = (lut(j), lut(j + 1));
            let (c0, c1) = (col(j), col(j + 1));
            for ((s, &a), &b) in out.iter_mut().zip(c0.iter()).zip(c1.iter()) {
                // SAFETY: codes bounded by the max_code assertions above.
                unsafe {
                    *s += *r0.get_unchecked(a as usize);
                    *s += *r1.get_unchecked(b as usize);
                }
            }
            j += 2;
        }
        if j < self.m {
            let r0 = lut(j);
            let c0 = col(j);
            for (s, &a) in out.iter_mut().zip(c0.iter()) {
                // SAFETY: codes bounded by the max_code assertions above.
                *s += unsafe { *r0.get_unchecked(a as usize) };
            }
        }
    }

    /// Approximate inner products for all encoded tokens, in token order:
    /// the unfused reference the fused selection is tested against.
    ///
    /// Walks one contiguous SoA code column per sub-space — the 2^b-entry
    /// LUT row stays in L1 for the whole column and no per-token slice is
    /// materialised. Accumulation order per token matches
    /// [`Self::score_token`] (sub-space 0 first), so results are
    /// bit-identical to the scalar path.
    pub fn score_all(&self, codes: &PqCodes) -> Vec<f32> {
        self.assert_codes_bounded(codes);
        let mut out = Vec::with_capacity(codes.len());
        self.score_range_into(codes, 0, codes.len(), &mut out);
        out
    }

    /// Fused score-and-select over the first `n` tokens: stream the paired-
    /// column ADC scan in [`CODE_BLOCK`]-token blocks straight into a
    /// [`TopK`] stream, and once a running k-th-best threshold exists, skip
    /// whole blocks whose upper bound (`Self::block_score_bound`) cannot
    /// beat it — their scores are never materialised. Selected indices land
    /// in `out` (descending score, ties toward the smaller index).
    ///
    /// Returns the number of pruned blocks. The selected set is
    /// **bit-identical** to the unfused `top_k_indices` over the first `n`
    /// of [`Self::score_all`]'s scores: block scoring preserves the scan's
    /// per-token accumulation order, pruning only discards tokens that
    /// provably lose to the current k-th best (strictly on score, or on the
    /// ascending-index tie-break), and every selection path shares the same
    /// total order.
    pub fn score_and_select_into(
        &self,
        codes: &PqCodes,
        n: usize,
        k: usize,
        topk: &mut TopK,
        block_scores: &mut Vec<f32>,
        out: &mut Vec<usize>,
    ) -> usize {
        let n = n.min(codes.len());
        self.assert_codes_bounded(codes);
        let k = k.min(n);
        topk.stream_begin(k);
        if k == 0 {
            // Nothing can be selected: skip the scan entirely (the batch
            // selector's k = 0 early-out, streaming edition).
            topk.stream_finish_into(out);
            return 0;
        }
        let mut pruned = 0usize;
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + CODE_BLOCK).min(n);
            let blk = lo / CODE_BLOCK;
            if let Some(threshold) = topk.stream_threshold() {
                // Strict `<`: the threshold is the exact k-th-best score at
                // the selector's last compaction, so a block whose bound
                // falls strictly below it cannot contribute to the final
                // top-k (boundary ties are retained by the selector and
                // resolved by total order at finish; NaN bounds fail `<`
                // and never prune).
                if self.block_score_bound(codes, blk) < threshold {
                    pruned += 1;
                    lo = hi;
                    continue;
                }
            }
            self.score_range_into(codes, lo, hi, block_scores);
            // Bulk offer: the threshold reject loop runs tight inside the
            // selector (~one branch-predictable comparison per token), and
            // only survivors are appended as candidates.
            topk.stream_offer_block(block_scores, lo);
            lo = hi;
        }
        topk.stream_finish_into(out);
        pruned
    }

    /// IVF-routed fused score-and-select: score the coarse centroids, probe
    /// the `n_probe` best cells, and stream only those cells' SoA code
    /// columns through the [`TopK`] streaming selector — tokens outside the
    /// probed cells are never touched, so per-step ADC work is
    /// O(n_list·dh + s·m·n_probe/n_list) instead of O(s·m).
    ///
    /// Pruning composes with routing: inside a probed cell, whole
    /// [`CODE_BLOCK`]-blocks whose upper bound (`Self::block_score_bound`
    /// over the cell's own block-max codes) cannot beat the running
    /// k-th-best threshold are skipped, exactly as in the flat
    /// [`Self::score_and_select_into`]. Only tokens with id `< n` are
    /// offered (cell id lists ascend, so the eligible prefix is found by
    /// one binary search per cell).
    ///
    /// With `n_probe >= n_list` every cell is scanned, every eligible token
    /// is offered exactly once (cells partition the ids), and per-token
    /// scores come from the same `score_range_into` accumulation order as
    /// the flat scan — the selected set is **bit-identical** to
    /// [`Self::score_and_select_into`] (enforced by `tests/ivf_equivalence.rs`).
    #[allow(clippy::too_many_arguments)] // hot path: caller-owned scratch, no bundling
    pub fn score_and_select_ivf_into(
        &self,
        ivf: &IvfIndex,
        query: &[f32],
        n: usize,
        k: usize,
        n_probe: usize,
        topk: &mut TopK,
        scratch: &mut IvfScratch,
        block_scores: &mut Vec<f32>,
        out: &mut Vec<usize>,
    ) -> IvfSelectStats {
        let mut stats = IvfSelectStats::default();
        let eligible = n.min(ivf.len());
        let k = k.min(eligible);
        // Coarse routing through the shared O(n) selector, *before* the
        // stream opens (the batch and streaming modes share one TopK).
        ivf.score_cells_into(query, &mut scratch.coarse_scores);
        // `n_probe` is validated up front by the config layer
        // (`SessionConfig::validate` rejects 0 and > n_list with a typed
        // `ConfigError`); this saturation is defense-in-depth for direct
        // kernel callers only and is a no-op for validated inputs.
        let n_probe = n_probe.clamp(1, ivf.n_list().max(1));
        topk.select_into(&scratch.coarse_scores, n_probe, &mut scratch.cells);
        stats.probed_cells = scratch.cells.len();

        topk.stream_begin(k);
        if k == 0 {
            topk.stream_finish_into(out);
            return stats;
        }
        for &c in &scratch.cells {
            let (ids, codes) = ivf.cell(c);
            // Eligible prefix: ids ascend, so one partition point bounds
            // the scan (appended-but-not-yet-live tokens sit past it).
            let lim = ids.partition_point(|&id| (id as usize) < n);
            if lim == 0 {
                continue;
            }
            self.assert_codes_bounded(codes);
            let mut lo = 0usize;
            while lo < lim {
                let hi = (lo + CODE_BLOCK).min(lim);
                let blk = lo / CODE_BLOCK;
                if let Some(threshold) = topk.stream_threshold() {
                    // Same strict-`<` argument as the flat fused scan: the
                    // block bound covers every member (including any past
                    // `lim`), so a bound below the exact k-th-best excludes
                    // the whole block; NaN bounds fail `<` and never prune.
                    if self.block_score_bound(codes, blk) < threshold {
                        stats.pruned_blocks += 1;
                        lo = hi;
                        continue;
                    }
                }
                self.score_range_into(codes, lo, hi, block_scores);
                topk.stream_offer_indexed(block_scores, &ids[lo..hi]);
                stats.scanned_tokens += hi - lo;
                lo = hi;
            }
        }
        topk.stream_finish_into(out);
        stats
    }
}

/// Per-step counters from the IVF-routed fused scan — what the benchmark
/// (`pq.ivf_scan_frac`) and the tests read to show sublinear selection
/// cost (scanned tokens ≪ context) and that block pruning still composes
/// with routing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IvfSelectStats {
    /// Coarse cells actually probed.
    pub probed_cells: usize,
    /// Tokens whose scores were materialised (≤ the probed cells' members).
    pub scanned_tokens: usize,
    /// [`CODE_BLOCK`]-blocks inside probed cells skipped by the threshold
    /// bound.
    pub pruned_blocks: usize,
}

/// Reusable IVF-routing scratch: coarse-centroid scores and the probed-cell
/// index buffer. Lives inside [`PqRetriever`] (and therefore inside the
/// policies' shared `PolicyScratch`), so N serving sessions on a shard cost
/// one set of routing buffers.
#[derive(Debug, Default, Clone)]
pub struct IvfScratch {
    /// Inner products of the query with each coarse centroid.
    pub(crate) coarse_scores: Vec<f32>,
    /// Indices of the probed cells (coarse-score descending).
    pub(crate) cells: Vec<usize>,
}

impl IvfScratch {
    /// Total capacity of the routing buffers (allocation-stability tests).
    pub fn capacity(&self) -> usize {
        self.coarse_scores.capacity() + self.cells.capacity()
    }
}

/// Reusable decode-step retrieval state: ADC table, score buffer, top-k
/// selector, and IVF routing scratch. After the first call every
/// decode-step retrieval — table build, fused scan, selection — runs with
/// zero heap allocations.
#[derive(Debug, Default, Clone)]
pub struct PqRetriever {
    table: AdcTable,
    scores: Vec<f32>,
    topk: TopK,
    ivf: IvfScratch,
}

impl PqRetriever {
    /// A retriever with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fused decode-step retrieval (the serving hot path): rebuild the ADC
    /// table for `query`, then run [`AdcTable::score_and_select_into`] —
    /// the blocked scan streams straight into the selector, pruning blocks
    /// against the running k-th-best threshold, and the full score vector
    /// is never materialised (the score scratch holds one
    /// [`CODE_BLOCK`]-token block). Writes the indices of the `k` best of
    /// the first `n` tokens (descending score, ties toward the smaller
    /// index) into `out` and returns the number of pruned blocks. The
    /// engine bounds `n` by the live middle length, so the scan never
    /// touches the excess tail.
    pub fn score_and_select_into(
        &mut self,
        book: &PqCodebook,
        codes: &PqCodes,
        query: &[f32],
        n: usize,
        k: usize,
        out: &mut Vec<usize>,
    ) -> usize {
        self.table.rebuild(book, query);
        self.table
            .score_and_select_into(codes, n, k, &mut self.topk, &mut self.scores, out)
    }

    /// Fused IVF-routed decode-step retrieval: rebuild the ADC table for
    /// `query`, then run [`AdcTable::score_and_select_ivf_into`] — coarse
    /// routing plus a threshold-pruned scan over only the probed cells'
    /// code columns. Returns the routing stats. With `n_probe >= n_list`
    /// the selected set is bit-identical to [`Self::score_and_select_into`].
    #[allow(clippy::too_many_arguments)] // hot path: flat knobs, no bundling
    pub fn score_and_select_ivf_into(
        &mut self,
        book: &PqCodebook,
        ivf: &IvfIndex,
        query: &[f32],
        n: usize,
        k: usize,
        n_probe: usize,
        out: &mut Vec<usize>,
    ) -> IvfSelectStats {
        self.table.rebuild(book, query);
        self.table.score_and_select_ivf_into(
            ivf,
            query,
            n,
            k,
            n_probe,
            &mut self.topk,
            &mut self.ivf,
            &mut self.scores,
            out,
        )
    }

    /// Capacities of the internal scratch buffers `(table, scores, heap)` —
    /// exposed so tests can assert steady-state allocation stability. The
    /// table component covers both the raw LUT and its prefix-max copy; the
    /// heap component folds in the IVF routing buffers.
    pub fn scratch_capacities(&self) -> (usize, usize, usize) {
        (
            self.table.table.capacity() + self.table.prefmax.capacity(),
            self.scores.capacity(),
            self.topk.scratch_capacity() + self.ivf.capacity(),
        )
    }
}

/// Exact top-k over raw keys: the recall reference for this crate's tests.
#[cfg(test)]
pub(crate) fn exact_top_k(keys: &pqc_tensor::Matrix, query: &[f32], k: usize) -> Vec<usize> {
    let mut scores = Vec::with_capacity(keys.rows());
    for i in 0..keys.rows() {
        scores.push(dot(query, keys.row(i)));
    }
    pqc_tensor::top_k_indices(&scores, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::PqConfig;
    use pqc_tensor::{top_k_indices, topk_recall, Matrix, Rng64};

    /// The production selection path over every token: fused
    /// score-and-select through a fresh retriever.
    fn fused_top_k(book: &PqCodebook, codes: &PqCodes, q: &[f32], k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let _ = PqRetriever::new().score_and_select_into(book, codes, q, codes.len(), k, &mut out);
        out
    }

    fn setup(s: usize, dh: usize, m: usize, b: u32, seed: u64) -> (Matrix, PqCodebook, PqCodes) {
        let mut rng = Rng64::new(seed);
        let keys = Matrix::randn(s, dh, 1.0, &mut rng);
        let (book, codes) = PqCodebook::train(&keys, PqConfig { m, b, max_iters: 20, seed });
        (keys, book, codes)
    }

    #[test]
    fn adc_score_equals_dot_with_reconstruction() {
        // Core PQ invariant: ADC(q, codes_i) == <q, reconstruct(codes_i)>.
        let (_, book, codes) = setup(150, 16, 4, 4, 11);
        let mut rng = Rng64::new(99);
        let q: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let table = AdcTable::build(&book, &q);
        for i in 0..codes.len() {
            let approx = table.score_token(&codes.token(i));
            let rec = book.reconstruct(&codes.token(i));
            let exact_on_rec = dot(&q, &rec);
            assert!(
                (approx - exact_on_rec).abs() < 1e-4,
                "token {i}: {approx} vs {exact_on_rec}"
            );
        }
    }

    #[test]
    fn adc_approximates_exact_dot_within_tolerance() {
        // ADC against the *original* keys (not the reconstruction) is only
        // approximate; the quantization error must stay well below the score
        // scale for the paper's operating point (m=4, b=6) to make sense.
        let (keys, book, codes) = setup(400, 32, 4, 6, 13);
        let mut rng = Rng64::new(17);
        let q: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let table = AdcTable::build(&book, &q);

        let q_norm = dot(&q, &q).sqrt() as f64;
        let mut abs_err = 0.0f64;
        let mut abs_exact = 0.0f64;
        for i in 0..codes.len() {
            let approx = table.score_token(&codes.token(i)) as f64;
            let exact = dot(&q, keys.row(i)) as f64;
            let err = (approx - exact).abs();
            // Cauchy–Schwarz: |ADC - exact| = |<q, rec - k>| <= ||q||·||rec - k||.
            let rec = book.reconstruct(&codes.token(i));
            let bound = q_norm * (pqc_tensor::squared_l2(&rec, keys.row(i)) as f64).sqrt();
            assert!(err <= bound + 1e-3, "token {i}: err {err:.4} exceeds bound {bound:.4}");
            abs_err += err;
            abs_exact += exact.abs();
        }
        // And in aggregate the approximation must sit below the score scale
        // (deterministic fixtures: observed mae ≈ 0.62 × scale at m=4, b=6).
        let mae = abs_err / codes.len() as f64;
        let scale = abs_exact / codes.len() as f64;
        assert!(
            mae < 0.8 * scale,
            "ADC error too large: mae {mae:.4} vs score scale {scale:.4}"
        );
    }

    #[test]
    fn recall_improves_with_more_bits() {
        let mut rng = Rng64::new(21);
        let keys = Matrix::randn(500, 32, 1.0, &mut rng);
        let q: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let exact = exact_top_k(&keys, &q, 50);

        let mut recalls = Vec::new();
        for b in [2u32, 4, 6, 8] {
            let (book, codes) =
                PqCodebook::train(&keys, PqConfig { m: 4, b, max_iters: 20, seed: 5 });
            let approx = fused_top_k(&book, &codes, &q, 50);
            recalls.push(topk_recall(&exact, &approx));
        }
        // Not necessarily strictly monotone, but the trend must be clear.
        assert!(recalls[3] > recalls[0] + 0.1, "recalls {recalls:?}");
        assert!(recalls[3] > 0.6, "recalls {recalls:?}");
    }

    #[test]
    fn perfect_recall_when_centroids_exhaust_data() {
        // k_c >= s means every key can be its own centroid: exact search.
        let (keys, book, codes) = setup(30, 8, 1, 5, 31);
        let mut rng = Rng64::new(7);
        let q: Vec<f32> = (0..8).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let exact = exact_top_k(&keys, &q, 5);
        let approx = fused_top_k(&book, &codes, &q, 5);
        let recall = topk_recall(&exact, &approx);
        assert!(recall > 0.99, "recall {recall}");
    }

    #[test]
    fn score_all_length() {
        let (_, book, codes) = setup(64, 16, 2, 4, 41);
        let q = vec![0.5f32; 16];
        let t = AdcTable::build(&book, &q);
        assert_eq!(t.score_all(&codes).len(), 64);
    }

    #[test]
    fn zero_query_scores_zero() {
        let (_, book, codes) = setup(40, 16, 2, 4, 51);
        let q = vec![0.0f32; 16];
        let t = AdcTable::build(&book, &q);
        for s in t.score_all(&codes) {
            assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn top_k_deterministic() {
        let (_, book, codes) = setup(256, 32, 4, 6, 61);
        let q = vec![0.1f32; 32];
        assert_eq!(fused_top_k(&book, &codes, &q, 10), fused_top_k(&book, &codes, &q, 10));
    }

    #[test]
    fn fused_select_matches_unfused_across_blocks() {
        // Fixture larger than CODE_BLOCK so the fused scan spans several
        // blocks (and can prune): results must equal the unfused
        // scan+select pipeline exactly, for every (n, k) shape.
        let (_, book, codes) = setup(crate::CODE_BLOCK * 2 + 137, 16, 2, 4, 71);
        let mut rng = Rng64::new(72);
        let mut retriever = PqRetriever::new();
        for trial in 0..8 {
            let q: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            let scores = AdcTable::build(&book, &q).score_all(&codes);
            for &(n, k) in &[
                (codes.len(), 16usize),
                (codes.len(), 0),
                (codes.len(), codes.len()),
                (crate::CODE_BLOCK + 9, 5),
                (3, 8),
                (0, 4),
            ] {
                let unfused = top_k_indices(&scores[..n], k);
                let mut fused = Vec::new();
                let _ = retriever.score_and_select_into(&book, &codes, &q, n, k, &mut fused);
                assert_eq!(unfused, fused, "trial {trial}, n={n}, k={k}");
            }
        }
    }

    #[test]
    fn fused_select_prunes_cold_blocks() {
        // Construct codes whose later blocks can only reference centroid 0,
        // and a table where centroid 0 scores lowest: with k small, the
        // running threshold must exceed those blocks' bound and prune them.
        let s = crate::CODE_BLOCK * 3;
        let mut rng = Rng64::new(73);
        let keys = Matrix::randn(256, 8, 1.0, &mut rng);
        let (book, _) = PqCodebook::train(&keys, PqConfig { m: 1, b: 4, max_iters: 10, seed: 3 });
        let q: Vec<f32> = (0..8).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let table = AdcTable::build(&book, &q);
        let k_c = book.centroids(0).rows();
        // Centroid with the smallest table entry hosts the cold blocks.
        let cold = (0..k_c).min_by(|&a, &b| {
            table.entry(0, a).partial_cmp(&table.entry(0, b)).unwrap()
        }).unwrap() as u16;
        let col: Vec<u16> = (0..s)
            .map(|i| if i < crate::CODE_BLOCK { (i % k_c) as u16 } else { cold })
            .collect();
        let codes = PqCodes::from_columns(vec![col]);
        let mut topk = TopK::new();
        let (mut buf, mut fused) = (Vec::new(), Vec::new());
        let pruned = table.score_and_select_into(&codes, s, 4, &mut topk, &mut buf, &mut fused);
        assert_eq!(pruned, 2, "both cold blocks should be skipped");
        // And pruning must not have changed the answer.
        assert_eq!(fused, top_k_indices(&table.score_all(&codes), 4));
    }
}
