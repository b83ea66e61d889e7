//! Top-k selection.
//!
//! Decoding needs "indices of the k largest approximate scores" every step at
//! every layer/head (Algorithm 2, line 14). There is **one O(n) selector**, a
//! streaming compaction: offers strictly below a running k-th-best threshold
//! are rejected in a tight loop, survivors are appended to a candidate
//! buffer, and a quickselect compacts the buffer back to `k` (publishing an
//! exact new threshold) whenever it fills. The fused ADC scan feeds it block
//! by block; a plain score slice is one block. The result is
//! *bit-identical* to the argsort reference: score descending, ties toward
//! the smaller index, NaN ranked lowest.

use std::cmp::Ordering;

/// A `(score, index)` pair packed into one order-preserving `u64` key:
/// descending `u64` order is exactly "score descending (NaN lowest), ties
/// toward the smaller index". Selection, compaction, and the final sort all
/// become single-instruction integer comparisons.
///
/// Layout: `rank(score) << 32 | !index`.
///
/// - `rank` is the classic monotone f32→u32 bijection (flip all bits of
///   negatives, set the sign bit of non-negatives), so `rank(a) < rank(b)`
///   iff `a < b` for all non-NaN floats. `-0.0` is canonicalised to `+0.0`
///   first so the pair compares *equal* in rank (as `partial_cmp` does) and
///   falls through to the index tie-break. Every NaN maps to rank 0, below
///   `-inf` (whose rank is `0x007F_FFFF`), so NaN sorts lowest; no real
///   score maps to 0 (that preimage is itself a NaN pattern).
/// - `!index` makes the *smaller* index win ties under descending key
///   order, for scores and NaNs alike.
#[inline]
fn encode_key(score: f32, index: usize) -> u64 {
    debug_assert!(index <= u32::MAX as usize);
    let rank = if score.is_nan() {
        0u32
    } else {
        let bits = if score == 0.0 { 0u32 } else { score.to_bits() };
        if bits & 0x8000_0000 != 0 {
            !bits
        } else {
            bits | 0x8000_0000
        }
    };
    ((rank as u64) << 32) | (!(index as u32)) as u64
}

/// The index packed into a key.
#[inline]
fn decode_index(key: u64) -> usize {
    !(key as u32) as usize
}

/// The score packed into a key (NaN for the canonical NaN rank; `-0.0`
/// comes back as `+0.0`, which compares equal everywhere it is used).
#[inline]
fn decode_score(key: u64) -> f32 {
    let rank = (key >> 32) as u32;
    if rank == 0 {
        f32::NAN
    } else if rank & 0x8000_0000 != 0 {
        f32::from_bits(rank & 0x7FFF_FFFF)
    } else {
        f32::from_bits(!rank)
    }
}

/// Ceiling on the streaming candidate buffer. A larger buffer means fewer,
/// better-amortised compactions on long streams, at 8 bytes per slot.
const MAX_STREAM_CAP: usize = 4096;

/// First compaction trigger (when `2k` is smaller): a threshold published
/// after a few hundred offers lets short streams (decode-step selections
/// over a few thousand tokens) start rejecting early; the trigger then
/// doubles up to the ceiling so long streams still amortise.
const FIRST_STREAM_COMPACT: usize = 256;

/// Reusable top-k selector over owned scratch buffers, so steady-state decode
/// loops (one selection per layer/head per step) perform zero heap
/// allocations after warm-up.
///
/// A selection is [`TopK::stream_begin`] → any number of
/// [`TopK::stream_offer_block`] / [`TopK::stream_offer_indexed`] calls →
/// [`TopK::stream_finish_into`]. Offers below the running k-th-best score
/// are rejected in a tight loop; accepted offers are *appended* to an
/// unordered candidate buffer that is compacted back to `k` by quickselect
/// whenever it fills — amortised O(1) per offer, with none of the
/// per-accept sift cost a heap would pay.
/// [`TopK::select_into`] is that sequence over one score slice.
#[derive(Debug, Default, Clone)]
pub struct TopK {
    /// Candidate / quickselect storage: packed `(score, index)` keys, see
    /// [`encode_key`].
    entries: Vec<u64>,
    /// The open selection's `k`, set by [`TopK::stream_begin`]; 0 between
    /// selections.
    stream_k: usize,
    /// Next compaction trigger (escalates from [`FIRST_STREAM_COMPACT`]
    /// towards `max(2k, MAX_STREAM_CAP)` by doubling).
    stream_next: usize,
    /// Running k-th-best score, refreshed at each compaction: `Some(s)` once
    /// at least `k` offers have been compacted, `None` before that. It never
    /// exceeds the *current* k-th-best score, so an offer scoring strictly
    /// below it cannot enter the result; offers exactly at it are retained
    /// and resolved by total order at finish.
    stream_thr: Option<f32>,
}

impl TopK {
    /// An empty selector; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total capacity of the internal scratch buffers (for
    /// allocation-stability tests).
    pub fn scratch_capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Indices of the `k` largest scores written into `out` (cleared first),
    /// in descending score order with ties broken toward the smaller index —
    /// identical results to [`top_k_indices`] and to the
    /// [`argsort_desc`]-prefix reference. One stream over the whole slice.
    pub fn select_into(&mut self, scores: &[f32], k: usize, out: &mut Vec<usize>) {
        // This call opens and closes its own stream on the same buffers:
        // mid-stream, it would discard the open stream's candidates and
        // close it, so the caller's later offers would be dropped — a
        // silently wrong result. Catch the interleaving instead.
        debug_assert!(
            self.stream_k == 0,
            "select_into called while a streaming selection is in progress \
             (finish it with stream_finish_into first)"
        );
        self.stream_begin(k.min(scores.len()));
        self.stream_offer_block(scores, 0);
        self.stream_finish_into(out);
    }

    /// Start a streaming selection of the best `k` offers. Clears any
    /// previous streaming state.
    pub fn stream_begin(&mut self, k: usize) {
        self.stream_k = k;
        self.stream_next = (2 * k).max(FIRST_STREAM_COMPACT);
        self.stream_thr = None;
        self.entries.clear();
        // Reserve the worst case (the largest trigger the escalation can
        // reach) up front: how full the buffer actually gets between
        // compactions depends on the data, and reserving the ceiling keeps
        // the scratch capacity deterministic across calls.
        self.entries.reserve((2 * k).max(MAX_STREAM_CAP));
    }

    /// Trigger for the compaction *after* the one that just ran: double,
    /// capped at `max(2k, MAX_STREAM_CAP)`.
    #[inline]
    fn stream_advance_trigger(&mut self) {
        self.stream_next = (self.stream_next * 2).min((2 * self.stream_k).max(MAX_STREAM_CAP));
    }

    /// Offer one contiguous block of scores whose indices are
    /// `base_index..base_index + scores.len()`, used by the fused ADC scan
    /// and by [`TopK::select_into`]. The threshold reject loop runs tight
    /// over the slice (no per-token call), so the common all-rejected block
    /// costs ~one comparison per token. Any split of a score run into
    /// blocks makes the same accept/reject decisions.
    pub fn stream_offer_block(&mut self, scores: &[f32], base_index: usize) {
        assert!(
            scores.is_empty() || base_index + scores.len() - 1 <= u32::MAX as usize,
            "stream indices must fit in u32"
        );
        self.stream_offer_run(scores, |i| base_index + i);
    }

    /// Offer one block of scores whose indices are *arbitrary* (given by the
    /// parallel `indices` slice) — the inverted-list form of
    /// [`TopK::stream_offer_block`], used by the IVF-routed scan where a
    /// probed cell's tokens are scattered across the sequence. Same tight
    /// threshold reject loop, same accept/reject decisions as offering each
    /// `(scores[i], indices[i])` pair individually. Indices are `u32`
    /// (matching the packed-key width), so no overflow check is needed.
    pub fn stream_offer_indexed(&mut self, scores: &[f32], indices: &[u32]) {
        debug_assert_eq!(scores.len(), indices.len(), "score/index length mismatch");
        self.stream_offer_run(scores, |i| indices[i] as usize);
    }

    /// Shared body of the bulk offers: the tight threshold reject loop over
    /// a score run, with `index_of` mapping run position to token index
    /// (monomorphised per caller — no indirection on the hot path).
    #[inline]
    fn stream_offer_run(&mut self, scores: &[f32], index_of: impl Fn(usize) -> usize) {
        if self.stream_k == 0 {
            return;
        }
        let mut i = 0usize;
        while i < scores.len() {
            if let Some(t) = self.stream_thr {
                // Tight reject scan: `<` fails for NaN, which therefore
                // falls through to the candidate push like any survivor.
                while i < scores.len() && scores[i] < t {
                    i += 1;
                }
                if i >= scores.len() {
                    break;
                }
            }
            self.entries.push(encode_key(scores[i], index_of(i)));
            if self.entries.len() >= self.stream_next {
                self.stream_compact();
                self.stream_advance_trigger();
            }
            i += 1;
        }
    }

    /// Quickselect the candidate buffer back down to the best `k` and
    /// refresh the running threshold to the (exact) k-th-best score so far.
    fn stream_compact(&mut self) {
        let k = self.stream_k;
        if self.entries.len() > k {
            self.entries.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
            self.entries.truncate(k);
        }
        if self.entries.len() == k {
            self.stream_thr = Some(decode_score(self.entries[k - 1]));
        }
    }

    /// Finish the streaming selection: write the retained indices into `out`
    /// (cleared first), descending by score with ties toward the smaller
    /// index — the [`argsort_desc`] order.
    pub fn stream_finish_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        if self.stream_k == 0 {
            return;
        }
        self.stream_compact();
        // The key order is total, so the unstable (allocation-free) sort is
        // deterministic.
        self.entries.sort_unstable_by(|a, b| b.cmp(a));
        out.extend(self.entries.iter().map(|&e| decode_index(e)));
        self.stream_k = 0;
        self.stream_thr = None;
    }
}

/// Indices of the `k` largest scores, in descending score order.
///
/// If `k >= scores.len()` every index is returned (still sorted by score).
/// Ties are broken toward the smaller index. Allocating convenience wrapper
/// around [`TopK::select_into`].
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    TopK::new().select_into(scores, k, &mut out);
    out
}

/// Indices that would sort `scores` descending (stable for equal scores,
/// NaN ranked lowest) — the reference ordering the selector above must
/// reproduce exactly.
pub fn argsort_desc(scores: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        let (sa, sb) = (scores[a], scores[b]);
        match sb.partial_cmp(&sa) {
            Some(o) => o.then(a.cmp(&b)),
            // At least one NaN: NaN sorts after (below) every number; two
            // NaNs tie toward the smaller index.
            None => match (sa.is_nan(), sb.is_nan()) {
                (true, true) => a.cmp(&b),
                (true, false) => Ordering::Greater, // a ranks lower
                (false, true) => Ordering::Less,
                (false, false) => unreachable!("partial_cmp failed without NaN"),
            },
        }
    });
    idx
}

/// Recall of a predicted top-k set against the exact top-k set:
/// `|pred ∩ exact| / |exact|`. Returns 1.0 when `exact` is empty.
pub fn topk_recall(exact: &[usize], predicted: &[usize]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let set: std::collections::HashSet<usize> = predicted.iter().copied().collect();
    let hit = exact.iter().filter(|i| set.contains(i)).count();
    hit as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Block width of the fused ADC scan (`pqc_pq::CODE_BLOCK`): streams in
    /// the tests below are split where the scan splits them.
    const SCAN_BLOCK: usize = 512;

    /// `select_into`, and a stream offered in `SCAN_BLOCK`-sized blocks,
    /// both equal the `argsort_desc` prefix of length `min(k, n)`.
    fn assert_matches_argsort_prefix(scores: &[f32], k: usize, what: &str) {
        let expect: Vec<usize> = argsort_desc(scores).into_iter().take(k).collect();
        assert_eq!(top_k_indices(scores, k), expect, "select_into, {what}, k={k}");
        let mut topk = TopK::new();
        topk.stream_begin(k.min(scores.len()));
        for (b, block) in scores.chunks(SCAN_BLOCK).enumerate() {
            topk.stream_offer_block(block, b * SCAN_BLOCK);
        }
        let mut streamed = Vec::new();
        topk.stream_finish_into(&mut streamed);
        assert_eq!(streamed, expect, "blocked stream, {what}, k={k}");
    }

    #[test]
    fn topk_small_known() {
        let s = [0.1f32, 5.0, 3.0, 4.0, -1.0];
        assert_eq!(top_k_indices(&s, 3), vec![1, 3, 2]);
    }

    #[test]
    fn topk_k_zero_and_oversized() {
        let s = [1.0f32, 2.0];
        assert!(top_k_indices(&s, 0).is_empty());
        assert_eq!(top_k_indices(&s, 10), vec![1, 0]);
    }

    #[test]
    fn topk_ties_prefer_smaller_index() {
        let s = [2.0f32, 2.0, 2.0, 1.0];
        assert_eq!(top_k_indices(&s, 2), vec![0, 1]);
    }

    #[test]
    fn topk_matches_argsort_prefix() {
        let mut rng = Rng64::new(77);
        for _ in 0..20 {
            let n = 1 + rng.below(200);
            let scores: Vec<f32> = (0..n).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            let k = rng.below(n + 1);
            let fast = top_k_indices(&scores, k);
            let slow: Vec<usize> = argsort_desc(&scores).into_iter().take(k).collect();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn topk_threshold_path_matches_argsort_prefix() {
        // Large n, small to mid k: many compactions, each tightening the
        // running threshold that the reject loop then filters against.
        let mut rng = Rng64::new(78);
        for trial in 0..6 {
            let n = 4096 + rng.below(8192);
            let scores: Vec<f32> = (0..n).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            for k in [1usize, 16, 128, n / 5] {
                assert_matches_argsort_prefix(&scores, k, &format!("trial {trial}, n={n}"));
            }
        }
    }

    #[test]
    fn topk_duplicate_heavy_falls_back_exactly() {
        // Scores drawn from 3 distinct values: the running threshold lands
        // on a massive tie plateau, every offer at the threshold is kept,
        // and compaction must resolve the ties by index exactly.
        let mut rng = Rng64::new(79);
        let vals = [1.0f32, 2.0, 3.0];
        let scores: Vec<f32> = (0..5000).map(|_| vals[rng.below(3)]).collect();
        for k in [1usize, 100, 1700, 4999] {
            assert_matches_argsort_prefix(&scores, k, "3 values");
        }
    }

    #[test]
    fn select_into_reuses_buffers() {
        let mut rng = Rng64::new(91);
        let scores: Vec<f32> = (0..4096).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let mut topk = TopK::new();
        let mut out = Vec::new();
        topk.select_into(&scores, 128, &mut out);
        let caps = (topk.scratch_capacity(), out.capacity());
        for _ in 0..50 {
            topk.select_into(&scores, 128, &mut out);
            assert_eq!(out, top_k_indices(&scores, 128));
        }
        assert_eq!(caps, (topk.scratch_capacity(), out.capacity()));
    }

    #[test]
    fn topk_handles_nan_by_ranking_it_last() {
        let s = [1.0f32, f32::NAN, 2.0];
        assert_eq!(top_k_indices(&s, 2), vec![2, 0]);
        // All-NaN input: indices in ascending order (all tied at rank-lowest).
        let nans = [f32::NAN; 5];
        assert_eq!(top_k_indices(&nans, 3), vec![0, 1, 2]);
    }

    #[test]
    fn topk_nan_flood_large_n() {
        // Mostly-NaN input: NaN fails the reject loop's `<`, so it is kept
        // as a candidate and ranked lowest at compaction.
        let mut rng = Rng64::new(80);
        let scores: Vec<f32> = (0..8000)
            .map(|i| if i % 3 == 0 { rng.normal_f32(0.0, 1.0) } else { f32::NAN })
            .collect();
        for k in [1usize, 64, 500] {
            assert_matches_argsort_prefix(&scores, k, "2/3 NaN");
        }
    }

    #[test]
    fn select_and_blocked_stream_match_argsort_prefix() {
        let mut rng = Rng64::new(92);
        let mut inputs: Vec<(String, Vec<f32>)> = Vec::new();
        // Sizes from 1 to 4 096, three of them around 1 024, with a NaN
        // every 97th score.
        for n in [1usize, 50, 100, 1023, 1024, 1025, 3000, 4096] {
            let scores =
                (0..n).map(|i| if i % 97 == 0 { f32::NAN } else { rng.normal_f32(0.0, 1.0) }).collect();
            inputs.push((format!("normal n={n}"), scores));
        }
        // NaN floods: all NaN, and all but every 5th.
        inputs.push(("all NaN".into(), vec![f32::NAN; 1025]));
        let flood = (0..1025).map(|i| if i % 5 == 0 { rng.normal_f32(0.0, 1.0) } else { f32::NAN });
        inputs.push(("4/5 NaN".into(), flood.collect()));
        // The 4 096-value plateau of an m = 2, b = 6 ADC table: every token
        // scores one of the 64 × 64 sums `t0[a] + t1[b]`, so ties abound.
        let t0: Vec<f32> = (0..64).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let t1: Vec<f32> = (0..64).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let plateau = (0..3 * 4096 + 5).map(|_| t0[rng.below(64)] + t1[rng.below(64)]);
        inputs.push(("m=2 b=6 sums".into(), plateau.collect()));

        for (what, scores) in &inputs {
            let n = scores.len();
            let quarter = n / 4;
            let ks = [0, 1, 7, 128, quarter.saturating_sub(1), quarter, quarter + 1, n - 1, n, n + 3];
            for k in ks {
                assert_matches_argsort_prefix(scores, k, &format!("{what}, n={n}"));
            }
        }
    }

    #[test]
    fn stream_thr_is_kth_best() {
        // Offer ascending scores with k = 2: the first compaction fires at
        // FIRST_STREAM_COMPACT offers and must publish the exact 2nd-best
        // score seen so far.
        let mut topk = TopK::new();
        topk.stream_begin(2);
        assert_eq!(topk.stream_thr, None);
        for i in 0..FIRST_STREAM_COMPACT - 1 {
            topk.stream_offer_block(&[i as f32], i);
            assert_eq!(topk.stream_thr, None, "no compaction before trigger");
        }
        let last = FIRST_STREAM_COMPACT - 1;
        topk.stream_offer_block(&[last as f32], last);
        assert_eq!(topk.stream_thr, Some((last - 1) as f32));
        // Offers strictly below the threshold are dropped without growing
        // the candidate buffer.
        let len_before = topk.entries.len();
        topk.stream_offer_block(&[0.5], last + 1);
        assert_eq!(topk.entries.len(), len_before);
        // A new global best still enters and wins.
        topk.stream_offer_block(&[f32::INFINITY], last + 2);
        let mut out = Vec::new();
        topk.stream_finish_into(&mut out);
        assert_eq!(out, vec![last + 2, last]);
    }

    #[test]
    fn stream_offer_indexed_matches_batch_on_scattered_ids() {
        // Offer a permuted, gap-ridden index set in chunks: the result must
        // equal `select_into` over the scattered scores laid out densely
        // (same total order, NaNs included).
        let mut rng = Rng64::new(93);
        for &(n, k, chunk) in &[(1usize, 1usize, 1usize), (300, 17, 7), (4000, 256, 93)] {
            // Scattered ids: stride-3 with an offset, descending within
            // pairs so the offer order is not ascending.
            let ids: Vec<u32> = (0..n).map(|i| (i * 3 + (i % 2) * 7) as u32).collect();
            let scores: Vec<f32> = (0..n)
                .map(|i| if i % 41 == 0 { f32::NAN } else { rng.normal_f32(0.0, 1.0) })
                .collect();
            // Dense reference vector: position id -> score, others -inf
            // (never selected before any real candidate, and n >= k real
            // candidates always exist here).
            let max_id = *ids.iter().max().unwrap() as usize;
            let mut dense = vec![f32::NEG_INFINITY; max_id + 1];
            for (&id, &s) in ids.iter().zip(scores.iter()) {
                dense[id as usize] = s;
            }
            let mut topk = TopK::new();
            topk.stream_begin(k.min(n));
            for start in (0..n).step_by(chunk) {
                let end = (start + chunk).min(n);
                topk.stream_offer_indexed(&scores[start..end], &ids[start..end]);
            }
            let mut streamed = Vec::new();
            topk.stream_finish_into(&mut streamed);
            assert_eq!(streamed, top_k_indices(&dense, k.min(n)), "n={n}, k={k}");
        }
    }

    #[test]
    fn argsort_desc_stable() {
        let s = [1.0f32, 3.0, 1.0];
        assert_eq!(argsort_desc(&s), vec![1, 0, 2]);
    }

    #[test]
    fn recall_bounds() {
        assert_eq!(topk_recall(&[], &[1, 2]), 1.0);
        assert_eq!(topk_recall(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(topk_recall(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(topk_recall(&[1, 2, 3, 4], &[1, 2]), 0.5);
    }
}
