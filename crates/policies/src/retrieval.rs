//! Offloading/retrieval baselines: Oracle, SPARQ, InfLLM.
//!
//! These policies keep the full middle KVCache on the host and re-select
//! relevant tokens every decode step. They differ in the *proxy score* used
//! to avoid moving all keys across PCIe:
//!
//! - **Oracle**: exact inner products (an upper bound, not deployable — it
//!   would need all keys on device).
//! - **SPARQ**: inner products over the `r` largest-magnitude query
//!   dimensions; fetches those dimensions of *all* keys each step, which is
//!   the unoverlappable traffic that dooms its latency (Fig. 11b).
//! - **InfLLM**: block-level: each block of `B` tokens is represented by
//!   `r_rep` tokens; whole blocks are selected by representative score — the
//!   space-continuity assumption the paper shows hurts quality.

use crate::{group_query_into, PolicyContext, PolicyInit, PolicyScratch, SelectionPolicy};
use pqc_tensor::{dot, top_k_indices, Matrix, TopK};

/// No compression at all: every middle token is always selected (the
/// paper's "Full" column). The engine treats the budget as unlimited.
#[derive(Debug, Default)]
pub struct FullAttentionPolicy {
    middle_len: usize,
}

impl SelectionPolicy for FullAttentionPolicy {
    fn name(&self) -> &'static str {
        "Full"
    }

    fn init(&mut self, init: &PolicyInit) {
        self.middle_len = init.middle_len();
    }

    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        _scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(0..ctx.middle_len);
    }

    fn on_evict(&mut self, _layer: usize, _kv_head: usize, _key: &[f32], middle_idx: usize) {
        self.middle_len = self.middle_len.max(middle_idx + 1);
    }
}

/// Exact top-k selection over middle keys (the paper's "Ora" column).
#[derive(Debug, Default)]
pub struct OraclePolicy {
    /// `[layer][kv_head]` middle keys, grown by `on_evict`.
    keys: Vec<Vec<Matrix>>,
}

impl SelectionPolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn init(&mut self, init: &PolicyInit) {
        self.keys = init.middle_keys.clone();
    }

    /// Exact inner products over the first `n` middle keys.
    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        let keys = &self.keys[ctx.layer][ctx.kv_head];
        let PolicyScratch { q_buf, scores, topk, .. } = scratch;
        group_query_into(ctx.queries, q_buf);
        let n = keys.rows().min(ctx.middle_len);
        scores.clear();
        for i in 0..n {
            scores.push(dot(q_buf, keys.row(i)));
        }
        topk.select_into(scores, ctx.budget, out);
    }

    fn on_evict(&mut self, layer: usize, kv_head: usize, key: &[f32], _middle_idx: usize) {
        self.keys[layer][kv_head].push_row(key);
    }
}

/// SPARQ attention: score via the top-`r` absolute query dimensions.
#[derive(Debug)]
pub struct SparqPolicy {
    /// Number of query dimensions fetched (paper: r=1 for 1/128, r=2 for 1/64
    /// at d_h = 128).
    pub r: usize,
    keys: Vec<Vec<Matrix>>,
    /// Per-query dimension pick (tiny, d_h-sized).
    mags: Vec<f32>,
    dims: Vec<usize>,
}

impl SparqPolicy {
    /// SPARQ with `r` fetched dimensions.
    pub fn new(r: usize) -> Self {
        assert!(r >= 1, "SPARQ needs at least one dimension");
        Self { r, keys: Vec::new(), mags: Vec::new(), dims: Vec::new() }
    }

    /// The `r` for a communication fraction `f = r / d_h` (at least 1).
    pub fn for_comm_fraction(f: f64, dh: usize) -> Self {
        let r = ((f * dh as f64).round() as usize).max(1);
        Self::new(r)
    }
}

impl SelectionPolicy for SparqPolicy {
    fn name(&self) -> &'static str {
        "SPARQ"
    }

    fn init(&mut self, init: &PolicyInit) {
        self.keys = init.middle_keys.clone();
    }

    /// Pick the top-`r` absolute query dimensions, score the first `n`
    /// middle keys over those dimensions only, select. The one selector is
    /// used sequentially for the dimension pick and the final selection.
    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        let keys = &self.keys[ctx.layer][ctx.kv_head];
        let PolicyScratch { q_buf, scores, topk, .. } = scratch;
        group_query_into(ctx.queries, q_buf);
        self.mags.clear();
        self.mags.extend(q_buf.iter().map(|v| v.abs()));
        topk.select_into(&self.mags, self.r.min(q_buf.len()), &mut self.dims);
        let n = keys.rows().min(ctx.middle_len);
        scores.clear();
        for i in 0..n {
            let row = keys.row(i);
            let mut s = 0.0f32;
            for &d in &self.dims {
                s += q_buf[d] * row[d];
            }
            scores.push(s);
        }
        topk.select_into(scores, ctx.budget, out);
    }

    fn on_evict(&mut self, layer: usize, kv_head: usize, key: &[f32], _middle_idx: usize) {
        self.keys[layer][kv_head].push_row(key);
    }
}

/// InfLLM: contiguous blocks with representative tokens.
#[derive(Debug)]
pub struct InfLlmPolicy {
    /// Tokens per block.
    pub block_size: usize,
    /// Representatives per block.
    pub reps_per_block: usize,
    keys: Vec<Vec<Matrix>>,
    /// Representative indices per `[layer][kv_head][block]`.
    reps: Vec<Vec<Vec<Vec<usize>>>>,
    q_buf: Vec<f32>,
    block_scores: Vec<f32>,
    order: Vec<usize>,
    topk: TopK,
}

impl InfLlmPolicy {
    /// InfLLM with the given block geometry (paper: 128-token blocks, 1-2
    /// representatives for 1/128 and 1/64 comm budgets).
    pub fn new(block_size: usize, reps_per_block: usize) -> Self {
        assert!(block_size >= 1 && reps_per_block >= 1);
        Self {
            block_size,
            reps_per_block,
            keys: Vec::new(),
            reps: Vec::new(),
            q_buf: Vec::new(),
            block_scores: Vec::new(),
            order: Vec::new(),
            topk: TopK::new(),
        }
    }

    /// Representatives of one block: the `r` tokens with the largest key L2
    /// norm (InfLLM selects locally-significant tokens as block surrogates).
    fn block_reps(keys: &Matrix, lo: usize, hi: usize, r: usize) -> Vec<usize> {
        let norms: Vec<f32> = (lo..hi)
            .map(|i| keys.row(i).iter().map(|v| v * v).sum::<f32>())
            .collect();
        top_k_indices(&norms, r.min(norms.len()))
            .into_iter()
            .map(|off| lo + off)
            .collect()
    }

    fn rebuild_reps(&mut self, layer: usize, head: usize) {
        let keys = &self.keys[layer][head];
        let s = keys.rows();
        let nb = s.div_ceil(self.block_size);
        let mut out = Vec::with_capacity(nb);
        for b in 0..nb {
            let lo = b * self.block_size;
            let hi = ((b + 1) * self.block_size).min(s);
            out.push(Self::block_reps(keys, lo, hi, self.reps_per_block));
        }
        self.reps[layer][head] = out;
    }
}

impl Default for InfLlmPolicy {
    fn default() -> Self {
        Self::new(128, 1)
    }
}

impl SelectionPolicy for InfLlmPolicy {
    fn name(&self) -> &'static str {
        "InfLLM"
    }

    fn init(&mut self, init: &PolicyInit) {
        self.keys = init.middle_keys.clone();
        self.reps = vec![vec![Vec::new(); init.n_kv_heads]; init.n_layers];
        for l in 0..init.n_layers {
            for h in 0..init.n_kv_heads {
                self.rebuild_reps(l, h);
            }
        }
    }

    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        _scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        group_query_into(ctx.queries, &mut self.q_buf);
        let q = &self.q_buf;
        let keys = &self.keys[ctx.layer][ctx.kv_head];
        let reps = &self.reps[ctx.layer][ctx.kv_head];
        let n = keys.rows().min(ctx.middle_len);
        if n == 0 || ctx.budget == 0 {
            return;
        }
        // Score blocks by mean representative inner product.
        let nb = n.div_ceil(self.block_size);
        self.block_scores.clear();
        for rep_ids in reps.iter().take(nb) {
            let mut s = 0.0f32;
            let mut valid = 0usize;
            for &i in rep_ids.iter().filter(|&&i| i < n) {
                s += dot(q, keys.row(i));
                valid += 1;
            }
            self.block_scores.push(if valid == 0 { f32::NEG_INFINITY } else { s / valid as f32 });
        }
        // Select whole blocks until the token budget is exhausted.
        self.topk.select_into(&self.block_scores, nb, &mut self.order);
        for &b in &self.order {
            let lo = b * self.block_size;
            let hi = ((b + 1) * self.block_size).min(n);
            for i in lo..hi {
                if out.len() >= ctx.budget {
                    return;
                }
                out.push(i);
            }
        }
    }

    fn on_evict(&mut self, layer: usize, kv_head: usize, key: &[f32], _middle_idx: usize) {
        let keys = &mut self.keys[layer][kv_head];
        keys.push_row(key);
        // Only the last block's representatives can change.
        let s = keys.rows();
        let last = (s - 1) / self.block_size;
        let reps = Self::block_reps(keys, last * self.block_size, s, self.reps_per_block);
        let rv = &mut self.reps[layer][kv_head];
        if rv.len() <= last {
            rv.push(reps);
        } else {
            rv[last] = reps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{query_for, selected, synthetic_init};
    use pqc_tensor::{topk_recall, Rng64};

    #[test]
    fn oracle_finds_aligned_token() {
        let init = synthetic_init(2, 2, 60, 16, &[], 1);
        let mut p = OraclePolicy::default();
        p.init(&init);
        for &(l, h, t) in &[(0usize, 0usize, 7usize), (1, 1, 42)] {
            let q = query_for(&init, l, h, t);
            let ctx = PolicyContext { layer: l, kv_head: h, queries: &q, budget: 1, middle_len: 60 };
            assert_eq!(selected(&mut p, &ctx), vec![t]);
        }
    }

    #[test]
    fn oracle_on_evict_extends_search_space() {
        let init = synthetic_init(1, 1, 10, 8, &[], 2);
        let mut p = OraclePolicy::default();
        p.init(&init);
        let new_key = vec![5.0f32; 8];
        p.on_evict(0, 0, &new_key, 10);
        let mut q = Matrix::zeros(1, 8);
        q.copy_row_from(0, &new_key);
        let ctx = PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 1, middle_len: 11 };
        assert_eq!(selected(&mut p, &ctx), vec![10]);
    }

    #[test]
    fn sparq_approximates_oracle() {
        let mut rng = Rng64::new(3);
        let init = synthetic_init(1, 1, 300, 32, &[], 3);
        let mut oracle = OraclePolicy::default();
        let mut sparq_hi = SparqPolicy::new(16);
        let mut sparq_lo = SparqPolicy::new(1);
        oracle.init(&init);
        sparq_hi.init(&init);
        sparq_lo.init(&init);

        let mut rec_hi = 0.0;
        let mut rec_lo = 0.0;
        let trials = 20;
        for _ in 0..trials {
            let q = Matrix::randn(1, 32, 1.0, &mut rng);
            let mk = |queries| PolicyContext { layer: 0, kv_head: 0, queries, budget: 30, middle_len: 300 };
            let exact = selected(&mut oracle, &mk(&q));
            rec_hi += topk_recall(&exact, &selected(&mut sparq_hi, &mk(&q)));
            rec_lo += topk_recall(&exact, &selected(&mut sparq_lo, &mk(&q)));
        }
        rec_hi /= trials as f64;
        rec_lo /= trials as f64;
        assert!(rec_hi > rec_lo + 0.15, "hi {rec_hi} lo {rec_lo}");
        assert!(rec_hi > 0.6, "hi {rec_hi}");
    }

    #[test]
    fn sparq_for_comm_fraction_matches_paper() {
        // Paper: dh=128, 1/128 budget -> r=1; 1/64 -> r=2.
        assert_eq!(SparqPolicy::for_comm_fraction(1.0 / 128.0, 128).r, 1);
        assert_eq!(SparqPolicy::for_comm_fraction(1.0 / 64.0, 128).r, 2);
    }

    #[test]
    fn infllm_selects_whole_blocks() {
        let init = synthetic_init(1, 1, 64, 8, &[], 5);
        let mut p = InfLlmPolicy::new(8, 1);
        p.init(&init);
        let q = query_for(&init, 0, 0, 20); // token 20 lives in block 2
        let ctx = PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 8, middle_len: 64 };
        let sel = selected(&mut p, &ctx);
        assert_eq!(sel.len(), 8);
        // All from one contiguous block.
        let b0 = sel[0] / 8;
        assert!(sel.iter().all(|&i| i / 8 == b0), "{sel:?}");
    }

    #[test]
    fn infllm_misses_discretely_placed_token() {
        // The needle pathology: a single important token whose block
        // representative is some other (larger-norm) token. Make the needle
        // key small in norm but perfectly aligned with the query.
        let mut init = synthetic_init(1, 1, 64, 8, &[], 6);
        {
            let keys = &mut init.middle_keys[0][0];
            // Dimension 0 belongs exclusively to the needle.
            for i in 0..64 {
                keys.row_mut(i)[0] = 0.0;
            }
            let mut needle = vec![0.0f32; 8];
            needle[0] = 0.3; // small norm
            keys.copy_row_from(37, &needle);
            // Make its block-mates huge in norm but orthogonal to the query.
            for i in 32..40 {
                if i != 37 {
                    let mut big = vec![0.0f32; 8];
                    big[3] = 10.0;
                    keys.copy_row_from(i, &big);
                }
            }
        }
        let mut infllm = InfLlmPolicy::new(8, 1);
        let mut oracle = OraclePolicy::default();
        infllm.init(&init);
        oracle.init(&init);
        let mut q = Matrix::zeros(1, 8);
        q.set(0, 0, 5.0); // aligned with the needle only
        let mk = |queries| PolicyContext { layer: 0, kv_head: 0, queries, budget: 8, middle_len: 64 };
        assert!(selected(&mut oracle, &mk(&q)).contains(&37));
        assert!(!selected(&mut infllm, &mk(&q)).contains(&37), "block reps should hide the needle");
    }

    #[test]
    fn infllm_on_evict_updates_last_block() {
        let init = synthetic_init(1, 1, 16, 8, &[], 7);
        let mut p = InfLlmPolicy::new(8, 1);
        p.init(&init);
        // Append 3 tokens; a new (third) block appears.
        for i in 0..3 {
            let key = vec![i as f32 + 1.0; 8];
            p.on_evict(0, 0, &key, 16 + i);
        }
        assert_eq!(p.reps[0][0].len(), 3);
        // Aligned query must find the strongest appended token.
        let mut q = Matrix::zeros(1, 8);
        q.copy_row_from(0, &[1.0; 8]);
        let ctx = PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 3, middle_len: 19 };
        let sel = selected(&mut p, &ctx);
        assert!(sel.contains(&18), "{sel:?}");
    }

    #[test]
    fn oracle_and_sparq_shared_scratch_select_identically() {
        // The serve engine hands every session one worker-owned scratch;
        // through it, interleaved with each other, the raw-key retrieval
        // baselines must select exactly what a fresh scratch selects.
        let init = synthetic_init(1, 1, 220, 16, &[], 9);
        let mut oracle = OraclePolicy::default();
        let mut sparq = SparqPolicy::new(4);
        oracle.init(&init);
        sparq.init(&init);
        let mut shared = PolicyScratch::new();
        let mut rng = Rng64::new(10);
        for _ in 0..5 {
            let q = Matrix::randn(2, 16, 1.0, &mut rng);
            let mk = |queries| PolicyContext {
                layer: 0,
                kv_head: 0,
                queries,
                budget: 13,
                middle_len: 220,
            };
            for p in [&mut oracle as &mut dyn SelectionPolicy, &mut sparq] {
                let fresh = selected(p, &mk(&q));
                let mut ext = Vec::new();
                p.select_with_scratch(&mk(&q), &mut shared, &mut ext);
                assert_eq!(fresh, ext, "{}", p.name());
            }
        }
    }

    #[test]
    fn budget_zero_selects_nothing() {
        let init = synthetic_init(1, 1, 32, 8, &[], 8);
        let mut o = OraclePolicy::default();
        let mut i = InfLlmPolicy::new(8, 1);
        o.init(&init);
        i.init(&init);
        let q = Matrix::zeros(1, 8);
        let ctx = PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 0, middle_len: 32 };
        assert!(selected(&mut o, &ctx).is_empty());
        let ctx2 = PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 0, middle_len: 32 };
        assert!(selected(&mut i, &ctx2).is_empty());
    }
}
