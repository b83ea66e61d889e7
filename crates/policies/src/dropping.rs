//! KVCache-dropping baselines: StreamingLLM, H2O, SnapKV, PyramidKV.
//!
//! These methods decide *at prefill time* which middle tokens survive, based
//! on attention statistics, and never consult the host again. The paper's
//! "(C)" variants receive extra budget so their memory matches the retrieval
//! methods' tokens + transferred data; that compensation is applied by the
//! engine's budget computation, not here.

use crate::{PolicyContext, PolicyInit, PolicyScratch, SelectionPolicy};
use pqc_tensor::top_k_indices;

/// Shared machinery: a static per-(layer, head) ranking of middle tokens,
/// computed once from prefill statistics; selection takes the best `budget`.
#[derive(Debug, Default)]
struct StaticRanking {
    /// `[layer][kv_head]` -> middle indices sorted by descending importance.
    ranking: Vec<Vec<Vec<usize>>>,
}

impl StaticRanking {
    fn build(scores: &[Vec<Vec<f32>>], pool: usize) -> Self {
        let ranking = scores
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|head| {
                        let pooled = if pool > 1 { pool_scores(head, pool) } else { head.clone() };
                        top_k_indices(&pooled, pooled.len())
                    })
                    .collect()
            })
            .collect();
        Self { ranking }
    }

    fn select_into(&self, layer: usize, head: usize, budget: usize, middle_len: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.ranking[layer][head].iter().copied().filter(|&i| i < middle_len).take(budget),
        );
    }
}

/// 1-D mean pooling over the token axis (SnapKV §"pooling to preserve
/// surrounding information"): each token's score becomes the mean of a
/// centred window, so isolated spikes recruit their neighbourhood.
pub fn pool_scores(scores: &[f32], kernel: usize) -> Vec<f32> {
    assert!(kernel >= 1);
    let n = scores.len();
    let half = kernel / 2;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let sum: f32 = scores[lo..hi].iter().sum();
        out.push(sum / (hi - lo) as f32);
    }
    out
}

/// StreamingLLM / LM-Infinite: initial + local tokens only; drops the entire
/// middle region.
#[derive(Debug, Default)]
pub struct StreamingLlmPolicy;

impl SelectionPolicy for StreamingLlmPolicy {
    fn name(&self) -> &'static str {
        "StreamingLLM"
    }

    fn init(&mut self, _init: &PolicyInit) {}

    fn select_with_scratch(
        &mut self,
        _ctx: &PolicyContext<'_>,
        _scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
    }

    fn is_dropping(&self) -> bool {
        true
    }
}

/// H2O: keeps the "heavy hitters" — tokens with the largest attention mass
/// accumulated over *all* prefill query rows.
#[derive(Debug, Default)]
pub struct H2oPolicy {
    ranking: StaticRanking,
}

impl SelectionPolicy for H2oPolicy {
    fn name(&self) -> &'static str {
        "H2O"
    }

    fn init(&mut self, init: &PolicyInit) {
        let scores = init
            .accum_scores
            .as_ref()
            .expect("H2O requires prefill attention capture (capture_window)");
        self.ranking = StaticRanking::build(scores, 1);
    }

    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        _scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        self.ranking.select_into(ctx.layer, ctx.kv_head, ctx.budget, ctx.middle_len, out);
    }

    fn is_dropping(&self) -> bool {
        true
    }
}

/// SnapKV: ranks tokens by attention mass from the *last observation window*
/// of the prompt, smoothed with 1-D pooling.
#[derive(Debug)]
pub struct SnapKvPolicy {
    pool_kernel: usize,
    ranking: StaticRanking,
}

impl SnapKvPolicy {
    /// SnapKV with the given pooling kernel (paper-adjacent default: 7).
    pub fn new(pool_kernel: usize) -> Self {
        Self { pool_kernel, ranking: StaticRanking::default() }
    }
}

impl Default for SnapKvPolicy {
    fn default() -> Self {
        Self::new(7)
    }
}

impl SelectionPolicy for SnapKvPolicy {
    fn name(&self) -> &'static str {
        "SnapKV"
    }

    fn init(&mut self, init: &PolicyInit) {
        let scores = init
            .window_scores
            .as_ref()
            .expect("SnapKV requires prefill observation-window capture");
        self.ranking = StaticRanking::build(scores, self.pool_kernel);
    }

    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        _scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        self.ranking.select_into(ctx.layer, ctx.kv_head, ctx.budget, ctx.middle_len, out);
    }

    fn is_dropping(&self) -> bool {
        true
    }
}

/// PyramidKV: SnapKV's ranking with a *layer-wise budget pyramid* — lower
/// layers keep more tokens, higher layers fewer, with the same total budget.
#[derive(Debug)]
pub struct PyramidKvPolicy {
    pool_kernel: usize,
    n_layers: usize,
    ranking: StaticRanking,
}

impl PyramidKvPolicy {
    /// PyramidKV with the given pooling kernel.
    pub fn new(pool_kernel: usize) -> Self {
        Self { pool_kernel, n_layers: 0, ranking: StaticRanking::default() }
    }

    /// Per-layer budget multiplier: linear from 1.5 (layer 0) to 0.5 (last
    /// layer); averages exactly 1 so the total budget matches the uniform
    /// allocation.
    pub fn layer_multiplier(&self, layer: usize) -> f64 {
        if self.n_layers <= 1 {
            return 1.0;
        }
        let t = layer as f64 / (self.n_layers - 1) as f64;
        1.5 - t
    }
}

impl Default for PyramidKvPolicy {
    fn default() -> Self {
        Self::new(7)
    }
}

impl SelectionPolicy for PyramidKvPolicy {
    fn name(&self) -> &'static str {
        "PyramidKV"
    }

    fn init(&mut self, init: &PolicyInit) {
        let scores = init
            .window_scores
            .as_ref()
            .expect("PyramidKV requires prefill observation-window capture");
        self.n_layers = init.n_layers;
        self.ranking = StaticRanking::build(scores, self.pool_kernel);
    }

    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        _scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        let scaled = (ctx.budget as f64 * self.layer_multiplier(ctx.layer)).round() as usize;
        self.ranking.select_into(ctx.layer, ctx.kv_head, scaled, ctx.middle_len, out);
    }

    fn is_dropping(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{selected, synthetic_init};
    use pqc_tensor::Matrix;

    fn ctx(queries: &Matrix, layer: usize, budget: usize, middle_len: usize) -> PolicyContext<'_> {
        PolicyContext { layer, kv_head: 0, queries, budget, middle_len }
    }

    #[test]
    fn streaming_selects_nothing() {
        let init = synthetic_init(1, 1, 30, 8, &[2], 1);
        let mut p = StreamingLlmPolicy;
        p.init(&init);
        let q = Matrix::zeros(1, 8);
        assert!(selected(&mut p, &ctx(&q, 0, 10, 30)).is_empty());
        assert!(p.is_dropping());
    }

    #[test]
    fn h2o_keeps_heavy_hitters() {
        let hot = [3usize, 17, 25];
        let init = synthetic_init(2, 2, 40, 8, &hot, 2);
        let mut p = H2oPolicy::default();
        p.init(&init);
        let q = Matrix::zeros(1, 8);
        let sel = selected(&mut p, &ctx(&q, 0, 3, 40));
        let mut s = sel.clone();
        s.sort_unstable();
        assert_eq!(s, vec![3, 17, 25]);
    }

    #[test]
    fn h2o_static_across_queries() {
        let init = synthetic_init(1, 1, 40, 8, &[9, 30], 3);
        let mut p = H2oPolicy::default();
        p.init(&init);
        let q1 = crate::testutil::query_for(&init, 0, 0, 5);
        let q2 = crate::testutil::query_for(&init, 0, 0, 35);
        // Dropping: same set regardless of query — the paper's criticism.
        assert_eq!(selected(&mut p, &ctx(&q1, 0, 2, 40)), selected(&mut p, &ctx(&q2, 0, 2, 40)));
    }

    #[test]
    fn snapkv_uses_window_scores_with_pooling() {
        let hot = [20usize];
        let init = synthetic_init(1, 1, 50, 8, &hot, 4);
        let mut p = SnapKvPolicy::new(5);
        p.init(&init);
        let q = Matrix::zeros(1, 8);
        let sel = selected(&mut p, &ctx(&q, 0, 5, 50));
        // Pooling recruits the hot token's neighbourhood.
        assert!(sel.contains(&20));
        assert!(sel.iter().all(|&i| (18..=22).contains(&i)), "{sel:?}");
    }

    #[test]
    fn pooling_mean_window() {
        let s = [0.0f32, 0.0, 9.0, 0.0, 0.0];
        let p = pool_scores(&s, 3);
        assert_eq!(p, vec![0.0, 3.0, 3.0, 3.0, 0.0]);
        // kernel 1 = identity
        assert_eq!(pool_scores(&s, 1), s.to_vec());
    }

    #[test]
    fn pyramid_budget_decreasing_in_depth() {
        let init = synthetic_init(4, 1, 60, 8, &[1, 2, 3, 4, 5, 6, 7, 8], 5);
        let mut p = PyramidKvPolicy::default();
        p.init(&init);
        let q = Matrix::zeros(1, 8);
        let low = selected(&mut p, &ctx(&q, 0, 8, 60)).len();
        let high = selected(&mut p, &ctx(&q, 3, 8, 60)).len();
        assert!(low > high, "low {low} high {high}");
        // Multipliers average 1.
        let avg: f64 = (0..4).map(|l| p.layer_multiplier(l)).sum::<f64>() / 4.0;
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn selection_respects_middle_len_bound() {
        let init = synthetic_init(1, 1, 40, 8, &[39], 6);
        let mut p = H2oPolicy::default();
        p.init(&init);
        let q = Matrix::zeros(1, 8);
        // Pretend middle only has 20 tokens: index 39 must not appear.
        let sel = selected(&mut p, &ctx(&q, 0, 10, 20));
        assert!(sel.iter().all(|&i| i < 20));
    }
}
