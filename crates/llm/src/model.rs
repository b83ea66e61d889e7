//! The decoder-only transformer: prefill and decode forward passes.
//!
//! There is one layer body. Its dense half — RMSNorm → Q/K/V projections,
//! and output projection → residual → RMSNorm → FFN → residual — is written
//! once (`Model::project_qkv`, `Model::finish_layer`) and is row-local,
//! so a prompt chunk and a single decode row run the same operations bit for
//! bit. Only the attention operand differs: prefill rows attend causally
//! over the prompt's own keys ([`PrefillJob::advance`], which
//! [`Model::prefill`] drives in one whole-prompt chunk), a decode row
//! attends over whatever its [`KvSource`] gathers.
//!
//! The decode pass is parameterised over that [`KvSource`] — the hook through
//! which PQCache (and every baseline policy) injects *which* key-value pairs
//! each layer/kv-head attends to. A [`FullKvSource`] reference implementation
//! reproduces exact full attention; the invariant "selective attention with
//! an everything-budget equals full attention bit-for-bit" is tested against
//! it.

use crate::attention::{attend_selected_into, causal_attention, PrefillPattern, ScoreCapture};
use crate::config::LlmConfig;
use crate::rope::{apply_rope, apply_rope_rows};
use crate::weights::{rms_norm, rms_norm_rows, ModelWeights};
use pqc_tensor::{argmax, Matrix};

/// Per-layer KVCache: one `(s, d_h)` key and value matrix per kv head.
/// Keys are stored post-RoPE, exactly as a production KVCache would.
#[derive(Debug, Clone)]
pub struct LayerKv {
    /// Keys per kv head.
    pub keys: Vec<Matrix>,
    /// Values per kv head.
    pub values: Vec<Matrix>,
}

impl LayerKv {
    /// Token count stored (same across heads).
    pub fn len(&self) -> usize {
        self.keys.first().map_or(0, |k| k.rows())
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Options controlling the prefill pass.
#[derive(Debug, Clone)]
pub struct PrefillOptions {
    /// Attention pattern (dense, or MInference-style Λ-shape for Table 5).
    pub pattern: PrefillPattern,
    /// When `Some(w)`, capture H2O/SnapKV score statistics with observation
    /// window `w`.
    pub capture_window: Option<usize>,
    /// Query rows whose full attention distribution to record (Fig. 6).
    pub sample_rows: Vec<usize>,
    /// Parallelise across kv heads with scoped threads.
    pub parallel: bool,
}

impl Default for PrefillOptions {
    fn default() -> Self {
        Self {
            pattern: PrefillPattern::Dense,
            capture_window: None,
            sample_rows: Vec::new(),
            parallel: true,
        }
    }
}

/// Everything the prefill pass produces.
#[derive(Debug, Clone)]
pub struct PrefillOutput {
    /// Per-layer KVCache.
    pub kv: Vec<LayerKv>,
    /// Final-layer hidden state of the last token.
    pub last_hidden: Vec<f32>,
    /// Classifier logits of the last token.
    pub logits: Vec<f32>,
    /// Captured attention statistics, `[layer][kv_head]`, when requested.
    pub captures: Option<Vec<Vec<ScoreCapture>>>,
}

/// Decode-phase attention data provider.
///
/// The engine calls `publish` with the new token's roped key/value *before*
/// `gather` (Algorithm 2 lines 6-7: the fresh token joins the local window
/// and participates in its own attention).
pub trait KvSource {
    /// Record the new token's key/value for `(layer, kv_head)`.
    fn publish(&mut self, layer: usize, kv_head: usize, key: &[f32], value: &[f32]);

    /// Return the `(keys, values)` the group of queries should attend over,
    /// borrowed from the source: the full KV it holds, or an operand buffer
    /// it refills each call. `queries` has one row per query head in the kv
    /// head's GQA group.
    fn gather(&mut self, layer: usize, kv_head: usize, queries: &Matrix) -> (&Matrix, &Matrix);
}

/// Output of one decode step.
#[derive(Debug, Clone)]
pub struct DecodeOutput {
    /// Classifier logits for the next-token distribution.
    pub logits: Vec<f32>,
    /// Final-layer hidden state.
    pub hidden: Vec<f32>,
}

/// Reusable attention buffers for [`Model::decode_step_with_scratch`].
///
/// One instance per worker thread serves any number of sessions: the serving
/// layer's continuous batching hands the same scratch to every session it
/// steps, so steady-state decode performs no per-session attention
/// allocations. Buffer contents never carry state between calls — every
/// field is overwritten before use, which is what makes scratch sharing
/// bit-transparent.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Per-token attention scores over the gathered keys.
    attn_scores: Vec<f32>,
    /// One head's attention output (`d_h`).
    attn_out: Vec<f32>,
}

impl DecodeScratch {
    /// Empty scratch; buffers grow on first use and then stay warm.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current buffer capacities `(scores, out)` — exposed so tests can
    /// assert steady-state allocation stability across sessions.
    pub fn capacities(&self) -> (usize, usize) {
        (self.attn_scores.capacity(), self.attn_out.capacity())
    }
}

impl DecodeOutput {
    /// Greedy argmax token.
    pub fn greedy(&self) -> u32 {
        argmax(&self.logits) as u32
    }
}

/// The transformer model.
///
/// ```
/// use pqc_llm::{LlmConfig, Model, PrefillOptions};
///
/// let model = Model::new(LlmConfig::tiny());
/// let tokens: Vec<u32> = (0..32).map(|i| i % 100).collect();
/// let out = model.prefill(&tokens, &PrefillOptions::default());
/// assert_eq!(out.kv.len(), model.config().n_layers);
/// assert_eq!(out.kv[0].keys[0].shape(), (32, model.config().head_dim));
/// assert_eq!(out.logits.len(), model.config().vocab_size);
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    cfg: LlmConfig,
    weights: ModelWeights,
}

impl Model {
    /// Instantiate with deterministic weights from `cfg.seed`.
    pub fn new(cfg: LlmConfig) -> Self {
        cfg.validate();
        let weights = ModelWeights::generate(&cfg);
        Self { cfg, weights }
    }

    /// Model configuration.
    pub fn config(&self) -> &LlmConfig {
        &self.cfg
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.weights.param_count()
    }

    /// Embed a token sequence into `(s, d)`.
    pub fn embed(&self, tokens: &[u32]) -> Matrix {
        let d = self.cfg.d_model;
        let mut x = Matrix::zeros(tokens.len(), d);
        for (i, &t) in tokens.iter().enumerate() {
            assert!((t as usize) < self.cfg.vocab_size, "token {t} out of vocab");
            x.copy_row_from(i, self.weights.embedding.row(t as usize));
        }
        x
    }

    /// Tied classifier: logits of a hidden state.
    pub fn logits(&self, hidden: &[f32]) -> Vec<f32> {
        let normed = rms_norm(hidden);
        let v = self.cfg.vocab_size;
        let mut out = Vec::with_capacity(v);
        for t in 0..v {
            out.push(pqc_tensor::dot(&normed, self.weights.embedding.row(t)));
        }
        out
    }

    /// Full prefill over `tokens`. Computes every layer's KVCache, the last
    /// token's hidden state and logits, and optional attention captures —
    /// a [`PrefillJob`] advanced by one whole-prompt chunk.
    pub fn prefill(&self, tokens: &[u32], opts: &PrefillOptions) -> PrefillOutput {
        let mut job = self.begin_prefill(tokens, opts);
        job.advance(tokens.len());
        job.finish()
    }

    /// First dense half of layer `l` over the rows of `x`: RMSNorm, then the
    /// fused query/key/value projections `(rows, h·d_h)`, `(rows, h_kv·d_h)`
    /// ×2. Row-local, so a prompt chunk and a decode row share it bit for bit.
    fn project_qkv(&self, l: usize, x: &Matrix) -> (Matrix, Matrix, Matrix) {
        let w = &self.weights.layers[l];
        let xn = rms_norm_rows(x);
        (xn.matmul(&w.wq), xn.matmul(&w.wk), xn.matmul(&w.wv))
    }

    /// Second dense half of layer `l`: project the concatenated head outputs
    /// `attn` through `wo` into the residual stream `x`, then the ReLU FFN
    /// with its own RMSNorm and residual. Row-local like [`Self::project_qkv`].
    fn finish_layer(&self, l: usize, x: &mut Matrix, attn: &Matrix) {
        let w = &self.weights.layers[l];
        x.add_assign(&attn.matmul(&w.wo));
        let mut inner = rms_norm_rows(x).matmul(&w.w1);
        inner.map_inplace(|v| if v > 0.0 { v } else { 0.0 });
        x.add_assign(&inner.matmul(&w.w2));
    }

    /// One decode step for `token` at absolute position `pos`, attending
    /// through `source`. Allocates fresh attention scratch; hot loops should
    /// use [`Model::decode_step_with_scratch`].
    pub fn decode_step(&self, token: u32, pos: usize, source: &mut dyn KvSource) -> DecodeOutput {
        let mut scratch = DecodeScratch::new();
        self.decode_step_with_scratch(token, pos, source, &mut scratch)
    }

    /// [`Model::decode_step`] with caller-owned attention buffers, the
    /// serving hot path: one [`DecodeScratch`] per worker is reused across
    /// every session stepped on that worker. Bit-identical to
    /// [`Model::decode_step`].
    pub fn decode_step_with_scratch(
        &self,
        token: u32,
        pos: usize,
        source: &mut dyn KvSource,
        scratch: &mut DecodeScratch,
    ) -> DecodeOutput {
        let cfg = &self.cfg;
        let dh = cfg.head_dim;
        let group = cfg.group_size();
        let mut x = self.embed(&[token]);
        // Attention scratch shared across layers/heads within this step (and
        // across sessions, when the caller reuses `scratch`).
        let DecodeScratch { attn_scores, attn_out } = scratch;

        for l in 0..cfg.n_layers {
            // The new token's queries and keys, every head roped at `pos`.
            let (mut q_all, mut k_all, v_all) = self.project_qkv(l, &x);
            for head in q_all.row_mut(0).chunks_exact_mut(dh) {
                apply_rope(head, pos, cfg.rope_theta);
            }
            for head in k_all.row_mut(0).chunks_exact_mut(dh) {
                apply_rope(head, pos, cfg.rope_theta);
            }

            let mut concat = Matrix::zeros(1, cfg.n_heads * dh);
            for kvh in 0..cfg.n_kv_heads {
                let kv_cols = kvh * dh..(kvh + 1) * dh;
                source.publish(l, kvh, &k_all.row(0)[kv_cols.clone()], &v_all.row(0)[kv_cols]);

                // The kv head's GQA group of query heads is contiguous.
                let q_cols = kvh * group * dh..(kvh + 1) * group * dh;
                let queries = Matrix::from_vec(group, dh, q_all.row(0)[q_cols.clone()].to_vec());
                let (keys, values) = source.gather(l, kvh, &queries);
                for (g, out) in concat.row_mut(0)[q_cols].chunks_exact_mut(dh).enumerate() {
                    attend_selected_into(queries.row(g), keys, values, attn_scores, attn_out);
                    out.copy_from_slice(attn_out);
                }
            }
            self.finish_layer(l, &mut x, &concat);
        }

        let hidden = x.row(0).to_vec();
        let logits = self.logits(&hidden);
        DecodeOutput { logits, hidden }
    }

    /// Begin an incremental (chunked) prefill over `tokens`. The returned
    /// [`PrefillJob`] processes the prompt in caller-budgeted chunks via
    /// [`PrefillJob::advance`]; once done, [`PrefillJob::finish`] yields the
    /// [`PrefillOutput`]. Every chunk runs the one prefill kernel,
    /// [`causal_attention`]'s per-row two-pass sweep, against the keys stored
    /// so far, so the output is **bit-identical** (same logits, same KV rows,
    /// same capture statistics) for every chunk schedule, one whole-prompt
    /// chunk ([`Model::prefill`]) included — the property the SLO scheduler's
    /// chunked-prefill interleaving rests on — and capture is bit-transparent:
    /// `opts.capture_window` adds the statistics and changes no other bit.
    pub fn begin_prefill(&self, tokens: &[u32], opts: &PrefillOptions) -> PrefillJob<'_> {
        assert!(!tokens.is_empty(), "prefill needs at least one token");
        let cfg = &self.cfg;
        let s = tokens.len();
        let dh = cfg.head_dim;
        let kv = (0..cfg.n_layers)
            .map(|_| LayerKv {
                keys: vec![Matrix::zeros(s, dh); cfg.n_kv_heads],
                values: vec![Matrix::zeros(s, dh); cfg.n_kv_heads],
            })
            .collect();
        let captures = opts.capture_window.map(|win| {
            (0..cfg.n_layers)
                .map(|_| {
                    (0..cfg.n_kv_heads)
                        .map(|_| {
                            (0..cfg.group_size())
                                .map(|_| {
                                    let mut c = ScoreCapture::new(s, win.min(s));
                                    c.sample_rows = opts.sample_rows.clone();
                                    c
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect()
        });
        PrefillJob {
            model: self,
            tokens: tokens.to_vec(),
            opts: opts.clone(),
            pos: 0,
            kv,
            captures,
            last_hidden: Vec::new(),
        }
    }

    /// Reference generation with exact full attention: prefill then `steps`
    /// greedy decode steps. Returns the generated token ids.
    pub fn generate_full(&self, tokens: &[u32], steps: usize) -> Vec<u32> {
        let prefill = self.prefill(tokens, &PrefillOptions::default());
        let mut source = FullKvSource::from_prefill(&prefill);
        let mut out = Vec::with_capacity(steps);
        let mut next = argmax(&prefill.logits) as u32;
        for pos in tokens.len()..tokens.len() + steps {
            out.push(next);
            let dec = self.decode_step(next, pos, &mut source);
            next = dec.greedy();
        }
        out
    }
}

/// An in-flight chunked prefill (see [`Model::begin_prefill`]).
///
/// The transformer's prefill is row-local given the KV of earlier rows:
/// embeddings, RMSNorm, the QKV/output/FFN matmuls, and residual adds all
/// operate per row, RoPE depends only on a row's absolute position, and
/// causal attention for row `i` reads keys `0..=i` — which this job keeps
/// materialised across chunks. Each [`PrefillJob::advance`] therefore runs
/// exactly the operations a whole-prompt pass would have run for those
/// rows, in the same order, on the same inputs.
#[derive(Debug)]
pub struct PrefillJob<'m> {
    model: &'m Model,
    tokens: Vec<u32>,
    opts: PrefillOptions,
    /// Prompt rows completed so far.
    pos: usize,
    /// Per-layer KV, preallocated at `(s, d_h)` and filled progressively.
    kv: Vec<LayerKv>,
    /// Per-`[layer][kv_head][group_member]` captures, merged at finish.
    captures: Option<Vec<Vec<Vec<ScoreCapture>>>>,
    /// Final-layer hidden state of the last token (set by the final chunk).
    last_hidden: Vec<f32>,
}

impl PrefillJob<'_> {
    /// Prompt rows completed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every prompt row has been processed.
    pub fn is_done(&self) -> bool {
        self.pos == self.tokens.len()
    }

    /// Process up to `budget` further prompt rows (at least one) through
    /// every layer. Returns the number of rows processed (0 once done).
    pub fn advance(&mut self, budget: usize) -> usize {
        assert!(budget > 0, "chunk budget must be positive");
        if self.is_done() {
            return 0;
        }
        let model = self.model;
        let cfg = &model.cfg;
        let dh = cfg.head_dim;
        let group = cfg.group_size();
        let s = self.tokens.len();
        let c0 = self.pos;
        let c1 = c0.saturating_add(budget).min(s);

        let mut x = model.embed(&self.tokens[c0..c1]);
        for l in 0..cfg.n_layers {
            let (q_all, k_all, v_all) = model.project_qkv(l, &x);
            let mut q_heads: Vec<Matrix> =
                (0..cfg.n_heads).map(|h| slice_head(&q_all, h, dh)).collect();
            for q in q_heads.iter_mut() {
                apply_rope_rows(q, c0, cfg.rope_theta);
            }
            // Write the chunk's roped K and V rows into the stored KV at
            // their absolute offsets; attention then reads keys `0..=i`
            // from the store whatever the chunk boundaries were.
            for kvh in 0..cfg.n_kv_heads {
                let mut k_chunk = slice_head(&k_all, kvh, dh);
                apply_rope_rows(&mut k_chunk, c0, cfg.rope_theta);
                let v_chunk = slice_head(&v_all, kvh, dh);
                let lk = &mut self.kv[l];
                for r in 0..c1 - c0 {
                    lk.keys[kvh].row_mut(c0 + r).copy_from_slice(k_chunk.row(r));
                    lk.values[kvh].row_mut(c0 + r).copy_from_slice(v_chunk.row(r));
                }
            }

            // Attention per kv head against the stored prefix (each serves
            // `group` query heads, and each group member records into its
            // own capture, merged at `finish`).
            let layer_kv = &self.kv[l];
            let pattern = self.opts.pattern;
            let run_head = |kvh: usize, mut caps: Option<&mut Vec<ScoreCapture>>| -> Vec<Matrix> {
                (0..group)
                    .map(|g| {
                        let q = &q_heads[kvh * group + g];
                        let (k, v) = (&layer_kv.keys[kvh], &layer_kv.values[kvh]);
                        let cap = caps.as_deref_mut().map(|c| &mut c[g]);
                        causal_attention(q, k, v, c0, s, pattern, cap)
                    })
                    .collect()
            };

            // Per-kv-head capture refs, splittable across worker threads.
            let cap_refs: Vec<Option<&mut Vec<ScoreCapture>>> = match self.captures.as_mut() {
                Some(c) => c[l].iter_mut().map(Some).collect(),
                None => (0..cfg.n_kv_heads).map(|_| None).collect(),
            };
            let heads = cap_refs.into_iter().enumerate();
            let results: Vec<Vec<Matrix>> = if self.opts.parallel && cfg.n_kv_heads > 1 {
                std::thread::scope(|scope| {
                    let handles: Vec<_> =
                        heads.map(|(kvh, caps)| scope.spawn(move || run_head(kvh, caps))).collect();
                    handles.into_iter().map(|h| h.join().expect("head worker")).collect()
                })
            } else {
                heads.map(|(kvh, caps)| run_head(kvh, caps)).collect()
            };

            let mut concat = Matrix::zeros(c1 - c0, cfg.n_heads * dh);
            for (h, o) in results.iter().flatten().enumerate() {
                write_head(&mut concat, o, h, dh);
            }
            model.finish_layer(l, &mut x, &concat);
        }

        self.pos = c1;
        if c1 == s {
            self.last_hidden = x.row(c1 - c0 - 1).to_vec();
        }
        c1 - c0
    }

    /// Consume the finished job into a [`PrefillOutput`]. Panics unless
    /// every row was processed ([`PrefillJob::is_done`]).
    pub fn finish(self) -> PrefillOutput {
        assert!(self.is_done(), "finish() before the prompt was fully prefilled");
        // Each group member recorded into its own capture; the per-kv-head
        // capture the policies consume is their merge in ascending group
        // order, so capture bits do not depend on how prefill was chunked.
        let captures = self.captures.map(|layers| {
            layers
                .into_iter()
                .map(|heads| {
                    heads
                        .into_iter()
                        .map(|mut groups| {
                            let mut base = groups.remove(0);
                            for gc in &groups {
                                base.merge(gc);
                            }
                            base
                        })
                        .collect()
                })
                .collect()
        });
        let logits = self.model.logits(&self.last_hidden);
        PrefillOutput { kv: self.kv, last_hidden: self.last_hidden, logits, captures }
    }
}

/// Copy head `h`'s column block out of a fused `(s, n·d_h)` matrix.
pub fn slice_head(fused: &Matrix, h: usize, dh: usize) -> Matrix {
    let s = fused.rows();
    let mut out = Matrix::zeros(s, dh);
    for r in 0..s {
        out.row_mut(r).copy_from_slice(&fused.row(r)[h * dh..(h + 1) * dh]);
    }
    out
}

/// Write a head's `(s, d_h)` output into its column block of `fused`.
fn write_head(fused: &mut Matrix, head_out: &Matrix, h: usize, dh: usize) {
    for r in 0..head_out.rows() {
        fused.row_mut(r)[h * dh..(h + 1) * dh].copy_from_slice(head_out.row(r));
    }
}

/// Reference [`KvSource`]: keeps the entire KVCache and always returns all of
/// it — exact full attention.
#[derive(Debug, Clone)]
pub struct FullKvSource {
    kv: Vec<LayerKv>,
}

impl FullKvSource {
    /// Start from a prefill's KVCache.
    pub fn from_prefill(prefill: &PrefillOutput) -> Self {
        Self { kv: prefill.kv.clone() }
    }

    /// Start from an owned KVCache.
    pub fn new(kv: Vec<LayerKv>) -> Self {
        Self { kv }
    }

    /// Current stored length for a layer.
    pub fn len(&self, layer: usize) -> usize {
        self.kv[layer].len()
    }

    /// True when layer 0 holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.kv.first().is_none_or(|l| l.is_empty())
    }
}

impl KvSource for FullKvSource {
    fn publish(&mut self, layer: usize, kv_head: usize, key: &[f32], value: &[f32]) {
        let lk = &mut self.kv[layer];
        lk.keys[kv_head].push_row(key);
        lk.values[kv_head].push_row(value);
    }

    fn gather(&mut self, layer: usize, kv_head: usize, _queries: &Matrix) -> (&Matrix, &Matrix) {
        (&self.kv[layer].keys[kv_head], &self.kv[layer].values[kv_head])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = pqc_tensor::Rng64::new(seed);
        (0..n).map(|_| rng.below(200) as u32).collect()
    }

    #[test]
    fn prefill_shapes() {
        let model = Model::new(LlmConfig::tiny());
        let out = model.prefill(&toks(20, 1), &PrefillOptions::default());
        assert_eq!(out.kv.len(), 2);
        assert_eq!(out.kv[0].keys.len(), 2);
        assert_eq!(out.kv[0].keys[0].shape(), (20, 16));
        assert_eq!(out.last_hidden.len(), 64);
        assert_eq!(out.logits.len(), 256);
    }

    #[test]
    fn prefill_deterministic_and_parallel_consistent() {
        let model = Model::new(LlmConfig::tiny());
        let t = toks(24, 2);
        let par = model.prefill(&t, &PrefillOptions { parallel: true, ..Default::default() });
        let ser = model.prefill(&t, &PrefillOptions { parallel: false, ..Default::default() });
        assert_eq!(par.logits, ser.logits);
        assert_eq!(par.kv[1].keys[1], ser.kv[1].keys[1]);
    }

    #[test]
    fn hidden_states_bounded() {
        // RMSNorm + fan-in scaling must keep activations finite and O(1-ish).
        let model = Model::new(LlmConfig::small());
        let out = model.prefill(&toks(40, 3), &PrefillOptions::default());
        let norm: f32 =
            out.last_hidden.iter().map(|v| v * v).sum::<f32>() / out.last_hidden.len() as f32;
        assert!(norm.is_finite() && norm < 100.0, "rms² {norm}");
    }

    #[test]
    fn decode_with_full_source_matches_incremental_prefill() {
        // Prefill over n+1 tokens must equal prefill over n tokens followed
        // by one full-attention decode step of token n.
        let model = Model::new(LlmConfig::tiny());
        let t = toks(16, 4);
        let full = model.prefill(&t, &PrefillOptions::default());

        let prefix = &t[..15];
        let pre = model.prefill(prefix, &PrefillOptions::default());
        let mut src = FullKvSource::from_prefill(&pre);
        let dec = model.decode_step(t[15], 15, &mut src);

        for (a, b) in full.logits.iter().zip(dec.logits.iter()) {
            assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
        assert_eq!(argmax(&full.logits), argmax(&dec.logits));
    }

    #[test]
    fn publish_grows_source() {
        let model = Model::new(LlmConfig::tiny());
        let pre = model.prefill(&toks(8, 5), &PrefillOptions::default());
        let mut src = FullKvSource::from_prefill(&pre);
        assert_eq!(src.len(0), 8);
        let _ = model.decode_step(3, 8, &mut src);
        assert_eq!(src.len(0), 9);
        assert_eq!(src.len(1), 9);
    }

    #[test]
    fn decode_with_shared_scratch_is_bit_identical() {
        // One DecodeScratch serving two interleaved "sessions" must produce
        // the same bits as fresh-scratch decode_step — the property the
        // serve engine's per-shard scratch reuse rests on.
        let model = Model::new(LlmConfig::tiny());
        let pre_a = model.prefill(&toks(12, 10), &PrefillOptions::default());
        let pre_b = model.prefill(&toks(12, 11), &PrefillOptions::default());
        let mut fresh_a = FullKvSource::from_prefill(&pre_a);
        let mut fresh_b = FullKvSource::from_prefill(&pre_b);
        let mut shared_a = FullKvSource::from_prefill(&pre_a);
        let mut shared_b = FullKvSource::from_prefill(&pre_b);
        let mut scratch = DecodeScratch::new();
        for (step, pos) in (12..16).enumerate() {
            let t = (step * 31 % 200) as u32;
            let ra = model.decode_step(t, pos, &mut fresh_a);
            let rb = model.decode_step(t, pos, &mut fresh_b);
            // Interleave both sessions through one scratch.
            let sa = model.decode_step_with_scratch(t, pos, &mut shared_a, &mut scratch);
            let sb = model.decode_step_with_scratch(t, pos, &mut shared_b, &mut scratch);
            assert_eq!(ra.logits, sa.logits, "session a step {step}");
            assert_eq!(rb.logits, sb.logits, "session b step {step}");
            assert_eq!(ra.hidden, sa.hidden);
        }
        let (c_scores, c_out) = scratch.capacities();
        assert!(c_scores > 0 && c_out > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let model = Model::new(LlmConfig::tiny());
        let t = toks(12, 6);
        let a = model.generate_full(&t, 8);
        let b = model.generate_full(&t, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&x| (x as usize) < 256));
    }

    #[test]
    fn captures_present_when_requested() {
        let model = Model::new(LlmConfig::tiny());
        let out = model.prefill(
            &toks(10, 7),
            &PrefillOptions { capture_window: Some(4), ..Default::default() },
        );
        let caps = out.captures.expect("captures");
        assert_eq!(caps.len(), 2); // layers
        assert_eq!(caps[0].len(), 2); // kv heads
        // Each kv head accumulates mass from `group` query heads × s rows.
        let total: f32 = caps[0][0].accum.iter().sum();
        assert!((total - 2.0 * 10.0).abs() < 1e-3, "total {total}");
    }

    /// The independent reference every chunked-prefill comparison runs
    /// against: a straight-line, single-threaded, whole-prompt prefill that
    /// shares no layer code with [`PrefillJob`] — each op spelled out, one
    /// `causal_attention` call per query head over freshly built K/V.
    fn reference_prefill(model: &Model, tokens: &[u32], opts: &PrefillOptions) -> PrefillOutput {
        let cfg = &model.cfg;
        let (s, dh, group) = (tokens.len(), cfg.head_dim, cfg.group_size());
        let mut x = model.embed(tokens);
        let mut kv = Vec::new();
        let mut captures = opts.capture_window.map(|_| Vec::new());
        for w in &model.weights.layers {
            let xn = rms_norm_rows(&x);
            let (q_all, k_all, v_all) = (xn.matmul(&w.wq), xn.matmul(&w.wk), xn.matmul(&w.wv));
            let mut keys = Vec::new();
            let mut values = Vec::new();
            let mut layer_caps = Vec::new();
            let mut concat = Matrix::zeros(s, cfg.n_heads * dh);
            for kvh in 0..cfg.n_kv_heads {
                let mut k = slice_head(&k_all, kvh, dh);
                apply_rope_rows(&mut k, 0, cfg.rope_theta);
                let v = slice_head(&v_all, kvh, dh);
                // One capture per group member, merged in ascending order.
                let mut cap: Option<ScoreCapture> = None;
                for h in kvh * group..(kvh + 1) * group {
                    let mut q = slice_head(&q_all, h, dh);
                    apply_rope_rows(&mut q, 0, cfg.rope_theta);
                    let mut gcap = opts.capture_window.map(|win| {
                        let mut c = ScoreCapture::new(s, win.min(s));
                        c.sample_rows = opts.sample_rows.clone();
                        c
                    });
                    let out = causal_attention(&q, &k, &v, 0, s, opts.pattern, gcap.as_mut());
                    write_head(&mut concat, &out, h, dh);
                    if let Some(gc) = gcap {
                        match cap.as_mut() {
                            Some(c) => c.merge(&gc),
                            None => cap = Some(gc),
                        }
                    }
                }
                layer_caps.extend(cap);
                keys.push(k);
                values.push(v);
            }
            if let Some(caps) = captures.as_mut() {
                caps.push(layer_caps);
            }
            x.add_assign(&concat.matmul(&w.wo));
            let mut inner = rms_norm_rows(&x).matmul(&w.w1);
            inner.map_inplace(|v| if v > 0.0 { v } else { 0.0 });
            x.add_assign(&inner.matmul(&w.w2));
            kv.push(LayerKv { keys, values });
        }
        let last_hidden = x.row(s - 1).to_vec();
        let logits = model.logits(&last_hidden);
        PrefillOutput { kv, last_hidden, logits, captures }
    }

    /// Drive a PrefillJob to completion: call `i` advances by `budgets[i]`,
    /// the last budget repeating.
    fn run_chunked(
        model: &Model,
        t: &[u32],
        opts: &PrefillOptions,
        budgets: &[usize],
    ) -> PrefillOutput {
        let mut job = model.begin_prefill(t, opts);
        let mut budgets = budgets.iter().copied();
        let mut chunk = budgets.next().expect("at least one budget");
        while !job.is_done() {
            let before = job.pos();
            let n = job.advance(chunk);
            assert_eq!(job.pos(), before + n);
            assert!(n > 0);
            chunk = budgets.next().unwrap_or(chunk);
        }
        assert_eq!(job.advance(chunk), 0, "advance after done is a no-op");
        job.finish()
    }

    fn assert_prefill_bits_equal(a: &PrefillOutput, b: &PrefillOutput, tag: &str) {
        assert_eq!(a.logits, b.logits, "{tag}: logits");
        assert_eq!(a.last_hidden, b.last_hidden, "{tag}: last_hidden");
        for (l, (la, lb)) in a.kv.iter().zip(b.kv.iter()).enumerate() {
            assert_eq!(la.keys, lb.keys, "{tag}: layer {l} keys");
            assert_eq!(la.values, lb.values, "{tag}: layer {l} values");
        }
        let (ca, cb) = (a.captures.as_ref(), b.captures.as_ref());
        assert_eq!(ca.is_some(), cb.is_some(), "{tag}: capture presence");
        if let (Some(ca), Some(cb)) = (ca, cb) {
            for (l, (ha, hb)) in ca.iter().zip(cb.iter()).enumerate() {
                for (h, (xa, xb)) in ha.iter().zip(hb.iter()).enumerate() {
                    assert_eq!(xa.accum, xb.accum, "{tag}: capture accum l{l} h{h}");
                    assert_eq!(xa.window_accum, xb.window_accum, "{tag}: window l{l} h{h}");
                    assert_eq!(xa.samples, xb.samples, "{tag}: samples l{l} h{h}");
                }
            }
        }
    }

    #[test]
    fn chunked_prefill_is_bit_identical_to_monolithic_capture_prefill() {
        // The chunked-prefill contract: for every chunk budget — including 1
        // token, a budget larger than the prompt, uneven tails, and a
        // `usize::MAX` budget after a partial chunk — the job's logits, KV
        // rows, and capture statistics equal the capturing reference
        // prefill's bit for bit.
        let model = Model::new(LlmConfig::tiny());
        for s in [1usize, 5, 16, 33] {
            let t = toks(s, 0x11 + s as u64);
            let opts = PrefillOptions {
                capture_window: Some(8),
                sample_rows: vec![0, s - 1],
                parallel: false,
                ..Default::default()
            };
            let mono = reference_prefill(&model, &t, &opts);
            assert_prefill_bits_equal(&mono, &model.prefill(&t, &opts), &format!("s={s} prefill"));
            for budgets in [&[1usize][..], &[3], &[7], &[s], &[s + 10], &[3, usize::MAX]] {
                let chunked = run_chunked(&model, &t, &opts, budgets);
                assert_prefill_bits_equal(&mono, &chunked, &format!("s={s} budgets={budgets:?}"));
            }
        }
    }

    #[test]
    fn capturing_and_non_capturing_prefills_are_bit_identical() {
        // Capture is bit-transparent: with and without `capture_window`, a
        // whole-prompt prefill and chunked ones give the same logits,
        // `last_hidden` and KV, bit for bit, for dense and Λ-shaped
        // patterns and at lengths on both sides of one 64-key block.
        let model = Model::new(LlmConfig::tiny());
        for s in [1usize, 33, 64, 80, 130] {
            let t = toks(s, 0x33 + s as u64);
            // `None` is one whole-prompt chunk through `Model::prefill`.
            let run = |opts: &PrefillOptions, budget: Option<usize>| match budget {
                None => model.prefill(&t, opts),
                Some(b) => run_chunked(&model, &t, opts, &[b]),
            };
            for pattern in [PrefillPattern::Dense, PrefillPattern::AShape { init: 4, local: 8 }] {
                let off = PrefillOptions { pattern, parallel: false, ..Default::default() };
                let on = PrefillOptions { capture_window: Some(8), ..off.clone() };
                for budget in [None, Some(7), Some(s + 10)] {
                    let plain = run(&off, budget);
                    let captured = run(&on, budget);
                    assert!(plain.captures.is_none() && captured.captures.is_some());
                    let captured = PrefillOutput { captures: None, ..captured };
                    let tag = format!("s={s} {pattern:?} budget={budget:?}");
                    assert_prefill_bits_equal(&plain, &captured, &tag);
                }
            }
        }
    }

    #[test]
    fn chunked_prefill_head_parallel_matches_serial() {
        // Head-parallel chunk execution must not change bits: each (kv head,
        // group member) owns its outputs and captures.
        let model = Model::new(LlmConfig::tiny());
        let t = toks(24, 0x77);
        let base =
            PrefillOptions { capture_window: Some(6), parallel: false, ..Default::default() };
        let serial = run_chunked(&model, &t, &base, &[5]);
        let par = run_chunked(&model, &t, &PrefillOptions { parallel: true, ..base.clone() }, &[5]);
        assert_prefill_bits_equal(&serial, &par, "parallel vs serial chunked");
        // And both still equal the reference capture prefill.
        let mono = reference_prefill(&model, &t, &base);
        assert_prefill_bits_equal(&mono, &par, "mono vs parallel chunked");
    }

    #[test]
    fn chunked_prefill_sparse_pattern_matches_monolithic() {
        let model = Model::new(LlmConfig::tiny());
        let t = toks(20, 0x88);
        let opts = PrefillOptions {
            pattern: PrefillPattern::AShape { init: 2, local: 4 },
            capture_window: Some(4),
            parallel: false,
            ..Default::default()
        };
        let mono = reference_prefill(&model, &t, &opts);
        for chunk in [1usize, 4, 6, 20] {
            let chunked = run_chunked(&model, &t, &opts, &[chunk]);
            assert_prefill_bits_equal(&mono, &chunked, &format!("ashape chunk={chunk}"));
        }
    }

    #[test]
    #[should_panic(expected = "before the prompt was fully prefilled")]
    fn finishing_unfinished_job_panics() {
        let model = Model::new(LlmConfig::tiny());
        let mut job = model.begin_prefill(&toks(10, 1), &PrefillOptions::default());
        job.advance(4);
        let _ = job.finish();
    }

    #[test]
    fn different_prompts_different_logits() {
        let model = Model::new(LlmConfig::tiny());
        let a = model.prefill(&toks(10, 8), &PrefillOptions::default());
        let b = model.prefill(&toks(10, 9), &PrefillOptions::default());
        assert_ne!(argmax(&a.logits), usize::MAX); // trivial use
        assert!(a.logits.iter().zip(b.logits.iter()).any(|(x, y)| (x - y).abs() > 1e-3));
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn oversized_token_panics() {
        let model = Model::new(LlmConfig::tiny());
        let _ = model.embed(&[9999]);
    }
}
