//! # pqc-policies
//!
//! Selective-attention policies: the paper's baselines and PQCache itself,
//! behind one [`SelectionPolicy`] trait.
//!
//! The KVCache is segmented into **initial**, **middle**, and **local**
//! tokens (paper §3.4). Initial and local tokens always participate in
//! attention; a policy's job is to pick which *middle* tokens join them,
//! given the current decode query and a token budget. Policies fall into two
//! families:
//!
//! - **Dropping** (H2O, SnapKV, PyramidKV, StreamingLLM): commit to a fixed
//!   kept set at prefill time using attention statistics; anything dropped is
//!   gone for every later step — the failure mode the paper targets.
//! - **Offloading / retrieval** (Oracle, SPARQ, InfLLM, PQCache): keep
//!   everything on the host and re-select per step, paying communication.
//!
//! Every policy reports its per-step communication so comm-budget-matched
//! comparisons (§4.1.3) are honest.

#![warn(missing_docs)]

pub mod dropping;
pub mod pqcache;
pub mod retrieval;

use pqc_pq::PqRetriever;
use pqc_tensor::{Matrix, TopK};
use std::any::Any;
use std::sync::Arc;

pub use dropping::{H2oPolicy, PyramidKvPolicy, SnapKvPolicy, StreamingLlmPolicy};
pub use pqc_pq::IvfMode;
pub use pqcache::{PqCachePolicy, PqCachePolicyConfig};
pub use retrieval::{FullAttentionPolicy, InfLlmPolicy, OraclePolicy, SparqPolicy};

/// A runtime effort override for retrieval-based selection — the serving
/// layer's brownout knob.
///
/// The paper's quality/compute tradeoff (IVF `n_probe` and selection
/// budget `k` trade recall for scan work) is normally fixed at
/// construction time. `SelectionEffort` makes it a *per-step* control
/// surface: an overload controller dials effort down on low-priority
/// sessions while pressure lasts and restores it when pressure clears,
/// without touching trained state.
///
/// Semantics:
/// - `k_frac` scales the selection budget `k` (the number of middle
///   tokens fetched per step). `1.0` = full budget. Degraded budgets are
///   floored at 1 so selection never collapses to nothing.
/// - `max_n_probe` caps IVF coarse-cell probes (`None` = the policy's
///   configured probe width). Exact-mode policies ignore it.
///
/// [`SelectionEffort::full`] is the identity: policies must behave
/// **bit-identically** to a build without effort plumbing when effort is
/// full — the degraded code paths are skipped entirely, not evaluated at
/// a neutral setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionEffort {
    /// Budget multiplier in `(0, 1]`; `1.0` = full effort.
    pub k_frac: f64,
    /// Cap on IVF probe width; `None` = the configured `n_probe`.
    pub max_n_probe: Option<usize>,
}

impl SelectionEffort {
    /// Full effort: the identity override.
    pub const fn full() -> Self {
        Self { k_frac: 1.0, max_n_probe: None }
    }

    /// Whether this override changes nothing.
    pub fn is_full(&self) -> bool {
        self.k_frac >= 1.0 && self.max_n_probe.is_none()
    }

    /// Effective selection budget for a nominal `k`. Full effort returns
    /// `k` untouched (no float math on the identity path); degraded
    /// effort floors at 1 whenever `k > 0`.
    pub fn effective_k(&self, k: usize) -> usize {
        if self.k_frac >= 1.0 || k == 0 {
            return k;
        }
        (((k as f64) * self.k_frac).floor() as usize).clamp(1, k)
    }

    /// Effective probe width for a nominal `n_probe`. Full effort returns
    /// it untouched; a cap floors at 1.
    pub fn effective_n_probe(&self, n_probe: usize) -> usize {
        match self.max_n_probe {
            Some(cap) => n_probe.min(cap).max(1),
            None => n_probe,
        }
    }
}

impl Default for SelectionEffort {
    fn default() -> Self {
        Self::full()
    }
}

/// An opaque, cheaply-cloneable snapshot of a policy's trained prefix
/// state, shareable across sessions with the same prompt prefix.
///
/// Exported by [`SelectionPolicy::export_shared`] right after `init` and
/// stored (by the serving layer) in the KV tier's prefix registry; a later
/// session with the same prompt hands it to
/// [`SelectionPolicy::import_shared`], which adopts the trained state —
/// PQCache's codebooks, per-token codes, and IVF tiers — instead of
/// re-running k-means over the shared middle keys. Because training is
/// deterministically seeded, an imported snapshot is bit-identical to
/// retraining, so sharing never changes results — only skips work.
///
/// The inner value is policy-specific; `import_shared` downcasts and
/// returns `false` on any mismatch (different policy, different config), in
/// which case the caller falls back to a normal `init`.
#[derive(Clone)]
pub struct SharedPolicyState {
    policy: &'static str,
    state: Arc<dyn Any + Send + Sync>,
}

impl SharedPolicyState {
    /// Wrap a policy's snapshot. `policy` is the exporting policy's
    /// [`SelectionPolicy::name`].
    pub fn new(policy: &'static str, state: Arc<dyn Any + Send + Sync>) -> Self {
        Self { policy, state }
    }

    /// Name of the policy that exported this state.
    pub fn policy(&self) -> &'static str {
        self.policy
    }

    /// The opaque snapshot, for the owning policy to downcast.
    pub fn state(&self) -> &Arc<dyn Any + Send + Sync> {
        &self.state
    }
}

impl std::fmt::Debug for SharedPolicyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPolicyState").field("policy", &self.policy).finish()
    }
}

/// Reusable per-step selection scratch, owned by the *caller* rather than
/// the policy.
///
/// A single-session engine keeps one of these per session; the serving
/// layer keeps one per worker thread and hands it to every session it
/// steps, so N concurrent sessions cost one set of retrieval buffers
/// instead of N. Contents are rebuilt from scratch on every call — sharing
/// is bit-transparent.
#[derive(Debug, Default)]
pub struct PolicyScratch {
    /// ADC table + blocked fused-scan score buffer + top-k selector + IVF
    /// routing buffers (PQCache routes its per-step retrieval through
    /// `PqRetriever::score_and_select_into`, or
    /// `score_and_select_ivf_into` under `IvfMode::Probe`, on this — so N
    /// sessions on a serving shard share one IVF scratch).
    pub retriever: PqRetriever,
    /// Combined GQA group query.
    pub q_buf: Vec<f32>,
    /// Proxy-score buffer shared by the raw-key policies (Oracle, SPARQ).
    pub scores: Vec<f32>,
    /// Top-k selector shared by the raw-key policies.
    pub topk: TopK,
}

impl PolicyScratch {
    /// Empty scratch; buffers grow on first use and then stay warm.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacities `(table, scores, heap, q_buf)` of the scratch buffers —
    /// exposed so tests can assert zero-allocation steady state. The
    /// `scores`/`heap` components cover both the retriever's buffers and
    /// the shared raw-key ones.
    pub fn capacities(&self) -> (usize, usize, usize, usize) {
        let (t, s, h) = self.retriever.scratch_capacities();
        (
            t,
            s + self.scores.capacity(),
            h + self.topk.scratch_capacity(),
            self.q_buf.capacity(),
        )
    }
}

/// Everything a policy may consume at initialisation time, derived from the
/// prefill pass. Indices are in *middle coordinates*: 0 is the first middle
/// token (absolute position `n_init`).
#[derive(Debug, Clone)]
pub struct PolicyInit {
    /// Layer count.
    pub n_layers: usize,
    /// KV head count.
    pub n_kv_heads: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// Middle-region keys, `[layer][kv_head]` of `(s_mid, d_h)` (post-RoPE,
    /// exactly as stored in the host KVCache).
    pub middle_keys: Vec<Vec<Matrix>>,
    /// H2O-style accumulated attention mass per middle token,
    /// `[layer][kv_head][middle_idx]` (None if prefill ran without capture).
    pub accum_scores: Option<Vec<Vec<Vec<f32>>>>,
    /// SnapKV-style observation-window mass per middle token.
    pub window_scores: Option<Vec<Vec<Vec<f32>>>>,
}

impl PolicyInit {
    /// Middle-region length (tokens), taken from layer 0 head 0.
    pub fn middle_len(&self) -> usize {
        self.middle_keys
            .first()
            .and_then(|l| l.first())
            .map_or(0, |m| m.rows())
    }
}

/// Per-step selection context for one (layer, kv-head).
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// Layer index.
    pub layer: usize,
    /// KV head index.
    pub kv_head: usize,
    /// RoPE'd queries of the GQA group, `(group, d_h)`.
    pub queries: &'a Matrix,
    /// Number of middle tokens to select.
    pub budget: usize,
    /// Current middle-region length (grows as local tokens are evicted).
    pub middle_len: usize,
}

/// A selective-attention policy. One instance serves all layers/heads;
/// per-slot state is keyed by `(layer, kv_head)`.
pub trait SelectionPolicy {
    /// Stable display name ("H2O", "PQCache", ...).
    fn name(&self) -> &'static str;

    /// Consume prefill-derived state. Called exactly once before decoding.
    fn init(&mut self, init: &PolicyInit);

    /// Adopt the engine's retrieval-routing mode (`SessionConfig::ivf`),
    /// called by the session *before* [`Self::init`]. Policies without an
    /// IVF tier ignore it; `PqCachePolicy` builds (or skips) its inverted
    /// lists accordingly. Must not be called after `init`.
    fn configure_ivf(&mut self, mode: IvfMode) {
        let _ = mode;
    }

    /// Indices (middle coordinates, strictly less than `ctx.middle_len`) of
    /// the middle tokens to include in attention, at most `ctx.budget` of
    /// them, descending by the policy's notion of relevance, written into
    /// `out` (cleared first).
    ///
    /// This is the per-step hot path. The retrieval buffers live in the
    /// caller's `scratch`, so one scratch serves every session on a worker
    /// and steady-state selection performs no heap allocations; the
    /// selection never depends on what an earlier call left there.
    /// Policies with no use for the shared buffers ignore it.
    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    );

    /// Adopt a runtime effort override for subsequent selections — the
    /// serving layer's brownout path. Unlike `configure_ivf` this may be
    /// called at any time, any number of times, mid-decode; it must only
    /// change *how hard* the next selection works, never trained state.
    /// With [`SelectionEffort::full`] the policy must select bit-identically
    /// to one that never saw an effort call. Policies without a tunable
    /// scan (dropping baselines, exact oracles) ignore it.
    fn set_effort(&mut self, effort: SelectionEffort) {
        let _ = effort;
    }

    /// A token evicted from the local window becomes middle token
    /// `middle_idx`; policies holding per-token state must integrate it.
    fn on_evict(&mut self, layer: usize, kv_head: usize, key: &[f32], middle_idx: usize) {
        let _ = (layer, kv_head, key, middle_idx);
    }

    /// Non-overlappable communication bytes this policy incurs per decode
    /// step for one (layer, kv-head), *excluding* the final top-k KV fetch
    /// (which is identical across retrieval policies). `middle_len` is the
    /// current middle-region size.
    fn comm_bytes_per_step(&self, middle_len: usize) -> u64;

    /// Overlappable (prefetchable) communication per step per (layer,
    /// kv-head) — PQ codes, block representatives, etc.
    fn prefetch_bytes_per_step(&self, middle_len: usize) -> u64 {
        let _ = middle_len;
        0
    }

    /// Dropping policies keep a static set and never fetch from host.
    fn is_dropping(&self) -> bool {
        false
    }

    /// Snapshot the trained prefix state for cross-session sharing (called
    /// after `init`). Policies without shareable state return `None`.
    fn export_shared(&self) -> Option<SharedPolicyState> {
        None
    }

    /// Adopt a snapshot exported by a same-configured policy instance, *in
    /// place of* `init`. Returns `false` (leaving `self` untouched) when
    /// the snapshot does not belong to this policy/configuration; the
    /// caller must then fall back to a normal `init`. Implementations must
    /// guarantee an accepted import is bit-identical to `init` over the
    /// same middle keys.
    fn import_shared(&mut self, state: &SharedPolicyState) -> bool {
        let _ = state;
        false
    }

    /// Deep-copy this policy's *entire* trained and per-token state into an
    /// independent instance — the checkpoint path. Unlike
    /// [`Self::export_shared`] (prefix-time snapshot only), a fork must
    /// capture mid-decode state (per-token codes and IVF routes appended by
    /// `on_evict`) such that the fork selects bit-identically to
    /// the original from this point on. Policies that cannot guarantee that
    /// return `None` (the default), and the serving layer simply skips
    /// checkpointing sessions running them.
    fn fork(&self) -> Option<Box<dyn SelectionPolicy + Send>> {
        None
    }
}

/// Combine a GQA group's queries into the single scoring query shared by
/// their kv head (sum of rows — for linear scores this equals summing
/// per-query scores).
pub fn group_query(queries: &Matrix) -> Vec<f32> {
    let mut q = Vec::new();
    group_query_into(queries, &mut q);
    q
}

/// [`group_query`] into a caller-owned buffer (cleared first) so per-step
/// policies reuse one query scratch.
pub fn group_query_into(queries: &Matrix, out: &mut Vec<f32>) {
    out.clear();
    out.resize(queries.cols(), 0.0);
    for r in 0..queries.rows() {
        for (acc, v) in out.iter_mut().zip(queries.row(r).iter()) {
            *acc += v;
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use pqc_tensor::Rng64;

    /// A synthetic PolicyInit: random keys plus score stats that favour a
    /// known set of "important" tokens.
    pub fn synthetic_init(
        n_layers: usize,
        n_kv_heads: usize,
        s_mid: usize,
        dh: usize,
        hot: &[usize],
        seed: u64,
    ) -> PolicyInit {
        let mut rng = Rng64::new(seed);
        let mut middle_keys = Vec::new();
        let mut accum = Vec::new();
        let mut window = Vec::new();
        for _ in 0..n_layers {
            let mut lk = Vec::new();
            let mut la = Vec::new();
            let mut lw = Vec::new();
            for _ in 0..n_kv_heads {
                lk.push(Matrix::randn(s_mid, dh, 1.0, &mut rng));
                let mut a = vec![0.01f32; s_mid];
                let mut w = vec![0.01f32; s_mid];
                for &h in hot {
                    a[h] = 1.0 + rng.uniform_f32(0.0, 0.1);
                    w[h] = 1.0 + rng.uniform_f32(0.0, 0.1);
                }
                la.push(a);
                lw.push(w);
            }
            middle_keys.push(lk);
            accum.push(la);
            window.push(lw);
        }
        PolicyInit {
            n_layers,
            n_kv_heads,
            head_dim: dh,
            middle_keys,
            accum_scores: Some(accum),
            window_scores: Some(window),
        }
    }

    /// One selection through a fresh scratch, as a vector.
    pub fn selected(policy: &mut dyn SelectionPolicy, ctx: &PolicyContext<'_>) -> Vec<usize> {
        let mut out = Vec::new();
        policy.select_with_scratch(ctx, &mut PolicyScratch::new(), &mut out);
        out
    }

    /// A query matrix aligned with a specific middle token's key, so that
    /// token wins any inner-product scoring.
    pub fn query_for(init: &PolicyInit, layer: usize, head: usize, token: usize) -> Matrix {
        let k = init.middle_keys[layer][head].row(token);
        let mut m = Matrix::zeros(1, k.len());
        m.copy_row_from(0, &k.iter().map(|v| v * 3.0).collect::<Vec<_>>());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_query_sums_rows() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        assert_eq!(group_query(&m), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn synthetic_init_shapes() {
        let init = testutil::synthetic_init(2, 3, 40, 8, &[5, 7], 1);
        assert_eq!(init.middle_len(), 40);
        assert_eq!(init.middle_keys.len(), 2);
        assert_eq!(init.middle_keys[0].len(), 3);
        assert_eq!(init.accum_scores.as_ref().unwrap()[1][2].len(), 40);
    }

    #[test]
    fn full_effort_is_the_identity() {
        let full = SelectionEffort::full();
        assert!(full.is_full());
        assert_eq!(full, SelectionEffort::default());
        for k in [0, 1, 7, 64, 4096] {
            assert_eq!(full.effective_k(k), k);
            assert_eq!(full.effective_n_probe(k), k);
        }
    }

    #[test]
    fn degraded_effort_scales_and_floors() {
        let half = SelectionEffort { k_frac: 0.5, max_n_probe: Some(4) };
        assert!(!half.is_full());
        assert_eq!(half.effective_k(64), 32);
        assert_eq!(half.effective_k(7), 3);
        // k > 0 always yields at least one selected token …
        assert_eq!(SelectionEffort { k_frac: 0.01, max_n_probe: None }.effective_k(8), 1);
        // … while k == 0 stays 0 (nothing to select from).
        assert_eq!(half.effective_k(0), 0);
        // The probe cap only narrows, never widens, and floors at 1.
        assert_eq!(half.effective_n_probe(16), 4);
        assert_eq!(half.effective_n_probe(2), 2);
        assert_eq!(SelectionEffort { k_frac: 1.0, max_n_probe: Some(0) }.effective_n_probe(16), 1);
    }

    #[test]
    fn overshooting_effort_never_exceeds_nominal() {
        // k_frac is documented as (0, 1]; values above 1 must still be the
        // identity, not an amplifier.
        let over = SelectionEffort { k_frac: 1.5, max_n_probe: None };
        assert_eq!(over.effective_k(64), 64);
        assert!(over.is_full());
    }
}
