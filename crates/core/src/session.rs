//! The selective-attention decode session — PQCache's engine.
//!
//! Wires together the transformer substrate, a [`SelectionPolicy`], the
//! host-tier KV store, and the GPU block cache, implementing the paper's
//! decode loop (Algorithm 2):
//!
//! 1. the new token's K/V is published; the oldest local token is evicted,
//!    assigned PQ codes (policy `on_evict`), and offloaded to the host;
//! 2. the policy selects relevant middle tokens for the current query;
//! 3. selected tokens are served from the GPU block cache where resident,
//!    fetched (and metered) from the host otherwise;
//! 4. attention runs over initial ∪ selected-middle ∪ local tokens.
//!
//! Steps 3 and 4 are one pass per (layer, kv-head): the attention operand
//! is a reused `(keys, values)` buffer pair filled as `init | middle |
//! local`, and the middle rows come from **one** host read,
//! [`HostKvStore::read_into`], which meters the cache misses and verifies
//! the slot exactly when it meters. Cache hits and a dropping policy's
//! rows count as GPU-resident: unmetered and unverified.
//!
//! A [`SelectiveSession`] holds only what outlives a step: its record
//! (policy, host store, position), its GPU-resident rows and its block
//! cache. A step borrows its buffers — selection, policy scratch, attention
//! operand, model attention buffers — from the caller's [`SessionScratch`],
//! so a serving shard steps N sessions through one set. Every spelling of a
//! step (`decode`, `step_with_scratch`, `generate`) runs
//! [`SelectiveSession::try_step_with_scratch`], which contains panics and
//! surfaces store faults as a [`StepError`].

use crate::config::SessionConfig;
use pqc_cache::{top_blocks, BlockCache};
use pqc_llm::{DecodeOutput, DecodeScratch, KvSource, Model, PrefillOptions, PrefillOutput};
use pqc_memhier::{HostKvStore, MemError, SharingStats, TransferStats};
use pqc_policies::{PolicyContext, PolicyInit, PolicyScratch, SelectionPolicy, SharedPolicyState};
use pqc_tensor::Matrix;
use std::collections::VecDeque;

/// Why a fallible decode step failed. Either way the session is dead:
/// a store fault or a panic leaves per-layer state partially mutated, so
/// the caller must retire the session (the serving layer turns this into
/// a failed completion), never step it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// The host KV tier refused an append/fetch (e.g. page exhaustion).
    Store(MemError),
    /// The step panicked; the payload's message is preserved.
    Poisoned {
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Store(e) => write!(f, "session store fault: {e}"),
            StepError::Poisoned { message } => write!(f, "session step panicked: {message}"),
        }
    }
}

impl std::error::Error for StepError {}

/// Stringify a caught panic payload (`&str` / `String` are the common
/// cases; anything else is labeled opaquely).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The GPU-resident sliding window of one (layer, kv-head): recent tokens'
/// (key, value) rows.
type LocalWindow = VecDeque<(Vec<f32>, Vec<f32>)>;

/// The session state that survives suspend / checkpoint / resume. A live
/// [`SelectiveSession`] and a parked [`SuspendedSession`] hold the *same*
/// record — `suspend` moves it out, `checkpoint` forks it, `resume` moves it
/// back — so a field added here cannot be forgotten on one of those paths.
struct SessionRecord {
    cfg: SessionConfig,
    policy: Box<dyn SelectionPolicy + Send>,
    /// Middle budget per step (already includes "(C)" compensation for
    /// dropping policies).
    budget_middle: usize,
    /// Host-tier middle store (metered).
    store: HostKvStore,
    /// Next absolute position to decode.
    pos: usize,
    steps: u64,
    /// Selected middle indices (absolute token ids) of the last step,
    /// `[layer][kv_head]` — used by retrieval-accuracy instrumentation.
    last_selected: Vec<Vec<Vec<usize>>>,
}

/// The GPU-resident rows of one (layer, kv-head): the initial segment and
/// the local window.
struct ResidentHead {
    init_k: Matrix,
    init_v: Matrix,
    local: LocalWindow,
}

impl ResidentHead {
    /// Split one head's K/V rows: rows `..n_init` are the initial segment,
    /// rows `local_lo..` the local window (oldest first).
    fn from_rows(keys: &Matrix, values: &Matrix, n_init: usize, local_lo: usize) -> Self {
        let mut local = VecDeque::with_capacity(keys.rows() - local_lo + 1);
        for i in local_lo..keys.rows() {
            local.push_back((keys.row(i).to_vec(), values.row(i).to_vec()));
        }
        Self { init_k: keys.slice_rows(0, n_init), init_v: values.slice_rows(0, n_init), local }
    }

    /// Inverse of [`ResidentHead::from_rows`] at `local_lo = n_init`: the
    /// initial rows followed by the local window.
    fn to_rows(&self) -> (Matrix, Matrix) {
        let (mut k, mut v) = (self.init_k.clone(), self.init_v.clone());
        self.push_local(&mut k, &mut v);
        (k, v)
    }

    /// Append the local window, oldest first, to `keys` / `values`.
    fn push_local(&self, keys: &mut Matrix, values: &mut Matrix) {
        for (k, v) in &self.local {
            keys.push_row(k);
            values.push_row(v);
        }
    }
}

/// A running decode session with selective attention. Holds only the
/// state that lives across steps; each step borrows its buffers from a
/// [`SessionScratch`].
pub struct SelectiveSession<'m> {
    model: &'m Model,
    rec: SessionRecord,
    /// GPU-resident initial segment and local window of every (layer,
    /// kv-head), at `layer * n_kv_heads + kv_head`.
    resident: Vec<ResidentHead>,
    cache: BlockCache,
}

/// One decode step in flight, the model's [`KvSource`]: the session's
/// cross-step state and the caller's step buffers, borrowed together.
/// `KvSource` cannot return errors, so the step's first store fault is held
/// here for [`SelectiveSession::try_step_with_scratch`] to surface.
struct Step<'a, 'm> {
    session: &'a mut SelectiveSession<'m>,
    selection: &'a mut Vec<usize>,
    policy: &'a mut PolicyScratch,
    operand: &'a mut (Matrix, Matrix),
    fault: Option<MemError>,
}

/// Per-worker scratch reused across every session a shard steps: the policy
/// retrieval buffers, the selection index buffer, the attention operand,
/// and the model's attention buffers. Splitting these out of the session is
/// what lets the serving layer run N sessions with one set of hot-path
/// buffers; every field is fully overwritten per step, so sharing never
/// changes results.
#[derive(Debug, Default)]
pub struct SessionScratch {
    /// Policy-side retrieval scratch (ADC table, scores, heap, group query).
    pub policy: PolicyScratch,
    /// Selected-index buffer.
    pub selection: Vec<usize>,
    /// Attention operand `(keys, values)`: `init | middle | local` rows of
    /// the (layer, kv-head) being attended.
    pub operand: (Matrix, Matrix),
    /// Model attention buffers.
    pub decode: DecodeScratch,
}

impl SessionScratch {
    /// Empty scratch; buffers warm up on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Outcome of session construction: the session plus the prefill output
/// (whose logits give the first generated token).
pub struct SessionStart<'m> {
    /// The ready-to-decode session.
    pub session: SelectiveSession<'m>,
    /// First-token logits from prefill.
    pub logits: Vec<f32>,
}

/// Externally supplied backing storage for a session: its host-tier KV
/// namespace and its GPU block cache.
///
/// Single-session callers never see this (construction builds private
/// defaults); the serving layer vends one per admitted session — a fresh
/// [`pqc_memhier::KvTier`] namespace plus a fresh [`BlockCache`] of the
/// session's own capacity.
#[derive(Debug)]
pub struct SessionResources {
    /// Host-tier middle store (one namespace; must be empty).
    pub store: HostKvStore,
    /// GPU block cache (must be empty).
    pub cache: BlockCache,
}

impl SessionResources {
    /// The defaults a standalone session would build for itself.
    pub fn standalone(model: &Model, cfg: &SessionConfig) -> Self {
        let mcfg = model.config();
        Self {
            store: HostKvStore::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim),
            cache: BlockCache::new(cfg.cache.capacity_tokens, cfg.cache.block_size, cfg.cache.policy()),
        }
    }
}

impl<'m> SelectiveSession<'m> {
    /// Run prefill and construct a session.
    ///
    /// Panics if the prompt is shorter than `n_init + n_local` — selective
    /// attention needs a non-trivial context (use full attention for short
    /// prompts).
    pub fn start(
        model: &'m Model,
        policy: Box<dyn SelectionPolicy + Send>,
        cfg: SessionConfig,
        tokens: &[u32],
    ) -> SessionStart<'m> {
        let s = tokens.len();
        assert!(
            s > cfg.n_init + cfg.n_local,
            "prompt ({s} tokens) must exceed n_init + n_local ({})",
            cfg.n_init + cfg.n_local
        );
        let prefill = model.prefill(tokens, &Self::prefill_options(&cfg, s));
        Self::start_from_prefill(model, policy, cfg, &prefill)
    }

    /// The prefill options a session constructed via [`SelectiveSession::start`]
    /// uses for a prompt of `prompt_len` tokens — exposed so external
    /// drivers (the serve engine) prefill identically.
    pub fn prefill_options(cfg: &SessionConfig, prompt_len: usize) -> PrefillOptions {
        PrefillOptions {
            capture_window: Some(cfg.obs_window.min(prompt_len)),
            ..Default::default()
        }
    }

    /// Construct from an existing prefill output (lets callers reuse one
    /// prefill across several sessions — the benchmark suite does this).
    pub fn start_from_prefill(
        model: &'m Model,
        policy: Box<dyn SelectionPolicy + Send>,
        cfg: SessionConfig,
        prefill: &PrefillOutput,
    ) -> SessionStart<'m> {
        let resources = SessionResources::standalone(model, &cfg);
        Self::start_from_prefill_in(model, policy, cfg, prefill, resources)
    }

    /// [`SelectiveSession::start_from_prefill`] with externally owned
    /// backing storage: the store is a [`pqc_memhier::KvTier`] namespace and
    /// the cache is the caller's.
    pub fn start_from_prefill_in(
        model: &'m Model,
        policy: Box<dyn SelectionPolicy + Send>,
        cfg: SessionConfig,
        prefill: &PrefillOutput,
        resources: SessionResources,
    ) -> SessionStart<'m> {
        Self::start_from_shared_prefix(model, policy, cfg, prefill, resources, None)
    }

    /// Panicking [`SelectiveSession::try_start_from_shared_prefix`].
    pub fn start_from_shared_prefix(
        model: &'m Model,
        policy: Box<dyn SelectionPolicy + Send>,
        cfg: SessionConfig,
        prefill: &PrefillOutput,
        resources: SessionResources,
        shared: Option<&SharedPolicyState>,
    ) -> SessionStart<'m> {
        Self::try_start_from_shared_prefix(model, policy, cfg, prefill, resources, shared)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one session builder, and the serving-layer entry point: construct
    /// a session from a prefill output inside externally owned `resources`.
    ///
    /// The store may arrive pre-populated with the prompt's middle region —
    /// a **shared prompt prefix**
    /// ([`pqc_memhier::KvTier::new_namespace_with_prefix`]): no offload runs
    /// or is metered, the pages never left the host — and the policy may
    /// adopt trained state exported by the prefix's first session instead
    /// of re-training. Falls back to a normal `init` (middle keys come from
    /// `prefill` either way) when `shared` is `None` or the policy rejects
    /// the import. Training is deterministically seeded, so either path
    /// decodes bit-identically.
    ///
    /// Fallible because on a capped host tier the prefill offload can
    /// exhaust the page pool; the error comes back typed (and the
    /// partially-written chains are rolled back) so the serving layer can
    /// shed the session instead of aborting. An invalid `cfg` still panics —
    /// the serving layer validates configs up front via
    /// [`SessionConfig::validate`].
    pub fn try_start_from_shared_prefix(
        model: &'m Model,
        mut policy: Box<dyn SelectionPolicy + Send>,
        cfg: SessionConfig,
        prefill: &PrefillOutput,
        resources: SessionResources,
        shared: Option<&SharedPolicyState>,
    ) -> Result<SessionStart<'m>, MemError> {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        cfg.check_probe(policy.as_ref()).unwrap_or_else(|e| panic!("{e}"));
        let mcfg = *model.config();
        let s = prefill.kv[0].len();
        assert!(s > cfg.n_init + cfg.n_local, "prompt too short for segmentation");
        let mid_lo = cfg.n_init;
        let mid_hi = s - cfg.n_local;
        let middle_len = mid_hi - mid_lo;

        let SessionResources { mut store, cache } = resources;
        // A pre-populated store is the shared-prefix path: the namespace
        // was minted from the tier's prefix registry and already holds
        // exactly the prompt's middle region — skip the offload (the pages
        // never left the host; only `prefix_hit_tokens` was metered).
        let prefix_resident = !store.is_empty();
        if prefix_resident {
            for l in 0..mcfg.n_layers {
                for h in 0..mcfg.n_kv_heads {
                    assert_eq!(
                        store.len(l, h),
                        middle_len,
                        "shared-prefix store must hold exactly the prompt's middle region"
                    );
                }
            }
        }
        assert!(cache.is_empty(), "session cache must start empty");
        // The engine's routing knob: `Probe` is pushed down to IVF-capable
        // policies (they build their inverted tiers at init); the `Exact`
        // default leaves each policy's own routing configuration in effect.
        if cfg.ivf.is_probe() {
            policy.configure_ivf(cfg.ivf);
        }
        // Shared-prefix fast path for the policy too: adopt the trained
        // PQ/IVF state exported over the same middle keys (bit-identical to
        // training — seeds are deterministic) and skip building PolicyInit.
        let imported = shared.is_some_and(|state| policy.import_shared(state));
        let mut resident = Vec::with_capacity(mcfg.n_layers * mcfg.n_kv_heads);
        let mut middle_keys = Vec::with_capacity(mcfg.n_layers);

        for (l, lk) in prefill.kv.iter().enumerate() {
            let mut mk = Vec::with_capacity(mcfg.n_kv_heads);
            for h in 0..mcfg.n_kv_heads {
                let (keys, values) = (&lk.keys[h], &lk.values[h]);
                if !imported {
                    mk.push(keys.slice_rows(mid_lo, mid_hi));
                }
                if !prefix_resident {
                    // Step ❶: metered offload
                    let (mid_k, mid_v) =
                        (keys.slice_rows(mid_lo, mid_hi), values.slice_rows(mid_lo, mid_hi));
                    store.try_offload(l, h, mid_k, mid_v)?;
                }
                resident.push(ResidentHead::from_rows(keys, values, mid_lo, mid_hi));
            }
            middle_keys.push(mk);
        }

        // Policy initialisation from the middle slice of the captures.
        let slice_scores = |which: &dyn Fn(&pqc_llm::ScoreCapture) -> &Vec<f32>| {
            prefill.captures.as_ref().map(|caps| {
                caps.iter()
                    .map(|layer| {
                        layer
                            .iter()
                            .map(|c| which(c)[mid_lo..mid_hi].to_vec())
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            })
        };
        if !imported {
            let pinit = PolicyInit {
                n_layers: mcfg.n_layers,
                n_kv_heads: mcfg.n_kv_heads,
                head_dim: mcfg.head_dim,
                middle_keys,
                accum_scores: slice_scores(&|c| &c.accum),
                window_scores: slice_scores(&|c| &c.window_accum),
            };
            policy.init(&pinit);
        }

        let mut budget_middle = cfg.middle_budget(s);
        if policy.is_dropping() {
            budget_middle += cfg.compensation_tokens(s);
        }

        let rec = SessionRecord {
            cfg,
            policy,
            budget_middle,
            store,
            pos: s,
            steps: 0,
            last_selected: vec![vec![Vec::new(); mcfg.n_kv_heads]; mcfg.n_layers],
        };
        let session = SelectiveSession { model, rec, resident, cache };
        Ok(SessionStart { session, logits: prefill.logits.clone() })
    }

    /// One decode step with fresh step buffers:
    /// [`SelectiveSession::step_with_scratch`] on a new [`SessionScratch`].
    /// A loop of steps should keep one scratch and call that instead.
    ///
    /// Panics on a store fault during the step (a failed append, a page
    /// that failed its checksum), so logits computed from damaged state are
    /// never returned. A panic inside the step is contained the way the
    /// serving path contains it and re-raised as [`StepError::Poisoned`].
    pub fn decode(&mut self, token: u32) -> DecodeOutput {
        self.step_with_scratch(token, &mut SessionScratch::new())
    }

    /// One decode step through worker-owned scratch: the panicking
    /// [`SelectiveSession::try_step_with_scratch`]. Bit-identical to
    /// [`SelectiveSession::decode`] whatever the scratch held before.
    pub fn step_with_scratch(&mut self, token: u32, scratch: &mut SessionScratch) -> DecodeOutput {
        self.try_step_with_scratch(token, scratch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one decode step, and the fault-tolerant serving hot path. The
    /// step borrows `scratch` (policy retrieval buffers, selection buffer,
    /// attention operand, model attention buffers), so N concurrent
    /// sessions reuse one set of hot-path allocations. Two failure modes
    /// are contained here instead of unwinding through the shard worker:
    ///
    /// - a host-tier fault during the step (the `KvSource` trait can't
    ///   return errors) surfaces as [`StepError::Store`];
    /// - a panic anywhere in the step is caught and surfaces as
    ///   [`StepError::Poisoned`] with the payload's message.
    ///
    /// A poisoned step may leave `scratch` half-written, which is harmless:
    /// every step overwrites each buffer before reading it. On `Err` the
    /// session must be retired: per-layer state is partially mutated and
    /// stepping again would produce garbage.
    pub fn try_step_with_scratch(
        &mut self,
        token: u32,
        scratch: &mut SessionScratch,
    ) -> Result<DecodeOutput, StepError> {
        let pos = self.rec.pos;
        self.rec.pos += 1;
        self.rec.steps += 1;
        let model = self.model;
        let SessionScratch { policy, selection, operand, decode } = scratch;
        let mut step = Step { session: self, selection, policy, operand, fault: None };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.decode_step_with_scratch(token, pos, &mut step, decode)
        }));
        // A store fault outranks the panic it may have caused downstream:
        // the injected/root cause is the useful report.
        if let Some(e) = step.fault {
            return Err(StepError::Store(e));
        }
        result.map_err(|payload| StepError::Poisoned { message: panic_message(payload.as_ref()) })
    }

    /// Greedy generation: feeds the argmax of `first_logits`, then each
    /// step's own argmax, for `steps` tokens, through one scratch.
    pub fn generate(&mut self, first_logits: &[f32], steps: usize) -> Vec<u32> {
        let mut scratch = SessionScratch::new();
        let mut out = Vec::with_capacity(steps);
        let mut next = pqc_tensor::argmax(first_logits) as u32;
        for _ in 0..steps {
            out.push(next);
            next = self.step_with_scratch(next, &mut scratch).greedy();
        }
        out
    }

    /// Host transfer statistics (offload + fetch).
    pub fn transfer_stats(&self) -> TransferStats {
        self.rec.store.stats()
    }

    /// Sharing statistics of this session's namespace (tokens adopted from
    /// a shared prefix; copy-on-write page copies its appends triggered).
    pub fn sharing_stats(&self) -> SharingStats {
        self.rec.store.sharing_stats()
    }

    /// The session's host store — e.g. for registering its prompt as a
    /// shared prefix with the owning [`pqc_memhier::KvTier`].
    pub fn store(&self) -> &HostKvStore {
        &self.rec.store
    }

    /// Snapshot the policy's trained prefix state for cross-session sharing
    /// (`None` when the policy has nothing shareable).
    pub fn export_policy_state(&self) -> Option<SharedPolicyState> {
        self.rec.policy.export_shared()
    }

    /// GPU cache statistics.
    pub fn cache_stats(&self) -> pqc_cache::CacheStats {
        self.cache.stats()
    }

    /// Decode steps taken.
    pub fn steps(&self) -> u64 {
        self.rec.steps
    }

    /// Middle tokens currently on the host (layer 0 as representative).
    pub fn middle_len(&self) -> usize {
        self.rec.store.len(0, 0)
    }

    /// Absolute token ids selected at the last step for `(layer, kv_head)`.
    pub fn last_selected(&self, layer: usize, kv_head: usize) -> &[usize] {
        &self.rec.last_selected[layer][kv_head]
    }

    /// A clone of every `(layer, kv_head)`'s last-step selection — used by
    /// the serve engine's equivalence tracing.
    pub fn selected_snapshot(&self) -> Vec<Vec<Vec<usize>>> {
        self.rec.last_selected.clone()
    }

    /// Current middle-region budget per step.
    pub fn middle_budget(&self) -> usize {
        self.rec.budget_middle
    }

    /// Preempt this session: offload its GPU-resident state (initial segment
    /// plus local window) into a fresh namespace of `tier` — the metered D2H
    /// path — and drop its GPU block cache. Its host pages stay resident
    /// because the returned [`SuspendedSession`] holds their page tables.
    ///
    /// The returned [`SuspendedSession`] holds no model borrow and can be
    /// parked indefinitely; [`SuspendedSession::resume`] restores a session
    /// that decodes **bit-identically** to one that was never suspended
    /// (the block cache only meters transfers — it never changes gathered
    /// data — so resuming with a cold cache alters metering, not logits).
    ///
    /// Must be called between decode steps. On pool exhaustion the session
    /// comes back **intact** inside the error — preemption failure is
    /// recoverable, the victim just keeps running — along with the D2H
    /// already metered into the abandoned swap namespace so the caller's
    /// transfer accounting stays exact.
    // The Err variant is deliberately large: preemption failure must hand the
    // intact victim session (plus the already-metered D2H) back to the caller
    // so it can keep decoding — boxing would buy nothing but an allocation on
    // a path that exists precisely because allocation just failed.
    #[allow(clippy::result_large_err)]
    pub fn suspend(self, tier: &pqc_memhier::KvTier) -> Result<SuspendedSession, SuspendError<'m>> {
        assert!(self.windows_full(), "suspend must run between steps (local window full)");
        let swap = match self.offload_resident(tier) {
            Ok(swap) => swap,
            Err((error, swap_transfer)) => {
                return Err(SuspendError { session: self, error, swap_transfer });
            }
        };
        // The resident rows and the cache drop here.
        Ok(SuspendedSession { rec: self.rec, swap })
    }

    /// Snapshot this session **without evicting it**: the crash-recovery
    /// checkpoint path. Produces a [`SuspendedSession`] that resumes into a
    /// session decoding bit-identically to this one from this exact point,
    /// while `self` keeps running untouched:
    ///
    /// - the GPU-resident state (initial segment + local window) is
    ///   offloaded into a fresh swap namespace, exactly as
    ///   [`SelectiveSession::suspend`] would;
    /// - the middle store is forked copy-on-write
    ///   ([`pqc_memhier::KvTier::fork_namespace`]) — no bytes move, the
    ///   snapshot just retains the live pages; the live session's later
    ///   appends CoW away from the frozen tail;
    /// - the policy is deep-copied via [`SelectionPolicy::fork`].
    ///
    /// Returns `Ok(None)` — checkpoint skipped, session unaffected — when
    /// the policy is not forkable, or when a local window does not hold
    /// exactly `n_local` rows (never the case between steps; `suspend`
    /// asserts it). Returns `Err` when the swap offload exhausts a capped
    /// pool (the partial swap is rolled back; the live session is still
    /// unaffected).
    pub fn checkpoint(
        &self,
        tier: &pqc_memhier::KvTier,
    ) -> Result<Option<SuspendedSession>, MemError> {
        let Some(policy) = self.rec.policy.fork() else {
            return Ok(None);
        };
        if !self.windows_full() {
            return Ok(None);
        }
        let swap = self.offload_resident(tier).map_err(|(e, _)| e)?;
        // Every field of the record without an owned resource is `Copy`, so
        // the functional update carries all of them, present and future.
        let rec = SessionRecord {
            policy,
            store: tier.fork_namespace(&self.rec.store),
            last_selected: self.rec.last_selected.clone(),
            ..self.rec
        };
        Ok(Some(SuspendedSession { rec, swap }))
    }

    /// Deterministic fault injection: flip one bit in the middle store's
    /// (layer, head) chain tail (see [`pqc_memhier::HostKvStore::corrupt_slot`];
    /// a tail shared with a checkpoint is CoW-copied first, so snapshots
    /// keep the intact bytes). The next verified fetch of that slot latches
    /// the corruption as a [`StepError::Store`] fault.
    pub fn corrupt_middle_slot(&mut self, layer: usize, head: usize, bit: u64) -> bool {
        self.rec.store.corrupt_slot(layer, head, bit)
    }

    /// True between decode steps: every local window holds exactly
    /// `n_local` rows.
    fn windows_full(&self) -> bool {
        self.resident.iter().all(|r| r.local.len() == self.rec.cfg.n_local)
    }

    /// Offload the GPU-resident state into a fresh swap namespace of
    /// `tier` (the metered D2H path): per (layer, head), the `n_init`
    /// initial rows followed by the local window. On pool exhaustion the
    /// partial swap is released and the error carries the D2H it had
    /// already metered.
    fn offload_resident(
        &self,
        tier: &pqc_memhier::KvTier,
    ) -> Result<HostKvStore, (MemError, TransferStats)> {
        let n_kv_heads = self.model.config().n_kv_heads;
        let mut swap = tier.new_namespace();
        for (i, head) in self.resident.iter().enumerate() {
            let (k, v) = head.to_rows();
            if let Err(e) = swap.try_offload(i / n_kv_heads, i % n_kv_heads, k, v) {
                return Err((e, swap.stats())); // dropping `swap` releases the partial chains
            }
        }
        Ok(swap)
    }
}

/// A failed [`SelectiveSession::suspend`]: the swap offload exhausted the
/// page pool. The session is returned **unharmed** — the caller can keep
/// decoding it — and `swap_transfer` reports the D2H metered into the
/// abandoned swap namespace before the failure (its pages are already
/// released), so engine-level aggregate accounting still closes.
pub struct SuspendError<'m> {
    /// The victim, exactly as it was before the suspend attempt.
    pub session: SelectiveSession<'m>,
    /// The store fault that aborted the offload.
    pub error: MemError,
    /// Transfer already metered into the abandoned swap namespace.
    pub swap_transfer: TransferStats,
}

impl std::fmt::Debug for SuspendError<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuspendError")
            .field("error", &self.error)
            .field("swap_transfer", &self.swap_transfer)
            .finish_non_exhaustive()
    }
}

/// A preempted session parked off-GPU: its middle region stays in its host
/// namespace, its initial segment + local window live in a swap namespace.
/// Both namespaces hold a reference to every page they list, so the pages
/// stay resident while it is parked. Holds no model borrow and no GPU
/// cache. Produced by [`SelectiveSession::suspend`]; revived by
/// [`SuspendedSession::resume`]. Dropping it without resuming releases
/// everything.
pub struct SuspendedSession {
    /// The session's persistent state, including its middle-region namespace.
    rec: SessionRecord,
    /// Swap namespace holding, per (layer, head), `n_init` initial rows
    /// followed by `n_local` local-window rows.
    swap: HostKvStore,
}

impl std::fmt::Debug for SuspendedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuspendedSession")
            .field("pos", &self.pos())
            .field("steps", &self.steps())
            .field("middle_len", &self.middle_len())
            .finish_non_exhaustive()
    }
}

impl SuspendedSession {
    /// Next absolute position the resumed session will decode.
    pub fn pos(&self) -> usize {
        self.rec.pos
    }

    /// Decode steps taken before suspension.
    pub fn steps(&self) -> u64 {
        self.rec.steps
    }

    /// Middle tokens parked on the host (layer 0 as representative).
    pub fn middle_len(&self) -> usize {
        self.rec.store.len(0, 0)
    }

    /// Host transfer of the middle-region namespace — the same stats
    /// [`SelectiveSession::transfer_stats`] would report, available while
    /// parked so a completion built without resuming still carries its
    /// traffic.
    pub fn transfer_stats(&self) -> TransferStats {
        self.rec.store.stats()
    }

    /// Sharing stats of the middle-region namespace (see
    /// [`SelectiveSession::sharing_stats`]).
    pub fn sharing_stats(&self) -> SharingStats {
        self.rec.store.sharing_stats()
    }

    /// Swap-namespace transfer so far (the suspend-time D2H offload).
    /// After [`SuspendedSession::resume`] the returned stats also cover the
    /// resume-time H2D fetch; callers fold them into the session's
    /// completion so engine-aggregate accounting stays exact.
    pub fn swap_stats(&self) -> TransferStats {
        self.swap.stats()
    }

    /// Verify every page this parked session references — middle store and
    /// swap namespace — against its stored checksum: the pre-resume
    /// integrity gate. A checkpoint that fails here must be discarded, not
    /// resumed.
    pub fn verify(&self) -> Result<(), MemError> {
        self.rec.store.verify()?;
        self.swap.verify()
    }

    /// Revive the session: fetch the initial segment + local window back
    /// from the swap namespace (metered H2D), release the swap pages, and
    /// rebuild the session around a fresh (empty) block cache. Returns the
    /// session plus the swap namespace's total transfer (suspend D2H +
    /// resume H2D) for the caller's accounting.
    ///
    /// `model` must be the model the session was started with; the cache
    /// must be empty (it starts cold — metering changes, logits do not).
    pub fn resume(self, model: &Model, cache: BlockCache) -> (SelectiveSession<'_>, TransferStats) {
        let mcfg = model.config();
        assert!(cache.is_empty(), "resume cache must start empty");
        let cfg = self.rec.cfg;
        let ids: Vec<usize> = (0..cfg.n_init + cfg.n_local).collect();
        let mut resident = Vec::with_capacity(mcfg.n_layers * mcfg.n_kv_heads);
        for l in 0..mcfg.n_layers {
            for h in 0..mcfg.n_kv_heads {
                let (k, v) = self.swap.try_fetch(l, h, &ids).expect("swap holds the rows");
                resident.push(ResidentHead::from_rows(&k, &v, cfg.n_init, cfg.n_init));
            }
        }
        let swap_transfer = self.swap.stats();
        (SelectiveSession { model, rec: self.rec, resident, cache }, swap_transfer)
    }
}

impl KvSource for Step<'_, '_> {
    fn publish(&mut self, layer: usize, kv_head: usize, key: &[f32], value: &[f32]) {
        let session = &mut *self.session;
        let head = layer * session.model.config().n_kv_heads + kv_head;
        let window = &mut session.resident[head].local;
        window.push_back((key.to_vec(), value.to_vec()));
        if window.len() > session.rec.cfg.n_local {
            let (ek, ev) = window.pop_front().expect("non-empty window");
            // The append's returned offset is namespace-local — correct even
            // when several sessions interleave appends into one KvTier.
            // `KvSource::publish` cannot return errors, so a store fault is
            // held for the step to surface; the evicted row is dropped — the
            // session is unrecoverable either way.
            let middle_idx = match session.rec.store.try_append_token(layer, kv_head, &ek, &ev) {
                Ok(off) => off,
                Err(e) => {
                    self.fault.get_or_insert(e);
                    return;
                }
            };
            session.rec.policy.on_evict(layer, kv_head, &ek, middle_idx);
        }
    }

    fn gather(&mut self, layer: usize, kv_head: usize, queries: &Matrix) -> (&Matrix, &Matrix) {
        let session = &mut *self.session;
        let rec = &mut session.rec;
        let middle_len = rec.store.len(layer, kv_head);
        let budget = rec.budget_middle.min(middle_len);

        // 1. Select (middle-relative ids, the policy's order).
        let sel = &mut *self.selection;
        sel.clear();
        if budget > 0 {
            let ctx = PolicyContext { layer, kv_head, queries, budget, middle_len };
            rec.policy.select_with_scratch(&ctx, self.policy, sel);
            sel.retain(|&i| i < middle_len);
        }

        // 2. Record absolute ids for instrumentation, in selection order.
        let abs = &mut rec.last_selected[layer][kv_head];
        abs.clear();
        abs.extend(sel.iter().map(|&i| i + rec.cfg.n_init));

        // 3. Dropping policies keep their set on GPU, in selection order:
        // nothing crosses the link. Retrieval policies go through the block
        // cache; hits are GPU-resident and only the misses cross, and the
        // middle rows are sorted(hits ∪ misses) = sorted(selection).
        let link_rows = if sel.is_empty() || rec.policy.is_dropping() {
            0
        } else {
            let lookup = session.cache.lookup(sel);
            let (block, k_cache) = (rec.cfg.cache.block_size, rec.cfg.cache.k_cache_blocks);
            session.cache.update(&top_blocks(sel, block, k_cache));
            sel.sort_unstable();
            lookup.misses.len()
        };

        // 4. init | middle | local, in absolute token order, with one read.
        // A corrupt page holds a fault the step surfaces and leaves the
        // middle out, so poisoned logits are never served.
        let head = &session.resident[layer * session.model.config().n_kv_heads + kv_head];
        let (keys, values) = &mut *self.operand;
        keys.copy_from(&head.init_k);
        values.copy_from(&head.init_v);
        if let Err(e) = rec.store.read_into(layer, kv_head, sel, link_rows, keys, values) {
            self.fault.get_or_insert(e);
        }
        head.push_local(keys, values);
        (&self.operand.0, &self.operand.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqc_llm::LlmConfig;
    use pqc_policies::{FullAttentionPolicy, PqCachePolicy, StreamingLlmPolicy};

    fn prompt(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = pqc_tensor::Rng64::new(seed);
        (0..n).map(|_| rng.below(200) as u32).collect()
    }

    fn cfg() -> SessionConfig {
        SessionConfig {
            n_init: 2,
            n_local: 8,
            token_ratio: 0.25,
            comm_fraction: 1.0 / 16.0,
            obs_window: 8,
            cache: crate::config::CacheConfig { capacity_tokens: 64, block_size: 8, lfu: true, k_cache_blocks: 4 },
            ivf: crate::config::IvfMode::Exact,
        }
    }

    #[test]
    fn full_policy_session_matches_reference_generation() {
        // The DESIGN.md invariant: budget = everything reproduces full
        // attention exactly (same assembly order as FullKvSource).
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(48, 1);
        let reference = model.generate_full(&toks, 10);

        let mut c = cfg();
        c.token_ratio = 1.0;
        let start = SelectiveSession::start(&model, Box::new(FullAttentionPolicy::default()), c, &toks);
        let mut session = start.session;
        let got = session.generate(&start.logits, 10);
        assert_eq!(reference, got);
    }

    #[test]
    fn streaming_session_diverges_from_reference() {
        // Dropping the middle region must change the computed logits on a
        // long prompt (if it didn't, selective attention would be vacuous).
        // Greedy token streams can coincide (random-weight models collapse
        // to fixed points), so compare teacher-forced logits directly.
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(96, 2);
        let pre = model.prefill(&toks, &pqc_llm::PrefillOptions::default());
        let mut full_src = pqc_llm::FullKvSource::from_prefill(&pre);
        let full_dec = model.decode_step(7, 96, &mut full_src);

        let start = SelectiveSession::start(&model, Box::new(StreamingLlmPolicy), cfg(), &toks);
        let mut session = start.session;
        let stream_dec = session.decode(7);

        let max_diff = full_dec
            .logits
            .iter()
            .zip(stream_dec.logits.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff > 1e-3, "dropping all middle tokens changed nothing: {max_diff}");
    }

    #[test]
    fn pqcache_session_generates_and_meters() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 3);
        let start =
            SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), cfg(), &toks);
        let mut session = start.session;
        let out = session.generate(&start.logits, 8);
        assert_eq!(out.len(), 8);
        let ts = session.transfer_stats();
        assert!(ts.d2h_bytes > 0, "prefill offload must be metered");
        assert!(ts.h2d_bytes > 0, "top-k fetches must be metered");
        assert!(session.cache_stats().token_lookups > 0);
    }

    #[test]
    fn eviction_grows_middle_region() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(60, 4);
        let start =
            SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), cfg(), &toks);
        let mut session = start.session;
        let before = session.middle_len();
        let _ = session.generate(&start.logits, 5);
        // Each decode step evicts one local token into the middle.
        assert_eq!(session.middle_len(), before + 5);
    }

    #[test]
    fn selected_ids_are_middle_absolute() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(64, 5);
        let c = cfg();
        let start =
            SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), c, &toks);
        let mut session = start.session;
        let _ = session.generate(&start.logits, 2);
        let sel = session.last_selected(0, 0);
        assert!(!sel.is_empty());
        // Absolute ids start at n_init and stay below the local window.
        assert!(sel.iter().all(|&i| i >= c.n_init));
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn short_prompt_panics() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(8, 6);
        let _ = SelectiveSession::start(&model, Box::new(StreamingLlmPolicy), cfg(), &toks);
    }

    #[test]
    fn step_with_scratch_interleaved_is_bit_identical() {
        // Two sessions stepped through ONE worker scratch, interleaved, must
        // match the plain decode path bit-for-bit — the core property the
        // serve engine's equivalence battery rests on.
        let model = Model::new(LlmConfig::tiny());
        let mk = |seed| {
            let toks = prompt(80, seed);
            SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), cfg(), &toks)
        };
        let (ra, rb) = (mk(31), mk(32));
        let (sa, sb) = (mk(31), mk(32));
        let mut plain = [ra.session, rb.session];
        let mut shared = [sa.session, sb.session];
        let mut scratch = SessionScratch::new();
        let mut next = [pqc_tensor::argmax(&ra.logits) as u32, pqc_tensor::argmax(&rb.logits) as u32];
        for step in 0..6 {
            for i in 0..2 {
                let p = plain[i].decode(next[i]);
                let s = shared[i].step_with_scratch(next[i], &mut scratch);
                assert_eq!(p.logits, s.logits, "session {i} step {step}");
                assert_eq!(
                    plain[i].selected_snapshot(),
                    shared[i].selected_snapshot(),
                    "session {i} step {step} selections"
                );
                next[i] = p.greedy();
            }
        }
        for i in 0..2 {
            assert_eq!(plain[i].transfer_stats(), shared[i].transfer_stats());
        }
    }

    #[test]
    fn operand_buffers_reach_steady_state_under_one_scratch() {
        // 100 steps through one worker scratch: every step evicts into the
        // middle and mixes cache hits with misses, yet once the operand
        // has warmed up it is refilled in place, never reallocated.
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 34);
        let start = SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), cfg(), &toks);
        let mut session = start.session;
        let mut scratch = SessionScratch::new();
        let caps = |s: &SessionScratch| (s.operand.0.capacity(), s.operand.1.capacity());
        let first = pqc_tensor::argmax(&start.logits) as u32;
        let mut next = session.step_with_scratch(first, &mut scratch).greedy();
        let warm = caps(&scratch);
        assert!(warm.0 > 0 && warm.1 > 0);
        let middle = session.middle_len();
        for step in 0..100 {
            next = session.step_with_scratch(next, &mut scratch).greedy();
            assert_eq!(caps(&scratch), warm, "operand grew at step {step}");
        }
        assert_eq!(session.middle_len(), middle + 100, "every step evicts one token");
        let cache = session.cache_stats();
        assert!(cache.token_hits > 0 && cache.token_misses > 0, "{cache:?}");
    }

    #[test]
    fn session_in_external_resources_matches_standalone() {
        // A session backed by a KvTier namespace + external cache decodes
        // identically to a standalone one.
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(72, 33);
        let c = cfg();
        let plain = SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), c, &toks);
        let mut plain_s = plain.session;
        let plain_out = plain_s.generate(&plain.logits, 6);

        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim);
        let resources = SessionResources {
            store: tier.new_namespace(),
            cache: BlockCache::new(c.cache.capacity_tokens, c.cache.block_size, c.cache.policy()),
        };
        let prefill = model.prefill(&toks, &SelectiveSession::prefill_options(&c, toks.len()));
        let start = SelectiveSession::start_from_prefill_in(
            &model,
            Box::new(PqCachePolicy::default()),
            c,
            &prefill,
            resources,
        );
        let mut tiered = start.session;
        let tiered_out = tiered.generate(&start.logits, 6);
        assert_eq!(plain_out, tiered_out);
        assert_eq!(plain_s.transfer_stats(), tiered.transfer_stats());
        assert_eq!(tier.aggregate_stats(), tiered.transfer_stats());
    }

    #[test]
    fn shared_prefix_session_matches_cold_start() {
        // Adopting tier pages + exported policy state must decode exactly
        // like a cold start: same tokens, same h2d traffic — minus the
        // offload d2h (the shared pages never left the host).
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(72, 51);
        let c = cfg();
        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim);
        let prefill = model.prefill(&toks, &SelectiveSession::prefill_options(&c, toks.len()));
        let res = |store| SessionResources {
            store,
            cache: SessionResources::standalone(&model, &c).cache,
        };

        let start_a = SelectiveSession::start_from_prefill_in(
            &model,
            Box::new(PqCachePolicy::default()),
            c,
            &prefill,
            res(tier.new_namespace()),
        );
        let mut a = start_a.session;
        let shared = a.export_policy_state();
        assert!(shared.is_some(), "trained PQCache must export");
        assert!(tier.register_prefix(&toks, a.store(), std::sync::Arc::new(())));

        let hit = tier.lookup_prefix(&toks).expect("registered prompt must hit");
        let start_b = SelectiveSession::start_from_shared_prefix(
            &model,
            Box::new(PqCachePolicy::default()),
            c,
            &prefill,
            res(tier.new_namespace_with_prefix(&hit)),
            shared.as_ref(),
        );
        let mut b = start_b.session;
        assert_eq!(b.transfer_stats().d2h_ops, 0, "adoption must not re-offload");
        assert_eq!(b.sharing_stats().prefix_hit_tokens, toks.len() as u64);
        assert_eq!(start_a.logits, start_b.logits);

        let out_a = a.generate(&start_a.logits, 8);
        let out_b = b.generate(&start_b.logits, 8);
        assert_eq!(out_a, out_b, "shared-prefix decode diverged");
        let (ta, tb) = (a.transfer_stats(), b.transfer_stats());
        assert_eq!(ta.h2d_bytes, tb.h2d_bytes, "fetch traffic must match");
        assert_eq!(ta.h2d_ops, tb.h2d_ops);
        assert!(ta.d2h_bytes > tb.d2h_bytes, "adopter must skip the offload bytes");
        assert!(b.sharing_stats().cow_copies > 0, "first appends CoW the shared tails");
    }

    #[test]
    fn ivf_probe_all_cells_decodes_bit_identically() {
        // SessionConfig::ivf = Probe(n_list) routes every step through the
        // IVF tier but scans all cells — logits, selections, and transfer
        // stats must match the exact-mode session bit for bit.
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 41);
        let n_list = pqc_policies::PqCachePolicyConfig::default().ivf_n_list;
        let run = |ivf| {
            let c = SessionConfig { ivf, ..cfg() };
            let start =
                SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), c, &toks);
            let mut session = start.session;
            let mut logits = Vec::new();
            let mut next = pqc_tensor::argmax(&start.logits) as u32;
            for _ in 0..8 {
                let dec = session.decode(next);
                next = dec.greedy();
                logits.push(dec.logits);
            }
            (logits, session.selected_snapshot(), session.transfer_stats())
        };
        let exact = run(crate::config::IvfMode::Exact);
        let probe = run(crate::config::IvfMode::Probe(n_list));
        assert_eq!(exact.0, probe.0, "logits diverged");
        assert_eq!(exact.1, probe.1, "selections diverged");
        assert_eq!(exact.2, probe.2, "transfer stats diverged");
    }

    #[test]
    fn ivf_narrow_probe_session_decodes() {
        // A genuinely sublinear probe (fewer cells than n_list) must still
        // produce a well-formed decode stream and meter transfers.
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 42);
        let c = SessionConfig { ivf: crate::config::IvfMode::Probe(2), ..cfg() };
        let start = SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), c, &toks);
        let mut session = start.session;
        let out = session.generate(&start.logits, 6);
        assert_eq!(out.len(), 6);
        assert!(session.transfer_stats().h2d_bytes > 0);
        let sel = session.last_selected(0, 0);
        assert!(!sel.is_empty());
    }

    #[test]
    #[should_panic(expected = "n_probe must be <= n_list")]
    fn probe_wider_than_the_policys_cells_panics_instead_of_clamping() {
        // Probe(12) is within the default policy's 16 cells, but this
        // policy has 8: the session refuses to start rather than let the
        // kernel clamp the width.
        let model = Model::new(LlmConfig::tiny());
        let c = SessionConfig { ivf: crate::config::IvfMode::Probe(12), ..cfg() };
        let pq = pqc_policies::PqCachePolicyConfig { ivf_n_list: 8, ..Default::default() };
        SelectiveSession::start(&model, Box::new(PqCachePolicy::new(pq)), c, &prompt(80, 43));
    }

    #[test]
    fn try_step_matches_infallible_step_bit_for_bit() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 61);
        let mk = || SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), cfg(), &toks);
        let (ra, rb) = (mk(), mk());
        let mut plain = ra.session;
        let mut fallible = rb.session;
        let mut scratch_a = SessionScratch::new();
        let mut scratch_b = SessionScratch::new();
        let mut next = pqc_tensor::argmax(&ra.logits) as u32;
        for step in 0..6 {
            let p = plain.step_with_scratch(next, &mut scratch_a);
            let f = fallible
                .try_step_with_scratch(next, &mut scratch_b)
                .expect("fault-free step must succeed");
            assert_eq!(p.logits, f.logits, "step {step}");
            next = p.greedy();
        }
        assert_eq!(plain.transfer_stats(), fallible.transfer_stats());
    }

    /// A session on a tier capped to exactly its prefill's page footprint
    /// (4-token pages): the first decode-step eviction that crosses a page
    /// boundary cannot allocate. Returns the session, its first token, and
    /// the cap.
    fn session_at_exact_page_cap(model: &Model, seed: u64) -> (SelectiveSession<'_>, u32, usize) {
        let toks = prompt(72, seed);
        let c = cfg();
        let mcfg = model.config();
        let prefill = model.prefill(&toks, &SelectiveSession::prefill_options(&c, toks.len()));
        let start_in = |tier: &pqc_memhier::KvTier| {
            SelectiveSession::try_start_from_shared_prefix(
                model,
                Box::new(PqCachePolicy::default()),
                c,
                &prefill,
                SessionResources {
                    store: tier.new_namespace(),
                    cache: SessionResources::standalone(model, &c).cache,
                },
                None,
            )
        };
        // Find the exact page footprint with an uncapped dry run.
        let dry = pqc_memhier::KvTier::with_pages(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim, 4, None);
        let start = start_in(&dry).expect("uncapped start");
        let footprint = dry.allocator().pages_in_use();
        drop(start);

        let tier = pqc_memhier::KvTier::with_pages(
            mcfg.n_layers,
            mcfg.n_kv_heads,
            mcfg.head_dim,
            4,
            Some(footprint),
        );
        let start = start_in(&tier).expect("prefill exactly fits the cap");
        let next = pqc_tensor::argmax(&start.logits) as u32;
        (start.session, next, footprint)
    }

    #[test]
    fn try_step_surfaces_store_fault_on_capped_tier() {
        let model = Model::new(LlmConfig::tiny());
        let (mut session, mut next, footprint) = session_at_exact_page_cap(&model, 62);
        let mut scratch = SessionScratch::new();
        // The middle region is not necessarily page aligned — step until
        // the first page boundary forces an alloc.
        let mut fault = None;
        for _ in 0..8 {
            match session.try_step_with_scratch(next, &mut scratch) {
                Ok(out) => next = out.greedy(),
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        match fault.expect("capped tier must fault within a page of appends") {
            StepError::Store(MemError::PageExhausted { max_pages }) => {
                assert_eq!(max_pages, footprint);
            }
            other => panic!("expected PageExhausted, got {other:?}"),
        }
    }

    #[test]
    fn panicking_step_twins_surface_store_faults_too() {
        // The same failed append must not be swallowed by the infallible
        // spellings: `decode` and `step_with_scratch` panic with the store
        // fault instead of returning logits computed from the damaged state.
        let model = Model::new(LlmConfig::tiny());
        for through_scratch in [false, true] {
            let (mut session, mut next, _) = session_at_exact_page_cap(&model, 62);
            let mut scratch = SessionScratch::new();
            let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for _ in 0..8 {
                    let out = if through_scratch {
                        session.step_with_scratch(next, &mut scratch)
                    } else {
                        session.decode(next)
                    };
                    next = out.greedy();
                }
            }));
            let payload = stepped.expect_err("a failed append must not return output");
            let message = panic_message(payload.as_ref());
            assert!(message.contains("session store fault"), "scratch={through_scratch}: {message}");
        }
    }

    #[test]
    fn try_start_fails_typed_when_prefill_exceeds_cap() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(72, 63);
        let c = cfg();
        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::with_pages(
            mcfg.n_layers,
            mcfg.n_kv_heads,
            mcfg.head_dim,
            4,
            Some(1),
        );
        let prefill = model.prefill(&toks, &SelectiveSession::prefill_options(&c, toks.len()));
        let err = SelectiveSession::try_start_from_shared_prefix(
            &model,
            Box::new(PqCachePolicy::default()),
            c,
            &prefill,
            SessionResources {
                store: tier.new_namespace(),
                cache: SessionResources::standalone(&model, &c).cache,
            },
            None,
        )
        .map(|_| ())
        .expect_err("one page cannot hold the prefill middle");
        assert_eq!(err, MemError::PageExhausted { max_pages: 1 });
        assert_eq!(tier.allocator().pages_in_use(), 0, "failed start leaks no pages");
    }

    /// Twin-session harness for the suspend/resume battery: both sessions
    /// start from one prefill inside `tier`, decode `warm` steps in
    /// lockstep, then the closure takes over.
    fn tiered_twins<'m>(
        model: &'m Model,
        tier: &pqc_memhier::KvTier,
        toks: &[u32],
        warm: usize,
    ) -> (SelectiveSession<'m>, SelectiveSession<'m>, u32) {
        let c = cfg();
        let prefill = model.prefill(toks, &SelectiveSession::prefill_options(&c, toks.len()));
        let mk = || {
            SelectiveSession::start_from_prefill_in(
                model,
                Box::new(PqCachePolicy::default()),
                c,
                &prefill,
                SessionResources {
                    store: tier.new_namespace(),
                    cache: SessionResources::standalone(model, &c).cache,
                },
            )
        };
        let (sa, sb) = (mk(), mk());
        let mut a = sa.session;
        let mut b = sb.session;
        let mut next = pqc_tensor::argmax(&sa.logits) as u32;
        for _ in 0..warm {
            let da = a.decode(next);
            let db = b.decode(next);
            assert_eq!(da.logits, db.logits, "twins diverged during warmup");
            next = da.greedy();
        }
        (a, b, next)
    }

    /// The counters a suspend / checkpoint round trip must carry: after the
    /// same number of steps the revived session's record equals its
    /// uninterrupted twin's (a field dropped on the way would reset).
    fn assert_same_record(twin: &SelectiveSession<'_>, revived: &SelectiveSession<'_>) {
        assert_eq!(twin.steps(), revived.steps(), "steps");
        assert_eq!(twin.middle_budget(), revived.middle_budget(), "middle_budget");
    }

    #[test]
    fn suspend_resume_decodes_bit_identically_to_uninterrupted_twin() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 71);
        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim);
        let (mut a, b, mut next) = tiered_twins(&model, &tier, &toks, 4);

        let mid_before = b.middle_len();
        let pos_before = b.store().len(0, 0);
        let suspended = b.suspend(&tier).expect("uncapped tier");
        assert_eq!(suspended.middle_len(), mid_before);
        assert_eq!(suspended.steps(), 4);
        let sw = suspended.swap_stats();
        assert!(sw.d2h_bytes > 0, "suspend must meter the swap offload");
        assert_eq!(sw.h2d_bytes, 0, "nothing fetched yet");

        let c = cfg();
        let cache = SessionResources::standalone(&model, &c).cache;
        let (mut b, swap_transfer) = suspended.resume(&model, cache);
        assert!(swap_transfer.h2d_bytes > 0, "resume must meter the swap fetch");
        assert_eq!(swap_transfer.d2h_bytes, sw.d2h_bytes);
        assert_eq!(b.middle_len(), mid_before, "middle region untouched by the round trip");
        assert_eq!(b.store().len(0, 0), pos_before, "namespace offsets preserved");

        // Post-resume decode must match the never-suspended twin bit for bit
        // (the cold cache changes metering only, never gathered data).
        for step in 0..6 {
            let da = a.decode(next);
            let db = b.decode(next);
            assert_eq!(da.logits, db.logits, "step {step} after resume");
            assert_eq!(
                a.selected_snapshot(),
                b.selected_snapshot(),
                "step {step} selections (trained policy state must survive)"
            );
            next = da.greedy();
        }
        assert_eq!(a.middle_len(), b.middle_len());
        assert_same_record(&a, &b);
    }

    #[test]
    fn suspend_holds_pages_and_discard_releases_them() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(72, 72);
        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim);
        let (a, b, _) = tiered_twins(&model, &tier, &toks, 3);
        drop(a);
        let resident = tier.allocator().pages_in_use();

        let suspended = b.suspend(&tier).expect("uncapped tier");
        // The parked session holds its middle pages and the new swap pages.
        assert!(tier.allocator().pages_in_use() > resident, "swap namespace allocates");

        // Discarding a parked session without resuming it releases
        // everything — no leaks.
        drop(suspended);
        assert_eq!(tier.allocator().pages_in_use(), 0);
    }

    #[test]
    fn resume_after_resume_round_trips_again() {
        // Two suspend/resume cycles back to back: state survives repeated
        // parking (the engine may preempt the same victim more than once).
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 73);
        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim);
        let (mut a, mut b, mut next) = tiered_twins(&model, &tier, &toks, 2);
        let c = cfg();
        let mut swap_total = TransferStats::default();
        for cycle in 0..2 {
            let before = tier.allocator().pages_in_use();
            let suspended = b.suspend(&tier).expect("uncapped tier");
            let cache = SessionResources::standalone(&model, &c).cache;
            let (revived, sw) = suspended.resume(&model, cache);
            assert_eq!(tier.allocator().pages_in_use(), before, "resume releases the swap");
            b = revived;
            swap_total += sw;
            for step in 0..3 {
                let da = a.decode(next);
                let db = b.decode(next);
                assert_eq!(da.logits, db.logits, "cycle {cycle} step {step}");
                next = da.greedy();
            }
        }
        // Swap traffic is symmetric: every offloaded byte is fetched back.
        assert_eq!(swap_total.d2h_bytes, swap_total.h2d_bytes);
        // Aggregate accounting closes: tier-wide = both sessions' middle
        // traffic + the swap round trips.
        assert_eq!(
            tier.aggregate_stats(),
            a.transfer_stats() + b.transfer_stats() + swap_total
        );
        drop((a, b));
        assert_eq!(tier.allocator().pages_in_use(), 0);
    }

    #[test]
    fn failed_suspend_returns_the_session_intact() {
        // Cap the tier at the session's exact footprint: the swap offload
        // cannot allocate, suspend fails recoverably, and the returned
        // victim keeps decoding bit-identically to an untouched twin.
        // page_tokens = 8 with a 62-row middle leaves tail-page slack, so
        // the post-failure decode step appends without allocating.
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(72, 74);
        let c = cfg();
        let mcfg = model.config();
        let prefill = model.prefill(&toks, &SelectiveSession::prefill_options(&c, toks.len()));
        let mk = |tier: &pqc_memhier::KvTier| {
            SelectiveSession::try_start_from_shared_prefix(
                &model,
                Box::new(PqCachePolicy::default()),
                c,
                &prefill,
                SessionResources {
                    store: tier.new_namespace(),
                    cache: SessionResources::standalone(&model, &c).cache,
                },
                None,
            )
        };
        let dry_tier =
            pqc_memhier::KvTier::with_pages(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim, 8, None);
        let dry = mk(&dry_tier).expect("uncapped start");
        let mut twin = dry.session;
        let mut next = pqc_tensor::argmax(&dry.logits) as u32;
        next = twin.decode(next).greedy();
        let footprint = dry_tier.allocator().pages_in_use();

        let capped = pqc_memhier::KvTier::with_pages(
            mcfg.n_layers,
            mcfg.n_kv_heads,
            mcfg.head_dim,
            8,
            Some(footprint),
        );
        let start = mk(&capped).expect("prefill fits the cap");
        let mut victim = start.session;
        let mut vnext = pqc_tensor::argmax(&start.logits) as u32;
        vnext = victim.decode(vnext).greedy();
        assert_eq!(next, vnext);

        let err = victim.suspend(&capped).expect_err("swap offload must exhaust the cap");
        assert!(matches!(err.error, MemError::PageExhausted { .. }));
        assert_eq!(capped.allocator().pages_in_use(), footprint, "partial swap fully released");
        let mut victim = err.session;
        let a = twin.decode(next);
        let b = victim.decode(vnext);
        assert_eq!(a.logits, b.logits, "victim must decode unharmed after the failed suspend");
    }

    #[test]
    fn checkpoint_resumes_bit_identically_while_original_keeps_running() {
        // The crash-recovery contract: checkpoint() must not perturb the
        // live session, and the checkpoint must resume into a session that
        // replays the live session's future bit for bit — even after the
        // live session and its twin are gone, because the snapshot's own
        // page tables keep every page it lists resident.
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 81);
        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim);
        let (mut a, mut b, mut next) = tiered_twins(&model, &tier, &toks, 4);

        let ckpt = b.checkpoint(&tier).expect("uncapped tier").expect("PQCache is forkable");
        assert_eq!(ckpt.steps(), 4);
        assert!(ckpt.swap_stats().d2h_bytes > 0, "checkpoint offload is metered");
        ckpt.verify().expect("fresh checkpoint verifies");

        // The live session keeps decoding, unaffected by the snapshot.
        let replay_next = next;
        let mut live_logits = Vec::new();
        for _ in 0..5 {
            let da = a.decode(next);
            let db = b.decode(next);
            assert_eq!(da.logits, db.logits, "checkpoint perturbed the live session");
            live_logits.push(db.logits);
            next = da.greedy();
        }

        assert_same_record(&a, &b);
        let live_record = (b.steps(), b.middle_budget());
        drop((a, b));
        assert!(tier.allocator().pages_in_use() > 0, "the snapshot holds its pages");
        ckpt.verify().expect("snapshot intact after the live sessions dropped");

        // Resume the checkpoint: it must replay those same 5 steps exactly.
        let c = cfg();
        let cache = SessionResources::standalone(&model, &c).cache;
        let (mut revived, _) = ckpt.resume(&model, cache);
        assert_eq!(revived.steps(), 4);
        let mut rnext = replay_next;
        for (step, expect) in live_logits.iter().enumerate() {
            let d = revived.decode(rnext);
            assert_eq!(&d.logits, expect, "replayed step {step} diverged");
            rnext = d.greedy();
        }
        assert_eq!((revived.steps(), revived.middle_budget()), live_record);
        drop(revived);
        assert_eq!(tier.allocator().pages_in_use(), 0);
    }

    #[test]
    fn corrupted_live_session_faults_but_checkpoint_survives() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(80, 82);
        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim);
        let (_, mut b, mut next) = tiered_twins(&model, &tier, &toks, 4);
        let ckpt = b.checkpoint(&tier).expect("uncapped").expect("forkable");

        assert!(b.corrupt_middle_slot(0, 0, 9));
        ckpt.verify().expect("snapshot holds the pre-corruption bytes");

        // The live session must fault with the typed corruption error as
        // soon as a fetch touches the bad chain — never serving the bytes.
        let mut scratch = SessionScratch::new();
        let mut fault = None;
        for _ in 0..8 {
            match b.try_step_with_scratch(next, &mut scratch) {
                Ok(out) => next = out.greedy(),
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        match fault.expect("corrupt chain must be fetched within a few steps") {
            StepError::Store(MemError::PageCorrupt { .. }) => {}
            other => panic!("expected PageCorrupt, got {other:?}"),
        }
        drop(b);
        drop(ckpt);
        assert_eq!(tier.allocator().pages_in_use(), 0);
    }

    #[test]
    fn checkpoint_skips_unforkable_policies() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(48, 83);
        let mcfg = model.config();
        let tier = pqc_memhier::KvTier::new(mcfg.n_layers, mcfg.n_kv_heads, mcfg.head_dim);
        let c = cfg();
        let prefill = model.prefill(&toks, &SelectiveSession::prefill_options(&c, toks.len()));
        let start = SelectiveSession::start_from_prefill_in(
            &model,
            Box::new(StreamingLlmPolicy),
            c,
            &prefill,
            SessionResources {
                store: tier.new_namespace(),
                cache: SessionResources::standalone(&model, &c).cache,
            },
        );
        let session = start.session;
        let resident = tier.allocator().pages_in_use();
        assert!(
            session.checkpoint(&tier).expect("no store fault").is_none(),
            "non-forkable policy must skip checkpointing"
        );
        assert_eq!(tier.allocator().pages_in_use(), resident, "a skipped checkpoint allocates nothing");
        drop(session);
        assert_eq!(tier.allocator().pages_in_use(), 0);
    }

    #[test]
    fn dropping_budget_gets_compensation() {
        let model = Model::new(LlmConfig::tiny());
        let toks = prompt(64, 7);
        let c = cfg();
        let drop_start =
            SelectiveSession::start(&model, Box::new(StreamingLlmPolicy), c, &toks);
        let retr_start =
            SelectiveSession::start(&model, Box::new(PqCachePolicy::default()), c, &toks);
        assert_eq!(
            drop_start.session.middle_budget(),
            retr_start.session.middle_budget() + c.compensation_tokens(64)
        );
    }
}
