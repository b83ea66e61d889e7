//! The PQCache selection policy (paper §3).
//!
//! At `init` (end of prefill), a PQ codebook is trained per (layer, kv-head)
//! over the middle keys — the paper's Step ❷, with the iteration budget
//! supplied externally (adaptive controller). At each decode step,
//! `select_with_scratch` builds the ADC table from the group query and
//! scores every middle token through its codes (Steps ❸-❹). Tokens evicted
//! from the local window are assigned codes by nearest centroid (Algorithm
//! 2, line 4).

use crate::{
    group_query_into, PolicyContext, PolicyInit, PolicyScratch, SelectionEffort, SelectionPolicy,
    SharedPolicyState,
};
use pqc_pq::{IvfConfig, IvfIndex, IvfMode, PqCodebook, PqCodes, PqConfig};
use std::sync::Arc;

/// PQCache policy hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqCachePolicyConfig {
    /// Sub-space count `m`.
    pub m: usize,
    /// Bits per code `b`.
    pub b: u32,
    /// K-Means iteration budget (from the adaptive controller).
    pub kmeans_iters: usize,
    /// Clustering seed.
    pub seed: u64,
    /// Retrieval routing: `Exact` flat fused scan, or `Probe(n_probe)`
    /// through an IVF tier of [`Self::ivf_n_list`] coarse cells (paper §5's
    /// "other retrieval techniques" direction). `Probe(n_list)` is
    /// bit-identical to `Exact`.
    pub ivf: IvfMode,
    /// Coarse cells per (layer, kv-head) IVF tier when [`Self::ivf`]
    /// probes.
    pub ivf_n_list: usize,
}

impl Default for PqCachePolicyConfig {
    fn default() -> Self {
        // Paper default for LongBench: m=2, b=6 (§4.2.7). Routing stays
        // exact by default; `IvfMode::Probe` opts into the IVF tier.
        Self { m: 2, b: 6, kmeans_iters: 25, seed: 0xBEEF, ivf: IvfMode::Exact, ivf_n_list: 16 }
    }
}

/// The trained state a [`PqCachePolicy`] shares across same-prefix
/// sessions: everything `init` derives deterministically from the middle
/// keys, keyed by the exact configuration that derived it.
#[derive(Debug)]
struct PqSharedState {
    cfg: PqCachePolicyConfig,
    books: Vec<Vec<PqCodebook>>,
    codes: Vec<Vec<PqCodes>>,
    ivf: Vec<Vec<IvfIndex>>,
}

/// Product-quantization-based selective attention.
#[derive(Debug)]
pub struct PqCachePolicy {
    cfg: PqCachePolicyConfig,
    /// `[layer][kv_head]` trained codebooks.
    books: Vec<Vec<PqCodebook>>,
    /// `[layer][kv_head]` per-token codes (grow with evictions).
    codes: Vec<Vec<PqCodes>>,
    /// `[layer][kv_head]` IVF tiers (empty under [`IvfMode::Exact`]; built
    /// alongside the codebooks and grown by `on_evict` otherwise).
    ivf: Vec<Vec<IvfIndex>>,
    /// Reusable eviction-encoding buffer.
    code_buf: Vec<u16>,
    /// Runtime effort override (brownout knob). Full by default; the
    /// serving layer's overload controller dials it per step. Never part
    /// of trained state — `export_shared`/`import_shared` ignore it.
    effort: SelectionEffort,
}

impl PqCachePolicy {
    /// A policy with the given PQ configuration.
    pub fn new(cfg: PqCachePolicyConfig) -> Self {
        Self {
            cfg,
            books: Vec::new(),
            codes: Vec::new(),
            ivf: Vec::new(),
            code_buf: Vec::new(),
            effort: SelectionEffort::full(),
        }
    }

    /// The IVF configuration the policy builds its tiers with (seed derived
    /// per (layer, head) the same way the codebook seeds are).
    fn ivf_config(&self, layer: usize, head: usize) -> IvfConfig {
        IvfConfig {
            n_list: self.cfg.ivf_n_list,
            n_probe: self.cfg.ivf.n_probe().unwrap_or(self.cfg.ivf_n_list),
            max_iters: 8,
            seed: self
                .cfg
                .seed
                .wrapping_add(0x19F0)
                .wrapping_add((layer as u64) << 32 | head as u64),
        }
    }

    /// Cell-length imbalance of the `(layer, kv_head)` IVF tier (0.0 under
    /// [`IvfMode::Exact`]) — the drift meter for appended tokens routed
    /// against build-time coarse centroids; `refresh` (periodic
    /// reconstruction, §5) rebuilds the tiers from scratch.
    pub fn ivf_imbalance(&self, layer: usize, kv_head: usize) -> f64 {
        self.ivf
            .get(layer)
            .and_then(|l| l.get(kv_head))
            .map_or(0.0, IvfIndex::cell_imbalance)
    }

    /// Capacity of the one buffer the policy itself reuses across steps
    /// (eviction codes; the retrieval buffers are the caller's
    /// [`PolicyScratch`]) — exposed so tests can assert zero-allocation
    /// steady state across decode steps.
    pub fn scratch_capacities(&self) -> usize {
        self.code_buf.capacity()
    }

    /// Total construction inertia across all codebooks (diagnostics for the
    /// Fig. 12c iteration sweep).
    pub fn total_inertia(&self) -> f64 {
        self.books.iter().flatten().map(|b| b.inertia()).sum()
    }

    /// K-Means iterations actually run, averaged over codebooks/sub-spaces.
    pub fn mean_iters_run(&self) -> f64 {
        let mut total = 0usize;
        let mut n = 0usize;
        for b in self.books.iter().flatten() {
            for &it in b.iters_run() {
                total += it;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// The PQ configuration in use.
    pub fn pq_config(&self) -> PqConfig {
        PqConfig { m: self.cfg.m, b: self.cfg.b, max_iters: self.cfg.kmeans_iters, seed: self.cfg.seed }
    }
}

impl Default for PqCachePolicy {
    fn default() -> Self {
        Self::new(PqCachePolicyConfig::default())
    }
}

impl SelectionPolicy for PqCachePolicy {
    fn name(&self) -> &'static str {
        "PQCache"
    }

    fn init(&mut self, init: &PolicyInit) {
        let pq_cfg = self.pq_config();
        self.books = Vec::with_capacity(init.n_layers);
        self.codes = Vec::with_capacity(init.n_layers);
        self.ivf = Vec::new();
        for layer_keys in &init.middle_keys {
            let mut lb = Vec::with_capacity(init.n_kv_heads);
            let mut lc = Vec::with_capacity(init.n_kv_heads);
            for (h, keys) in layer_keys.iter().enumerate() {
                let mut cfg_h = pq_cfg;
                cfg_h.seed = pq_cfg.seed.wrapping_add((lb.len() as u64) << 32 | h as u64);
                let (book, codes) = PqCodebook::train(keys, cfg_h);
                lb.push(book);
                lc.push(codes);
            }
            self.books.push(lb);
            self.codes.push(lc);
        }
        if self.cfg.ivf.is_probe() {
            // Build the IVF tiers over the same middle keys the codebooks
            // trained on, one inverted file per (layer, kv-head).
            self.ivf = init
                .middle_keys
                .iter()
                .enumerate()
                .map(|(l, layer_keys)| {
                    layer_keys
                        .iter()
                        .enumerate()
                        .map(|(h, keys)| {
                            IvfIndex::build(keys, &self.codes[l][h], self.ivf_config(l, h))
                        })
                        .collect()
                })
                .collect();
        }
    }

    fn configure_ivf(&mut self, mode: IvfMode) {
        assert!(
            self.books.is_empty(),
            "configure_ivf must run before init (the IVF tiers are built there)"
        );
        self.cfg.ivf = mode;
    }

    fn set_effort(&mut self, effort: SelectionEffort) {
        self.effort = effort;
    }

    fn select_with_scratch(
        &mut self,
        ctx: &PolicyContext<'_>,
        scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let book = &self.books[ctx.layer][ctx.kv_head];
        let codes = &self.codes[ctx.layer][ctx.kv_head];
        let n = codes.len().min(ctx.middle_len);
        // Brownout: degraded effort shrinks the fetched top-k (floored at
        // 1) before the scan runs; full effort passes the budget through
        // untouched — no float math on the identity path.
        let budget = self.effort.effective_k(ctx.budget);
        if n == 0 || budget == 0 {
            return;
        }
        group_query_into(ctx.queries, &mut scratch.q_buf);
        // Steps ❸-❹-❺ fused: ADC table build, blocked SoA column scan
        // streaming straight into the selector (blocks that cannot beat the
        // running k-th-best threshold are skipped without materialising
        // scores) — all through the caller's reusable retriever scratch.
        // Bit-identical to the unfused scan + select pipeline. Under
        // `IvfMode::Probe` the scan is additionally routed through the
        // (layer, head) IVF tier: only the `n_probe` best coarse cells'
        // code columns are walked, making per-step selection cost sublinear
        // in the context length.
        match self.cfg.ivf {
            IvfMode::Probe(n_probe) => {
                let ivf = &self.ivf[ctx.layer][ctx.kv_head];
                let n_probe = self.effort.effective_n_probe(n_probe);
                scratch.retriever.score_and_select_ivf_into(
                    book,
                    ivf,
                    &scratch.q_buf,
                    n,
                    budget,
                    n_probe,
                    out,
                );
            }
            IvfMode::Exact => {
                scratch
                    .retriever
                    .score_and_select_into(book, codes, &scratch.q_buf, n, budget, out);
            }
        }
    }

    fn on_evict(&mut self, layer: usize, kv_head: usize, key: &[f32], _middle_idx: usize) {
        self.books[layer][kv_head].assign_into(key, &mut self.code_buf);
        let codes = &mut self.codes[layer][kv_head];
        codes.push(&self.code_buf);
        if self.cfg.ivf.is_probe() {
            // The token's id is its row in the code table (what the scan
            // bound `n` indexes), which the session keeps equal to the
            // middle offset.
            let id = codes.len() - 1;
            self.ivf[layer][kv_head].append_token(id, key, &self.code_buf);
        }
    }

    /// PQ codes are query-independent: fully prefetchable. Non-overlappable
    /// per-step traffic is zero (the paper's headline efficiency property).
    fn comm_bytes_per_step(&self, _middle_len: usize) -> u64 {
        0
    }

    /// Periodic reconstruction (paper §5): retrain codebooks over the
    /// current middle keys, folding generated tokens into the centroids.
    fn refresh(&mut self, init: &PolicyInit) {
        self.init(init);
    }

    fn prefetch_bytes_per_step(&self, middle_len: usize) -> u64 {
        // m·b bits per token, plus the (tiny, s-independent) centroids are
        // GPU-resident after the first step, so codes dominate.
        ((middle_len * self.cfg.m * self.cfg.b as usize) as u64).div_ceil(8)
    }

    /// Snapshot the trained codebooks/codes/IVF tiers. Training is
    /// deterministically seeded per (layer, head), so the snapshot equals
    /// what any same-configured policy would train over the same middle
    /// keys — importing it skips the k-means without changing a bit.
    fn export_shared(&self) -> Option<SharedPolicyState> {
        if self.books.is_empty() {
            return None;
        }
        Some(SharedPolicyState::new(
            self.name(),
            Arc::new(PqSharedState {
                cfg: self.cfg,
                books: self.books.clone(),
                codes: self.codes.clone(),
                ivf: self.ivf.clone(),
            }),
        ))
    }

    /// Adopt a snapshot exported by a same-configured [`PqCachePolicy`].
    /// Any configuration difference (sub-spaces, bits, iteration budget,
    /// seed, IVF routing) rejects the import — the trained state would not
    /// match what this policy's `init` produces.
    fn import_shared(&mut self, state: &SharedPolicyState) -> bool {
        let Some(shared) = state.state().downcast_ref::<PqSharedState>() else {
            return false;
        };
        if shared.cfg != self.cfg {
            return false;
        }
        self.books = shared.books.clone();
        self.codes = shared.codes.clone();
        self.ivf = shared.ivf.clone();
        true
    }

    /// Deep-copy codebooks, per-token codes, and IVF tiers. Selection is a
    /// pure function of (trained state, query, budget), and `on_evict`
    /// mutates only the copied codes/tiers, so the fork selects
    /// bit-identically to the original forever after — the checkpoint
    /// contract.
    fn fork(&self) -> Option<Box<dyn SelectionPolicy + Send>> {
        // Effort resets to full: it is runtime control state the serving
        // layer re-applies every step, not part of the checkpoint contract
        // (a session replayed on a healthy shard starts at full effort).
        Some(Box::new(Self {
            cfg: self.cfg,
            books: self.books.clone(),
            codes: self.codes.clone(),
            ivf: self.ivf.clone(),
            code_buf: Vec::new(),
            effort: SelectionEffort::full(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retrieval::OraclePolicy;
    use crate::testutil::{query_for, selected, synthetic_init};
    use pqc_tensor::{topk_recall, Matrix, Rng64};

    fn cfg(m: usize, b: u32, iters: usize) -> PqCachePolicyConfig {
        PqCachePolicyConfig { m, b, kmeans_iters: iters, seed: 7, ..Default::default() }
    }

    #[test]
    fn finds_aligned_token() {
        let init = synthetic_init(2, 2, 128, 16, &[], 1);
        let mut p = PqCachePolicy::new(cfg(4, 6, 20));
        p.init(&init);
        let q = query_for(&init, 1, 0, 77);
        let ctx = PolicyContext { layer: 1, kv_head: 0, queries: &q, budget: 5, middle_len: 128 };
        let sel = selected(&mut p, &ctx);
        assert!(sel.contains(&77), "{sel:?}");
    }

    #[test]
    fn recall_against_oracle_reasonable() {
        let init = synthetic_init(1, 1, 400, 32, &[], 2);
        let mut oracle = OraclePolicy::default();
        let mut pq = PqCachePolicy::new(cfg(4, 8, 25));
        oracle.init(&init);
        pq.init(&init);
        let mut rng = Rng64::new(9);
        let mut recall = 0.0;
        let trials = 15;
        for _ in 0..trials {
            let q = Matrix::randn(2, 32, 1.0, &mut rng);
            let mk = |queries| PolicyContext { layer: 0, kv_head: 0, queries, budget: 40, middle_len: 400 };
            let exact = selected(&mut oracle, &mk(&q));
            recall += topk_recall(&exact, &selected(&mut pq, &mk(&q)));
        }
        recall /= trials as f64;
        assert!(recall > 0.6, "recall {recall}");
    }

    #[test]
    fn more_iterations_not_worse() {
        // Fig. 12c: more clustering iterations generally help (inertia
        // strictly non-increasing; recall statistically better).
        let init = synthetic_init(1, 1, 300, 16, &[], 3);
        let mut p0 = PqCachePolicy::new(cfg(2, 6, 0));
        let mut p25 = PqCachePolicy::new(cfg(2, 6, 25));
        p0.init(&init);
        p25.init(&init);
        assert!(p25.total_inertia() <= p0.total_inertia() + 1e-6);
        assert!(p25.mean_iters_run() > p0.mean_iters_run());
    }

    #[test]
    fn evicted_token_becomes_retrievable() {
        let init = synthetic_init(1, 1, 64, 16, &[], 4);
        let mut p = PqCachePolicy::new(cfg(2, 5, 15));
        p.init(&init);
        let key = vec![2.0f32; 16];
        p.on_evict(0, 0, &key, 64);
        let mut q = Matrix::zeros(1, 16);
        q.copy_row_from(0, &key);
        let ctx = PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 3, middle_len: 65 };
        let sel = selected(&mut p, &ctx);
        assert!(sel.contains(&64), "{sel:?}");
    }

    #[test]
    fn comm_is_prefetchable_only() {
        let init = synthetic_init(1, 1, 64, 16, &[], 5);
        let mut p = PqCachePolicy::new(cfg(2, 6, 5));
        p.init(&init);
        assert_eq!(p.comm_bytes_per_step(100_000), 0);
        // m=2, b=6: 12 bits -> 1.5 bytes/token.
        assert_eq!(p.prefetch_bytes_per_step(1000), 1500);
    }

    #[test]
    fn comm_budget_below_paper_bound() {
        // §4.1.3: codes/keys ratio m·b/(16·dh) must be ≤ 1/128 for the
        // LongBench config at dh=128.
        let p = PqCachePolicy::new(cfg(2, 6, 5));
        let ratio = p.pq_config().comm_ratio(128);
        assert!(ratio <= 1.0 / 128.0 + 1e-12, "ratio {ratio}");
    }

    #[test]
    fn shared_scratch_selects_identically() {
        // One PolicyScratch shared by two policies (as the serve engine
        // shares one per worker) must reproduce exactly what each policy
        // selects through a fresh scratch.
        let init_a = synthetic_init(1, 1, 200, 16, &[], 21);
        let init_b = synthetic_init(1, 1, 170, 16, &[], 22);
        let mut pa = PqCachePolicy::new(cfg(2, 6, 10));
        let mut pb = PqCachePolicy::new(cfg(2, 6, 10));
        pa.init(&init_a);
        pb.init(&init_b);
        let mut shared = crate::PolicyScratch::new();
        let mut rng = Rng64::new(23);
        for _ in 0..6 {
            let q = Matrix::randn(2, 16, 1.0, &mut rng);
            for (p, mid) in [(&mut pa, 200usize), (&mut pb, 170)] {
                let ctx =
                    PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 17, middle_len: mid };
                let fresh = selected(p, &ctx);
                let mut ext = Vec::new();
                p.select_with_scratch(&ctx, &mut shared, &mut ext);
                assert_eq!(fresh, ext);
            }
        }
    }

    #[test]
    fn probe_all_cells_matches_exact_mode() {
        // IvfMode::Probe(n_list) scans every cell exactly once: selections
        // must be bit-identical to IvfMode::Exact, evictions included.
        let init = synthetic_init(2, 2, 260, 16, &[], 31);
        let mk = |ivf| {
            let mut p = PqCachePolicy::new(PqCachePolicyConfig {
                ivf,
                ivf_n_list: 8,
                ..cfg(2, 6, 12)
            });
            p.init(&init);
            p
        };
        let mut exact = mk(IvfMode::Exact);
        let mut probe = mk(IvfMode::Probe(8));
        let mut rng = Rng64::new(33);
        for step in 0..8 {
            if step == 4 {
                // Interleave evictions: the IVF tier must track appends.
                let key: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 1.0)).collect();
                for p in [&mut exact, &mut probe] {
                    p.on_evict(1, 0, &key, 260);
                }
            }
            let q = Matrix::randn(2, 16, 1.0, &mut rng);
            for (layer, head, mid) in [(0usize, 1usize, 260usize), (1, 0, 261)] {
                let ctx = PolicyContext {
                    layer,
                    kv_head: head,
                    queries: &q,
                    budget: 24,
                    middle_len: mid,
                };
                assert_eq!(
                    selected(&mut exact, &ctx),
                    selected(&mut probe, &ctx),
                    "step {step} l{layer}h{head}"
                );
            }
        }
    }

    #[test]
    fn probe_mode_tracks_imbalance() {
        // The drift meter must actually *move*: evicting a stream of
        // identical keys routes them all into one cell, so the reported
        // max/mean imbalance strictly grows with the appends.
        let init = synthetic_init(1, 1, 120, 16, &[], 35);
        let mut p = PqCachePolicy::new(PqCachePolicyConfig {
            ivf: IvfMode::Probe(2),
            ivf_n_list: 4,
            ..cfg(2, 5, 8)
        });
        assert_eq!(p.ivf_imbalance(0, 0), 0.0, "no tier before init");
        p.init(&init);
        let built = p.ivf_imbalance(0, 0);
        assert!(built >= 1.0, "built tier reports imbalance");
        let skew_key = vec![3.0f32; 16];
        for i in 0..120 {
            p.on_evict(0, 0, &skew_key, 120 + i);
        }
        let skewed = p.ivf_imbalance(0, 0);
        assert!(
            skewed > built + 0.3,
            "skewed appends must raise the meter: {built:.2} -> {skewed:.2}"
        );
    }

    #[test]
    fn imported_shared_state_is_bit_identical_to_training() {
        // The prefix-sharing contract: adopting an exported snapshot must
        // select exactly what a freshly-trained policy selects, including
        // after evictions, in both routing modes.
        for ivf in [IvfMode::Exact, IvfMode::Probe(3)] {
            let init = synthetic_init(2, 2, 150, 16, &[], 41);
            let mk = || {
                PqCachePolicy::new(PqCachePolicyConfig { ivf, ivf_n_list: 4, ..cfg(2, 6, 12) })
            };
            let mut trained = mk();
            trained.init(&init);
            let snapshot = trained.export_shared().expect("trained policy exports");
            let mut adopted = mk();
            assert!(adopted.import_shared(&snapshot), "same config must import");

            let mut rng = Rng64::new(43);
            for step in 0..6 {
                if step == 3 {
                    let key: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 1.0)).collect();
                    trained.on_evict(0, 1, &key, 150);
                    adopted.on_evict(0, 1, &key, 150);
                }
                let q = Matrix::randn(2, 16, 1.0, &mut rng);
                for (l, h, mid) in [(0usize, 1usize, 150usize), (1, 0, 150)] {
                    let ctx = PolicyContext {
                        layer: l,
                        kv_head: h,
                        queries: &q,
                        budget: 20,
                        middle_len: mid + usize::from(step >= 3 && l == 0 && h == 1),
                    };
                    assert_eq!(
                        selected(&mut trained, &ctx),
                        selected(&mut adopted, &ctx),
                        "import diverged at step {step} ({ivf:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn import_rejects_mismatched_config_and_untrained_export() {
        let init = synthetic_init(1, 1, 80, 16, &[], 45);
        let untrained = PqCachePolicy::new(cfg(2, 6, 10));
        assert!(untrained.export_shared().is_none(), "nothing to share before init");
        let mut trained = PqCachePolicy::new(cfg(2, 6, 10));
        trained.init(&init);
        let snap = trained.export_shared().expect("export");
        // Different m: reject and leave the importer untouched.
        let mut other = PqCachePolicy::new(cfg(4, 6, 10));
        assert!(!other.import_shared(&snap));
        assert!(other.export_shared().is_none(), "rejected import must not mutate");
        // Different routing mode: reject too.
        let mut probed = PqCachePolicy::new(PqCachePolicyConfig {
            ivf: IvfMode::Probe(2),
            ivf_n_list: 4,
            ..cfg(2, 6, 10)
        });
        assert!(!probed.import_shared(&snap));
        // A foreign payload under the right name: reject.
        let fake = SharedPolicyState::new("PQCache", std::sync::Arc::new(17u32));
        let mut p = PqCachePolicy::new(cfg(2, 6, 10));
        assert!(!p.import_shared(&fake));
    }

    #[test]
    fn fork_selects_bit_identically_and_diverges_independently() {
        let init = synthetic_init(2, 2, 140, 16, &[], 51);
        let mut orig = PqCachePolicy::new(cfg(2, 6, 12));
        orig.init(&init);
        // Accrue some mid-decode state before forking.
        let mut rng = Rng64::new(53);
        let key: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        orig.on_evict(0, 0, &key, 140);

        let mut forked = orig.fork().expect("PQCache is forkable");
        for step in 0..5 {
            let q = Matrix::randn(2, 16, 1.0, &mut rng);
            let ctx =
                PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 18, middle_len: 141 };
            assert_eq!(
                selected(&mut orig, &ctx),
                selected(forked.as_mut(), &ctx),
                "fork diverged at step {step}"
            );
        }
        // Post-fork evictions are independent: mutating the original must
        // not leak into the fork's code table.
        let late: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        orig.on_evict(0, 0, &late, 141);
        let mut q = Matrix::zeros(1, 16);
        q.copy_row_from(0, &late.iter().map(|v| v * 3.0).collect::<Vec<_>>());
        let ctx = PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 3, middle_len: 142 };
        assert!(selected(&mut orig, &ctx).contains(&141));
        let sel = selected(forked.as_mut(), &PolicyContext { middle_len: 141, queries: &q, ..ctx });
        assert!(sel.iter().all(|&i| i < 141), "fork must not see post-fork evictions");
    }

    #[test]
    fn respects_budget_and_middle_len() {
        let init = synthetic_init(1, 1, 50, 16, &[], 6);
        let mut p = PqCachePolicy::new(cfg(2, 4, 5));
        p.init(&init);
        let q = Matrix::zeros(1, 16);
        let ctx = PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 7, middle_len: 30 };
        let sel = selected(&mut p, &ctx);
        assert!(sel.len() <= 7);
        assert!(sel.iter().all(|&i| i < 30));
    }
}
