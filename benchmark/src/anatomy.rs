//! The benchmark's own single-thread driver. It re-enacts a workload's
//! requests through the public session API — prefill, session start, decode
//! steps — and, when tracing, replays every [`REPLAY_EVERY`]th step's calls
//! into each layer crate with that step's data, one span per call.
//!
//! Run with tracing off it is the sequential reference the correctness gate
//! compares `ServeEngine` against; the traced and untraced passes must
//! generate identical tokens, and their wall ratio is the tracing overhead.
//!
//! Known limits of timing from outside: the replayed calls run on shadow
//! structures (a PQ codebook, codes, IVF index, policy, block cache and host
//! store built from the same prefill keys) that grow only by the replayed
//! evictions, so they lag the live session's middle length; replayed
//! selections use a stored key row as the query, because the live query
//! never leaves `Model::decode_step`; and the replayed fetch moves every
//! selected row, where the live step fetches only the cache misses and then
//! gathers all rows host-side.

use crate::trace::{Recorder, SpanId, ROOT};
use crate::workloads::{fold_selection, Output, FNV_OFFSET};
use pqc_cache::{top_blocks, BlockCache};
use pqc_core::{SelectiveSession, SessionConfig, SessionResources, SessionScratch};
use pqc_llm::{
    attend_selected_into, DecodeScratch, FullKvSource, LayerKv, Model, PrefillOptions,
    PrefillOutput,
};
use pqc_memhier::{HostKvStore, KvTier};
use pqc_policies::{
    group_query, PolicyContext, PolicyInit, PolicyScratch, PqCachePolicy, PqCachePolicyConfig,
    SelectionPolicy, SharedPolicyState,
};
use pqc_pq::{AdcTable, IvfConfig, IvfIndex, PqCodebook, PqCodes, PqConfig, PqRetriever};
use pqc_tensor::{argmax, topk_recall, AssignScratch, Matrix, TopK};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Decode steps between replays.
pub const REPLAY_EVERY: usize = 8;

/// Where a request's KV comes from.
#[derive(Clone, Copy)]
pub enum Prompt<'a> {
    /// Prefill these tokens with the model.
    Tokens(&'a [u32]),
    /// Use this fabricated prefill output as is (`deep_*`).
    Fabricated(&'a PrefillOutput),
}

/// The serve features the driver re-enacts.
#[derive(Clone, Copy)]
pub struct DriverConfig {
    pub session: SessionConfig,
    pub policy: PqCachePolicyConfig,
    /// Host-tier page size; sessions draw namespaces from one `KvTier`.
    pub page_tokens: usize,
    /// Adopt identical prompts from the tier's prefix registry.
    pub prefix_cache: bool,
    pub prefill_chunk: Option<usize>,
    /// Checkpoint every this many of a session's steps.
    pub checkpoint_every: Option<usize>,
}

/// What the first session of a prompt leaves in the prefix registry.
struct SharedPrefix {
    prefill: PrefillOutput,
    policy: Option<SharedPolicyState>,
}

/// Shadow structures of one request, built from its prefill keys.
struct Shadow {
    /// Middle keys per slot, `layer * n_kv_heads + head`.
    keys: Vec<Matrix>,
    books: Vec<PqCodebook>,
    codes: Vec<PqCodes>,
    /// Empty unless the session routes through IVF.
    ivf: Vec<IvfIndex>,
    policy: Box<dyn SelectionPolicy + Send>,
    store: HostKvStore,
    cache: BlockCache,
}

/// Counts the driver keeps beside the spans.
#[derive(Default)]
pub struct DriverStats {
    /// Every decode step's duration, in seconds.
    pub step_s: Vec<f64>,
    /// Per replayed step: 1 − Σ replayed calls ÷ the live step.
    pub unattributed: Vec<f64>,
    /// Per replayed selection: share of it not spent in `pq` calls.
    pub select_self: Vec<f64>,
    pub ivf_scan_frac: Vec<f64>,
    pub ivf_recall: Vec<f64>,
    pub h2d_bytes: u64,
    pub steps: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub prefix_lookups: u64,
    pub prefix_hits: u64,
}

pub struct Driver<'m> {
    model: &'m Model,
    cfg: DriverConfig,
    tier: KvTier,
    pub rec: Recorder,
    pub stats: DriverStats,
    scratch: SessionScratch,
    /// Pristine shadows of registered prompts, forked for each adopter.
    shadows: HashMap<Vec<u32>, Shadow>,
    // Replay scratch, reused across steps like the live scratch chain.
    policy_scratch: PolicyScratch,
    retriever: PqRetriever,
    table: AdcTable,
    dense: DecodeScratch,
    attn_scores: Vec<f32>,
    attn_out: Vec<f32>,
    ids: Vec<usize>,
    code_buf: Vec<u16>,
}

impl<'m> Driver<'m> {
    pub fn new(model: &'m Model, cfg: DriverConfig, trace: bool) -> Self {
        let m = model.config();
        Self {
            model,
            cfg,
            tier: KvTier::with_pages(m.n_layers, m.n_kv_heads, m.head_dim, cfg.page_tokens, None),
            rec: Recorder::new(trace),
            stats: DriverStats::default(),
            scratch: SessionScratch::new(),
            shadows: HashMap::new(),
            policy_scratch: PolicyScratch::new(),
            retriever: PqRetriever::new(),
            table: AdcTable::default(),
            dense: DecodeScratch::new(),
            attn_scores: Vec::new(),
            attn_out: Vec::new(),
            ids: Vec::new(),
            code_buf: Vec::new(),
        }
    }

    /// The host tier every session of this driver draws its namespace from.
    pub fn tier(&self) -> &KvTier {
        &self.tier
    }

    fn policy(&self) -> Box<dyn SelectionPolicy + Send> {
        Box::new(PqCachePolicy::new(self.cfg.policy))
    }

    fn resources(&self, store: HostKvStore) -> SessionResources {
        SessionResources {
            store,
            cache: block_cache(&self.cfg.session),
        }
    }

    fn prefill(&mut self, tokens: &[u32], id: u64, root: SpanId) -> PrefillOutput {
        let opts = PrefillOptions {
            parallel: false,
            ..SelectiveSession::prefill_options(&self.cfg.session, tokens.len())
        };
        let span = self.rec.open("llm.prefill", id, root);
        let out = match self.cfg.prefill_chunk {
            None => self.model.prefill(tokens, &opts),
            Some(chunk) => {
                let mut job = self.model.begin_prefill(tokens, &opts);
                while !job.is_done() {
                    self.rec.time("llm.prefill_chunk", id, span, || {
                        let rows = job.advance(chunk);
                        ((), rows as u64)
                    });
                }
                job.finish()
            }
        };
        self.rec.close(span, tokens.len() as u64);
        out
    }

    /// Serve one request to completion; returns what it generated.
    pub fn run_request(&mut self, id: u64, prompt: Prompt<'_>, decode_steps: usize) -> Output {
        let model = self.model;
        let root = self.rec.open("driver.request", id, ROOT);
        let tokens = match prompt {
            Prompt::Tokens(t) => Some(t),
            Prompt::Fabricated(_) => None,
        };

        // Admission: adopt a registered identical prompt, or prefill.
        let hit = match tokens {
            Some(t) if self.cfg.prefix_cache => {
                self.stats.prefix_lookups += 1;
                let span = self.rec.open("memhier.prefix_lookup", id, root);
                let hit = self.tier.lookup_prefix(t).filter(|h| h.len() == t.len());
                let store = hit.as_ref().map(|h| self.tier.new_namespace_with_prefix(h));
                self.rec.close(span, 1);
                hit.zip(store)
            }
            _ => None,
        };
        let (start, mut shadow) = match hit {
            Some((hit, store)) => {
                self.stats.prefix_hits += 1;
                let shared = Arc::clone(hit.payload())
                    .downcast::<SharedPrefix>()
                    .expect("prefix payload registered by this driver");
                let resources = self.resources(store);
                let policy = self.policy();
                let start = self.rec.time("core.shared_start", id, root, || {
                    let s = SelectiveSession::start_from_shared_prefix(
                        model,
                        policy,
                        self.cfg.session,
                        &shared.prefill,
                        resources,
                        shared.policy.as_ref(),
                    );
                    (s, 1)
                });
                let shadow = self.rec.enabled().then(|| {
                    if let Some(state) = &shared.policy {
                        let mut fresh = PqCachePolicy::new(self.cfg.policy);
                        if self.cfg.session.ivf.is_probe() {
                            fresh.configure_ivf(self.cfg.session.ivf);
                        }
                        self.rec.time("policies.import_shared", id, root, || {
                            (fresh.import_shared(state), 1)
                        });
                    }
                    let pristine = &self.shadows[tokens.expect("prefix hits have tokens")];
                    fork_shadow(pristine, &self.cfg)
                });
                (start, shadow)
            }
            None => {
                let owned;
                let prefill = match prompt {
                    Prompt::Tokens(t) => {
                        owned = self.prefill(t, id, root);
                        &owned
                    }
                    Prompt::Fabricated(p) => p,
                };
                let resources = self.resources(self.tier.new_namespace());
                let policy = self.policy();
                let span = self.rec.open("core.session_start", id, root);
                let start = SelectiveSession::start_from_prefill_in(
                    model,
                    policy,
                    self.cfg.session,
                    prefill,
                    resources,
                );
                self.rec.close(span, prefill.kv[0].len() as u64);
                let shadow = self
                    .rec
                    .enabled()
                    .then(|| self.build_shadow(prefill, id, span));
                if let (Some(t), true) = (tokens, self.cfg.prefix_cache) {
                    let payload = SharedPrefix {
                        prefill: prefill.clone(),
                        policy: start.session.export_policy_state(),
                    };
                    self.tier
                        .register_prefix(t, start.session.store(), Arc::new(payload));
                    if let Some(s) = &shadow {
                        self.shadows.insert(t.to_vec(), fork_shadow(s, &self.cfg));
                    }
                }
                (start, shadow)
            }
        };

        let mut session = start.session;
        let prompt_len = session.middle_len() + self.cfg.session.n_init + self.cfg.session.n_local;
        let mut next = argmax(&start.logits) as u32;
        let mut generated = Vec::with_capacity(decode_steps);
        let mut selection = FNV_OFFSET;
        for step in 0..decode_steps {
            generated.push(next);
            let token = next;
            let span = self.rec.open("core.step", id, root);
            let t = Instant::now();
            let out = session.step_with_scratch(token, &mut self.scratch);
            self.stats.step_s.push(t.elapsed().as_secs_f64());
            self.rec.close(span, 1);
            next = out.greedy();
            fold_selection(&mut selection, &session, model);

            if self
                .cfg
                .checkpoint_every
                .is_some_and(|every| (step + 1) % every == 0)
            {
                let tier = &self.tier;
                self.rec.time("core.checkpoint", id, root, || {
                    let snapshot = session.checkpoint(tier).expect("uncapped pool");
                    (drop(snapshot), 1)
                });
                self.rec.time("memhier.fork", id, root, || {
                    (drop(tier.fork_namespace(session.store())), 1)
                });
            }
            if let Some(shadow) = shadow.as_mut().filter(|_| (step + 1) % REPLAY_EVERY == 0) {
                self.replay(&session, shadow, id, span, step, token, prompt_len + step);
            }
        }
        self.stats.steps += decode_steps as u64;
        let cache = session.cache_stats();
        self.stats.cache_hits += cache.token_hits;
        self.stats.cache_lookups += cache.token_lookups;
        if !self.rec.enabled() {
            // Replayed fetches meter into the live store, so transfer
            // volume is only read on the untraced pass.
            self.stats.h2d_bytes += session.transfer_stats().h2d_bytes;
        }
        self.rec.close(root, decode_steps as u64);
        Output {
            id,
            tokens: generated,
            selection,
        }
    }

    /// Build the shadow structures from the prefill's middle keys, one span
    /// per layer call; `parent` is the live session-start span.
    fn build_shadow(&mut self, prefill: &PrefillOutput, id: u64, parent: SpanId) -> Shadow {
        let m = *self.model.config();
        let scfg = self.cfg.session;
        let s = prefill.kv[0].len();
        let (lo, hi) = (scfg.n_init, s - scfg.n_local);
        let slots: Vec<(usize, usize)> = (0..m.n_layers)
            .flat_map(|l| (0..m.n_kv_heads).map(move |h| (l, h)))
            .collect();
        let keys: Vec<Matrix> = slots
            .iter()
            .map(|&(l, h)| prefill.kv[l].keys[h].slice_rows(lo, hi))
            .collect();

        let mut policy = PqCachePolicy::new(self.cfg.policy);
        if scfg.ivf.is_probe() {
            policy.configure_ivf(scfg.ivf);
        }
        let init = PolicyInit {
            n_layers: m.n_layers,
            n_kv_heads: m.n_kv_heads,
            head_dim: m.head_dim,
            middle_keys: keys.chunks(m.n_kv_heads).map(<[Matrix]>::to_vec).collect(),
            accum_scores: None,
            window_scores: None,
        };
        let init_span = self.rec.open("policies.init", id, parent);
        policy.init(&init);
        self.rec.close(init_span, (hi - lo) as u64);

        let pq = policy.pq_config();
        let mut books = Vec::with_capacity(slots.len());
        let mut codes = Vec::with_capacity(slots.len());
        let mut ivf = Vec::new();
        let mut store = HostKvStore::new(m.n_layers, m.n_kv_heads, m.head_dim);
        for (slot, &(l, h)) in slots.iter().enumerate() {
            // The per-(layer, head) seeds `PqCachePolicy::init` derives.
            let salt = (l as u64) << 32 | h as u64;
            let cfg_h = PqConfig {
                seed: pq.seed.wrapping_add(salt),
                ..pq
            };
            let (book, code) = self.rec.time("pq.train", id, init_span, || {
                let (book, code) = PqCodebook::train(&keys[slot], cfg_h);
                let iters = book.iters_run().iter().sum::<usize>() as u64;
                ((book, code), iters)
            });
            if let Some(n_probe) = scfg.ivf.n_probe() {
                let icfg = IvfConfig {
                    n_list: self.cfg.policy.ivf_n_list,
                    n_probe,
                    max_iters: 8,
                    seed: self.cfg.policy.seed.wrapping_add(0x19F0).wrapping_add(salt),
                };
                ivf.push(self.rec.time("pq.ivf_build", id, init_span, || {
                    (IvfIndex::build(&keys[slot], &code, icfg), (hi - lo) as u64)
                }));
            }
            let (k, v) = (
                keys[slot].clone(),
                prefill.kv[l].values[h].slice_rows(lo, hi),
            );
            self.rec.time("memhier.offload", id, parent, || {
                (store.offload(l, h, k, v), (hi - lo) as u64)
            });
            books.push(book);
            codes.push(code);
        }

        // Kernel probes at this request's sizes, on slot 0.
        let rows = keys[0].rows().min(4096);
        let dm = books[0].dm();
        let sub = Matrix::from_fn(rows, dm, |i, j| keys[0].get(i, j));
        let mut assignments = vec![0u32; rows];
        let mut assign = AssignScratch::new();
        self.rec.time("tensor.assign", id, parent, || {
            (
                assign.assign(&sub, books[0].centroids(0), &mut assignments),
                rows as u64,
            )
        });
        let scores = AdcTable::build(&books[0], keys[0].row(0)).score_all(&codes[0]);
        let budget = scfg.middle_budget(s).clamp(1, scores.len());
        let mut topk = TopK::new();
        let mut picked = Vec::new();
        self.rec.time("tensor.topk", id, parent, || {
            (
                topk.select_into(&scores, budget, &mut picked),
                scores.len() as u64,
            )
        });

        Shadow {
            keys,
            books,
            codes,
            ivf,
            policy: Box::new(policy),
            store,
            cache: block_cache(&scfg),
        }
    }

    /// Replay one live step's calls into each layer, each as a span under
    /// the step's span.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        session: &SelectiveSession<'_>,
        shadow: &mut Shadow,
        id: u64,
        step_span: SpanId,
        step: usize,
        token: u32,
        pos: usize,
    ) {
        let m = *self.model.config();
        let scfg = self.cfg.session;
        let group = m.group_size();
        let mut attributed_ns = 0u64;
        // Time a top-level replayed call and add it to the step's total.
        // Replays only run on a traced pass, so every span is recorded.
        macro_rules! top {
            ($name:expr, $count:expr, $body:expr) => {{
                let span = self.rec.open($name, id, step_span);
                let out = $body;
                self.rec.close(span, $count as u64);
                attributed_ns += self.rec.spans[span as usize].dur_ns();
                (out, span)
            }};
        }

        for l in 0..m.n_layers {
            for h in 0..m.n_kv_heads {
                let slot = l * m.n_kv_heads + h;
                let n = shadow.codes[slot].len();
                let budget = session.middle_budget().min(n);
                let row = |i: usize| shadow.keys[slot].row(i % shadow.keys[slot].rows());
                let queries = Matrix::from_fn(group, m.head_dim, |g, j| row(step * 31 + g * 7)[j]);

                // Selection, then its pq children under the selection span.
                let ctx = PolicyContext {
                    layer: l,
                    kv_head: h,
                    queries: &queries,
                    budget,
                    middle_len: n,
                };
                let (_, select_span) = top!(
                    "policies.select",
                    budget,
                    shadow.policy.select_with_scratch(
                        &ctx,
                        &mut self.policy_scratch,
                        &mut self.ids
                    )
                );
                let gq = group_query(&queries);
                let pq_span = match scfg.ivf.n_probe() {
                    None => {
                        let span = self.rec.open("pq.scan_select", id, select_span);
                        self.retriever.score_and_select_into(
                            &shadow.books[slot],
                            &shadow.codes[slot],
                            &gq,
                            n,
                            budget,
                            &mut self.ids,
                        );
                        self.rec.close(span, n as u64);
                        span
                    }
                    Some(n_probe) => {
                        let span = self.rec.open("pq.ivf_select", id, select_span);
                        let stats = self.retriever.score_and_select_ivf_into(
                            &shadow.books[slot],
                            &shadow.ivf[slot],
                            &gq,
                            n,
                            budget,
                            n_probe,
                            &mut self.ids,
                        );
                        self.rec.close(span, stats.scanned_tokens as u64);
                        self.stats
                            .ivf_scan_frac
                            .push(stats.scanned_tokens as f64 / n.max(1) as f64);
                        // Recall of the routed selection against the flat scan.
                        let routed = std::mem::take(&mut self.ids);
                        self.retriever.score_and_select_into(
                            &shadow.books[slot],
                            &shadow.codes[slot],
                            &gq,
                            n,
                            budget,
                            &mut self.ids,
                        );
                        self.stats.ivf_recall.push(topk_recall(&self.ids, &routed));
                        span
                    }
                };
                let dur = |span: SpanId| self.rec.spans[span as usize].dur_ns() as f64;
                self.stats
                    .select_self
                    .push((1.0 - dur(pq_span) / dur(select_span).max(1.0)).max(0.0));
                self.rec.time("pq.adc_build", id, pq_span, || {
                    (self.table.rebuild(&shadow.books[slot], &gq), 1)
                });

                // The live step's selected ids, middle-relative.
                let live: Vec<usize> = session
                    .last_selected(l, h)
                    .iter()
                    .map(|&abs| abs - scfg.n_init)
                    .collect();
                let shadow_ids: Vec<usize> = live.iter().copied().filter(|&i| i < n).collect();
                top!(
                    "cache.lookup",
                    shadow_ids.len(),
                    shadow.cache.lookup(&shadow_ids)
                );
                let blocks = top_blocks(
                    &shadow_ids,
                    scfg.cache.block_size,
                    scfg.cache.k_cache_blocks,
                );
                top!("cache.update", blocks.len(), shadow.cache.update(&blocks));
                let ((fk, fv), _) = top!(
                    "memhier.fetch",
                    live.len(),
                    session
                        .store()
                        .try_fetch(l, h, &live)
                        .expect("live store holds its selection")
                );

                // Attention over init ∪ selected ∪ local many keys.
                let pad = shadow.keys[slot].slice_rows(0, (scfg.n_init + scfg.n_local).min(n));
                let (ak, av) = (fk.vstack(&pad), fv.vstack(&pad));
                for g in 0..group {
                    top!(
                        "llm.attend_selected",
                        ak.rows(),
                        attend_selected_into(
                            queries.row(g),
                            &ak,
                            &av,
                            &mut self.attn_scores,
                            &mut self.attn_out
                        )
                    );
                }

                // Eviction: host append, then the policy's encode path.
                let evicted = row(step * 17 + 3).to_vec();
                top!(
                    "memhier.append",
                    1,
                    shadow.store.append_token(l, h, &evicted, &evicted)
                );
                let (_, evict_span) = top!(
                    "policies.on_evict",
                    1,
                    shadow.policy.on_evict(l, h, &evicted, n)
                );
                self.rec.time("pq.encode", id, evict_span, || {
                    (
                        shadow.books[slot].assign_into(&evicted, &mut self.code_buf),
                        1,
                    )
                });
                shadow.codes[slot].push(&self.code_buf);
                if let Some(ivf) = shadow.ivf.get_mut(slot) {
                    let next_id = ivf.len();
                    self.rec.time("pq.ivf_append", id, evict_span, || {
                        (ivf.append_token(next_id, &evicted, &self.code_buf), 1)
                    });
                }
            }
        }

        // The dense remainder of a step: QKV, FFN and logits over a
        // minimal init + local KV.
        let small = (scfg.n_init + scfg.n_local).min(shadow.keys[0].rows());
        let head_rows = |l: usize| -> Vec<Matrix> {
            (0..m.n_kv_heads)
                .map(|h| shadow.keys[l * m.n_kv_heads + h].slice_rows(0, small))
                .collect()
        };
        let layers = (0..m.n_layers).map(|l| LayerKv {
            keys: head_rows(l),
            values: head_rows(l),
        });
        let mut source = FullKvSource::new(layers.collect());
        top!(
            "llm.dense_step",
            1,
            self.model
                .decode_step_with_scratch(token, pos, &mut source, &mut self.dense)
        );
        self.rec.time("memhier.verify", id, step_span, || {
            (session.store().verify().expect("live store is intact"), 1)
        });
        let step_ns = self.rec.spans[step_span as usize].dur_ns().max(1);
        self.stats
            .unattributed
            .push(1.0 - attributed_ns as f64 / step_ns as f64);
    }
}

/// A private copy of `shadow` with fresh cache state, as an adopter of the
/// same prompt would hold.
fn fork_shadow(shadow: &Shadow, cfg: &DriverConfig) -> Shadow {
    Shadow {
        keys: shadow.keys.clone(),
        books: shadow.books.clone(),
        codes: shadow.codes.clone(),
        ivf: shadow.ivf.clone(),
        policy: shadow.policy.fork().expect("PqCachePolicy forks"),
        store: shadow.store.clone(),
        cache: block_cache(&cfg.session),
    }
}

/// An empty block cache of the session's configured geometry.
fn block_cache(session: &SessionConfig) -> BlockCache {
    let c = session.cache;
    BlockCache::new(c.capacity_tokens, c.block_size, c.policy())
}
