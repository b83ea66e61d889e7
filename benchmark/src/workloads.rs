//! The four workloads: seeded input generation, the warm-up pass, and one
//! timed rep of each through the repo's public entry points.

use pqc_core::{CacheConfig, IvfMode, SelectiveSession, SessionConfig, SessionScratch};
use pqc_llm::{LayerKv, LlmConfig, Model, PrefillOutput};
use pqc_policies::{PqCachePolicy, PqCachePolicyConfig};
use pqc_serve::{Priority, ServeConfig, ServeEngine, ServeReport, ServeRequest, ShardAssignment};
use pqc_tensor::{argmax, Matrix, Rng64};
use pqc_workloads::{
    multi_tenant_trace, needle, qa, shared_prefix_trace, QuestionPosition, TraceConfig,
    TraceRequest, VocabLayout,
};
use std::time::Instant;

/// Full size, or the `--quick` smoke size (same code paths, seconds total).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Full,
    Quick,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ChatFleet,
    LongContext,
    DeepExact,
    DeepIvf,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ChatFleet,
        Kind::LongContext,
        Kind::DeepExact,
        Kind::DeepIvf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ChatFleet => "chat_fleet",
            Kind::LongContext => "long_context",
            Kind::DeepExact => "deep_context_exact",
            Kind::DeepIvf => "deep_context_ivf",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Serve shards. Fixed at the host's two cores; a smaller host keeps two
/// shards and is flagged `undersized_host` instead of changing the workload.
pub const SHARDS: usize = 2;

/// One request of a serve-driven workload.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub tokens: Vec<u32>,
    pub decode_steps: usize,
    pub priority: Priority,
}

/// `chat_fleet` / `long_context`: driven through `ServeEngine::run`.
pub struct ServeWorkload {
    pub model: Model,
    pub cfg: ServeConfig,
    pub policy: PqCachePolicyConfig,
    pub requests: Vec<Request>,
}

/// `deep_context_*`: fabricated KV driven through `SelectiveSession`.
pub struct DeepWorkload {
    pub model: Model,
    pub session: SessionConfig,
    pub policy: PqCachePolicyConfig,
    /// One fabricated prefill per session (different key seeds); reps
    /// alternate between them.
    pub prefills: Vec<PrefillOutput>,
    pub steps: usize,
}

// One value lives per process; boxing a variant would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    Serve(ServeWorkload),
    Deep(DeepWorkload),
}

/// What one timed rep produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub tokens: u64,
    pub ttft_s: Vec<f64>,
    pub tpot_s: Vec<f64>,
    pub peak_host_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over (request id, generated tokens), requests in id order.
    pub digest: u64,
    /// Serve-layer counters of the rep (`None` for `deep_*`).
    pub serve: Option<ServeCounters>,
    /// What each request generated, kept for the correctness gate.
    pub outputs: Vec<Output>,
}

/// What one request (or `deep_*` session) generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    pub id: u64,
    /// Greedy tokens, one per decode step.
    pub tokens: Vec<u32>,
    /// Digest of every step's selected token ids, where the driver can see
    /// them (0 for `ServeEngine` completions). The tiny model's greedy
    /// tokens often settle on a fixed point, so tokens alone would not
    /// notice a selection that changed.
    pub selection: u64,
}

/// Scheduler and tier counters read from one untraced `ServeReport`.
#[derive(Debug, Clone, Default)]
pub struct ServeCounters {
    pub ticks: u64,
    pub admitted: u64,
    pub batch_width_mean: f64,
    pub queue_high_water: u64,
    pub prefill_chunks: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub preemptions: u64,
    pub busy_frac: f64,
    pub shard_imbalance: f64,
    pub nondecode_busy_frac: f64,
    pub prefix_hit_frac: f64,
    pub cow_copies: u64,
    pub pages_peak: u64,
    pub cache_hit_frac: f64,
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of outputs, which must already be in id order.
pub fn digest_outputs(outputs: &[Output]) -> u64 {
    let mut d = FNV_OFFSET;
    for o in outputs {
        fnv1a(&mut d, &o.id.to_le_bytes());
        fnv1a(&mut d, &(o.tokens.len() as u64).to_le_bytes());
        for t in &o.tokens {
            fnv1a(&mut d, &t.to_le_bytes());
        }
        fnv1a(&mut d, &o.selection.to_le_bytes());
    }
    d
}

/// Fold the ids a session selected at its last step, for every (layer,
/// head), into `digest`.
pub fn fold_selection(digest: &mut u64, session: &SelectiveSession<'_>, model: &Model) {
    let m = model.config();
    for l in 0..m.n_layers {
        for h in 0..m.n_kv_heads {
            for id in session.last_selected(l, h) {
                fnv1a(digest, &(*id as u32).to_le_bytes());
            }
        }
    }
}

// ---------------------------------------------------------------- inputs

/// Prompt tiers and their share of `chat_fleet` requests.
const FLEET_PROMPTS: [usize; 3] = [128, 256, 512];
const FLEET_MIX: [f64; 3] = [0.5, 0.3, 0.2];
/// Shared-prefix prompt groups per tier (8 in total).
const FLEET_GROUPS: [usize; 3] = [4, 2, 2];
const FLEET_DECODE: (usize, usize) = (16, 96);
const FLEET_PRIORITY_MIX: [f64; 3] = [0.2, 0.6, 0.2];

/// The `j`-th point of the R2 low-discrepancy sequence in the unit square.
/// Decode length and priority class of a tier's `j`-th request come from
/// it, so both are evenly spread and unpaired within every prompt tier and
/// identical for every seed: the seed decides prompt contents and arrival
/// order, never how much work a rep holds.
fn r2_point(j: usize) -> (f64, f64) {
    let t = (j + 1) as f64;
    (
        (t * 0.754_877_666_246_692_7).fract(),
        (t * 0.569_840_290_998_053_2).fract(),
    )
}

/// Split `n` by `mix`, giving the remainder to the first tier.
fn split(n: usize, mix: &[f64; 3]) -> [usize; 3] {
    let total: f64 = mix.iter().sum();
    let mut out = [0usize; 3];
    for (o, w) in out.iter_mut().zip(mix) {
        *o = (n as f64 * w / total).floor() as usize;
    }
    out[0] += n - out.iter().sum::<usize>();
    out
}

fn fleet_session() -> SessionConfig {
    // Short prompts: the defaults (n_local 32, ratio 0.2) would leave a
    // 128-token prompt no middle budget at all.
    SessionConfig {
        n_init: 4,
        n_local: 16,
        token_ratio: 0.25,
        comm_fraction: 1.0 / 32.0,
        obs_window: 16,
        cache: CacheConfig {
            capacity_tokens: 128,
            block_size: 16,
            lfu: true,
            k_cache_blocks: 4,
        },
        ivf: IvfMode::Exact,
    }
}

fn chat_fleet(seed: u64, mode: Mode) -> ServeWorkload {
    let n = match mode {
        Mode::Full => 384,
        Mode::Quick => 128,
    };
    let (shared_n, tenant_n) = (n * 3 / 4, n / 4);
    let layout = VocabLayout::for_vocab(LlmConfig::tiny().vocab_size);
    let mut trace: Vec<TraceRequest> = Vec::with_capacity(n);
    // One generator call per prompt tier, with all three tier lengths set
    // to that tier: the tier sizes are then exact, not sampled, so every
    // seed prefills the same number of prompt tokens.
    let shared = split(shared_n, &FLEET_MIX);
    let tenant = split(tenant_n, &FLEET_MIX);
    for tier in 0..3 {
        let cfg = |sessions: usize, salt: u64| TraceConfig {
            sessions,
            prompt_lens: [FLEET_PROMPTS[tier]; 3],
            decode_steps: FLEET_DECODE,
            layout,
            seed: seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(salt + tier as u64),
            ..Default::default()
        };
        let mut requests = Vec::with_capacity(shared[tier] + tenant[tier]);
        if shared[tier] > 0 {
            let groups = FLEET_GROUPS[tier].min(shared[tier]);
            requests.extend(shared_prefix_trace(&cfg(shared[tier], 0x100), groups).requests);
        }
        if tenant[tier] > 0 {
            requests.extend(multi_tenant_trace(&cfg(tenant[tier], 0x200)).requests);
        }
        let (lo, hi) = FLEET_DECODE;
        for (j, r) in requests.iter_mut().enumerate() {
            let (u, v) = r2_point(j);
            r.decode_steps = lo + (u * (hi - lo + 1) as f64) as usize;
            let [low, normal, _] = FLEET_PRIORITY_MIX;
            r.priority = if v < low {
                0
            } else if v < low + normal {
                1
            } else {
                2
            };
        }
        trace.extend(requests);
    }
    // An unshuffled shared/tenant interleave aliases with round-robin
    // placement and unbalances the shards; shuffle, then renumber.
    Rng64::new(seed ^ 0xF1EE7).shuffle(&mut trace);
    let requests = trace
        .into_iter()
        .enumerate()
        .map(|(id, r)| Request {
            id: id as u64,
            tokens: r.workload.tokens,
            decode_steps: r.decode_steps,
            priority: [Priority::Low, Priority::Normal, Priority::High][r.priority as usize],
        })
        .collect();
    ServeWorkload {
        model: Model::new(LlmConfig::tiny()),
        cfg: ServeConfig {
            shards: SHARDS,
            max_active_per_shard: 8,
            queue_capacity: 64,
            assignment: ShardAssignment::FirstFree,
            session: fleet_session(),
            prefill_chunk_tokens: Some(128),
            checkpoint_every_ticks: Some(16),
            ..Default::default()
        },
        policy: PqCachePolicyConfig::default(),
        requests,
    }
}

fn long_context(seed: u64, mode: Mode) -> ServeWorkload {
    let (prompt, steps) = match mode {
        Mode::Full => (8192, 1024),
        Mode::Quick => (1024, 32),
    };
    let layout = VocabLayout::for_vocab(LlmConfig::tiny().vocab_size);
    let mut rng = Rng64::new(seed ^ 0x10C);
    let prompts = [
        qa(prompt, 2, QuestionPosition::End, &layout, rng.next_u64()).tokens,
        needle(prompt, 0.25 + 0.5 * rng.uniform(), &layout, rng.next_u64()).tokens,
    ];
    let requests = prompts
        .into_iter()
        .enumerate()
        .map(|(id, tokens)| Request {
            id: id as u64,
            tokens,
            decode_steps: steps,
            priority: Priority::Normal,
        })
        .collect();
    ServeWorkload {
        model: Model::new(LlmConfig::tiny()),
        cfg: ServeConfig {
            shards: SHARDS,
            max_active_per_shard: 1,
            queue_capacity: SHARDS,
            assignment: ShardAssignment::RoundRobin,
            session: SessionConfig {
                token_ratio: 0.2,
                ivf: IvfMode::Exact,
                ..Default::default()
            },
            ..Default::default()
        },
        policy: PqCachePolicyConfig::default(),
        requests,
    }
}

/// K-Means iteration budget of the `deep_*` policies. Below the count at
/// which clustered keys converge, so every seed runs exactly this many
/// iterations and session-start time does not depend on the seed's luck —
/// the regime the paper's adaptive controller clips long prompts to.
const DEEP_KMEANS_ITERS: usize = 6;

/// A `PrefillOutput` with clustered keys and Gaussian values in place of a
/// real prefill, which is quadratic and unaffordable at this length.
fn fabricate(model: &Model, s: usize, rng: &mut Rng64) -> PrefillOutput {
    let c = model.config();
    let kv = (0..c.n_layers)
        .map(|_| LayerKv {
            keys: (0..c.n_kv_heads)
                .map(|_| Matrix::clustered(s, c.head_dim, 64, 0.3, rng))
                .collect(),
            values: (0..c.n_kv_heads)
                .map(|_| Matrix::randn(s, c.head_dim, 1.0, rng))
                .collect(),
        })
        .collect();
    let mut last_hidden = vec![0.0f32; c.d_model];
    rng.fill_normal(&mut last_hidden, 1.0);
    let logits = model.logits(&last_hidden);
    PrefillOutput {
        kv,
        last_hidden,
        logits,
        captures: None,
    }
}

fn deep_context(seed: u64, mode: Mode, ivf: bool) -> DeepWorkload {
    let (tokens, steps) = match mode {
        Mode::Full => (131_072, 24),
        Mode::Quick => (8192, 32),
    };
    let model = Model::new(LlmConfig::tiny());
    // Both routing variants see the same data for a given seed.
    let mut rng = Rng64::new(seed ^ 0xDEE9);
    let prefills = (0..2)
        .map(|_| fabricate(&model, tokens, &mut rng))
        .collect();
    DeepWorkload {
        model,
        session: SessionConfig {
            token_ratio: 1.0 / 32.0,
            ivf: if ivf {
                IvfMode::Probe(8)
            } else {
                IvfMode::Exact
            },
            ..Default::default()
        },
        policy: PqCachePolicyConfig {
            kmeans_iters: DEEP_KMEANS_ITERS,
            ivf_n_list: if ivf {
                32
            } else {
                PqCachePolicyConfig::default().ivf_n_list
            },
            ..Default::default()
        },
        prefills,
        steps,
    }
}

impl Workload {
    /// Build the model and the seeded inputs, then run the reduced warm-up
    /// pass (allocator, page faults, lazy statics). All of it is set-up time.
    pub fn setup(kind: Kind, seed: u64, mode: Mode) -> Workload {
        let w = match kind {
            Kind::ChatFleet => Workload::Serve(chat_fleet(seed, mode)),
            Kind::LongContext => Workload::Serve(long_context(seed, mode)),
            Kind::DeepExact => Workload::Deep(deep_context(seed, mode, false)),
            Kind::DeepIvf => Workload::Deep(deep_context(seed, mode, true)),
        };
        w.warm_up();
        w
    }

    fn warm_up(&self) {
        match self {
            Workload::Serve(w) => {
                // About 32 requests evenly spaced by size (the same mix of
                // prompt tiers for every seed, or set-up time would follow
                // the shuffle), prompts and decode lengths cut down: every
                // code path of a rep at a fraction of its cost.
                let mut by_size: Vec<&Request> = w.requests.iter().collect();
                by_size.sort_by_key(|r| (r.tokens.len(), r.decode_steps, r.id));
                let reduced: Vec<Request> = by_size
                    .into_iter()
                    .step_by((w.requests.len() / 32).max(1))
                    .map(|r| Request {
                        tokens: r.tokens[..r.tokens.len().min(512)].to_vec(),
                        decode_steps: r.decode_steps.min(16),
                        ..r.clone()
                    })
                    .collect();
                w.serve(&reduced);
            }
            Workload::Deep(w) => {
                let s = w.prefills[0].kv[0].len().min(16_384);
                let slice = PrefillOutput {
                    kv: w.prefills[0]
                        .kv
                        .iter()
                        .map(|l| LayerKv {
                            keys: l.keys.iter().map(|m| m.slice_rows(0, s)).collect(),
                            values: l.values.iter().map(|m| m.slice_rows(0, s)).collect(),
                        })
                        .collect(),
                    last_hidden: w.prefills[0].last_hidden.clone(),
                    logits: w.prefills[0].logits.clone(),
                    captures: None,
                };
                w.session_rep(&slice, 0, 8);
            }
        }
    }

    /// One timed rep. `index` picks the `deep_*` session.
    pub fn rep(&self, index: usize) -> Rep {
        match self {
            Workload::Serve(w) => w.serve(&w.requests),
            Workload::Deep(w) => {
                let which = index % w.prefills.len();
                w.session_rep(&w.prefills[which], which as u64, w.steps)
            }
        }
    }
}

impl ServeWorkload {
    pub fn policy_box(&self) -> Box<dyn pqc_policies::SelectionPolicy + Send> {
        Box::new(PqCachePolicy::new(self.policy))
    }

    /// Serve `requests` as one burst at the run epoch (closed batch: the
    /// engine has no wall-clock arrival API) and read the report.
    pub fn serve(&self, requests: &[Request]) -> Rep {
        let batch: Vec<ServeRequest> = requests
            .iter()
            .map(|r| {
                ServeRequest::new(r.id, r.tokens.clone(), r.decode_steps, self.policy_box())
                    .with_priority(r.priority)
            })
            .collect();
        let report = ServeEngine::run(&self.model, &self.cfg, batch)
            .expect("benchmark serve config is valid");
        self.read_report(&report, requests.len())
    }

    fn read_report(&self, report: &ServeReport, attempted: usize) -> Rep {
        let wall_s = report.wall.as_secs_f64();
        let tokens = report.tokens_decoded();
        let outputs: Vec<Output> = report
            .completions
            .iter()
            .map(|c| Output {
                id: c.id,
                tokens: c.generated.clone(),
                selection: 0,
            })
            .collect();
        let failed = report.failures().count() + attempted.saturating_sub(report.completions.len());
        let secs = |d: Option<std::time::Duration>| d.map(|d| d.as_secs_f64());

        let busy: Vec<f64> = report.shards.iter().map(|s| s.busy.as_secs_f64()).collect();
        let busy_sum: f64 = busy.iter().sum();
        let busy_max = busy.iter().cloned().fold(0.0, f64::max);
        let decode_s: f64 = report
            .completions
            .iter()
            .filter_map(|c| {
                c.tpot_wall
                    .map(|t| t.as_secs_f64() * c.generated.len() as f64)
            })
            .sum();
        let ticks: u64 = report.shards.iter().map(|s| s.ticks).sum();
        let cache = report
            .completions
            .iter()
            .fold(pqc_cache::CacheStats::default(), |a, c| a + c.cache);
        let mcfg = self.model.config();
        let page_bytes =
            (2 * self.cfg.page_tokens * mcfg.head_dim * pqc_memhier::WIRE_BYTES_PER_ELEM) as u64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let serve = ServeCounters {
            ticks,
            admitted: report.shards.iter().map(|s| s.admitted).sum(),
            batch_width_mean: ratio(tokens as f64, ticks as f64),
            queue_high_water: report.queue_high_water as u64,
            prefill_chunks: report.shards.iter().map(|s| s.prefill_chunks).sum(),
            checkpoints: report.total_checkpoints(),
            checkpoint_bytes: report.total_checkpoint_bytes(),
            preemptions: report.total_preemptions(),
            busy_frac: ratio(busy_sum, busy.len() as f64 * wall_s),
            shard_imbalance: ratio(busy_max, busy_sum / busy.len().max(1) as f64),
            nondecode_busy_frac: 1.0 - ratio(decode_s, busy_sum),
            prefix_hit_frac: report.prefix.full_hit_rate(),
            cow_copies: report.aggregate_sharing.cow_copies,
            pages_peak: report.peak_host_bytes / page_bytes.max(1),
            cache_hit_frac: cache.hit_rate(),
        };
        Rep {
            wall_s,
            tokens,
            ttft_s: report
                .completions
                .iter()
                .filter_map(|c| secs(c.ttft_wall))
                .collect(),
            tpot_s: report
                .completions
                .iter()
                .filter_map(|c| secs(c.tpot_wall))
                .collect(),
            peak_host_bytes: report.peak_host_bytes,
            attempted: attempted as u64,
            failed: failed as u64,
            digest: digest_outputs(&outputs),
            serve: Some(serve),
            outputs,
        }
    }
}

impl DeepWorkload {
    pub fn policy_box(&self) -> Box<dyn pqc_policies::SelectionPolicy + Send> {
        Box::new(PqCachePolicy::new(self.policy))
    }

    /// Start one session from `prefill` and decode `steps` tokens greedily.
    /// TTFT is session start (PQ training + offload) plus the first step —
    /// the paper's time-to-second-token minus model prefill; every later
    /// step gap is a TPOT sample.
    fn session_rep(&self, prefill: &PrefillOutput, id: u64, steps: usize) -> Rep {
        let t0 = Instant::now();
        let start = SelectiveSession::start_from_prefill(
            &self.model,
            self.policy_box(),
            self.session,
            prefill,
        );
        let mut session = start.session;
        let mut scratch = SessionScratch::new();
        let mut next = argmax(&start.logits) as u32;
        let mut generated = Vec::with_capacity(steps);
        let mut ttft_s = 0.0;
        let mut tpot_s = Vec::with_capacity(steps);
        let mut failed = 0u64;
        let mut selection = FNV_OFFSET;
        for step in 0..steps {
            generated.push(next);
            let t = Instant::now();
            match session.try_step_with_scratch(next, &mut scratch) {
                Ok(out) => next = out.greedy(),
                Err(_) => {
                    failed = (steps - step) as u64;
                    break;
                }
            }
            if step == 0 {
                ttft_s = t0.elapsed().as_secs_f64();
            } else {
                tpot_s.push(t.elapsed().as_secs_f64());
            }
            fold_selection(&mut selection, &session, &self.model);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let outputs = vec![Output {
            id,
            tokens: generated,
            selection,
        }];
        Rep {
            wall_s,
            tokens: (steps as u64).saturating_sub(failed),
            ttft_s: vec![ttft_s],
            tpot_s,
            peak_host_bytes: session.store().resident_bytes(),
            attempted: steps as u64,
            failed,
            digest: digest_outputs(&outputs),
            serve: None,
            outputs,
        }
    }
}
