//! The engine's public vocabulary: what callers configure, submit, and read
//! back. Nothing here schedules anything.

use crate::error::FailureCause;
use crate::faults::FaultPlan;
use pqc_cache::CacheStats;
use pqc_core::{ConfigError, SessionConfig};
use pqc_memhier::{PrefixCacheStats, SharingStats, TransferStats, DEFAULT_PAGE_TOKENS};
use pqc_policies::SelectionPolicy;
use std::time::Duration;

/// Scheduling class of a request. Admission pops the highest class first
/// (FIFO within a class), and a queued request **strictly** outranking a
/// running session preempts it: the victim is suspended through the paged
/// host tier ([`pqc_core::SelectiveSession::suspend`]) and resumed later —
/// bit identically — once a slot frees up, ahead of any queued request of
/// its own class or lower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work: never preempts, and a pending `Normal` or `High`
    /// request takes its slot whenever every slot is taken.
    Low,
    /// The default class: FIFO among itself, admitted ahead of `Low`, and
    /// preempts a running `Low` session when every slot is taken.
    #[default]
    Normal,
    /// Latency-sensitive work: admitted first, and preempts a running
    /// `Low` or `Normal` session when every slot is taken.
    High,
}

/// How requests map onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardAssignment {
    /// One shared queue; whichever worker has a free slot first takes the
    /// request. Work-conserving — the right default for live traffic.
    #[default]
    FirstFree,
    /// Request `i` goes to shard `i mod shards` through per-shard queues.
    /// Deterministic placement and balance independent of OS scheduling —
    /// what benchmarks and placement-sensitive tests want (on a host with
    /// fewer cores than shards, first-free lets one timesliced worker
    /// drain the queue while the rest starve, which skews per-shard load).
    RoundRobin,
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning one shard of the session pool.
    pub shards: usize,
    /// Continuous-batching width: sessions decoded per shard per tick.
    pub max_active_per_shard: usize,
    /// Admission-queue bound across all shards (back-pressure on the
    /// producer). Round-robin splits it evenly over the per-shard queues,
    /// so it must be ≥ `shards` in that mode.
    pub queue_capacity: usize,
    /// Request→shard placement.
    pub assignment: ShardAssignment,
    /// Per-session engine configuration (segmentation, budgets, cache).
    pub session: SessionConfig,
    /// Record per-step logits and selected-token sets in each completion
    /// (the equivalence battery's evidence; costs memory).
    pub record_trace: bool,
    /// Share host KV pages and trained PQ/IVF state across sessions whose
    /// prompts are identical (vLLM-style prefix caching on the paged tier).
    /// On by default — sharing is exact, so results are bit-identical to a
    /// cold start; turn off to model a fleet without prefix reuse.
    pub prefix_cache: bool,
    /// Host-tier page size in tokens (the paged `KvTier` granularity).
    pub page_tokens: usize,
    /// Chunked prefill: cap prompt rows prefilled per scheduler tick.
    /// `None` (the default) prefills each prompt monolithically at
    /// admission — decode on the shard halts for the whole prompt. `Some`
    /// splits prefill into tick-sized chunks interleaved with ready decode
    /// steps, bounding head-of-line blocking: a long prompt no longer
    /// freezes its neighbours' TPOT. Chunking never changes results —
    /// prefill is chunk-invariant by construction (`Model::begin_prefill`).
    pub prefill_chunk_tokens: Option<usize>,
    /// Deterministic fault-injection plan (chaos testing). `None` injects
    /// nothing; real faults flow through the same reporting paths either
    /// way.
    pub faults: Option<FaultPlan>,
    /// Crash-recovery checkpoint cadence: every `k` scheduler ticks each
    /// resident session is snapshotted through the paged host tier
    /// ([`pqc_core::SelectiveSession::checkpoint`] — pinned swap pages + a
    /// copy-on-write fork of the middle store, no eviction, no extra
    /// middle-store copies) into a registry shared across shards. A shard
    /// that later dies fails its checkpointed sessions over to healthy
    /// shards; a session whose store turns out corrupt rolls back to its
    /// snapshot. `None` (the default) checkpoints nothing — sessions on a
    /// dead shard are lost with [`crate::ServeError::ShardLost`]. Checkpointing
    /// never changes results; it costs the periodic offload of the
    /// GPU-resident rows (metered in [`ShardStats::checkpoint_bytes`]).
    pub checkpoint_every_ticks: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            max_active_per_shard: 4,
            queue_capacity: 16,
            assignment: ShardAssignment::FirstFree,
            session: SessionConfig::default(),
            record_trace: false,
            prefix_cache: true,
            page_tokens: DEFAULT_PAGE_TOKENS,
            prefill_chunk_tokens: None,
            faults: None,
            checkpoint_every_ticks: None,
        }
    }
}

impl ServeConfig {
    /// Validate, returning the first offending field as a typed error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::new("shards", "need at least one shard"));
        }
        if self.max_active_per_shard == 0 {
            return Err(ConfigError::new(
                "max_active_per_shard",
                "need at least one session slot per shard",
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "queue capacity must be positive"));
        }
        if self.page_tokens == 0 {
            return Err(ConfigError::new("page_tokens", "page size must be positive"));
        }
        if self.prefill_chunk_tokens == Some(0) {
            return Err(ConfigError::new(
                "prefill_chunk_tokens",
                "chunk budget must be positive (use None for monolithic prefill)",
            ));
        }
        if self.assignment == ShardAssignment::RoundRobin && self.queue_capacity < self.shards {
            return Err(ConfigError::new(
                "queue_capacity",
                "round-robin needs queue capacity >= shards (one slot per shard queue)",
            ));
        }
        if self.checkpoint_every_ticks == Some(0) {
            return Err(ConfigError::new(
                "checkpoint_every_ticks",
                "checkpoint cadence must be positive (use None to disable checkpointing)",
            ));
        }
        if let Some(plan) = &self.faults {
            if plan.page_limit == Some(0) {
                return Err(ConfigError::new("faults", "page_limit 0 would reject every page"));
            }
        }
        self.session.validate()
    }
}

/// One admission: a prompt plus how many tokens to decode greedily.
pub struct ServeRequest {
    /// Caller-chosen id, echoed in the completion. Unique within a batch:
    /// [`crate::ServeEngine::run`] rejects a repeat with a `Config` error
    /// on field `"id"`.
    pub id: u64,
    /// Prompt tokens: more than `session.n_init + session.n_local` of them,
    /// every id below the model's vocabulary size. Anything else fails this
    /// request alone, at the door, with a `Config` cause on field `"tokens"`.
    pub tokens: Vec<u32>,
    /// Greedy decode steps to run after prefill.
    pub decode_steps: usize,
    /// Selection policy instance for this session.
    pub policy: Box<dyn SelectionPolicy + Send>,
    /// Scheduling class. `Normal` (the default) keeps exact FIFO among
    /// itself; `High` is admitted first and may preempt a strictly
    /// lower-class running session when no slot is free.
    pub priority: Priority,
}

impl ServeRequest {
    /// A request at normal priority.
    pub fn new(
        id: u64,
        tokens: Vec<u32>,
        decode_steps: usize,
        policy: Box<dyn SelectionPolicy + Send>,
    ) -> Self {
        Self {
            id,
            tokens,
            decode_steps,
            policy,
            priority: Priority::default(),
        }
    }

    /// Set the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Per-step evidence captured when [`ServeConfig::record_trace`] is set.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// The step's classifier logits.
    pub logits: Vec<f32>,
    /// Selected middle tokens (absolute ids), `[layer][kv_head]`.
    pub selected: Vec<Vec<Vec<usize>>>,
}

/// A finished request — successfully decoded, or failed/shed with a typed
/// cause ([`Self::failure`]). Every admitted request produces exactly one.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// Shard (worker) that served the session; 0 for a request turned away
    /// at the door (malformed prompt), which no shard saw.
    pub shard: usize,
    /// Greedy-decoded tokens: `decode_steps` of them on success, however
    /// many the session managed before failing otherwise.
    pub generated: Vec<u32>,
    /// This session's host-transfer stats (its KvTier namespace).
    pub transfer: TransferStats,
    /// This session's GPU block-cache stats.
    pub cache: CacheStats,
    /// Prefix-sharing stats: prompt tokens adopted from the prefix cache
    /// and copy-on-write page copies this session triggered.
    pub sharing: SharingStats,
    /// Per-step trace (empty unless [`ServeConfig::record_trace`]).
    pub trace: Vec<StepTrace>,
    /// Why the session failed (`None` = clean completion).
    pub failure: Option<FailureCause>,
    /// Admission retries this request consumed before being served or shed.
    pub retries: u32,
    /// Scheduling class the request ran at.
    pub priority: Priority,
    /// Time-to-first-token, wall clock from batch arrival (includes queue
    /// wait and head-of-line blocking). `None` when the request never
    /// produced a first token (shed, or failed before its prefill ended).
    pub ttft_wall: Option<Duration>,
    /// Time-to-first-token in scheduler ticks from admission: 0 for
    /// monolithic or prefix-adopted prefill (one admission event), the
    /// chunk-tick count under chunked prefill. Deterministic run over run.
    pub ttft_ticks: Option<u64>,
    /// Mean wall time per decoded token. `None` when nothing was decoded.
    pub tpot_wall: Option<Duration>,
    /// Times this session was preempted (suspended to the host tier and
    /// later resumed) by a higher-priority request.
    pub preemptions: u32,
    /// True when crash recovery produced this completion: the session was
    /// replayed forward from a checkpoint after its shard's worker died,
    /// or rolled back to a checkpoint after store corruption. Recovered
    /// output is bit-identical to the fault-free run.
    pub recovered: bool,
}

impl Completion {
    /// True when the request decoded everything it asked for.
    pub fn is_success(&self) -> bool {
        self.failure.is_none()
    }
}

/// Per-shard scheduling statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Sessions admitted on this shard.
    pub admitted: u64,
    /// Sessions that failed or were shed on this shard.
    pub failed: u64,
    /// Decode tokens requested but never produced (shed at admission, or
    /// lost to a mid-decode fault or a dead shard).
    pub shed_tokens: u64,
    /// Session-steps skipped while the shard was stalled by an injected
    /// slow-shard fault (sessions held but not decoded that tick).
    pub stalled_steps: u64,
    /// Admission retries performed (re-attempts after a rejection).
    pub retries: u64,
    /// Priority preemptions performed: a running session suspended through
    /// the paged host tier to free its slot for a higher-class request.
    pub preemptions: u64,
    /// Prefill chunks executed (0 unless
    /// [`ServeConfig::prefill_chunk_tokens`] is set).
    pub prefill_chunks: u64,
    /// Checkpoint snapshots taken on this shard (0 unless
    /// [`ServeConfig::checkpoint_every_ticks`]).
    pub checkpoints: u64,
    /// Bytes offloaded device→host by checkpoint snapshots (the recurring
    /// cost of crash recovery; the copy-on-write store fork moves nothing).
    pub checkpoint_bytes: u64,
    /// Sessions this shard served by replaying a dead shard's checkpoint
    /// forward (metered on the *failover target*, not the dead shard).
    pub recovered_sessions: u64,
    /// Decode tokens produced during failover replay (post-checkpoint
    /// tokens the dead shard lost and this shard regenerated).
    pub recovered_tokens: u64,
    /// Sessions rolled back to their last checkpoint after a KV page
    /// failed its checksum mid-decode.
    pub rollbacks: u64,
    /// Wall time spent prefilling + decoding (excludes queue waits).
    /// Caveat: on a host with fewer cores than shards this includes time
    /// preempted by sibling workers.
    pub busy: Duration,
}

/// Everything `ServeEngine::run` produces.
#[derive(Debug)]
pub struct ServeReport {
    /// Completions, sorted by request id (failed ones carry
    /// [`Completion::failure`]).
    pub completions: Vec<Completion>,
    /// Tier-wide transfer aggregate (equals the sum of per-completion
    /// transfer stats — asserted by the equivalence battery).
    pub aggregate_transfer: TransferStats,
    /// Highest queue occupancy observed (≤ the configured bound).
    pub queue_high_water: usize,
    /// Prefix-cache registry counters (lookups, full hits, entries).
    pub prefix: PrefixCacheStats,
    /// Tier-wide sharing aggregate (equals the sum of per-completion
    /// [`Completion::sharing`]).
    pub aggregate_sharing: SharingStats,
    /// Peak host-tier footprint over the run: distinct pages held at the
    /// busiest instant × page bytes. With prefix sharing on, a fleet of
    /// identical prompts peaks near O(unique tokens) instead of
    /// O(sessions × tokens).
    pub peak_host_bytes: u64,
    /// Per-shard scheduling stats.
    pub shards: Vec<ShardStats>,
    /// Worker threads that aborted outright instead of returning (always 0
    /// unless something escapes the per-session isolation; the engine
    /// absorbs the loss and still reports).
    pub worker_panics: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl ServeReport {
    /// Total decoded tokens across completions.
    pub fn tokens_decoded(&self) -> u64 {
        self.completions.iter().map(|c| c.generated.len() as u64).sum()
    }

    /// The completion for a request id, if present.
    pub fn completion(&self, id: u64) -> Option<&Completion> {
        self.completions.iter().find(|c| c.id == id)
    }

    /// Completions that failed, with their causes.
    pub fn failures(&self) -> impl Iterator<Item = &Completion> {
        self.completions.iter().filter(|c| c.failure.is_some())
    }

    /// Total decode tokens requested but never produced.
    pub fn total_shed_tokens(&self) -> u64 {
        self.shards.iter().map(|s| s.shed_tokens).sum()
    }

    /// Total session-steps lost to injected shard stalls.
    pub fn total_stalled_steps(&self) -> u64 {
        self.shards.iter().map(|s| s.stalled_steps).sum()
    }

    /// Total priority preemptions across shards.
    pub fn total_preemptions(&self) -> u64 {
        self.shards.iter().map(|s| s.preemptions).sum()
    }

    /// Total checkpoint snapshots across shards.
    pub fn total_checkpoints(&self) -> u64 {
        self.shards.iter().map(|s| s.checkpoints).sum()
    }

    /// Total checkpoint device→host bytes across shards.
    pub fn total_checkpoint_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.checkpoint_bytes).sum()
    }

    /// Total sessions recovered by failover replay.
    pub fn total_recovered_sessions(&self) -> u64 {
        self.shards.iter().map(|s| s.recovered_sessions).sum()
    }

    /// Total decode tokens regenerated by failover replay.
    pub fn total_recovered_tokens(&self) -> u64 {
        self.shards.iter().map(|s| s.recovered_tokens).sum()
    }

    /// Total corruption rollbacks across shards.
    pub fn total_rollbacks(&self) -> u64 {
        self.shards.iter().map(|s| s.rollbacks).sum()
    }
}
