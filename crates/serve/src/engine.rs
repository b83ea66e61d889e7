//! The sharded serve engine: continuous batching over `SelectiveSession`s.
//!
//! [`ServeEngine::run`] builds one `Fleet` (model, paged [`KvTier`], bounded
//! admission queues, and the cross-shard recovery state), queues every
//! request that fits before any worker starts, spawns one worker thread per
//! shard, feeds the overflow from the caller's thread (bounded pushes are
//! the back-pressure), joins, fails dead shards over (`recover.rs`), and
//! assembles the [`ServeReport`].
//!
//! Each worker is a `Shard` (`shard.rs`) holding four pools: `waiting`
//! (popped requests waiting out a retry backoff or a preemption that could
//! not go ahead), `prefilling` and `active` (the two kinds of slot holder),
//! and `parked` (preempted: off slot, pages pinned in the host tier). A
//! request's scheduler-side state is one `Ticket` (`ticket.rs`) that moves
//! whole between pools and into its [`Completion`].
//!
//! ## `Shard::tick`
//!
//! One pass runs these phases, in this order — the order is part of every
//! tick-clocked outcome (retry backoff, stalls, checkpoint cadence, TTFT
//! ticks):
//!
//! 1. `admit` — reads free slots, `parked`, matured `waiting`, the queue.
//!    Moves parked → active (resume), and queue/waiting → waiting
//!    (rejected), prefilling, active, or a shed completion. Blocks on the
//!    queue only when every pool is empty; a closed, drained queue then
//!    ends the worker.
//! 2. `retire` — reads `active`. Moves sessions with nothing left to decode
//!    → completions.
//! 3. `preempt` — reads full slots and the best pending priority (queue,
//!    matured `waiting`). Moves the weakest strictly-lower active → parked
//!    and the pending request into its slot.
//! 4. idle tick — when nothing holds a slot but `waiting`/`parked` are not
//!    empty: moves nothing, burns one tick so holds elapse, and ends the
//!    pass.
//! 5. `publish` — moves local completions → the fleet (a published id
//!    leaves the in-flight map and drops its checkpoint).
//! 6. kill / stall — reads the fault plan. A planned kill unwinds the
//!    worker here; a planned stall starts. A stalled pass ends here,
//!    moving nothing.
//! 7. `checkpoint` — reads the cadence. Moves nothing; snapshots each
//!    active session into the registry.
//! 8. `prefill_chunk` — advances the strongest prefilling job one budgeted
//!    chunk. Moves a finished prompt prefilling → active.
//! 9. `decode` — steps each active session once. Moves a failed step →
//!    completion; a corrupt page rolls back to its checkpoint in place.
//! 10. `retire` — as 2.
//!
//! Scheduling never changes results: a token decoded here is bit-identical
//! to the same session run alone through `SelectiveSession::decode`
//! (locked down by `tests/serve_equivalence.rs`).
//!
//! ## Fault tolerance
//!
//! Per-request failure is a normal state, not an abort. Every recoverable
//! fault — a panicking session, an exhausted page pool, a corrupt page
//! with no checkpoint, an admission shed — is contained to the session it
//! hit: the session becomes a [`Completion`] carrying a
//! [`FailureCause`](crate::FailureCause), its slot frees for the next
//! request, and every other session keeps its bit-identical results
//! (locked down by `tests/chaos.rs`). Every failure class but `Config`
//! traces to a planned or a real fault. Only a config rejection fails the
//! whole run, as a typed `Err` from [`ServeEngine::run`]. A seeded [`FaultPlan`] threaded through
//! [`ServeConfig::faults`] provokes each fault class deterministically at
//! chosen points.
//!
//! ## Crash recovery
//!
//! Three layers turn whole-worker loss and silent store corruption into
//! recoverable, bounded events:
//!
//! - **Checkpointing** ([`ServeConfig::checkpoint_every_ticks`]): every k
//!   ticks each resident session is snapshotted *without being evicted*
//!   (`SelectiveSession::checkpoint`): the GPU-resident rows offload into
//!   a pinned swap namespace, the host middle store is forked
//!   copy-on-write, and the policy is deep-copied. Snapshots live in a
//!   registry shared across shards; bytes and counts are metered
//!   ([`ShardStats::checkpoints`], [`ShardStats::checkpoint_bytes`]).
//! - **Shard failover**: when a worker dies mid-run (a real panic, or an
//!   injected [`WorkerKill`](crate::faults::WorkerKill)), the run keeps
//!   going. After the joins, each of the dead shard's in-flight sessions
//!   that has a checkpoint is resumed and **replayed forward** on a healthy
//!   shard — completions bit-identical to the fault-free run, each request
//!   completing exactly once. In-flight sessions with no checkpoint fail
//!   with the typed [`ServeError::ShardLost`] cause. Recovery replay runs
//!   on the coordinator thread with no fault injection (the failover host
//!   is assumed healthy).
//! - **Integrity**: every KV page carries a checksum verified on fetch
//!   (`pqc_memhier`), so corrupted bytes — e.g. an injected
//!   [`BitFlip`](crate::faults::BitFlip) — are *never served*: the step
//!   fails typed, and the session rolls back to its last good checkpoint
//!   and replays ([`ShardStats::rollbacks`]), or fails with
//!   [`ServeError::KvCorruption`] when no checkpoint exists.
//!
//! Accounting slack under recovery: a failed-over or rolled-back
//! completion carries its pre-checkpoint traffic plus the replay's, but
//! the lost worker's post-checkpoint traffic stays only in the tier
//! aggregate — so `aggregate_transfer` can exceed the per-completion sum
//! on runs that recovered (it still equals it on fault-free runs).

mod recover;
mod shard;
mod ticket;
mod types;

pub use types::{
    Completion, Priority, ServeConfig, ServeReport, ServeRequest, ShardAssignment, ShardStats,
    StepTrace,
};

use crate::error::ServeError;
use crate::faults::FaultPlan;
use crate::queue::BoundedQueue;
use pqc_cache::BlockCache;
use pqc_core::ConfigError;
use pqc_llm::Model;
use pqc_memhier::KvTier;
use shard::Shard;
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use ticket::Parked;

/// Poison-tolerant lock: the recovery structures' invariants (plain maps
/// and vectors) survive any interrupted critical section, and a dead
/// worker must not cascade lock panics into the shards doing the failover.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the coordinator needs to account for a request that was on a shard
/// when its worker died and left no checkpoint: enough to emit a typed
/// [`ServeError::ShardLost`] completion. A request enters its shard's map
/// when popped from the queue and leaves when its completion is published.
struct InflightInfo {
    priority: Priority,
    retries: u32,
    decode_steps: usize,
}

/// Everything one run's shards share. Workers publish finished completions
/// incrementally (a dying worker loses nothing already done), checkpoints
/// live in a cross-shard registry, and each shard tracks what it has in
/// flight so the coordinator can account every request of a dead shard.
struct Fleet<'a> {
    model: &'a Model,
    cfg: &'a ServeConfig,
    plan: FaultPlan,
    tier: KvTier,
    /// FirstFree: one shared queue. RoundRobin: one per shard.
    inboxes: Vec<BoundedQueue<ServeRequest>>,
    epoch: Instant,
    completions: Mutex<Vec<Completion>>,
    registry: Mutex<HashMap<u64, Parked>>,
    inflight: Vec<Mutex<HashMap<u64, InflightInfo>>>,
}

impl<'a> Fleet<'a> {
    fn new(model: &'a Model, cfg: &'a ServeConfig) -> Self {
        let plan = cfg.faults.clone().unwrap_or_default();
        let mcfg = model.config();
        let tier = KvTier::with_pages(
            mcfg.n_layers,
            mcfg.n_kv_heads,
            mcfg.head_dim,
            cfg.page_tokens,
            plan.page_limit,
        );
        // Round-robin splits the global bound exactly: the first
        // `remainder` shards get the extra slot, so per-shard capacities
        // sum to queue_capacity.
        let n = match cfg.assignment {
            ShardAssignment::FirstFree => 1,
            ShardAssignment::RoundRobin => cfg.shards,
        };
        let inboxes = (0..n)
            .map(|i| {
                BoundedQueue::new(cfg.queue_capacity / n + usize::from(i < cfg.queue_capacity % n))
            })
            .collect();
        Self {
            model,
            cfg,
            plan,
            tier,
            inboxes,
            epoch: Instant::now(),
            completions: Mutex::new(Vec::new()),
            registry: Mutex::new(HashMap::new()),
            inflight: (0..cfg.shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The queue shard `shard` pops from.
    fn inbox(&self, shard: usize) -> &BoundedQueue<ServeRequest> {
        &self.inboxes[shard % self.inboxes.len()]
    }

    /// A fresh, empty cache for one session, bounded by its own capacity.
    fn fresh_cache(&self) -> BlockCache {
        let c = &self.cfg.session.cache;
        BlockCache::new(c.capacity_tokens, c.block_size, c.policy())
    }

    /// True when the fault plan kills workers — marks shard-loss causes as
    /// injected.
    fn kills_injected(&self) -> bool {
        !self.plan.worker_kills.is_empty()
    }

    /// Before any worker starts: queue request `i` on queue `i mod queues`
    /// iff that queue has room. A batch that fits is whole before the first
    /// pop, so no shard's schedule can depend on how far the producer got.
    /// Returns the overflow, each request with its batch index.
    fn preload(&self, requests: Vec<ServeRequest>) -> Vec<(usize, ServeRequest)> {
        let mut overflow = Vec::new();
        for (i, req) in requests.into_iter().enumerate() {
            let queue = &self.inboxes[i % self.inboxes.len()];
            if queue.len() < queue.capacity() {
                // Room, and no worker to close the queue yet: cannot fail.
                let _ = queue.push(req);
            } else {
                overflow.push((i, req));
            }
        }
        overflow
    }

    /// The producer side, on the caller's thread: pushes the overflow
    /// [`Self::preload`] left, and the bounded pushes are the admission
    /// back-pressure. A push only bounces when a dying worker closed its
    /// queue first — shed the request as a shard loss instead of aborting
    /// the run. Returns those sheds.
    fn produce(&self, overflow: Vec<(usize, ServeRequest)>) -> Vec<Completion> {
        let mut shed = Vec::new();
        for (i, req) in overflow {
            if let Err(req) = self.inboxes[i % self.inboxes.len()].push(req) {
                let shard = i % self.cfg.shards;
                shed.push(Completion::unserved(
                    req.id,
                    req.priority,
                    0,
                    shard,
                    ServeError::ShardLost { shard },
                    self.kills_injected(),
                ));
            }
        }
        for queue in &self.inboxes {
            queue.close();
        }
        shed
    }
}

/// Why a shard worker would panic on `req`, if it would: a prompt must be
/// long enough to segment (which also rules out an empty one) and carry
/// only ids the model can embed.
fn request_error(model: &Model, cfg: &ServeConfig, req: &ServeRequest) -> Option<ConfigError> {
    let tokens = &req.tokens;
    let floor = cfg.session.n_init + cfg.session.n_local;
    if tokens.len() <= floor {
        let message =
            format!("prompt of {} tokens must exceed n_init + n_local ({floor})", tokens.len());
        return Some(ConfigError::new("tokens", message));
    }
    let vocab = model.config().vocab_size;
    if let Some(stray) = tokens.iter().find(|&&t| t as usize >= vocab) {
        let message = format!("token id {stray} is outside the vocabulary ({vocab})");
        return Some(ConfigError::new("tokens", message));
    }
    None
}

/// The sharded multi-session serving engine. Stateless: each [`Self::run`]
/// call owns its workers and tier for the duration of the batch.
pub struct ServeEngine;

impl ServeEngine {
    /// Serve `requests` to completion and return the report.
    ///
    /// Blocks until every admitted request has finished. Request→shard
    /// assignment is first-free-worker (work conserving) by default, which
    /// is safe because results are scheduling-independent.
    ///
    /// `Err` only on a rejected configuration or a batch that repeats a
    /// request id (the in-flight map, the checkpoint registry and retry
    /// bookkeeping are all keyed by id); every per-request fault
    /// (malformed prompt, panic, page exhaustion, shed) is reported as a
    /// failed [`Completion`] inside an `Ok` report instead.
    pub fn run(
        model: &Model,
        cfg: &ServeConfig,
        mut requests: Vec<ServeRequest>,
    ) -> Result<ServeReport, ServeError> {
        cfg.validate()?;
        let mut ids = HashSet::with_capacity(requests.len());
        if let Some(r) = requests.iter().find(|r| !ids.insert(r.id)) {
            let message = format!("request id {} appears more than once in the batch", r.id);
            return Err(ConfigError::new("id", message).into());
        }
        // The door: a malformed prompt fails here, typed, and never
        // reaches a queue — routing and every shard's schedule are those
        // of the batch without it.
        let mut turned_away = Vec::new();
        requests.retain(|r| match request_error(model, cfg, r) {
            None => true,
            Some(e) => {
                let error = ServeError::Config(e);
                turned_away.push(Completion::unserved(r.id, r.priority, 0, 0, error, false));
                false
            }
        });
        let fleet = Fleet::new(model, cfg);
        let overflow = fleet.preload(requests);
        let (mut completions, shards, worker_panics) = std::thread::scope(|scope| {
            let fleet = &fleet;
            let handles: Vec<_> = (0..cfg.shards)
                .map(|id| scope.spawn(move || Shard::new(fleet, id).run()))
                .collect();
            let mut completions = fleet.produce(overflow);
            // A worker that died outside the per-session isolation is
            // absorbed: the other shards' completions and the report still
            // come back, and its in-flight sessions fail over below.
            let mut dead = Vec::new();
            let mut shards: Vec<ShardStats> = handles
                .into_iter()
                .enumerate()
                .map(|(id, h)| {
                    h.join().unwrap_or_else(|_| {
                        dead.push(id);
                        ShardStats::default()
                    })
                })
                .collect();
            completions.append(&mut lock(&fleet.completions));
            if !dead.is_empty() {
                recover::recover_dead_shards(fleet, &dead, &mut shards, &mut completions);
            }
            (completions, shards, dead.len() as u64)
        });
        completions.append(&mut turned_away);
        Ok(fleet.report(completions, shards, worker_panics))
    }
}

impl Fleet<'_> {
    /// Fold the run into its report: completions by id, and the tier's
    /// view.
    fn report(
        &self,
        mut completions: Vec<Completion>,
        shards: Vec<ShardStats>,
        worker_panics: u64,
    ) -> ServeReport {
        completions.sort_by_key(|c| c.id);
        ServeReport {
            completions,
            aggregate_transfer: self.tier.aggregate_stats(),
            prefix: self.tier.prefix_stats(),
            aggregate_sharing: self.tier.aggregate_sharing(),
            peak_host_bytes: self.tier.allocator().peak_resident_bytes(),
            // Sum of per-queue high waters: an upper bound on peak global
            // occupancy, itself bounded by the configured capacity.
            queue_high_water: self.inboxes.iter().map(BoundedQueue::high_water).sum(),
            shards,
            worker_panics,
            wall: self.epoch.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests;
