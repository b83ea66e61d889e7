//! The sharded serve engine: continuous batching over `SelectiveSession`s.
//!
//! [`ServeEngine::run`] builds one `Fleet` (model, paged [`KvTier`], shared
//! [`CacheBudget`], bounded admission queues, and the cross-shard recovery
//! state), spawns one worker thread per shard, feeds the queues from the
//! caller's thread (bounded pushes are the back-pressure), joins, fails dead
//! shards over (`recover.rs`), and assembles the [`ServeReport`].
//!
//! Each worker is a `Shard` (`shard.rs`) holding four pools: `waiting`
//! (popped requests holding for an arrival tick, a retry backoff, or a
//! brownout deferral), `prefilling` and `active` (the two kinds of slot
//! holder), and `parked` (preempted: off slot, pages pinned in the host
//! tier). A request's scheduler-side state is one `Ticket` (`ticket.rs`)
//! that moves whole between pools and into its [`Completion`].
//!
//! ## `Shard::tick`
//!
//! One pass runs these phases, in this order — the order is part of every
//! tick-clocked outcome (deadlines, backoff, TTFT ticks, the brownout
//! ladder):
//!
//! 1. `admit` — reads free slots, `parked`, matured `waiting`, the queue.
//!    Moves parked → active (resume), and queue/waiting → waiting (not due,
//!    rejected, deferred), prefilling, active, or a shed completion. Blocks
//!    on the queue when every pool is empty (a closed, drained queue then
//!    ends the worker), or — if no queue can ever fill — for an arrived
//!    request the producer has yet to deliver.
//! 2. `retire` — reads `active`. Moves sessions with nothing left to decode
//!    → completions.
//! 3. `preempt` — reads full slots and the best pending priority (queue,
//!    matured `waiting`). Moves the weakest strictly-lower active → parked
//!    and the pending request into its slot.
//! 4. idle tick — when nothing holds a slot but `waiting`/`parked` are not
//!    empty: moves nothing, burns one tick so holds elapse, feeds the
//!    controller, and ends the pass.
//! 5. `observe` — reads the tick-clock backlog, slots, page pool, and
//!    unpublished completions. Moves nothing; steps the brownout ladder.
//! 6. `publish` — moves local completions → the fleet (a published id
//!    leaves the in-flight map and drops its checkpoint).
//! 7. kill / stall — reads the fault plan. A planned kill unwinds the
//!    worker here; a planned stall starts.
//! 8. `reap` — reads every ticket's deadlines. Moves late active /
//!    prefilling / parked → `DeadlineExceeded` completions. A stalled pass
//!    ends here.
//! 9. `checkpoint` — reads the cadence (stretched under pressure). Moves
//!    nothing; snapshots each active session into the registry.
//! 10. `prefill_chunk` — advances the strongest prefilling job one budgeted
//!     chunk. Moves a finished prompt prefilling → active.
//! 11. `decode` — steps each active session once. Moves a failed step →
//!     completion; a corrupt page rolls back to its checkpoint in place.
//! 12. `retire` — as 2.
//!
//! Scheduling never changes results: a token decoded here is bit-identical
//! to the same session run alone through `SelectiveSession::decode`
//! (locked down by `tests/serve_equivalence.rs`).
//!
//! ## Fault tolerance
//!
//! Per-request failure is a normal state, not an abort. Every recoverable
//! fault — a panicking session, an exhausted page pool, a blown deadline,
//! an admission shed — is contained to the session it hit: the session
//! becomes a [`Completion`] carrying a [`FailureCause`](crate::FailureCause),
//! its slot frees for the next request, and every other session keeps its
//! bit-identical results (locked down by `tests/chaos.rs`). Only a config
//! rejection fails the whole run, as a typed `Err` from
//! [`ServeEngine::run`]. A seeded [`FaultPlan`] threaded through
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
//!   on the coordinator thread with no fault injection and no deadline
//!   reaping (the failover host is assumed healthy; wall deadlines keep
//!   ticking only in the report's wall clock).
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
use crate::latency::LatencySummary;
use crate::overload::OverloadSummary;
use crate::queue::BoundedQueue;
use pqc_cache::{BlockCache, CacheBudget};
use pqc_core::ConfigError;
use pqc_llm::Model;
use pqc_memhier::KvTier;
use shard::Shard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use ticket::Parked;

/// Poison-tolerant lock: the recovery structures' invariants (plain maps
/// and vectors) survive any interrupted critical section, and a dead
/// worker must not cascade lock panics into the shards doing the failover.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One admission queue plus the tick-clock view of its backlog. The
/// physical queue depth depends on how far the producer thread has got and
/// counts requests whose arrival tick is still in the future, so the
/// scheduler never reads it; it reads [`Inbox::backlog`], a function of the
/// request list and the shard's own pops.
struct Inbox {
    queue: BoundedQueue<ServeRequest>,
    /// Arrival ticks of every request routed to this queue, sorted.
    arrivals: Vec<u64>,
    /// Requests popped so far (a statistic: publishes no other data).
    popped: AtomicUsize,
}

impl Inbox {
    /// Pop the highest-priority request (FIFO within a class), blocking
    /// for one when `block`. `None`: nothing queued — when blocking, the
    /// queue is closed and drained.
    fn pop(&self, block: bool) -> Option<ServeRequest> {
        let req = if block {
            self.queue.pop_wait_max_by_key(|r| r.priority)
        } else {
            self.queue.try_pop_max_by_key(|r| r.priority)
        }?;
        self.popped.fetch_add(1, Ordering::Relaxed);
        Some(req)
    }

    /// Requests that have arrived by `tick` and not been popped. `not_due`
    /// is how many popped requests the caller still holds for a future
    /// arrival tick — popped early, not yet part of the backlog. Exact per
    /// shard under round-robin placement; with a shared first-free queue
    /// other shards' early pops undercount it.
    fn backlog(&self, tick: u64, not_due: usize) -> usize {
        let arrived = self.arrivals.partition_point(|&a| a <= tick);
        let taken = self.popped.load(Ordering::Relaxed).saturating_sub(not_due);
        arrived.saturating_sub(taken)
    }
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
    budget: CacheBudget,
    /// FirstFree: one shared queue. RoundRobin: one per shard.
    inboxes: Vec<Inbox>,
    /// True when every queue can hold everything routed to it: the
    /// producer never blocks, so a request that has arrived on the tick
    /// clock but is not in its queue yet is only ever moments away.
    unthrottled: bool,
    epoch: Instant,
    completions: Mutex<Vec<Completion>>,
    registry: Mutex<HashMap<u64, Parked>>,
    inflight: Vec<Mutex<HashMap<u64, InflightInfo>>>,
}

impl<'a> Fleet<'a> {
    fn new(model: &'a Model, cfg: &'a ServeConfig, requests: &[ServeRequest]) -> Self {
        let plan = cfg.faults.clone().unwrap_or_default();
        let mcfg = model.config();
        let tier = KvTier::with_page_limit(
            mcfg.n_layers,
            mcfg.n_kv_heads,
            mcfg.head_dim,
            cfg.page_tokens,
            None,
            plan.page_limit,
        );
        let budget_sessions = cfg.cache_budget_sessions.unwrap_or_else(|| cfg.peak_sessions());
        let budget = CacheBudget::for_tokens(
            cfg.session.cache.capacity_tokens * budget_sessions,
            cfg.session.cache.block_size,
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
                let capacity = cfg.queue_capacity / n + usize::from(i < cfg.queue_capacity % n);
                let mut arrivals: Vec<u64> =
                    requests.iter().skip(i).step_by(n).map(|r| r.arrival_tick).collect();
                arrivals.sort_unstable();
                Inbox { queue: BoundedQueue::new(capacity), arrivals, popped: AtomicUsize::new(0) }
            })
            .collect::<Vec<Inbox>>();
        Self {
            model,
            cfg,
            plan,
            tier,
            budget,
            unthrottled: inboxes.iter().all(|i| i.arrivals.len() <= i.queue.capacity()),
            inboxes,
            epoch: Instant::now(),
            completions: Mutex::new(Vec::new()),
            registry: Mutex::new(HashMap::new()),
            inflight: (0..cfg.shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The queue shard `shard` pops from.
    fn inbox(&self, shard: usize) -> &Inbox {
        &self.inboxes[shard % self.inboxes.len()]
    }

    /// A fresh cache drawing on the engine-wide budget.
    fn fresh_cache(&self) -> BlockCache {
        let c = &self.cfg.session.cache;
        BlockCache::with_budget(c.capacity_tokens, c.block_size, c.policy(), self.budget.clone())
    }

    /// True when the fault plan kills workers — marks shard-loss causes as
    /// injected.
    fn kills_injected(&self) -> bool {
        !self.plan.worker_kills.is_empty()
    }

    /// The producer side, on the caller's thread: bounded pushes are the
    /// admission back-pressure. A push only bounces when a dying worker
    /// closed its queue first — shed the request as a shard loss instead
    /// of aborting the run. Returns those sheds.
    fn produce(&self, requests: Vec<ServeRequest>) -> Vec<Completion> {
        let mut shed = Vec::new();
        for (i, req) in requests.into_iter().enumerate() {
            if let Err(req) = self.inboxes[i % self.inboxes.len()].queue.push(req) {
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
        for inbox in &self.inboxes {
            inbox.queue.close();
        }
        shed
    }
}

/// Why the session layer would refuse `tokens` by panicking, if it would: a
/// prompt must be long enough to segment (which also rules out an empty
/// one) and carry only ids the model can embed.
fn prompt_error(model: &Model, cfg: &ServeConfig, tokens: &[u32]) -> Option<ConfigError> {
    let floor = cfg.session.n_init + cfg.session.n_local;
    if tokens.len() <= floor {
        let message =
            format!("prompt of {} tokens must exceed n_init + n_local ({floor})", tokens.len());
        return Some(ConfigError::new("tokens", message));
    }
    let vocab = model.config().vocab_size;
    let stray = tokens.iter().find(|&&t| t as usize >= vocab)?;
    let message = format!("token id {stray} is outside the vocabulary ({vocab})");
    Some(ConfigError::new("tokens", message))
}

/// The sharded multi-session serving engine. Stateless: each [`Self::run`]
/// call owns its workers, tier, and budget for the duration of the batch.
pub struct ServeEngine;

impl ServeEngine {
    /// Serve `requests` to completion and return the report.
    ///
    /// Blocks until every admitted request has finished. Request→shard
    /// assignment is first-free-worker (work conserving) by default, which
    /// is safe because results are scheduling-independent.
    ///
    /// `Err` only on a rejected configuration; every per-request fault
    /// (malformed prompt, panic, page exhaustion, deadline, shed) is
    /// reported as a failed [`Completion`] inside an `Ok` report instead.
    pub fn run(
        model: &Model,
        cfg: &ServeConfig,
        mut requests: Vec<ServeRequest>,
    ) -> Result<ServeReport, ServeError> {
        cfg.validate()?;
        // The door: a malformed prompt fails here, typed, and never reaches
        // a queue — routing, arrivals and every shard's schedule are those
        // of the batch without it.
        let mut turned_away = Vec::new();
        requests.retain(|r| match prompt_error(model, cfg, &r.tokens) {
            None => true,
            Some(e) => {
                let error = ServeError::Config(e);
                turned_away.push(Completion::unserved(r.id, r.priority, 0, 0, error, false));
                false
            }
        });
        let fleet = Fleet::new(model, cfg, &requests);
        let (mut completions, shards, worker_panics) = std::thread::scope(|scope| {
            let fleet = &fleet;
            let handles: Vec<_> = (0..cfg.shards)
                .map(|id| scope.spawn(move || Shard::new(fleet, id).run()))
                .collect();
            let mut completions = fleet.produce(requests);
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
    /// Fold the run into its report: completions by id, latency tails
    /// overall and per class, the brownout aggregate, and the tier's view.
    fn report(
        &self,
        mut completions: Vec<Completion>,
        shards: Vec<ShardStats>,
        worker_panics: u64,
    ) -> ServeReport {
        completions.sort_by_key(|c| c.id);
        // (ttft wall, ttft ticks, tpot wall) samples: overall, then by class.
        let mut all: (Vec<f64>, Vec<f64>, Vec<f64>) = Default::default();
        let mut by_class: [(Vec<f64>, Vec<f64>, Vec<f64>); Priority::COUNT] = Default::default();
        for c in &completions {
            for samples in [&mut all, &mut by_class[c.priority.index()]] {
                samples.0.extend(c.ttft_wall.map(|d| d.as_secs_f64()));
                samples.1.extend(c.ttft_ticks.map(|t| t as f64));
                samples.2.extend(c.tpot_wall.map(|d| d.as_secs_f64()));
            }
        }
        let mut overload = OverloadSummary::default();
        for s in &shards {
            for (acc, ticks) in overload.level_ticks.iter_mut().zip(s.level_ticks) {
                *acc += ticks;
            }
            overload.degraded_tokens += s.degraded_tokens;
            overload.deferrals += s.deferrals;
            overload.sheds += s.overload_sheds;
        }
        ServeReport {
            latency: LatencySummary::new(&all.0, &all.1, &all.2),
            latency_by_priority: by_class.map(|(tw, tt, tp)| LatencySummary::new(&tw, &tt, &tp)),
            overload,
            completions,
            aggregate_transfer: self.tier.aggregate_stats(),
            prefix: self.tier.prefix_stats(),
            aggregate_sharing: self.tier.aggregate_sharing(),
            peak_host_bytes: self.tier.allocator().peak_resident_bytes(),
            // Sum of per-queue high waters: an upper bound on peak global
            // occupancy, itself bounded by the configured capacity.
            queue_high_water: self.inboxes.iter().map(|i| i.queue.high_water()).sum(),
            shards,
            budget_underflow: self.budget.underflow_detected(),
            worker_panics,
            wall: self.epoch.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests;
