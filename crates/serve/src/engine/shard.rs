//! One shard's scheduler: the pools a request moves through and the
//! `tick()` that moves it. The phase order is the engine's contract with
//! every tick-clocked outcome (deadlines, backoff, TTFT ticks, the brownout
//! ladder) — see the module header of `engine.rs` for the phase list.

use super::ticket::{
    step_fault, store_fault, Active, Parked, Prefilling, SessionStats, Ticket, Ticketed,
};
use super::types::{Completion, Priority, ServeRequest, ShardAssignment, ShardStats};
use super::{lock, Fleet, InflightInfo};
use crate::error::ServeError;
use crate::faults::InjectedPanic;
use crate::overload::{OverloadController, PressureLevel, PressureSample};
use pqc_core::{SelectiveSession, SessionResources, SessionScratch, SessionStart, StepError};
use pqc_llm::{PrefillOptions, PrefillOutput};
use pqc_memhier::{MemError, PrefixHit};
use pqc_policies::{SelectionPolicy, SharedPolicyState};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the first session to serve a prompt leaves behind in the tier's
/// prefix registry, alongside the refcounted KV pages: the deterministic
/// prefill output (logits, score captures) and the trained PQ/IVF policy
/// snapshot. Later sessions with the same prompt adopt all three and skip
/// prefill, offload, and clustering entirely.
struct SharedPrefix {
    prefill: PrefillOutput,
    policy: Option<SharedPolicyState>,
}

/// A popped request not yet admitted: holding for its recorded arrival
/// tick (trace replay), waiting out an admission-retry backoff, or
/// deferred by the brownout controller.
struct Waiting {
    req: ServeRequest,
    not_before: u64,
}

/// Where [`Shard::take_request`] gets the next request.
enum Source {
    /// The matured `waiting` entry at this index.
    Waiting(usize),
    /// The admission queue; `block` waits for an arrival.
    Queue { block: bool },
}

/// What became of a taken request.
enum Taken {
    /// Clear to admit.
    Ready(ServeRequest),
    /// Its arrival tick is still ahead: held in `waiting`.
    NotDue,
    /// Rejected by the fault plan or gated by the brownout controller:
    /// back in `waiting` with a backoff, or shed.
    TurnedAway,
    /// The source had nothing to give.
    Empty,
}

/// Index of the highest-priority entry; the earliest wins ties, so a
/// uniform-priority pool keeps stable order. `None` when empty.
fn strongest<T: Ticketed>(pool: &[T]) -> Option<usize> {
    pool.iter().enumerate().min_by_key(|(_, t)| Reverse(t.ticket().priority)).map(|(i, _)| i)
}

/// Move every late entry out of `pool` (in `swap_remove` order) into `late`.
fn drain_expired<T: Ticketed>(
    pool: &mut Vec<T>,
    tick: u64,
    now: Duration,
    late: &mut Vec<(Ticket, SessionStats, ServeError)>,
) {
    let mut i = 0;
    while i < pool.len() {
        match pool[i].ticket().expired(tick, now) {
            Some(cause) => {
                let (ticket, held) = pool.swap_remove(i).finish();
                late.push((ticket, held, cause));
            }
            None => i += 1,
        }
    }
}

/// One worker's share of the fleet: its pools, its clock (`stats.ticks`),
/// its scratch, and its fault/brownout bookkeeping.
pub(super) struct Shard<'a> {
    fleet: &'a Fleet<'a>,
    id: usize,
    /// Hot-path buffers shared by every session this shard steps.
    scratch: SessionScratch,
    waiting: Vec<Waiting>,
    prefilling: Vec<Prefilling<'a>>,
    active: Vec<Active<'a>>,
    parked: Vec<Parked>,
    /// Brownout controller, fed one pressure sample per tick. `None`
    /// leaves every decision path untouched — bit-identical to an engine
    /// built without brownout support.
    ctrl: Option<OverloadController>,
    stats: ShardStats,
    /// Finished completions not yet published to the fleet.
    done: Vec<Completion>,
    /// How much of `done` the controller has already sampled.
    observed: usize,
    /// Rejections consumed per request: injected by the fault plan, and
    /// controller sheds. Separate ledgers, so an injected-rejection
    /// schedule replays unperturbed with the controller on.
    rejected: HashMap<u64, u32>,
    ctrl_rejected: HashMap<u64, u32>,
    stall_remaining: u64,
    /// Bit flips already injected: a rollback replays the trigger step,
    /// and the fault must not re-fire or recovery could never converge.
    fired_flips: HashSet<(u64, u64)>,
}

impl<'a> Shard<'a> {
    pub(super) fn new(fleet: &'a Fleet<'a>, id: usize) -> Self {
        Self {
            fleet,
            id,
            scratch: SessionScratch::new(),
            waiting: Vec::new(),
            prefilling: Vec::new(),
            active: Vec::new(),
            parked: Vec::new(),
            ctrl: fleet.cfg.overload.as_ref().map(|c| OverloadController::new(c.clone())),
            stats: ShardStats::default(),
            done: Vec::new(),
            observed: 0,
            rejected: HashMap::new(),
            ctrl_rejected: HashMap::new(),
            stall_remaining: 0,
            fired_flips: HashSet::new(),
        }
    }

    /// Tick until the queue is closed and every pool has drained.
    pub(super) fn run(mut self) -> ShardStats {
        while self.tick() {}
        self.stats
    }

    /// One pass of the scheduler. `false` once the shard has drained.
    pub(super) fn tick(&mut self) -> bool {
        if self.admit() {
            self.publish();
            return false;
        }
        self.retire();
        self.preempt();
        if self.resident() == 0 {
            if !self.is_idle() {
                self.idle_tick();
            }
            return true;
        }
        let tick = self.stats.ticks;
        self.stats.ticks += 1;
        // Observe before publish: the pressure sample's rolling rates come
        // from completions still in the local buffer.
        self.observe(tick, self.resident());
        self.publish();
        self.kill_or_stall(tick);
        self.reap(tick);
        if self.stall_remaining > 0 {
            // Injected slow shard: hold the sessions, skip the work.
            self.stall_remaining -= 1;
            self.stats.stalled_steps += self.resident() as u64;
            return true;
        }
        self.checkpoint(tick);
        self.prefill_chunk(tick);
        self.decode();
        self.retire();
        true
    }

    /// Slot holders: decoding + prefilling sessions (parked sessions hold
    /// pinned pages, not slots).
    fn resident(&self) -> usize {
        self.active.len() + self.prefilling.len()
    }

    fn is_idle(&self) -> bool {
        self.resident() == 0 && self.parked.is_empty() && self.waiting.is_empty()
    }

    /// The strongest `waiting` entry whose hold has elapsed: highest
    /// priority, then longest matured, then lowest id. A total order — the
    /// pick must not depend on where an entry sits in `waiting`, because
    /// that follows the order requests were popped in, which races the
    /// producer thread.
    fn matured(&self) -> Option<usize> {
        let now = self.stats.ticks;
        let due = self.waiting.iter().enumerate().filter(|(_, w)| w.not_before <= now);
        due.min_by_key(|(_, w)| (Reverse(w.req.priority), w.not_before, w.req.id)).map(|(i, _)| i)
    }

    fn hold(&mut self, req: ServeRequest, not_before: u64) {
        self.waiting.push(Waiting { req, not_before });
    }

    /// Admission retries `id` has consumed on both ledgers.
    fn retries_of(&self, id: u64) -> u32 {
        let consumed = |ledger: &HashMap<u64, u32>| ledger.get(&id).copied().unwrap_or(0);
        consumed(&self.rejected) + consumed(&self.ctrl_rejected)
    }

    /// Fail a ticketed request out of the shard.
    fn fail(&mut self, ticket: Ticket, held: SessionStats, error: ServeError, injected: bool) {
        self.stats.failed += 1;
        self.stats.shed_tokens += ticket.remaining as u64;
        self.done.push(ticket.fail(self.id, held, error, injected));
    }

    /// Shed a request that never got a ticket.
    fn shed(&mut self, req: &ServeRequest, error: ServeError, injected: bool, retries: u32) {
        self.stats.failed += 1;
        self.stats.shed_tokens += req.decode_steps as u64;
        self.done.push(Completion::unserved(
            req.id,
            req.priority,
            retries,
            self.id,
            error,
            injected,
        ));
    }

    // ---- admission -------------------------------------------------------

    /// Fill free slots. Order: resume preempted work, then matured
    /// retries, then the queue — highest priority first, FIFO within a
    /// class. A shard with nothing pending at all waits on the queue. So
    /// does one with a free slot and an arrived request the producer thread
    /// has yet to deliver, when the producer cannot be held up by a full
    /// queue: the tick clock must not run ahead of such arrivals, or the
    /// schedule would depend on thread timing. Otherwise the shard keeps
    /// ticking while the queue is empty. Returns `true` when the queue is
    /// closed and drained with nothing left here.
    fn admit(&mut self) -> bool {
        while self.resident() < self.fleet.cfg.max_active_per_shard {
            if self.resume_parked() {
                continue;
            }
            let block = self.is_idle()
                || (self.fleet.unthrottled && self.backlog(self.stats.ticks) > 0);
            let source = self.matured().map_or(Source::Queue { block }, Source::Waiting);
            match self.take_request(source) {
                Taken::Ready(req) => self.seat(req),
                Taken::NotDue | Taken::TurnedAway => {}
                // A blocking pop only comes back empty from a closed,
                // drained queue.
                Taken::Empty => return block && self.is_idle(),
            }
        }
        false
    }

    /// Requests routed to this shard's queue that have arrived by `tick`
    /// and not been popped — tick-clock state, unlike the queue's physical
    /// depth, which races the producer thread and counts requests that are
    /// not due yet.
    fn backlog(&self, tick: u64) -> usize {
        let not_due = self.waiting.iter().filter(|w| w.req.arrival_tick > tick).count();
        self.fleet.inbox(self.id).backlog(tick, not_due)
    }

    /// Resume the strongest parked session into a free slot — unless a
    /// queued request strictly outranks it (that one is admitted first).
    fn resume_parked(&mut self) -> bool {
        let Some(pi) = strongest(&self.parked) else { return false };
        let queued = self.fleet.inbox(self.id).queue.max_key(|r| r.priority);
        if queued.is_some_and(|qp| qp > self.parked[pi].ticket.priority) {
            return false;
        }
        let t0 = Instant::now();
        let p = self.parked.swap_remove(pi);
        self.active.push(p.resume(self.fleet.model, self.fleet.fresh_cache()));
        self.stats.busy += t0.elapsed();
        true
    }

    /// The one path a request takes from a source towards a slot: pop →
    /// in-flight insert → arrival hold → injected screening → brownout
    /// gate. Both the admission and the preemption loop come through here,
    /// so a request's rejection schedule plays out identically whichever
    /// first pops it.
    fn take_request(&mut self, source: Source) -> Taken {
        let req = match source {
            Source::Waiting(i) => self.waiting.swap_remove(i).req,
            Source::Queue { block } => match self.fleet.inbox(self.id).pop(block) {
                Some(req) => req,
                None => return Taken::Empty,
            },
        };
        lock(&self.fleet.inflight[self.id]).insert(
            req.id,
            InflightInfo {
                priority: req.priority,
                retries: self.retries_of(req.id),
                decode_steps: req.decode_steps,
            },
        );
        if req.arrival_tick > self.stats.ticks {
            // Time-accurate replay: hold the request — consuming no retry —
            // until this shard's clock reaches its recorded arrival (idle
            // ticks mature the clock).
            let due = req.arrival_tick;
            self.hold(req, due);
            return Taken::NotDue;
        }
        let Some(req) = self.screen(req) else { return Taken::TurnedAway };
        self.brownout_gate(req).map_or(Taken::TurnedAway, Taken::Ready)
    }

    /// One consumed rejection: re-queue with seeded backoff while the
    /// request's retry budget lasts, else shed it typed. `prior` counts
    /// retries already spent on the other ledger. Returns `true` if shed.
    fn retry_or_shed(
        &mut self,
        req: ServeRequest,
        attempts: u32,
        seed: u64,
        injected: bool,
        prior: u32,
    ) -> bool {
        if attempts > req.retry.max_retries {
            let error = ServeError::Admission { attempts };
            self.shed(&req, error, injected, prior + attempts.saturating_sub(1));
            return true;
        }
        self.stats.retries += 1;
        let backoff = req.retry.backoff(seed ^ req.id, attempts);
        self.hold(req, self.stats.ticks + backoff);
        false
    }

    /// Injected admission screening: consume a planned rejection. Returns
    /// the request when it's clear to admit.
    fn screen(&mut self, req: ServeRequest) -> Option<ServeRequest> {
        let planned = self.fleet.plan.rejections(req.id);
        if self.rejected.get(&req.id).copied().unwrap_or(0) >= planned {
            return Some(req);
        }
        let consumed = self.rejected.entry(req.id).or_insert(0);
        *consumed += 1;
        let attempts = *consumed;
        self.retry_or_shed(req, attempts, self.fleet.plan.seed, true, 0);
        None
    }

    /// Brownout admission control, applied *after* injected screening so a
    /// fault plan's rejection schedule plays out identically with the
    /// controller on. Only Low-priority requests are gated: at `Saturated`
    /// the request is **deferred** — pushed back with a bounded seeded
    /// delay, consuming no retry — and at `Critical` it takes the shed
    /// path (seeded backoff retries, then a typed admission shed).
    fn brownout_gate(&mut self, req: ServeRequest) -> Option<ServeRequest> {
        let Some(ctrl) = self.ctrl.as_ref().filter(|_| req.priority == Priority::Low) else {
            return Some(req);
        };
        if ctrl.sheds_low_admission() {
            let seed = ctrl.seed();
            let prior = self.rejected.get(&req.id).copied().unwrap_or(0);
            let consumed = self.ctrl_rejected.entry(req.id).or_insert(0);
            *consumed += 1;
            let attempts = *consumed;
            if self.retry_or_shed(req, attempts, seed, false, prior) {
                self.stats.overload_sheds += 1;
            }
            return None;
        }
        if ctrl.defers_low_admission() {
            self.stats.deferrals += 1;
            let due = self.stats.ticks + ctrl.defer_delay(req.id, self.stats.ticks);
            self.hold(req, due);
            return None;
        }
        Some(req)
    }

    fn prefill_options(&self, prompt_len: usize) -> PrefillOptions {
        // Head threads stay off: shard workers are the parallelism axis, and
        // nesting head threads under every worker oversubscribes the host.
        let opts = SelectiveSession::prefill_options(&self.fleet.cfg.session, prompt_len);
        PrefillOptions { parallel: false, ..opts }
    }

    /// Seat a screened request in a free slot: bind a session to a fresh
    /// tier namespace and a budget-backed cache, adopting a shared prefix
    /// or prefilling. Under chunked admission a cold prompt enters
    /// `prefilling` instead — its prefill runs one budgeted chunk per tick,
    /// so decode on this shard never stalls behind a long prompt.
    fn seat(&mut self, req: ServeRequest) {
        let t0 = Instant::now();
        let fleet = self.fleet;
        let retries = self.retries_of(req.id);
        let ticket = Ticket::new(&req, retries, self.stats.ticks, fleet.epoch.elapsed());
        let ServeRequest { tokens, policy, .. } = req;
        let started = match self.full_prefix_hit(&tokens) {
            Some((hit, shared)) => {
                let store = fleet.tier.new_namespace_with_prefix(&hit);
                SelectiveSession::try_start_from_shared_prefix(
                    fleet.model,
                    policy,
                    fleet.cfg.session,
                    &shared.prefill,
                    SessionResources { store, cache: fleet.fresh_cache() },
                    shared.policy.as_ref(),
                )
            }
            None if fleet.cfg.prefill_chunk_tokens.is_some() => {
                let job = fleet.model.begin_prefill(&tokens, &self.prefill_options(tokens.len()));
                self.prefilling.push(Prefilling { ticket, job, tokens, policy });
                self.stats.admitted += 1;
                self.stats.busy += t0.elapsed();
                return;
            }
            None => {
                let prefill = fleet.model.prefill(&tokens, &self.prefill_options(tokens.len()));
                self.start_cold(policy, &tokens, prefill)
            }
        };
        // First token known now (prefill/adoption is one admission event):
        // 0 ticks on the deterministic clock.
        if self.activate(ticket, started, 0) {
            self.stats.admitted += 1;
        }
        self.stats.busy += t0.elapsed();
    }

    /// Prefix-cache fast path: an identical prompt already served means
    /// the pages, prefill output, and trained policy state are all in the
    /// tier. Only a full-prompt hit qualifies; a partial hit would still
    /// need a partial prefill, which the dense model cannot resume
    /// mid-prompt.
    fn full_prefix_hit(&self, tokens: &[u32]) -> Option<(PrefixHit, Arc<SharedPrefix>)> {
        if !self.fleet.cfg.prefix_cache {
            return None;
        }
        let hit = self.fleet.tier.lookup_prefix(tokens).filter(|h| h.len() == tokens.len())?;
        let shared = Arc::clone(hit.payload()).downcast::<SharedPrefix>().ok()?;
        Some((hit, shared))
    }

    /// Start a session from a finished prefill in a fresh namespace, and
    /// donate its pages + policy state to the prefix registry. Racing
    /// registrants are benign: first wins, the loser keeps its private copy.
    fn start_cold(
        &self,
        policy: Box<dyn SelectionPolicy + Send>,
        tokens: &[u32],
        prefill: PrefillOutput,
    ) -> Result<SessionStart<'a>, MemError> {
        let fleet = self.fleet;
        let resources =
            SessionResources { store: fleet.tier.new_namespace(), cache: fleet.fresh_cache() };
        let start = SelectiveSession::try_start_from_shared_prefix(
            fleet.model,
            policy,
            fleet.cfg.session,
            &prefill,
            resources,
            None,
        )?;
        if fleet.cfg.prefix_cache {
            let payload =
                Arc::new(SharedPrefix { policy: start.session.export_policy_state(), prefill });
            let _ = fleet.tier.register_prefix(tokens, start.session.store(), payload);
        }
        Ok(start)
    }

    /// Put a started session into `active`, stamping its first token
    /// `ttft_ticks` after admission — or, when the host tier could not hold
    /// the prompt, fail the ticket and keep serving everyone else.
    fn activate(
        &mut self,
        mut ticket: Ticket,
        started: Result<SessionStart<'a>, MemError>,
        ttft_ticks: u64,
    ) -> bool {
        match started {
            Ok(start) => {
                ticket.first_token(&start.logits, ttft_ticks, self.fleet.epoch.elapsed());
                self.active.push(Active { ticket, session: start.session });
                true
            }
            Err(e) => {
                let (error, injected) = store_fault(e, &self.fleet.plan);
                self.fail(ticket, SessionStats::default(), error, injected);
                false
            }
        }
    }

    // ---- preemption ------------------------------------------------------

    /// Slots full and a pending request (queued, or a matured retry)
    /// strictly outranking a running session claims its slot. The weakest
    /// victim is suspended through the paged host tier — bit-identical on
    /// resume — and the request seats in the freed slot. Loops while
    /// candidates remain.
    fn preempt(&mut self) {
        while self.resident() >= self.fleet.cfg.max_active_per_shard {
            let queued = self.fleet.inbox(self.id).queue.max_key(|r| r.priority);
            let matured = self.matured();
            let waited = matured.map(|i| self.waiting[i].req.priority);
            let Some(vi) = queued.max(waited).and_then(|qp| self.victim(qp)) else { break };
            // Prefer the matured retry when it's at least as strong (it
            // arrived first); otherwise pop the queue.
            let source = match matured {
                Some(i) if waited >= queued => Source::Waiting(i),
                _ => Source::Queue { block: false },
            };
            let req = match self.take_request(source) {
                Taken::Ready(req) => req,
                Taken::TurnedAway => continue,
                // Not due yet (held without parking a victim), or another
                // shard emptied the queue between the scan and the pop.
                Taken::NotDue | Taken::Empty => break,
            };
            if req.priority <= self.active[vi].ticket.priority {
                // Raced: another shard took the stronger request between
                // the scan and the pop. Hold this one for admission.
                self.hold(req, self.stats.ticks);
                break;
            }
            let t0 = Instant::now();
            let parked = self.park(vi);
            self.stats.busy += t0.elapsed();
            if !parked {
                // The host pool can't take the swap right now: the victim
                // came back intact — keep decoding it, retry next tick.
                self.hold(req, self.stats.ticks + 1);
                break;
            }
            self.stats.preemptions += 1;
            self.seat(req);
        }
    }

    /// The preemption victim for an arrival of class `qp`: the weakest
    /// strictly-lower-priority running session. Among equals the most
    /// recently admitted loses (older sessions keep their progress), then
    /// the highest id — a total, deterministic order.
    fn victim(&self, qp: Priority) -> Option<usize> {
        let key = |t: &Ticket| (t.priority, Reverse(t.admitted_tick), Reverse(t.id));
        self.active
            .iter()
            .enumerate()
            .filter(|(_, a)| a.ticket.priority < qp && a.ticket.remaining > 0)
            .min_by_key(|(_, a)| key(&a.ticket))
            .map(|(i, _)| i)
    }

    /// Suspend `active[vi]` through the paged host tier into `parked`,
    /// freeing its slot and cache budget. `false` when the host pool is
    /// exhausted: the victim returns to `active` intact, with the orphaned
    /// partial-swap metering folded into its ticket.
    fn park(&mut self, vi: usize) -> bool {
        let Active { mut ticket, session } = self.active.swap_remove(vi);
        // Read before suspend: on success the session's cache is dropped
        // and its stats would be lost; on failure it keeps its cache, so
        // nothing folds.
        let cache = session.cache_stats();
        match session.suspend(&self.fleet.tier) {
            Ok(suspended) => {
                ticket.carried_cache += cache;
                ticket.preemptions += 1;
                self.parked.push(Parked { ticket, suspended });
                true
            }
            Err(e) => {
                ticket.carried_transfer += e.swap_transfer;
                self.active.push(Active { ticket, session: e.session });
                false
            }
        }
    }

    // ---- the tick proper -------------------------------------------------

    /// Nothing holds a slot but retries or parked work are pending: ticks
    /// are the engine's clock, so burn one to let backoff elapse (parked
    /// work resumes via admission next pass). The controller observes idle
    /// ticks too — liveness: deferred work only re-admits once decayed
    /// pressure steps the ladder down, which needs the clock *and* the
    /// controller to keep running.
    fn idle_tick(&mut self) {
        let tick = self.stats.ticks;
        self.stats.ticks += 1;
        self.observe(tick, 0);
    }

    /// Feed the brownout controller tick `tick`'s pressure sample and
    /// meter the resulting level. Every input is tick-clock state: the
    /// backlog of requests that have *arrived* (never physical queue
    /// depth, which races the producer thread), resident slots, page-pool
    /// occupancy, and completion-derived rolling miss/TTFT rates. Deferred
    /// (`waiting`) work is not pressure, so pressure decays once
    /// admissions stop and the ladder steps back down, re-admitting it.
    fn observe(&mut self, tick: u64, resident: usize) {
        if self.ctrl.is_none() {
            return;
        }
        let capacity = self.fleet.inbox(self.id).queue.capacity();
        let queue_frac = self.backlog(tick).min(capacity) as f64 / capacity as f64;
        let Some(ctrl) = self.ctrl.as_mut() else { return };
        let slo = ctrl.config().ttft_slo_ticks;
        let (mut done, mut missed, mut ttft_over) = (0u32, 0u32, 0u32);
        for c in &self.done[self.observed..] {
            done += 1;
            let cause = c.failure.as_ref().map(|f| &f.error);
            missed += u32::from(matches!(cause, Some(ServeError::DeadlineExceeded { .. })));
            ttft_over += u32::from(c.ttft_ticks.is_some_and(|t| t > slo));
        }
        self.observed = self.done.len();
        let alloc = self.fleet.tier.allocator();
        let pool_frac = match alloc.max_pages() {
            Some(max) if max > 0 => alloc.pages_in_use() as f64 / max as f64,
            _ => 0.0,
        };
        let sample = PressureSample {
            queue_frac,
            slot_frac: resident as f64 / self.fleet.cfg.max_active_per_shard as f64,
            pool_frac,
            done,
            missed,
            ttft_over,
        };
        let level = ctrl.observe(&sample);
        self.stats.level_ticks[level.index()] += 1;
    }

    /// Publish finished completions to the fleet — at every tick boundary,
    /// so if this worker dies, everything already done has left the thread.
    /// A published id leaves the in-flight map and drops its checkpoint (it
    /// can no longer need recovery), so at any kill boundary the in-flight
    /// map is exactly the set of incomplete requests.
    fn publish(&mut self) {
        self.observed = 0;
        if self.done.is_empty() {
            return;
        }
        {
            let mut registry = lock(&self.fleet.registry);
            let mut inflight = lock(&self.fleet.inflight[self.id]);
            for c in &self.done {
                registry.remove(&c.id);
                inflight.remove(&c.id);
            }
        }
        lock(&self.fleet.completions).append(&mut self.done);
    }

    /// Fire the fault plan's shard-level events for `tick`: a worker kill
    /// unwinds out of the worker here; a stall starts holding the shard.
    fn kill_or_stall(&mut self, tick: u64) {
        let fleet = self.fleet;
        if fleet.plan.kill_at(self.id, tick) {
            // A dying worker that exclusively owns its queue closes it
            // first: a blocked producer push bounces (shed as a shard
            // loss) instead of deadlocking, and stranded items stay
            // drainable after the close. The first-free shared queue stays
            // open for the surviving workers.
            if fleet.cfg.assignment == ShardAssignment::RoundRobin || fleet.cfg.shards == 1 {
                fleet.inbox(self.id).queue.close();
            }
            // resume_unwind skips the panic hook: an injected crash must
            // not spray a backtrace over every chaos run.
            std::panic::resume_unwind(Box::new(format!(
                "injected worker kill: shard {} at tick {tick}",
                self.id
            )));
        }
        if self.stall_remaining == 0 {
            self.stall_remaining = fleet.plan.stall_ticks(self.id, tick).unwrap_or(0);
        }
    }

    /// Reap everything whose deadline elapsed on either clock: scheduler
    /// ticks (deterministic) or wall time since admission (SLO classes).
    /// Checked every tick — including stalled ones: a stalled shard is
    /// exactly how deadlines get blown. Mid-prefill requests (no first
    /// token: `ttft_*` stay `None`) and parked sessions are reaped too.
    fn reap(&mut self, tick: u64) {
        let now = self.fleet.epoch.elapsed();
        let mut late = Vec::new();
        drain_expired(&mut self.active, tick, now, &mut late);
        drain_expired(&mut self.prefilling, tick, now, &mut late);
        drain_expired(&mut self.parked, tick, now, &mut late);
        for (ticket, held, cause) in late {
            self.fail(ticket, held, cause, false);
        }
    }

    /// Checkpoint pass: on the cadence, snapshot every active session
    /// through the paged tier without evicting it, replacing its registry
    /// entry. Under pressure the cadence stretches: snapshots are pure
    /// overhead on a saturated shard, and a sparser checkpoint trail only
    /// widens the replay window, never correctness.
    fn checkpoint(&mut self, tick: u64) {
        let Some(k) = self.fleet.cfg.checkpoint_every_ticks else { return };
        let k = self.ctrl.as_ref().map_or(k, |c| c.checkpoint_every(k));
        if !tick.is_multiple_of(k) || self.active.is_empty() {
            return;
        }
        let t0 = Instant::now();
        for a in &self.active {
            if let Some(snapshot) = a.checkpoint(&self.fleet.tier) {
                self.stats.checkpoints += 1;
                self.stats.checkpoint_bytes += snapshot.suspended.swap_stats().d2h_bytes;
                lock(&self.fleet.registry).insert(snapshot.ticket.id, snapshot);
            }
        }
        self.stats.busy += t0.elapsed();
    }

    /// Chunked prefill: the highest-priority prefill advances one budgeted
    /// chunk per tick, interleaved with decode — a long prompt trickles in
    /// without freezing its neighbours. A finished prompt binds to a live
    /// session exactly like monolithic admission does.
    fn prefill_chunk(&mut self, tick: u64) {
        let Some(chunk) = self.fleet.cfg.prefill_chunk_tokens else { return };
        let Some(pi) = strongest(&self.prefilling) else { return };
        let t0 = Instant::now();
        self.prefilling[pi].job.advance(chunk);
        self.stats.prefill_chunks += 1;
        if self.prefilling[pi].job.is_done() {
            let Prefilling { ticket, job, tokens, policy } = self.prefilling.swap_remove(pi);
            let started = self.start_cold(policy, &tokens, job.finish());
            // The chunk completing on `tick` yielded the first token:
            // inclusive tick count since admission.
            let ttft_ticks = tick + 1 - ticket.admitted_tick;
            self.activate(ticket, started, ttft_ticks);
        }
        self.stats.busy += t0.elapsed();
    }

    /// Each active session decodes one token through the shard's shared
    /// scratch; a session whose step failed leaves as a failed completion.
    fn decode(&mut self) {
        let t0 = Instant::now();
        let mut i = 0;
        while i < self.active.len() {
            match self.step(i) {
                Ok(()) => i += 1,
                Err((error, injected)) => {
                    let (ticket, held) = self.active.swap_remove(i).finish();
                    self.fail(ticket, held, error, injected);
                }
            }
        }
        self.stats.busy += t0.elapsed();
    }

    /// Step `active[i]` once: apply the brownout effort, fire its planned
    /// faults, advance, meter. `Err` is the cause (and whether it was
    /// injected) of a step the session did not survive; a corrupt page
    /// with a good checkpoint rolls back in place and counts as `Ok`.
    fn step(&mut self, i: usize) -> Result<(), (ServeError, bool)> {
        let fleet = self.fleet;
        let a = &mut self.active[i];
        // Effort is re-applied every step: the level can move every tick,
        // and a policy fork/resume resets effort to full. A full-effort
        // application is an exact passthrough, so High-priority (and
        // Nominal) sessions decode bit-identically to the controller-off
        // engine.
        let effort = self.ctrl.as_ref().map(|c| c.effort_for(a.ticket.priority));
        if let Some(effort) = effort {
            a.session.set_effort(effort);
        }
        let (id, at_step) = (a.ticket.id, a.session.steps());
        if fleet.plan.panic_step(id) == Some(at_step) {
            return Err((InjectedPanic { request_id: id, at_step }.to_error(), true));
        }
        if let Some(bit) = fleet.plan.bit_flip_at(id, at_step) {
            // Silent store corruption: flip a bit behind the checksum's
            // back. Detection happens on the next fetch of the damaged
            // slot — possibly steps later if intact GPU copies mask it —
            // never at injection.
            if self.fired_flips.insert((id, at_step)) {
                a.session.corrupt_middle_slot(0, 0, bit);
            }
        }
        match a.advance(&mut self.scratch, fleet.cfg.record_trace) {
            Ok(()) => {
                if let (Some(ctrl), Some(effort)) = (self.ctrl.as_ref(), effort) {
                    let level = ctrl.level();
                    self.stats.degraded_steps += u64::from(level != PressureLevel::Nominal);
                    if !effort.is_full() {
                        self.stats.degraded_tokens += 1;
                        a.ticket.max_degrade = a.ticket.max_degrade.max(level);
                    }
                }
                Ok(())
            }
            Err(StepError::Store(MemError::PageCorrupt { .. })) if self.roll_back(i) => Ok(()),
            Err(e) => Err(step_fault(e, &fleet.plan)),
        }
    }

    /// A page of `active[i]` failed its checksum: the corrupt bytes were
    /// never served (the fetch failed the step). Roll back to the last
    /// good checkpoint and replay in place; `false` when there is none (or
    /// it no longer verifies) and the corruption must surface.
    fn roll_back(&mut self, i: usize) -> bool {
        let id = self.active[i].ticket.id;
        let Some(snapshot) = lock(&self.fleet.registry).remove(&id) else { return false };
        if snapshot.suspended.verify().is_err() {
            return false;
        }
        let restored = snapshot.resume(self.fleet.model, self.fleet.fresh_cache());
        let a = &mut self.active[i];
        a.session = restored.session;
        a.ticket.roll_back_to(restored.ticket);
        self.stats.rollbacks += 1;
        true
    }

    /// Sessions with nothing left to decode leave as clean completions.
    fn retire(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].ticket.remaining == 0 {
                let (ticket, held) = self.active.swap_remove(i).finish();
                self.done.push(ticket.complete(self.id, held, None));
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{prompt, session_cfg};
    use super::super::types::ServeConfig;
    use super::*;
    use pqc_llm::{LlmConfig, Model};
    use pqc_policies::PqCachePolicy;

    fn request(id: u64, decode_steps: usize, priority: Priority) -> ServeRequest {
        let policy = Box::new(PqCachePolicy::default());
        ServeRequest::new(id, prompt(64, 300 + id), decode_steps, policy).with_priority(priority)
    }

    #[test]
    fn one_reap_covers_active_prefilling_and_parked() {
        // The same 5-tick deadline over a decoding, a mid-prefill and a
        // parked session: each leaves as DeadlineExceeded with its own
        // progress, and everything its ticket carried.
        let model = Model::new(LlmConfig::tiny());
        let cfg = ServeConfig {
            shards: 1,
            max_active_per_shard: 4,
            session: session_cfg(),
            // One chunk swallows a 64-token prompt.
            prefill_chunk_tokens: Some(512),
            ..Default::default()
        };
        let fleet = Fleet::new(&model, &cfg, &[]);
        let mut shard = Shard::new(&fleet, 0);
        // (id, decode steps, priority, retries): 0 stays active, 1 gets
        // parked, 2 never leaves prefill.
        let plan = [(0, 30, Priority::High, 1), (1, 20, Priority::Low, 2), (2, 10, Priority::Normal, 3)];
        for &(id, steps, priority, retries) in &plan[..2] {
            shard.rejected.insert(id, retries);
            shard.seat(request(id, steps, priority).with_deadline(5));
        }
        shard.prefill_chunk(0);
        shard.prefill_chunk(1);
        assert_eq!(shard.active.len(), 2, "both prompts finished prefill");
        shard.decode();
        shard.decode();
        let low = shard.active.iter().position(|a| a.ticket.id == 1).unwrap();
        assert!(shard.park(low), "uncapped tier takes the swap");
        let (id, steps, priority, retries) = plan[2];
        shard.rejected.insert(id, retries);
        shard.seat(request(id, steps, priority).with_deadline(5));
        assert_eq!((shard.active.len(), shard.prefilling.len(), shard.parked.len()), (1, 1, 1));

        shard.reap(4);
        assert!(shard.done.is_empty(), "one tick early reaps nothing");
        shard.reap(5);
        assert_eq!((shard.active.len(), shard.prefilling.len(), shard.parked.len()), (0, 0, 0));
        assert_eq!(shard.stats.failed, 3);
        assert_eq!(shard.stats.shed_tokens, (30 - 2) + (20 - 2) + 10);

        // (generated, preemptions, has a first token) per id.
        let expect = [(2, 0, true), (2, 1, true), (0, 0, false)];
        for (&(id, _, priority, retries), (generated, preemptions, first_token)) in
            plan.iter().zip(expect)
        {
            let c = shard.done.iter().find(|c| c.id == id).expect("one completion per request");
            let cause = c.failure.as_ref().expect("reaped");
            assert_eq!(
                cause.error,
                ServeError::DeadlineExceeded { deadline_ticks: 5, elapsed_ticks: 5 },
                "request {id}"
            );
            assert!(!cause.injected);
            assert_eq!(c.generated.len(), generated, "request {id}");
            assert_eq!(cause.step, generated as u64, "request {id}: step = tokens served");
            assert_eq!((c.retries, c.priority, c.preemptions), (retries, priority, preemptions));
            assert_eq!(c.ttft_ticks.is_some(), first_token, "request {id}");
            assert_eq!(c.ttft_wall.is_some(), first_token, "request {id}");
            assert_eq!(c.tpot_wall.is_some(), generated > 0, "request {id}");
            // A session that existed offloaded its prompt; a mid-prefill
            // request never touched the tier.
            assert_eq!(c.transfer.d2h_bytes > 0, first_token, "request {id}");
        }
    }

    #[test]
    fn checkpoint_preempt_resume_rollback_keeps_the_books_closed() {
        // The path that used to copy ticket fields by hand four times over.
        // After the rollback the ticket carries exactly the snapshot's
        // history plus the snapshot's own swap round trip; the completion
        // adds the replayed session's traffic on top — and the tokens match
        // an undisturbed run.
        let model = Model::new(LlmConfig::tiny());
        let cfg = ServeConfig {
            shards: 1,
            max_active_per_shard: 1,
            session: session_cfg(),
            checkpoint_every_ticks: Some(1),
            prefix_cache: false,
            ..Default::default()
        };
        const STEPS: usize = 24;
        let finish = |shard: &mut Shard<'_>| {
            let mut last = None;
            while let Some(a) = shard.active.first() {
                last = Some((a.session.transfer_stats(), a.session.cache_stats()));
                shard.retire();
                shard.decode();
            }
            last.expect("the session was active")
        };

        let fleet = Fleet::new(&model, &cfg, &[]);
        let mut reference = Shard::new(&fleet, 0);
        reference.seat(request(7, STEPS, Priority::Normal));
        finish(&mut reference);

        let fleet = Fleet::new(&model, &cfg, &[]);
        let mut shard = Shard::new(&fleet, 0);
        shard.seat(request(7, STEPS, Priority::Normal));
        for _ in 0..3 {
            shard.decode();
        }
        shard.checkpoint(0);
        assert_eq!(shard.stats.checkpoints, 1);
        let base_transfer = shard.active[0].session.transfer_stats();
        let base_cache = shard.active[0].session.cache_stats();
        let snapshot_d2h = lock(&fleet.registry)[&7].suspended.swap_stats().d2h_bytes;
        // Progress past the snapshot, a preemption round trip, then store
        // corruption: all of it is rolled back except the history.
        shard.decode();
        shard.decode();
        assert!(shard.park(0));
        assert!(shard.resume_parked());
        assert!(shard.active[0].session.corrupt_middle_slot(0, 0, 9));
        for _ in 0..STEPS {
            if shard.stats.rollbacks > 0 {
                break;
            }
            shard.decode();
        }
        assert_eq!(shard.stats.rollbacks, 1, "the corrupt page must be fetched and rolled back");

        let t = &shard.active[0].ticket;
        assert_eq!(t.generated.len(), 3, "decode progress rewound to the snapshot");
        assert_eq!((t.preemptions, t.recovered), (1, true), "history survives the rewind");
        let carried = t.carried_transfer;
        assert_eq!(carried.d2h_bytes, base_transfer.d2h_bytes + snapshot_d2h);
        assert_eq!(carried.h2d_bytes, base_transfer.h2d_bytes + snapshot_d2h, "swap is symmetric");
        assert_eq!(t.carried_cache, base_cache);

        let (replay_transfer, replay_cache) = finish(&mut shard);
        let c = &shard.done[0];
        assert!(c.is_success() && c.recovered);
        assert_eq!(c.transfer, carried + replay_transfer);
        assert_eq!(c.cache, base_cache + replay_cache);
        assert_eq!(c.preemptions, 1);
        assert_eq!(c.generated, reference.done[0].generated, "rollback changed the tokens");
    }
}
