//! One shard's scheduler: the three pools a request moves through
//! (`prefilling`, `active`, `parked`) and the `tick()` that moves it. A
//! request leaves the admission window only to take a slot, so nothing
//! popped ever waits outside one. The phase order is the engine's contract
//! with every tick-clocked outcome (stalls, checkpoint cadence, TTFT ticks)
//! — see the module header of `engine.rs` for the phase list.

use super::ticket::{step_fault, store_fault, Active, Parked, Prefilling, SessionStats, Ticket};
use super::types::{Completion, Priority, ServeRequest, ShardStats};
use super::{lock, Fleet, InflightInfo};
use crate::error::ServeError;
use crate::faults::InjectedPanic;
use pqc_core::{SelectiveSession, SessionResources, SessionScratch, SessionStart, StepError};
use pqc_llm::{PrefillOptions, PrefillOutput};
use pqc_memhier::{MemError, PrefixHit};
use pqc_policies::{SelectionPolicy, SharedPolicyState};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// What the first session to serve a prompt leaves behind in the tier's
/// prefix registry, alongside the refcounted KV pages: the deterministic
/// prefill output (logits, score captures) and the trained PQ/IVF policy
/// snapshot. Later sessions with the same prompt adopt all three and skip
/// prefill, offload, and clustering entirely.
struct SharedPrefix {
    prefill: PrefillOutput,
    policy: Option<SharedPolicyState>,
}

/// Index of the highest of a pool's priorities; the earliest wins ties, so
/// a uniform-priority pool keeps stable order. `None` when empty.
fn strongest(priorities: impl Iterator<Item = Priority>) -> Option<usize> {
    priorities.enumerate().min_by_key(|&(_, p)| Reverse(p)).map(|(i, _)| i)
}

/// One worker's share of the fleet: its pools, its clock (`stats.ticks`),
/// its scratch, and its fault bookkeeping.
pub(super) struct Shard<'a> {
    fleet: &'a Fleet<'a>,
    id: usize,
    /// Hot-path buffers shared by every session this shard steps.
    scratch: SessionScratch,
    prefilling: Vec<Prefilling<'a>>,
    active: Vec<Active<'a>>,
    parked: Vec<Parked>,
    stats: ShardStats,
    /// Finished completions not yet published to the fleet.
    done: Vec<Completion>,
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
            prefilling: Vec::new(),
            active: Vec::new(),
            parked: Vec::new(),
            stats: ShardStats::default(),
            done: Vec::new(),
            stall_remaining: 0,
            fired_flips: HashSet::new(),
        }
    }

    /// Tick until the window and every pool have drained.
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
            // Nothing to step: parked work resumes at the next admission.
            return true;
        }
        let tick = self.stats.ticks;
        self.stats.ticks += 1;
        self.publish();
        self.kill_or_stall(tick);
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
    /// host pages, not slots).
    fn resident(&self) -> usize {
        self.active.len() + self.prefilling.len()
    }

    fn is_idle(&self) -> bool {
        self.resident() == 0 && self.parked.is_empty()
    }

    /// Fail a ticketed request out of the shard.
    fn fail(&mut self, ticket: Ticket, held: SessionStats, error: ServeError, injected: bool) {
        self.stats.failed += 1;
        self.stats.shed_tokens += ticket.remaining as u64;
        self.done.push(ticket.fail(self.id, held, error, injected));
    }

    // ---- admission -------------------------------------------------------

    /// Fill free slots. Order: resume preempted work, then the window —
    /// highest priority first, FIFO within a class. Returns `true` when the
    /// shard is finished: every pool is empty and so is its window, which
    /// never refills once empty.
    fn admit(&mut self) -> bool {
        while self.resident() < self.fleet.cfg.max_active_per_shard {
            if self.resume_parked() {
                continue;
            }
            match self.take_request(None) {
                Some(req) => self.seat(req),
                None => return self.is_idle(),
            }
        }
        false
    }

    /// Resume the strongest parked session into a free slot — unless a
    /// request in the window strictly outranks it (that one is admitted
    /// first).
    fn resume_parked(&mut self) -> bool {
        let Some(pi) = strongest(self.parked.iter().map(|p| p.ticket.priority)) else {
            return false;
        };
        let queued = self.fleet.inbox(self.id).max_key(|r| r.priority);
        if queued.is_some_and(|qp| qp > self.parked[pi].ticket.priority) {
            return false;
        }
        let t0 = Instant::now();
        let p = self.parked.swap_remove(pi);
        self.active.push(p.resume(self.fleet.model, self.fleet.fresh_cache()));
        self.stats.busy += t0.elapsed();
        true
    }

    /// The one path a request takes out of the window: pop the strongest
    /// request strictly above `floor` (any, for `None`) and enter it in the
    /// in-flight map. Admission and preemption both come through here, and
    /// the caller seats what it gets at once.
    fn take_request(&self, floor: Option<Priority>) -> Option<ServeRequest> {
        let req = self.fleet.inbox(self.id).pop_max_above(floor, |r| r.priority)?;
        let info = InflightInfo { priority: req.priority, decode_steps: req.decode_steps };
        lock(&self.fleet.inflight[self.id]).insert(req.id, info);
        Some(req)
    }

    fn prefill_options(&self, prompt_len: usize) -> PrefillOptions {
        // Head threads stay off: shard workers are the parallelism axis, and
        // nesting head threads under every worker oversubscribes the host.
        let opts = SelectiveSession::prefill_options(&self.fleet.cfg.session, prompt_len);
        PrefillOptions { parallel: false, ..opts }
    }

    /// Seat a popped request in a free slot: bind a session to a fresh
    /// tier namespace and a fresh cache, adopting a shared prefix
    /// or prefilling. Under chunked admission a cold prompt enters
    /// `prefilling` instead — its prefill runs one budgeted chunk per tick,
    /// so decode on this shard never stalls behind a long prompt.
    fn seat(&mut self, req: ServeRequest) {
        let t0 = Instant::now();
        let fleet = self.fleet;
        let ticket = Ticket::new(&req, self.stats.ticks);
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
    /// tier.
    fn full_prefix_hit(&self, tokens: &[u32]) -> Option<(PrefixHit, Arc<SharedPrefix>)> {
        if !self.fleet.cfg.prefix_cache {
            return None;
        }
        let hit = self.fleet.tier.lookup_prefix(tokens)?;
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

    /// Slots full and a request in the window strictly outranking a
    /// running session claims its slot. The weakest victim is suspended
    /// through the paged host tier — bit-identical on resume — first; only
    /// then is a request that strictly outranks it popped, in one locked
    /// call, and seated in the freed slot. Loops while candidates remain.
    ///
    /// Parking first means nothing popped ever waits off a slot: a failed
    /// suspend has popped nothing (the request stays in the window, the
    /// victim keeps decoding, and the next tick tries again), and when
    /// another shard took the outranking request meanwhile, the parked
    /// victim takes its slot back at the next admission.
    fn preempt(&mut self) {
        while self.resident() >= self.fleet.cfg.max_active_per_shard {
            let queued = self.fleet.inbox(self.id).max_key(|r| r.priority);
            let Some(vi) = queued.and_then(|qp| self.victim(qp)) else { break };
            let floor = self.active[vi].ticket.priority;
            let t0 = Instant::now();
            let parked = self.park(vi);
            self.stats.busy += t0.elapsed();
            if !parked {
                break;
            }
            self.stats.preemptions += 1;
            let Some(req) = self.take_request(Some(floor)) else { break };
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
    /// freeing its slot and dropping its cache. `false` when the host pool is
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

    /// Publish finished completions to the fleet — at every tick boundary,
    /// so if this worker dies, everything already done has left the thread.
    /// A published id leaves the in-flight map and drops its checkpoint (it
    /// can no longer need recovery), so at any kill boundary the in-flight
    /// map is exactly the set of incomplete requests.
    fn publish(&mut self) {
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
            // resume_unwind skips the panic hook: an injected crash must
            // not spray a backtrace over every chaos run. What this shard
            // leaves in flight or in its window fails over in `recover.rs`.
            std::panic::resume_unwind(Box::new(format!(
                "injected worker kill: shard {} at tick {tick}",
                self.id
            )));
        }
        if self.stall_remaining == 0 {
            self.stall_remaining = fleet.plan.stall_ticks(self.id, tick).unwrap_or(0);
        }
    }

    /// Checkpoint pass: on the cadence, snapshot every active session
    /// through the paged tier without evicting it, replacing its registry
    /// entry.
    fn checkpoint(&mut self, tick: u64) {
        let Some(k) = self.fleet.cfg.checkpoint_every_ticks else { return };
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
        let Some(pi) = strongest(self.prefilling.iter().map(|p| p.ticket.priority)) else {
            return;
        };
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

    /// Step `active[i]` once: fire its planned faults, then advance. `Err`
    /// is the cause (and whether it was injected) of a step the session did
    /// not survive; a corrupt page with a good checkpoint rolls back in
    /// place and counts as `Ok`.
    fn step(&mut self, i: usize) -> Result<(), (ServeError, bool)> {
        let fleet = self.fleet;
        let a = &mut self.active[i];
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
            Ok(()) => Ok(()),
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
    use crate::faults::FaultPlan;
    use pqc_llm::{LlmConfig, Model};
    use pqc_policies::PqCachePolicy;

    fn request(id: u64, decode_steps: usize, priority: Priority) -> ServeRequest {
        let policy = Box::new(PqCachePolicy::default());
        ServeRequest::new(id, prompt(64, 300 + id), decode_steps, policy).with_priority(priority)
    }

    #[test]
    fn failed_and_retired_completions_carry_their_tickets() {
        // Two ways a ticketed session leaves a shard: an active session
        // failed by an injected panic, and a parked one resumed and
        // retired. Each completion keeps its own progress and everything
        // its ticket carried.
        let model = Model::new(LlmConfig::tiny());
        let cfg = ServeConfig {
            shards: 1,
            max_active_per_shard: 4,
            session: session_cfg(),
            faults: Some(FaultPlan::default().with_session_panic(0, 2)),
            ..Default::default()
        };
        let fleet = Fleet::new(&model, &cfg, Vec::new());
        let mut shard = Shard::new(&fleet, 0);
        // (id, decode steps, priority): 0 fails at step 2, 1 gets parked,
        // then resumed and retired.
        let plan = [(0, 30, Priority::High), (1, 20, Priority::Low)];
        for &(id, steps, priority) in &plan {
            shard.seat(request(id, steps, priority));
        }
        shard.decode();
        shard.decode();
        let low = shard.active.iter().position(|a| a.ticket.id == 1).unwrap();
        assert!(shard.park(low), "uncapped tier takes the swap");
        shard.decode();
        assert!(shard.active.is_empty(), "the injected panic failed request 0");
        assert_eq!(shard.stats.failed, 1);
        assert_eq!(shard.stats.shed_tokens, 30 - 2);
        assert!(shard.resume_parked());
        while !shard.active.is_empty() {
            shard.decode();
            shard.retire();
        }

        // (generated, preemptions, failed) per id.
        let expect = [(2, 0, true), (20, 1, false)];
        for (&(id, _, priority), (generated, preemptions, failed)) in
            plan.iter().zip(expect)
        {
            let c = shard.done.iter().find(|c| c.id == id).expect("one completion per request");
            assert_eq!(c.failure.is_some(), failed, "request {id}");
            if let Some(cause) = &c.failure {
                assert_eq!(cause.error.class(), "session_poisoned");
                assert!(cause.injected);
                assert_eq!(cause.step, generated as u64, "request {id}: step = tokens served");
            }
            assert_eq!(c.generated.len(), generated, "request {id}");
            assert_eq!((c.priority, c.preemptions), (priority, preemptions));
            assert_eq!(c.ttft_ticks, Some(0), "request {id}: prefilled at admission");
            assert!(c.ttft_wall.is_some() && c.tpot_wall.is_some(), "request {id}");
            assert!(c.transfer.d2h_bytes > 0, "request {id} offloaded its prompt");
        }
    }

    #[test]
    fn failed_suspend_leaves_the_request_in_the_window_and_the_victim_decoding() {
        // One slot held by a Low session, a High request in the window, and
        // a page pool capped at exactly what the Low session holds: the
        // suspend cannot allocate its swap pages. Parking comes before the
        // pop, so nothing was popped — the High request is still in the
        // window, still nowhere in flight — and the victim decodes on.
        let model = Model::new(LlmConfig::tiny());
        let cfg = |plan| ServeConfig {
            shards: 1,
            max_active_per_shard: 1,
            session: session_cfg(),
            prefix_cache: false,
            faults: plan,
            ..Default::default()
        };
        let uncapped = cfg(None);
        let fleet = Fleet::new(&model, &uncapped, Vec::new());
        let mut shard = Shard::new(&fleet, 0);
        shard.seat(request(0, 8, Priority::Low));
        let held = fleet.tier.allocator().pages_in_use();
        drop(shard);

        let capped = cfg(Some(FaultPlan::default().with_page_limit(held)));
        let fleet = Fleet::new(&model, &capped, vec![request(1, 4, Priority::High)]);
        let mut shard = Shard::new(&fleet, 0);
        shard.seat(request(0, 8, Priority::Low));
        assert_eq!(fleet.tier.allocator().free_pages(), 0, "the Low session fills the pool");
        for step in 1..=2 {
            shard.preempt();
            assert_eq!(shard.stats.preemptions, 0);
            assert!(shard.parked.is_empty());
            assert_eq!(fleet.inbox(0).max_key(|r| r.priority), Some(Priority::High));
            assert!(!lock(&fleet.inflight[0]).contains_key(&1), "the High request was popped");
            shard.decode();
            let victim = &shard.active[0];
            assert_eq!((victim.ticket.id, victim.ticket.generated.len()), (0, step));
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

        let fleet = Fleet::new(&model, &cfg, Vec::new());
        let mut reference = Shard::new(&fleet, 0);
        reference.seat(request(7, STEPS, Priority::Normal));
        finish(&mut reference);

        let fleet = Fleet::new(&model, &cfg, Vec::new());
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
