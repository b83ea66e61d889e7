//! One request's scheduler-side state — the [`Ticket`] — and the places a
//! ticketed request can sit: decoding in a slot ([`Active`]), mid-prefill
//! in a slot ([`Prefilling`]), or off-slot in the paged host tier
//! ([`Parked`]: preempted, or a checkpoint snapshot in the registry).
//! Every state change moves or clones the ticket whole, and every
//! [`Completion`] is built by one of the two constructors at the bottom.

use super::types::{Completion, Priority, ServeRequest, StepTrace};
use crate::error::{FailureCause, ServeError};
use crate::faults::FaultPlan;
use crate::overload::PressureLevel;
use pqc_cache::{BlockCache, CacheStats};
use pqc_core::{SelectiveSession, SessionScratch, StepError, SuspendedSession};
use pqc_llm::{Model, PrefillJob};
use pqc_memhier::{KvTier, MemError, SharingStats, TransferStats};
use pqc_policies::SelectionPolicy;
use std::time::{Duration, Instant};

/// Everything the scheduler tracks about an admitted request outside the
/// session itself. Created once at admission, it travels with the request
/// through every pool and into its completion.
#[derive(Clone)]
pub(super) struct Ticket {
    pub(super) id: u64,
    pub(super) priority: Priority,
    /// Admission retries consumed before a slot was granted.
    pub(super) retries: u32,
    /// Per-shard tick and run-epoch wall time at admission: the bases both
    /// deadlines count from.
    pub(super) admitted_tick: u64,
    pub(super) admitted_wall: Duration,
    pub(super) deadline: Option<u64>,
    pub(super) wall_deadline: Option<Duration>,
    /// Token to feed the next decode step (set with the first-token stamp).
    pub(super) next: u32,
    pub(super) remaining: usize,
    pub(super) generated: Vec<u32>,
    pub(super) trace: Vec<StepTrace>,
    /// Stamped when the first token became known (end of prefill, or prefix
    /// adoption); `None` while the prompt is still mid-prefill.
    pub(super) ttft_wall: Option<Duration>,
    pub(super) ttft_ticks: Option<u64>,
    /// Wall time spent in this request's decode steps.
    pub(super) decode_wall: Duration,
    /// Stats no session holds any more: swap traffic of preemption round
    /// trips, caches dropped by suspends, and — on a checkpoint's ticket —
    /// everything the live session had metered up to the snapshot (the
    /// snapshot's forked namespace meters from zero, so replay adds cleanly
    /// on top).
    pub(super) carried_transfer: TransferStats,
    pub(super) carried_cache: CacheStats,
    pub(super) preemptions: u32,
    /// True once crash recovery touched this request (rollback or replay).
    pub(super) recovered: bool,
    /// Highest pressure rung at which a token was decoded under reduced
    /// effort (see [`Completion::max_degrade_level`]).
    pub(super) max_degrade: PressureLevel,
}

impl Ticket {
    /// The ticket for `req`, admitted now after `retries` rejections.
    pub(super) fn new(req: &ServeRequest, retries: u32, tick: u64, wall: Duration) -> Self {
        Self {
            id: req.id,
            priority: req.priority,
            retries,
            admitted_tick: tick,
            admitted_wall: wall,
            deadline: req.deadline,
            wall_deadline: req.wall_deadline,
            next: 0,
            remaining: req.decode_steps,
            generated: Vec::with_capacity(req.decode_steps),
            trace: Vec::new(),
            ttft_wall: None,
            ttft_ticks: None,
            decode_wall: Duration::ZERO,
            carried_transfer: TransferStats::default(),
            carried_cache: CacheStats::default(),
            preemptions: 0,
            recovered: false,
            max_degrade: PressureLevel::Nominal,
        }
    }

    /// Stamp the first token on both clocks: `ticks` is 0 for monolithic or
    /// prefix-adopted prefill (one admission event), the inclusive
    /// chunk-tick count under chunked prefill.
    pub(super) fn first_token(&mut self, logits: &[f32], ticks: u64, wall: Duration) {
        self.next = pqc_tensor::argmax(logits) as u32;
        self.ttft_ticks = Some(ticks);
        self.ttft_wall = Some(wall);
    }

    /// The `DeadlineExceeded` cause when this request is late on either
    /// clock at `tick` / `now`. The deterministic tick deadline takes
    /// precedence when both elapsed; a wall (SLO) expiry reports
    /// **milliseconds** in the tick fields.
    pub(super) fn expired(&self, tick: u64, now: Duration) -> Option<ServeError> {
        // Every token decoded: the session is retiring, not late. A prompt
        // still mid-prefill has no first token yet and is always reapable.
        if self.remaining == 0 && self.ttft_ticks.is_some() {
            return None;
        }
        let elapsed_ticks = tick - self.admitted_tick;
        if let Some(deadline_ticks) = self.deadline.filter(|&d| elapsed_ticks >= d) {
            return Some(ServeError::DeadlineExceeded { deadline_ticks, elapsed_ticks });
        }
        let elapsed_wall = now.saturating_sub(self.admitted_wall);
        let deadline = self.wall_deadline.filter(|&d| elapsed_wall >= d)?;
        Some(ServeError::DeadlineExceeded {
            deadline_ticks: deadline.as_millis() as u64,
            elapsed_ticks: elapsed_wall.as_millis() as u64,
        })
    }

    /// Rewind to a checkpoint's ticket after store corruption. Decode
    /// progress and carried stats come from the snapshot; what the request
    /// has been *through* since — wall time decoding, preemptions, its
    /// degradation high-water — is history and stays.
    pub(super) fn roll_back_to(&mut self, snapshot: Ticket) {
        let live = std::mem::replace(self, snapshot);
        self.decode_wall = live.decode_wall;
        self.preemptions = live.preemptions;
        self.max_degrade = live.max_degrade;
        self.recovered = true;
    }

    /// The one place a ticket becomes a [`Completion`]: `held` is whatever
    /// still holds the session's own stats (live session, suspended
    /// snapshot, or nothing), the ticket adds what it carried.
    pub(super) fn complete(
        self,
        shard: usize,
        held: SessionStats,
        failure: Option<FailureCause>,
    ) -> Completion {
        let tokens = self.generated.len() as u32;
        Completion {
            id: self.id,
            shard,
            transfer: held.transfer + self.carried_transfer,
            cache: held.cache + self.carried_cache,
            sharing: held.sharing,
            generated: self.generated,
            trace: self.trace,
            failure,
            retries: self.retries,
            priority: self.priority,
            ttft_wall: self.ttft_wall,
            ttft_ticks: self.ttft_ticks,
            tpot_wall: (tokens > 0).then(|| self.decode_wall / tokens),
            preemptions: self.preemptions,
            recovered: self.recovered,
            max_degrade_level: self.max_degrade,
        }
    }

    /// A failed completion: partial output, real stats, the classified
    /// cause. `step` is decode steps *completed*, not attempted — a failed
    /// attempt bumped the session's counter but served no token, and every
    /// failure class reports the same clock this way.
    pub(super) fn fail(
        self,
        shard: usize,
        held: SessionStats,
        error: ServeError,
        injected: bool,
    ) -> Completion {
        let step = self.generated.len() as u64;
        self.complete(shard, held, Some(FailureCause { error, injected, step }))
    }
}

impl Completion {
    /// A completion for a request that never got a ticket: shed at
    /// admission, bounced off a dead shard's queue, or lost with its shard
    /// before any checkpoint.
    pub(super) fn unserved(
        id: u64,
        priority: Priority,
        retries: u32,
        shard: usize,
        error: ServeError,
        injected: bool,
    ) -> Self {
        Self {
            id,
            shard,
            generated: Vec::new(),
            transfer: TransferStats::default(),
            cache: CacheStats::default(),
            sharing: SharingStats::default(),
            trace: Vec::new(),
            failure: Some(FailureCause { error, injected, step: 0 }),
            retries,
            priority,
            ttft_wall: None,
            ttft_ticks: None,
            tpot_wall: None,
            preemptions: 0,
            recovered: false,
            max_degrade_level: PressureLevel::Nominal,
        }
    }
}

/// The per-namespace stats a finishing session still holds; a request with
/// no session (mid-prefill, or failed at admission) holds the default.
#[derive(Default)]
pub(super) struct SessionStats {
    transfer: TransferStats,
    cache: CacheStats,
    sharing: SharingStats,
}

impl SessionStats {
    fn live(s: &SelectiveSession<'_>) -> Self {
        Self { transfer: s.transfer_stats(), cache: s.cache_stats(), sharing: s.sharing_stats() }
    }

    /// A suspended session dropped its cache (already carried on the
    /// ticket); its swap namespace's traffic is part of its history.
    fn suspended(s: &SuspendedSession) -> Self {
        Self {
            transfer: s.transfer_stats() + s.swap_stats(),
            cache: CacheStats::default(),
            sharing: s.sharing_stats(),
        }
    }
}

/// Anything a shard pool holds: it carries a ticket and can be finished
/// into the ticket plus whatever session stats still exist.
pub(super) trait Ticketed {
    fn ticket(&self) -> &Ticket;
    fn finish(self) -> (Ticket, SessionStats);
}

/// A session decoding in a slot.
pub(super) struct Active<'m> {
    pub(super) ticket: Ticket,
    pub(super) session: SelectiveSession<'m>,
}

/// A request whose prompt is mid-prefill under chunked admission: it holds
/// a slot (its KV is being built) but has no session yet.
pub(super) struct Prefilling<'m> {
    pub(super) ticket: Ticket,
    pub(super) job: PrefillJob<'m>,
    pub(super) tokens: Vec<u32>,
    pub(super) policy: Box<dyn SelectionPolicy + Send>,
}

/// A session off its slot, held in the paged host tier with its pages
/// pinned: a preemption victim waiting for a slot, or a checkpoint snapshot
/// in the cross-shard registry. Either resumes the same way, on any shard.
pub(super) struct Parked {
    pub(super) ticket: Ticket,
    pub(super) suspended: SuspendedSession,
}

impl Ticketed for Active<'_> {
    fn ticket(&self) -> &Ticket {
        &self.ticket
    }
    fn finish(self) -> (Ticket, SessionStats) {
        let held = SessionStats::live(&self.session);
        (self.ticket, held)
    }
}

impl Ticketed for Prefilling<'_> {
    fn ticket(&self) -> &Ticket {
        &self.ticket
    }
    fn finish(self) -> (Ticket, SessionStats) {
        (self.ticket, SessionStats::default())
    }
}

impl Ticketed for Parked {
    fn ticket(&self) -> &Ticket {
        &self.ticket
    }
    /// Dropping the suspended session unpins and releases its pages; the
    /// completion still accounts its full transfer history.
    fn finish(self) -> (Ticket, SessionStats) {
        let held = SessionStats::suspended(&self.suspended);
        (self.ticket, held)
    }
}

impl<'m> Active<'m> {
    /// One greedy decode step through the shard's shared scratch: feed
    /// `ticket.next`, and on success record the token (and trace) and pick
    /// the next one. On `Err` the session is dead and must be retired.
    pub(super) fn advance(
        &mut self,
        scratch: &mut SessionScratch,
        record_trace: bool,
    ) -> Result<(), StepError> {
        let token = self.ticket.next;
        let s0 = Instant::now();
        let stepped = self.session.try_step_with_scratch(token, scratch);
        self.ticket.decode_wall += s0.elapsed();
        let dec = stepped?;
        self.ticket.generated.push(token);
        if record_trace {
            self.ticket.trace.push(StepTrace {
                logits: dec.logits.clone(),
                selected: self.session.selected_snapshot(),
            });
        }
        self.ticket.next = dec.greedy();
        self.ticket.remaining -= 1;
        Ok(())
    }

    /// Snapshot this session without evicting it. Best effort: a pending
    /// store fault, an unforkable policy, or pool exhaustion yields `None`
    /// (the previous snapshot stays), and the snapshot is checksum-verified
    /// before it is handed out, so the registry only ever holds provably
    /// good state to roll back or fail over to.
    pub(super) fn checkpoint(&self, tier: &KvTier) -> Option<Parked> {
        let suspended = self.session.checkpoint(tier).ok()??;
        suspended.verify().ok()?;
        let mut ticket = self.ticket.clone();
        ticket.carried_transfer += self.session.transfer_stats();
        ticket.carried_cache += self.session.cache_stats();
        Some(Parked { ticket, suspended })
    }
}

impl Parked {
    /// Resume into a slot around a fresh cache. Decoding continues
    /// bit-identically to never having left; the suspend + resume swap
    /// traffic lands on the ticket so per-completion accounting stays
    /// closed.
    pub(super) fn resume(self, model: &Model, cache: BlockCache) -> Active<'_> {
        let Parked { mut ticket, suspended } = self;
        let (session, swap_transfer) = suspended.resume(model, cache);
        ticket.carried_transfer += swap_transfer;
        Active { ticket, session }
    }
}

/// A host-tier fault's reported cause, and whether the fault plan provoked
/// it (a page cap explains exhaustion, planned bit flips explain
/// corruption).
pub(super) fn store_fault(e: MemError, plan: &FaultPlan) -> (ServeError, bool) {
    let injected = match e {
        MemError::PageExhausted { .. } => plan.page_limit.is_some(),
        MemError::PageCorrupt { .. } => !plan.bit_flips.is_empty(),
        _ => false,
    };
    (e.into(), injected)
}

/// A failed decode step's reported cause and whether it was injected.
pub(super) fn step_fault(e: StepError, plan: &FaultPlan) -> (ServeError, bool) {
    match e {
        StepError::Store(e) => store_fault(e, plan),
        StepError::Poisoned { message } => (ServeError::SessionPoisoned { message }, false),
    }
}
