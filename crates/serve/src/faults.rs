//! Deterministic fault injection for chaos testing the serve engine.
//!
//! A [`FaultPlan`] is a declarative schedule of failures threaded through
//! [`ServeConfig`](crate::ServeConfig): the engine consults it at
//! well-defined points (tick start, per-session step, the tier's page cap)
//! and injects the planned fault there. Because every injection point is
//! keyed on deterministic state — request ids, per-session step counts,
//! per-shard tick counts — a plan replays identically run over run, which
//! is what lets `tests/chaos.rs` assert exact failure causes and
//! bit-identical surviving logits.
//!
//! Every fault the plan can inject has a real cause that raises it too (an
//! exhausted page pool, a panic, a slow or dead worker, a damaged page),
//! and both flow through the same reporting paths; the plan only
//! *provokes* them early and predictably.

use crate::error::ServeError;

/// Panic a chosen session at a chosen decode step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPanic {
    /// The request to poison.
    pub request_id: u64,
    /// Decode step (0-based) at which the panic fires, before the step runs.
    pub at_step: u64,
}

/// Stall one shard for a number of ticks: the shard consumes scheduler
/// ticks without stepping its sessions (a slow-worker / GC-pause stand-in).
/// A stall fails no request: the held sessions go on where they stopped,
/// and only their latency and `stalled_steps` show it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStall {
    /// Shard to stall.
    pub shard: usize,
    /// Tick (0-based, per-shard) at which the stall begins.
    pub at_tick: u64,
    /// How many ticks the stall lasts.
    pub ticks: u64,
}

/// Kill a worker thread outright at a chosen tick: the whole shard dies
/// mid-run (a host crash / OOM-kill stand-in, not a per-session fault).
/// Checkpointed sessions on the shard fail over to healthy shards; the
/// rest are lost with [`ServeError::ShardLost`](crate::ServeError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    /// Shard whose worker dies.
    pub shard: usize,
    /// Tick (0-based, per-shard) at whose boundary the worker panics.
    pub at_tick: u64,
}

/// Flip one bit in a session's host-resident middle KV store at a chosen
/// decode step (silent data corruption — a DRAM/PCIe fault stand-in). The
/// per-page checksum catches it on the next fetch of the damaged slot, so
/// the corrupt bytes are never served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    /// The request whose store is damaged.
    pub request_id: u64,
    /// Decode step (0-based) right before which the flip lands.
    pub at_step: u64,
    /// Which bit flips: selects the f32 element and the mantissa/exponent
    /// bit deterministically (see `HostKvStore::corrupt_slot`).
    pub bit: u64,
}

/// A deterministic schedule of injected faults. `Default` is the empty
/// plan (no faults); the builder methods add to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Cap the engine's host KV tier at this many pages (allocator
    /// exhaustion under load; `None` leaves the tier unbounded).
    pub page_limit: Option<usize>,
    /// Sessions to panic at chosen steps.
    pub session_panics: Vec<SessionPanic>,
    /// Shard stalls.
    pub stalls: Vec<ShardStall>,
    /// Worker kills (whole-shard crashes).
    pub worker_kills: Vec<WorkerKill>,
    /// KV bit flips (silent store corruption).
    pub bit_flips: Vec<BitFlip>,
}

impl FaultPlan {
    /// Cap the host tier's page pool.
    pub fn with_page_limit(mut self, pages: usize) -> Self {
        self.page_limit = Some(pages);
        self
    }

    /// Panic `request_id` right before its `at_step`-th decode step.
    pub fn with_session_panic(mut self, request_id: u64, at_step: u64) -> Self {
        self.session_panics.push(SessionPanic { request_id, at_step });
        self
    }

    /// Stall `shard` for `ticks` ticks starting at its `at_tick`-th tick.
    pub fn with_stall(mut self, shard: usize, at_tick: u64, ticks: u64) -> Self {
        self.stalls.push(ShardStall { shard, at_tick, ticks });
        self
    }

    /// Kill `shard`'s worker at the boundary of its `at_tick`-th tick.
    pub fn with_worker_kill(mut self, shard: usize, at_tick: u64) -> Self {
        self.worker_kills.push(WorkerKill { shard, at_tick });
        self
    }

    /// Flip `bit` in `request_id`'s middle store right before its
    /// `at_step`-th decode step.
    pub fn with_bit_flip(mut self, request_id: u64, at_step: u64, bit: u64) -> Self {
        self.bit_flips.push(BitFlip { request_id, at_step, bit });
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.page_limit.is_none()
            && self.session_panics.is_empty()
            && self.stalls.is_empty()
            && self.worker_kills.is_empty()
            && self.bit_flips.is_empty()
    }

    /// The step at which `request_id` should panic, if planned.
    pub fn panic_step(&self, request_id: u64) -> Option<u64> {
        self.session_panics.iter().find(|p| p.request_id == request_id).map(|p| p.at_step)
    }

    /// Stall length for `shard` beginning at `tick`, if planned.
    pub fn stall_ticks(&self, shard: usize, tick: u64) -> Option<u64> {
        self.stalls
            .iter()
            .find(|s| s.shard == shard && s.at_tick == tick)
            .map(|s| s.ticks)
    }

    /// True when `shard`'s worker is planned to die at `tick`'s boundary.
    pub fn kill_at(&self, shard: usize, tick: u64) -> bool {
        self.worker_kills.iter().any(|k| k.shard == shard && k.at_tick == tick)
    }

    /// The bit to flip in `request_id`'s store right before `step`, if
    /// planned. Fires by exact step match; the engine guards against
    /// re-firing when a rollback replays the same step.
    pub fn bit_flip_at(&self, request_id: u64, step: u64) -> Option<u64> {
        self.bit_flips
            .iter()
            .find(|b| b.request_id == request_id && b.at_step == step)
            .map(|b| b.bit)
    }
}

/// A planned session panic as it fires: the engine fails the request with
/// [`Self::to_error`] right before the poisoned step instead of running it,
/// so the chaos battery can tell an *injected* failure apart from a genuine
/// panic (which `try_step_with_scratch` contains) and recover the planned
/// step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The poisoned request.
    pub request_id: u64,
    /// The step the plan fired at.
    pub at_step: u64,
}

impl InjectedPanic {
    /// The failure this injection maps to in the report.
    pub fn to_error(&self) -> ServeError {
        ServeError::SessionPoisoned {
            message: format!(
                "injected panic: request {} at step {}",
                self.request_id, self.at_step
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_and_lookups_resolve() {
        let plan = FaultPlan::default()
            .with_page_limit(64)
            .with_session_panic(3, 5)
            .with_stall(1, 10, 4)
            .with_worker_kill(1, 12)
            .with_bit_flip(6, 3, 41);
        assert!(!plan.is_empty());
        assert_eq!(plan.page_limit, Some(64));
        assert_eq!(plan.panic_step(3), Some(5));
        assert_eq!(plan.panic_step(4), None);
        assert_eq!(plan.stall_ticks(1, 10), Some(4));
        assert_eq!(plan.stall_ticks(1, 11), None);
        assert_eq!(plan.stall_ticks(0, 10), None);
        assert!(plan.kill_at(1, 12));
        assert!(!plan.kill_at(1, 13));
        assert!(!plan.kill_at(0, 12));
        assert_eq!(plan.bit_flip_at(6, 3), Some(41));
        assert_eq!(plan.bit_flip_at(6, 4), None);
        assert_eq!(plan.bit_flip_at(5, 3), None);
    }

    #[test]
    fn kill_and_flip_alone_make_a_nonempty_plan() {
        assert!(!FaultPlan::default().with_worker_kill(0, 5).is_empty());
        assert!(!FaultPlan::default().with_bit_flip(0, 1, 2).is_empty());
    }

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn injected_panic_maps_to_poisoned_error() {
        let inj = InjectedPanic { request_id: 12, at_step: 4 };
        match inj.to_error() {
            ServeError::SessionPoisoned { message } => {
                assert!(message.contains("request 12"));
                assert!(message.contains("step 4"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
