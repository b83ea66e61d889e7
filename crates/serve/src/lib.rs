//! # pqc-serve
//!
//! Multi-session serving layer over the PQCache engine.
//!
//! The paper's decode loop (Algorithm 2, `pqc_core::SelectiveSession`) is
//! per-request; production traffic is many concurrent sessions sharing the
//! host KV tier and the CPU cores. [`ServeEngine`] closes that gap with
//! **sharding** (one worker thread per shard of the session pool) and
//! **continuous batching** (each scheduler tick drives one decode step per
//! ready session, admitting queued requests as slots free), while reusing
//! one set of hot-path buffers per shard (`SessionScratch`) instead of per
//! session.
//!
//! A batch is closed: [`ServeEngine::run`] takes it whole, and shards see
//! it through admission windows of [`ServeConfig::queue_capacity`] requests
//! that refill in batch order as they pop. The calling thread only spawns
//! and joins the shard workers, and no worker ever waits on another.
//!
//! Shared resources are explicitly multi-tenant:
//! - the host KV tier is a paged [`pqc_memhier::KvTier`]: one namespace per
//!   session (offsets are namespace-local) over a tier-global refcounted
//!   page pool, with engine-wide aggregate transfer accounting;
//! - identical prompts share pages *and* trained PQ/IVF state through the
//!   tier's prefix registry ([`ServeConfig::prefix_cache`], on by default):
//!   the first session to serve a prompt donates its page tables, prefill
//!   output, and policy snapshot; later sessions adopt them copy-on-write
//!   and skip prefill, offload, and clustering — bit-identically.
//!
//! Each session owns its GPU [`pqc_cache::BlockCache`], bounded by the
//! session's cache capacity.
//!
//! Scheduling is SLO-aware without ever changing results:
//! - **chunked prefill** ([`ServeConfig::prefill_chunk_tokens`]) splits a
//!   long prompt into budgeted per-tick chunks interleaved with ready
//!   decode steps, bounding head-of-line blocking;
//! - **priority preemption** ([`Priority`] on [`ServeRequest`]) suspends a
//!   lower-class running session through the paged host tier
//!   ([`pqc_core::SelectiveSession::suspend`]) to give its slot to a
//!   latency-sensitive arrival, resuming it later bit-identically.
//!
//! Each [`Completion`] carries its own TTFT (wall clock and the
//! deterministic tick clock) and TPOT; callers aggregate them.
//!
//! Crash recovery treats whole-worker loss and silent store corruption as
//! bounded, recoverable events:
//! - **checkpointing** ([`ServeConfig::checkpoint_every_ticks`]) snapshots
//!   every resident session through the paged tier without evicting it
//!   (held swap pages + a copy-on-write store fork);
//! - **shard failover**: a dead worker's checkpointed sessions are resumed
//!   and replayed forward on healthy shards, bit-identical to the
//!   fault-free run; un-checkpointed ones fail typed
//!   ([`ServeError::ShardLost`]);
//! - **integrity**: per-page checksums mean corrupt KV bytes are never
//!   served — a session whose page fails its checksum rolls back to its
//!   last good checkpoint, or fails typed ([`ServeError::KvCorruption`]).
//!
//! Scheduling is provably behaviour-neutral: `tests/serve_equivalence.rs`
//! asserts bit-identical logits and selected-token sets against the
//! sequential engine at 1, 2, and 4 shards;
//! `tests/scheduler_invariance.rs` extends that to random chunk budgets,
//! priority mixes, and forced preemption schedules; and
//! `tests/serve_stress.rs` churns 64 sessions through 4 workers behind a
//! tight admission window.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

mod engine;
pub mod error;
pub mod faults;
mod queue;

pub use engine::{
    Completion, Priority, ServeConfig, ServeEngine, ServeReport, ServeRequest, ShardAssignment,
    ShardStats, StepTrace,
};
pub use error::{FailureCause, ServeError};
pub use faults::{BitFlip, FaultPlan, InjectedPanic, SessionPanic, ShardStall, WorkerKill};
