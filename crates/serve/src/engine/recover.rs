//! Shard failover, on the coordinator thread after the joins: every
//! request a dead shard popped but never completed, or left in its window,
//! gets exactly one completion.

use super::ticket::{step_fault, Parked};
use super::types::{Completion, ShardStats};
use super::{lock, Fleet, InflightInfo};
use crate::error::ServeError;
use crate::faults::FaultPlan;
use pqc_core::SessionScratch;

/// Fail the `dead` shards' work over. A checkpointed session replays
/// forward on a surviving shard (bit-identical to the fault-free run), the
/// rest fail typed with [`ServeError::ShardLost`], and so does every request
/// still in a dead shard's window or backlog, last.
pub(super) fn recover_dead_shards(
    fleet: &Fleet<'_>,
    dead: &[usize],
    shard_stats: &mut [ShardStats],
    completions: &mut Vec<Completion>,
) {
    let shards = fleet.cfg.shards;
    let survivors: Vec<usize> = (0..shards).filter(|s| !dead.contains(s)).collect();
    let mut scratch = SessionScratch::new();
    let mut rr = 0usize;
    for &shard in dead {
        let mut lost: Vec<(u64, InflightInfo)> = lock(&fleet.inflight[shard]).drain().collect();
        lost.sort_by_key(|&(id, _)| id);
        for (id, info) in lost {
            let Some(snapshot) = lock(&fleet.registry).remove(&id) else {
                // Popped but never checkpointed: the session is gone.
                completions.push(lose(fleet, shard, id, &info, &mut shard_stats[shard]));
                continue;
            };
            // Round-robin the replays over the survivors (the dead shard
            // itself when none survive — the coordinator does the work
            // either way, only the metering label differs).
            let target = survivors.get(rr % survivors.len().max(1)).copied().unwrap_or(shard);
            rr += 1;
            let already = snapshot.ticket.generated.len();
            let remaining = snapshot.ticket.remaining;
            let c = replay_from_checkpoint(fleet, snapshot, target, &mut scratch);
            let replayed = (c.generated.len() - already) as u64;
            if c.is_success() {
                shard_stats[target].recovered_sessions += 1;
                shard_stats[target].recovered_tokens += replayed;
            } else {
                shard_stats[target].failed += 1;
                shard_stats[target].shed_tokens += remaining as u64 - replayed;
            }
            completions.push(c);
        }
    }
    // Only a per-shard window strands requests behind a single dead worker;
    // the survivors drain the shared first-free window, which goes
    // undrained only when every worker died (the first dead shard then
    // empties it).
    if fleet.inboxes.len() == shards || dead.len() == shards {
        for &shard in dead {
            for req in fleet.inbox(shard).drain() {
                let info = InflightInfo { priority: req.priority, decode_steps: req.decode_steps };
                completions.push(lose(fleet, shard, req.id, &info, &mut shard_stats[shard]));
            }
        }
    }
}

/// Request `id`, lost with dead shard `shard`: count it in the shard's
/// failures and shed tokens, and fail it typed.
fn lose(
    fleet: &Fleet<'_>,
    shard: usize,
    id: u64,
    info: &InflightInfo,
    stats: &mut ShardStats,
) -> Completion {
    stats.failed += 1;
    stats.shed_tokens += info.decode_steps as u64;
    let error = ServeError::ShardLost { shard };
    Completion::unserved(id, info.priority, shard, error, fleet.kills_injected())
}

/// Resume a checkpoint on the coordinator thread and decode it to
/// completion — the failover replay. Bit-identical to the fault-free run
/// by construction: resume is exact and decode is deterministic. No fault
/// injection applies here.
fn replay_from_checkpoint(
    fleet: &Fleet<'_>,
    snapshot: Parked,
    target: usize,
    scratch: &mut SessionScratch,
) -> Completion {
    // The registry only admits verified snapshots, but verify again at the
    // use site: the bytes sat in host memory since.
    if let Err(e) = snapshot.suspended.verify() {
        let (ticket, held) = snapshot.finish();
        return ticket.fail(target, held, e.into(), fleet.kills_injected());
    }
    let mut a = snapshot.resume(fleet.model, fleet.fresh_cache());
    a.ticket.recovered = true;
    let no_faults = FaultPlan::default();
    while a.ticket.remaining > 0 {
        if let Err(e) = a.advance(scratch, fleet.cfg.record_trace) {
            let (error, injected) = step_fault(e, &no_faults);
            let (ticket, held) = a.finish();
            return ticket.fail(target, held, error, injected);
        }
    }
    let (ticket, held) = a.finish();
    ticket.complete(target, held, None)
}
