//! Shard failover, on the coordinator thread after the joins: every
//! request a dead shard popped but never completed gets exactly one
//! completion.

use super::ticket::{step_fault, Parked, Ticketed};
use super::types::{Completion, ShardStats};
use super::{lock, Fleet, InflightInfo};
use crate::error::ServeError;
use crate::faults::FaultPlan;
use pqc_core::SessionScratch;

/// Fail the `dead` shards' work over. A checkpointed session replays
/// forward on a surviving shard (bit-identical to the fault-free run), the
/// rest fail typed with [`ServeError::ShardLost`]. Stranded queue items —
/// pushed before the dying worker closed its queue, never popped — are
/// drained last.
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
                shard_stats[shard].failed += 1;
                shard_stats[shard].shed_tokens += info.decode_steps as u64;
                completions.push(Completion::unserved(
                    id,
                    info.priority,
                    info.retries,
                    shard,
                    ServeError::ShardLost { shard },
                    fleet.kills_injected(),
                ));
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
    // Only a per-shard queue strands items behind a single dead worker; the
    // shared first-free queue goes undrained only when every worker died
    // (the first dead shard then empties it).
    if fleet.inboxes.len() == shards || dead.len() == shards {
        for &shard in dead {
            while let Some(req) = fleet.inbox(shard).queue.try_pop() {
                shard_stats[shard].failed += 1;
                shard_stats[shard].shed_tokens += req.decode_steps as u64;
                completions.push(Completion::unserved(
                    req.id,
                    req.priority,
                    0,
                    shard,
                    ServeError::ShardLost { shard },
                    fleet.kills_injected(),
                ));
            }
        }
    }
}

/// Resume a checkpoint on the coordinator thread and decode it to
/// completion — the failover replay. Bit-identical to the fault-free run
/// by construction: resume is exact and decode is deterministic. No fault
/// injection, no brownout effort (the snapshot's degradation high-water is
/// final) and no deadline reaping apply here.
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
