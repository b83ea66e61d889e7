//! Chaos battery: deterministic fault injection against the serve engine.
//!
//! The fault-tolerance contract, asserted end to end: under injected
//! allocator exhaustion, session panics, shard stalls, admission-reject
//! bursts, worker kills and bit flips, `ServeEngine::run` (a) never aborts or
//! deadlocks — it always returns a report; (b) converts every injected
//! fault into a failed `Completion` carrying the exact planned
//! `FailureCause` (`injected = true`, the right class, the right step);
//! and (c) leaves every *surviving* session bit-identical — logits and
//! tokens — to the same session run alone through
//! `SelectiveSession::decode` with no fault plan at all.
//!
//! Every plan is seeded, every injection point is keyed on deterministic
//! state (request ids, step counts, tick counts), so each scenario also
//! replays identically run over run.

use pqcache::core::{CacheConfig, SelectiveSession, SessionConfig};
use pqcache::llm::{LlmConfig, Model};
use pqcache::policies::{PqCachePolicy, SelectionPolicy};
use pqcache::serve::{
    FaultPlan, Priority, ServeConfig, ServeEngine, ServeError, ServeReport, ServeRequest,
    ShardAssignment,
};
use pqcache::tensor::{argmax, Rng64};
use pqcache::workloads::{
    chaos_victims, corruption_victims, multi_tenant_trace, TenantTrace, TraceConfig, VocabLayout,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

/// Liveness bound: chaos runs take seconds; a deadlock hangs forever.
const WALL_LIMIT: Duration = Duration::from_secs(240);

fn session_cfg() -> SessionConfig {
    SessionConfig {
        n_init: 2,
        n_local: 8,
        token_ratio: 0.25,
        comm_fraction: 1.0 / 16.0,
        obs_window: 8,
        cache: CacheConfig { capacity_tokens: 64, block_size: 8, lfu: true, k_cache_blocks: 4 },
        ivf: pqcache::core::IvfMode::Exact,
    }
}

fn prompt(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng64::new(seed);
    (0..n).map(|_| rng.below(200) as u32).collect()
}

fn policy() -> Box<dyn SelectionPolicy + Send> {
    Box::new(PqCachePolicy::default())
}

/// Run the engine on a watchdog thread; a deadlock fails the test at the
/// wall-clock bound instead of hanging CI forever. "Never aborts" includes
/// "never hangs".
fn run_with_watchdog(cfg: ServeConfig, requests: Vec<ServeRequest>) -> ServeReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let model = Model::new(LlmConfig::tiny());
        let report = ServeEngine::run(&model, &cfg, requests).expect("valid config");
        let _ = tx.send(report);
    });
    match rx.recv_timeout(WALL_LIMIT) {
        Ok(report) => report,
        Err(_) => panic!("serve engine did not finish within {WALL_LIMIT:?} under chaos"),
    }
}

// ---------------------------------------------------------------------------
// Panic isolation + survivor bit-identity (the tentpole property).
// ---------------------------------------------------------------------------

const FLEET: usize = 6;
const STEPS: usize = 8;

/// Distinct prompts (no prefix sharing) with mixed lengths.
fn fleet_prompts() -> Vec<Vec<u32>> {
    (0..FLEET).map(|i| prompt(64 + 16 * (i % 3), 0xC4A05 + i as u64)).collect()
}

/// Fault-free sequential reference: each session alone via `decode()`.
fn sequential_reference(model: &Model) -> Vec<(Vec<u32>, Vec<Vec<f32>>)> {
    fleet_prompts()
        .iter()
        .map(|toks| {
            let start = SelectiveSession::start(model, policy(), session_cfg(), toks);
            let mut session = start.session;
            let mut next = argmax(&start.logits) as u32;
            let (mut generated, mut logits) = (Vec::new(), Vec::new());
            for _ in 0..STEPS {
                generated.push(next);
                let dec = session.decode(next);
                logits.push(dec.logits.clone());
                next = dec.greedy();
            }
            (generated, logits)
        })
        .collect()
}

#[test]
fn injected_panics_are_isolated_and_survivors_bit_identical() {
    let model = Model::new(LlmConfig::tiny());
    let reference = sequential_reference(&model);

    // Session 2 dies mid-decode (step 3) while sharing a shard — and its
    // scratch buffers — with live neighbours; session 4 dies before its
    // first step. Everyone else must not notice.
    let plan = FaultPlan::seeded(0xFA).with_session_panic(2, 3).with_session_panic(4, 0);
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 2,
        queue_capacity: FLEET,
        session: session_cfg(),
        record_trace: true,
        faults: Some(plan),
        ..Default::default()
    };
    let requests: Vec<ServeRequest> = fleet_prompts()
        .into_iter()
        .enumerate()
        .map(|(i, toks)| ServeRequest::new(i as u64, toks, STEPS, policy()))
        .collect();
    let report = run_with_watchdog(cfg, requests);

    assert_eq!(report.completions.len(), FLEET, "every request must complete, pass or fail");
    assert_eq!(report.worker_panics, 0, "injected panics must be caught per-session");
    assert_eq!(report.failures().count(), 2);

    for i in 0..FLEET as u64 {
        let c = report.completion(i).expect("completion present");
        let (ref_tokens, ref_logits) = &reference[i as usize];
        match i {
            2 | 4 => {
                let planned_step = if i == 2 { 3u64 } else { 0 };
                let cause = c.failure.as_ref().expect("victim must carry a cause");
                assert!(cause.injected, "session {i}: cause must be marked injected");
                assert_eq!(cause.step, planned_step);
                match &cause.error {
                    ServeError::SessionPoisoned { message } => {
                        assert!(
                            message.contains(&format!("request {i} at step {planned_step}")),
                            "payload round-trip: {message}"
                        );
                    }
                    other => panic!("session {i}: unexpected cause {other:?}"),
                }
                // Pre-panic progress is still bit-identical to the reference.
                assert_eq!(c.generated.len(), planned_step as usize);
                assert_eq!(c.generated[..], ref_tokens[..planned_step as usize]);
                for (step, tr) in c.trace.iter().enumerate() {
                    assert_eq!(tr.logits, ref_logits[step], "victim {i} pre-panic step {step}");
                }
            }
            _ => {
                assert!(c.is_success(), "survivor {i} failed: {:?}", c.failure);
                assert_eq!(&c.generated, ref_tokens, "survivor {i} tokens diverged");
                assert_eq!(c.trace.len(), STEPS);
                for (step, tr) in c.trace.iter().enumerate() {
                    assert_eq!(
                        tr.logits, ref_logits[step],
                        "survivor {i} step {step} logits diverged after a shard-mate panic"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Allocator exhaustion: sessions fail, the engine does not.
// ---------------------------------------------------------------------------

#[test]
fn page_exhaustion_fails_sessions_not_the_engine() {
    // A page pool far too small for the fleet: allocations fail mid-prefill
    // or mid-decode. The engine must shed the starved sessions with a typed
    // cause and return normally — never unwrap, never abort.
    let plan = FaultPlan::seeded(0x9A6E).with_page_limit(4);
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: FLEET,
        session: session_cfg(),
        faults: Some(plan),
        ..Default::default()
    };
    let mk_requests = || -> Vec<ServeRequest> {
        fleet_prompts()
            .into_iter()
            .enumerate()
            .map(|(i, toks)| ServeRequest::new(i as u64, toks, STEPS, policy()))
            .collect()
    };
    let report = run_with_watchdog(cfg.clone(), mk_requests());

    assert_eq!(report.completions.len(), FLEET);
    assert_eq!(report.worker_panics, 0);
    let failures: Vec<_> = report.failures().collect();
    assert!(!failures.is_empty(), "a 4-page pool cannot serve this fleet");
    for c in &failures {
        let cause = c.failure.as_ref().unwrap();
        assert!(cause.injected, "cap came from the plan, so the fault is injected");
        assert!(
            matches!(cause.error, ServeError::PageExhausted { max_pages: 4 }),
            "request {}: unexpected cause {:?}",
            c.id,
            cause.error
        );
    }

    // Deterministic replay: the same plan starves the same sessions.
    let again = run_with_watchdog(cfg, mk_requests());
    let ids = |r: &ServeReport| -> Vec<u64> {
        let mut v: Vec<u64> = r.failures().map(|c| c.id).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&report), ids(&again), "failure set must replay identically");
}

// ---------------------------------------------------------------------------
// Admission-reject bursts: bounded retry, then typed shedding.
// ---------------------------------------------------------------------------

#[test]
fn admission_burst_sheds_typed_and_retries_recover() {
    // Request 1 is rejected more times than its retry budget allows — shed
    // with `Admission` after 1 + max_retries attempts. Request 2 is
    // rejected twice — exactly its budget — and must recover.
    let plan = FaultPlan::seeded(0xBEEF)
        .with_admission_rejects(1, 10)
        .with_admission_rejects(2, 2);
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 2,
        queue_capacity: FLEET,
        session: session_cfg(),
        faults: Some(plan),
        ..Default::default()
    };
    let requests: Vec<ServeRequest> = fleet_prompts()
        .into_iter()
        .enumerate()
        .map(|(i, toks)| ServeRequest::new(i as u64, toks, STEPS, policy()))
        .collect();
    let report = run_with_watchdog(cfg, requests);

    assert_eq!(report.completions.len(), FLEET);
    let shed = report.completion(1).unwrap();
    let cause = shed.failure.as_ref().expect("request 1 must be shed");
    assert!(cause.injected);
    assert!(
        matches!(cause.error, ServeError::Admission { attempts: 3 }),
        "default policy = initial attempt + 2 retries, got {:?}",
        cause.error
    );
    assert!(shed.generated.is_empty(), "shed requests never decode");
    assert_eq!(cause.step, 0);

    let recovered = report.completion(2).unwrap();
    assert!(recovered.is_success(), "2 rejections fit the retry budget: {:?}", recovered.failure);
    assert_eq!(recovered.retries, 2);
    assert_eq!(recovered.generated.len(), STEPS);

    // Load-shedding is metered: the shed request's never-produced decode
    // tokens, and both victims' retry attempts, show up in the report.
    assert_eq!(report.total_shed_tokens(), STEPS as u64);
    assert!(report.shards[0].retries >= 4, "2 retries each for ids 1 and 2");
    for i in [0u64, 3, 4, 5] {
        assert!(report.completion(i).unwrap().is_success(), "bystander {i} harmed");
    }
}

// ---------------------------------------------------------------------------
// The storm: everything at once, across shards, replayed twice.
// ---------------------------------------------------------------------------

const STORM_SESSIONS: usize = 32;

fn storm_trace() -> TenantTrace {
    multi_tenant_trace(&TraceConfig {
        sessions: STORM_SESSIONS,
        arrival_rate: 2.0,
        prompt_lens: [64, 80, 96],
        prompt_mix: [0.5, 0.3, 0.2],
        decode_steps: (2, 10),
        layout: VocabLayout::for_vocab(256),
        seed: 0xC405,
        ..Default::default()
    })
}

#[test]
fn chaos_storm_never_aborts_and_replays_identically() {
    let trace = storm_trace();
    let victims = chaos_victims(&trace, 0xFEED, 0.25);
    assert_eq!(victims.len(), STORM_SESSIONS / 4);
    let victim_ids: HashMap<u64, u64> = victims.iter().copied().collect();

    // Two non-victims take recoverable admission-reject bursts.
    let bystanders: Vec<u64> = (0..STORM_SESSIONS as u64)
        .filter(|id| !victim_ids.contains_key(id))
        .take(2)
        .collect();
    let mut plan = FaultPlan::seeded(0xFEED)
        .with_stall(0, 2, 2)
        .with_stall(1, 4, 1)
        .with_admission_rejects(bystanders[0], 1)
        .with_admission_rejects(bystanders[1], 2);
    for &(id, step) in &victims {
        plan = plan.with_session_panic(id, step);
    }

    let cfg = ServeConfig {
        shards: 2,
        max_active_per_shard: 4,
        queue_capacity: 8,
        assignment: ShardAssignment::RoundRobin,
        session: session_cfg(),
        faults: Some(plan),
        ..Default::default()
    };
    let mk_requests = || -> Vec<ServeRequest> {
        storm_trace()
            .requests
            .into_iter()
            .map(|r| ServeRequest::new(r.id, r.workload.tokens, r.decode_steps, policy()))
            .collect()
    };
    let report = run_with_watchdog(cfg.clone(), mk_requests());

    // (a) Never aborts: the run returned, no worker died, accounting clean.
    assert_eq!(report.completions.len(), STORM_SESSIONS, "requests lost in the storm");
    assert_eq!(report.worker_panics, 0);
    assert!(report.total_stalled_steps() > 0, "stalls must be metered");

    // (b) Every victim fails with exactly its planned, injected cause;
    //     every non-victim finishes its full decode.
    let expected_steps: HashMap<u64, usize> =
        trace.requests.iter().map(|r| (r.id, r.decode_steps)).collect();
    for c in &report.completions {
        match victim_ids.get(&c.id) {
            Some(&step) => {
                let cause = c.failure.as_ref().unwrap_or_else(|| panic!("victim {} survived", c.id));
                assert!(cause.injected);
                assert_eq!(cause.step, step, "victim {} died at the wrong step", c.id);
                assert_eq!(cause.error.class(), "session_poisoned");
                assert_eq!(c.generated.len(), step as usize);
            }
            None => {
                assert!(c.is_success(), "bystander {} harmed: {:?}", c.id, c.failure);
                assert_eq!(c.generated.len(), expected_steps[&c.id], "bystander {} cut short", c.id);
            }
        }
    }
    let recovered = report.completion(bystanders[1]).unwrap();
    assert_eq!(recovered.retries, 2, "rejected-then-admitted bystander must meter its retries");

    // (c) Deterministic replay: same plan, same storm, same outcome.
    let again = run_with_watchdog(cfg, mk_requests());
    let outcome = |r: &ServeReport| -> HashMap<u64, (Vec<u32>, Option<&'static str>)> {
        r.completions
            .iter()
            .map(|c| (c.id, (c.generated.clone(), c.failure.as_ref().map(|f| f.error.class()))))
            .collect()
    };
    assert_eq!(outcome(&report), outcome(&again), "chaos must replay bit-identically");
}

// ---------------------------------------------------------------------------
// The preemption storm: priorities, chunked prefill, stalls, and a page cap
// racing suspend/resume — outcomes still replay identically.
// ---------------------------------------------------------------------------

const PREEMPT_SESSIONS: usize = 24;

/// Priority-mixed traffic with decode runs long enough that a delayed
/// high-priority request always matures against a still-busy slot.
fn preemption_storm_trace() -> TenantTrace {
    multi_tenant_trace(&TraceConfig {
        sessions: PREEMPT_SESSIONS,
        arrival_rate: 2.0,
        prompt_lens: [64, 80, 96],
        prompt_mix: [0.5, 0.3, 0.2],
        decode_steps: (6, 12),
        priority_mix: [1.0, 1.0, 0.6],
        layout: VocabLayout::for_vocab(256),
        seed: 0x9EE7,
    })
}

#[test]
fn preemption_storm_replays_identically() {
    let trace = preemption_storm_trace();
    // Every high-priority request takes one recoverable admission reject:
    // it lands in the maturity queue while a lower-class session claims the
    // single slot, so when it matures (backoff 2 ticks, actives run ≥ 6
    // steps) the only way in is preemption through the paged tier.
    let highs: Vec<u64> =
        trace.requests.iter().filter(|r| r.priority == 2).map(|r| r.id).collect();
    assert!(!highs.is_empty(), "storm trace must contain high-priority traffic");
    assert!(highs.len() < PREEMPT_SESSIONS / 2, "lower classes must exist to preempt");
    // Stall ticks sit mid-backlog: a 25-request serial backlog keeps the
    // slot occupied there (the first ticks can be idle-burn while rejected
    // high-priority requests wait out their backoff, skipping the stall).
    let mut plan = FaultPlan::seeded(0x51A7)
        .with_stall(0, 10, 2)
        .with_stall(0, 30, 1)
        // A cap the regular fleet fits under at any schedule, but the whale
        // below exceeds on its own — page failures stay deterministic while
        // the cap still races suspends (a failed suspend defers the
        // preemption and keeps the victim intact).
        .with_page_limit(120);
    for &id in &highs {
        plan = plan.with_admission_rejects(id, 1);
    }
    let whale_id = PREEMPT_SESSIONS as u64;
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 1,
        queue_capacity: 8,
        prefill_chunk_tokens: Some(16),
        // The registry would pin every completed session's pages for the
        // whole run (prompts are distinct — nothing would ever hit), turning
        // the cap into a cumulative fleet bound instead of a residency one.
        prefix_cache: false,
        session: session_cfg(),
        faults: Some(plan),
        ..Default::default()
    };
    let mk_requests = || -> Vec<ServeRequest> {
        let tier = |p: u8| match p {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        };
        let mut reqs: Vec<ServeRequest> = preemption_storm_trace()
            .requests
            .into_iter()
            .map(|r| {
                ServeRequest::new(r.id, r.workload.tokens, r.decode_steps, policy())
                    .with_priority(tier(r.priority))
            })
            .collect();
        // The whale: a prompt whose prefill alone exceeds the page cap, so
        // it fails `page_exhausted` under every schedule.
        reqs.push(
            ServeRequest::new(whale_id, prompt(4096, 0x3A1E), 4, policy())
                .with_priority(Priority::Low),
        );
        reqs
    };
    let report = run_with_watchdog(cfg.clone(), mk_requests());

    // Never aborts, and the storm really preempts.
    assert_eq!(report.completions.len(), PREEMPT_SESSIONS + 1);
    assert_eq!(report.worker_panics, 0);
    assert!(report.total_stalled_steps() > 0, "stalls must be metered");
    assert!(report.total_preemptions() >= 1, "the storm never exercised preemption");

    // Deterministic failure set: exactly the whale, with the planned cause.
    let whale = report.completion(whale_id).unwrap();
    let cause = whale.failure.as_ref().expect("whale must starve on the page cap");
    assert!(cause.injected, "the cap came from the fault plan");
    assert!(
        matches!(cause.error, ServeError::PageExhausted { max_pages: 120 }),
        "whale: unexpected cause {:?}",
        cause.error
    );
    let expected_steps: HashMap<u64, usize> =
        trace.requests.iter().map(|r| (r.id, r.decode_steps)).collect();
    for c in &report.completions {
        if c.id == whale_id {
            continue;
        }
        assert!(c.is_success(), "bystander {} harmed: {:?}", c.id, c.failure);
        assert_eq!(c.generated.len(), expected_steps[&c.id], "bystander {} cut short", c.id);
    }

    // Replay: same plan, same priorities, same chunking — same outcomes,
    // including every preempted-and-resumed session's exact tokens.
    let again = run_with_watchdog(cfg, mk_requests());
    assert!(again.total_preemptions() >= 1);
    let outcome = |r: &ServeReport| -> HashMap<u64, (Vec<u32>, Option<&'static str>)> {
        r.completions
            .iter()
            .map(|c| (c.id, (c.generated.clone(), c.failure.as_ref().map(|f| f.error.class()))))
            .collect()
    };
    assert_eq!(outcome(&report), outcome(&again), "preemption storm must replay identically");
}

// ---------------------------------------------------------------------------
// Crash recovery: worker kills, checkpoint failover, corruption rollback.
// ---------------------------------------------------------------------------

/// Requests sized so a mid-run kill or flip always lands mid-decode, and
/// so the victim's middle store outgrows the GPU cache (prompt 96 > 64
/// cached tokens) — host fetches, and therefore checksum verification,
/// happen on every step.
fn recovery_requests() -> Vec<ServeRequest> {
    (0..FLEET)
        .map(|i| {
            ServeRequest::new(i as u64, prompt(96 + 8 * (i % 3), 0x7EC0 + i as u64), 24, policy())
        })
        .collect()
}

/// Outcome fingerprint: per-request generated tokens plus failure class.
fn outcome_map(r: &ServeReport) -> HashMap<u64, (Vec<u32>, Option<&'static str>)> {
    r.completions
        .iter()
        .map(|c| (c.id, (c.generated.clone(), c.failure.as_ref().map(|f| f.error.class()))))
        .collect()
}

#[test]
fn recovery_worker_kill_fails_over_checkpointed_sessions_bit_identically() {
    let cfg = ServeConfig {
        shards: 2,
        max_active_per_shard: 4,
        queue_capacity: FLEET,
        assignment: ShardAssignment::RoundRobin,
        checkpoint_every_ticks: Some(2),
        session: session_cfg(),
        ..Default::default()
    };
    let clean = run_with_watchdog(cfg.clone(), recovery_requests());
    assert!(clean.completions.iter().all(|c| c.is_success()), "clean run must succeed");

    // Shard 0 dies at tick 10: every resident session is mid-decode (24
    // steps) and was checkpointed by tick 8 at the latest.
    let faulted = ServeConfig {
        faults: Some(FaultPlan::seeded(0x0DD).with_worker_kill(0, 10)),
        ..cfg
    };
    let report = run_with_watchdog(faulted.clone(), recovery_requests());

    // Exactly-once: every request completes exactly once, pass or fail.
    assert_eq!(report.completions.len(), FLEET);
    assert_eq!(report.worker_panics, 1, "the kill must surface as one worker panic");
    assert!(report.total_checkpoints() > 0, "checkpoint cadence must fire before the kill");
    assert!(report.total_checkpoint_bytes() > 0);
    assert!(
        report.total_recovered_sessions() > 0,
        "a tick-10 kill of a loaded shard must exercise failover"
    );
    assert!(report.total_recovered_tokens() > 0, "replay must meter post-checkpoint tokens");

    // Every session — killed-shard or not — finishes with the clean run's
    // exact tokens: replay from checkpoint is bit-identical migration.
    assert_eq!(outcome_map(&report), outcome_map(&clean), "failover diverged from clean run");
    let recovered: Vec<u64> =
        report.completions.iter().filter(|c| c.recovered).map(|c| c.id).collect();
    assert_eq!(
        recovered.len() as u64,
        report.total_recovered_sessions(),
        "recovered flags must match the meter"
    );
    assert!(!recovered.is_empty());

    // Deterministic replay of the recovery itself.
    let again = run_with_watchdog(faulted, recovery_requests());
    assert_eq!(outcome_map(&report), outcome_map(&again), "failover must replay identically");
    assert_eq!(again.total_recovered_sessions(), report.total_recovered_sessions());
}

#[test]
fn recovery_kill_without_checkpoints_sheds_shard_lost_typed() {
    let cfg = ServeConfig {
        shards: 2,
        max_active_per_shard: 4,
        queue_capacity: FLEET,
        assignment: ShardAssignment::RoundRobin,
        session: session_cfg(),
        faults: Some(FaultPlan::seeded(0x0DD).with_worker_kill(0, 4)),
        ..Default::default()
    };
    let report = run_with_watchdog(cfg, recovery_requests());

    assert_eq!(report.completions.len(), FLEET);
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.total_recovered_sessions(), 0, "nothing to recover without checkpoints");

    // Round-robin over 2 shards: even request indices ride shard 0 and die
    // with it; odd indices never notice.
    let mut lost: Vec<u64> = report.failures().map(|c| c.id).collect();
    lost.sort_unstable();
    assert_eq!(lost, vec![0, 2, 4], "exactly the killed shard's residents are lost");
    for c in report.failures() {
        let cause = c.failure.as_ref().unwrap();
        assert!(cause.injected, "the kill came from the fault plan");
        assert_eq!(cause.error.class(), "shard_lost");
        assert!(matches!(cause.error, ServeError::ShardLost { shard: 0 }));
    }
    assert!(report.total_shed_tokens() > 0, "lost decode tokens must be metered as shed");
    for id in [1u64, 3, 5] {
        let c = report.completion(id).unwrap();
        assert!(c.is_success(), "survivor shard harmed: {:?}", c.failure);
        assert_eq!(c.generated.len(), 24);
    }
}

#[test]
fn recovery_corruption_rolls_back_and_replays_bit_identically() {
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: FLEET,
        checkpoint_every_ticks: Some(2),
        record_trace: true,
        session: session_cfg(),
        ..Default::default()
    };
    let clean = run_with_watchdog(cfg.clone(), recovery_requests());
    assert!(clean.completions.iter().all(|c| c.is_success()));

    // Request 1's layer-0 store takes a bit flip right before step 5: a
    // checkpoint from tick 4 (or earlier) predates it, so detection rolls
    // the session back instead of failing it.
    let faulted = ServeConfig {
        faults: Some(FaultPlan::seeded(0xF11).with_bit_flip(1, 5, 3)),
        ..cfg
    };
    let report = run_with_watchdog(faulted, recovery_requests());

    assert_eq!(report.completions.len(), FLEET);
    assert_eq!(report.worker_panics, 0, "corruption is a session event, not a worker loss");
    assert!(report.total_rollbacks() >= 1, "the flip must be detected and rolled back");
    let victim = report.completion(1).unwrap();
    assert!(victim.is_success(), "rollback must rescue the victim: {:?}", victim.failure);
    assert!(victim.recovered, "a rolled-back session must be flagged recovered");

    // Tokens *and* logits match the fault-free run — the corrupt bytes
    // never reached a single attention score.
    assert_eq!(outcome_map(&report), outcome_map(&clean));
    let clean_victim = clean.completion(1).unwrap();
    assert_eq!(victim.trace.len(), clean_victim.trace.len());
    for (step, (tr, clean_tr)) in victim.trace.iter().zip(&clean_victim.trace).enumerate() {
        assert_eq!(tr.logits, clean_tr.logits, "victim step {step} logits diverged after rollback");
    }
}

#[test]
fn recovery_corruption_without_checkpoint_fails_typed_never_serving_corrupt_bytes() {
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: FLEET,
        session: session_cfg(),
        ..Default::default()
    };
    let clean = run_with_watchdog(cfg.clone(), recovery_requests());
    let faulted = ServeConfig {
        faults: Some(FaultPlan::seeded(0xF11).with_bit_flip(1, 5, 3)),
        ..cfg
    };
    let report = run_with_watchdog(faulted, recovery_requests());

    assert_eq!(report.total_rollbacks(), 0, "no checkpoint, no rollback");
    let victim = report.completion(1).unwrap();
    let cause = victim.failure.as_ref().expect("unrecoverable corruption must fail the session");
    assert!(cause.injected, "the flip came from the fault plan");
    assert_eq!(cause.error.class(), "kv_corruption");
    assert!(matches!(cause.error, ServeError::KvCorruption { .. }));
    assert_eq!(cause.step, victim.generated.len() as u64);

    // Fail-closed: everything served before detection is still exactly the
    // clean prefix — a corrupt page is detected on fetch, never gathered.
    let clean_tokens = &clean.completion(1).unwrap().generated;
    assert!(victim.generated.len() >= 5, "detection cannot precede the flip");
    assert!(victim.generated.len() < 24, "detection must cut the decode short");
    assert_eq!(
        victim.generated[..],
        clean_tokens[..victim.generated.len()],
        "served tokens must be a clean prefix"
    );
    for id in [0u64, 2, 3, 4, 5] {
        assert!(report.completion(id).unwrap().is_success(), "bystander {id} harmed");
    }
}

#[test]
fn recovery_corruption_storm_with_checkpoints_survives_bit_identically() {
    // A quarter of a 16-session storm takes mid-decode bit flips while
    // checkpointing runs every tick. Every victim must be rescued by
    // rollback; every bystander must never notice.
    let trace = multi_tenant_trace(&TraceConfig {
        sessions: 16,
        arrival_rate: 2.0,
        prompt_lens: [96, 104, 112],
        prompt_mix: [0.5, 0.3, 0.2],
        decode_steps: (6, 12),
        layout: VocabLayout::for_vocab(256),
        seed: 0x5EED,
        ..Default::default()
    });
    let victims = corruption_victims(&trace, 0xBAD, 0.25);
    assert_eq!(victims.len(), 4);
    let mut plan = FaultPlan::seeded(0xBAD);
    for &(id, step, bit) in &victims {
        plan = plan.with_bit_flip(id, step, bit);
    }
    let mk_requests = |trace: &TenantTrace| -> Vec<ServeRequest> {
        trace
            .requests
            .iter()
            .map(|r| ServeRequest::new(r.id, r.workload.tokens.clone(), r.decode_steps, policy()))
            .collect()
    };
    let cfg = ServeConfig {
        shards: 2,
        max_active_per_shard: 4,
        queue_capacity: 8,
        assignment: ShardAssignment::RoundRobin,
        checkpoint_every_ticks: Some(1),
        session: session_cfg(),
        ..Default::default()
    };
    let clean = run_with_watchdog(cfg.clone(), mk_requests(&trace));
    let faulted = ServeConfig { faults: Some(plan), ..cfg };
    let report = run_with_watchdog(faulted, mk_requests(&trace));

    assert_eq!(report.completions.len(), 16);
    assert_eq!(report.worker_panics, 0);
    assert!(report.total_rollbacks() >= 1, "a 4-victim storm must trigger at least one rollback");
    for c in &report.completions {
        assert!(c.is_success(), "session {} not rescued: {:?}", c.id, c.failure);
    }
    assert_eq!(outcome_map(&report), outcome_map(&clean), "storm recovery diverged");
}

// ---------------------------------------------------------------------------
// Property: checkpoint → corrupt → rollback → replay is bit-identical for
// every shard count and checkpoint cadence.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any shard count in {1, 2, 4}, any checkpoint interval in 1..=3,
    /// and any flip landing at step >= 4 (so a checkpoint always predates
    /// it), a corrupted session rolls back and finishes with exactly the
    /// fault-free run's tokens and logits.
    #[test]
    fn recovery_rollback_is_bit_identical_across_shards_and_intervals(
        shards_idx in 0usize..3,
        interval in 1u64..=3,
        flip_step in 4u64..8,
        bit in 0u64..16,
    ) {
        let shards = [1usize, 2, 4][shards_idx];
        let mk_requests = || -> Vec<ServeRequest> {
            (0..4u64)
                .map(|i| ServeRequest::new(i, prompt(96, 0x9B0B + i), 12, policy()))
                .collect()
        };
        let cfg = ServeConfig {
            shards,
            max_active_per_shard: 4,
            queue_capacity: 4,
            assignment: ShardAssignment::RoundRobin,
            checkpoint_every_ticks: Some(interval),
            record_trace: true,
            session: session_cfg(),
            ..Default::default()
        };
        let clean = run_with_watchdog(cfg.clone(), mk_requests());
        let faulted = ServeConfig {
            faults: Some(FaultPlan::seeded(0xF00D).with_bit_flip(1, flip_step, bit)),
            ..cfg
        };
        let report = run_with_watchdog(faulted, mk_requests());

        prop_assert_eq!(report.completions.len(), 4);
        prop_assert_eq!(report.worker_panics, 0);
        for c in &report.completions {
            prop_assert!(c.is_success(), "session {} lost: {:?}", c.id, c.failure);
        }
        prop_assert_eq!(outcome_map(&report), outcome_map(&clean));
        let victim = report.completion(1).unwrap();
        let clean_victim = clean.completion(1).unwrap();
        prop_assert_eq!(victim.trace.len(), clean_victim.trace.len());
        for (step, (tr, clean_tr)) in victim.trace.iter().zip(&clean_victim.trace).enumerate() {
            prop_assert_eq!(&tr.logits, &clean_tr.logits, "victim logits diverged at {}", step);
        }
    }
}
