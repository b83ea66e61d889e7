//! Serve-engine concurrency stress: churn, a tight admission window,
//! liveness.
//!
//! 64 short sessions stream through 4 worker threads with deliberately
//! tight knobs: a small admission window (most of the batch waits in the
//! backlog), few session slots per shard (sessions finish and new ones are
//! admitted mid-run — churn), and mixed decode lengths from the Poisson
//! trace generator.
//!
//! Asserted: the run finishes within a wall-clock bound (no deadlock or
//! livelock among the workers), the window never exceeds its bound, and
//! every admitted request completes with exactly the requested token
//! count.

use pqcache::core::{CacheConfig, SessionConfig};
use pqcache::llm::{LlmConfig, Model};
use pqcache::memhier::TransferStats;
use pqcache::policies::PqCachePolicy;
use pqcache::serve::{ServeConfig, ServeEngine, ServeReport, ServeRequest};
use pqcache::workloads::{multi_tenant_trace, TraceConfig, VocabLayout};
use std::sync::mpsc;
use std::time::Duration;

const SESSIONS: usize = 64;
const SHARDS: usize = 4;
/// Generous liveness bound — the run takes a few seconds; a deadlock hangs
/// forever. Loose enough for slow shared CI runners.
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

/// The one stress trace (deterministic): both the served requests and the
/// expected token counts derive from this, so they cannot drift apart.
fn stress_trace() -> pqcache::workloads::TenantTrace {
    multi_tenant_trace(&TraceConfig {
        sessions: SESSIONS,
        arrival_rate: 1.5,
        prompt_lens: [64, 80, 96],
        prompt_mix: [0.6, 0.3, 0.1],
        decode_steps: (2, 12),
        layout: VocabLayout::for_vocab(256),
        seed: 0x57E5,
        ..Default::default()
    })
}

fn stress_requests() -> Vec<ServeRequest> {
    stress_trace()
        .requests
        .into_iter()
        .map(|r| {
            ServeRequest::new(
                r.id,
                r.workload.tokens,
                r.decode_steps,
                Box::new(PqCachePolicy::default()),
            )
        })
        .collect()
}

fn expected_steps() -> Vec<usize> {
    stress_trace().requests.iter().map(|r| r.decode_steps).collect()
}

/// Run the engine on a watchdog thread; a deadlock fails the test at the
/// wall-clock bound instead of hanging CI forever.
fn run_with_watchdog(cfg: ServeConfig, requests: Vec<ServeRequest>) -> ServeReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let model = Model::new(LlmConfig::tiny());
        let report = ServeEngine::run(&model, &cfg, requests).expect("valid config");
        let _ = tx.send(report);
    });
    match rx.recv_timeout(WALL_LIMIT) {
        Ok(report) => report,
        Err(_) => panic!("serve engine did not finish within {WALL_LIMIT:?}: deadlock or livelock"),
    }
}

#[test]
fn churn_under_four_workers_completes_everything() {
    let cfg = ServeConfig {
        shards: SHARDS,
        // 2 slots/shard over 64 requests: ~8 admission waves per shard.
        max_active_per_shard: 2,
        // Tight window: 6 of 64 requests visible at a time.
        queue_capacity: 6,
        session: session_cfg(),
        ..Default::default()
    };
    let report = run_with_watchdog(cfg, stress_requests());

    // Liveness: bounded wall-clock (watchdog) and all work retired.
    assert!(report.wall < WALL_LIMIT);
    assert_eq!(report.completions.len(), SESSIONS, "requests lost");

    // The window honoured its bound.
    assert!(
        report.queue_high_water <= 6,
        "queue exceeded its bound: {}",
        report.queue_high_water
    );

    // Every admitted request produced exactly the requested token count.
    let expected = expected_steps();
    for c in &report.completions {
        assert_eq!(
            c.generated.len(),
            expected[c.id as usize],
            "request {} wrong token count",
            c.id
        );
        assert!(c.shard < SHARDS);
        assert!(c.transfer.d2h_bytes > 0, "request {} never offloaded", c.id);
    }

    // Churn actually happened: every shard admitted several waves.
    let total_admitted: u64 = report.shards.iter().map(|s| s.admitted).sum();
    assert_eq!(total_admitted, SESSIONS as u64);
    for (i, s) in report.shards.iter().enumerate() {
        assert!(s.admitted > 2, "shard {i} admitted only {} sessions — no churn", s.admitted);
        assert!(s.ticks > 0);
    }

    // Aggregate accounting holds under churn too.
    let sum: TransferStats = report.completions.iter().map(|c| c.transfer).sum();
    assert_eq!(report.aggregate_transfer, sum);
}

#[test]
fn stress_results_are_scheduling_independent() {
    // Two runs with different shard counts and window sizes must produce
    // the same tokens for every request (the equivalence property, held
    // under full stress rather than fixture fixtures).
    let mk = |shards: usize, queue: usize| {
        let cfg = ServeConfig {
            shards,
            max_active_per_shard: 2,
            queue_capacity: queue,
            session: session_cfg(),
            ..Default::default()
        };
        run_with_watchdog(cfg, stress_requests())
    };
    let a = mk(SHARDS, 6);
    let b = mk(2, 3);
    assert_eq!(a.completions.len(), b.completions.len());
    for (ca, cb) in a.completions.iter().zip(b.completions.iter()) {
        assert_eq!(ca.id, cb.id);
        assert_eq!(ca.generated, cb.generated, "request {} diverged across schedules", ca.id);
        // Each session owns its cache, so its whole traffic — the offload
        // stream, cache hits and misses, and the H2D fetches they leave —
        // is a pure function of the session and agrees across schedules.
        assert_eq!(ca.transfer, cb.transfer, "request {} traffic diverged", ca.id);
        assert_eq!(ca.cache, cb.cache, "request {} cache stats diverged", ca.id);
    }
}
