//! Brownout overload-control battery: graceful degradation end to end.
//!
//! Four contracts pin the controller down:
//! 1. **Disabled/nominal bit-identity** — `overload: None` reports an
//!    all-zero summary, and a controller that never leaves `Nominal`
//!    produces the same tokens as no controller at all.
//! 2. **Staged degradation under a storm** — a 4× overload storm climbs
//!    the ladder: Low/Normal sessions decode under reduced effort
//!    (metered per token), Low admissions are deferred or shed, and
//!    High-priority output stays bit-identical to a controller-off run.
//! 3. **Replay determinism** — the same storm under the same fault plan
//!    replays bit-identically, controller metering included (every
//!    brownout decision lives on the tick clock).
//! 4. **Recall floor** — the effort ladder's maximum degradation keeps
//!    recall@k against the exact selection at or above the configured
//!    floor, on the clustered fixture where IVF recall is meaningful
//!    (proptest sweeps the whole effort plane), and a degraded session's
//!    selection is an exact subset of the full-effort one.

use pqcache::core::{CacheConfig, IvfMode, SelectiveSession, SessionConfig};
use pqcache::llm::{LlmConfig, Model};
use pqcache::policies::{PqCachePolicy, PqCachePolicyConfig, SelectionEffort};
use pqcache::pq::{IvfConfig, IvfIndex, PqCodebook, PqCodes, PqConfig, PqRetriever};
use pqcache::serve::{
    Completion, FaultPlan, OverloadConfig, OverloadSummary, PressureLevel, Priority, ServeConfig,
    ServeEngine, ServeReport, ServeRequest, ShardAssignment,
};
use pqcache::tensor::{topk_recall, Matrix, Rng64};
use pqcache::workloads::{overload_storm_trace, TraceConfig, VocabLayout};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

const WALL_LIMIT: Duration = Duration::from_secs(240);

/// Large offset added to every trace arrival tick: every request is popped
/// off the admission queue into the shard's maturity buffer before any of
/// them is due. The engine — not this offset — is what makes admission a
/// pure function of the tick clock: with queues big enough that the
/// producer never blocks, a shard with a free slot waits for an arrived
/// request the producer has yet to deliver instead of ticking past it,
/// matured requests are picked in a total order (never by the order they
/// happened to be popped in), and the controller's queue pressure counts
/// requests that have
/// *arrived* and not been popped, never the physical queue depth — so it
/// reads 0 until the storm outruns the slots.
const ARRIVAL_OFFSET: u64 = 768;

fn session_cfg() -> SessionConfig {
    SessionConfig {
        n_init: 2,
        n_local: 8,
        token_ratio: 0.25,
        comm_fraction: 1.0 / 16.0,
        obs_window: 8,
        cache: CacheConfig { capacity_tokens: 64, block_size: 8, lfu: true, k_cache_blocks: 4 },
        ivf: IvfMode::Exact,
    }
}

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

fn by_id(report: &ServeReport) -> HashMap<u64, &Completion> {
    report.completions.iter().map(|c| (c.id, c)).collect()
}

// ---------------------------------------------------------------------------
// 1. Disabled / nominal bit-identity
// ---------------------------------------------------------------------------

fn light_requests() -> Vec<ServeRequest> {
    let mut rng = Rng64::new(0x11);
    (0..3u64)
        .map(|id| {
            let toks: Vec<u32> = (0..72).map(|_| rng.below(200) as u32).collect();
            ServeRequest::new(id, toks, 8, Box::new(PqCachePolicy::default()))
        })
        .collect()
}

fn light_cfg(overload: Option<OverloadConfig>) -> ServeConfig {
    ServeConfig {
        shards: 1,
        // 3 sessions over 8 slots: slot pressure peaks at 0.375, well
        // below the default enter[0] = 0.55 — the ladder never arms.
        max_active_per_shard: 8,
        queue_capacity: 16,
        session: session_cfg(),
        overload,
        ..Default::default()
    }
}

#[test]
fn nominal_controller_is_bit_identical_and_disabled_meters_nothing() {
    let on = run_with_watchdog(light_cfg(Some(OverloadConfig::default())), light_requests());
    let off = run_with_watchdog(light_cfg(None), light_requests());

    // Disabled controller: the summary is the all-zero default — not even
    // Nominal ticks are attributed.
    assert_eq!(off.overload, OverloadSummary::default());
    assert_eq!(off.total_degraded_steps(), 0);

    // Enabled but never pressured: it watches (Nominal ticks accrue) and
    // touches nothing.
    assert_eq!(on.overload.pressured_ticks(), 0, "light load must stay Nominal");
    assert!(on.overload.level_ticks[0] > 0, "an enabled controller attributes its ticks");
    assert_eq!(on.overload.degraded_tokens, 0);
    assert_eq!(on.overload.deferrals + on.overload.sheds, 0);
    assert_eq!(on.total_degraded_steps(), 0);

    // Bit-identity: same tokens, same deterministic TTFT, no degradation
    // recorded on any completion.
    let off_map = by_id(&off);
    assert_eq!(on.completions.len(), off.completions.len());
    for c in &on.completions {
        let o = off_map[&c.id];
        assert!(c.failure.is_none() && o.failure.is_none());
        assert_eq!(c.generated, o.generated, "request {} diverged under a Nominal controller", c.id);
        assert_eq!(c.ttft_ticks, o.ttft_ticks);
        assert_eq!(c.max_degrade_level, PressureLevel::Nominal);
        assert_eq!(o.max_degrade_level, PressureLevel::Nominal);
    }
}

// ---------------------------------------------------------------------------
// 2 & 3. Storm batteries
// ---------------------------------------------------------------------------

const STORM_SESSIONS: usize = 16;

fn storm_trace() -> pqcache::workloads::TenantTrace {
    overload_storm_trace(
        &TraceConfig {
            sessions: STORM_SESSIONS,
            arrival_rate: 0.5,
            prompt_lens: [64, 80, 96],
            prompt_mix: [0.6, 0.3, 0.1],
            decode_steps: (6, 14),
            priority_mix: [1.0, 1.0, 0.6],
            layout: VocabLayout::for_vocab(256),
            seed: 0x5708B,
        },
        4.0,
    )
}

fn storm_requests() -> Vec<ServeRequest> {
    storm_trace()
        .requests
        .into_iter()
        .map(|r| {
            ServeRequest::new(r.id, r.workload.tokens, r.decode_steps, Box::new(PqCachePolicy::default()))
                .with_arrival_tick(r.arrival_tick + ARRIVAL_OFFSET)
                .with_priority(match r.priority {
                    0 => Priority::Low,
                    1 => Priority::Normal,
                    _ => Priority::High,
                })
        })
        .collect()
}

/// Thresholds scaled down so a 4-slot shard saturates the ladder: four
/// resident sessions score 1.0 ≥ enter[2]. Every request is popped early
/// into the maturity buffer, so the arrived-and-unpopped backlog — the
/// only queue pressure the controller sees — stays 0.
fn aggressive_overload() -> OverloadConfig {
    OverloadConfig {
        enter: [0.2, 0.4, 0.6],
        exit: [0.1, 0.25, 0.45],
        dwell_up: 1,
        dwell_down: 2,
        ..Default::default()
    }
}

fn storm_cfg(overload: Option<OverloadConfig>, faults: Option<FaultPlan>) -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: 128,
        assignment: ShardAssignment::RoundRobin,
        session: session_cfg(),
        overload,
        faults,
        ..Default::default()
    }
}

#[test]
fn storm_degrades_and_defers_but_high_priority_stays_clean() {
    let requests = storm_requests();
    assert!(requests.iter().any(|r| r.priority == Priority::Low), "trace must carry Low traffic");
    assert!(requests.iter().any(|r| r.priority == Priority::High), "trace must carry High traffic");

    let on = run_with_watchdog(storm_cfg(Some(aggressive_overload()), None), requests);
    let off = run_with_watchdog(storm_cfg(None, None), storm_requests());
    assert_eq!(on.completions.len(), STORM_SESSIONS, "every request reports exactly once");
    assert_eq!(off.completions.len(), STORM_SESSIONS);

    // The storm actually pressured the shard and the controller actually
    // acted: effort-reduced tokens were produced, and Low admissions were
    // deferred (Saturated) and/or shed (Critical).
    assert!(on.overload.pressured_ticks() > 0, "storm never left Nominal");
    assert!(on.overload.degraded_tokens > 0, "no token decoded under reduced effort");
    assert!(
        on.overload.deferrals + on.overload.sheds > 0,
        "no Low admission was deferred or shed"
    );
    assert!(on.total_degraded_steps() > 0, "degraded decode ticks must be metered");
    assert!(
        on.completions
            .iter()
            .any(|c| c.priority != Priority::High && c.max_degrade_level > PressureLevel::Nominal),
        "no completion records its degradation high-water mark"
    );

    // Per-class latency breakdown: each class's TTFT-tick sample count
    // matches its completions that produced a first token.
    for p in [Priority::Low, Priority::Normal, Priority::High] {
        let produced =
            on.completions.iter().filter(|c| c.priority == p && c.ttft_ticks.is_some()).count();
        assert_eq!(
            on.latency_for(p).ttft_ticks.count,
            produced,
            "{p:?} class latency breakdown out of sync"
        );
    }

    // High priority is the protected class: full effort always, never
    // deferred or shed, output bit-identical to the controller-off run.
    let off_map = by_id(&off);
    for c in on.completions.iter().filter(|c| c.priority == Priority::High) {
        assert_eq!(c.max_degrade_level, PressureLevel::Nominal, "High request {} degraded", c.id);
        assert!(c.failure.is_none(), "High request {} failed: {:?}", c.id, c.failure);
        assert_eq!(
            c.generated, off_map[&c.id].generated,
            "High request {} diverged under brownout",
            c.id
        );
    }
}

#[test]
fn chaos_overload_storm_replays_identically() {
    // A storm with a mid-decode panic and an injected admission reject on
    // top of brownout control: every controller decision (ladder steps,
    // effort, deferral jitter, Critical sheds) lives on the tick clock, so
    // two runs must agree bit for bit — including the metering.
    let plan = FaultPlan::seeded(0xFA11).with_session_panic(5, 2).with_admission_rejects(9, 1);
    let run = || {
        run_with_watchdog(storm_cfg(Some(aggressive_overload()), Some(plan.clone())), storm_requests())
    };
    let a = run();
    let b = run();

    assert_eq!(a.overload, b.overload, "controller metering diverged across replays");
    assert_eq!(a.completions.len(), b.completions.len());
    let bm = by_id(&b);
    for ca in &a.completions {
        let cb = bm[&ca.id];
        assert_eq!(ca.generated, cb.generated, "request {} tokens diverged", ca.id);
        assert_eq!(ca.retries, cb.retries, "request {} retries diverged", ca.id);
        assert_eq!(ca.ttft_ticks, cb.ttft_ticks, "request {} TTFT ticks diverged", ca.id);
        assert_eq!(ca.preemptions, cb.preemptions, "request {} preemptions diverged", ca.id);
        assert_eq!(
            ca.max_degrade_level, cb.max_degrade_level,
            "request {} degradation mark diverged",
            ca.id
        );
        assert_eq!(
            ca.failure.as_ref().map(|f| f.error.to_string()),
            cb.failure.as_ref().map(|f| f.error.to_string()),
            "request {} failure diverged",
            ca.id
        );
    }
    // The shard-level brownout counters replay too.
    let levels = |r: &ServeReport| r.shards.iter().map(|s| s.level_ticks).collect::<Vec<_>>();
    assert_eq!(levels(&a), levels(&b));
    assert_eq!(a.total_degraded_steps(), b.total_degraded_steps());
}

// ---------------------------------------------------------------------------
// Satellite: degraded_steps counts exactly the pressured decode ticks
// ---------------------------------------------------------------------------

#[test]
fn degraded_steps_count_exactly_the_pressured_decode_ticks() {
    // One Normal session on a 4-slot shard scores slot pressure 0.25:
    // with enter[0] = 0.2 and dwell_up = 1 the ladder steps to Elevated on
    // the session's very first resident tick and can never reach
    // Saturated (enter[1] = 0.98) or step back down (exit[0] = 0.1 <
    // 0.25). Every one of the 12 decode ticks therefore runs under
    // Elevated — `degraded_steps` must count exactly those, and
    // `degraded_tokens` must match because the session is degradable.
    const STEPS: usize = 12;
    let mut rng = Rng64::new(0x2323);
    let toks: Vec<u32> = (0..72).map(|_| rng.below(200) as u32).collect();
    let requests =
        vec![ServeRequest::new(0, toks, STEPS, Box::new(PqCachePolicy::default()))];
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: 16,
        session: session_cfg(),
        overload: Some(OverloadConfig {
            enter: [0.2, 0.98, 0.99],
            exit: [0.1, 0.5, 0.6],
            dwell_up: 1,
            ..Default::default()
        }),
        ..Default::default()
    };
    let report = run_with_watchdog(cfg, requests);

    assert_eq!(report.completions.len(), 1);
    let c = &report.completions[0];
    assert!(c.failure.is_none());
    assert_eq!(c.generated.len(), STEPS);
    assert_eq!(c.max_degrade_level, PressureLevel::Elevated);

    let s = &report.shards[0];
    assert_eq!(s.degraded_steps, STEPS as u64, "degraded_steps must equal the Elevated decode ticks");
    assert_eq!(report.overload.degraded_tokens, STEPS as u64);
    assert_eq!(s.level_ticks[PressureLevel::Elevated.index()], STEPS as u64);
    assert_eq!(
        s.level_ticks.iter().sum::<u64>(),
        s.ticks,
        "every observed tick must be attributed to exactly one rung"
    );
    assert_eq!(s.stalled_steps, 0, "no stall was injected");
}

// ---------------------------------------------------------------------------
// Satellite: config cross-validation
// ---------------------------------------------------------------------------

#[test]
fn probe_floor_wider_than_the_session_probe_width_is_rejected() {
    // A min_n_probe floor the session's Probe width can never honour is a
    // construction-time error, not a silent clamp. The effort ladder is
    // kept self-consistent (caps ≥ floor) so validation reaches the
    // cross-check.
    let wide_floor = OverloadConfig {
        effort: [
            SelectionEffort { k_frac: 0.5, max_n_probe: Some(8) },
            SelectionEffort { k_frac: 0.25, max_n_probe: Some(8) },
            SelectionEffort { k_frac: 0.15, max_n_probe: Some(8) },
        ],
        min_n_probe: 8,
        ..Default::default()
    };
    let cfg = ServeConfig {
        session: SessionConfig { ivf: IvfMode::Probe(4), ..session_cfg() },
        overload: Some(wide_floor.clone()),
        ..Default::default()
    };
    assert_eq!(cfg.validate().unwrap_err().field, "overload.min_n_probe");

    // The same overload config over an Exact session (no probe width to
    // violate) passes.
    let ok = ServeConfig { session: session_cfg(), overload: Some(wide_floor), ..Default::default() };
    ok.validate().expect("floor without a probe width is fine");
}

// ---------------------------------------------------------------------------
// 4. Recall floor under degradation
// ---------------------------------------------------------------------------

struct RecallFixture {
    keys: Matrix,
    book: PqCodebook,
    codes: PqCodes,
    ivf: IvfIndex,
}

/// Nominal operating point the efforts degrade from.
const NOMINAL_K: usize = 64;
const NOMINAL_PROBE: usize = 8;
const N_LIST: usize = 16;

fn recall_fixture() -> &'static RecallFixture {
    static FIX: OnceLock<RecallFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        // Clustered keys: the regime where IVF recall is meaningful (the
        // same generator as the ivf_equivalence floor), sized so the
        // proptest sweep stays fast.
        let s = 4096;
        let keys = Matrix::clustered(s, 32, 16, 0.35, &mut Rng64::new(0xB01));
        let (book, codes) =
            PqCodebook::train(&keys, PqConfig { m: 2, b: 6, max_iters: 8, seed: 0xB01 });
        let ivf = IvfIndex::build(
            &keys,
            &codes,
            IvfConfig { n_list: N_LIST, n_probe: NOMINAL_PROBE, max_iters: 8, seed: 0xB02 },
        );
        RecallFixture { keys, book, codes, ivf }
    })
}

/// Mean recall@k′ of the degraded routed selection against the exact flat
/// selection at the same k′, over token-aligned decode-style queries.
fn degraded_recall(effort: SelectionEffort) -> f64 {
    let fix = recall_fixture();
    let s = fix.codes.len();
    let k = effort.effective_k(NOMINAL_K);
    let n_probe = effort.effective_n_probe(NOMINAL_PROBE);
    let mut retriever = PqRetriever::new();
    let mut rng = Rng64::new(0xB03);
    let trials = 8;
    let mut sum = 0.0;
    for _ in 0..trials {
        let t = rng.below(s);
        let q: Vec<f32> =
            fix.keys.row(t).iter().map(|v| v + 0.25 * rng.normal_f32(0.0, 1.0)).collect();
        let mut exact = Vec::new();
        let _ = retriever.score_and_select_into(&fix.book, &fix.codes, &q, s, k, &mut exact);
        let mut routed = Vec::new();
        let _ = retriever
            .score_and_select_ivf_into(&fix.book, &fix.ivf, &q, s, k, n_probe, &mut routed);
        sum += topk_recall(&exact, &routed);
    }
    sum / trials as f64
}

#[test]
fn default_effort_ladder_meets_the_configured_recall_floor() {
    let cfg = OverloadConfig::default();
    for (i, effort) in cfg.effort.iter().enumerate() {
        let recall = degraded_recall(*effort);
        assert!(
            recall >= cfg.recall_floor,
            "rung {i} ({effort:?}) recall {recall:.3} below the configured floor {}",
            cfg.recall_floor
        );
    }
    // Maximum degradation explicitly: the bottom rung is the contract the
    // brownout sells ("degraded, but never below this").
    let floor_rung = cfg.effort[2];
    assert!(degraded_recall(floor_rung) >= cfg.recall_floor);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any effort inside the validated envelope (k_frac ≥ the default
    /// min_k_frac band actually used by the ladder, probe cap ≥
    /// min_n_probe) keeps recall at or above the configured floor — the
    /// floor holds across the whole effort plane, not just the three
    /// shipped rungs.
    #[test]
    fn any_valid_effort_meets_the_recall_floor(
        k_pct in 15u32..=100,
        cap in 4u32..=16,
    ) {
        let cfg = OverloadConfig::default();
        let effort =
            SelectionEffort { k_frac: f64::from(k_pct) / 100.0, max_n_probe: Some(cap as usize) };
        let recall = degraded_recall(effort);
        prop_assert!(
            recall >= cfg.recall_floor,
            "effort {:?} recall {:.3} below floor {}", effort, recall, cfg.recall_floor
        );
    }
}

#[test]
fn degraded_session_selection_is_an_exact_subset_of_full_effort() {
    // Under reduced k_frac the policy ranks the same ADC scores and takes
    // a shorter prefix, so on the first decode step (before outputs
    // diverge) the degraded selection must be a strict subset of the
    // full-effort one, per (layer, head).
    let model = Model::new(LlmConfig::tiny());
    let mut rng = Rng64::new(0x5E7);
    let toks: Vec<u32> = (0..88).map(|_| rng.below(200) as u32).collect();
    let run = |effort: Option<SelectionEffort>| {
        let policy = PqCachePolicy::new(PqCachePolicyConfig {
            m: 2,
            b: 6,
            kmeans_iters: 10,
            seed: 77,
            ..Default::default()
        });
        let start = SelectiveSession::start(&model, Box::new(policy), session_cfg(), &toks);
        let mut session = start.session;
        if let Some(e) = effort {
            session.set_effort(e);
        }
        let next = pqcache::tensor::argmax(&start.logits) as u32;
        session.decode(next);
        session.selected_snapshot()
    };
    let full = run(None);
    let degraded = run(Some(SelectionEffort { k_frac: 0.15, max_n_probe: None }));
    assert_eq!(full.len(), degraded.len());
    let mut strictly_smaller = false;
    for (l, (fl, dl)) in full.iter().zip(degraded.iter()).enumerate() {
        for (h, (fh, dh)) in fl.iter().zip(dl.iter()).enumerate() {
            let full_set: HashSet<usize> = fh.iter().copied().collect();
            assert!(
                dh.iter().all(|t| full_set.contains(t)),
                "layer {l} head {h}: degraded selection escapes the full-effort set"
            );
            if dh.len() < fh.len() {
                strictly_smaller = true;
            }
        }
    }
    assert!(strictly_smaller, "a 0.15 budget must actually shrink some selection");
}
