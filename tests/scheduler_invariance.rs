//! Schedule-invariance battery: **no scheduling knob may change results**.
//!
//! `tests/serve_equivalence.rs` proves the serve engine matches sequential
//! decoding under the default schedule. This battery proves the *SLO*
//! schedule space preserves that contract: proptest sweeps random prefill
//! chunk budgets, priority mixes, slot pressure, and admission windows
//! (a small window hides later requests until earlier ones pop, so a
//! high-priority request shows up against a full shard and forces a
//! preemption) across 1, 2, and 4 shards — and every swept schedule must
//! reproduce each session's logits bit-for-bit against the sequential
//! engine. A deterministic storm case additionally pins that
//! the sweep really exercises the preemption path (suspend through the
//! paged tier, resume later) rather than vacuously passing.

use proptest::prelude::*;
use pqcache::core::{CacheConfig, SelectiveSession, SessionConfig};
use pqcache::llm::{LlmConfig, Model};
use pqcache::policies::{PqCachePolicy, SelectionPolicy, StreamingLlmPolicy};
use pqcache::serve::{Priority, ServeConfig, ServeEngine, ServeReport, ServeRequest};
use pqcache::tensor::{argmax, Rng64};
use std::sync::OnceLock;

const N_SESSIONS: usize = 6;
const DECODE_STEPS: usize = 8;

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

fn fixture_prompts() -> Vec<Vec<u32>> {
    (0..N_SESSIONS).map(|i| prompt(48 + 16 * (i % 3), 0xF1 + i as u64)).collect()
}

fn make_policy(i: usize) -> Box<dyn SelectionPolicy + Send> {
    if i % 3 == 2 {
        Box::new(StreamingLlmPolicy)
    } else {
        Box::new(PqCachePolicy::default())
    }
}

/// Sequential ground truth for one session: the tokens and per-step logits
/// any schedule must reproduce exactly.
struct Reference {
    generated: Vec<u32>,
    logits: Vec<Vec<f32>>,
}

/// Model + sequential references, computed once: every proptest case reuses
/// the same ground truth, so the sweep spends its time on schedules.
fn fixture() -> &'static (Model, Vec<Reference>) {
    static FIXTURE: OnceLock<(Model, Vec<Reference>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let model = Model::new(LlmConfig::tiny());
        let references: Vec<Reference> = fixture_prompts()
            .iter()
            .enumerate()
            .map(|(i, toks)| {
                let start = SelectiveSession::start(&model, make_policy(i), session_cfg(), toks);
                let mut session = start.session;
                let mut next = argmax(&start.logits) as u32;
                let mut generated = Vec::new();
                let mut logits = Vec::new();
                for _ in 0..DECODE_STEPS {
                    generated.push(next);
                    let dec = session.decode(next);
                    logits.push(dec.logits.clone());
                    next = dec.greedy();
                }
                Reference { generated, logits }
            })
            .collect();
        (model, references)
    })
}

fn tier(p: u8) -> Priority {
    match p {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

/// One swept schedule: the batch waits behind an admission window of
/// `window` requests, so request `i` is hidden until `i - window + 1`
/// earlier ones have popped — a high-priority request that shows up
/// against full slots preempts.
fn serve_fleet(
    model: &Model,
    shards: usize,
    slots: usize,
    chunk: Option<usize>,
    priorities: &[u8],
    window: usize,
) -> ServeReport {
    let cfg = ServeConfig {
        shards,
        max_active_per_shard: slots,
        queue_capacity: window,
        prefill_chunk_tokens: chunk,
        session: session_cfg(),
        record_trace: true,
        ..Default::default()
    };
    let requests: Vec<ServeRequest> = fixture_prompts()
        .into_iter()
        .enumerate()
        .map(|(i, tokens)| {
            ServeRequest::new(i as u64, tokens, DECODE_STEPS, make_policy(i))
                .with_priority(tier(priorities[i]))
        })
        .collect();
    ServeEngine::run(model, &cfg, requests).expect("valid config")
}

fn assert_matches_sequential(report: &ServeReport, label: &str) {
    let (_, references) = fixture();
    assert_eq!(report.completions.len(), N_SESSIONS, "{label}: fleet lost requests");
    for (i, (seq, com)) in references.iter().zip(report.completions.iter()).enumerate() {
        assert_eq!(com.id, i as u64);
        assert!(com.failure.is_none(), "{label}: session {i} failed: {:?}", com.failure);
        assert_eq!(seq.generated, com.generated, "{label}: session {i} tokens diverged");
        assert_eq!(com.trace.len(), DECODE_STEPS, "{label}: session {i} trace truncated");
        for (step, tr) in com.trace.iter().enumerate() {
            assert_eq!(
                seq.logits[step], tr.logits,
                "{label}: session {i} step {step} logits diverged"
            );
        }
    }
}

proptest! {
    // Each case runs three full serve fleets; keep the count modest and
    // let the deterministic cases below pin the known-hard corners.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The core property: any (chunk budget, priority mix, slot pressure,
    /// admission window) × any shard count decodes bit-identically to the
    /// sequential engine.
    #[test]
    fn random_schedules_decode_bit_identically(
        // 0 means monolithic admission (chunking off) — every other value
        // is a per-tick chunk budget.
        chunk_raw in 0usize..=96,
        priorities in proptest::collection::vec(0u8..3, N_SESSIONS),
        window in 1usize..=N_SESSIONS,
        slots in 1usize..=3,
    ) {
        let chunk = (chunk_raw > 0).then_some(chunk_raw);
        let (model, _) = fixture();
        for shards in [1usize, 2, 4] {
            let report = serve_fleet(model, shards, slots, chunk, &priorities, window);
            assert_matches_sequential(
                &report,
                &format!("chunk {chunk:?} priorities {priorities:?} window {window} \
                          slots {slots} shards {shards}"),
            );
        }
    }
}

/// Maximum contention, deterministically: one shard, one slot, every
/// priority tier present, and a window of one, so each request shows up
/// only when the one ahead of it pops — against a lower-class session in
/// the slot. The schedule *must* preempt (proving the sweep exercises
/// suspend/resume through the paged tier) and still match sequential.
#[test]
fn forced_preemption_storm_is_bit_identical() {
    let (model, _) = fixture();
    let priorities = [0u8, 1, 2, 0, 1, 2];
    for chunk in [None, Some(5), Some(32)] {
        let report = serve_fleet(model, 1, 1, chunk, &priorities, 1);
        assert!(
            report.total_preemptions() >= 1,
            "storm (chunk {chunk:?}) never preempted — the battery is vacuous"
        );
        assert_matches_sequential(&report, &format!("storm chunk {chunk:?}"));
    }
}

/// The same storm knobs across shard counts: results must agree with the
/// sequential engine at 1, 2, and 4 shards (and hence with each other).
#[test]
fn storm_knobs_are_shard_count_invariant() {
    let (model, _) = fixture();
    let priorities = [2u8, 0, 1, 2, 0, 1];
    for shards in [1usize, 2, 4] {
        let report = serve_fleet(model, shards, 2, Some(7), &priorities, 2);
        assert_matches_sequential(&report, &format!("shards {shards}"));
    }
}

/// Chunk budgets spanning degenerate (1 token per tick), misaligned with
/// the page size, and larger-than-any-prompt, under slot starvation.
#[test]
fn chunk_budget_sweep_under_slot_starvation() {
    let (model, _) = fixture();
    let priorities = [1u8; N_SESSIONS];
    for chunk in [1usize, 3, 16, 1000] {
        let report = serve_fleet(model, 2, 1, Some(chunk), &priorities, N_SESSIONS);
        assert_matches_sequential(&report, &format!("chunk {chunk}"));
    }
}
