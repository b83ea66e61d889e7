use super::*;
use pqc_core::SessionConfig;
use pqc_llm::LlmConfig;
use pqc_memhier::{SharingStats, TransferStats};
use pqc_policies::PqCachePolicy;

pub(super) fn session_cfg() -> SessionConfig {
    SessionConfig {
        n_init: 2,
        n_local: 8,
        token_ratio: 0.25,
        comm_fraction: 1.0 / 16.0,
        obs_window: 8,
        cache: pqc_core::CacheConfig {
            capacity_tokens: 64,
            block_size: 8,
            lfu: true,
            k_cache_blocks: 4,
        },
        ivf: pqc_core::IvfMode::Exact,
    }
}

pub(super) fn prompt(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = pqc_tensor::Rng64::new(seed);
    (0..n).map(|_| rng.below(200) as u32).collect()
}

fn requests(n: usize) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            ServeRequest::new(
                i as u64,
                prompt(48 + 8 * (i % 3), 100 + i as u64),
                4 + i % 3,
                Box::new(PqCachePolicy::default()),
            )
        })
        .collect()
}

#[test]
fn serves_all_requests_to_completion() {
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 2,
        max_active_per_shard: 2,
        queue_capacity: 3,
        session: session_cfg(),
        ..Default::default()
    };
    let report = ServeEngine::run(&model, &cfg, requests(7)).unwrap();
    assert_eq!(report.completions.len(), 7);
    for (i, c) in report.completions.iter().enumerate() {
        assert_eq!(c.id, i as u64);
        assert_eq!(c.generated.len(), 4 + i % 3);
        assert!(c.shard < 2);
        assert!(c.is_success());
        assert_eq!(c.retries, 0);
    }
    assert!(report.queue_high_water <= 3);
    let sum: TransferStats = report.completions.iter().map(|c| c.transfer).sum();
    assert_eq!(report.aggregate_transfer, sum);
    assert_eq!(report.tokens_decoded(), (0..7).map(|i| 4 + (i % 3) as u64).sum());
    assert_eq!(report.failures().count(), 0);
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.total_shed_tokens(), 0);
}

#[test]
fn zero_step_request_completes_without_decoding() {
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 2,
        queue_capacity: 2,
        session: session_cfg(),
        ..Default::default()
    };
    let reqs =
        vec![ServeRequest::new(9, prompt(48, 5), 0, Box::new(PqCachePolicy::default()))];
    let report = ServeEngine::run(&model, &cfg, reqs).unwrap();
    assert_eq!(report.completions.len(), 1);
    assert!(report.completions[0].generated.is_empty());
    // Prefill offload is still metered.
    assert!(report.completions[0].transfer.d2h_bytes > 0);
}

#[test]
fn single_shard_report_is_deterministic() {
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: 8,
        session: session_cfg(),
        record_trace: true,
        ..Default::default()
    };
    let a = ServeEngine::run(&model, &cfg, requests(5)).unwrap();
    let b = ServeEngine::run(&model, &cfg, requests(5)).unwrap();
    for (ca, cb) in a.completions.iter().zip(b.completions.iter()) {
        assert_eq!(ca.generated, cb.generated);
        assert_eq!(ca.trace, cb.trace);
        assert_eq!(ca.transfer, cb.transfer);
    }
}

#[test]
fn round_robin_places_deterministically() {
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 2,
        max_active_per_shard: 2,
        queue_capacity: 4,
        assignment: ShardAssignment::RoundRobin,
        session: session_cfg(),
        ..Default::default()
    };
    let report = ServeEngine::run(&model, &cfg, requests(6)).unwrap();
    assert_eq!(report.completions.len(), 6);
    for c in &report.completions {
        assert_eq!(c.shard, (c.id % 2) as usize, "request {} misplaced", c.id);
    }
    // Balanced placement ⇒ both shards admitted equally.
    assert!(report.shards.iter().all(|s| s.admitted == 3));
    // And results match the first-free schedule bit-for-bit.
    let ff = ServeEngine::run(
        &model,
        &ServeConfig { assignment: ShardAssignment::FirstFree, ..cfg },
        requests(6),
    )
    .unwrap();
    for (a, b) in report.completions.iter().zip(ff.completions.iter()) {
        assert_eq!(a.generated, b.generated);
    }
}

#[test]
fn ivf_probe_all_cells_serves_bit_identically() {
    // ServeConfig.session.ivf = Probe(n_list) reaches every admitted
    // session's policy: the full-probe fleet must reproduce the
    // exact-mode fleet's traces bit for bit (routing is transparent at
    // n_probe = n_list), sharing one IVF scratch per shard.
    let model = Model::new(LlmConfig::tiny());
    let n_list = pqc_policies::PqCachePolicyConfig::default().ivf_n_list;
    let run = |ivf| {
        let cfg = ServeConfig {
            shards: 2,
            max_active_per_shard: 2,
            queue_capacity: 4,
            session: SessionConfig { ivf, ..session_cfg() },
            record_trace: true,
            ..Default::default()
        };
        ServeEngine::run(&model, &cfg, requests(5)).unwrap()
    };
    let exact = run(pqc_core::IvfMode::Exact);
    let probe = run(pqc_core::IvfMode::Probe(n_list));
    assert_eq!(exact.completions.len(), probe.completions.len());
    for (a, b) in exact.completions.iter().zip(probe.completions.iter()) {
        assert_eq!(a.generated, b.generated, "request {} tokens diverged", a.id);
        assert_eq!(a.trace, b.trace, "request {} trace diverged", a.id);
        assert_eq!(a.transfer, b.transfer, "request {} transfers diverged", a.id);
    }
}

#[test]
fn ivf_narrow_probe_fleet_completes() {
    // A genuinely sublinear fleet (probe 2 of 16 cells) must run to
    // completion under continuous batching.
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 2,
        max_active_per_shard: 2,
        queue_capacity: 4,
        session: SessionConfig { ivf: pqc_core::IvfMode::Probe(2), ..session_cfg() },
        ..Default::default()
    };
    let report = ServeEngine::run(&model, &cfg, requests(6)).unwrap();
    assert_eq!(report.completions.len(), 6);
    for (i, c) in report.completions.iter().enumerate() {
        assert_eq!(c.generated.len(), 4 + i % 3);
    }
}

#[test]
fn prefix_cache_shares_pages_across_identical_prompts() {
    // One shard, sequential admission, four identical prompts: the
    // first session registers the prefix, the other three adopt it.
    let model = Model::new(LlmConfig::tiny());
    let toks = prompt(64, 7);
    let reqs = || {
        (0..4)
            .map(|i| {
                ServeRequest::new(
                    i as u64,
                    toks.clone(),
                    5,
                    Box::new(PqCachePolicy::default()) as _,
                )
            })
            .collect::<Vec<_>>()
    };
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: 8,
        session: session_cfg(),
        ..Default::default()
    };
    let shared = ServeEngine::run(&model, &cfg, reqs()).unwrap();
    assert_eq!(shared.completions.len(), 4);
    assert_eq!(shared.prefix.lookups, 4);
    assert_eq!(shared.prefix.full_hits, 3);
    assert_eq!(shared.prefix.entries, 1);
    assert_eq!(shared.aggregate_sharing.prefix_hit_tokens, 3 * toks.len() as u64);
    // Everyone decodes the same continuation...
    for c in &shared.completions[1..] {
        assert_eq!(c.generated, shared.completions[0].generated);
        // ...and adopters skip the offload the cold session paid.
        assert!(c.sharing.prefix_hit_tokens == toks.len() as u64);
        assert!(c.transfer.d2h_bytes < shared.completions[0].transfer.d2h_bytes);
    }
    // Sharing off: same tokens, four full offloads, bigger host peak.
    let cold =
        ServeEngine::run(&model, &ServeConfig { prefix_cache: false, ..cfg }, reqs()).unwrap();
    assert_eq!(cold.prefix.lookups, 0);
    assert_eq!(cold.aggregate_sharing, SharingStats::default());
    for (a, b) in shared.completions.iter().zip(cold.completions.iter()) {
        assert_eq!(a.generated, b.generated, "prefix sharing changed results");
    }
    assert!(
        shared.peak_host_bytes < cold.peak_host_bytes,
        "sharing must shrink the host peak: {} vs {}",
        shared.peak_host_bytes,
        cold.peak_host_bytes
    );
}

#[test]
fn invalid_config_is_a_typed_error_not_a_panic() {
    let model = Model::new(LlmConfig::tiny());
    let bad = ServeConfig { shards: 0, ..Default::default() };
    let err = bad.validate().unwrap_err();
    assert_eq!(err.field, "shards");
    match ServeEngine::run(&model, &bad, Vec::new()) {
        Err(ServeError::Config(e)) => assert_eq!(e.field, "shards"),
        other => panic!("expected Config error, got {other:?}"),
    }
    // A zero cache block size is rejected up front, not a panic in the
    // cache constructor on the caller's thread.
    let mut bad = ServeConfig { session: session_cfg(), ..Default::default() };
    bad.session.cache.block_size = 0;
    match ServeEngine::run(&model, &bad, requests(2)) {
        Err(ServeError::Config(e)) => assert_eq!(e.field, "cache.block_size"),
        other => panic!("expected Config error, got {other:?}"),
    }
}

#[test]
fn zero_shards_rejected() {
    let err = ServeConfig { shards: 0, ..Default::default() }.validate().unwrap_err();
    assert_eq!(err.field, "shards");
    assert!(err.message.contains("at least one shard"), "{}", err.message);
}

#[test]
fn round_robin_needs_queue_slots() {
    let err = ServeConfig {
        shards: 4,
        queue_capacity: 2,
        assignment: ShardAssignment::RoundRobin,
        ..Default::default()
    }
    .validate()
    .unwrap_err();
    assert_eq!(err.field, "queue_capacity");
    assert!(err.message.contains("queue capacity >= shards"), "{}", err.message);
}

#[test]
fn repeated_request_id_is_rejected_before_any_worker_starts() {
    // Completions, the in-flight map, the checkpoint registry and retry
    // bookkeeping are keyed by id: a twin's publish would drop the other's
    // in-flight entry and checkpoint. The whole batch is refused, typed.
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 2,
        max_active_per_shard: 2,
        session: session_cfg(),
        checkpoint_every_ticks: Some(1),
        ..Default::default()
    };
    let mut reqs = requests(4);
    reqs[3].id = 1;
    match ServeEngine::run(&model, &cfg, reqs) {
        Err(ServeError::Config(e)) => {
            assert_eq!(e.field, "id");
            assert!(e.message.contains("request id 1"), "{}", e.message);
        }
        other => panic!("expected a Config error on \"id\", got {other:?}"),
    }
}

#[test]
fn injected_panic_fails_one_session_and_spares_the_rest() {
    let model = Model::new(LlmConfig::tiny());
    let clean_cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: 8,
        session: session_cfg(),
        ..Default::default()
    };
    let clean = ServeEngine::run(&model, &clean_cfg, requests(5)).unwrap();
    let cfg = ServeConfig {
        faults: Some(FaultPlan::seeded(11).with_session_panic(2, 1)),
        ..clean_cfg
    };
    let report = ServeEngine::run(&model, &cfg, requests(5)).unwrap();
    assert_eq!(report.completions.len(), 5, "every request still completes");
    let failed = report.completion(2).unwrap();
    let cause = failed.failure.as_ref().expect("request 2 must fail");
    assert!(cause.injected);
    assert_eq!(cause.error.class(), "session_poisoned");
    assert_eq!(failed.generated.len(), 1, "one step decoded before the injected panic");
    // Survivors are bit-identical to the fault-free run.
    for id in [0u64, 1, 3, 4] {
        let a = clean.completion(id).unwrap();
        let b = report.completion(id).unwrap();
        assert!(b.is_success());
        assert_eq!(a.generated, b.generated, "survivor {id} diverged");
    }
    assert_eq!(report.shards[0].failed, 1);
    assert!(report.total_shed_tokens() > 0);
}

#[test]
fn admission_rejects_retry_then_succeed_or_shed() {
    let model = Model::new(LlmConfig::tiny());
    let base = ServeConfig {
        shards: 1,
        max_active_per_shard: 2,
        queue_capacity: 4,
        session: session_cfg(),
        ..Default::default()
    };
    // Two rejections, default policy allows two retries: admitted on
    // the third attempt.
    let cfg = ServeConfig {
        faults: Some(FaultPlan::seeded(3).with_admission_rejects(1, 2)),
        ..base.clone()
    };
    let report = ServeEngine::run(&model, &cfg, requests(3)).unwrap();
    let retried = report.completion(1).unwrap();
    assert!(retried.is_success(), "should admit after retries: {:?}", retried.failure);
    assert_eq!(retried.retries, 2);
    assert_eq!(report.shards[0].retries, 2);
    // Rejections exceeding the retry budget shed the request.
    let cfg = ServeConfig {
        faults: Some(FaultPlan::seeded(3).with_admission_rejects(1, 10)),
        ..base
    };
    let report = ServeEngine::run(&model, &cfg, requests(3)).unwrap();
    let shed = report.completion(1).unwrap();
    let cause = shed.failure.as_ref().expect("request 1 must be shed");
    assert!(cause.injected);
    match cause.error {
        ServeError::Admission { attempts } => assert_eq!(attempts, 3),
        ref other => panic!("unexpected cause {other:?}"),
    }
    assert_eq!(shed.retries, 2, "a shed reports the retries it consumed");
    assert!(report.completion(0).unwrap().is_success());
    assert!(report.completion(2).unwrap().is_success());
}

#[test]
fn chunked_prefill_serves_bit_identically_to_monolithic() {
    // The tentpole invariant: splitting prefill into tick-sized chunks
    // interleaved with decode must not change a single bit of any
    // session's output, trace, or transfer accounting.
    let model = Model::new(LlmConfig::tiny());
    let base = ServeConfig {
        shards: 2,
        max_active_per_shard: 2,
        queue_capacity: 8,
        session: session_cfg(),
        record_trace: true,
        ..Default::default()
    };
    let mono = ServeEngine::run(&model, &base, requests(6)).unwrap();
    for chunk in [1usize, 7, 64] {
        let cfg = ServeConfig { prefill_chunk_tokens: Some(chunk), ..base.clone() };
        let chunked = ServeEngine::run(&model, &cfg, requests(6)).unwrap();
        assert_eq!(chunked.completions.len(), 6);
        for (a, b) in mono.completions.iter().zip(chunked.completions.iter()) {
            assert!(b.is_success());
            assert_eq!(a.generated, b.generated, "chunk {chunk}: request {} tokens", a.id);
            assert_eq!(a.trace, b.trace, "chunk {chunk}: request {} trace", a.id);
            assert_eq!(a.transfer, b.transfer, "chunk {chunk}: request {} transfer", a.id);
            // Chunked prefill spends >= 1 tick before the first token;
            // monolithic admission spends 0.
            assert_eq!(a.ttft_ticks, Some(0));
            assert!(b.ttft_ticks.unwrap() >= 1);
        }
        let chunks: u64 = chunked.shards.iter().map(|s| s.prefill_chunks).sum();
        assert!(chunks > 0, "chunk {chunk}: prefill chunks must be metered");
        assert_eq!(mono.shards.iter().map(|s| s.prefill_chunks).sum::<u64>(), 0);
    }
}

#[test]
fn chunk_budget_edge_cases_serve_identically() {
    // Budget of exactly the prompt length (one chunk), larger than the
    // prompt, and landing chunk boundaries exactly on page boundaries:
    // all bit-identical to monolithic.
    let model = Model::new(LlmConfig::tiny());
    let base = ServeConfig {
        shards: 1,
        max_active_per_shard: 2,
        queue_capacity: 8,
        session: session_cfg(),
        record_trace: true,
        page_tokens: 8,
        ..Default::default()
    };
    let mono = ServeEngine::run(&model, &base, requests(4)).unwrap();
    // Prompts are 48..=64 tokens (requests()); 8 rides page boundaries.
    for chunk in [8usize, 48, 500] {
        let cfg = ServeConfig { prefill_chunk_tokens: Some(chunk), ..base.clone() };
        let chunked = ServeEngine::run(&model, &cfg, requests(4)).unwrap();
        for (a, b) in mono.completions.iter().zip(chunked.completions.iter()) {
            assert!(b.is_success());
            assert_eq!(a.generated, b.generated, "chunk {chunk}: request {}", a.id);
            assert_eq!(a.trace, b.trace, "chunk {chunk}: request {}", a.id);
        }
        if chunk >= 64 {
            // One chunk swallows the whole prompt, but only one prefill
            // advances per tick: with two slots a prompt waits at most
            // one tick behind its neighbour's chunk.
            for c in &chunked.completions {
                let t = c.ttft_ticks.unwrap();
                assert!((1..=2).contains(&t), "request {}: ttft {t} ticks", c.id);
            }
        }
    }
    // A zero chunk budget is a config error, not a hang.
    let bad = ServeConfig { prefill_chunk_tokens: Some(0), ..base };
    assert_eq!(bad.validate().unwrap_err().field, "prefill_chunk_tokens");
}

#[test]
fn high_priority_preempts_victim_and_resumes_it_bit_identically() {
    // One slot. The low-priority session decodes until the delayed
    // high-priority request matures, gets preempted through the paged
    // tier, and resumes after the high request retires — with output
    // bit-identical to an uncontended run.
    let model = Model::new(LlmConfig::tiny());
    let base = ServeConfig {
        shards: 1,
        max_active_per_shard: 1,
        queue_capacity: 4,
        session: session_cfg(),
        record_trace: true,
        ..Default::default()
    };
    let mk = |priorities: bool| {
        let mut reqs = requests(2);
        reqs[0].decode_steps = 24;
        reqs[1].decode_steps = 4;
        if priorities {
            reqs[0].priority = Priority::Low;
            reqs[1].priority = Priority::High;
        }
        reqs
    };
    let reference = ServeEngine::run(&model, &base, mk(false)).unwrap();
    // Delay the high request one injected rejection so the low session
    // is mid-decode when it matures — forcing the preemption path
    // regardless of producer/worker timing.
    let cfg = ServeConfig {
        faults: Some(FaultPlan::seeded(21).with_admission_rejects(1, 1)),
        ..base
    };
    let report = ServeEngine::run(&model, &cfg, mk(true)).unwrap();
    assert_eq!(report.total_preemptions(), 1, "exactly one preemption");
    let low = report.completion(0).unwrap();
    let high = report.completion(1).unwrap();
    assert!(low.is_success() && high.is_success());
    assert_eq!(low.preemptions, 1);
    assert_eq!(high.preemptions, 0);
    assert_eq!(low.priority, Priority::Low);
    assert_eq!(high.priority, Priority::High);
    // Preemption never changes results: both sessions match the
    // uncontended run bit for bit.
    for id in [0u64, 1] {
        let a = reference.completion(id).unwrap();
        let b = report.completion(id).unwrap();
        assert_eq!(a.generated, b.generated, "request {id} tokens diverged");
        assert_eq!(a.trace, b.trace, "request {id} trace diverged");
    }
    // The suspend/resume swap traffic is accounted: the victim moved
    // real bytes both ways, and the tier aggregate still equals the sum
    // of per-completion transfers.
    assert!(low.transfer.d2h_bytes > reference.completion(0).unwrap().transfer.d2h_bytes);
    assert!(low.transfer.h2d_bytes > reference.completion(0).unwrap().transfer.h2d_bytes);
    let sum: TransferStats = report.completions.iter().map(|c| c.transfer).sum();
    assert_eq!(report.aggregate_transfer, sum, "preemption must not leak transfer accounting");
}

#[test]
fn all_normal_priorities_never_preempt() {
    // Preemption requires a *strictly* higher class: a uniform fleet
    // under slot pressure keeps plain FIFO continuous batching.
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 1,
        queue_capacity: 8,
        session: session_cfg(),
        ..Default::default()
    };
    let report = ServeEngine::run(&model, &cfg, requests(5)).unwrap();
    assert_eq!(report.total_preemptions(), 0);
    assert!(report.completions.iter().all(|c| c.is_success() && c.preemptions == 0));
}

#[test]
fn closed_batch_is_queued_before_the_first_pop_replays_identically() {
    // One shard, one slot, a queue that holds the whole batch: 63 Low
    // requests, then one High request last. The batch is queued whole
    // before the worker starts, so its first pop already sees the High
    // request and seats it first. Nothing is ever preempted, and the High
    // request's completion cannot depend on how far a producer thread got.
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 1,
        queue_capacity: 64,
        assignment: ShardAssignment::RoundRobin,
        session: session_cfg(),
        ..Default::default()
    };
    const HIGH: u64 = 63;
    let low = prompt(24, 0xB47C);
    let run = || {
        let mut reqs: Vec<ServeRequest> = (0..HIGH)
            .map(|id| {
                let policy = Box::new(PqCachePolicy::default());
                ServeRequest::new(id, low.clone(), 1, policy).with_priority(Priority::Low)
            })
            .collect();
        let policy = Box::new(PqCachePolicy::default());
        let high = ServeRequest::new(HIGH, prompt(48, 0x4160), 4, policy);
        reqs.push(high.with_priority(Priority::High));
        let report = ServeEngine::run(&model, &cfg, reqs).unwrap();
        assert!(report.completions.iter().all(Completion::is_success));
        assert_eq!(report.total_preemptions(), 0, "the High request must be seated first");
        let high = report.completion(HIGH).unwrap().clone();
        // One worker stamps every first token in schedule order.
        let first = report.completions.iter().filter_map(|c| c.ttft_wall).min();
        assert_eq!(high.ttft_wall, first, "the High request reached its first token first");
        high
    };
    let fingerprint = |c: &Completion| {
        let stats = (c.transfer, c.cache, c.sharing);
        (c.generated.clone(), stats, c.ttft_ticks, c.retries, c.preemptions, c.shard)
    };
    let (a, b) = (run(), run());
    assert_eq!(fingerprint(&a), fingerprint(&b), "the High request's completion moved");
}

#[test]
fn prefix_adoption_still_wins_under_chunked_admission() {
    // The prefix-cache fast path outranks chunking: an identical
    // already-served prompt adopts instantly (0-tick TTFT) instead of
    // re-prefilling chunk by chunk.
    let model = Model::new(LlmConfig::tiny());
    let toks = prompt(64, 7);
    let reqs = || {
        (0..2)
            .map(|i| {
                ServeRequest::new(i, toks.clone(), 5, Box::new(PqCachePolicy::default()) as _)
            })
            .collect::<Vec<_>>()
    };
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 1,
        queue_capacity: 4,
        session: session_cfg(),
        prefill_chunk_tokens: Some(8),
        ..Default::default()
    };
    let report = ServeEngine::run(&model, &cfg, reqs()).unwrap();
    assert_eq!(report.prefix.full_hits, 1);
    let first = report.completion(0).unwrap();
    let second = report.completion(1).unwrap();
    assert_eq!(first.generated, second.generated);
    assert!(first.ttft_ticks.unwrap() >= 1, "cold prompt prefills chunk by chunk");
    assert_eq!(second.ttft_ticks, Some(0), "adopter skips prefill entirely");
}

#[test]
fn latency_summary_covers_every_completion() {
    let model = Model::new(LlmConfig::tiny());
    let base = ServeConfig {
        shards: 1,
        max_active_per_shard: 2,
        queue_capacity: 8,
        session: session_cfg(),
        ..Default::default()
    };
    // Every completion carries its own first-token stamps on both clocks
    // and a TPOT; monolithic prefill is a 0-tick event, chunked prefill
    // spends ticks.
    let mono = ServeEngine::run(&model, &base, requests(5)).unwrap();
    let cfg = ServeConfig { prefill_chunk_tokens: Some(7), ..base };
    let split = ServeEngine::run(&model, &cfg, requests(5)).unwrap();
    for (report, chunked) in [(&mono, false), (&split, true)] {
        assert_eq!(report.completions.len(), 5);
        for c in &report.completions {
            let ticks = c.ttft_ticks.expect("every request reached its first token");
            if chunked {
                assert!(ticks >= 1, "request {}: chunked prefill spends ticks", c.id);
            } else {
                assert_eq!(ticks, 0, "request {}: monolithic prefill is a 0-tick event", c.id);
            }
            assert!(c.ttft_wall.is_some(), "request {}: no wall TTFT", c.id);
            assert!(c.tpot_wall.is_some(), "request {}: no TPOT", c.id);
        }
    }
}

#[test]
fn shard_stall_degrades_without_changing_results() {
    let model = Model::new(LlmConfig::tiny());
    let base = ServeConfig {
        shards: 1,
        max_active_per_shard: 4,
        queue_capacity: 8,
        session: session_cfg(),
        ..Default::default()
    };
    let clean = ServeEngine::run(&model, &base, requests(4)).unwrap();
    let cfg =
        ServeConfig { faults: Some(FaultPlan::seeded(5).with_stall(0, 1, 3)), ..base };
    let stalled = ServeEngine::run(&model, &cfg, requests(4)).unwrap();
    assert!(stalled.total_stalled_steps() > 0, "stall must meter stalled steps");
    assert_eq!(clean.completions.len(), stalled.completions.len());
    for (a, b) in clean.completions.iter().zip(stalled.completions.iter()) {
        assert!(b.is_success());
        assert_eq!(a.generated, b.generated, "stall changed request {} output", a.id);
    }
    // Note: tick totals are NOT compared across the two runs — the
    // clean run's idle-tick count depends on producer/worker timing.
    // The stalled-steps meter above is the deterministic evidence.
}

#[test]
fn checkpointing_is_transparent_and_metered() {
    // Snapshotting every resident session every 2 ticks must not
    // change one bit of any output — checkpoint() forks state, never
    // touches the live session — while the snapshot traffic is
    // metered.
    let model = Model::new(LlmConfig::tiny());
    let base = ServeConfig {
        shards: 2,
        max_active_per_shard: 2,
        queue_capacity: 8,
        session: session_cfg(),
        record_trace: true,
        ..Default::default()
    };
    let off = ServeEngine::run(&model, &base, requests(6)).unwrap();
    let cfg = ServeConfig { checkpoint_every_ticks: Some(2), ..base };
    let on = ServeEngine::run(&model, &cfg, requests(6)).unwrap();
    assert_eq!(on.completions.len(), 6);
    for (a, b) in off.completions.iter().zip(on.completions.iter()) {
        assert!(b.is_success());
        assert!(!b.recovered, "no fault, nothing recovered");
        assert_eq!(a.generated, b.generated, "request {}: checkpointing changed tokens", a.id);
        assert_eq!(a.trace, b.trace, "request {}: checkpointing changed the trace", a.id);
    }
    assert!(on.total_checkpoints() > 0, "snapshots must be metered");
    assert!(on.total_checkpoint_bytes() > 0, "snapshot offload must move bytes");
    assert_eq!(off.total_checkpoints(), 0);
    assert_eq!(on.total_rollbacks(), 0);
    assert_eq!(on.total_recovered_sessions(), 0);
}

#[test]
fn zero_checkpoint_cadence_rejected() {
    let bad = ServeConfig { checkpoint_every_ticks: Some(0), ..Default::default() };
    assert_eq!(bad.validate().unwrap_err().field, "checkpoint_every_ticks");
}

#[test]
fn malformed_prompt_fails_alone_at_the_door() {
    // A request a shard worker would panic on — a prompt too short to
    // segment, empty, or carrying an id outside the vocabulary — is turned
    // away before any worker sees it. Only that request fails; its
    // neighbours on the one shard decode exactly what they decode without
    // it, monolithic and chunked alike.
    let model = Model::new(LlmConfig::tiny());
    let vocab = model.config().vocab_size as u32;
    let good = |id: u64| {
        ServeRequest::new(id, prompt(96, 40 + id), 5, Box::new(PqCachePolicy::default()))
    };
    let mut out_of_vocab = prompt(96, 7);
    out_of_vocab[50] = vocab;
    let malformed = [prompt(3, 7), Vec::new(), out_of_vocab];
    for chunk in [None, Some(32)] {
        let cfg = ServeConfig {
            shards: 1,
            max_active_per_shard: 2,
            queue_capacity: 4,
            session: session_cfg(),
            record_trace: true,
            prefill_chunk_tokens: chunk,
            ..Default::default()
        };
        let clean = ServeEngine::run(&model, &cfg, vec![good(0), good(2)]).unwrap();
        for bad in &malformed {
            let bad_req = ServeRequest::new(1, bad.clone(), 5, Box::new(PqCachePolicy::default()));
            let reqs = vec![good(0), bad_req, good(2)];
            let report = ServeEngine::run(&model, &cfg, reqs).unwrap();
            let shape = format!("chunk {chunk:?}, {}-token prompt", bad.len());
            assert_eq!(report.worker_panics, 0, "{shape}");
            assert_eq!(report.completions.len(), 3, "{shape}");
            let failed = report.completion(1).unwrap();
            let cause = failed.failure.as_ref().expect("the malformed request fails");
            match &cause.error {
                ServeError::Config(e) => assert_eq!(e.field, "tokens", "{shape}"),
                other => panic!("{shape}: expected Config, got {other:?}"),
            }
            assert_eq!((cause.step, cause.injected, failed.shard), (0, false, 0), "{shape}");
            assert!(failed.generated.is_empty() && failed.ttft_ticks.is_none(), "{shape}");
            for id in [0u64, 2] {
                let (a, b) = (clean.completion(id).unwrap(), report.completion(id).unwrap());
                assert!(b.is_success(), "{shape}: request {id} failed: {:?}", b.failure);
                assert_eq!(a.generated, b.generated, "{shape}: request {id} tokens");
                assert_eq!(a.trace, b.trace, "{shape}: request {id} trace");
                assert_eq!(a.transfer, b.transfer, "{shape}: request {id} transfer");
            }
            assert_eq!(report.shards[0].admitted, 2, "{shape}");
        }
    }
}

#[test]
fn high_priority_shorts_reach_first_token_before_a_long_normal_prompt() {
    // The SLO-tail guarantee without a wall-clock ratio. One shard, two
    // slots, 64-token chunks: a 1 024-token prompt (16 chunks) is submitted
    // first, six 64-token prompts behind it. Every first-token stamp is
    // taken by the one worker thread in tick order, so comparing stamps
    // compares positions in the schedule, whatever the host's speed.
    let model = Model::new(LlmConfig::tiny());
    let cfg = ServeConfig {
        shards: 1,
        max_active_per_shard: 2,
        queue_capacity: 8,
        session: session_cfg(),
        prefill_chunk_tokens: Some(64),
        ..Default::default()
    };
    let run = |shorts: Priority| {
        let mut reqs =
            vec![ServeRequest::new(0, prompt(1024, 0x510A), 3, Box::new(PqCachePolicy::default()))];
        for id in 1..=6u64 {
            let policy = Box::new(PqCachePolicy::default());
            let short = ServeRequest::new(id, prompt(64, 0x510A + id), 3, policy);
            reqs.push(short.with_priority(shorts));
        }
        let report = ServeEngine::run(&model, &cfg, reqs).unwrap();
        assert!(report.completions.iter().all(Completion::is_success));
        report
    };
    let ttft = |r: &ServeReport, id: u64| r.completion(id).unwrap().ttft_wall.unwrap();
    // Shorts at High: the strongest prefilling job advances first, so each
    // short's one chunk runs ahead of the long prompt's remaining ones.
    let slo = run(Priority::High);
    for id in 1..=6 {
        assert!(
            ttft(&slo, id) < ttft(&slo, 0),
            "High short {id} waited for the long prompt: {:?} vs {:?}",
            ttft(&slo, id),
            ttft(&slo, 0)
        );
    }
    // One class: ties go to the earlier admission, so the long prompt's 16
    // chunks all run before request 1's single one.
    let fair = run(Priority::Normal);
    assert!(ttft(&fair, 1) > ttft(&fair, 0), "fair share queues request 1 behind the long prompt");
    // Scheduling never changes results.
    for (a, b) in slo.completions.iter().zip(&fair.completions) {
        assert_eq!(a.generated, b.generated, "priorities changed request {} tokens", a.id);
    }
}
