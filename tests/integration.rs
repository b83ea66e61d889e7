//! Cross-crate integration tests: the full PQCache pipeline from prompt to
//! generated tokens, exercised through the public umbrella API.

use pqcache::core::{CacheConfig, SelectiveSession, SessionConfig};
use pqcache::llm::{FullKvSource, LlmConfig, Model, PrefillOptions};
use pqcache::tensor::{argmax, Rng64};
use pqcache::workloads::{
    evaluate_method, needle, qa, reference, EvalConfig, MethodSpec, QuestionPosition, VocabLayout,
};

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

#[test]
fn full_budget_selective_session_is_exact() {
    // End-to-end invariant: a selective session with an everything-budget
    // reproduces exact full attention bit-for-bit — its capturing prefill's
    // logits equal a plain prefill's, and every decode step's logits equal
    // `decode_step` over a `FullKvSource`, so the greedy tokens equal the
    // reference generation's.
    {
        let cfg = LlmConfig::tiny();
        let model = Model::new(cfg);
        let toks = prompt(64, 1);
        let reference_tokens = model.generate_full(&toks, 12);
        let prefill = model.prefill(&toks, &PrefillOptions::default());
        let mut full = FullKvSource::from_prefill(&prefill);
        let mut scfg = session_cfg();
        scfg.token_ratio = 1.0;
        let policy = MethodSpec::Full.build(model.config().head_dim, scfg.comm_fraction);
        let start = SelectiveSession::start(&model, policy, scfg, &toks);
        assert_eq!(start.logits, prefill.logits, "prefill logits");
        let mut session = start.session;
        let mut tokens = Vec::new();
        let mut next = argmax(&start.logits) as u32;
        for (step, pos) in (toks.len()..toks.len() + 12).enumerate() {
            tokens.push(next);
            let want = model.decode_step(next, pos, &mut full);
            let got = session.decode(next);
            assert_eq!(got.logits, want.logits, "step {step} logits");
            next = got.greedy();
        }
        assert_eq!(tokens, reference_tokens);
    }
}

#[test]
fn every_method_runs_end_to_end() {
    let model = Model::new(LlmConfig::tiny());
    let toks = prompt(72, 2);
    for spec in MethodSpec::paper_lineup() {
        let policy = spec.build(model.config().head_dim, 1.0 / 16.0);
        let start = SelectiveSession::start(&model, policy, session_cfg(), &toks);
        let mut session = start.session;
        let out = session.generate(&start.logits, 6);
        assert_eq!(out.len(), 6, "{}", spec.name());
        assert!(out.iter().all(|&t| (t as usize) < model.config().vocab_size));
    }
}

#[test]
fn method_fidelity_ordering_on_needle() {
    // The paper's headline ordering on a retrieval workload:
    // Oracle >= PQCache > StreamingLLM, with PQCache close to Oracle.
    let model = Model::new(LlmConfig::tiny());
    let layout = VocabLayout::for_vocab(model.config().vocab_size);
    let w = needle(160, 0.5, &layout, 3);
    let cfg = EvalConfig { steps: 12, session: session_cfg(), driver_seed: 5 };
    let rf = reference(&model, &w, &cfg);
    let oracle = evaluate_method(&model, &w, &rf, MethodSpec::Oracle, &cfg);
    let pqc = evaluate_method(&model, &w, &rf, MethodSpec::pqcache_default(), &cfg);
    let streaming = evaluate_method(&model, &w, &rf, MethodSpec::StreamingLlm, &cfg);
    assert!(
        oracle.hidden_cosine >= pqc.hidden_cosine - 0.02,
        "oracle {} pqc {}",
        oracle.hidden_cosine,
        pqc.hidden_cosine
    );
    assert!(
        pqc.hidden_cosine > streaming.hidden_cosine,
        "pqc {} streaming {}",
        pqc.hidden_cosine,
        streaming.hidden_cosine
    );
}

#[test]
fn pqcache_transfers_less_than_oracle_scan_would() {
    // PQCache's decode traffic is bounded by the selected tokens, far below
    // moving all keys every step.
    let model = Model::new(LlmConfig::tiny());
    let toks = prompt(96, 4);
    let policy = MethodSpec::pqcache_default().build(model.config().head_dim, 1.0 / 16.0);
    let start = SelectiveSession::start(&model, policy, session_cfg(), &toks);
    let mut session = start.session;
    let steps = 8;
    let _ = session.generate(&start.logits, steps);
    let ts = session.transfer_stats();
    let mcfg = model.config();
    // Full-key scan traffic per step: all middle keys, all layers/heads.
    let full_scan = (steps * 86 * mcfg.head_dim * 2 * mcfg.n_layers * mcfg.n_kv_heads) as u64;
    assert!(
        ts.h2d_bytes < full_scan,
        "fetch {} should be far below full scan {}",
        ts.h2d_bytes,
        full_scan
    );
}

#[test]
fn cache_reduces_fetch_traffic() {
    let model = Model::new(LlmConfig::tiny());
    let toks = prompt(96, 5);
    let run = |cache: CacheConfig| {
        let mut scfg = session_cfg();
        scfg.cache = cache;
        let policy = MethodSpec::pqcache_default().build(model.config().head_dim, 1.0 / 16.0);
        let start = SelectiveSession::start(&model, policy, scfg, &toks);
        let mut session = start.session;
        let _ = session.generate(&start.logits, 10);
        session.transfer_stats().h2d_bytes
    };
    let without = run(CacheConfig::disabled());
    let with = run(CacheConfig { capacity_tokens: 64, block_size: 8, lfu: true, k_cache_blocks: 8 });
    assert!(with < without, "cache should cut fetches: {with} vs {without}");
}

#[test]
fn question_position_robustness() {
    // PQCache's recall must not depend on question placement.
    let model = Model::new(LlmConfig::tiny());
    let layout = VocabLayout::for_vocab(model.config().vocab_size);
    let cfg = EvalConfig { steps: 12, session: session_cfg(), driver_seed: 6 };
    let mut last = Vec::new();
    for pos in [QuestionPosition::End, QuestionPosition::Start] {
        let w = qa(192, 3, pos, &layout, 7);
        let rf = reference(&model, &w, &cfg);
        let r = evaluate_method(&model, &w, &rf, MethodSpec::pqcache_default(), &cfg);
        last.push(r.planted_recall);
    }
    assert!(
        (last[0] - last[1]).abs() < 0.5,
        "recall should be position-robust: {last:?}"
    );
}

#[test]
fn decode_then_reference_match_for_teacher_forcing() {
    // The harness reference and a manual FullKvSource walk agree.
    let model = Model::new(LlmConfig::tiny());
    let layout = VocabLayout::for_vocab(model.config().vocab_size);
    let w = needle(96, 0.4, &layout, 8);
    let cfg = EvalConfig { steps: 6, session: session_cfg(), driver_seed: 9 };
    let rf = reference(&model, &w, &cfg);
    let mut src = FullKvSource::from_prefill(&rf.prefill);
    for (i, &t) in rf.driver.iter().enumerate() {
        let dec = model.decode_step(t, w.tokens.len() + i, &mut src);
        assert_eq!(
            pqcache::tensor::top_k_indices(&dec.logits, 5),
            rf.top_tokens[i],
            "step {i}"
        );
    }
}

#[test]
fn session_steps_and_middle_growth_consistent() {
    let model = Model::new(LlmConfig::tiny());
    let toks = prompt(80, 10);
    let policy = MethodSpec::pqcache_default().build(model.config().head_dim, 1.0 / 16.0);
    let start = SelectiveSession::start(&model, policy, session_cfg(), &toks);
    let mut session = start.session;
    let m0 = session.middle_len();
    let _ = session.generate(&start.logits, 15);
    assert_eq!(session.steps(), 15);
    assert_eq!(session.middle_len(), m0 + 15);
}
