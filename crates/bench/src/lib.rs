//! # pqc-bench
//!
//! The paper reproduction. [`repro`] holds one entry per paper figure/table
//! (Figs. 1–12, Tables 2–6, Appendix A): it prints the artifact's rows and
//! returns its shape claims as named checks with recorded verdicts. The
//! `repro` bench target runs them (`cargo bench --bench repro [-- <id>…]`),
//! and `tests/paper_shapes.rs` runs the cheap ones in tier-1. Kernel
//! performance is measured end to end, per layer, by the repo benchmark
//! (`benchmark/`), at the shapes the system serves. This module holds the
//! simulated benchmark-suite definitions (the LongBench / InfiniteBench
//! stand-ins) and the quality-evaluation settings they share.
//!
//! Scale note: quality artifacts run the `small()` simulation model with
//! contexts of 512-2048 tokens (the "128K" of this substrate — see
//! EXPERIMENTS.md for the mapping); latency artifacts run the analytical cost
//! model at the paper's true scale (Llama-3-8B, RTX 4090, PCIe 1.0 x16).

#![warn(missing_docs)]

pub mod repro;

use pqc_core::{CacheConfig, SessionConfig};
use pqc_workloads::{
    aggregation, cot_chain, kv_retrieval, needle, passkey, qa, EvalConfig, QuestionPosition,
    VocabLayout, Workload,
};

/// Context length used by the LongBench-sim suite.
pub const LONGBENCH_LEN: usize = 1024;
/// Context length used by the InfiniteBench-sim suite (longer contexts, as
/// InfiniteBench averages ~100K vs LongBench's ~10K).
pub const INFINITEBENCH_LEN: usize = 2048;

/// The session configuration used by quality benches, parameterised by the
/// selective-attention token ratio (paper: 1/5 and 1/10).
pub fn quality_session(token_ratio: f64, comm_fraction: f64) -> SessionConfig {
    SessionConfig {
        n_init: 4,
        n_local: 32,
        token_ratio,
        comm_fraction,
        obs_window: 32,
        cache: CacheConfig::sim_default(),
        ivf: pqc_core::IvfMode::Exact,
    }
}

/// Evaluation settings for the quality benches.
pub fn quality_eval(token_ratio: f64, comm_fraction: f64) -> EvalConfig {
    EvalConfig {
        steps: 24,
        session: quality_session(token_ratio, comm_fraction),
        driver_seed: 0xBEC5,
    }
}

/// The LongBench-sim task list: task families mirroring LongBench's mix of
/// single/multi-doc QA, multi-hop reasoning, summarisation, and retrieval.
pub fn longbench_sim(vocab: usize) -> Vec<Workload> {
    let l = VocabLayout::for_vocab(vocab);
    let s = LONGBENCH_LEN;
    let mut tasks = vec![
        named(qa(s, 4, QuestionPosition::End, &l, 101), "SingleDocQA"),
        named(qa(s, 8, QuestionPosition::End, &l, 102), "MultiFieldQA"),
        named(cot_chain(s, 2, &l, 103), "HotpotQA-2hop"),
        named(cot_chain(s, 3, &l, 104), "Musique-3hop"),
        named(aggregation(s, 16, &l, 105), "GovReport"),
        named(aggregation(s, 8, &l, 106), "QMSum"),
        named(kv_retrieval(s, 12, &l, 107), "FewShot-KV"),
        named(needle(s, 0.35, &l, 108), "Retrieval-P"),
        named(needle(s, 0.75, &l, 109), "Count-Deep"),
        named(passkey(s, &l, 110), "PassageRetr"),
    ];
    // A second QA distribution, like LongBench's bilingual split.
    tasks.push(named(qa(s, 6, QuestionPosition::End, &l, 111), "NarrativeQA"));
    tasks
}

/// The InfiniteBench-sim task list (longer contexts, retrieval-heavy mix).
pub fn infinitebench_sim(vocab: usize) -> Vec<Workload> {
    let l = VocabLayout::for_vocab(vocab);
    let s = INFINITEBENCH_LEN;
    vec![
        named(aggregation(s, 24, &l, 201), "En.Sum"),
        named(qa(s, 8, QuestionPosition::End, &l, 202), "En.QA"),
        named(qa(s, 4, QuestionPosition::End, &l, 203), "En.MC"),
        named(cot_chain(s, 3, &l, 204), "En.Dia"),
        named(qa(s, 6, QuestionPosition::End, &l, 205), "Zh.QA"),
        named(cot_chain(s, 4, &l, 206), "Math.Find"),
        named(passkey(s, &l, 207), "Retr.PassKey"),
        named(needle(s, 0.6, &l, 208), "Retr.Number"),
        named(kv_retrieval(s, 24, &l, 209), "Retr.KV"),
    ]
}

/// QA tasks with the question placed *before* the context (Table 3).
pub fn question_first_sim(vocab: usize) -> Vec<Workload> {
    let l = VocabLayout::for_vocab(vocab);
    let s = LONGBENCH_LEN;
    vec![
        named(qa(s, 4, QuestionPosition::Start, &l, 301), "SingleDocQA"),
        named(qa(s, 8, QuestionPosition::Start, &l, 302), "MultiFieldQA"),
        named(qa(s, 6, QuestionPosition::Start, &l, 303), "NarrativeQA"),
        named(qa(s, 12, QuestionPosition::Start, &l, 304), "HotpotQA"),
    ]
}

fn named(mut w: Workload, name: &'static str) -> Workload {
    w.name = name;
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(longbench_sim(1024).len(), 11);
        assert_eq!(infinitebench_sim(1024).len(), 9);
        assert_eq!(question_first_sim(1024).len(), 4);
    }

    #[test]
    fn suite_names_unique() {
        let names: Vec<&str> = longbench_sim(1024).iter().map(|w| w.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn workload_lengths_match_constants() {
        for w in longbench_sim(1024) {
            assert_eq!(w.tokens.len(), LONGBENCH_LEN, "{}", w.name);
        }
        for w in infinitebench_sim(1024) {
            assert_eq!(w.tokens.len(), INFINITEBENCH_LEN, "{}", w.name);
        }
    }
}
