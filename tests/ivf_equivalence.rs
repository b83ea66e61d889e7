//! IVF-routed retrieval equivalence battery.
//!
//! The contract behind `IvfMode`: routing the decode-step scan through an
//! inverted file is *transparent* at full probe width — `Probe(n_list)`
//! must reproduce `Exact` bit for bit (per-token scores, selected sets, and
//! decode-step logits), because the cells partition the tokens and each
//! cell's SoA code columns preserve the flat scan's per-token accumulation
//! order. Narrower probes trade recall for sublinear scan cost; a fixed
//! floor pins that trade-off down on a clustered fixture.

use pqcache::core::{CacheConfig, IvfMode, SelectiveSession, SessionConfig};
use pqcache::llm::{LlmConfig, Model};
use pqcache::policies::{PqCachePolicy, PqCachePolicyConfig};
use pqcache::pq::{
    AdcTable, IvfConfig, IvfIndex, PqCodebook, PqCodes, PqConfig, PqRetriever,
};
use pqcache::tensor::{topk_recall, Matrix, Rng64};

fn fixture(s: usize, dh: usize, m: usize, b: u32, seed: u64) -> (Matrix, PqCodebook, PqCodes) {
    let mut rng = Rng64::new(seed);
    let keys = Matrix::randn(s, dh, 1.0, &mut rng);
    let (book, codes) = PqCodebook::train(&keys, PqConfig { m, b, max_iters: 10, seed });
    (keys, book, codes)
}

/// Clustered keys (`Matrix::clustered`, the same generator the benchmark's
/// `deep_*` workloads use): the regime where IVF recall is meaningful — on
/// isotropic noise coarse cells carry no signal.
fn clustered_keys(s: usize, dh: usize, centers: usize, spread: f32, seed: u64) -> Matrix {
    Matrix::clustered(s, dh, centers, spread, &mut Rng64::new(seed))
}

#[test]
fn probe_all_scores_bit_identical_to_flat_scan() {
    // Scatter the per-cell scans back into token order: every score must
    // equal the flat fused scan's bit for bit, on both paper operating
    // points — the invariant that makes full-probe selection exact.
    for &(m, b, seed) in &[(2usize, 6u32, 501u64), (4, 8, 502)] {
        let (keys, book, codes) = fixture(700, 32, m, b, seed);
        let ivf = IvfIndex::build(
            &keys,
            &codes,
            IvfConfig { n_list: 12, n_probe: 12, max_iters: 8, seed },
        );
        let mut rng = Rng64::new(seed ^ 0xF00D);
        let q: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let table = AdcTable::build(&book, &q);
        let flat = table.score_all(&codes);
        let mut scattered = vec![0.0f32; codes.len()];
        for c in 0..ivf.n_list() {
            let (ids, cell_codes) = ivf.cell(c);
            let cell_scores = table.score_all(cell_codes);
            for (&id, &s) in ids.iter().zip(cell_scores.iter()) {
                scattered[id as usize] = s;
            }
        }
        for (i, (a, bscore)) in flat.iter().zip(scattered.iter()).enumerate() {
            assert_eq!(a.to_bits(), bscore.to_bits(), "token {i} diverged (m={m}, b={b})");
        }
    }
}

#[test]
fn probe_all_selection_bit_identical_on_paper_fixtures() {
    // Probe(n_list) through the fused routed scan == the flat fused scan,
    // for every (n, k) shape including partial prefixes and k >= n — with
    // appends interleaved mid-stream.
    for &(m, b, seed) in &[(2usize, 6u32, 601u64), (4, 8, 602)] {
        let (keys, book, mut codes) = fixture(pqcache::pq::CODE_BLOCK + 331, 32, m, b, seed);
        let n_list = 10;
        let mut ivf = IvfIndex::build(
            &keys,
            &codes,
            IvfConfig { n_list, n_probe: n_list, max_iters: 8, seed },
        );
        let mut retriever = PqRetriever::new();
        let mut rng = Rng64::new(seed ^ 0xCAFE);
        for trial in 0..6 {
            // Interleave appends (eviction-path growth).
            if trial % 2 == 1 {
                let key: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
                let tc = book.assign(&key);
                let id = codes.len();
                codes.push(&tc);
                ivf.append_token(id, &key, &tc);
            }
            let q: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
            for &(n, k) in &[
                (codes.len(), 24usize),
                (codes.len(), 0),
                (codes.len(), codes.len()),
                (pqcache::pq::CODE_BLOCK + 7, 16),
                (5, 9),
                (0, 3),
            ] {
                let mut flat = Vec::new();
                retriever.score_and_select_into(&book, &codes, &q, n, k, &mut flat);
                let mut routed = Vec::new();
                let stats = retriever.score_and_select_ivf_into(
                    &book, &ivf, &q, n, k, n_list, &mut routed,
                );
                assert_eq!(flat, routed, "m={m} b={b} trial={trial} n={n} k={k}");
                assert!(stats.scanned_tokens <= n.min(codes.len()), "over-scan");
            }
        }
    }
}

#[test]
fn full_decode_probe_equals_exact_logits_selections() {
    // The whole-stack assertion: a session decoding under
    // SessionConfig::ivf = Probe(n_list) produces the same logits and the
    // same selected-token sets as the exact session, step for step, on
    // both paper PQ operating points.
    let model = Model::new(LlmConfig::tiny());
    let mut rng = Rng64::new(11);
    let toks: Vec<u32> = (0..88).map(|_| rng.below(200) as u32).collect();
    for &(m, b) in &[(2usize, 6u32), (4, 8)] {
        let n_list = 8;
        let run = |ivf_mode| {
            let cfg = SessionConfig {
                n_init: 2,
                n_local: 8,
                token_ratio: 0.3,
                comm_fraction: 1.0 / 16.0,
                obs_window: 8,
                cache: CacheConfig { capacity_tokens: 64, block_size: 8, lfu: true, k_cache_blocks: 4 },
                ivf: ivf_mode,
            };
            let policy = PqCachePolicy::new(PqCachePolicyConfig {
                m,
                b,
                kmeans_iters: 10,
                seed: 77,
                ivf_n_list: n_list,
                ..Default::default()
            });
            let start = SelectiveSession::start(&model, Box::new(policy), cfg, &toks);
            let mut session = start.session;
            let mut next = pqcache::tensor::argmax(&start.logits) as u32;
            let mut logits = Vec::new();
            let mut selections = Vec::new();
            for _ in 0..10 {
                let dec = session.decode(next);
                next = dec.greedy();
                logits.push(dec.logits);
                selections.push(session.selected_snapshot());
            }
            (logits, selections)
        };
        let exact = run(IvfMode::Exact);
        let probe = run(IvfMode::Probe(n_list));
        for step in 0..exact.0.len() {
            for (i, (a, bl)) in exact.0[step].iter().zip(probe.0[step].iter()).enumerate() {
                assert_eq!(a.to_bits(), bl.to_bits(), "m={m} b={b} step {step} logit {i}");
            }
            assert_eq!(exact.1[step], probe.1[step], "m={m} b={b} step {step} selections");
        }
    }
}

#[test]
fn recall_at_k_regression_floor() {
    // The probe trade-off pinned down: on a clustered fixture (64 centers,
    // mild spread) with token-aligned queries, probing 8 of 64 cells must
    // keep recall@64 >= 0.95 against the flat fused selection — the recall
    // floor the retired `ivf_select` kernel bench row gated at s = 262144.
    let (s, dh, k) = (8192, 32, 64);
    let keys = clustered_keys(s, dh, 64, 0.35, 801);
    let (book, codes) = PqCodebook::train(&keys, PqConfig { m: 2, b: 6, max_iters: 8, seed: 801 });
    let ivf = IvfIndex::build(
        &keys,
        &codes,
        IvfConfig { n_list: 64, n_probe: 8, max_iters: 8, seed: 802 },
    );
    let mut retriever = PqRetriever::new();
    let mut rng = Rng64::new(803);
    let mut recall_sum = 0.0;
    let mut scanned_sum = 0usize;
    let trials = 24;
    for _ in 0..trials {
        // Decode-style query: aligned with a random token's key plus noise.
        let t = rng.below(s);
        let q: Vec<f32> = keys
            .row(t)
            .iter()
            .map(|v| v + 0.25 * rng.normal_f32(0.0, 1.0))
            .collect();
        let mut exact = Vec::new();
        retriever.score_and_select_into(&book, &codes, &q, s, k, &mut exact);
        let mut routed = Vec::new();
        let stats = retriever.score_and_select_ivf_into(&book, &ivf, &q, s, k, 8, &mut routed);
        recall_sum += topk_recall(&exact, &routed);
        scanned_sum += stats.scanned_tokens;
    }
    let recall = recall_sum / trials as f64;
    let scan_frac = scanned_sum as f64 / (trials * s) as f64;
    assert!(recall >= 0.95, "recall@{k} regressed: {recall:.3}");
    assert!(scan_frac < 0.35, "probe scanned too much: {scan_frac:.3}");
}

#[test]
fn ivf_retriever_steady_state_allocates_nothing() {
    // Zero-alloc audit for the routed path: 100 decode-step retrievals
    // through `score_and_select_ivf_into` (table rebuild + coarse routing +
    // blocked cell scans + streaming selection) hold every scratch capacity
    // steady after warm-up.
    let (keys, book, codes) = fixture(pqcache::pq::CODE_BLOCK + 400, 32, 2, 6, 901);
    let ivf = IvfIndex::build(
        &keys,
        &codes,
        IvfConfig { n_list: 16, n_probe: 4, max_iters: 6, seed: 901 },
    );
    let mut retriever = PqRetriever::new();
    let mut out = Vec::new();
    let mut rng = Rng64::new(902);
    let q: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
    let _ = retriever.score_and_select_ivf_into(&book, &ivf, &q, codes.len(), 64, 4, &mut out);
    let caps = retriever.scratch_capacities();
    let out_cap = out.capacity();
    for step in 0..100 {
        let q: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let stats =
            retriever.score_and_select_ivf_into(&book, &ivf, &q, codes.len(), 64, 4, &mut out);
        assert_eq!(out.len(), 64, "step {step}");
        assert_eq!(stats.probed_cells, 4, "step {step}");
        assert!(stats.scanned_tokens < codes.len(), "step {step}: probe must be partial");
        assert_eq!(retriever.scratch_capacities(), caps, "scratch grew at step {step}");
        assert_eq!(out.capacity(), out_cap, "output buffer grew at step {step}");
    }
}
