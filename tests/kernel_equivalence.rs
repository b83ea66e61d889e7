//! Regression guards for the hot-path kernel overhaul: the SoA layout and
//! fused scans must be observationally identical to the scalar kernels on
//! fixed-seed fixtures, and the decode-step retrieval path must hold its
//! scratch buffers steady (zero heap allocations after warm-up).

use pqcache::policies::{
    PolicyContext, PolicyScratch, PqCachePolicy, PqCachePolicyConfig, SelectionPolicy,
};
use pqcache::pq::{AdcTable, PqCodebook, PqConfig, PqRetriever};
use pqcache::tensor::{top_k_indices, Matrix, Rng64};

fn fixture(s: usize, dh: usize, m: usize, b: u32, seed: u64) -> (PqCodebook, pqcache::pq::PqCodes, Vec<f32>) {
    let mut rng = Rng64::new(seed);
    let keys = Matrix::randn(s, dh, 1.0, &mut rng);
    let (book, codes) = PqCodebook::train(&keys, PqConfig { m, b, max_iters: 10, seed });
    let q: Vec<f32> = (0..dh).map(|_| rng.normal_f32(0.0, 1.0)).collect();
    (book, codes, q)
}

#[test]
fn pq_top_k_bit_identical_to_scalar_path() {
    // Satellite guard: on the paper's operating points (m=2/b=6 LongBench,
    // m=4/b=8 InfiniteBench) the SoA fused scan must give *exactly* the
    // ranking the token-major scalar path gives — same scores to the bit,
    // same top-k indices in the same order.
    for &(m, b, seed) in &[(2usize, 6u32, 101u64), (4, 8, 202)] {
        let (book, codes, q) = fixture(600, 32, m, b, seed);
        let table = AdcTable::build(&book, &q);
        // Scalar reference: per-token gather + summation.
        let scalar_scores: Vec<f32> =
            (0..codes.len()).map(|i| table.score_token(&codes.token(i))).collect();
        let fused_scores = table.score_all(&codes);
        assert_eq!(scalar_scores.len(), fused_scores.len());
        for (i, (a, bscore)) in scalar_scores.iter().zip(fused_scores.iter()).enumerate() {
            assert_eq!(a.to_bits(), bscore.to_bits(), "score {i} diverged (m={m}, b={b})");
        }
        let mut retriever = PqRetriever::new();
        let mut fused = Vec::new();
        for k in [1usize, 7, 50, 600] {
            retriever.score_and_select_into(&book, &codes, &q, codes.len(), k, &mut fused);
            assert_eq!(fused, top_k_indices(&scalar_scores, k), "top-{k} diverged (m={m}, b={b})");
        }
    }
}

#[test]
fn fused_score_and_select_bit_identical_on_paper_fixtures() {
    // PR 4 acceptance guard: the fused score-and-select pipeline (blocked
    // scan streaming into the selector) must select the exact same index
    // sets, in the same order, as the unfused scan+select on the m=2/b=6
    // and m=4/b=8 fixtures — sized past CODE_BLOCK so the stream spans
    // several blocks.
    for &(m, b, seed) in &[(2usize, 6u32, 303u64), (4, 8, 404)] {
        let (book, codes, q) = fixture(pqcache::pq::CODE_BLOCK * 2 + 300, 32, m, b, seed);
        let mut retriever = PqRetriever::new();
        let scores = AdcTable::build(&book, &q).score_all(&codes);
        for n in [codes.len(), pqcache::pq::CODE_BLOCK + 17, 5] {
            for k in [1usize, 16, 128, n] {
                let unfused = top_k_indices(&scores[..n], k);
                let mut fused = Vec::new();
                retriever.score_and_select_into(&book, &codes, &q, n, k, &mut fused);
                assert_eq!(unfused, fused, "m={m}, b={b}, n={n}, k={k}");
            }
        }
    }
}

#[test]
fn online_attention_logits_match_two_pass_reference() {
    // The decode attention kernel is now a blocked single-pass online
    // softmax; its outputs must match the naive two-pass softmax reference
    // to float tolerance, and repeated calls through one scratch must be
    // bit-identical (the serve layer's scratch-sharing guarantee).
    use pqcache::llm::attend_selected_into;
    use pqcache::tensor::softmax_inplace;
    let mut rng = Rng64::new(71);
    for &(n, dh) in &[(1usize, 16usize), (7, 32), (200, 64)] {
        let keys = Matrix::randn(n, dh, 1.0, &mut rng);
        let values = Matrix::randn(n, dh, 1.0, &mut rng);
        let q: Vec<f32> = (0..dh).map(|_| rng.normal_f32(0.0, 1.0)).collect();

        // Two-pass reference.
        let scale = 1.0 / (dh as f32).sqrt();
        let mut probs: Vec<f32> =
            (0..n).map(|j| pqcache::tensor::dot(&q, keys.row(j)) * scale).collect();
        softmax_inplace(&mut probs);
        let mut reference = vec![0.0f32; dh];
        for (j, &p) in probs.iter().enumerate() {
            pqcache::tensor::axpy(&mut reference, values.row(j), p);
        }

        let (mut scores, mut out_a, mut out_b) = (Vec::new(), Vec::new(), Vec::new());
        attend_selected_into(&q, &keys, &values, &mut scores, &mut out_a);
        for (c, (a, r)) in out_a.iter().zip(reference.iter()).enumerate() {
            assert!((a - r).abs() < 1e-5, "n={n}, dh={dh}, col {c}: {a} vs {r}");
        }
        // Re-run through the same (now warm) scratch: bit-identical.
        attend_selected_into(&q, &keys, &values, &mut scores, &mut out_b);
        for (c, (a, b)) in out_a.iter().zip(out_b.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "n={n}, dh={dh}, col {c} unstable");
        }
    }
}

#[test]
fn fused_retriever_steady_state_allocates_nothing() {
    // Zero-alloc audit for the fused path: 100 decode-step retrievals
    // through `score_and_select_into` (table rebuild + blocked scan
    // + streaming selection) must hold every scratch capacity steady after
    // warm-up, and keep agreeing with the unfused pipeline.
    let (book, codes, _) = fixture(pqcache::pq::CODE_BLOCK + 200, 32, 2, 6, 41);
    let mut fused_retriever = PqRetriever::new();
    let mut out = Vec::new();
    let mut rng = Rng64::new(78);
    // Warm-up step.
    let q: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
    fused_retriever.score_and_select_into(&book, &codes, &q, codes.len(), 64, &mut out);
    let caps = fused_retriever.scratch_capacities();
    let out_cap = out.capacity();
    for step in 0..100 {
        let q: Vec<f32> = (0..32).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        fused_retriever.score_and_select_into(&book, &codes, &q, codes.len(), 64, &mut out);
        assert_eq!(out.len(), 64, "step {step}");
        assert_eq!(
            fused_retriever.scratch_capacities(),
            caps,
            "fused scratch grew at step {step}"
        );
        assert_eq!(out.capacity(), out_cap, "output buffer grew at step {step}");
        let check = top_k_indices(&AdcTable::build(&book, &q).score_all(&codes), 64);
        assert_eq!(out, check, "fused selection diverged at step {step}");
    }
}

#[test]
fn pqcache_policy_select_steady_state_capacities() {
    // Policy-level variant of the zero-allocation guard:
    // `select_with_scratch` through `PqCachePolicy` (group query, retriever
    // scratch, output buffer) must hold capacities steady across 100
    // decode steps, with evictions interleaved (eviction encoding reuses
    // its buffer too).
    let mut rng = Rng64::new(5);
    let keys = Matrix::randn(256, 16, 1.0, &mut rng);
    let init = pqcache::policies::PolicyInit {
        n_layers: 1,
        n_kv_heads: 1,
        head_dim: 16,
        middle_keys: vec![vec![keys]],
        accum_scores: None,
        window_scores: None,
    };
    let mut policy =
        PqCachePolicy::new(PqCachePolicyConfig { m: 2, b: 5, kmeans_iters: 8, seed: 3, ..Default::default() });
    policy.init(&init);
    let mut scratch = PolicyScratch::new();
    let mut out = Vec::new();
    // Warm-up with the largest middle_len the loop will see so the scan
    // buffer reaches steady state up front.
    let warm_q = Matrix::randn(1, 16, 1.0, &mut rng);
    for _ in 0..3 {
        let key: Vec<f32> = (0..16).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        policy.on_evict(0, 0, &key, 256);
    }
    let ctx = PolicyContext { layer: 0, kv_head: 0, queries: &warm_q, budget: 32, middle_len: 259 };
    policy.select_with_scratch(&ctx, &mut scratch, &mut out);
    let caps = (scratch.capacities(), policy.scratch_capacities());
    let out_cap = out.capacity();
    for step in 0..100 {
        let q = Matrix::randn(2, 16, 1.0, &mut rng);
        let ctx =
            PolicyContext { layer: 0, kv_head: 0, queries: &q, budget: 32, middle_len: 259 };
        policy.select_with_scratch(&ctx, &mut scratch, &mut out);
        assert_eq!(out.len(), 32, "step {step}");
        assert!(out.iter().all(|&i| i < 259));
        let now = (scratch.capacities(), policy.scratch_capacities());
        assert_eq!(now, caps, "scratch grew at step {step}");
        assert_eq!(out.capacity(), out_cap, "selection buffer grew at step {step}");
    }
}
