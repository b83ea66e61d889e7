//! Property-based tests over the core data structures and invariants listed
//! in DESIGN.md §6.

#![allow(clippy::needless_range_loop)] // index loops mirror the math

use proptest::prelude::*;
use pqcache::cache::{top_blocks, BlockCache, EvictionPolicy};
use pqcache::llm::{attend_selected_into, causal_attention, PrefillPattern};
use pqcache::pq::{
    kmeans, AdcTable, IvfConfig, IvfIndex, KMeansConfig, PqCodebook, PqConfig, PqRetriever,
};
use pqcache::tensor::{
    argsort_desc, dot, softmax_inplace, squared_l2, top_k_indices, AssignScratch, Matrix, Rng64,
};

fn matrix_strategy(max_rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows).prop_flat_map(move |rows| {
        proptest::collection::vec(-3.0f32..3.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn softmax_is_distribution(xs in proptest::collection::vec(-30.0f32..30.0, 1..64)) {
        let mut v = xs.clone();
        softmax_inplace(&mut v);
        let sum: f32 = v.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(v.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }

    #[test]
    fn attend_selected_equals_naive_two_pass(
        n in 1usize..200,
        dh in 1usize..9,
        seed in 0u64..(1 << 62),
    ) {
        // The decode kernel's blocked online softmax (64-key blocks, so
        // up to four blocks here) against scaled dots, then a two-pass
        // softmax, then the weighted value sum. Query entries with σ = 8
        // give scaled scores q·k/√d_h with σ = 8, spanning roughly ±20.
        let mut rng = Rng64::new(seed);
        let keys = Matrix::randn(n, dh, 1.0, &mut rng);
        let values = Matrix::randn(n, dh, 1.0, &mut rng);
        let query: Vec<f32> = (0..dh).map(|_| rng.normal_f32(0.0, 8.0)).collect();
        let scale = 1.0 / (dh as f32).sqrt();
        let mut weights: Vec<f32> = (0..n).map(|j| dot(&query, keys.row(j)) * scale).collect();
        softmax_inplace(&mut weights);
        let mut naive = vec![0.0f32; dh];
        for (j, &w) in weights.iter().enumerate() {
            for (o, &x) in naive.iter_mut().zip(values.row(j)) {
                *o += w * x;
            }
        }
        let (mut scores, mut got) = (Vec::new(), Vec::new());
        attend_selected_into(&query, &keys, &values, &mut scores, &mut got);
        for (a, b) in naive.iter().zip(got.iter()) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn topk_is_argsort_prefix(
        scores in proptest::collection::vec(-100.0f32..100.0, 0..128),
        k in 0usize..64,
    ) {
        let fast = top_k_indices(&scores, k);
        let slow: Vec<usize> = argsort_desc(&scores).into_iter().take(k).collect();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn topk_exact_under_duplicates_nans_and_degenerate_k(
        // Scores drawn from a tiny value set (massive tie plateaus) with
        // NaNs mixed in, at sizes from one score to several compaction
        // rounds, and k from 0 through >= n: the O(n) selector must
        // reproduce the argsort reference exactly — same index set, same
        // order.
        picks in proptest::collection::vec(0usize..5, 1..2600),
        k_frac in 0u8..=8,
    ) {
        let vals = [-1.0f32, 0.0, 0.5, 2.0, f32::NAN];
        let scores: Vec<f32> = picks.iter().map(|&i| vals[i]).collect();
        let n = scores.len();
        // k sweeps 0, n/8, 2n/8, ..., 7n/8, and an oversized k > n.
        let k = if k_frac == 8 { n + 3 } else { (n * k_frac as usize) / 8 };
        let fast = top_k_indices(&scores, k);
        let slow: Vec<usize> = argsort_desc(&scores).into_iter().take(k).collect();
        prop_assert_eq!(fast, slow, "n={}, k={}", n, k);
    }

    #[test]
    fn streamed_selection_equals_batch(
        // The streaming selector (compaction thresholds, block offers) over
        // arbitrary block splits of one score stream must pick what a full
        // argsort of the whole batch ranks first: same ids, same order.
        picks in proptest::collection::vec(0usize..6, 1..800),
        k in 0usize..96,
        block in 1usize..130,
    ) {
        let vals = [-3.0f32, -0.5, 0.0, 1.0, 7.5, f32::NAN];
        let scores: Vec<f32> = picks.iter().map(|&i| vals[i]).collect();
        let mut topk = pqcache::tensor::TopK::new();
        topk.stream_begin(k.min(scores.len()));
        for chunk_start in (0..scores.len()).step_by(block) {
            let chunk_end = (chunk_start + block).min(scores.len());
            topk.stream_offer_block(&scores[chunk_start..chunk_end], chunk_start);
        }
        let mut streamed = Vec::new();
        topk.stream_finish_into(&mut streamed);
        let sorted: Vec<usize> = argsort_desc(&scores).into_iter().take(k).collect();
        prop_assert_eq!(streamed, sorted);
    }

    #[test]
    fn ivf_full_probe_selection_equals_flat(
        // IvfMode::Probe(n_list) ≡ Exact as a *property*: arbitrary key
        // sets, arbitrary coarse-cell counts, arbitrary (n, k) shapes —
        // the routed fused scan must reproduce the flat fused scan's
        // selection exactly (cells partition the tokens; per-cell scans
        // preserve the accumulation order).
        keys in matrix_strategy(260, 8),
        n_list in 1usize..9,
        k in 0usize..48,
        seed in 0u64..64,
    ) {
        let (book, codes) =
            PqCodebook::train(&keys, PqConfig { m: 2, b: 3, max_iters: 3, seed });
        let ivf = IvfIndex::build(
            &keys,
            &codes,
            IvfConfig { n_list, n_probe: n_list, max_iters: 3, seed },
        );
        let mut rng = Rng64::new(seed ^ 0x1F5);
        let q: Vec<f32> = (0..8).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let mut retriever = PqRetriever::new();
        for n in [codes.len(), codes.len() / 2, 1] {
            let mut flat = Vec::new();
            let _ = retriever.score_and_select_into(&book, &codes, &q, n, k, &mut flat);
            let mut routed = Vec::new();
            let _ = retriever.score_and_select_ivf_into(
                &book, &ivf, &q, n, k, ivf.n_list(), &mut routed,
            );
            prop_assert_eq!(flat, routed, "n={}, k={}, n_list={}", n, k, n_list);
        }
    }

    #[test]
    fn kmeans_clusters_nonempty_and_inertia_finite(
        m in matrix_strategy(48, 4),
        k in 1usize..10,
        iters in 0usize..8,
    ) {
        let res = kmeans(&m, &KMeansConfig { k, max_iters: iters, tol: 0.0, seed: 3 });
        prop_assert!(res.inertia.is_finite() && res.inertia >= 0.0);
        prop_assert_eq!(res.assignments.len(), m.rows());
        let kk = res.centroids.rows();
        prop_assert!(kk <= k.max(1));
        for &a in &res.assignments {
            prop_assert!((a as usize) < kk);
        }
    }

    #[test]
    fn pq_adc_equals_dot_with_reconstruction(
        m in matrix_strategy(64, 8),
        q in proptest::collection::vec(-2.0f32..2.0, 8),
    ) {
        let (book, codes) = PqCodebook::train(&m, PqConfig { m: 2, b: 3, max_iters: 5, seed: 5 });
        let table = AdcTable::build(&book, &q);
        for i in 0..codes.len() {
            let approx = table.score_token(&codes.token(i));
            let rec = book.reconstruct(&codes.token(i));
            let exact = dot(&q, &rec);
            prop_assert!((approx - exact).abs() < 1e-3, "token {i}: {approx} vs {exact}");
        }
    }

    #[test]
    fn pq_codes_in_range(m in matrix_strategy(64, 8), b in 1u32..6) {
        let (_, codes) = PqCodebook::train(&m, PqConfig { m: 4, b, max_iters: 3, seed: 7 });
        for i in 0..codes.len() {
            for c in codes.token(i) {
                prop_assert!((c as usize) < (1usize << b));
            }
        }
    }

    #[test]
    fn soa_scan_equals_scalar_score_token(
        m in matrix_strategy(96, 8),
        q in proptest::collection::vec(-2.0f32..2.0, 8),
        subspaces in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        // Tentpole invariant: the fused SoA column scan must reproduce the
        // per-token scalar summation bit-for-bit (same f32 association).
        let (book, codes) =
            PqCodebook::train(&m, PqConfig { m: subspaces, b: 3, max_iters: 4, seed: 9 });
        let table = AdcTable::build(&book, &q);
        let fused = table.score_all(&codes);
        prop_assert_eq!(fused.len(), codes.len());
        for i in 0..codes.len() {
            let scalar = table.score_token(&codes.token(i));
            prop_assert_eq!(fused[i].to_bits(), scalar.to_bits(), "token {}", i);
        }
    }

    #[test]
    fn fused_adc_select_equals_unfused(
        keys in matrix_strategy(700, 8),
        q in proptest::collection::vec(-2.0f32..2.0, 8),
        k in 0usize..40,
    ) {
        // Tentpole invariant: the fused blocked score-and-select (threshold
        // pruning included — fixtures above CODE_BLOCK span several blocks)
        // must select exactly what the unfused scan + batch select selects.
        let (book, codes) =
            PqCodebook::train(&keys, PqConfig { m: 2, b: 3, max_iters: 3, seed: 5 });
        let unfused = top_k_indices(&AdcTable::build(&book, &q).score_all(&codes), k);
        let mut fused = Vec::new();
        let _ = PqRetriever::new().score_and_select_into(&book, &codes, &q, codes.len(), k, &mut fused);
        prop_assert_eq!(unfused, fused);
    }

    #[test]
    fn batched_assign_equals_naive_nearest_centroid(
        data in matrix_strategy(80, 8),
        k in 1usize..12,
    ) {
        let mut rng = Rng64::new(17);
        let centroids = Matrix::randn(k, 8, 1.0, &mut rng);
        let mut scratch = AssignScratch::new();
        let mut got = vec![0u32; data.rows()];
        let inertia = scratch.assign(&data, &centroids, &mut got);
        let mut naive_inertia = 0.0f64;
        for i in 0..data.rows() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..k {
                let d = squared_l2(data.row(i), centroids.row(c));
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            naive_inertia += best_d as f64;
            // The batched argmin may only differ from the naive scan within
            // expansion rounding: the chosen centroid must be as close.
            let got_d = squared_l2(data.row(i), centroids.row(got[i] as usize));
            prop_assert!(
                got_d <= best_d + 1e-4,
                "row {}: batched {} (d={}) vs naive {} (d={})", i, got[i], got_d, best, best_d
            );
        }
        prop_assert!(
            (inertia - naive_inertia).abs() <= 1e-3 * naive_inertia.max(1.0),
            "inertia {} vs naive {}", inertia, naive_inertia
        );
    }

    #[test]
    fn cache_accounting_invariants(
        ops in proptest::collection::vec(
            (proptest::collection::vec(0usize..4096, 1..24), proptest::bool::ANY),
            1..40,
        ),
        cap_blocks in 0usize..12,
    ) {
        let mut cache = BlockCache::new(cap_blocks * 64, 64, EvictionPolicy::Lfu);
        for (tokens, do_update) in &ops {
            let r = cache.lookup(tokens);
            prop_assert_eq!(r.hits.len() + r.misses.len(), tokens.len());
            if *do_update {
                cache.update(&top_blocks(tokens, 64, 4));
            }
            prop_assert!(cache.len() <= cap_blocks);
        }
        let st = cache.stats();
        prop_assert_eq!(st.token_hits + st.token_misses, st.token_lookups);
    }

    #[test]
    fn attend_selected_is_convex_combination(
        keys in matrix_strategy(32, 8),
        q in proptest::collection::vec(-2.0f32..2.0, 8),
    ) {
        // The output of attention lies inside the convex hull of the values:
        // each coordinate is bounded by the min/max of the value column.
        let values = keys.clone();
        let (mut scores, mut out) = (Vec::new(), Vec::new());
        attend_selected_into(&q, &keys, &values, &mut scores, &mut out);
        for c in 0..8 {
            let lo = (0..values.rows()).map(|r| values.get(r, c)).fold(f32::INFINITY, f32::min);
            let hi = (0..values.rows()).map(|r| values.get(r, c)).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[c] >= lo - 1e-4 && out[c] <= hi + 1e-4);
        }
    }

    #[test]
    fn ashape_attention_equals_dense_when_window_covers(
        q in matrix_strategy(16, 4),
    ) {
        let s = q.rows();
        let k = q.clone();
        let v = q.clone();
        let dense = causal_attention(&q, &k, &v, 0, s, PrefillPattern::Dense, None);
        let covered = causal_attention(
            &q, &k, &v, 0, s,
            PrefillPattern::AShape { init: s, local: 1 },
            None,
        );
        prop_assert!(dense.max_abs_diff(&covered) < 1e-5);
    }
}

/// One scripted action against the forked-namespace fleet.
#[derive(Debug, Clone, Copy)]
enum PageOp {
    /// Clone the store at `target % live` (bounded by a fleet cap).
    Fork { target: usize },
    /// Append one token to the store at `target % live`.
    Append { target: usize, seed: u64 },
    /// Drop the store at `target % live` (never below one survivor).
    Drop { target: usize },
}

fn page_op_strategy() -> impl Strategy<Value = PageOp> {
    // kind 0 → fork, 1..=3 → append (weighted 3×), 4 → drop.
    (0usize..5, 0usize..8, 0u64..(1 << 62)).prop_map(|(kind, target, seed)| match kind {
        0 => PageOp::Fork { target },
        1..=3 => PageOp::Append { target, seed },
        _ => PageOp::Drop { target },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Refcounted pages + copy-on-write under random fork/append/drop
    /// interleavings: no namespace ever observes another's writes, every
    /// store always materialises exactly its mirror-model rows, and the
    /// pool drains to zero pages once the last namespace drops.
    #[test]
    fn paged_cow_never_corrupts_forked_namespaces(
        page_tokens in 1usize..5,
        init_rows in 1usize..7,
        ops in proptest::collection::vec(page_op_strategy(), 1..40),
        data_seed in 0u64..(1 << 62),
        ids_seed in 0u64..(1 << 62),
    ) {
        use pqcache::memhier::{HostKvStore, KvTier};
        const DIM: usize = 4;
        let tier = KvTier::with_pages(1, 1, DIM, page_tokens, None);
        let mut rng = Rng64::new(data_seed);
        let mut row = |tag: u64| -> Vec<f32> {
            let mut r = Rng64::new(rng.below(1 << 30) as u64 ^ tag);
            (0..DIM).map(|_| r.normal_f32(0.0, 1.0)).collect()
        };

        // Seed one namespace with `init_rows` offloaded rows, then let the
        // script fork/append/drop. Mirror every store with plain Vecs.
        type Mirror = (Vec<Vec<f32>>, Vec<Vec<f32>>);
        let mut stores: Vec<HostKvStore> = vec![tier.new_namespace()];
        let init_k: Vec<Vec<f32>> = (0..init_rows).map(|i| row(i as u64)).collect();
        let init_v: Vec<Vec<f32>> = (0..init_rows).map(|i| row(0x1000 + i as u64)).collect();
        let flat = |rows: &[Vec<f32>]| Matrix::from_vec(rows.len(), DIM, rows.concat());
        stores[0].offload(0, 0, flat(&init_k), flat(&init_v));
        let mut mirrors: Vec<Mirror> = vec![(init_k.clone(), init_v.clone())];
        let mut ids_rng = Rng64::new(ids_seed);

        for op in &ops {
            match *op {
                PageOp::Fork { target } if stores.len() < 6 => {
                    let t = target % stores.len();
                    stores.push(stores[t].clone());
                    let m = mirrors[t].clone();
                    mirrors.push(m);
                }
                PageOp::Fork { .. } => {}
                PageOp::Append { target, seed } => {
                    let t = target % stores.len();
                    let (k, v) = (row(seed), row(seed ^ 0xFFFF));
                    stores[t].append_token(0, 0, &k, &v);
                    mirrors[t].0.push(k);
                    mirrors[t].1.push(v);
                }
                PageOp::Drop { target } if stores.len() > 1 => {
                    let t = target % stores.len();
                    stores.remove(t);
                    mirrors.remove(t);
                }
                PageOp::Drop { .. } => {}
            }
            // Every surviving namespace still reads back exactly its own
            // history — CoW must have isolated all shared tails — whether
            // read whole or as a random id list (repeats, any order, across
            // page boundaries) appended after rows already in the buffers.
            for (s, m) in stores.iter().zip(mirrors.iter()) {
                let n = m.0.len();
                prop_assert_eq!(s.len(0, 0), n);
                let mut ids: Vec<usize> = (0..n).collect();
                ids.extend((0..ids_rng.below(3 * n + 1)).map(|_| ids_rng.below(n)));
                let (mut keys, mut values) = (flat(&m.0[..1]), flat(&m.1[..1]));
                s.read_into(0, 0, &ids, 0, &mut keys, &mut values).expect("intact store");
                prop_assert_eq!(keys.rows(), 1 + ids.len());
                for (r, &id) in ids.iter().enumerate() {
                    prop_assert_eq!(keys.row(1 + r), &m.0[id][..], "key corrupted at row {}", id);
                    prop_assert_eq!(values.row(1 + r), &m.1[id][..], "value corrupted at row {}", id);
                }
            }
        }

        // Refcounts return to baseline: dropping every namespace frees the
        // whole pool (nothing was registered as a shared prefix here).
        prop_assert!(tier.allocator().pages_in_use() > 0);
        drop(stores);
        prop_assert_eq!(tier.allocator().pages_in_use(), 0, "pages leaked after drops");
    }

    /// Registered prefixes pin pages while namespaces come and go; releasing
    /// the registration returns the pool to empty.
    #[test]
    fn prefix_registration_pins_and_releases_pages(
        page_tokens in 1usize..5,
        adopters in 1usize..5,
        tokens in proptest::collection::vec(0u32..200, 1..24),
    ) {
        use pqcache::memhier::KvTier;
        const DIM: usize = 4;
        let tier = KvTier::with_pages(1, 1, DIM, page_tokens, None);
        let mut base = tier.new_namespace();
        let mut rng = Rng64::new(7);
        let n = tokens.len();
        let data: Vec<f32> = (0..n * DIM).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        base.offload(0, 0, Matrix::from_vec(n, DIM, data.clone()), Matrix::from_vec(n, DIM, data));
        prop_assert!(tier.register_prefix(&tokens, &base, std::sync::Arc::new(())));

        let mut fleet = Vec::new();
        for _ in 0..adopters {
            let hit = tier.lookup_prefix(&tokens).expect("registered prefix must hit");
            prop_assert_eq!(hit.len(), n);
            fleet.push(tier.new_namespace_with_prefix(&hit));
        }
        // Adopters share the base pages: unique residency stays one copy.
        let one_copy = tier.allocator().pages_in_use();
        prop_assert_eq!(one_copy, n.div_ceil(page_tokens));
        drop(fleet);
        drop(base);
        // The registry alone still pins the prefix pages...
        prop_assert_eq!(tier.allocator().pages_in_use(), n.div_ceil(page_tokens));
        // ...until released.
        prop_assert!(tier.release_prefix(&tokens));
        prop_assert_eq!(tier.allocator().pages_in_use(), 0, "registry leaked pages");
    }
}

/// One scripted action against a capped allocator.
#[derive(Debug, Clone, Copy)]
enum AllocOp {
    /// Request one page (may correctly fail at the cap).
    Alloc,
    /// Bump the refcount of the live page at `target % live`.
    Retain { target: usize },
    /// Drop one reference from the live page at `target % live`.
    Release { target: usize },
}

fn alloc_op_strategy() -> impl Strategy<Value = AllocOp> {
    // kind 0..=1 → alloc (weighted 2×), 2 → retain, 3..=4 → release.
    (0usize..5, 0usize..8).prop_map(|(kind, target)| match kind {
        0 | 1 => AllocOp::Alloc,
        2 => AllocOp::Retain { target },
        _ => AllocOp::Release { target },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved alloc/retain/release against a capped pool, mirrored by
    /// a plain refcount map: a live page id is never re-issued (the
    /// double-free / aliasing hazard), `try_alloc` fails — with the right
    /// cap in the error — exactly when the pool is full, live counts always
    /// agree with the model, and a fully-released pool recycles every page.
    #[test]
    fn capped_allocator_never_double_frees(
        cap in 1usize..6,
        ops in proptest::collection::vec(alloc_op_strategy(), 1..60),
    ) {
        use pqcache::memhier::{MemError, PageAllocator};
        use std::collections::BTreeMap;
        let alloc = PageAllocator::with_limit(2, 4, Some(cap));
        // Mirror model: live page id → refcount.
        let mut refs: BTreeMap<u32, u32> = BTreeMap::new();

        for op in &ops {
            match *op {
                AllocOp::Alloc => match alloc.try_alloc() {
                    Ok(id) => {
                        prop_assert!(refs.len() < cap, "alloc succeeded at the cap");
                        prop_assert!(
                            !refs.contains_key(&id),
                            "live page {} re-issued: aliased double ownership", id
                        );
                        refs.insert(id, 1);
                    }
                    Err(MemError::PageExhausted { max_pages }) => {
                        prop_assert_eq!(max_pages, cap, "error must name the configured cap");
                        prop_assert_eq!(refs.len(), cap, "alloc failed below the cap");
                    }
                    Err(other) => prop_assert!(false, "unexpected error {:?}", other),
                },
                AllocOp::Retain { target } if !refs.is_empty() => {
                    let id = *refs.keys().nth(target % refs.len()).unwrap();
                    alloc.retain_page(id);
                    *refs.get_mut(&id).unwrap() += 1;
                }
                AllocOp::Release { target } if !refs.is_empty() => {
                    let id = *refs.keys().nth(target % refs.len()).unwrap();
                    alloc.release_page(id);
                    let n = refs.get_mut(&id).unwrap();
                    *n -= 1;
                    if *n == 0 {
                        refs.remove(&id);
                    }
                }
                AllocOp::Retain { .. } | AllocOp::Release { .. } => {}
            }
            prop_assert_eq!(alloc.pages_in_use(), refs.len(), "live count diverged from model");
            prop_assert!(alloc.pages_in_use() <= cap, "cap breached");
        }

        // Drain every remaining reference: the pool must return to empty —
        // no page lost to a premature free, none pinned by a leaked count.
        for (id, n) in std::mem::take(&mut refs) {
            for _ in 0..n {
                alloc.release_page(id);
            }
        }
        prop_assert_eq!(alloc.pages_in_use(), 0, "references drained but pages still live");

        // And the freed pages are actually reusable: a full cap's worth of
        // allocations succeeds again, then the cap re-engages.
        for _ in 0..cap {
            prop_assert!(alloc.try_alloc().is_ok(), "released page not recycled");
        }
        prop_assert!(alloc.try_alloc().is_err(), "cap must re-engage after recycling");
    }
}
