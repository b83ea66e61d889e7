//! Kernel micro-benchmarks: old vs new hot-path kernels, measured in the
//! same target so every PR records an honest perf trajectory.
//!
//! Each benchmark pits the **pre-change kernel** (the seed implementation,
//! reproduced verbatim below as `baseline_*`) against the current library
//! kernel on identical fixtures:
//!
//! - `adc_scan`: token-major scalar scan vs the fused SoA column scan, at
//!   the paper's two operating points (m=2/b=6 LongBench, m=4/b=8
//!   InfiniteBench) over s = 65 536 tokens.
//! - `top_k`: `BinaryHeap`-per-call selection (the true seed kernel) vs the
//!   O(n) sample-threshold selector. (The PR 2 reading of this row, 0.963×,
//!   was an honest no-contest: PR 2's `TopK` was the *same* threshold-
//!   fast-path min-heap as the seed modulo allocation reuse, so the row
//!   measured noise. The selector algorithm itself is new in PR 4.)
//! - `score_select_fused`: the unfused seed pipeline (scalar scan into a
//!   full score vector, then heap select) vs the fused blocked
//!   score-and-select with threshold pruning (`score_and_select_into`).
//! - `ivf_select` / `ivf_scaling_s*`: the **current exact fused path** vs
//!   IVF-routed selection (`score_and_select_ivf_into`) on clustered keys
//!   at long contexts (s up to 262 144, ~4K-token cells, 8 probes) — the
//!   only rows whose baseline is not the PR 1 seed, because they measure
//!   what routing buys *on top of* the fused scan. Each row also records
//!   `recall` of the routed selection against the exact one.
//! - `kmeans_assign`: per-row per-centroid `squared_l2` loop vs the blocked
//!   `‖x‖² − 2·X·Cᵀ + ‖c‖²` kernel.
//! - `matmul_transb`: 4-wide-unrolled dot (seed) vs the 8-wide FMA kernel.
//! - `causal_attention`: seed two-pass row-wise kernel vs the blocked
//!   single-pass online-softmax tile (AVX2-dispatched).
//!
//! Results are printed as a table; in full mode a row below its floor
//! exits non-zero. Pass `--quick` for the CI smoke mode: smaller fixtures,
//! fewer samples, floors reported but not enforced. Nothing is written to
//! disk: perf claims live in `benchmark/` (see EXPERIMENTS.md).

// The baseline kernels below reproduce the seed implementations verbatim,
// index loops included.
#![allow(clippy::needless_range_loop)]

use pqc_llm::{causal_attention, PrefillPattern};
use pqc_pq::{AdcTable, IvfConfig, IvfIndex, PqCodebook, PqCodes, PqConfig, PqRetriever};
use pqc_tensor::{softmax_inplace, topk_recall, AssignScratch, Matrix, Rng64, TopK};
use std::hint::black_box;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Measurement harness: median ns/iter over `samples` timed samples, one
// warm-up sample, `iters` calls per sample.
// ---------------------------------------------------------------------------

struct Config {
    quick: bool,
    samples: usize,
}

fn time_ns(cfg: &Config, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut per_iter: Vec<f64> = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    per_iter[per_iter.len() / 2]
}

struct BenchRow {
    name: String,
    params: String,
    baseline_ns: f64,
    new_ns: f64,
    /// Items processed per iteration (tokens, rows, ...) for throughput.
    items: usize,
    /// Top-k recall of the new kernel against the baseline's selection,
    /// for approximate kernels (the IVF rows); `None` for bit-exact rows.
    recall: Option<f64>,
}

impl BenchRow {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.new_ns
    }

    fn mitems_per_s(&self) -> f64 {
        self.items as f64 / self.new_ns * 1e3
    }
}

// ---------------------------------------------------------------------------
// Pre-change (seed) kernels, reproduced verbatim for the baseline side.
// ---------------------------------------------------------------------------

/// Seed `squared_l2`: plain scalar loop (no unrolling).
#[inline]
fn seed_squared_l2(a: &[f32], b: &[f32]) -> f32 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Seed `dot`: 4-wide unrolled.
#[inline]
fn seed_dot(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut s = s0 + s1 + s2 + s3;
    for j in chunks * 4..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// Seed ADC scan: token-major codes, one `score_token` per token, fresh
/// output vector per call (exactly the pre-SoA `AdcTable::score_all`).
fn seed_adc_scan(table: &[f32], k_c: usize, m: usize, codes_rowmajor: &[u16]) -> Vec<f32> {
    let n = codes_rowmajor.len() / m;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let token = &codes_rowmajor[i * m..(i + 1) * m];
        let mut s = 0.0f32;
        for (j, &c) in token.iter().enumerate() {
            s += table[j * k_c + c as usize];
        }
        out.push(s);
    }
    out
}

/// Seed top-k: `BinaryHeap` allocated per call (pre-`TopK` implementation).
fn seed_top_k(scores: &[f32], k: usize) -> Vec<usize> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    #[derive(PartialEq, Clone, Copy)]
    struct Entry {
        score: f32,
        index: usize,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            match self.score.partial_cmp(&other.score) {
                Some(o) => o.then_with(|| other.index.cmp(&self.index)),
                None => {
                    if self.score.is_nan() && other.score.is_nan() {
                        other.index.cmp(&self.index)
                    } else if self.score.is_nan() {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    }
                }
            }
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<std::cmp::Reverse<Entry>> = BinaryHeap::with_capacity(k + 1);
    for (index, &score) in scores.iter().enumerate() {
        let e = Entry { score, index };
        if heap.len() < k {
            heap.push(std::cmp::Reverse(e));
        } else if e > heap.peek().expect("non-empty").0 {
            heap.pop();
            heap.push(std::cmp::Reverse(e));
        }
    }
    let mut out: Vec<Entry> = heap.into_iter().map(|r| r.0).collect();
    out.sort_by(|a, b| b.cmp(a));
    out.into_iter().map(|e| e.index).collect()
}

/// Seed K-Means assignment: per-row per-centroid scalar `squared_l2`.
fn seed_kmeans_assign(data: &Matrix, centroids: &Matrix, assignments: &mut [u32]) -> f64 {
    let k = centroids.rows();
    let mut inertia = 0.0f64;
    for i in 0..data.rows() {
        let row = data.row(i);
        let mut best = 0u32;
        let mut best_d = f32::INFINITY;
        for c in 0..k {
            let d = seed_squared_l2(row, centroids.row(c));
            if d < best_d {
                best_d = d;
                best = c as u32;
            }
        }
        assignments[i] = best;
        inertia += best_d as f64;
    }
    inertia
}

/// Seed `matmul_transb`: same loop structure, 4-wide dot.
fn seed_matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = &a.as_slice()[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b.as_slice()[j * k..(j + 1) * k];
            out.as_mut_slice()[i * n + j] = seed_dot(arow, brow);
        }
    }
    out
}

/// Seed causal attention: row-wise with 4-wide dot and scalar axpy.
fn seed_causal_attention(q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
    let (s, dh) = q.shape();
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = Matrix::zeros(s, dh);
    let mut scores: Vec<f32> = Vec::with_capacity(s);
    for i in 0..s {
        scores.clear();
        let qi = q.row(i);
        for j in 0..=i {
            scores.push(seed_dot(qi, k.row(j)) * scale);
        }
        softmax_inplace(&mut scores);
        let orow = out.row_mut(i);
        for (j, &p) in scores.iter().enumerate() {
            for (o, val) in orow.iter_mut().zip(v.row(j).iter()) {
                *o += p * val;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A trained ADC table plus matching random codes in both layouts.
struct AdcFixture {
    table_flat: Vec<f32>,
    table: AdcTable,
    k_c: usize,
    m: usize,
    codes_rowmajor: Vec<u16>,
    codes_soa: PqCodes,
}

fn adc_fixture(s: usize, m: usize, b: u32, dh: usize, seed: u64) -> AdcFixture {
    let mut rng = Rng64::new(seed);
    // Train on a small key sample: the scan cost is independent of centroid
    // values, only the table shape matters.
    let train_rows = (1usize << b) * 4;
    let keys = Matrix::randn(train_rows, dh, 1.0, &mut rng);
    let (book, _) = PqCodebook::train(&keys, PqConfig { m, b, max_iters: 2, seed });
    let q: Vec<f32> = (0..dh).map(|_| rng.normal_f32(0.0, 1.0)).collect();
    let table = AdcTable::build(&book, &q);
    let k_c = book.centroids(0).rows();
    let table_flat: Vec<f32> =
        (0..m).flat_map(|j| (0..k_c).map(move |c| (j, c))).map(|(j, c)| table.entry(j, c)).collect();

    let mut codes_rowmajor = Vec::with_capacity(s * m);
    let mut cols: Vec<Vec<u16>> = vec![Vec::with_capacity(s); m];
    for _ in 0..s {
        for col in cols.iter_mut() {
            let c = rng.below(k_c) as u16;
            codes_rowmajor.push(c);
            col.push(c);
        }
    }
    let codes_soa = PqCodes::from_columns(cols);
    AdcFixture { table_flat, table, k_c, m, codes_rowmajor, codes_soa }
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

fn bench_adc_scan(cfg: &Config, rows: &mut Vec<BenchRow>) {
    let s = if cfg.quick { 8_192 } else { 65_536 };
    for &(m, b) in &[(2usize, 6u32), (4, 8)] {
        let fx = adc_fixture(s, m, b, 64, 0xADC0 + b as u64);
        // Sanity: both scans agree bit-for-bit.
        let base = seed_adc_scan(&fx.table_flat, fx.k_c, fx.m, &fx.codes_rowmajor);
        let mut fused = Vec::new();
        fx.table.scores_into(&fx.codes_soa, &mut fused);
        assert_eq!(base, fused, "scan results diverged at m={m} b={b}");

        let iters = if cfg.quick { 8 } else { 32 };
        let baseline_ns = time_ns(cfg, iters, || {
            black_box(seed_adc_scan(
                black_box(&fx.table_flat),
                fx.k_c,
                fx.m,
                black_box(&fx.codes_rowmajor),
            ));
        });
        let mut buf = Vec::new();
        let new_ns = time_ns(cfg, iters, || {
            fx.table.scores_into(black_box(&fx.codes_soa), &mut buf);
            black_box(&buf);
        });
        rows.push(BenchRow {
            name: format!("adc_scan_m{m}_b{b}"),
            params: format!("s={s}, m={m}, b={b}, dh=64"),
            baseline_ns,
            new_ns,
            items: s,
            recall: None,
        });
    }
}

fn bench_top_k(cfg: &Config, rows: &mut Vec<BenchRow>) {
    let n = if cfg.quick { 16_384 } else { 65_536 };
    let k = 1024;
    let mut rng = Rng64::new(0x70B);
    let scores: Vec<f32> = (0..n).map(|_| rng.normal_f32(0.0, 1.0)).collect();
    let mut topk = TopK::new();
    let mut out = Vec::new();
    topk.select_into(&scores, k, &mut out);
    assert_eq!(out, seed_top_k(&scores, k), "top-k results diverged");

    let iters = if cfg.quick { 8 } else { 32 };
    let baseline_ns = time_ns(cfg, iters, || {
        black_box(seed_top_k(black_box(&scores), k));
    });
    let new_ns = time_ns(cfg, iters, || {
        topk.select_into(black_box(&scores), k, &mut out);
        black_box(&out);
    });
    rows.push(BenchRow {
        name: "top_k".into(),
        params: format!("n={n}, k={k}"),
        baseline_ns,
        new_ns,
        items: n,
        recall: None,
    });
}

fn bench_score_select_fused(cfg: &Config, rows: &mut Vec<BenchRow>) {
    // The decode-step retrieval composite (paper Algorithm 2 line 14): ADC
    // scan + top-k. Seed side materialises the full score vector and heaps
    // it; the fused side streams CODE_BLOCK-token score blocks straight
    // into the selector, pruning blocks against the running k-th-best
    // threshold.
    let s = if cfg.quick { 8_192 } else { 65_536 };
    let k = 1024;
    let (m, b) = (2usize, 6u32);
    let fx = adc_fixture(s, m, b, 64, 0xF5ED);
    let mut topk = TopK::new();
    let (mut block_buf, mut fused) = (Vec::new(), Vec::new());
    let base_scores = seed_adc_scan(&fx.table_flat, fx.k_c, fx.m, &fx.codes_rowmajor);
    fx.table.score_and_select_into(&fx.codes_soa, s, k, &mut topk, &mut block_buf, &mut fused);
    assert_eq!(fused, seed_top_k(&base_scores, k), "fused selection diverged");

    let iters = if cfg.quick { 8 } else { 32 };
    let baseline_ns = time_ns(cfg, iters, || {
        let scores = seed_adc_scan(
            black_box(&fx.table_flat),
            fx.k_c,
            fx.m,
            black_box(&fx.codes_rowmajor),
        );
        black_box(seed_top_k(&scores, k));
    });
    let new_ns = time_ns(cfg, iters, || {
        fx.table.score_and_select_into(
            black_box(&fx.codes_soa),
            s,
            k,
            &mut topk,
            &mut block_buf,
            &mut fused,
        );
        black_box(&fused);
    });
    rows.push(BenchRow {
        name: "score_select_fused".into(),
        params: format!("s={s}, m={m}, b={b}, k={k}"),
        baseline_ns,
        new_ns,
        items: s,
        recall: None,
    });
}

/// Clustered keys (`Matrix::clustered`): the shape attention keys actually
/// have, and the regime IVF coarse quantization exploits (isotropic noise
/// would make coarse cells carry no routing signal).
fn clustered_keys(s: usize, dh: usize, centers: usize, spread: f32, seed: u64) -> Matrix {
    Matrix::clustered(s, dh, centers, spread, &mut Rng64::new(seed))
}

fn bench_ivf_select(cfg: &Config, rows: &mut Vec<BenchRow>) {
    // Long-context decode selection (paper §5's IVF direction): the
    // baseline here is the *current* exact fused path (`score_select_fused`
    // above, i.e. PR 4's best), not the PR 1 seed — the row answers "what
    // does IVF routing buy on top of the fused scan at long context".
    //
    // n_list scales with s (cells of ~4K tokens) while n_probe stays fixed,
    // so routed selection cost is O(n_probe·cell + n_list) — sublinear in
    // s — while the exact scan grows linearly. The last (largest-s) spec is
    // the gated `ivf_select` row; the smaller ones record the scaling curve.
    let (m, b, dh) = (2usize, 6u32, 32usize);
    let k = if cfg.quick { 256 } else { 1024 };
    let specs: &[(usize, usize, usize)] = if cfg.quick {
        &[(16_384, 16, 4)]
    } else {
        // (s, n_list, n_probe): fixed ~4K-token cells, 8 probes.
        &[(65_536, 16, 8), (131_072, 32, 8), (262_144, 64, 8)]
    };
    for (spec_idx, &(s, n_list, n_probe)) in specs.iter().enumerate() {
        let keys = clustered_keys(s, dh, 64, 0.35, 0x19F + spec_idx as u64);
        let (book, codes) =
            PqCodebook::train(&keys, PqConfig { m, b, max_iters: 3, seed: 0x19F });
        let ivf = IvfIndex::build(
            &keys,
            &codes,
            IvfConfig { n_list, n_probe, max_iters: 6, seed: 0x19F },
        );
        let mut retriever = PqRetriever::new();
        let mut rng = Rng64::new(0x19F0 + spec_idx as u64);
        // Decode-style query: aligned with a random token's key plus noise.
        let query = |rng: &mut Rng64| -> Vec<f32> {
            let t = rng.below(s);
            keys.row(t).iter().map(|v| v + 0.25 * rng.normal_f32(0.0, 1.0)).collect()
        };

        // Sanity: full probe reproduces the exact fused selection exactly.
        let q0 = query(&mut rng);
        let (mut exact_sel, mut routed_sel) = (Vec::new(), Vec::new());
        let _ = retriever.score_and_select_into(&book, &codes, &q0, s, k, &mut exact_sel);
        let _ = retriever
            .score_and_select_ivf_into(&book, &ivf, &q0, s, k, n_list, &mut routed_sel);
        assert_eq!(exact_sel, routed_sel, "full probe diverged at s={s}");

        // Recall at the default probe setting, averaged over queries.
        let trials = if cfg.quick { 6 } else { 16 };
        let mut recall = 0.0;
        let mut scanned = 0usize;
        for _ in 0..trials {
            let q = query(&mut rng);
            let _ = retriever.score_and_select_into(&book, &codes, &q, s, k, &mut exact_sel);
            let stats = retriever
                .score_and_select_ivf_into(&book, &ivf, &q, s, k, n_probe, &mut routed_sel);
            recall += topk_recall(&exact_sel, &routed_sel);
            scanned += stats.scanned_tokens;
        }
        let recall = recall / trials as f64;
        let scan_frac = scanned as f64 / (trials * s) as f64;

        // Timing on one fixed query (pruning behaviour held constant).
        let qt = query(&mut rng);
        let iters = if cfg.quick { 8 } else { 16 };
        let baseline_ns = time_ns(cfg, iters, || {
            let _ = retriever.score_and_select_into(
                &book,
                black_box(&codes),
                black_box(&qt),
                s,
                k,
                &mut exact_sel,
            );
            black_box(&exact_sel);
        });
        let new_ns = time_ns(cfg, iters, || {
            let _ = retriever.score_and_select_ivf_into(
                &book,
                black_box(&ivf),
                black_box(&qt),
                s,
                k,
                n_probe,
                &mut routed_sel,
            );
            black_box(&routed_sel);
        });
        let gated = spec_idx + 1 == specs.len();
        rows.push(BenchRow {
            name: if gated { "ivf_select".into() } else { format!("ivf_scaling_s{s}") },
            params: format!(
                "s={s}, m={m}, b={b}, k={k}, n_list={n_list}, n_probe={n_probe}, \
                 scan_frac={scan_frac:.3}"
            ),
            baseline_ns,
            new_ns,
            items: s,
            recall: Some(recall),
        });
    }
}

fn bench_kmeans_assign(cfg: &Config, rows: &mut Vec<BenchRow>) {
    let n = if cfg.quick { 2_048 } else { 8_192 };
    let (k, d) = (64, 32);
    let mut rng = Rng64::new(0x83A);
    let data = Matrix::randn(n, d, 1.0, &mut rng);
    let centroids = Matrix::randn(k, d, 1.0, &mut rng);
    let mut base_asn = vec![0u32; n];
    let mut new_asn = vec![0u32; n];
    let mut scratch = AssignScratch::new();
    let base_inertia = seed_kmeans_assign(&data, &centroids, &mut base_asn);
    let new_inertia = scratch.assign(&data, &centroids, &mut new_asn);
    assert!(
        (base_inertia - new_inertia).abs() <= 1e-3 * base_inertia.max(1.0),
        "assign inertia diverged: {base_inertia} vs {new_inertia}"
    );

    let iters = if cfg.quick { 4 } else { 12 };
    let baseline_ns = time_ns(cfg, iters, || {
        black_box(seed_kmeans_assign(black_box(&data), black_box(&centroids), &mut base_asn));
    });
    let new_ns = time_ns(cfg, iters, || {
        black_box(scratch.assign(black_box(&data), black_box(&centroids), &mut new_asn));
    });
    rows.push(BenchRow {
        name: "kmeans_assign".into(),
        params: format!("n={n}, k={k}, d={d}"),
        baseline_ns,
        new_ns,
        items: n,
        recall: None,
    });
}

fn bench_matmul_transb(cfg: &Config, rows: &mut Vec<BenchRow>) {
    let (m, k, n) = if cfg.quick { (64, 64, 256) } else { (128, 128, 1024) };
    let mut rng = Rng64::new(0x6E4);
    let a = Matrix::randn(m, k, 1.0, &mut rng);
    let b = Matrix::randn(n, k, 1.0, &mut rng);
    let diff = seed_matmul_transb(&a, &b).max_abs_diff(&a.matmul_transb(&b));
    assert!(diff < 1e-3, "matmul_transb diverged: {diff}");

    let iters = if cfg.quick { 8 } else { 16 };
    let baseline_ns = time_ns(cfg, iters, || {
        black_box(seed_matmul_transb(black_box(&a), black_box(&b)));
    });
    let mut out = Matrix::zeros(m, n);
    let new_ns = time_ns(cfg, iters, || {
        a.matmul_transb_into(black_box(&b), &mut out);
        black_box(&out);
    });
    rows.push(BenchRow {
        name: "matmul_transb".into(),
        params: format!("({m}x{k}) @ ({n}x{k})T"),
        baseline_ns,
        new_ns,
        items: m * n,
        recall: None,
    });
}

fn bench_causal_attention(cfg: &Config, rows: &mut Vec<BenchRow>) {
    let (s, dh) = if cfg.quick { (128, 64) } else { (384, 64) };
    let mut rng = Rng64::new(0xA77);
    let q = Matrix::randn(s, dh, 1.0, &mut rng);
    let k = Matrix::randn(s, dh, 1.0, &mut rng);
    let v = Matrix::randn(s, dh, 1.0, &mut rng);
    let diff = seed_causal_attention(&q, &k, &v)
        .max_abs_diff(&causal_attention(&q, &k, &v, PrefillPattern::Dense, None));
    assert!(diff < 1e-3, "causal attention diverged: {diff}");

    let iters = if cfg.quick { 2 } else { 6 };
    let baseline_ns = time_ns(cfg, iters, || {
        black_box(seed_causal_attention(black_box(&q), black_box(&k), black_box(&v)));
    });
    let new_ns = time_ns(cfg, iters, || {
        black_box(causal_attention(
            black_box(&q),
            black_box(&k),
            black_box(&v),
            PrefillPattern::Dense,
            None,
        ));
    });
    rows.push(BenchRow {
        name: "causal_attention".into(),
        params: format!("s={s}, dh={dh}"),
        baseline_ns,
        new_ns,
        items: s,
        recall: None,
    });
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Speedup floors, keyed by result-name prefix: enforced in-binary below
/// (non-zero exit in full mode).
const GATE_FLOORS: &[(&str, f64)] = &[
    // PR 2 floors, tightened by PR 4. Split per operating point in PR 5:
    // the current toolchain auto-vectorises the *seed* m=4 token-major scan
    // much better than the recording toolchain did (baseline side dropped
    // ~410µs → ~245µs on the same fixture; the library kernel is unchanged
    // at ~77µs), so the m4/b8 ratio floor is re-anchored to 2.5× while the
    // m2/b6 point keeps the 4.5× floor.
    ("adc_scan_m2_b6", 4.5),
    ("adc_scan_m4_b8", 2.5),
    ("kmeans_assign", 2.0),
    // PR 4 gates: the O(n) selector and the online-softmax attention.
    ("top_k", 2.0),
    ("causal_attention", 1.5),
    // PR 5 gate: IVF routing over the exact fused path at s = 262144
    // (baseline for this row is the current fused kernel, not the seed).
    ("ivf_select", 2.0),
];

/// Recall floors for approximate rows, keyed by result-name prefix —
/// enforced in-binary in full mode.
const RECALL_FLOORS: &[(&str, f64)] = &[("ivf_select", 0.95)];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = Config { quick, samples: if quick { 3 } else { 7 } };
    let mode = if quick { "quick" } else { "full" };
    println!("kernel micro-benchmarks ({mode} mode) — old (seed) vs new kernels\n");

    let mut rows = Vec::new();
    bench_adc_scan(&cfg, &mut rows);
    bench_top_k(&cfg, &mut rows);
    bench_score_select_fused(&cfg, &mut rows);
    bench_ivf_select(&cfg, &mut rows);
    bench_kmeans_assign(&cfg, &mut rows);
    bench_matmul_transb(&cfg, &mut rows);
    bench_causal_attention(&cfg, &mut rows);

    println!(
        "{:<22} {:>14} {:>14} {:>9} {:>12}  params",
        "kernel", "baseline ns", "new ns", "speedup", "Mitems/s"
    );
    for r in &rows {
        let recall = r.recall.map_or(String::new(), |v| format!(", recall={v:.3}"));
        println!(
            "{:<22} {:>14.0} {:>14.0} {:>8.2}x {:>12.2}  {}{}",
            r.name,
            r.baseline_ns,
            r.new_ns,
            r.speedup(),
            r.mitems_per_s(),
            r.params,
            recall
        );
    }

    // Perf-trajectory gates: enforced (non-zero exit) in full mode; in
    // quick mode the tiny fixtures and shared-runner noise make ratios
    // unstable, so CI only prints the misses.
    let mut gate_failed = false;
    for &(prefix, need) in GATE_FLOORS {
        for r in rows.iter().filter(|r| r.name.starts_with(prefix)) {
            let got = r.speedup();
            if got < need {
                println!("GATE MISS: {} speedup {:.2}x below target {:.1}x", r.name, got, need);
                gate_failed = true;
            }
        }
    }
    for &(prefix, need) in RECALL_FLOORS {
        for r in rows.iter().filter(|r| r.name.starts_with(prefix)) {
            match r.recall {
                Some(got) if got >= need => {}
                Some(got) => {
                    println!("GATE MISS: {} recall {:.3} below floor {:.2}", r.name, got, need);
                    gate_failed = true;
                }
                // A gated row must carry the field it is gated on — a
                // missing recall silently disabling the floor is a miss.
                None => {
                    println!("GATE MISS: {} has no recall (floor {:.2})", r.name, need);
                    gate_failed = true;
                }
            }
        }
    }

    if gate_failed && !quick {
        std::process::exit(1);
    }
}
