//! Paper artifacts as one table. Every figure and table the paper's evidence
//! rests on (Figs. 1–12, Tables 2–6, Appendix A) is an [`Artifact`] in
//! [`ARTIFACTS`]; its `run` prints the artifact's rows and returns its shape
//! claims as named [`Check`]s.
//!
//! Each check carries the verdict recorded for it at full size: `pass(..)`,
//! or `finding(..)` with one sentence saying what the rows show instead. [`run`]
//! prints every check as `PASS`, `FINDING` (recorded failing, still failing)
//! or `CHANGED` (the outcome moved away from the record) and fails on any
//! `CHANGED`. Runs are seeded and bit-identical across kernel dispatch, so
//! verdicts are deterministic. A vague word ("near-flat", "within noise")
//! gets a threshold, stated in the check's name; EXPERIMENTS.md quotes the
//! sentence each check encodes.

use crate::{infinitebench_sim, longbench_sim, quality_eval, quality_session, question_first_sim};
use pqc_core::{CacheConfig, KmeansIters, LatencyMethod, LatencyModel, SelectiveSession, SessionConfig};
use pqc_llm::instrument::{sorted_curve, summarize_row};
use pqc_llm::{LlmConfig, Model, PrefillOptions, PrefillPattern};
use pqc_memhier::{CostModel, ModelShape};
use pqc_workloads::{
    aggregation, cot_chain, driver_tokens, evaluate_method_with_prefill, evaluate_workload, format_table,
    method_average, needle, qa, reference, EvalConfig, MethodSpec, QuestionPosition, TaskResult, VocabLayout,
    Workload,
};
use std::fmt::Display;

/// One named shape claim and the verdict recorded for it.
#[derive(Debug, Clone)]
pub struct Check {
    /// The claim as encoded, including any threshold a vague word needed.
    name: &'static str,
    /// Whether this run's rows satisfy it.
    holds: bool,
    /// `None` when recorded as holding; otherwise what the rows show instead.
    finding: Option<&'static str>,
}

impl Check {
    /// This run's outcome against the recorded verdict: `PASS` (recorded as
    /// holding, holds), `FINDING` (recorded as failing, still fails) or
    /// `CHANGED` (the outcome differs from the record).
    fn status(&self) -> &'static str {
        match (self.holds, self.finding) {
            (true, None) => "PASS",
            (false, Some(_)) => "FINDING",
            _ => "CHANGED",
        }
    }
}

/// A check recorded as holding.
fn pass(name: &'static str, holds: bool) -> Check {
    Check { name, holds, finding: None }
}

/// A check recorded as failing; `rows_show` says what the rows show instead.
fn finding(name: &'static str, holds: bool, rows_show: &'static str) -> Check {
    Check { name, holds, finding: Some(rows_show) }
}

/// The checks one artifact run produced.
pub type Report = Vec<Check>;

/// One paper figure or table.
pub struct Artifact {
    /// Command-line id (`fig10a`, `table2`, …).
    id: &'static str,
    /// Where the paper shows it.
    source: &'static str,
    /// What it shows.
    title: &'static str,
    /// Prints the rows and returns the checks.
    run: fn() -> Report,
}

/// Every reproduced artifact, in paper order.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact { id: "fig1", source: "Fig. 1", title: "KVCache memory & transfer latency", run: fig1 },
    Artifact { id: "fig6", source: "Fig. 6", title: "attention score distributions", run: fig6 },
    Artifact { id: "fig8", source: "Fig. 8", title: "one-layer prefill compute vs offload vs clustering", run: fig8 },
    Artifact { id: "fig9", source: "Fig. 9", title: "needle-in-a-haystack heatmap", run: fig9 },
    Artifact { id: "fig10a", source: "Fig. 10(a)", title: "multi-hop CoT vs token budget", run: fig10a },
    Artifact { id: "fig10b", source: "Fig. 10(b)", title: "PQ configuration m x b", run: fig10b },
    Artifact { id: "fig10c", source: "Fig. 10(c)", title: "score vs token ratio", run: fig10c },
    Artifact { id: "fig10d", source: "Fig. 10(d)", title: "score vs extra communication", run: fig10d },
    Artifact { id: "fig11a", source: "Fig. 11(a)", title: "Time To Second Token", run: fig11a },
    Artifact { id: "fig11b", source: "Fig. 11(b)", title: "Time Per Output Token", run: fig11b },
    Artifact { id: "fig11c", source: "Fig. 11(c)", title: "TPOT vs GPU cache size", run: fig11c },
    Artifact { id: "fig11d", source: "Fig. 11(d)", title: "cache hit rate, LRU vs LFU vs #blocks", run: fig11d },
    Artifact { id: "fig12a", source: "Fig. 12(a)", title: "prefill time decomposition", run: fig12a },
    Artifact { id: "fig12b", source: "Fig. 12(b)", title: "decode time decomposition", run: fig12b },
    Artifact { id: "fig12c", source: "Fig. 12(c)", title: "K-Means iterations trade-off", run: fig12c },
    Artifact { id: "table2", source: "Table 2", title: "LongBench-sim (Llama-8B-sim)", run: table2 },
    Artifact { id: "table3", source: "Table 3", title: "question-first QA", run: table3 },
    Artifact { id: "table4", source: "Table 4", title: "InfiniteBench-sim (Llama-8B-sim)", run: table4 },
    Artifact { id: "table5", source: "Table 5", title: "PQCache x MInference sparse prefill", run: table5 },
    Artifact { id: "table6", source: "Table 6", title: "larger model (70B-sim), half/same CPU", run: table6 },
    Artifact { id: "tablea", source: "Appendix A", title: "LongBench-sim on Mistral-7B-sim", run: tablea },
];

/// Runs the artifacts of `table` named in `ids` (all of them when `ids` is
/// empty), printing rows and verdicts. Returns the process exit status: 0
/// when no check is `CHANGED`, 1 when one is, 2 for an unknown id.
pub fn run(table: &[Artifact], ids: &[String]) -> u8 {
    if let Some(bad) = ids.iter().find(|&id| !table.iter().any(|a| a.id == id)) {
        let known: Vec<&str> = table.iter().map(|a| a.id).collect();
        eprintln!("unknown artifact `{bad}`; known: {}", known.join(" "));
        return 2;
    }
    let (mut findings, mut changed) = (0, 0);
    for a in table.iter().filter(|a| ids.is_empty() || ids.iter().any(|id| id == a.id)) {
        println!("\n=== {}: paper {} — {} ===", a.id, a.source, a.title);
        println!("(simulation scale — see EXPERIMENTS.md)");
        let report = (a.run)();
        println!();
        for c in &report {
            let note = match (c.status(), c.finding) {
                ("PASS", _) => String::new(),
                ("FINDING", Some(f)) => format!(" — rows show: {f}"),
                (_, None) => " — recorded as holding, fails now".to_string(),
                (_, Some(f)) => format!(" — recorded as failing ({f}), holds now"),
            };
            println!("{:<8} {}{note}", c.status(), c.name);
            findings += usize::from(c.status() == "FINDING");
            changed += usize::from(c.status() == "CHANGED");
        }
    }
    println!("\n{findings} FINDING, {changed} CHANGED");
    u8::from(changed > 0)
}

const ADAPTIVE: KmeansIters = KmeansIters::Adaptive { min: 1, max: 100 };

/// The paper's PQCache (m = 2, b = 6) as the latency model sees it.
fn pq_latency(iters: KmeansIters, cache_hit: f64) -> LatencyMethod {
    LatencyMethod::PqCache { m: 2, b: 6, iters, cache_hit }
}

/// A simulation model and its vocabulary layout.
fn sim(cfg: LlmConfig) -> (Model, VocabLayout) {
    let model = Model::new(cfg);
    let layout = VocabLayout::for_vocab(model.config().vocab_size);
    (model, layout)
}

/// Every method of `specs` on every task, one full-attention reference per
/// task; results are task-major.
fn evaluate(model: &Model, tasks: &[Workload], specs: &[MethodSpec], cfg: &EvalConfig) -> Vec<TaskResult> {
    tasks.iter().flat_map(|w| evaluate_workload(model, w, specs, cfg)).collect()
}

/// Agreement of each spec on one task, in `specs` order.
fn scores(model: &Model, w: &Workload, specs: &[MethodSpec], cfg: &EvalConfig) -> Vec<f64> {
    evaluate_workload(model, w, specs, cfg).iter().map(|r| r.agreement).collect()
}

/// Prints `label |` right-aligned to `label_w`, then each cell right-aligned
/// to `cell_w`.
fn row(label: impl Display, label_w: usize, cells: impl IntoIterator<Item = impl Display>, cell_w: usize) {
    let cells: String = cells.into_iter().map(|c| format!("{c:>cell_w$}")).collect();
    println!("{label:>label_w$} |{cells}");
}

fn two_dp(values: &[f64]) -> impl Iterator<Item = String> + '_ {
    values.iter().map(|v| format!("{v:.2}"))
}

/// Format seconds as milliseconds with 2 decimals.
fn ms(t: f64) -> String {
    format!("{:.2}ms", t * 1e3)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Prints `PQCache avg | best baseline (+x%) | Oracle gap` and returns
/// PQCache's lead over the best baseline (percent) and Oracle − PQCache
/// (points).
fn summary(results: &[TaskResult]) -> (f64, f64) {
    let avg = |m: &str| method_average(results, m, |r| r.agreement);
    let (pqc, gap) = (avg("PQCache"), avg("Oracle") - avg("PQCache"));
    let best = max(&["H2O(C)", "SnapKV(C)", "PyramidKV(C)", "InfLLM", "SPARQ"].map(avg));
    let lead = 100.0 * (pqc - best) / best.max(1e-9);
    println!("PQCache avg {pqc:.2} | best baseline {best:.2} ({lead:+.2}%) | Oracle gap {gap:.2}");
    (lead, gap)
}

/// Fig. 1: KVCache memory size and theoretical CPU-GPU transfer latency for
/// varying batch sizes, model sizes, and sequence lengths. Purely analytical
/// (the paper's figure is too), over PCIe Gen 5 as the paper's caption states.
fn fig1() -> Report {
    let gen5 = CostModel::pcie_gen5();
    println!("\n{:<6}{:<6}{:>10} | {:>12} {:>14}", "model", "bs", "seqlen", "KVCache", "PCIe5 xfer");
    for (name, shape) in [("7B", ModelShape::llama_7b()), ("13B", ModelShape::llama_13b())] {
        for bs in [8usize, 32, 128] {
            for s in [1usize << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10] {
                let bytes = shape.kvcache_bytes(bs, s, 2);
                let (gb, xfer) = (bytes as f64 / 1e9, gen5.transfer_time(bytes));
                println!("{name:<6}{bs:<6}{s:>10} | {gb:>10.1}GB {xfer:>12.2}s");
            }
        }
    }
    let gb = ModelShape::llama_7b().kvcache_bytes(128, 128 << 10, 2) as f64 / 1e9;
    println!("\n8xA100 memory = 640GB; 7B/bs=128/s=128K KVCache = {gb:.1}GB");
    vec![pass("7B KVCache at bs = 128, s = 128K exceeds 8xA100's 640 GB", gb > 640.0)]
}

/// Fig. 6: attention-score distributions at sampled positions are
/// power-law-like — a small set of tokens dominates the mass. A real prefill
/// over a long synthetic document; four (layer, head) panels like the paper's.
fn fig6() -> Report {
    let (model, layout) = sim(LlmConfig::small());
    // A summarisation-style document (the paper samples XSUM).
    let w = aggregation(1024, 24, &layout, 0xF16);
    let opts = PrefillOptions { capture_window: Some(32), sample_rows: vec![512, 768, 1000], ..Default::default() };
    let caps = model.prefill(&w.tokens, &opts).captures.expect("captures requested");
    let mut rows = Vec::new();
    // The paper's panels are (3,25), (11,15), (20,27), (21,16).
    for (layer, head) in [(1usize, 0usize), (3, 1), (5, 2), (7, 3)] {
        println!("\n--- layer {layer}, kv head {head} ---");
        for (row, probs) in &caps[layer][head].samples {
            let s = summarize_row(layer, head, *row, probs);
            println!(
                "query@{row}: keys={} gini={:.3} half-mass@{:.1}% 90%-mass@{:.1}% tail-slope={}",
                s.n_keys,
                s.gini,
                100.0 * s.keys_for_half_mass,
                100.0 * s.keys_for_90_mass,
                s.tail_slope.map_or("n/a".into(), |v| format!("{v:.2}")),
            );
            let curve: Vec<String> = sorted_curve(probs, 8).iter().map(|(r, p)| format!("#{r}:{p:.4}")).collect();
            println!("  sorted curve: {}", curve.join("  "));
            rows.push(s);
        }
    }
    vec![
        finding("gini > 0.5 on every sampled row", rows.iter().all(|s| s.gini > 0.5),
            "gini is 0.365–0.684; 11 of the 24 rows are below 0.5"),
        finding("half the mass within 5% of keys on every row", rows.iter().all(|s| s.keys_for_half_mass <= 0.05),
            "half the mass takes 5.7–25.2% of the keys"),
        pass("negative log-log tail slope on every row", rows.iter().all(|s| s.tail_slope.is_some_and(|v| v < 0.0))),
    ]
}

/// Fig. 8: one-layer prefill compute vs offload vs K-Means, over `s`. Compute
/// is quadratic in `s` while offload and clustering are linear, so past a
/// crossover the GPU hides both; the adaptive iteration budget (Eq. 3) keeps
/// clustering inside the compute window on the short side of the crossover.
fn fig8() -> Report {
    let (cost, shape, lm) = (CostModel::paper_testbed(), ModelShape::llama3_8b(), LatencyModel::paper_default());
    let h = ["seqlen", "compute", "offload", "kmeans(T=25)", "kmeans(adapt)", "T_max"];
    println!("\n{:>8} | {:>12} {:>12} {:>16} {:>16} {:>8}", h[0], h[1], h[2], h[3], h[4], h[5]);
    let t = [1usize << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10].map(|s| {
        let (comp, off) = (cost.prefill_layer_time(&shape, s), cost.transfer_time(shape.layer_kv_bytes(s)));
        let fixed = cost.kmeans_layer_time(&shape, s, 2, 6, 25);
        let t_max = lm.kmeans_iters(ADAPTIVE, s, 2, 6);
        let adapt = cost.kmeans_layer_time(&shape, s, 2, 6, t_max);
        println!("{:>8} | {:>12} {:>12} {:>16} {:>16} {:>8}", s, ms(comp), ms(off), ms(fixed), ms(adapt), t_max);
        (comp, fixed, adapt)
    });
    vec![
        pass("k-means at T = 25 exceeds compute at 1K", t[0].1 > t[0].0),
        finding("k-means at T = 25 is at most 10% of compute at 128K", t[7].1 <= 0.1 * t[7].0,
            "at 128K it is 25.5% of compute (2237.26 vs 8760.38 ms)"),
        pass("adaptive k-means lies in 50–100% of compute at every s",
            t.iter().all(|&(c, _, a)| a <= c && a >= 0.5 * c)),
    ]
}

/// Fig. 9: needle-in-a-haystack heatmap, context length × needle depth, per
/// method. Cell value: probed-needle retrieval rate (was the needle's position
/// selected by any head on re-probe steps) — the retrieval ability the paper's
/// green/red heatmap encodes.
fn fig9() -> Report {
    let (model, layout) = sim(LlmConfig::small());
    let cfg = quality_eval(0.1, 1.0 / 16.0);
    use MethodSpec::*;
    let methods = [Oracle, H2o, SnapKv, Sparq, InfLlm, MethodSpec::pqcache_default()];
    // Scaled lengths: 1536 tokens is this substrate's "131K".
    let lengths = [384usize, 640, 1024, 1536];
    let depths = [0.1f64, 0.3, 0.5, 0.7, 0.9];
    // grid[method][depth][length]; one reference per cell, shared by all methods.
    let mut grid = vec![[[0.0f64; 4]; 5]; methods.len()];
    for (di, &d) in depths.iter().enumerate() {
        for (si, &s) in lengths.iter().enumerate() {
            let w = needle(s, d, &layout, 0xF19 + s as u64 * 31 + (d * 10.0) as u64);
            for (mi, r) in evaluate_workload(&model, &w, &methods, &cfg).iter().enumerate() {
                grid[mi][di][si] = r.planted_recall;
            }
        }
    }
    let mut means = Vec::new();
    for (spec, cells) in methods.iter().zip(&grid) {
        println!("\n--- {} (cell = needle retrieval rate) ---", spec.name());
        println!("{:>8}{}", "depth\\s", lengths.iter().map(|s| format!("{s:>8}")).collect::<String>());
        let mut total = 0.0;
        for (d, row) in depths.iter().zip(cells) {
            println!("{d:>8.1}{}", row.iter().map(|v| format!("{v:>8.2}")).collect::<String>());
            row.iter().for_each(|v| total += v);
        }
        means.push(total / (depths.len() * lengths.len()) as f64);
        println!("  mean over grid: {:.3}", means[means.len() - 1]);
    }
    let green = |mi: usize| grid[mi].iter().all(|row| row.iter().sum::<f64>() / 4.0 >= 0.8);
    vec![
        pass("Oracle, PQCache and SnapKV(C) average >= 0.8 at every depth", green(0) && green(5) && green(2)),
        finding("InfLLM's grid mean is below half of Oracle's", means[4] < 0.5 * means[0],
            "InfLLM averages 0.625 vs Oracle's 0.988: it misses at 384 tokens (0.10) but finds most needles from 640"),
        pass("H2O(C)'s grid mean is below Oracle's", means[1] < means[0]),
    ]
}

/// Figs. 10a/10c: one row per token ratio at 1/32 comm, one column per
/// method (mean agreement over `tasks`). Returns `[ratio][method]`.
fn ratio_sweep(model: &Model, tasks: &[Workload], methods: &[MethodSpec], ratios: &[f64]) -> Vec<Vec<f64>> {
    println!();
    row("ratio", 8, methods.iter().map(|m| m.name()), 14);
    let sweep = ratios.iter().map(|&ratio| {
        let results = evaluate(model, tasks, methods, &quality_eval(ratio, 1.0 / 32.0));
        let s: Vec<f64> = methods.iter().map(|m| method_average(&results, m.name(), |r| r.agreement)).collect();
        row(format!("{ratio:.2}"), 8, two_dp(&s), 14);
        s
    });
    sweep.collect()
}

/// Whether the last column beats every column in `others` on every row.
fn last_leads(table: &[Vec<f64>], others: std::ops::Range<usize>) -> bool {
    table.iter().all(|r| r[others.clone()].iter().all(|&b| r[r.len() - 1] > b))
}

/// Fig. 10(a): GSM8k chain-of-thought proxy — multi-hop chained facts —
/// accuracy (top-5 agreement) across token budgets, per method. The paper
/// runs GSM8k-CoT on Mistral, so this uses the second model config.
fn fig10a() -> Report {
    let (model, layout) = sim(LlmConfig::mistral_sim());
    use MethodSpec::*;
    let methods = [H2o, SnapKv, PyramidKv, Sparq, InfLlm, MethodSpec::pqcache_default()];
    let tasks: Vec<_> = (0..3).map(|i| cot_chain(768, 3 + i % 2, &layout, 0xC07 + i as u64)).collect();
    let t = ratio_sweep(&model, &tasks, &methods, &[0.05, 0.1, 0.2, 0.4]);
    vec![
        finding("PQCache scores above every baseline at every ratio", last_leads(&t, 0..5),
            "at 0.05 PQCache (67.50) trails SnapKV(C) and PyramidKV(C) (69.17); it leads from 0.10 on"),
        pass("every method's score is non-decreasing in the ratio",
            t.windows(2).all(|p| p[0].iter().zip(&p[1]).all(|(a, b)| b >= a))),
    ]
}

/// Fig. 10(b): PQ configuration sweep m×b at (near-)constant communication.
/// The paper sweeps m·b ≤ 16 on HotpotQA and Qasper; 2×6 is the chosen
/// default. Cell value: top-5 agreement at 1/10 tokens.
fn fig10b() -> Report {
    let (model, layout) = sim(LlmConfig::mistral_sim());
    let cfg = quality_eval(0.1, 1.0 / 16.0);
    let configs = [(1usize, 8u32), (2, 4), (2, 6), (2, 8), (4, 4), (8, 2)];
    let specs = configs.map(|(m, b)| MethodSpec::PqCache { m, b, iters: 15 });
    println!();
    row("config (mxb)", 14, configs.map(|(m, b)| format!("{m}x{b}")), 10);
    let hotpot = cot_chain(768, 2, &layout, 0x10B1);
    let qasper = qa(768, 6, QuestionPosition::End, &layout, 0x10B2);
    let t = [("HotpotQA-sim", hotpot), ("Qasper-sim", qasper)].map(|(name, w)| {
        let s = scores(&model, &w, &specs, &cfg);
        row(name, 14, two_dp(&s), 10);
        s
    });
    vec![
        finding("8x2 scores below every other configuration on each task",
            t.iter().all(|r| r[..5].iter().all(|&v| r[5] < v)),
            "8x2 is mid-pack: above 2x8 on HotpotQA-sim (76.67 vs 75.83), above 1x8, 2x4 and 2x6 on Qasper-sim"),
        pass("every configuration within 10 points of the task's best",
            t.iter().all(|r| r.iter().all(|&v| v >= max(r) - 10.0))),
        pass("2x6 within 5 points of the task's best", t.iter().all(|r| r[2] >= max(r) - 5.0)),
    ]
}

/// Fig. 10(c): score vs selected-token ratio (0.05–0.4) at fixed
/// 1/128-equivalent communication, on the HotpotQA stand-in.
fn fig10c() -> Report {
    let (model, layout) = sim(LlmConfig::mistral_sim());
    use MethodSpec::*;
    let methods = [Oracle, H2o, SnapKv, Sparq, InfLlm, MethodSpec::pqcache_default()];
    let t = ratio_sweep(&model, &[cot_chain(1024, 2, &layout, 0x10C)], &methods, &[0.05, 0.1, 0.2, 0.3, 0.4]);
    vec![
        pass("every method scores at least as high at 0.4 as at 0.05", t[0].iter().zip(&t[4]).all(|(a, b)| b >= a)),
        finding("PQCache scores above every non-Oracle method at every ratio", last_leads(&t, 1..5),
            "SnapKV(C) leads at 0.05 (72.50 vs 71.67) and 0.10 (80.00 vs 76.67), where InfLLM ties PQCache"),
        pass("PQCache within 5 points of Oracle at every ratio", t.iter().all(|r| (r[5] - r[0]).abs() <= 5.0)),
    ]
}

/// Fig. 10(d): score vs extra-communication budget at fixed 1/5 tokens. SPARQ
/// and InfLLM may move more proxy data per step as the budget grows; PQCache
/// is expected to be near-saturated at the smallest budget — the paper's point
/// that PQ structures are communication-efficient.
fn fig10d() -> Report {
    let (model, layout) = sim(LlmConfig::mistral_sim());
    let w = cot_chain(1024, 2, &layout, 0x10D);
    // Fractions from 1/32 (sim-scale floor) to 1/4, each with the PQCache
    // config m·b = 16·dh·f at dh = 32; b is capped at 8, so 1/4 runs 8x8.
    let budgets = [(32, 2, 8), (16, 4, 8), (8, 8, 8), (4, 8, 8)];
    println!("\n{:>10} | {:>12} {:>12} {:>12}", "comm", "SPARQ", "InfLLM", "PQCache");
    let t = budgets.map(|(n, m, b)| {
        let specs = [MethodSpec::Sparq, MethodSpec::InfLlm, MethodSpec::PqCache { m, b, iters: 15 }];
        let r = scores(&model, &w, &specs, &quality_eval(0.2, 1.0 / n as f64));
        println!("{:>10} | {:>12.2} {:>12.2} {:>12.2}", format!("1/{n}"), r[0], r[1], r[2]);
        r
    });
    let pq = t.each_ref().map(|r| r[2]);
    vec![
        finding("SPARQ and InfLLM each score higher at 1/4 than at 1/32", t[3][0] > t[0][0] && t[3][1] > t[0][1],
            "SPARQ climbs 85.83 -> 87.50 but InfLLM falls 88.33 -> 87.50 (84.17 at 1/16)"),
        pass("PQCache's scores span at most 2 points across budgets", max(&pq) - min(&pq) <= 2.0),
    ]
}

/// Figs. 11a/11b: one row per paper-scale length (k = s/5 capped at 4096),
/// one column per method; `cell` gives each (value, printed cell). Returns
/// `[s][method]` over H2O, SnapKV, PyramidKV, SPARQ, InfLLM, PQCache.
fn latency_grid(cell: impl Fn(&LatencyModel, &LatencyMethod, usize, usize) -> (f64, String)) -> Vec<Vec<f64>> {
    let lm = LatencyModel::paper_default();
    use LatencyMethod::*;
    let methods = [H2o, SnapKv, PyramidKv, Sparq { r: 2 }, InfLlm { block: 128, reps: 2 }, pq_latency(ADAPTIVE, 0.6)];
    println!();
    row("seqlen", 8, methods.iter().map(|m| m.name()), 12);
    let grid = [8usize << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10].map(|s| {
        let k = (s / 5).min(4096);
        let (values, cells): (Vec<f64>, Vec<String>) = methods.iter().map(|m| cell(&lm, m, s, k)).unzip();
        row(s, 8, cells, 12);
        values
    });
    grid.to_vec()
}

/// Fig. 11(a): Time To Second Token vs input length. TT2T covers prefill plus
/// the first decode step, so it charges PQCache for any clustering that failed
/// to overlap, H2O for its FlashAttention incompatibility, and SPARQ for its
/// first full key scan.
fn fig11a() -> Report {
    let t = latency_grid(|lm, m, s, k| {
        let t = lm.tt2t(m, s, k);
        let oom = matches!(m, LatencyMethod::H2o) && lm.h2o_prefill_oom(s);
        (t, format!("{t:.2}s{}", if oom { "*" } else { "" }))
    });
    println!("\n(* = H2O's O(s^2) score matrix exceeds 24GB GPU memory: the paper reports OOM / multi-GPU)");
    let tracks = |r: &Vec<f64>, i: usize| (r[5] / r[i] - 1.0).abs() <= 0.1;
    vec![
        pass("PQCache TT2T within 10% of SnapKV's and PyramidKV's at every s",
            t.iter().all(|r| tracks(r, 1) && tracks(r, 2))),
        pass("SPARQ TT2T above SnapKV's at every s", t.iter().all(|r| r[3] > r[1])),
        pass("H2O has the highest TT2T at every s", t.iter().all(|r| r[1..].iter().all(|&v| r[0] > v))),
    ]
}

/// Fig. 11(b): Time Per Output Token vs sequence length. The retrieval set is
/// capped by GPU memory (paper §5), so SPARQ's per-step full-key scan is the
/// only traffic that keeps growing with `s` — the paper's "SPARQ scales
/// linearly, everything else stays below human reading speed (~333
/// tokens/min ≈ 0.18 s/token)".
fn fig11b() -> Report {
    const BUDGET: f64 = 0.18;
    let t = latency_grid(|lm, m, s, k| {
        let t = lm.tpot(m, s, k, 0);
        (t, ms(t))
    });
    println!("\nHuman reading speed budget: {}/token.", ms(BUDGET));
    vec![
        finding("SPARQ TPOT at 128K is at least 8x its 8K value (16x the context)", t[4][3] >= 8.0 * t[0][3],
            "16x the context costs SPARQ 4.1x the TPOT (65.88 -> 272.29 ms)"),
        pass("SPARQ is under 180 ms at 8K and over it at 128K", t[0][3] < BUDGET && t[4][3] > BUDGET),
        pass("every method but SPARQ stays under 180 ms at every s",
            t.iter().all(|r| r.iter().enumerate().all(|(i, &v)| i == 3 || v < BUDGET))),
        finding("PQCache TPOT at 128K is at most 1.5x its 8K value", t[4][5] <= 1.5 * t[0][5],
            "PQCache's TPOT rises 2.7x from 8K to 128K (24.81 -> 67.28 ms), 1.16x from 32K on"),
    ]
}

/// Steady-state GPU-cache hit rate of a PQCache session on `w` over 48
/// teacher-forced steps.
fn hit_rate(model: &Model, w: &Workload, cache: CacheConfig, token_ratio: f64, driver_seed: u64) -> f64 {
    let cfg = SessionConfig { cache, ..quality_session(token_ratio, 1.0 / 32.0) };
    let policy = MethodSpec::pqcache_default().build(model.config().head_dim, 1.0 / 32.0);
    let mut session = SelectiveSession::start(model, policy, cfg, &w.tokens).session;
    let mut scratch = pqc_core::SessionScratch::new();
    for &t in &driver_tokens(w, model.config().vocab_size, 48, driver_seed) {
        let _ = session.step_with_scratch(t, &mut scratch);
    }
    session.cache_stats().hit_rate()
}

/// Fig. 11(c): decode TPOT vs GPU-cache size, including the token-level cache
/// ablation. Hit rates are measured on the simulation model with a real
/// PQCache session per cache size, then fed into the paper-scale latency
/// model; token-level caching also pays per-token management overhead.
fn fig11c() -> Report {
    let (model, layout) = sim(LlmConfig::small());
    let lm = LatencyModel::paper_default();
    let w = needle(1024, 0.5, &layout, 0xCAFE);
    let cache = |capacity_tokens, block_size, k_cache_blocks| CacheConfig {
        capacity_tokens,
        block_size,
        lfu: true,
        k_cache_blocks,
    };
    // Simulation cache sizes; paper-scale equivalents are 8x larger (sim
    // context 1024 vs paper 8K-128K); block 32 tokens (paper 128), 1 for the
    // token-level cache.
    let configs = [
        ("0 (no cache)", cache(0, 32, 8)),
        ("2K-eq", cache(256, 32, 8)),
        ("4K-eq", cache(512, 32, 8)),
        ("8K-eq", cache(1024, 32, 16)),
        ("4K-eq token-level", cache(512, 1, 512)),
    ];
    let (s, k) = (128 << 10, 4096usize);
    println!("\n{:>20} | {:>10} {:>12}", "cache", "hit rate", "TPOT");
    let mut t: Vec<f64> = Vec::new();
    for (name, cfg) in configs {
        let hit = hit_rate(&model, &w, cfg, 0.2, 7);
        // Management ops per step at paper scale: per selected token for the
        // token-level cache, per block otherwise, per layer per kv head.
        let per_lh = (if cfg.block_size == 1 { k } else { k / 128 }) as u64;
        let ops = per_lh * (lm.shape.n_layers as u64) * (lm.shape.n_kv_heads as u64);
        let tpot = lm.tpot(&pq_latency(ADAPTIVE, hit), s, k, ops);
        let change = 100.0 * (tpot / t.first().unwrap_or(&tpot) - 1.0);
        println!("{:>20} | {:>10.3} {:>12}  ({change:+.1}% vs no cache)", name, hit, ms(tpot));
        t.push(tpot);
    }
    vec![
        pass("every block-level cache cuts TPOT by at least 10%", t[1..4].iter().all(|&v| v <= 0.9 * t[0])),
        pass("token-level TPOT exceeds the no-cache TPOT", t[4] > t[0]),
    ]
}

/// Fig. 11(d): GPU-cache hit rate for LRU vs LFU across the number of
/// written-back blocks (`top-k_cache`), measured on live PQCache sessions.
fn fig11d() -> Report {
    let (model, layout) = sim(LlmConfig::small());
    // Paper uses HotpotQA; our multi-fact QA stand-in.
    let w = qa(1024, 8, QuestionPosition::End, &layout, 0x11D);
    let rate = |lfu, k_cache_blocks| {
        hit_rate(&model, &w, CacheConfig { capacity_tokens: 512, block_size: 32, lfu, k_cache_blocks }, 0.1, 3)
    };
    // The cache holds 512/32 = 16 blocks at sim scale (paper: 4K/128 = 32).
    println!("\n{:>10} | {:>8} {:>8}", "k_cache", "LRU", "LFU");
    let t = [2usize, 4, 8, 16, 24, 32].map(|blocks| {
        let (lru, lfu) = (rate(false, blocks), rate(true, blocks));
        println!("{blocks:>10} | {lru:>8.3} {lfu:>8.3}");
        (lru, lfu)
    });
    vec![
        pass("LRU and LFU within 0.05 of each other at every k_cache", t.iter().all(|r| (r.0 - r.1).abs() <= 0.05)),
        finding("LRU and LFU are non-decreasing from 2 to 16 blocks",
            t[..4].windows(2).all(|p| p[1].0 >= p[0].0 && p[1].1 >= p[0].1),
            "hit rates sit at 0.50–0.52 throughout; 2 -> 16 blocks moves LRU 0.517 -> 0.509, LFU 0.515 -> 0.508"),
        finding("LRU and LFU are below their 16-block rates at 24 and 32 blocks",
            t[4..].iter().all(|r| r.0 < t[3].0 && r.1 < t[3].1),
            "LRU rises past capacity (0.517, 0.519 vs 0.509); LFU is 0.511 at 24 vs 0.508"),
    ]
}

/// Fig. 12(a): prefilling-phase time decomposition — GPU compute, KVCache
/// offload, K-Means, and the overlapped end-to-end time.
fn fig12a() -> Report {
    let lm = LatencyModel::paper_default();
    let secs = |t: f64| format!("{t:.2}s");
    let h = ["seqlen", "compute", "offload", "kmeans", "end-to-end", "hidden"];
    println!("\n{:>8} | {:>10} {:>10} {:>10} {:>12} {:>10}", h[0], h[1], h[2], h[3], h[4], h[5]);
    let t = [16usize << 10, 32 << 10, 64 << 10, 128 << 10].map(|s| {
        let d = lm.prefill(&pq_latency(ADAPTIVE, 0.6), s).decomp;
        let (c, o, k, e) = (secs(d.compute), secs(d.offload), secs(d.kmeans), secs(d.end_to_end));
        println!("{s:>8} | {c:>10} {o:>10} {k:>10} {e:>12} {:>9.1}%", 100.0 * d.overlap_savings());
        d
    });
    vec![
        pass("k-means at most compute at every s", t.iter().all(|d| d.kmeans <= d.compute)),
        finding("end-to-end within 1% of compute at every s", t.iter().all(|d| d.end_to_end <= 1.01 * d.compute),
            "end-to-end exceeds compute by about 3% at every s (289.15 vs 280.33 s at 128K)"),
    ]
}

/// Fig. 12(b): decoding-phase time decomposition — PQ computation, LLM
/// computation, communication (codes + top-k fetch), and the overlapped
/// end-to-end step time.
fn fig12b() -> Report {
    let lm = LatencyModel::paper_default();
    let h = ["seqlen", "pq-search", "llm", "pq-comm", "topk-fetch", "end-to-end"];
    println!("\n{:>8} | {:>10} {:>10} {:>10} {:>10} {:>12}", h[0], h[1], h[2], h[3], h[4], h[5]);
    let t = [16usize << 10, 32 << 10, 64 << 10, 128 << 10].map(|s| {
        let k = (s / 5).min(4096);
        // Components WITHOUT the cache (the paper profiles them without the
        // GPU-cache optimisation, then reports optimised end-to-end).
        let d = lm.decode_step(&pq_latency(ADAPTIVE, 0.0), s, k, &[]).decomp;
        let opt = lm.decode_step(&pq_latency(ADAPTIVE, 0.6), s, k, &[]).decomp.end_to_end;
        let (p, l, c, f) = (ms(d.pq_search), ms(d.compute), ms(d.pq_comm), ms(d.topk_fetch));
        println!("{s:>8} | {p:>10} {l:>10} {c:>10} {f:>10} {:>12}", format!("{} (opt)", ms(opt)));
        (d.pq_search + d.compute + d.pq_comm + d.topk_fetch, opt)
    });
    vec![
        pass("optimised end-to-end below the sum of the four components at every s",
            t.iter().all(|&(sum, opt)| opt < sum)),
        pass("optimised end-to-end at 128K at most 1.5x its 16K value", t[3].1 <= 1.5 * t[0].1),
    ]
}

/// Fig. 12(c): quality/latency trade-off across K-Means iteration budgets.
/// Quality (top-5 agreement) comes from real sessions at simulation scale;
/// TT2T from the paper-scale latency model with the same budgets.
fn fig12c() -> Report {
    let (model, layout) = sim(LlmConfig::mistral_sim());
    let w = cot_chain(1024, 2, &layout, 0x12C);
    let lm = LatencyModel::paper_default();
    let s = 16 << 10; // short input: the regime where the iteration budget bites
    let adaptive = lm.kmeans_iters(ADAPTIVE, s, 2, 6);
    let fixed = |t: usize| (t.to_string(), t, KmeansIters::Fixed(t));
    let budgets = [("adaptive".to_string(), adaptive, ADAPTIVE), fixed(1), fixed(3), fixed(10), fixed(30), fixed(100)];
    let specs = budgets.each_ref().map(|&(_, iters, _)| MethodSpec::PqCache { m: 2, b: 6, iters });
    let quality = scores(&model, &w, &specs, &quality_eval(0.1, 1.0 / 32.0));
    println!("\n{:>10} | {:>10} {:>12}", "iters", "score", "TT2T(16K)");
    let mut tt2t = Vec::new();
    for ((label, _, iters), q) in budgets.iter().zip(&quality) {
        tt2t.push(lm.tt2t(&pq_latency(*iters, 0.6), s, s / 10));
        println!("{label:>10} | {q:>10.2} {:>11.2}s", tt2t[tt2t.len() - 1]);
    }
    println!("\n(adaptive resolves to {adaptive} iterations at s = 16K on this cost model)");
    vec![
        finding("score is non-decreasing over 1, 3, 10, 30, 100 iterations",
            quality[1..].windows(2).all(|p| p[1] >= p[0]),
            "score peaks at 3 iterations (80.83) and falls to 76.67 at 30 and 100"),
        pass("TT2T at 100 iterations is at least 2x TT2T at 1 iteration", tt2t[5] >= 2.0 * tt2t[1]),
        finding("adaptive TT2T within 1% of the lowest TT2T", tt2t[0] <= 1.01 * min(&tt2t),
            "adaptive (23 iterations) takes 8.62 s vs 8.37 s at 1 iteration, 3% above the floor"),
    ]
}

/// Tables 2 and 4: the lineup on `tasks` at 1/5 and 1/10 tokens with `comm`
/// extra communication; `more` prints a supplementary view of each budget's
/// results. Returns [`summary`] per budget.
fn two_budgets(
    model: &Model,
    tasks: &[Workload],
    specs: &[MethodSpec],
    comm: f64,
    more: impl Fn(&[TaskResult]),
) -> [(f64, f64); 2] {
    [0.2f64, 0.1].map(|ratio| {
        let results = evaluate(model, tasks, specs, &quality_eval(ratio, comm));
        let (tokens, comm) = ((1.0 / ratio) as usize, (1.0 / comm) as usize);
        println!("\n--- 1/{tokens} tokens + 1/{comm}-eq comm: top-5 agreement score ---");
        print!("{}", format_table(&results, |r| r.agreement));
        more(&results);
        summary(&results)
    })
}

/// Table 2: LongBench-sim at 1/5 and 1/10 token budgets with 1/128-equivalent
/// extra communication. Scores are teacher-forced top-5 agreement with the
/// full-attention reference (×100); a hidden-state-cosine table is printed as
/// a supplementary view.
fn table2() -> Report {
    let (model, _) = sim(LlmConfig::small());
    let tasks = longbench_sim(model.config().vocab_size);
    // At sim scale (dh=32) the paper's 1/128 maps to the smallest budget
    // every method can express: 1/32 of key memory (SPARQ r=1).
    let t = two_budgets(&model, &tasks, &MethodSpec::paper_lineup(), 1.0 / 32.0, |results| {
        println!("\n--- hidden-state cosine x100 ---");
        print!("{}", format_table(results, |r| 100.0 * r.hidden_cosine));
    });
    vec![
        pass("PQCache's average tops the best baseline at 1/5 and at 1/10", t[0].0 > 0.0 && t[1].0 > 0.0),
        finding("PQCache's average within 2 points of Oracle's at 1/5 and at 1/10",
            t.iter().all(|&(_, gap)| gap.abs() <= 2.0),
            "Oracle leads PQCache by 2.27 points at 1/5 and 2.12 at 1/10"),
        pass("PQCache's lead over the best baseline (%) is larger at 1/10 than at 1/5", t[1].0 > t[0].0),
    ]
}

/// Table 3: QA with the question placed *before* the context. SnapKV and
/// PyramidKV rank tokens by the prompt's last window; with the question at the
/// front that window holds filler and their kept sets go blind. PQCache is
/// position-agnostic; the paper reports +7.10% for it over both.
fn table3() -> Report {
    let (model, _) = sim(LlmConfig::small());
    let tasks = question_first_sim(model.config().vocab_size);
    let specs = [MethodSpec::SnapKv, MethodSpec::PyramidKv, MethodSpec::pqcache_default()];
    let results = evaluate(&model, &tasks, &specs, &quality_eval(0.1, 1.0 / 32.0));
    println!("\n--- top-5 agreement score (1/10 tokens) ---");
    print!("{}", format_table(&results, |r| r.agreement));
    println!("\n--- planted-fact recall ---");
    print!("{}", format_table(&results, |r| 100.0 * r.planted_recall));
    let combined = |m| method_average(&results, m, |r| (r.agreement + 100.0 * r.planted_recall) / 2.0);
    let recall = |m| method_average(&results, m, |r| r.planted_recall);
    let (pqc, snap, pyra) = (combined("PQCache"), combined("SnapKV(C)"), combined("PyramidKV(C)"));
    let (snap_pct, pyra_pct) = (100.0 * (pqc - snap) / snap.max(1e-9), 100.0 * (pqc - pyra) / pyra.max(1e-9));
    print!("\nCombined (fidelity+retrieval) score: PQCache {pqc:.2} vs SnapKV(C) {snap:.2} ({snap_pct:+.2}%)");
    println!(" / PyramidKV(C) {pyra:.2} ({pyra_pct:+.2}%)");
    vec![
        pass("PQCache's combined score above SnapKV(C)'s and PyramidKV(C)'s", pqc > snap && pqc > pyra),
        finding("SnapKV(C)'s and PyramidKV(C)'s mean recall each below half of PQCache's",
            recall("SnapKV(C)").max(recall("PyramidKV(C)")) < 0.5 * recall("PQCache"),
            "mean planted recall is 58.33% for SnapKV(C) and 75.00% for PyramidKV(C) vs 100.00% for PQCache"),
    ]
}

/// Table 4: InfiniteBench-sim — longer contexts, retrieval-heavy tasks,
/// 1/64-equivalent extra communication (scaled to 1/16 at d_h = 32). The
/// abstract's headline is PQCache +4.60% over the best baseline here.
fn table4() -> Report {
    let (model, _) = sim(LlmConfig::small());
    let tasks = infinitebench_sim(model.config().vocab_size);
    let mut specs = MethodSpec::paper_lineup();
    // InfiniteBench runs the richer PQ config (paper: m=4, b=8 ⇒ 1/64).
    *specs.last_mut().expect("the lineup ends with PQCache") = MethodSpec::PqCache { m: 4, b: 8, iters: 15 };
    let t = two_budgets(&model, &tasks, &specs, 1.0 / 16.0, |results| {
        println!("--- planted recall (retrieval tasks) ---");
        let retr: Vec<TaskResult> = results.iter().filter(|r| r.task.starts_with("Retr")).cloned().collect();
        print!("{}", format_table(&retr, |r| 100.0 * r.planted_recall));
    });
    vec![
        finding("PQCache's average tops the best baseline at 1/5", t[0].0 > 0.0,
            "PQCache 88.33 vs PyramidKV(C) 88.98 (-0.73%); the abstract reports +4.60%"),
        pass("PQCache's average tops the best baseline at 1/10", t[1].0 > 0.0),
    ]
}

/// Table 5: PQCache combined with MInference-style sparse prefill. The sparse
/// Λ-shaped pattern changes the hidden states and hence the KVCache PQCache
/// clusters; the paper finds MInference alone degrades quality and that
/// PQCache composes with it at only slight additional cost.
fn table5() -> Report {
    let (model, _) = sim(LlmConfig::small());
    let cfg = quality_eval(0.2, 1.0 / 16.0);
    let (full, pqc) = (MethodSpec::Full, MethodSpec::PqCache { m: 4, b: 8, iters: 15 });
    let mut results = Vec::new();
    for w in &infinitebench_sim(model.config().vocab_size) {
        let rf = reference(&model, w, &cfg); // dense full-attention reference
        // Sparse Λ-shape prefill: init stripe + local slash (MInference-like).
        let pattern = PrefillPattern::AShape { init: 8, local: 48 };
        let opts = PrefillOptions { pattern, capture_window: Some(cfg.session.obs_window), ..Default::default() };
        let sparse = model.prefill(&w.tokens, &opts);
        // Full (dense), PQC (dense prefill), MInf (sparse prefill + full
        // decode), Comb (sparse prefill + PQCache decode).
        let dense = &rf.prefill;
        let runs = [("Full", dense, full), ("PQC", dense, pqc), ("MInf", &sparse, full), ("Comb", &sparse, pqc)];
        for (method, prefill, spec) in runs {
            results.push(TaskResult { method, ..evaluate_method_with_prefill(&model, w, &rf, prefill, spec, &cfg) });
        }
    }
    println!("\n--- top-5 agreement score (1/5 tokens, 1/16-eq comm) ---");
    print!("{}", format_table(&results, |r| r.agreement));
    let avg = |m| method_average(&results, m, |r| r.agreement);
    let (f, p, m, c) = (avg("Full"), avg("PQC"), avg("MInf"), avg("Comb"));
    println!("\nFull {f:.2} ~ PQC {p:.2} > MInf {m:.2} ~ Comb {c:.2}");
    vec![
        pass("MInf's average below Full's", m < f),
        finding("Comb's average at most 2 points below MInf's", c >= m - 2.0,
            "Comb averages 85.09, 2.22 points below MInf's 87.31"),
    ]
}

/// Table 6: PQCache on the larger model with half / same CPU resources.
/// Scaling a Llama-family model multiplies GPU work per layer but keeps `h_kv`
/// (hence clustering work) constant, so the same CPU budget buys more K-Means
/// iterations relative to the compute window. Half/same CPU is emulated with
/// halved/full iteration budgets.
fn table6() -> Report {
    let (model, _) = sim(LlmConfig::large());
    // Subset for runtime: the large model's prefill is ~4x the small one.
    let tasks = &longbench_sim(model.config().vocab_size)[..6];
    let pq = |iters| MethodSpec::PqCache { m: 2, b: 6, iters };
    let mut results = evaluate(&model, tasks, &[MethodSpec::Full, pq(7), pq(15)], &quality_eval(0.2, 1.0 / 32.0));
    for (r, name) in results.iter_mut().zip(["Full", "PQC-half", "PQC-same"].into_iter().cycle()) {
        r.method = name;
    }
    println!("\n--- top-5 agreement score (1/5 tokens, 1/128-eq comm) ---");
    print!("{}", format_table(&results, |r| r.agreement));
    let avg = |m| method_average(&results, m, |r| r.agreement);
    let (f, h, s) = (avg("Full"), avg("PQC-half"), avg("PQC-same"));
    println!("\nFull {f:.2} vs PQC-half {h:.2} vs PQC-same {s:.2}");
    vec![finding("PQC-half and PQC-same each within 2 points of Full", (f - h).abs() <= 2.0 && (f - s).abs() <= 2.0,
        "PQC-half averages 83.61 and PQC-same 83.75 vs Full's 100.00")]
}

/// Appendix A: LongBench-sim on the second model configuration (Mistral-7B
/// stand-in: different weights, FFN width, RoPE base).
fn tablea() -> Report {
    let (model, _) = sim(LlmConfig::mistral_sim());
    let tasks = longbench_sim(model.config().vocab_size);
    let results = evaluate(&model, &tasks[..8], &MethodSpec::paper_lineup(), &quality_eval(0.2, 1.0 / 32.0));
    println!("\n--- top-5 agreement score (1/5 tokens) ---");
    print!("{}", format_table(&results, |r| r.agreement));
    let (lead, _) = summary(&results);
    vec![finding("PQCache's average tops the best baseline, as in Table 2", lead > 0.0,
        "PQCache 85.10 vs PyramidKV(C) 85.21 (-0.12%)")]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(id: &'static str, run: fn() -> Report) -> Artifact {
        Artifact { id, source: "test", title: "synthetic", run }
    }

    #[test]
    fn runner_fails_only_on_a_changed_verdict() {
        let regressed = || vec![pass("recorded holding, fails now", false)];
        let fixed = || vec![finding("recorded failing, holds now", true, "rows disagreed")];
        let still_failing = || vec![finding("recorded failing, still fails", false, "rows disagree")];
        let holding = || vec![pass("recorded holding, holds", true)];
        assert_eq!(regressed()[0].status(), "CHANGED");
        assert_eq!(fixed()[0].status(), "CHANGED");
        assert_eq!(still_failing()[0].status(), "FINDING");
        assert_eq!(holding()[0].status(), "PASS");

        let table = [
            artifact("regressed", regressed),
            artifact("fixed", fixed),
            artifact("still", still_failing),
            artifact("holding", holding),
        ];
        assert_eq!(run(&table, &[]), 1);
        assert_eq!(run(&table, &["regressed".into()]), 1);
        assert_eq!(run(&table, &["fixed".into()]), 1);
        assert_eq!(run(&table, &["still".into(), "holding".into()]), 0);
        assert_eq!(run(&table, &["nope".into()]), 2);
    }

    #[test]
    fn artifact_ids_are_unique() {
        let mut ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 21);
    }
}
