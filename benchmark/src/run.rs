//! One benchmark run of one workload: the timed (untraced) run that yields
//! the end-to-end metrics, and the traced run that yields the per-layer
//! metrics. Both end in the correctness gate.

use crate::anatomy::{Driver, DriverConfig, Prompt};
use crate::json::Value;
use crate::report::describe;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workloads::{digest_outputs, Kind, Mode, Output, Rep, Request, ServeCounters, Workload};
use pqc_memhier::DEFAULT_PAGE_TOKENS;
use pqc_pq::PqConfig;
use std::time::Instant;

/// The set-up (model build, input generation, warm-up pass) is run at least
/// `SETUP_REPS.0` times, and up to `SETUP_REPS.1` times while the set-ups
/// together stay under [`SETUP_BUDGET_S`]; `setup_s` is the median. Short
/// set-ups are dominated by thread start-up and vary by a factor of two, so
/// they need the larger sample.
const SETUP_REPS: (usize, usize) = (5, 15);
const SETUP_BUDGET_S: f64 = 2.0;

/// Seed-1 digests of every workload's generated tokens, per mode. A later
/// change that alters any generated token fails the gate on seed 1.
const GOLDEN: &str = include_str!("../golden.json");

/// Outcome of one run, in the shape the acceptance pipeline reads.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` for every declared metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why the gate failed, if it did.
    pub problems: Vec<String>,
    pub digest: u64,
    /// Extra detail for the result file (rep statistics, sample counts).
    pub detail: Value,
}

impl RunOutput {
    /// The protocol line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn protocol_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(*value)),
                        ("unit", Value::str(*unit)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    }
}

fn golden_digest(mode: Mode, kind: Kind) -> Option<u64> {
    let table = crate::json::parse(GOLDEN).expect("golden.json is valid JSON");
    let hex = table.get(mode.name())?.get(kind.name())?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Digest of a run: the rep's digest for serve workloads (every rep serves
/// the same requests), the digest over both sessions for `deep_*`.
fn run_digest(workload: &Workload, reps: &[Rep]) -> u64 {
    match workload {
        Workload::Serve(_) => reps[0].digest,
        Workload::Deep(w) => {
            let sessions: Vec<Output> = reps
                .iter()
                .take(w.prefills.len())
                .flat_map(|r| r.outputs.clone())
                .collect();
            digest_outputs(&sessions)
        }
    }
}

fn driver_config(workload: &Workload) -> DriverConfig {
    match workload {
        Workload::Serve(w) => DriverConfig {
            session: w.cfg.session,
            policy: w.policy,
            page_tokens: w.cfg.page_tokens,
            prefix_cache: w.cfg.prefix_cache,
            prefill_chunk: w.cfg.prefill_chunk_tokens,
            checkpoint_every: w.cfg.checkpoint_every_ticks.map(|t| t as usize),
        },
        Workload::Deep(w) => DriverConfig {
            session: w.session,
            policy: w.policy,
            page_tokens: DEFAULT_PAGE_TOKENS,
            prefix_cache: false,
            prefill_chunk: None,
            checkpoint_every: None,
        },
    }
}

/// Drive `requests` (serve) or every session (deep) through the sequential
/// driver; returns its outputs in id order, its wall and the driver.
fn drive<'w>(
    workload: &'w Workload,
    requests: &[&Request],
    trace: bool,
) -> (Vec<Output>, f64, Driver<'w>) {
    let cfg = driver_config(workload);
    let t0 = Instant::now();
    let (outputs, driver) = match workload {
        Workload::Serve(w) => {
            let mut driver = Driver::new(&w.model, cfg, trace);
            let out = requests
                .iter()
                .map(|r| driver.run_request(r.id, Prompt::Tokens(&r.tokens), r.decode_steps))
                .collect();
            (out, driver)
        }
        Workload::Deep(w) => {
            let mut driver = Driver::new(&w.model, cfg, trace);
            let out = w
                .prefills
                .iter()
                .enumerate()
                .map(|(i, p)| driver.run_request(i as u64, Prompt::Fabricated(p), w.steps))
                .collect();
            (out, driver)
        }
    };
    (outputs, t0.elapsed().as_secs_f64(), driver)
}

/// Requests the sequential reference re-runs after a timed run: as many as
/// fit a fixed prefill budget (prefill is quadratic in the prompt), spread
/// evenly over the request list. Empty when one prompt alone exceeds it —
/// then only the traced run compares the engine with the reference.
fn reference_sample(requests: &[Request]) -> Vec<&Request> {
    const BUDGET: usize = 4 << 20;
    let cost = |r: &Request| r.tokens.len() * r.tokens.len();
    let total: usize = requests.iter().map(cost).sum();
    let stride = total.div_ceil(BUDGET).max(1);
    requests
        .iter()
        .step_by(stride)
        .filter(|r| cost(r) <= BUDGET)
        .collect()
}

/// Whether the engine generated the same tokens as `got` for the same ids.
fn tokens_match(engine: &[Output], got: &[Output]) -> bool {
    got.iter()
        .all(|g| engine.iter().any(|e| e.id == g.id && e.tokens == g.tokens))
}

/// The timed run: set up several times, then repeat reps for
/// `seconds` with tracing off, and gate the outputs.
pub fn measure(kind: Kind, seed: u64, seconds: f64, mode: Mode) -> RunOutput {
    let mut setup_s = Vec::with_capacity(SETUP_REPS.1);
    let mut workload = None;
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(Workload::setup(kind, seed, mode));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let workload = workload.expect("set up at least once");
    let min_reps = match &workload {
        Workload::Serve(_) => 1,
        Workload::Deep(w) => w.prefills.len(),
    };

    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(workload.rep(reps.len()));
        // Stop at the rep boundary nearest to `seconds`.
        let elapsed = t0.elapsed().as_secs_f64();
        if reps.len() >= min_reps && elapsed + elapsed / reps.len() as f64 / 2.0 > seconds {
            break;
        }
    }

    let mut problems = Vec::new();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    for (i, rep) in reps.iter().enumerate().skip(min_reps) {
        if rep.digest != reps[i % min_reps].digest {
            problems.push(format!(
                "rep {i} generated different tokens than rep {}",
                i % min_reps
            ));
        }
    }
    if let Workload::Serve(w) = &workload {
        let sample = reference_sample(&w.requests);
        let (reference, _, _) = drive(&workload, &sample, false);
        if !tokens_match(&reps[0].outputs, &reference) {
            problems
                .push("ServeEngine and the sequential reference generated different tokens".into());
        }
    }
    let digest = run_digest(&workload, &reps);
    if seed == 1 {
        match golden_digest(mode, kind) {
            Some(golden) if golden != digest => problems.push(format!(
                "digest {digest:#018x} differs from golden {golden:#018x}"
            )),
            Some(_) => {}
            None => problems.push(format!(
                "no golden digest recorded; this run's is {digest:#018x}"
            )),
        }
    }

    let tok_s: Vec<f64> = reps.iter().map(|r| r.tokens as f64 / r.wall_s).collect();
    let ttft: Vec<f64> = reps.iter().flat_map(|r| r.ttft_s.iter().copied()).collect();
    let tpot: Vec<f64> = reps.iter().flat_map(|r| r.tpot_s.iter().copied()).collect();
    let peak: Vec<f64> = reps.iter().map(|r| r.peak_host_bytes as f64).collect();
    let values = [
        median(&tok_s),
        median(&ttft),
        median(&tpot),
        median(&peak),
        median(&setup_s),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    let detail = Value::obj(vec![
        ("reps", Value::Num(reps.len() as f64)),
        ("timed_s", Value::Num(t0.elapsed().as_secs_f64())),
        ("decode_tok_s", describe(&tok_s)),
        ("ttft_s", describe(&ttft)),
        ("tpot_s", describe(&tpot)),
        ("setup_s", describe(&setup_s)),
        ("ttft_p99_s", Value::Num(percentile(&ttft, 99.0))),
        ("tpot_p99_s", Value::Num(percentile(&tpot, 99.0))),
        (
            "failed_frac",
            Value::Num(failed as f64 / attempted.max(1) as f64),
        ),
    ]);
    RunOutput {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        digest,
        detail,
    }
}

/// The traced run: one untraced engine rep (serve counters), then the
/// sequential driver untraced and traced over the same requests. Returns
/// the run and the recorder holding the spans.
pub fn trace(kind: Kind, seed: u64, mode: Mode) -> (RunOutput, Recorder) {
    let workload = Workload::setup(kind, seed, mode);
    let mut problems = Vec::new();

    // Full-size `long_context` prompts cost seconds of prefill each, so the
    // sequential passes drive the first request only.
    let traced_requests: Vec<&Request> = match &workload {
        Workload::Serve(w) if kind == Kind::LongContext && mode == Mode::Full => {
            w.requests.iter().take(1).collect()
        }
        Workload::Serve(w) => w.requests.iter().collect(),
        Workload::Deep(_) => Vec::new(),
    };
    let engine: Option<Rep> = match &workload {
        Workload::Serve(_) => Some(workload.rep(0)),
        Workload::Deep(_) => None,
    };
    let (plain_out, plain_s, plain) = drive(&workload, &traced_requests, false);
    let (traced_out, traced_s, traced) = drive(&workload, &traced_requests, true);
    if plain_out != traced_out {
        problems.push("traced and untraced drivers generated different tokens".into());
    }
    if let Some(rep) = &engine {
        if rep.failed > 0 {
            problems.push(format!(
                "{} of {} requests failed",
                rep.failed, rep.attempted
            ));
        }
        if !tokens_match(&rep.outputs, &traced_out) {
            problems.push("ServeEngine and the traced driver generated different tokens".into());
        }
    }
    let digest = match &engine {
        Some(rep) => rep.digest,
        None => digest_outputs(&traced_out),
    };
    if seed == 1 && golden_digest(mode, kind).is_some_and(|g| g != digest) {
        problems.push(format!(
            "digest {digest:#018x} differs from the golden digest"
        ));
    }

    let attempted: u64 = traced_out.iter().map(|o| o.tokens.len() as u64).sum();
    let values = per_layer_values(
        &workload,
        &traced,
        &plain,
        engine.as_ref(),
        traced_s / plain_s - 1.0,
    );
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    // The `driver` layer is the harness itself (shadow builds, replays).
    let top: Vec<Value> = traced
        .rec
        .self_time_by_layer("core.step")
        .into_iter()
        .filter(|(layer, _)| *layer != "driver")
        .map(|(layer, ns)| {
            Value::obj(vec![
                ("layer", Value::str(layer)),
                ("self_s", Value::Num(ns as f64 * 1e-9)),
            ])
        })
        .collect();
    let detail = Value::obj(vec![
        ("spans", Value::Num(traced.rec.spans.len() as f64)),
        ("untraced_driver_s", Value::Num(plain_s)),
        ("traced_driver_s", Value::Num(traced_s)),
        ("self_time_by_layer", Value::Arr(top)),
    ]);
    let out = RunOutput {
        correct: problems.is_empty(),
        attempted: attempted.max(1),
        failed: 0,
        metrics,
        problems,
        digest,
        detail,
    };
    (out, traced.rec)
}

/// Every `per_layer` metric, in [`PER_LAYER`] order. Timings are medians
/// over the traced run's calls; a metric whose layer does not act in the
/// workload is 0.
fn per_layer_values(
    workload: &Workload,
    traced: &Driver<'_>,
    plain: &Driver<'_>,
    engine: Option<&Rep>,
    trace_overhead: f64,
) -> Vec<f64> {
    let rec = &traced.rec;
    let named = |name: &'static str| rec.spans.iter().filter(move |sp| sp.name == name);
    // Median duration over the calls, in nanoseconds.
    let ns = |name| median(&named(name).map(|sp| sp.dur_ns() as f64).collect::<Vec<_>>());
    let us = |name| ns(name) * 1e-3;
    let secs = |name| ns(name) * 1e-9;
    let count = |name| median(&named(name).map(|sp| sp.count as f64).collect::<Vec<_>>());
    // Median over calls of (count per second).
    let rate = |name| {
        median(
            &named(name)
                .map(|sp| sp.count as f64 * 1e9 / sp.dur_ns().max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (model, policy) = match workload {
        Workload::Serve(w) => (&w.model, w.policy),
        Workload::Deep(w) => (&w.model, w.policy),
    };
    let m = model.config();
    // Tier counters come from the engine's report; without an engine
    // (`deep_*`) from the untraced driver's own tier.
    let serve: ServeCounters = engine.and_then(|r| r.serve.clone()).unwrap_or_default();
    let pool = plain.tier().allocator();
    let step_us: Vec<f64> = traced.stats.step_s.iter().map(|s| s * 1e6).collect();
    let assign_rows_per_s = rate("tensor.assign");

    // Computed, not timed: floating-point operations of one decode step at
    // the median attended length, and PQ code bytes per (layer, head) slot
    // at the median context length.
    let flops = m.n_layers as f64
        * (2.0 * m.d_model as f64 * (m.d_model + 2 * m.n_kv_heads * m.head_dim) as f64
            + 4.0 * (m.n_heads * m.head_dim) as f64 * count("llm.attend_selected")
            + 2.0 * (m.n_heads * m.head_dim * m.d_model) as f64
            + 4.0 * (m.d_model * m.ffn_dim) as f64)
        + 2.0 * (m.d_model * m.vocab_size) as f64;
    let code_bytes = PqConfig {
        m: policy.m,
        b: policy.b,
        max_iters: 0,
        seed: 0,
    }
    .code_bytes(count("policies.init") as usize);

    let values: Vec<(&str, f64)> = vec![
        ("tensor.assign_us_per_krow", ratio(1e9, assign_rows_per_s)),
        ("tensor.topk_us", us("tensor.topk")),
        ("pq.train_s", secs("pq.train")),
        ("pq.train_iters", count("pq.train")),
        ("pq.adc_build_us", us("pq.adc_build")),
        ("pq.scan_select_us", us("pq.scan_select")),
        ("pq.ivf_select_us", us("pq.ivf_select")),
        ("pq.ivf_scan_frac", median(&traced.stats.ivf_scan_frac)),
        ("pq.ivf_recall", median(&traced.stats.ivf_recall)),
        ("pq.ivf_append_us", us("pq.ivf_append")),
        ("pq.encode_us", us("pq.encode")),
        ("pq.code_bytes", code_bytes as f64),
        ("policies.init_s", secs("policies.init")),
        ("policies.import_shared_us", us("policies.import_shared")),
        ("policies.select_us", us("policies.select")),
        (
            "policies.select_self_frac",
            median(&traced.stats.select_self),
        ),
        ("policies.on_evict_us", us("policies.on_evict")),
        ("memhier.offload_s", secs("memhier.offload")),
        ("memhier.fetch_us", us("memhier.fetch")),
        ("memhier.verify_us", us("memhier.verify")),
        ("memhier.fetch_rows", count("memhier.fetch")),
        (
            "memhier.h2d_bytes_per_tok",
            ratio(plain.stats.h2d_bytes as f64, plain.stats.steps as f64),
        ),
        ("memhier.append_us", us("memhier.append")),
        ("memhier.fork_us", us("memhier.fork")),
        ("memhier.prefix_lookup_us", us("memhier.prefix_lookup")),
        (
            "memhier.prefix_hit_frac",
            engine.map_or(
                ratio(
                    plain.stats.prefix_hits as f64,
                    plain.stats.prefix_lookups as f64,
                ),
                |_| serve.prefix_hit_frac,
            ),
        ),
        (
            "memhier.cow_copies",
            engine.map_or(pool.cow_copies(), |_| serve.cow_copies) as f64,
        ),
        (
            "memhier.pages_peak",
            engine.map_or(pool.peak_pages_in_use() as u64, |_| serve.pages_peak) as f64,
        ),
        ("cache.lookup_us", us("cache.lookup")),
        ("cache.update_us", us("cache.update")),
        (
            "cache.hit_frac",
            engine.map_or(
                ratio(
                    plain.stats.cache_hits as f64,
                    plain.stats.cache_lookups as f64,
                ),
                |_| serve.cache_hit_frac,
            ),
        ),
        ("llm.prefill_s", secs("llm.prefill")),
        ("llm.prefill_tok_s", rate("llm.prefill")),
        ("llm.prefill_chunk_ms", us("llm.prefill_chunk") * 1e-3),
        ("llm.attend_selected_us", us("llm.attend_selected")),
        ("llm.dense_step_us", us("llm.dense_step")),
        ("llm.flops_per_step", flops),
        ("core.session_start_s", secs("core.session_start")),
        ("core.shared_start_us", us("core.shared_start")),
        ("core.step_us_p50", median(&step_us)),
        ("core.step_us_p99", percentile(&step_us, 99.0)),
        (
            "core.step_unattributed_frac",
            median(&traced.stats.unattributed),
        ),
        ("core.checkpoint_us", us("core.checkpoint")),
        ("serve.ticks", serve.ticks as f64),
        ("serve.admitted", serve.admitted as f64),
        ("serve.batch_width_mean", serve.batch_width_mean),
        ("serve.queue_high_water", serve.queue_high_water as f64),
        ("serve.prefill_chunks", serve.prefill_chunks as f64),
        ("serve.checkpoints", serve.checkpoints as f64),
        ("serve.checkpoint_bytes", serve.checkpoint_bytes as f64),
        ("serve.preemptions", serve.preemptions as f64),
        ("serve.busy_frac", serve.busy_frac),
        ("serve.shard_imbalance", serve.shard_imbalance),
        ("serve.nondecode_busy_frac", serve.nondecode_busy_frac),
        (
            "serve.ttft_p99_s",
            engine.map_or(0.0, |r| percentile(&r.ttft_s, 99.0)),
        ),
        (
            "serve.tpot_p99_s",
            engine.map_or(0.0, |r| percentile(&r.tpot_s, 99.0)),
        ),
        ("trace_overhead_frac", trace_overhead),
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "a per-layer metric is declared but not measured"
    );
    PER_LAYER
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("{} not measured", m.name))
                .1
        })
        .collect()
}
