//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is generated from these tables (`pqc-benchmark spec`) and a test
//! keeps the two equal.

use crate::json::Value;

/// Timed window of one run, in seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "chat_fleet",
        why: "short shared-prefix + multi-tenant prompts on 2 shards x 8 slots: per-step fixed cost, scheduling, prefix adoption, CoW and checkpoints dominate; selection and fetch are tiny",
    },
    WorkloadSpec {
        name: "long_context",
        why: "two distinct 8192-token prompts on 2 shards x 1 slot: TTFT isolates dense prefill + K-Means + offload, TPOT isolates selected attention, page fetch and cache hits under a shared pool lock",
    },
    WorkloadSpec {
        name: "deep_context_exact",
        why: "128K-token fabricated KV driven through SelectiveSession directly: every O(s) decode stage (flat ADC scan + top-k, chain verify + fetch, append + encode) dominates; serve and prefill are bypassed",
    },
    WorkloadSpec {
        name: "deep_context_ivf",
        why: "same 128K data with IVF Probe(8) of 32 cells: coarse routing, per-cell scan and IVF append replace the flat scan, so a flat-scan gain must not move it",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Each bound is at least three times the widest interquartile spread any
/// workload showed over ten seeds on the 2-core reference host (README,
/// "How the bounds were set").
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("decode_tok_s", "tok/s", "higher", 0.12),
    e2e("ttft_p50_s", "s", "lower", 0.25),
    e2e("tpot_p50_s", "s", "lower", 0.15),
    e2e("peak_host_bytes", "bytes", "lower", 0.06),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: [MetricSpec; 57] = [
    layer("tensor.assign_us_per_krow", "us", "lower"),
    layer("tensor.topk_us", "us", "lower"),
    layer("pq.train_s", "s", "lower"),
    layer("pq.train_iters", "count", "lower"),
    layer("pq.adc_build_us", "us", "lower"),
    layer("pq.scan_select_us", "us", "lower"),
    layer("pq.ivf_select_us", "us", "lower"),
    layer("pq.ivf_scan_frac", "ratio", "lower"),
    layer("pq.ivf_recall", "ratio", "higher"),
    layer("pq.ivf_append_us", "us", "lower"),
    layer("pq.encode_us", "us", "lower"),
    layer("pq.code_bytes", "bytes", "lower"),
    layer("policies.init_s", "s", "lower"),
    layer("policies.import_shared_us", "us", "lower"),
    layer("policies.select_us", "us", "lower"),
    layer("policies.select_self_frac", "ratio", "lower"),
    layer("policies.on_evict_us", "us", "lower"),
    layer("memhier.offload_s", "s", "lower"),
    layer("memhier.fetch_us", "us", "lower"),
    layer("memhier.verify_us", "us", "lower"),
    layer("memhier.fetch_rows", "count", "lower"),
    layer("memhier.h2d_bytes_per_tok", "bytes", "lower"),
    layer("memhier.append_us", "us", "lower"),
    layer("memhier.fork_us", "us", "lower"),
    layer("memhier.prefix_lookup_us", "us", "lower"),
    layer("memhier.prefix_hit_frac", "ratio", "higher"),
    layer("memhier.cow_copies", "count", "lower"),
    layer("memhier.pages_peak", "count", "lower"),
    layer("cache.lookup_us", "us", "lower"),
    layer("cache.update_us", "us", "lower"),
    layer("cache.hit_frac", "ratio", "higher"),
    layer("llm.prefill_s", "s", "lower"),
    layer("llm.prefill_tok_s", "tok/s", "higher"),
    layer("llm.prefill_chunk_ms", "ms", "lower"),
    layer("llm.attend_selected_us", "us", "lower"),
    layer("llm.dense_step_us", "us", "lower"),
    layer("llm.flops_per_step", "flops", "lower"),
    layer("core.session_start_s", "s", "lower"),
    layer("core.shared_start_us", "us", "lower"),
    layer("core.step_us_p50", "us", "lower"),
    layer("core.step_us_p99", "us", "lower"),
    layer("core.step_unattributed_frac", "ratio", "lower"),
    layer("core.checkpoint_us", "us", "lower"),
    layer("serve.ticks", "count", "lower"),
    layer("serve.admitted", "count", "higher"),
    layer("serve.batch_width_mean", "count", "higher"),
    layer("serve.queue_high_water", "count", "lower"),
    layer("serve.prefill_chunks", "count", "lower"),
    layer("serve.checkpoints", "count", "lower"),
    layer("serve.checkpoint_bytes", "bytes", "lower"),
    layer("serve.preemptions", "count", "lower"),
    layer("serve.busy_frac", "ratio", "higher"),
    layer("serve.shard_imbalance", "ratio", "lower"),
    layer("serve.nondecode_busy_frac", "ratio", "lower"),
    layer("serve.ttft_p99_s", "s", "lower"),
    layer("serve.tpot_p99_s", "s", "lower"),
    layer("trace_overhead_frac", "ratio", "lower"),
];

/// Directory of the benchmark package, relative to the repo root.
pub const BENCH_DIR: &str = "benchmark";

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |m: &MetricSpec, with_bound: bool| {
        let mut pairs = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better)),
        ];
        if with_bound {
            pairs.push(("bound", Value::Num(m.bound)));
        }
        Value::obj(pairs)
    };
    Value::obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(*s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str(BENCH_DIR)])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}
