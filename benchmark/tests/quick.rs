//! Runs the benchmark's quick mode through the acceptance protocol and
//! holds what it prints against `BENCHMARK.json`.

use pqc_benchmark::json::{parse, Value};
use pqc_benchmark::spec;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON")
}

fn names(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .expect("declared list")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {k}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Run one quick workload and return the protocol object.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_pqc-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--quick",
        ])
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} exited with {:?}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

fn check_run(workload: &str, trace: u8, declared: &[(String, String)]) {
    let result = run(workload, trace);
    let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}: protocol keys"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload} trace {trace}: gate failed"
    );
    assert!(result
        .get("attempted")
        .and_then(Value::as_f64)
        .is_some_and(|n| n >= 1.0));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result.get("metrics").expect("metrics").as_obj();
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(
        got, declared,
        "{workload} trace {trace}: emitted metrics differ from the declared ones"
    );
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is not a finite number"
        );
        // End-to-end metrics must never read 0; per-layer ones may, where
        // the layer does not act in the workload.
        assert!(
            trace == 1 || value != Some(0.0),
            "{workload}: end-to-end {name} is 0"
        );
    }
}

#[test]
fn benchmark_json_is_the_generated_spec_and_within_limits() {
    let spec = benchmark_json();
    assert_eq!(
        spec,
        spec::benchmark_json(),
        "regenerate with `cargo run --release -- spec > ../BENCHMARK.json`"
    );
    let keys: Vec<&str> = spec.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let count = |list: &str| spec.get(list).expect("list").as_arr().len();
    assert!((2..=8).contains(&count("workloads")));
    assert!((1..=16).contains(&count("end_to_end")));
    assert!((1..=128).contains(&count("per_layer")));
    let mut seen = std::collections::HashSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for entry in spec.get(list).expect("list").as_arr() {
            let name = entry.get("name").and_then(Value::as_str).expect("name");
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                name.len() <= 64
                    && name.chars().all(ok)
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "bad name {name}"
            );
            assert!(seen.insert(name.to_string()), "{name} is declared twice");
            if let Some(why) = entry.get("why").and_then(Value::as_str) {
                assert!(
                    why.len() <= 200 && !why.contains('\n'),
                    "{name}: why must be one line of at most 200 characters"
                );
            }
            if let Some(unit) = entry.get("unit").and_then(Value::as_str) {
                assert!(
                    unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "bad unit {unit}"
                );
            }
            if let Some(bound) = entry.get("bound").and_then(Value::as_f64) {
                assert!(
                    bound > 0.0 && bound <= 0.25,
                    "{name}: bound {bound} outside (0, 0.25]"
                );
            }
        }
    }
    let setup = spec
        .get("end_to_end")
        .expect("end_to_end")
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"));
    assert!(
        setup.is_some_and(|m| m.get("unit").and_then(Value::as_str) == Some("s")
            && m.get("better").and_then(Value::as_str) == Some("lower"))
    );
}

#[test]
fn quick_timed_runs_emit_every_end_to_end_metric() {
    let spec = benchmark_json();
    let declared = names(&spec, "end_to_end");
    for workload in workload_names(&spec) {
        check_run(&workload, 0, &declared);
    }
}

#[test]
fn quick_traced_runs_emit_every_per_layer_metric() {
    let spec = benchmark_json();
    let declared = names(&spec, "per_layer");
    for workload in workload_names(&spec) {
        check_run(&workload, 1, &declared);
    }
}

fn workload_names(spec: &Value) -> Vec<String> {
    let workloads = spec.get("workloads").expect("workloads").as_arr();
    workloads
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}
