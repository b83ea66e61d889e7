//! Result files, the run header, `compare`, and the appended history.

use crate::json::{parse, Value};
use crate::spec::{MetricSpec, BENCH_DIR, END_TO_END};
use crate::stats::{median, quartiles, spread};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repo root: the directory holding `BENCHMARK.json` and the benchmark
/// package — the working directory, its parent (`cd benchmark && cargo run`),
/// or the place the package was built from.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let built = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf);
    [
        Some(cwd.clone()),
        cwd.parent().map(Path::to_path_buf),
        built,
    ]
    .into_iter()
    .flatten()
    .find(|dir| dir.join("BENCHMARK.json").is_file() && dir.join(BENCH_DIR).is_dir())
    .unwrap_or(cwd)
}

/// Directory for trace and result files (git-ignored).
pub fn out_dir() -> PathBuf {
    repo_root().join(BENCH_DIR).join("out")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and build facts recorded with every result set.
pub fn header(seed: u64, mode: &str, runs: usize, total_wall_s: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::Str(cpu)),
        (
            "rustc",
            Value::Str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "commit",
            Value::Str(
                command_line("git", &["describe", "--always", "--dirty"])
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("seed", Value::Num(seed as f64)),
        ("mode", Value::str(mode)),
        ("runs", Value::Num(runs as f64)),
        ("total_wall_s", Value::Num(total_wall_s)),
        // The workloads keep two shards either way; on a smaller host they
        // time-slice and the numbers are not comparable.
        (
            "undersized_host",
            Value::Bool(nproc < crate::workloads::SHARDS),
        ),
    ])
}

/// `{n, median, q1, q3, min, max}` of a sample.
pub fn describe(values: &[f64]) -> Value {
    let m = median(values);
    let (q1, q3) = quartiles(values).unwrap_or((m, m));
    Value::obj(vec![
        ("n", Value::Num(values.len() as f64)),
        ("median", Value::Num(m)),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        (
            "min",
            Value::Num(values.iter().cloned().fold(f64::INFINITY, f64::min)),
        ),
        (
            "max",
            Value::Num(values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)),
        ),
    ])
}

/// [`describe`] plus the values themselves: one metric's per-run values,
/// which `compare` reads back.
pub fn summarize(values: &[f64]) -> Value {
    let Value::Obj(mut pairs) = describe(values) else {
        unreachable!("describe returns an object")
    };
    pairs.push((
        "values".into(),
        Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
    ));
    Value::Obj(pairs)
}

pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Append one line per run set, so the trajectory is kept, not overwritten.
pub fn append_history(result: &Value) -> std::io::Result<()> {
    let medians: Vec<(String, Value)> = result
        .get("workloads")
        .map(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(workload, body)| {
            let per_metric = body
                .get("summary")
                .map(Value::as_obj)
                .unwrap_or_default()
                .iter()
                .map(|(metric, s)| {
                    (
                        metric.clone(),
                        s.get("median").cloned().unwrap_or(Value::Null),
                    )
                })
                .collect();
            (workload.clone(), Value::Obj(per_metric))
        })
        .collect();
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = Value::obj(vec![
        ("unix_time", Value::Num(unix as f64)),
        (
            "header",
            result.get("header").cloned().unwrap_or(Value::Null),
        ),
        ("medians", Value::Obj(medians)),
    ]);
    let path = repo_root().join(BENCH_DIR).join("HISTORY.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", line.to_line())
}

fn values_of(result: &Value, workload: &str, metric: &str) -> Vec<f64> {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("summary"))
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("values"))
        .map(|v| v.as_arr().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Verdict of one (metric, workload) pair of `b` against `a`.
fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> (&'static str, f64) {
    let (ma, mb) = (median(a), median(b));
    let delta = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse = if better == "higher" { -delta } else { delta };
    let verdict = if spread(a).max(spread(b)) > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else {
        "ok"
    };
    (verdict, delta)
}

/// Print, per (end-to-end metric, workload), both medians with quartiles,
/// the relative change and the verdict against the metric's bound (the one
/// `BENCHMARK.json` declares). Returns the number of regressed pairs.
pub fn compare(path_a: &str, path_b: &str) -> Result<usize, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse(&t))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let fmt = |v: &[f64]| {
        let (q1, q3) = quartiles(v).unwrap_or((median(v), median(v)));
        format!("{:>12.6} [{:.6}, {:.6}]", median(v), q1, q3)
    };
    println!(
        "{:<20} {:<16} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "delta", "bound"
    );
    let mut regressed = 0;
    for (workload, _) in a.get("workloads").map(Value::as_obj).unwrap_or_default() {
        for MetricSpec {
            name: metric,
            better,
            bound,
            ..
        } in &END_TO_END
        {
            let (va, vb) = (
                values_of(&a, workload, metric),
                values_of(&b, workload, metric),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<20} {metric:<16} missing from one side");
                continue;
            }
            let (verdict, delta) = verdict(&va, &vb, better, *bound);
            regressed += usize::from(verdict == "regressed");
            println!(
                "{workload:<20} {metric:<16} {:>38} {:>38} {:>+7.2}% {:>5.0}%  {verdict}",
                fmt(&va),
                fmt(&vb),
                delta * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(&steady, &[90.0, 91.0, 89.0, 90.0], "higher", 0.05).0,
            "regressed"
        );
        assert_eq!(
            verdict(&steady, &[110.0, 111.0, 109.0, 110.0], "higher", 0.05).0,
            "ok"
        );
        assert_eq!(
            verdict(&steady, &[110.0, 111.0, 109.0, 110.0], "lower", 0.05).0,
            "regressed"
        );
        assert_eq!(
            verdict(&steady, &[80.0, 120.0, 90.0, 110.0], "lower", 0.05).0,
            "unresolved"
        );
    }
}
