//! The repo benchmark.
//!
//! The acceptance pipeline runs one workload per process:
//!
//! ```text
//! pqc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and reads the last stdout line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).
//!
//! For people: `run` measures every workload over several seeds, prints the
//! metrics, writes a result file and appends to `HISTORY.jsonl`; `trace`
//! prints the per-layer anatomy of every workload; `compare` holds two
//! result files against the bounds in `BENCHMARK.json`; `spec` prints
//! `BENCHMARK.json`. See `benchmark/README.md`.

use pqc_benchmark::json::Value;
use pqc_benchmark::run::{self, RunOutput};
use pqc_benchmark::workloads::{Kind, Mode};
use pqc_benchmark::{report, spec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  pqc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  pqc-benchmark run   [--runs <n>] [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
  pqc-benchmark trace [--seed <n>] [--quick]
  pqc-benchmark compare <a.json> <b.json>
  pqc-benchmark spec";

/// Value of `--flag <value>` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value\n{USAGE}")),
    }
}

fn report_problems(kind: Kind, out: &RunOutput) {
    for p in &out.problems {
        eprintln!("{}: GATE FAILED: {p}", kind.name());
    }
}

fn print_metrics(kind: Kind, out: &RunOutput) {
    for (name, value, unit) in &out.metrics {
        println!("  {:<20} {:<30} {:>16.6} {unit}", kind.name(), name, value);
    }
}

/// The traced run of one workload, its spans written to the out directory.
fn traced(kind: Kind, seed: u64, mode: Mode) -> Result<(RunOutput, PathBuf), String> {
    let (out, rec) = run::trace(kind, seed, mode);
    let path = report::out_dir().join(format!("trace-{}.jsonl", kind.name()));
    rec.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((out, path))
}

/// One workload, one process: the acceptance pipeline's protocol.
fn protocol(args: &[String], mode: Mode) -> Result<ExitCode, String> {
    let name: String = flag(args, "--workload")?.ok_or(USAGE)?;
    let kind = Kind::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    let out = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => run::measure(kind, seed, seconds, mode),
        _ => traced(kind, seed, mode)?.0,
    };
    report_problems(kind, &out);
    eprintln!("{}", out.detail.to_line());
    println!("{}", out.protocol_line());
    Ok(ExitCode::SUCCESS)
}

/// Measure every workload `runs` times (seeds `seed`, `seed + 1`, …), print
/// every end-to-end metric, write the result file, append the history.
fn run_all(args: &[String], mode: Mode) -> Result<ExitCode, String> {
    let runs: usize = flag(args, "--runs")?.unwrap_or(3);
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(match mode {
        Mode::Full => spec::RUN_SECONDS as f64,
        Mode::Quick => 1.0,
    });
    let t0 = Instant::now();
    let mut ok = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let mut run_values = Vec::new();
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for i in 0..runs as u64 {
            let out = run::measure(kind, seed + i, seconds, mode);
            println!(
                "{} seed {} ({}):",
                kind.name(),
                seed + i,
                if out.correct { "correct" } else { "INCORRECT" }
            );
            print_metrics(kind, &out);
            report_problems(kind, &out);
            ok &= out.correct;
            for (values, (_, v, _)) in per_metric.iter_mut().zip(&out.metrics) {
                values.push(*v);
            }
            run_values.push(Value::obj(vec![
                ("seed", Value::Num((seed + i) as f64)),
                ("correct", Value::Bool(out.correct)),
                ("attempted", Value::Num(out.attempted as f64)),
                ("failed", Value::Num(out.failed as f64)),
                ("digest", Value::Str(format!("{:#018x}", out.digest))),
                ("detail", out.detail),
            ]));
        }
        let summary = spec::END_TO_END
            .iter()
            .zip(&per_metric)
            .map(|(m, v)| (m.name.to_string(), report::summarize(v)))
            .collect();
        workloads.push((
            kind.name().to_string(),
            Value::obj(vec![
                ("runs", Value::Arr(run_values)),
                ("summary", Value::Obj(summary)),
            ]),
        ));
    }
    let result = Value::obj(vec![
        (
            "header",
            report::header(seed, mode.name(), runs, t0.elapsed().as_secs_f64()),
        ),
        ("workloads", Value::Obj(workloads)),
        // The benchmark measures; it claims no gain.
        ("claim", Value::Null),
    ]);
    let path = match flag::<String>(args, "--out")? {
        Some(p) => p.into(),
        None => report::out_dir().join(format!("result-{}-seed{seed}.json", mode.name())),
    };
    report::write_file(&path, &result.to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report::append_history(&result).map_err(|e| format!("HISTORY.jsonl: {e}"))?;
    println!(
        "wrote {} ({:.0} s); gate {}",
        path.display(),
        t0.elapsed().as_secs_f64(),
        if ok { "passed" } else { "FAILED" }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The traced run of every workload: per-layer metrics, the layers ranked
/// by self time, and the span files.
fn trace_all(args: &[String], mode: Mode) -> Result<ExitCode, String> {
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let mut ok = true;
    for kind in Kind::ALL {
        let (out, path) = traced(kind, seed, mode)?;
        println!(
            "{} seed {seed} ({}), spans in {}:",
            kind.name(),
            if out.correct { "correct" } else { "INCORRECT" },
            path.display()
        );
        print_metrics(kind, &out);
        println!(
            "  self time by layer: {}",
            out.detail
                .get("self_time_by_layer")
                .map_or(String::new(), Value::to_line)
        );
        report_problems(kind, &out);
        ok &= out.correct;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let mode = if args.iter().any(|a| a == "--quick") {
        Mode::Quick
    } else {
        Mode::Full
    };
    match args.first().map(String::as_str) {
        Some("run") => run_all(args, mode),
        Some("trace") => trace_all(args, mode),
        Some("compare") => match args {
            [_, a, b] => Ok(if report::compare(a, b)? == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err(USAGE.into()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(a) if a.starts_with("--") => protocol(args, mode),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
