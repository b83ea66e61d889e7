//! The paper's figures and tables with their shape checks:
//! `cargo bench --bench repro` runs every artifact of
//! `pqc_bench::repro::ARTIFACTS`, `cargo bench --bench repro -- fig9 table2`
//! runs the ids given. Exits non-zero when a check's outcome differs from its
//! recorded verdict.

use pqc_bench::repro::{run, ARTIFACTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    // `cargo bench` passes `--bench`; every other argument is an artifact id.
    let ids: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    ExitCode::from(run(ARTIFACTS, &ids))
}
