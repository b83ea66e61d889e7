//! Tier-1 shape checks: the paper artifacts cheap enough to run at full size
//! in the test profile, through the same table and runner as
//! `cargo bench --bench repro`. Each test fails when any of the artifact's
//! checks is `CHANGED` (its outcome differs from the recorded verdict); a
//! recorded `FINDING` that still fails passes. The quality sweeps
//! (fig9–fig11d, tables) are asserted by the bench's full run.

use pqc_bench::repro::{run, ARTIFACTS};

fn assert_unchanged(id: &str) {
    assert_eq!(run(ARTIFACTS, &[id.to_string()]), 0, "{id}: a check is CHANGED (see its line above)");
}

#[test]
fn fig1() {
    assert_unchanged("fig1");
}

#[test]
fn fig6() {
    assert_unchanged("fig6");
}

#[test]
fn fig8() {
    assert_unchanged("fig8");
}

#[test]
fn fig11a() {
    assert_unchanged("fig11a");
}

#[test]
fn fig11b() {
    assert_unchanged("fig11b");
}

#[test]
fn fig12a() {
    assert_unchanged("fig12a");
}

#[test]
fn fig12b() {
    assert_unchanged("fig12b");
}

#[test]
fn fig12c() {
    assert_unchanged("fig12c");
}
