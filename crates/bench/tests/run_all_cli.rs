//! `run_all`'s command line: an argument that is neither a known flag
//! nor a known flag's value fails the invocation before anything runs,
//! naming the argument, so a typo or a retired flag (`--workers`) never
//! turns into a silent default run. Retired knobs and fault kinds fail
//! the same way.

use std::process::{Command, Output};

fn run_all(args: &[&str]) -> Output {
    // A results directory of its own, should a regression start a pass.
    let tag = args.join("_");
    let dir = std::env::temp_dir().join(format!("poise-cli-{}{tag}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env("POISE_RESULTS_DIR", &dir)
        .output()
        .expect("spawn run_all");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Runs `args`, asserts exit 1, an error naming `culprit` and an empty
/// stdout, and returns the stderr.
fn assert_rejects(args: &[&str], culprit: &str) -> String {
    let out = run_all(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(culprit),
        "{args:?} must name {culprit}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must list nothing");
    stderr
}

#[test]
fn retired_flags_are_rejected() {
    assert_rejects(&["--workers", "2", "--list"], "--workers");
    // Retired knobs and fault kinds are refused before any job is planned.
    assert_rejects(
        &["--set", "job_deadline=2", "--only", "table4_params"],
        "job_deadline",
    );
    assert_rejects(
        &["--set", "snapshot_every=5000", "--only", "table4_params"],
        "snapshot_every",
    );
    assert_rejects(
        &["--sweep", "sim_threads=1,2", "--only", "sm_scaling"],
        "sim_threads",
    );
    let stderr = assert_rejects(
        &["--inject", "seed=1,rate=0.1,kinds=stall", "--list"],
        "stall",
    );
    assert_eq!(stderr.matches("--inject:").count(), 1, "{stderr}");
}

#[test]
fn misspelt_flags_are_rejected() {
    assert_rejects(&["--keep-goign", "--list"], "--keep-goign");
}

#[test]
fn inject_errors_name_the_flag_once() {
    let stderr = assert_rejects(&["--inject", "rate=0.1", "--list"], "missing seed=");
    assert_eq!(stderr.matches("--inject:").count(), 1, "{stderr}");
}

#[test]
fn known_flags_still_list() {
    let out = run_all(&["--keep-going", "--only", "fig07", "--list"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "fig07_performance\n");
}
