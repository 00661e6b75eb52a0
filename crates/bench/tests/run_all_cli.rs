//! `run_all`'s command line: an argument that is neither a known flag
//! nor a known flag's value fails the invocation before anything runs,
//! naming the argument, so a typo or a retired flag (`--workers`) never
//! turns into a silent default run.

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

fn assert_rejects(args: &[&str], culprit: &str) {
    let out = run_all(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(culprit),
        "{args:?} must name {culprit}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must list nothing");
}

#[test]
fn retired_flags_are_rejected() {
    assert_rejects(&["--workers", "2", "--list"], "--workers");
}

#[test]
fn misspelt_flags_are_rejected() {
    assert_rejects(&["--keep-goign", "--list"], "--keep-goign");
}

#[test]
fn known_flags_still_list() {
    let out = run_all(&["--keep-going", "--only", "fig07", "--list"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "fig07_performance\n");
}
