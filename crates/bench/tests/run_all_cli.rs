//! `run_all`'s command line: an argument that is neither a known flag
//! nor a known flag's value fails the invocation before anything runs,
//! naming the argument, so a typo or a retired flag (`--workers`) never
//! turns into a silent default run. Retired knobs and fault kinds fail
//! the same way, and so does an `--only` entry that matches no figure.
//! `--list` plans like a run, so it refuses what a run would refuse, and
//! `--fsck` takes no other flag.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The results directory of one invocation: its own, should a
/// regression start a pass.
fn results_dir(args: &[&str]) -> PathBuf {
    let tag = args.join("_");
    std::env::temp_dir().join(format!("poise-cli-{}{tag}", std::process::id()))
}

fn run_all(args: &[&str]) -> Output {
    let dir = results_dir(args);
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
    for kind in ["stall", "transient"] {
        let spec = format!("seed=1,rate=0.1,kinds={kind}");
        let stderr = assert_rejects(&["--inject", &spec, "--list"], kind);
        assert_eq!(stderr.matches("--inject:").count(), 1, "{stderr}");
    }
}

#[test]
fn list_and_fsck_refuse_what_a_run_would() {
    assert_rejects(&["--set", "bogus=1", "--list"], "`bogus`");
    assert_rejects(&["--sweep", "sms=x", "--list"], "`x`");
    assert_rejects(&["--sweep", "sms=1,2", "--list"], "single point");
    assert_rejects(&["--fsck", "--only", "nope"], "--only");
    assert_rejects(&["--fsck", "--set", "bogus=1"], "--set");
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

#[test]
fn only_entries_that_match_no_figure_are_rejected() {
    // One typo among valid names must not shrink the run silently.
    assert_rejects(
        &["--only", "fig07,fig7_performance", "--list"],
        "`fig7_performance`",
    );
    assert_rejects(&["--only", "bogus", "--list"], "`bogus`");
    // Every unmatched entry is named, and a run fails before planning.
    let stderr = assert_rejects(&["--only", "bogus,table4_params,nope"], "`bogus`");
    assert!(stderr.contains("`nope`"), "{stderr}");
}

#[test]
fn closing_line_names_the_results_directory() {
    let args = ["--only", "table4_params"];
    let out = run_all(&args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let dir = results_dir(&args);
    assert!(
        stdout.contains(&format!("outputs in {}", dir.display())),
        "{stdout}"
    );
}

#[test]
fn a_traces_directory_that_cannot_be_read_fails_trace_eval() {
    let dir = results_dir(&["missing-traces"]);
    let traces = dir.join("no-such-dir");
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--only", "trace_eval"])
        .env("POISE_RESULTS_DIR", &dir)
        .env("POISE_TRACES_DIR", &traces)
        .output()
        .expect("spawn run_all");
    let summary = std::fs::read_to_string(dir.join("run_all_summary.txt")).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&traces.display().to_string()),
        "the error must name the directory: {stderr}"
    );
    assert!(summary.contains(" executed=0 "), "{summary}");
}
