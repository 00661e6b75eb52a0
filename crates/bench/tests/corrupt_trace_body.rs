//! A trace with a valid header over a corrupt body plans like any other
//! trace: loading checks only the header, so `plan_jobs` declares its
//! `trace_eval` jobs and reports no load error. The jobs that simulate
//! it fail instead (`poise::jobs`' engine tests), and `run_all` reports
//! each such panic in one line.
//!
//! A test binary of its own, like `planned_context`, because it points
//! `POISE_TRACES_DIR` at a temporary directory for the whole process.

use std::path::{Path, PathBuf};
use std::process::Command;

use poise::jobs::SimJob;
use poise::plan::KnobOverlay;
use poise_bench::figures::plan_jobs;

/// The committed traces directory.
fn committed_traces() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces")
}

/// Write the committed `hotset.trace` into `dir` with its line 100, in
/// the op-stream body, replaced by an unparseable one.
fn write_corrupt_hotset(dir: &Path) {
    let text = std::fs::read_to_string(committed_traces().join("hotset.trace"))
        .expect("the committed hotset trace");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[99] = "l zzzz 1";
    std::fs::write(dir.join("hotset.trace"), lines.join("\n") + "\n").expect("write the trace");
}

#[test]
fn a_corrupt_trace_body_declares_its_jobs_and_no_load_error() {
    let dir = std::env::temp_dir().join(format!("poise-corrupt-body-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the traces dir");
    write_corrupt_hotset(&dir);
    std::env::set_var("POISE_TRACES_DIR", &dir);

    let only = ["trace_eval".to_string()];
    let planned = plan_jobs(KnobOverlay::default(), &[], &[], Some(&only), false)
        .expect("the trace_eval plan expands");
    assert!(
        planned.ctx.trace_errors.is_empty(),
        "{:?}",
        planned.ctx.trace_errors
    );
    assert_eq!(planned.ctx.traces.len(), 1);
    let runs = planned
        .jobs
        .iter()
        .filter(|j| matches!(j, SimJob::Run(r) if r.workload == planned.ctx.traces[0]))
        .count();
    assert_eq!(runs, 7, "one run per trace_eval scheme");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_caught_job_panic_prints_one_line_not_a_backtrace() {
    let root = std::env::temp_dir().join(format!("poise-corrupt-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let traces = root.join("traces");
    std::fs::create_dir_all(&traces).expect("create the traces dir");
    for entry in std::fs::read_dir(committed_traces()).expect("the committed traces") {
        let path = entry.expect("a traces entry").path();
        if path.extension().is_some_and(|e| e == "trace") {
            std::fs::copy(&path, traces.join(path.file_name().expect("a file name")))
                .expect("copy a trace");
        }
    }
    write_corrupt_hotset(&traces);

    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args([
            "--set",
            "sms=2",
            "--set",
            "kernels_cap=1",
            "--set",
            "train_cap=3",
        ])
        .args(["--set", "run_cycles=20000", "--only", "trace_eval"])
        .env("RUST_BACKTRACE", "1")
        .env("POISE_TRACES_DIR", &traces)
        .env("POISE_RESULTS_DIR", root.join("results"))
        .output()
        .expect("run_all starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let want = format!(
        "{}: trace parse error at line 100: ",
        traces.join("hotset.trace").display()
    );
    assert!(stderr.contains(&want), "{stderr}");
    assert!(!stderr.contains("stack backtrace"), "{stderr}");

    let _ = std::fs::remove_dir_all(&root);
}
