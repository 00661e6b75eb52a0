//! A trace with a valid header over a corrupt body plans like any other
//! trace: loading checks only the header, so `plan_jobs` declares its
//! `trace_eval` jobs and reports no load error. The jobs that simulate
//! it fail instead (`poise::jobs`' engine tests).
//!
//! A test binary of its own, like `planned_context`, because it points
//! `POISE_TRACES_DIR` at a temporary directory for the whole process.

use std::path::Path;

use poise::jobs::SimJob;
use poise::plan::KnobOverlay;
use poise_bench::figures::plan_jobs;

#[test]
fn a_corrupt_trace_body_declares_its_jobs_and_no_load_error() {
    let dir = std::env::temp_dir().join(format!("poise-corrupt-body-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the traces dir");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces/hotset.trace");
    let text = std::fs::read_to_string(committed).expect("the committed hotset trace");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[99] = "l zzzz 1";
    std::fs::write(dir.join("hotset.trace"), lines.join("\n") + "\n").expect("write the trace");
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
