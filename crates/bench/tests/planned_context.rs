//! `run_all` renders with the [`FigCtx`] it planned with: the trace
//! snapshot the `trace_eval` jobs were declared from, even when a trace
//! file changes between planning and rendering.
//!
//! A test binary of its own, because it points `POISE_TRACES_DIR` at a
//! temporary directory for the whole process.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use poise::jobs::SimJob;
use poise::plan::KnobOverlay;
use poise_bench::figures::{plan_jobs, FigCtx};
use workloads::Workload;

fn trace_digests<'a>(workloads: impl IntoIterator<Item = &'a Workload>) -> BTreeSet<String> {
    workloads
        .into_iter()
        .filter_map(|w| w.trace().map(|t| t.digest.clone()))
        .collect()
}

fn committed_traces() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("the committed traces directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "trace"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn planned_context_keeps_the_trace_snapshot_its_jobs_declare() {
    let dir = std::env::temp_dir().join(format!("poise-planned-ctx-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the traces dir");
    let traces = committed_traces();
    assert!(traces.len() >= 2, "need two traces to rewrite one");
    for p in &traces {
        std::fs::copy(p, dir.join(p.file_name().expect("file name"))).expect("copy trace");
    }
    std::env::set_var("POISE_TRACES_DIR", &dir);

    let only = ["trace_eval".to_string()];
    let planned = plan_jobs(KnobOverlay::default(), &[], &[], Some(&only), false)
        .expect("the trace_eval plan expands");
    // A trace file changes after planning: overwrite the first with the
    // second's bytes.
    let first = dir.join(traces[0].file_name().expect("file name"));
    std::fs::copy(&traces[1], &first).expect("rewrite a trace");

    let declared = trace_digests(planned.jobs.iter().filter_map(|j| match j {
        SimJob::Run(r) => Some(&r.workload),
        _ => None,
    }));
    assert_eq!(declared.len(), traces.len());
    assert_eq!(
        trace_digests(&planned.ctx.traces),
        declared,
        "the planned context renders the traces its jobs ran"
    );
    // A context built now would see the rewrite and render trace_eval
    // against jobs that never ran.
    let rebuilt = FigCtx::new(planned.setup.clone());
    assert_ne!(trace_digests(&rebuilt.traces), declared);

    let _ = std::fs::remove_dir_all(&dir);
}
