//! Golden pins of the planned job identities at the `figures-smoke`
//! knobs (the benchmark's figure workload).
//!
//! Planning only: nothing here simulates. The pinned values were
//! generated by this file at the commit *before* job identities were
//! memoised per pass, so a memo that changes which jobs are planned,
//! how they deduplicate, or the bytes of any spec text fails here.

use poise::cache::sha256_hex;
use poise::jobs::graph_closure;
use poise::plan::KnobOverlay;
use poise_bench::figures::{plan_jobs, PlannedJobs};

/// `run_all --set ...` knobs of the `figures-smoke` benchmark workload.
const SMOKE: [&str; 6] = [
    "sms=1",
    "kernels_cap=1",
    "train_cap=4",
    "run_cycles=10000",
    "profile_warmup=2000",
    "profile_measure=1000",
];

fn plan(sweeps: &[&str], only: Option<&[&str]>) -> PlannedJobs {
    let sets: Vec<String> = SMOKE.iter().map(|s| s.to_string()).collect();
    let sweeps: Vec<String> = sweeps.iter().map(|s| s.to_string()).collect();
    let only: Option<Vec<String>> = only.map(|o| o.iter().map(|s| s.to_string()).collect());
    plan_jobs(
        KnobOverlay::default(),
        &sets,
        &sweeps,
        only.as_deref(),
        false,
    )
    .expect("the smoke plan expands")
}

#[test]
fn smoke_plan_identities_match_goldens() {
    let planned = plan(&[], None);
    let closure = graph_closure(&planned.jobs);
    let mut hashes: Vec<&str> = closure.iter().map(|(h, _)| h.as_str()).collect();
    hashes.sort_unstable();
    let digest = sha256_hex(&hashes.join("\n"));
    let got = (
        planned.jobs.len(),
        closure.len(),
        planned.sweep_shared,
        planned.prefix_shared,
    );
    assert_eq!(
        got,
        (793, 387, 13, 40),
        "planned/unique/sweep/prefix counts"
    );
    assert_eq!(
        digest, "47da9ed589ec07e235afb9412ed712b0142b8326a1191bcdc74760146d0ba86f",
        "the spec hashes of the planned closure changed"
    );
}
