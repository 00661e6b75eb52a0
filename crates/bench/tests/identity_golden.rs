//! Golden pins of the planned job identities at the `figures-smoke`
//! knobs (the benchmark's figure workload) and at the default knobs.
//!
//! Planning only: nothing here simulates. The smoke pins were generated
//! by this file at the commit *before* job identities were memoised per
//! pass, and the default-knob pins at the commit before the spec-line
//! fragments were memoised, so a memo that changes which jobs are
//! planned, how they deduplicate, or the bytes of any spec text fails
//! here.

use std::collections::BTreeSet;

use poise::cache::sha256_hex;
use poise::jobs::{graph_closure, SimJob};
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

/// The `run_all` plan at the `--set` knobs `sets`.
fn plan(sets: &[&str]) -> PlannedJobs {
    let sets: Vec<String> = sets.iter().map(|s| s.to_string()).collect();
    plan_jobs(KnobOverlay::default(), &sets, &[], None, false).expect("the plan expands")
}

/// `(planned, unique, sweep_shared, prefix_shared)` and the digest of the
/// closure's sorted spec hashes.
fn pins(planned: &PlannedJobs) -> ((usize, usize, usize, usize), String) {
    let closure = graph_closure(&planned.jobs);
    let mut hashes: Vec<&str> = closure.iter().map(|(h, _)| h.as_str()).collect();
    hashes.sort_unstable();
    let counts = (
        planned.jobs.len(),
        closure.len(),
        planned.sweep_shared,
        planned.prefix_shared,
    );
    (counts, sha256_hex(&hashes.join("\n")))
}

/// The memo never changes an identity: the SHA-256 of every closure
/// job's `spec_text` (a fresh fragment memo per job) is a hash of the
/// engine's graph, whose one shared table answers most fragments from
/// other jobs' renders, and the two hash sets are equal.
fn assert_closure_renders_alike(planned: &PlannedJobs) {
    let mut alone: BTreeSet<String> = BTreeSet::new();
    let mut work: Vec<SimJob> = planned.jobs.clone();
    while let Some(job) = work.pop() {
        if alone.insert(sha256_hex(&job.spec_text())) {
            work.extend(job.deps());
        }
    }
    let shared: BTreeSet<String> = graph_closure(&planned.jobs)
        .into_iter()
        .map(|(hash, _)| hash)
        .collect();
    assert_eq!(alone.len(), shared.len());
    assert!(alone == shared, "a memoised render changed a spec hash");
}

#[test]
fn smoke_closure_renders_alike_alone_and_shared() {
    assert_closure_renders_alike(&plan(&SMOKE));
}

#[test]
fn default_closure_renders_alike_alone_and_shared() {
    assert_closure_renders_alike(&plan(&[]));
}

#[test]
fn smoke_plan_identities_match_goldens() {
    let (counts, digest) = pins(&plan(&SMOKE));
    assert_eq!(
        counts,
        (793, 387, 13, 40),
        "planned/unique/sweep/prefix counts"
    );
    assert_eq!(
        digest, "47da9ed589ec07e235afb9412ed712b0142b8326a1191bcdc74760146d0ba86f",
        "the spec hashes of the planned closure changed"
    );
}

#[test]
fn default_plan_identities_match_goldens() {
    let (counts, digest) = pins(&plan(&[]));
    assert_eq!(
        counts,
        (1739, 967, 50, 20),
        "planned/unique/sweep/prefix counts"
    );
    assert_eq!(
        digest, "98cff0b437272e492df4bff2aff74e1213aefabc6e6b816666c53e4904c44bf6",
        "the spec hashes of the default closure changed"
    );
}
