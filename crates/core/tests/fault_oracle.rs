//! The robustness oracle: a differential property test over the fault
//! injector (see `poise::faults`).
//!
//! For any deterministic fault plan at rate ≤ 0.2 the engine must
//! (a) terminate, (b) leave every *surviving* output bit-identical to a
//! fault-free run — faults may kill jobs, never skew them — and (c) when
//! re-run over the same store (modelling a killed-and-restarted
//! `run_all`), converge to the identical final result store with zero
//! corrupt entries surviving an fsck.
//!
//! The job graph is small but shaped like the real harness: plain GTO
//! runs, an SWL run that pulls in a grid-profile dependency, and a Poise
//! run that pulls in sampling + training dependencies.

use std::collections::BTreeMap;
use std::path::PathBuf;

use poise::experiment::{Scheme, Setup};
use poise::jobs::{Engine, KernelRunSpec, ModelSpec, SimJob};
use poise::profiler::{GridSpec, ProfileWindow};
use poise::{FaultKind, FaultPlan};
use workloads::{AccessMix, KernelSpec, Workload};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("poise-oracle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_setup() -> Setup {
    let mut s = Setup::for_tests();
    s.run_cycles = 8_000;
    s.eval_grid = GridSpec::diagonal(6);
    s.profile_window = ProfileWindow {
        warmup: 200,
        measure: 800,
    };
    s
}

fn kernel(seed: u64) -> Workload {
    KernelSpec::steady(format!("oracle{seed}"), AccessMix::memory_sensitive(), seed).into()
}

/// The oracle's job graph: three GTO runs, one SWL run (profile
/// dependency), one Poise run (sample + train dependencies via the
/// test-scale training spec).
fn jobs(setup: &Setup) -> Vec<SimJob> {
    let model = ModelSpec::default_training(setup);
    vec![
        SimJob::Run(KernelRunSpec::new(&kernel(1), Scheme::Gto, setup, None)),
        SimJob::Run(KernelRunSpec::new(&kernel(2), Scheme::Gto, setup, None)),
        SimJob::Run(KernelRunSpec::new(&kernel(3), Scheme::Gto, setup, None)),
        SimJob::Run(KernelRunSpec::new(&kernel(1), Scheme::Swl, setup, None)),
        SimJob::Run(KernelRunSpec::new(
            &kernel(2),
            Scheme::Poise,
            setup,
            Some(&model),
        )),
    ]
}

/// A quiet engine over `dir` with `faults` installed.
fn engine(dir: &PathBuf, faults: Option<FaultPlan>) -> Engine {
    let mut e = Engine::new(dir);
    e.quiet = true;
    e.set_faults(faults);
    e
}

/// Serialise every surviving output of a run, keyed by job label.
fn surviving(store: &poise::jobs::ResultStore, jobs: &[SimJob]) -> BTreeMap<String, String> {
    jobs.iter()
        .filter_map(|j| store.get(j).ok().map(|o| (j.label(), o.to_text())))
        .collect()
}

/// The fault-free reference outputs for the oracle's job graph.
fn baseline(tag: &str) -> BTreeMap<String, String> {
    let dir = tmp_dir(&format!("base-{tag}"));
    let setup = tiny_setup();
    let js = jobs(&setup);
    let (store, report) = engine(&dir, None).run(&js);
    assert_eq!(report.failed.len(), 0, "fault-free baseline must pass");
    let out = surviving(&store, &js);
    assert_eq!(out.len(), js.len());
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Oracle (a) + (b): across seeds and rates up to 0.2, with every fault
/// kind armed, the engine terminates and every surviving output is
/// bit-identical to the fault-free run.
#[test]
fn surviving_outputs_are_bit_identical_under_any_plan() {
    let reference = baseline("ident");
    let setup = tiny_setup();
    let js = jobs(&setup);
    for seed in [1u64, 7, 42] {
        for rate in [0.1f64, 0.2] {
            let dir = tmp_dir(&format!("ident-{seed}-{}", (rate * 100.0) as u32));
            let plan = FaultPlan::new(seed, rate);
            let (store, report) = engine(&dir, Some(plan)).run(&js);
            let got = surviving(&store, &js);
            for (label, text) in &got {
                assert_eq!(
                    text,
                    reference.get(label).expect("label set is fixed"),
                    "seed={seed} rate={rate}: surviving output {label} diverged"
                );
            }
            // Accounting: every requested job either survived or is in
            // the failure list (which also names failed dependencies).
            for j in &js {
                let label = j.label();
                assert!(
                    got.contains_key(&label) || report.failed.iter().any(|(l, _)| *l == label),
                    "seed={seed} rate={rate}: {label} neither survived nor failed"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Oracle (c): a run killed and restarted with the *same* fault plan
/// converges. Each restart is a fresh engine over the same store — the
/// cache heals corrupt entries (quarantine indices advance the fault
/// occurrence, so a torn write is not deterministically re-torn), so
/// within a few rounds a pass is fully warm and clean, and the final
/// store matches the fault-free one with nothing corrupt left behind.
#[test]
fn restarted_runs_converge_to_the_fault_free_store() {
    let reference = baseline("conv");
    let setup = tiny_setup();
    let js = jobs(&setup);
    // Recoverable kinds only: an injected panic is terminal by design,
    // so it cannot converge and is excluded here.
    let kinds = [FaultKind::TornWrite, FaultKind::BitFlip];
    for seed in [3u64, 11] {
        let dir = tmp_dir(&format!("conv-{seed}"));
        let plan = FaultPlan::new(seed, 0.2).with_kinds(&kinds);
        let mut clean = false;
        for round in 0..8 {
            let e = engine(&dir, Some(plan.clone()));
            let (_, report) = e.run(&js);
            if report.failed.is_empty() && report.corrupt == 0 && report.executed == 0 {
                clean = true;
                break;
            }
            // Progress is not monotone (a store fault can corrupt a
            // fresh entry), but occurrence re-rolls make a clean warm
            // pass overwhelmingly likely within the round budget.
            let _ = round;
        }
        assert!(clean, "seed={seed}: no clean warm pass within 8 restarts");
        // The converged store answers everything from cache and matches
        // the fault-free outputs bit for bit.
        let e = engine(&dir, None);
        let (store, report) = e.run(&js);
        assert_eq!(report.executed, 0, "converged store must be fully warm");
        assert_eq!(report.failed.len(), 0);
        assert_eq!(surviving(&store, &js), reference, "seed={seed}");
        // And nothing corrupt survives an offline fsck.
        let fsck = e.fsck().expect("fsck");
        assert_eq!(fsck.corrupt, 0, "seed={seed}: corrupt entries survived");
        assert_eq!(fsck.valid, fsck.scanned);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Injected panics are terminal: the job fails on its one execution and
/// unaffected jobs in the same wave still complete and match.
#[test]
fn panics_kill_only_their_own_job() {
    let reference = baseline("panic");
    let setup = tiny_setup();
    let js = jobs(&setup);
    let dir = tmp_dir("panic-only");
    // Panic-only plan at a rate that certainly hits something.
    let plan = FaultPlan::new(5, 0.5).with_kinds(&[FaultKind::Panic]);
    let (store, report) = engine(&dir, Some(plan)).run(&js);
    assert!(
        !report.failed.is_empty(),
        "a 0.5-rate panic plan must hit at least one of the jobs"
    );
    for (label, text) in surviving(&store, &js) {
        assert_eq!(text, reference[&label], "survivor {label} diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
