//! Golden pins of [`SimJob::spec_text`] for every job kind.
//!
//! The spec text *is* cache identity: its SHA-256 (plus dependency
//! digests and the digest of the sources that compute the result)
//! addresses each result under `results/cache/`. These tests freeze the
//! exact rendering for one representative job per kind, so a struct
//! refactor that accidentally changes the rendering — a field rename
//! leaking through a `Debug` derive, a reordered field list, a float
//! formatting change — fails loudly here instead of silently aliasing
//! distinct jobs or moving every spec hash (the identity that fault
//! plans and failure reports name). An *intentional* identity change
//! must update these goldens.

use gpu_sim::{GpuConfig, StepMode, WarpTuple};
use poise::cache::sha256_hex;
use poise::experiment::Scheme;
use poise::jobs::{
    KernelRunSpec, ModelSpec, PbestSpec, ProfileSpec, SampleSpec, SimJob, TupleRunSpec,
};
use poise::profiler::{GridSpec, ProfileWindow};
use poise_ml::ScoringWeights;
use workloads::{AccessMix, KernelSpec, Workload};

// The shared building blocks of the goldens, pinned verbatim.
const KERNEL: &str = "kernel KernelSpec { name: \"golden\", warps_per_scheduler: 24, phases: \
     [Phase { mix: AccessMix { alu_per_load: 4, mlp: 2, ind_gap: 1, hot_lines: 16, \
     hot_repeat: 2, hot_frac: 0.8, cold_lines: 256, shared_lines: 48, shared_frac: 0.15, \
     stream_frac: 0.05, store_frac: 0.05 }, instructions: 18446744073709551615 }], \
     trace_len: None, seed: 3 }";
const CFG: &str = "cfg gpu v1 sms=2 schedulers=2 max_warps=24 \
     l1=sets:32,ways:4,line:128,index:hashed l1_hit_latency=72 l1_mshrs=32 \
     mshr_merge_limit=8 l2=sets:96,ways:8,line:128,index:linear,banks:2,latency:120,service:2 \
     xbar=16 dram=partitions:1,latency:220,service:12 \
     energy=alu:1.0,l1:4.0,l2:16.0,dram:160.0,leak:6.0 track_reuse=false track_pc=false";
const GRID: &str = "grid v1 max_n=4 points=1:1,2:2,3:3,4:4";
const WINDOW: &str = "window v1 warmup=100 measure=200";
const SCORING: &str = "scoring v1 w=1.0,0.5,0.25";

fn workload() -> Workload {
    KernelSpec::steady("golden", AccessMix::memory_sensitive(), 3).into()
}

fn cfg() -> GpuConfig {
    GpuConfig::scaled(2)
}

fn window() -> ProfileWindow {
    ProfileWindow {
        warmup: 100,
        measure: 200,
    }
}

fn setup() -> poise::Setup {
    poise::Setup {
        cfg: cfg(),
        eval_grid: GridSpec::diagonal(4),
        profile_window: window(),
        run_cycles: 5_000,
        ..poise::Setup::for_tests()
    }
}

fn model_spec() -> ModelSpec {
    ModelSpec {
        kernels: vec![workload()],
        cfg: cfg(),
        grid: GridSpec::diagonal(4),
        window: window(),
        scoring: ScoringWeights::default(),
        drop_features: vec![1, 3],
    }
}

fn golden_profile() -> String {
    format!("job profile\n{KERNEL}\n{CFG}\n{GRID}\n{WINDOW}\n")
}

fn golden_train() -> String {
    format!("job train\n{KERNEL}\n{CFG}\n{GRID}\n{WINDOW}\n{SCORING}\ndrop_features 1,3\n")
}

#[test]
fn spec_texts_match_goldens() {
    let profile_spec = ProfileSpec {
        workload: workload(),
        cfg: cfg(),
        grid: GridSpec::diagonal(4),
        window: window(),
    };
    let mut poise_run =
        KernelRunSpec::new(&workload(), Scheme::Poise, &setup(), Some(&model_spec()));
    // The display tag must never reach the spec text.
    poise_run.tag = Some("sms=2".into());
    let swl_run = KernelRunSpec::new(&workload(), Scheme::Swl, &setup(), None);

    // Dependency references are the SHA-256 of the dependency's own
    // golden text, derived from the pinned strings (not from the code
    // under test), so an edit to either side trips the comparison.
    let golden_run_poise = format!(
        "job run\n{KERNEL}\nscheme Poise\n{CFG}\nrun_cycles 5000\nparams v1 {SCORING} \
         t_period=20000 t_warmup=200 t_feature=1000 t_search=400 i_max=49.0 stride_n=2 \
         stride_p=4\nmodel {}\n",
        sha256_hex(&golden_train())
    );
    let golden_run_swl = format!(
        "job run\n{KERNEL}\nscheme SWL\n{CFG}\nrun_cycles 5000\nprofile {}\n",
        sha256_hex(&golden_profile())
    );

    let cases: Vec<(&str, SimJob, String)> = vec![
        ("profile", SimJob::Profile(profile_spec), golden_profile()),
        (
            "pbest",
            SimJob::Pbest(PbestSpec {
                workload: workload(),
                cfg: cfg(),
                window: window(),
            }),
            format!("job pbest\n{KERNEL}\n{CFG}\n{WINDOW}\n"),
        ),
        (
            "tuple",
            SimJob::TupleRun(TupleRunSpec {
                workload: workload(),
                cfg: cfg(),
                tuple: WarpTuple { n: 3, p: 2 },
                window: window(),
            }),
            format!("job tuple\n{KERNEL}\n{CFG}\ntuple v1 n=3 p=2\n{WINDOW}\n"),
        ),
        (
            "sample",
            SimJob::Sample(SampleSpec {
                workload: workload(),
                cfg: cfg(),
                grid: GridSpec::diagonal(4),
                window: window(),
                scoring: ScoringWeights::default(),
            }),
            format!("job sample\n{KERNEL}\n{CFG}\n{GRID}\n{WINDOW}\n{SCORING}\n"),
        ),
        ("train", SimJob::Train(model_spec()), golden_train()),
        ("run-poise", SimJob::Run(poise_run), golden_run_poise),
        ("run-swl", SimJob::Run(swl_run), golden_run_swl),
    ];
    for (name, job, expected) in cases {
        assert_eq!(
            job.spec_text(),
            expected,
            "{name}: cache identity changed — if intentional, update this golden"
        );
    }
}

#[test]
fn step_mode_is_excluded_from_cache_identity() {
    // All step modes are proven bit-identical (the differential suites),
    // so switching the run loop must keep hitting the same cache entries.
    let mut a = cfg();
    let mut b = cfg();
    a.step_mode = StepMode::PerSm;
    b.step_mode = StepMode::Reference;
    let job = |c: GpuConfig| {
        SimJob::Pbest(PbestSpec {
            workload: workload(),
            cfg: c,
            window: window(),
        })
    };
    assert_eq!(job(a).spec_text(), job(b).spec_text());
}

#[test]
fn display_tag_never_enters_identity_or_equality() {
    let mut tagged = KernelRunSpec::new(&workload(), Scheme::Gto, &setup(), None);
    let bare = tagged.clone();
    tagged.tag = Some("sms=16".into());
    assert_eq!(
        SimJob::Run(tagged.clone()).spec_text(),
        SimJob::Run(bare.clone()).spec_text()
    );
    assert_eq!(tagged, bare, "tag is display-only");
    assert!(SimJob::Run(tagged).label().contains("sms=16"));
    assert!(!SimJob::Run(bare).label().contains("sms="));
}
