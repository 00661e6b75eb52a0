//! Criterion benches — one group per paper table/figure, each timing a
//! scaled-down version of the regeneration pipeline (1-SM machine, short
//! windows). The full-size regenerator is `run_all` (`cargo run
//! --release -p poise-bench --bin run_all -- --only fig07` for one
//! figure); these bench targets exist so `cargo bench` exercises every
//! experiment's code path with measured cost.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{Gpu, WarpTuple};
use poise::experiment::{self, Scheme, Setup};
use poise::profiler::{pbest, profile_grid, run_tuple, GridSpec, ProfileWindow};
use poise::{PoiseController, PoiseParams};
use poise_ml::{FeatureVector, ScoringWeights, TrainedModel, N_FEATURES};
use workloads::{compute_insensitive_suite, evaluation_suite, fig4_kernels};

fn tiny_setup() -> Setup {
    Setup::for_tests()
}

fn tiny_model() -> TrainedModel {
    let mut alpha = [0.0; N_FEATURES];
    let mut beta = [0.0; N_FEATURES];
    alpha[N_FEATURES - 1] = (8.0f64).ln();
    beta[N_FEATURES - 1] = (2.0f64).ln();
    TrainedModel {
        alpha,
        beta,
        dispersion_n: 0.1,
        dispersion_p: 0.1,
        samples_used: 0,
        dropped_features: Vec::new(),
    }
}

fn win() -> ProfileWindow {
    ProfileWindow {
        warmup: 400,
        measure: 800,
    }
}

fn ii_kernel() -> workloads::Workload {
    evaluation_suite()
        .into_iter()
        .find(|b| b.name == "ii")
        .expect("ii")
        .kernels[0]
        .clone()
}

fn fig02_grid(c: &mut Criterion) {
    let s = tiny_setup();
    let k = ii_kernel();
    c.bench_function("fig02/solution-space-profile", |b| {
        b.iter(|| profile_grid(&k, &s.cfg, &GridSpec::full(6), win()))
    });
}

fn fig04_characterisation(c: &mut Criterion) {
    let s = tiny_setup();
    let mut cfg = s.cfg.clone();
    cfg.track_reuse_distance = true;
    let k: workloads::Workload = fig4_kernels().remove(0).into();
    c.bench_function("fig04/hit-rate-decomposition", |b| {
        b.iter(|| run_tuple(&k, &cfg, WarpTuple::new(24, 1, 24), win()))
    });
}

fn fig05_scoring(c: &mut Criterion) {
    let s = tiny_setup();
    let k = ii_kernel();
    c.bench_function("fig05/score-profiled-grid", |b| {
        let grid = profile_grid(&k, &s.cfg, &GridSpec::full(6), win());
        b.iter(|| grid.best_scored(&ScoringWeights::default()))
    });
}

fn table2_training(c: &mut Criterion) {
    // One training sample collection + fit on synthetic features: the
    // pipeline cost without the full suite sweep.
    let rows: Vec<FeatureVector> = (0..24)
        .map(|i| {
            let t = i as f64 / 24.0;
            FeatureVector([
                0.2 + 0.1 * t,
                0.6 + 0.3 * t,
                0.1 + 0.1 * t,
                0.4 + 0.5 * t,
                t * t,
                3.0 * t * t,
                0.2,
                1.0,
            ])
        })
        .collect();
    let samples: Vec<poise_ml::TrainingSample> = rows
        .iter()
        .enumerate()
        .map(|(i, f)| poise_ml::TrainingSample {
            kernel: format!("k{i}"),
            features: *f,
            target: WarpTuple::new(4 + i % 12, 1 + i % 4, 24),
            best_speedup: 1.3,
            baseline_cycles: 50_000,
            ref_hit_rate: 0.5,
        })
        .collect();
    c.bench_function("table2/nb-training", |b| {
        b.iter(|| {
            poise_ml::TrainedModel::fit(&samples, &poise_ml::TrainingThresholds::default(), &[])
                .expect("fit")
        })
    });
}

fn table3_pbest(c: &mut Criterion) {
    let s = tiny_setup();
    let k = ii_kernel();
    c.bench_function("table3/pbest-classification", |b| {
        b.iter(|| pbest(&k, &s.cfg, win()))
    });
}

fn fig07_to_09_comparison(c: &mut Criterion) {
    let s = tiny_setup();
    let m = tiny_model();
    let bench = workloads::Benchmark::new("ii-tiny", vec![ii_kernel()]);
    for scheme in [Scheme::Gto, Scheme::Swl, Scheme::PcalSwl, Scheme::Poise] {
        c.bench_function(&format!("fig07-09/run-{}", scheme.name()), |b| {
            b.iter(|| experiment::run_benchmark(&bench, scheme, &m, &s))
        });
    }
}

fn fig10_11_hie_epoch(c: &mut Criterion) {
    let s = tiny_setup();
    let k = ii_kernel();
    c.bench_function("fig10-11/poise-epoch", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(s.cfg.clone(), &k);
            let mut ctrl = PoiseController::new(tiny_model(), PoiseParams::scaled_down(50));
            gpu.run(&mut ctrl, 6_000);
            ctrl.log.len()
        })
    });
}

fn fig12_cache_scaling(c: &mut Criterion) {
    let s = tiny_setup();
    let k = ii_kernel();
    c.bench_function("fig12/64k-l1-run", |b| {
        let cfg = s.cfg.clone().with_l1_scale(4);
        b.iter(|| run_tuple(&k, &cfg, WarpTuple::max(24), win()))
    });
}

fn fig13_ablated_prediction(c: &mut Criterion) {
    let m = tiny_model();
    let x = FeatureVector([0.2, 0.8, 0.15, 0.7, 0.3, 0.9, 0.4, 1.0]);
    c.bench_function("fig13/ablated-predict", |b| {
        b.iter(|| {
            let ab = x.without_feature(5);
            m.predict(&ab, 24)
        })
    });
}

fn fig14_energy(c: &mut Criterion) {
    let s = tiny_setup();
    let k = ii_kernel();
    c.bench_function("fig14/energy-accounting", |b| {
        let st = run_tuple(&k, &s.cfg, WarpTuple::max(24), win());
        b.iter(|| {
            gpu_sim::EnergyBreakdown::from_counters(&st.window, &s.cfg.energy, s.cfg.sms).total()
        })
    });
}

fn fig15_alternatives(c: &mut Criterion) {
    let s = tiny_setup();
    let m = tiny_model();
    let bench = workloads::Benchmark::new("ii-tiny", vec![ii_kernel()]);
    for scheme in [Scheme::Apcm, Scheme::RandomRestart] {
        c.bench_function(&format!("fig15/run-{}", scheme.name()), |b| {
            b.iter(|| experiment::run_benchmark(&bench, scheme, &m, &s))
        });
    }
}

fn fig16_insensitive(c: &mut Criterion) {
    let s = tiny_setup();
    let m = tiny_model();
    let bench = compute_insensitive_suite().remove(0);
    c.bench_function("fig16/compute-intensive-early-out", |b| {
        b.iter(|| experiment::run_benchmark(&bench, Scheme::Poise, &m, &s))
    });
}

fn fig17_case_study(c: &mut Criterion) {
    let s = tiny_setup();
    let bfs = evaluation_suite()
        .into_iter()
        .find(|b| b.name == "bfs")
        .expect("bfs")
        .kernels[0]
        .clone();
    c.bench_function("fig17/bfs-trajectory", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(s.cfg.clone(), &bfs);
            let mut ctrl = PoiseController::new(tiny_model(), PoiseParams::scaled_down(50));
            gpu.run(&mut ctrl, 8_000);
            ctrl.tuple_trace.len()
        })
    });
}

criterion_group!(
    figures,
    fig02_grid,
    fig04_characterisation,
    fig05_scoring,
    table2_training,
    table3_pbest,
    fig07_to_09_comparison,
    fig10_11_hie_epoch,
    fig12_cache_scaling,
    fig13_ablated_prediction,
    fig14_energy,
    fig15_alternatives,
    fig16_insensitive,
    fig17_case_study
);
criterion_main!(figures);
