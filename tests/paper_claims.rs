//! Integration tests for the paper's structural claims — the mechanisms
//! that must hold for the evaluation's shape to emerge, each checked on
//! a small machine so the suite stays fast.

use poise_repro::gpu_sim::{Gpu, GpuConfig, KernelSource, WarpTuple};
use poise_repro::poise::profiler::{run_tuple, ProfileWindow};
use poise_repro::poise::{PoiseController, PoiseParams};
use poise_repro::poise_ml::{
    scoring, AnalyticalParams, FeatureVector, ReducedParams, SpeedupGrid, TrainedModel, N_FEATURES,
};
use poise_repro::workloads::{
    compute_insensitive_suite, evaluation_suite, fig4_kernels, training_suite, AccessMix,
    KernelSpec, Workload,
};

fn window() -> ProfileWindow {
    ProfileWindow {
        warmup: 25_000,
        measure: 10_000,
    }
}

fn cfg() -> GpuConfig {
    GpuConfig::scaled(2)
}

/// Fig. 1 / Section I: more polluting warps than the cache can hold causes
/// thrashing; restricting pollution restores the polluting warps' hits.
#[test]
fn pollute_knob_controls_thrashing() {
    let kernel: Workload = KernelSpec::steady("k", AccessMix::memory_sensitive(), 1).into();
    let c = cfg();
    let all = run_tuple(&kernel, &c, WarpTuple::new(24, 24, 24), window());
    let one = run_tuple(&kernel, &c, WarpTuple::new(24, 1, 24), window());
    assert!(
        one.window.polluting_hit_rate() > all.window.l1_hit_rate() + 0.2,
        "p = 1 polluting warps must hit far more than the thrashing baseline"
    );
}

/// Section V-A: the intra/inter-warp hit split of the Fig. 4 kernels must
/// reproduce the paper's ordering: ii most intra-dominated, cfd most
/// inter-dominated.
#[test]
fn fig4_locality_split_ordering() {
    let c = cfg();
    let mut shares = Vec::new();
    for k in fig4_kernels() {
        let base = run_tuple(&k.clone().into(), &c, WarpTuple::max(24), window());
        let w = base.window;
        let hits = w.l1_hits.max(1) as f64;
        shares.push((k.name.clone(), w.l1_intra_hits as f64 / hits));
    }
    let get = |n: &str| {
        shares
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert!(get("ii") > 0.8, "ii intra share {}", get("ii"));
    assert!(get("cfd") < 0.2, "cfd intra share {}", get("cfd"));
    assert!(get("ii") > get("bfs"), "ii > bfs");
    assert!(get("bfs") > get("cfd"), "bfs > cfd");
    assert!(get("syr2k") < get("ii"), "syr2k less intra than ii");
}

/// Table IIIa: training and evaluation suites are disjoint and respect
/// the paper's kernel counts (277 train / 346 eval).
#[test]
fn suite_structure_matches_table_iiia() {
    let train = training_suite();
    let eval = evaluation_suite();
    assert_eq!(train.iter().map(|b| b.kernels.len()).sum::<usize>(), 277);
    assert_eq!(eval.iter().map(|b| b.kernels.len()).sum::<usize>(), 346);
    for t in train {
        assert!(eval.iter().all(|e| e.name != t.name));
    }
}

/// Fig. 16 premise: the compute-insensitive suite triggers the Imax
/// early-out (In > 49) and therefore runs at maximum warps.
#[test]
fn insensitive_suite_exceeds_imax() {
    let c = cfg();
    for bench in compute_insensitive_suite().iter().take(2) {
        let base = run_tuple(&bench.kernels[0], &c, WarpTuple::max(24), window());
        assert!(
            base.window.in_avg() > PoiseParams::default().i_max,
            "{}: In = {}",
            bench.name,
            base.window.in_avg()
        );
    }
}

/// Equation 7/8 sanity at system level: a tuple the profiler rates above
/// 1 must also satisfy the analytical speedup criterion when its observed
/// rates are substituted into the model.
#[test]
fn analytical_model_agrees_with_observed_speedup_direction() {
    let kernel: Workload = KernelSpec::steady("k", AccessMix::memory_sensitive(), 9).into();
    let c = cfg();
    let base = run_tuple(&kernel, &c, WarpTuple::max(24), window());
    let tuned = run_tuple(&kernel, &c, WarpTuple::new(8, 2, 24), window());
    let b = base.window;
    let t = tuned.window;
    // Feed observed rates into Equations 1-6.
    let params = ReducedParams {
        base: AnalyticalParams {
            n: 24.0,
            mo: 1.0 - b.l1_hit_rate(),
            lo: b.aml(),
            kmshr: 32.0,
            id: b.in_avg().min(50.0),
            tpipe: 1.0,
        },
        p: 2.0,
        mp: 1.0 - t.polluting_hit_rate(),
        mnp: 1.0 - t.non_polluting_hit_rate(),
        l_prime: t.aml(),
    };
    let observed_speedup = t.ipc() / b.ipc();
    if observed_speedup > 1.05 {
        assert!(
            params.t_stall() <= params.base.t_stall(),
            "model must not predict more stalls for an observed speedup"
        );
    }
}

/// Section V-C: the scoring system never selects a point whose own
/// speedup is the grid minimum (it always prefers good neighbourhoods).
#[test]
fn scoring_avoids_minima() {
    let mut g = SpeedupGrid::new(10);
    for n in 1..=10 {
        for p in 1..=n {
            g.set(n, p, 1.0 + ((n + 2 * p) % 5) as f64 * 0.05);
        }
    }
    g.set(9, 3, 0.4); // deep pit
    let (t, _) = g
        .best_scored(&poise_repro::poise_ml::ScoringWeights::default())
        .unwrap();
    assert_ne!(t, WarpTuple { n: 9, p: 3 });
}

/// Section V-C scaling: a partial-occupancy kernel's targets scale to
/// full capacity for training and back for prediction.
#[test]
fn tuple_scaling_round_trip_partial_occupancy() {
    for avail in [8usize, 12, 16, 24] {
        let t = WarpTuple::new(avail / 2, (avail / 4).max(1), avail);
        let up = scoring::scale_tuple(t, avail, 24);
        let down = scoring::reverse_scale_tuple(up, avail, 24);
        assert!(
            (down.n as i64 - t.n as i64).abs() <= 1 && (down.p as i64 - t.p as i64).abs() <= 1,
            "avail {avail}: {t} -> {up} -> {down}"
        );
    }
}

/// Occupancy-limited kernels must steer tuples within their own warp
/// count, never the hardware maximum.
#[test]
fn partial_occupancy_clamps_hie_tuples() {
    let kernel = KernelSpec::steady("occ", AccessMix::memory_sensitive(), 31).with_warps(12);
    let mut alpha = [0.0; N_FEATURES];
    let mut beta = [0.0; N_FEATURES];
    alpha[N_FEATURES - 1] = (20.0f64).ln(); // model wants N = 20
    beta[N_FEATURES - 1] = (10.0f64).ln();
    let model = TrainedModel {
        alpha,
        beta,
        dispersion_n: 0.1,
        dispersion_p: 0.1,
        samples_used: 0,
        dropped_features: Vec::new(),
    };
    let mut gpu = Gpu::new(cfg(), &kernel);
    let mut ctrl = PoiseController::new(model, PoiseParams::scaled_down(10));
    gpu.run(&mut ctrl, 30_000);
    assert!(!ctrl.log.is_empty());
    for l in &ctrl.log {
        assert!(
            l.searched.n <= 12,
            "tuple {} exceeds the kernel's 12-warp occupancy",
            l.searched
        );
    }
}

/// The feature vector is finite for every suite kernel's counter windows
/// (no NaN/inf can reach the link function).
#[test]
fn features_are_finite_for_all_suite_archetypes() {
    let c = cfg();
    let mut kernels: Vec<Workload> = Vec::new();
    for b in evaluation_suite() {
        kernels.push(b.kernels[0].clone());
    }
    kernels.push(compute_insensitive_suite()[0].kernels[0].clone());
    for k in kernels {
        let base = run_tuple(
            &k,
            &c,
            WarpTuple::max(KernelSource::warps_per_scheduler(&k)),
            window(),
        );
        let refp = run_tuple(&k, &c, WarpTuple::new(1, 1, 24), window());
        let x = FeatureVector::from_samples(
            &poise_repro::gpu_sim::WindowSample::from_counters(&base.window),
            &poise_repro::gpu_sim::WindowSample::from_counters(&refp.window),
        );
        assert!(
            x.as_slice().iter().all(|v| v.is_finite()),
            "{}: {x}",
            k.name()
        );
    }
}
