//! The end-to-end offline training pipeline (paper Section V-C/V-D):
//! profile each training kernel over the {N, p} grid, pick the
//! best-*scored* tuple (Eq. 12), scale it to scheduler capacity, sample
//! the Table II features at the two reference points, filter by the
//! Table IV thresholds, and fit the two Negative Binomial regressions.
//!
//! A sample reads everything off one profile of its kernel: the scored
//! target tuple from the grid's speedups, and both reference feature
//! windows from the grid's runs, the baseline `(max, max)` and `(1, 1)`
//! (simulated too when the grid lacks it). The runs come from a
//! [`SteadyMemo`]: the job engine's, shared by every job of its pass
//! (so a sample over a grid some profile of the pass already swept
//! simulates nothing new), or a fresh one per [`collect_sample`] call.

use crate::experiment::Setup;
use crate::params::PoiseParams;
use crate::profiler::{GridSpec, ProfileWindow, SteadyMemo};
use gpu_sim::{GpuConfig, WarpTuple, WindowSample};
use poise_ml::{scoring, FeatureVector, TrainedModel, TrainingSample, TrainingThresholds};
use workloads::{training_suite, Workload};

/// Collect one training sample from a kernel: profile, score, sample
/// features at the two reference points.
pub fn collect_sample(
    spec: &Workload,
    cfg: &GpuConfig,
    grid: &GridSpec,
    window: ProfileWindow,
    params: &PoiseParams,
) -> TrainingSample {
    collect_sample_scored(
        &SteadyMemo::default(),
        spec,
        cfg,
        grid,
        window,
        &params.scoring,
    )
}

/// [`collect_sample`] with the scoring weights alone — the only
/// [`PoiseParams`] field sampling reads — over `memo`'s runs. The job
/// engine keys sample caches on exactly this argument list, so parameter
/// studies that leave the scoring untouched (e.g. the Fig. 11 stride
/// sweep) share samples.
pub fn collect_sample_scored(
    memo: &SteadyMemo,
    spec: &Workload,
    cfg: &GpuConfig,
    grid: &GridSpec,
    window: ProfileWindow,
    scoring: &poise_ml::ScoringWeights,
) -> TrainingSample {
    let runs = memo.runs(spec, cfg, window);
    let max_warps = runs.max_warps();
    let profile = runs.profile(grid);

    let (target, _) = profile
        .best_scored(scoring)
        .unwrap_or((WarpTuple::max(max_warps), 1.0));
    let best_speedup = profile.best_performance().map(|(_, s)| s).unwrap_or(1.0);
    let scaled = scoring::scale_tuple(target, max_warps, cfg.max_warps_per_scheduler);

    // Feature sampling at the same two reference points the HIE uses:
    // the profile's baseline and (1, 1), both read from the memo (the
    // profile ran the baseline, and (1, 1) too when the grid holds it).
    let base = runs.run(runs.max_tuple());
    let refp = runs.run(WarpTuple { n: 1, p: 1 });
    let base_s = WindowSample::from_counters(&base.window);
    let ref_s = WindowSample::from_counters(&refp.window);

    TrainingSample {
        kernel: spec.name().to_string(),
        features: FeatureVector::from_samples(&base_s, &ref_s),
        target: scaled,
        best_speedup,
        baseline_cycles: window.warmup + window.measure,
        ref_hit_rate: ref_s.hit_rate,
    }
}

/// Collect samples for a set of kernels.
pub fn collect_samples(
    kernels: &[Workload],
    cfg: &GpuConfig,
    grid: &GridSpec,
    window: ProfileWindow,
    params: &PoiseParams,
) -> Vec<TrainingSample> {
    kernels
        .iter()
        .map(|k| collect_sample(k, cfg, grid, window, params))
        .collect()
}

/// Train the default model on the training suite (gco, pvr, ccl), using
/// the setup's kernel cap and windows. This is the one-time GPU-vendor
/// step of the paper; evaluation benchmarks are never seen here.
pub fn train_default_model(setup: &Setup) -> TrainedModel {
    let suite = training_suite();
    let kernels: Vec<Workload> = suite
        .iter()
        .flat_map(|b| b.capped(setup.train_cap_per_benchmark).kernels)
        .collect();
    train_on_kernels(&kernels, setup, &[])
}

/// Train on explicit kernels, optionally dropping features (Fig. 13).
pub fn train_on_kernels(
    kernels: &[Workload],
    setup: &Setup,
    drop_features: &[usize],
) -> TrainedModel {
    let samples = collect_samples(
        kernels,
        &setup.cfg,
        &setup.train_grid,
        setup.profile_window,
        &setup.params,
    );
    fit_samples(&samples, setup.profile_window, drop_features)
}

/// Fit a model on already-collected samples, with the admission
/// thresholds interpreted against the profiling window (and relaxed when
/// the population is too small for the paper's defaults). Shared by
/// [`train_on_kernels`] and the job engine, which caches sample
/// collection and fitting separately.
pub fn fit_samples(
    samples: &[TrainingSample],
    window: ProfileWindow,
    drop_features: &[usize],
) -> TrainedModel {
    let thresholds = TrainingThresholds {
        // The profiling windows are fixed-length; the cycle threshold is
        // interpreted against the window length.
        min_cycles: window.measure.min(TrainingThresholds::default().min_cycles),
        ..TrainingThresholds::default()
    };
    match TrainedModel::fit(samples, &thresholds, drop_features) {
        Ok(m) => m,
        // Small training populations can fall below the admission
        // thresholds (which assume the paper's 277-kernel set); relax them
        // rather than failing, so capped runs still produce a model.
        Err(_) => {
            let relaxed = TrainingThresholds {
                min_speedup: 0.0,
                min_cycles: 0,
                min_ref_hit_rate: -1.0,
            };
            TrainedModel::fit(samples, &relaxed, drop_features)
                .expect("relaxed training fit must succeed")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{AccessMix, KernelSpec};

    fn tiny_setup() -> Setup {
        Setup::for_tests()
    }

    #[test]
    fn collect_sample_produces_valid_training_row() {
        let setup = tiny_setup();
        let spec: Workload = KernelSpec::steady("tr", AccessMix::memory_sensitive(), 11).into();
        let s = collect_sample(
            &spec,
            &setup.cfg,
            &GridSpec::diagonal(8),
            setup.profile_window,
            &setup.params,
        );
        assert!(s.features.as_slice().iter().all(|v| v.is_finite()));
        assert!(s.target.n >= 1 && s.target.p >= 1);
        assert!(s.best_speedup > 0.0);
    }

    #[test]
    fn training_on_diverse_kernels_fits() {
        let setup = tiny_setup();
        let kernels: Vec<Workload> = (0..10)
            .map(|i| {
                let mut mix = AccessMix::memory_sensitive();
                mix.hot_lines = 8 + 4 * i;
                mix.hot_frac = 0.4 + 0.05 * i as f64;
                KernelSpec::steady(format!("k{i}"), mix, i as u64).into()
            })
            .collect();
        let model = train_on_kernels(&kernels, &setup, &[]);
        assert!(model.samples_used >= poise_ml::N_FEATURES);
        assert!(model.alpha.iter().all(|w| w.is_finite()));
        assert!(model.beta.iter().all(|w| w.is_finite()));
    }
}
