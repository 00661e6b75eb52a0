//! Shared experiment runners for the figure/table regenerators.
//!
//! A [`Setup`] bundles the machine configuration, Poise parameters,
//! profiling windows and effort caps; [`run_benchmark`] executes one
//! benchmark under one [`Scheme`] and aggregates per-kernel results the
//! way the paper reports them (benchmark IPC = total instructions / total
//! cycles; cross-benchmark means are harmonic for speedups and arithmetic
//! for rates).
//!
//! Kernel runs are independent (each owns its `Gpu`), so [`run_benchmark`]
//! fans its kernels across the host's cores.

use crate::hie::PoiseController;
use crate::parallel::parallel_map;
use crate::params::PoiseParams;
use crate::policies::{
    static_best_from_grid, swl_tuple_from_grid, ApcmController, PcalSwlController,
    RandomRestartController,
};
use crate::profiler::{profile_grid, GridSpec, ProfileWindow};
use gpu_sim::{
    Controller, Counters, EnergyBreakdown, FixedTuple, Gpu, GpuConfig, KernelSource, WarpTuple,
};
use poise_ml::{SpeedupGrid, TrainedModel};
use workloads::{Benchmark, Workload};

/// The warp-scheduling schemes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Greedy-then-oldest baseline at maximum warps.
    Gto,
    /// Static warp limiting (best diagonal tuple from an offline profile).
    Swl,
    /// Dynamic PCAL seeded by the SWL profile point.
    PcalSwl,
    /// Poise: prediction + local search.
    Poise,
    /// Best tuple from a full offline profile, per kernel.
    StaticBest,
    /// Random-restart stochastic search (averaged over seeds by caller).
    RandomRestart,
    /// APCM-style per-PC cache bypassing.
    Apcm,
}

impl Scheme {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Gto => "GTO",
            Scheme::Swl => "SWL",
            Scheme::PcalSwl => "PCAL-SWL",
            Scheme::Poise => "Poise",
            Scheme::StaticBest => "Static-Best",
            Scheme::RandomRestart => "Random-restart",
            Scheme::Apcm => "APCM",
        }
    }

    /// All schemes compared in Figs. 7–9.
    pub fn main_comparison() -> [Scheme; 5] {
        [
            Scheme::Gto,
            Scheme::Swl,
            Scheme::PcalSwl,
            Scheme::Poise,
            Scheme::StaticBest,
        ]
    }
}

/// Experiment-wide configuration: machine, Poise parameters, effort caps.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Simulated machine.
    pub cfg: GpuConfig,
    /// Poise runtime parameters.
    pub params: PoiseParams,
    /// Profiling window for offline profiles and training.
    pub profile_window: ProfileWindow,
    /// Grid used for offline profiling of evaluation kernels
    /// (SWL / PCAL start / Static-Best).
    pub eval_grid: GridSpec,
    /// Grid used for training-set profiling.
    pub train_grid: GridSpec,
    /// Cycles each kernel runs under each scheme in evaluation runs.
    pub run_cycles: u64,
    /// Max kernels per evaluation benchmark (deterministic subsample).
    pub kernels_cap: usize,
    /// Max kernels per training benchmark.
    pub train_cap_per_benchmark: usize,
    /// Seeds for random-restart averaging.
    pub rr_seeds: Vec<u64>,
}

impl Default for Setup {
    fn default() -> Self {
        // Deliberately a *pure* constant: effort knobs reach a Setup only
        // through an explicitly applied `crate::plan::KnobOverlay`, parsed
        // once at CLI entry (`--set` / `--sweep`). Reading the
        // environment here let two jobs built in one process silently
        // disagree when a variable changed mid-run.
        Setup {
            cfg: GpuConfig::scaled(8),
            params: PoiseParams::default(),
            profile_window: ProfileWindow::default(),
            eval_grid: GridSpec::coarse(24),
            train_grid: GridSpec::coarse(24),
            run_cycles: 400_000,
            kernels_cap: 3,
            train_cap_per_benchmark: 8,
            rr_seeds: vec![11, 23, 47],
        }
    }
}

impl Setup {
    /// A very small setup for unit tests: 1-SM machine, short windows.
    pub fn for_tests() -> Self {
        Setup {
            cfg: GpuConfig::scaled(1),
            params: PoiseParams::scaled_down(10),
            profile_window: ProfileWindow {
                warmup: 500,
                measure: 2_000,
            },
            eval_grid: GridSpec::coarse(24),
            train_grid: GridSpec::diagonal(12),
            run_cycles: 40_000,
            kernels_cap: 2,
            train_cap_per_benchmark: 4,
            rr_seeds: vec![1],
        }
    }
}

/// Result of running one kernel under one scheme.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Kernel name.
    pub kernel: String,
    /// Total counters over the run.
    pub counters: Counters,
    /// Energy over the run.
    pub energy: EnergyBreakdown,
    /// Poise epoch logs, if the scheme was Poise.
    pub epoch_logs: Vec<crate::hie::EpochLog>,
}

/// Aggregated result of one benchmark under one scheme.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub bench: String,
    /// Scheme executed.
    pub scheme: Scheme,
    /// Aggregate IPC (Σ instructions / Σ cycles over kernels).
    pub ipc: f64,
    /// Aggregate absolute L1 hit rate.
    pub l1_hit_rate: f64,
    /// Aggregate average memory latency.
    pub aml: f64,
    /// Total energy.
    pub energy: f64,
    /// Per-kernel runs.
    pub kernels: Vec<KernelRun>,
}

/// Offline per-kernel profile artefacts shared by SWL / PCAL / Static-Best.
#[derive(Debug)]
pub struct OfflineProfile {
    /// The speedup surface.
    pub grid: SpeedupGrid,
    /// Best diagonal tuple (SWL's choice, PCAL's starting point).
    pub swl: WarpTuple,
    /// Best overall tuple (Static-Best's choice).
    pub best: WarpTuple,
}

/// The two tuples a run extracts from an [`OfflineProfile`] — the only
/// part of a profile the profile-driven schemes actually consume (which
/// is why the job-cache key of such a run digests just these, see
/// [`crate::jobs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileTuples {
    /// Best diagonal tuple (SWL's choice, PCAL's starting point).
    pub swl: WarpTuple,
    /// Best overall tuple (Static-Best's choice).
    pub best: WarpTuple,
}

/// Profile one workload offline (used by the static schemes).
pub fn offline_profile(spec: &Workload, setup: &Setup) -> OfflineProfile {
    let max_warps = spec
        .warps_per_scheduler()
        .min(setup.cfg.max_warps_per_scheduler);
    let grid = profile_grid(spec, &setup.cfg, &setup.eval_grid, setup.profile_window);
    OfflineProfile {
        swl: swl_tuple_from_grid(&grid, max_warps),
        best: static_best_from_grid(&grid, max_warps),
        grid,
    }
}

/// Run one kernel for `setup.run_cycles` under `scheme`.
///
/// `profile` must be provided for the profile-driven schemes (SWL,
/// PCAL-SWL, Static-Best); `model` for Poise.
pub fn run_kernel(
    spec: &Workload,
    scheme: Scheme,
    model: &TrainedModel,
    profile: Option<&OfflineProfile>,
    setup: &Setup,
) -> KernelRun {
    run_kernel_configured(
        spec,
        scheme,
        Some(model),
        profile.map(|p| ProfileTuples {
            swl: p.swl,
            best: p.best,
        }),
        &setup.cfg,
        &setup.params,
        &setup.rr_seeds,
        setup.run_cycles,
        &NoPrefixes,
    )
}

/// Run one kernel under `scheme` with every input explicit — the
/// execution core shared by [`run_kernel`] and the job engine
/// ([`crate::jobs`]). The explicit argument list is deliberately the
/// dependency surface of a run: everything a scheme's result can depend
/// on is a parameter here and a cache-key field there. `prefixes` is the
/// snapshot transport of a prefix-factored run (see `run_segments`);
/// [`NoPrefixes`] runs cold. Random-restart averages several seeded
/// reruns of the whole span and never forks.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel_configured(
    spec: &Workload,
    scheme: Scheme,
    model: Option<&TrainedModel>,
    tuples: Option<ProfileTuples>,
    base_cfg: &GpuConfig,
    params: &PoiseParams,
    rr_seeds: &[u64],
    run_cycles: u64,
    prefixes: &dyn PrefixStore,
) -> KernelRun {
    let (result, epoch_logs) = if scheme == Scheme::RandomRestart {
        // Average over seeds: run each seed for the full budget and
        // merge counters (equal-cycle weighting).
        let mut merged: Option<gpu_sim::SimResult> = None;
        for &seed in rr_seeds {
            let mut ctrl = RandomRestartController::new(seed, params.t_period);
            let r = Gpu::new(base_cfg.clone(), spec).run(&mut ctrl, run_cycles);
            merged = Some(match merged {
                None => r,
                Some(mut acc) => {
                    acc.counters = merge_counters(&acc.counters, &r.counters);
                    acc.cycles += r.cycles;
                    acc
                }
            });
        }
        (merged.expect("at least one seed"), Vec::new())
    } else {
        let (result, ctl, _gpu) = run_segments(
            spec, scheme, model, tuples, base_cfg, params, run_cycles, prefixes,
        );
        (result, ctl.into_epoch_logs())
    };
    KernelRun {
        kernel: spec.name().to_string(),
        counters: result.counters,
        energy: result.energy,
        epoch_logs,
    }
}

/// Version header of the serialized prefix blob (see [`PrefixBlob`]).
/// Blobs are cache entries, whose keys carry the code digest, so no
/// build reads a blob that another build encoded.
pub const PREFIX_HEADER: &str = "poise-prefix v1";

/// A serialized simulation prefix: the full machine image plus the
/// controller's policy state at a barrier cycle. This is the unit of
/// prefix-shared execution — any run (on any worker) whose declared
/// inputs match can restore the blob and simulate only its suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixBlob {
    /// Barrier cycle the blob was taken at.
    pub cycles: u64,
    /// `Controller::save_state` token stream (empty for stateless
    /// controllers such as the fixed-tuple schemes).
    pub ctrl: String,
    /// `Gpu::snapshot` text.
    pub gpu: String,
}

impl PrefixBlob {
    /// Render the durable on-disk form.
    pub fn to_text(&self) -> String {
        let mut out = format!("{PREFIX_HEADER}\ncycles {}\nctrl", self.cycles);
        if !self.ctrl.is_empty() {
            out.push(' ');
            out.push_str(&self.ctrl);
        }
        out.push('\n');
        out.push_str(&self.gpu);
        out
    }

    /// Parse the durable form; `None` on any structural damage. The gpu
    /// text is *not* validated here — restoring does that (and the cache
    /// fsck path runs `gpu_sim::snapshot::validate` separately).
    pub fn parse(text: &str) -> Option<PrefixBlob> {
        let rest = text.strip_prefix(PREFIX_HEADER)?.strip_prefix('\n')?;
        let (cycles_line, rest) = rest.split_once('\n')?;
        let cycles = cycles_line.strip_prefix("cycles ")?.parse().ok()?;
        let (ctrl_line, gpu) = rest.split_once('\n')?;
        let ctrl = ctrl_line.strip_prefix("ctrl")?.trim_start().to_string();
        if gpu.is_empty() {
            return None;
        }
        Some(PrefixBlob {
            cycles,
            ctrl,
            gpu: gpu.to_string(),
        })
    }
}

/// Snapshot transport for segmented runs, implemented by the job engine
/// over its result cache. `load` returning `None` (miss, quarantined
/// corruption, version drift) makes the runner fall back to simulating
/// that span from its deepest usable ancestor — a damaged blob costs
/// re-simulation, never correctness.
pub trait PrefixStore {
    /// Barrier cycles (ascending) this run may fork from or publish to.
    fn boundaries(&self) -> &[u64];
    /// Fetch the blob text at a boundary.
    fn load(&self, cycles: u64) -> Option<String>;
    /// Publish the blob text produced at a boundary.
    fn store(&self, cycles: u64, blob: &str);
}

/// The cold transport: no boundaries to fork from or publish to.
pub struct NoPrefixes;

impl PrefixStore for NoPrefixes {
    fn boundaries(&self) -> &[u64] {
        &[]
    }
    fn load(&self, _cycles: u64) -> Option<String> {
        None
    }
    fn store(&self, _cycles: u64, _blob: &str) {}
}

/// The concrete controller of a run. [`run_segments`] must rebuild *the
/// same* controller type twice (once to try loading serialized state
/// into, once as the cold fallback), so the scheme → controller mapping
/// is reified here, once. Random-restart is deliberately absent: its
/// result is an average over per-seed reruns of the same span, which has
/// no shareable prefix, so [`run_kernel_configured`] runs it itself (and
/// the factoring step never emits a prefix for it).
#[derive(Debug)]
enum Ctl {
    Fixed(FixedTuple),
    Pcal(PcalSwlController),
    Poise(Box<PoiseController>),
    Apcm(ApcmController),
}

impl Ctl {
    fn build(
        scheme: Scheme,
        model: Option<&TrainedModel>,
        tuples: Option<ProfileTuples>,
        params: &PoiseParams,
    ) -> Ctl {
        match scheme {
            Scheme::Gto => Ctl::Fixed(FixedTuple::max()),
            Scheme::Swl => Ctl::Fixed(FixedTuple::new(tuples.expect("SWL needs a profile").swl)),
            Scheme::StaticBest => Ctl::Fixed(FixedTuple::new(
                tuples.expect("Static-Best needs a profile").best,
            )),
            Scheme::PcalSwl => Ctl::Pcal(PcalSwlController::new(
                tuples.expect("PCAL-SWL needs a profile").swl,
            )),
            Scheme::Poise => Ctl::Poise(Box::new(PoiseController::new(
                model.expect("Poise needs a trained model").clone(),
                *params,
            ))),
            Scheme::Apcm => Ctl::Apcm(ApcmController::new(params.t_period)),
            Scheme::RandomRestart => {
                unreachable!("random-restart runs never reach run_segments")
            }
        }
    }

    fn as_dyn(&mut self) -> &mut dyn Controller {
        match self {
            Ctl::Fixed(c) => c,
            Ctl::Pcal(c) => c,
            Ctl::Poise(c) => c.as_mut(),
            Ctl::Apcm(c) => c,
        }
    }

    fn save_state(&self) -> String {
        match self {
            Ctl::Fixed(c) => c.save_state(),
            Ctl::Pcal(c) => c.save_state(),
            Ctl::Poise(c) => c.save_state(),
            Ctl::Apcm(c) => c.save_state(),
        }
    }

    fn load_state(&mut self, state: &str) -> bool {
        match self {
            Ctl::Fixed(c) => c.load_state(state),
            Ctl::Pcal(c) => c.load_state(state),
            Ctl::Poise(c) => c.load_state(state),
            Ctl::Apcm(c) => c.load_state(state),
        }
    }

    fn into_epoch_logs(self) -> Vec<crate::hie::EpochLog> {
        match self {
            Ctl::Poise(c) => c.log,
            _ => Vec::new(),
        }
    }
}

/// Core of every run but random-restart: fork from the deepest usable
/// snapshot at or below `run_cycles`, then march through the remaining
/// boundaries publishing a blob at each, and finish the suffix. Under
/// [`NoPrefixes`] that is one cold `run(run_cycles)`.
///
/// Bit-identity with a cold `run(run_cycles)` is the contract proven by
/// the `snapshot_oracle` differential suite: `run(j)` + snapshot +
/// restore-into-fresh-machine + `resume(k − j)` composes to the same
/// counters, cycle, completion status, steering trajectory and
/// controller state for every shipped policy, kernel class and step
/// mode — including re-entry chains and forks at a drained machine.
#[allow(clippy::too_many_arguments)]
fn run_segments(
    spec: &Workload,
    scheme: Scheme,
    model: Option<&TrainedModel>,
    tuples: Option<ProfileTuples>,
    base_cfg: &GpuConfig,
    params: &PoiseParams,
    run_cycles: u64,
    io: &dyn PrefixStore,
) -> (gpu_sim::SimResult, Ctl, Gpu) {
    let mut cfg = base_cfg.clone();
    if scheme == Scheme::Apcm {
        cfg.track_pc_stats = true;
    }
    let mut ctl = Ctl::build(scheme, model, tuples, params);
    let mut at = 0u64;
    let mut gpu = None;
    for &b in io.boundaries().iter().rev() {
        if b > run_cycles {
            continue;
        }
        // Any defect — missing blob, version drift, snapshot damage,
        // controller-state damage — skips to the next-deepest boundary.
        let Some(text) = io.load(b) else { continue };
        let Some(blob) = PrefixBlob::parse(&text) else {
            continue;
        };
        if blob.cycles != b {
            continue;
        }
        let Ok(g) = Gpu::restore(cfg.clone(), spec, &blob.gpu) else {
            continue;
        };
        let mut c = Ctl::build(scheme, model, tuples, params);
        if !c.load_state(&blob.ctrl) {
            continue;
        }
        gpu = Some(g);
        ctl = c;
        at = b;
        break;
    }
    let mut started = gpu.is_some();
    let mut gpu = gpu.unwrap_or_else(|| Gpu::new(cfg, spec));
    loop {
        let next = io
            .boundaries()
            .iter()
            .copied()
            .find(|&b| b > at && b < run_cycles)
            .unwrap_or(run_cycles);
        // `resume` skips `on_kernel_start` (the restored controller state
        // already reflects it); a fork at exactly `run_cycles` resumes a
        // zero-cycle span, which just settles the result.
        let res = if started {
            gpu.resume(ctl.as_dyn(), next - at)
        } else {
            started = true;
            gpu.run(ctl.as_dyn(), next)
        };
        at = next;
        if at >= run_cycles {
            return (res, ctl, gpu);
        }
        let blob = PrefixBlob {
            cycles: at,
            ctrl: ctl.save_state(),
            gpu: gpu.snapshot(),
        };
        io.store(at, &blob.to_text());
    }
}

/// Execute a `Prefix` job: run (or fork-and-extend) to `run_cycles` and
/// return the blob at that barrier — the job's cacheable output.
#[allow(clippy::too_many_arguments)]
pub fn run_prefix_blob(
    spec: &Workload,
    scheme: Scheme,
    model: Option<&TrainedModel>,
    tuples: Option<ProfileTuples>,
    base_cfg: &GpuConfig,
    params: &PoiseParams,
    run_cycles: u64,
    io: &dyn PrefixStore,
) -> String {
    let (_result, ctl, gpu) = run_segments(
        spec, scheme, model, tuples, base_cfg, params, run_cycles, io,
    );
    PrefixBlob {
        cycles: run_cycles,
        ctrl: ctl.save_state(),
        gpu: gpu.snapshot(),
    }
    .to_text()
}

fn merge_counters(a: &Counters, b: &Counters) -> Counters {
    // Sum the raw events of two runs (used for seed averaging: rates and
    // IPC derived from summed counters are cycle-weighted means).
    let mut out = *a;
    macro_rules! add {
        ($($f:ident),*) => { $(out.$f += b.$f;)* };
    }
    add!(
        cycles,
        instructions,
        loads,
        stores,
        l1_accesses,
        l1_hits,
        l1_intra_hits,
        l1_inter_hits,
        l1_hits_polluting,
        l1_accesses_polluting,
        l1_hits_non_polluting,
        l1_accesses_non_polluting,
        l1_misses_completed,
        miss_latency_sum,
        l1_rejects,
        mshr_allocations,
        mshr_merges,
        l2_accesses,
        l2_hits,
        dram_accesses,
        busy_scheduler_cycles,
        stall_scheduler_cycles,
        in_gap_sum,
        in_gap_count,
        reuse_distance_sum,
        reuse_distance_count
    );
    out
}

/// Whether a scheme consumes an [`OfflineProfile`].
fn needs_profile(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::Swl | Scheme::PcalSwl | Scheme::StaticBest)
}

/// Run a whole benchmark (capped kernels) under one scheme, fanning the
/// independent kernel runs across the host's cores.
pub fn run_benchmark(
    bench: &Benchmark,
    scheme: Scheme,
    model: &TrainedModel,
    setup: &Setup,
) -> BenchResult {
    let capped = bench.capped(setup.kernels_cap);
    let kernels = parallel_map(&capped.kernels, |spec| {
        let profile = needs_profile(scheme).then(|| offline_profile(spec, setup));
        run_kernel(spec, scheme, model, profile.as_ref(), setup)
    });
    aggregate(bench.name.clone(), scheme, kernels)
}

/// Aggregate per-kernel runs into a [`BenchResult`] the way the paper
/// reports benchmarks (Σ-counter rates). Public so the figure engine can
/// rebuild benchmark aggregates from individually cached kernel runs.
pub fn aggregate(bench: String, scheme: Scheme, kernels: Vec<KernelRun>) -> BenchResult {
    let sum = |f: fn(&Counters) -> u64| -> u64 { kernels.iter().map(|k| f(&k.counters)).sum() };
    let cycles = sum(|c| c.cycles).max(1);
    let instructions = sum(|c| c.instructions);
    let accesses = sum(|c| c.l1_accesses).max(1);
    let hits = sum(|c| c.l1_hits);
    let misses = sum(|c| c.l1_misses_completed).max(1);
    let lat = sum(|c| c.miss_latency_sum);
    let energy = kernels.iter().map(|k| k.energy.total()).sum();
    BenchResult {
        bench,
        scheme,
        ipc: instructions as f64 / cycles as f64,
        l1_hit_rate: hits as f64 / accesses as f64,
        aml: lat as f64 / misses as f64,
        energy,
        kernels,
    }
}

/// Harmonic mean of speedups (the paper's cross-benchmark aggregate).
/// NaN if any value is NaN (a failed point), which the clamp would hide.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    if values.iter().any(|v| v.is_nan()) {
        return f64::NAN;
    }
    let denom: f64 = values.iter().map(|v| 1.0 / v.max(1e-12)).sum();
    values.len() as f64 / denom
}

/// Arithmetic mean (used for hit rates and AML).
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use poise_ml::N_FEATURES;
    use workloads::{AccessMix, KernelSpec};

    fn const_model() -> TrainedModel {
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

    fn bench() -> Benchmark {
        Benchmark::new(
            "t",
            vec![KernelSpec::steady("t#0", AccessMix::memory_sensitive(), 21)],
        )
    }

    #[test]
    fn every_scheme_runs_to_completion() {
        let setup = Setup::for_tests();
        let model = const_model();
        for scheme in [
            Scheme::Gto,
            Scheme::Swl,
            Scheme::PcalSwl,
            Scheme::Poise,
            Scheme::StaticBest,
            Scheme::RandomRestart,
            Scheme::Apcm,
        ] {
            let r = run_benchmark(&bench(), scheme, &model, &setup);
            assert!(r.ipc > 0.0, "{} produced no work", scheme.name());
            assert!(r.energy > 0.0);
        }
    }

    #[test]
    fn poise_runs_log_epochs() {
        let setup = Setup::for_tests();
        let r = run_benchmark(&bench(), Scheme::Poise, &const_model(), &setup);
        assert!(!r.kernels[0].epoch_logs.is_empty());
    }

    #[test]
    fn means_are_correct() {
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
        assert!((arithmetic_mean(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!(harmonic_mean(&[1.0, f64::NAN, 2.0]).is_nan());
    }

    #[test]
    fn aggregate_pools_counters() {
        let c1 = Counters {
            cycles: 100,
            instructions: 50,
            l1_accesses: 10,
            l1_hits: 5,
            l1_misses_completed: 5,
            miss_latency_sum: 500,
            ..Counters::default()
        };
        let mut c2 = c1;
        c2.instructions = 150;
        let e = EnergyBreakdown::from_counters(&c1, &gpu_sim::EnergyConfig::default(), 1);
        let runs = vec![
            KernelRun {
                kernel: "a".into(),
                counters: c1,
                energy: e,
                epoch_logs: vec![],
            },
            KernelRun {
                kernel: "b".into(),
                counters: c2,
                energy: e,
                epoch_logs: vec![],
            },
        ];
        let agg = aggregate("x".into(), Scheme::Gto, runs);
        assert!((agg.ipc - 1.0).abs() < 1e-12); // 200 instr / 200 cycles
        assert!((agg.l1_hit_rate - 0.5).abs() < 1e-12);
        assert!((agg.aml - 100.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_blob_round_trips() {
        let blob = PrefixBlob {
            cycles: 17_000,
            ctrl: "pcal-swl-v1 n:12 3ff0000000000000".into(),
            gpu: "gpu state\nline two\n".into(),
        };
        let text = blob.to_text();
        let back = PrefixBlob::parse(&text).expect("round-trip");
        assert_eq!(back.cycles, blob.cycles);
        assert_eq!(back.ctrl, blob.ctrl);
        assert_eq!(back.gpu, blob.gpu);
        // Stateless controllers carry an empty ctrl line — no trailing
        // space, still round-trips.
        let bare = PrefixBlob {
            cycles: 5,
            ctrl: String::new(),
            gpu: "g\n".into(),
        };
        let bare_text = bare.to_text();
        assert!(bare_text.contains("\nctrl\n"), "got: {bare_text:?}");
        assert_eq!(PrefixBlob::parse(&bare_text).unwrap().ctrl, "");
    }

    #[test]
    fn prefix_blob_parse_rejects_structural_damage() {
        let good = PrefixBlob {
            cycles: 9,
            ctrl: "x".into(),
            gpu: "g\n".into(),
        }
        .to_text();
        assert!(PrefixBlob::parse(&good).is_some());
        // Wrong header version, missing fields, truncation, empty body.
        assert!(PrefixBlob::parse(&good.replace("v1", "v9")).is_none());
        assert!(PrefixBlob::parse(&good.replace("cycles", "cycels")).is_none());
        assert!(PrefixBlob::parse(&good.replace("ctrl", "ctlr")).is_none());
        let truncated = &good[..good.rfind("g\n").unwrap()];
        assert!(PrefixBlob::parse(truncated).is_none(), "empty gpu text");
        assert!(PrefixBlob::parse("").is_none());
        assert!(PrefixBlob::parse("poise-prefix v1").is_none());
    }
}
