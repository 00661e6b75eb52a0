//! # poise — ML-driven warp-tuple scheduling for GPUs
//!
//! This crate implements the paper's primary contribution on top of the
//! `gpu-sim` substrate:
//!
//! * [`hie`] — the **hardware inference engine** (Section VI): a per-GPU
//!   finite state machine that samples the Table II features at the two
//!   reference points of the {N, p} space, predicts a warp-tuple with the
//!   offline-trained Negative Binomial link function, and refines it with
//!   a stride-halving gradient-ascent local search;
//! * [`policies`] — every comparison scheduler of Section VII: the GTO
//!   baseline, SWL (static warp limiting), dynamic PCAL-SWL, Static-Best,
//!   random-restart stochastic search and APCM-style instruction-based
//!   cache bypassing;
//! * [`profiler`] — offline {N, p} grid profiling (parallelised with
//!   scoped threads, see [`parallel`]), diagonal/global optima, and the
//!   `Pbest` memory-sensitivity classification (speedup with a 64× L1);
//! * [`train`] — the end-to-end offline training pipeline: profile the
//!   training suite, score targets (Eq. 12), fit the regressions;
//! * [`experiment`] — shared runners used by the figure/table regenerators
//!   in the `poise-bench` crate;
//! * [`jobs`] — the unified experiment engine: typed simulation jobs over
//!   a deduplicating in-process work queue, with content-addressed result
//!   caching in [`cache`] (`results/cache/`);
//! * [`plan`] — declarative experiment plans: typed sweep axes and the
//!   knob overlay (`--set` / `--sweep`) whose cartesian expansion feeds
//!   `(Setup, SimJob)` sets through the engine with cross-point sharing;
//! * [`json`] — the small JSON writer of `results/run_all_failures.jsonl`;
//! * [`hardware_cost`] — the §VII-I storage-overhead accounting
//!   (≈ 41 bytes per SM).
//!
//! ## Quickstart
//!
//! ```no_run
//! use poise::{experiment::{self, Scheme}, train};
//! use workloads::evaluation_suite;
//!
//! let setup = experiment::Setup::default();
//! let model = train::train_default_model(&setup);
//! let bench = &evaluation_suite()[0];
//! let gto = experiment::run_benchmark(bench, Scheme::Gto, &model, &setup);
//! let poise = experiment::run_benchmark(bench, Scheme::Poise, &model, &setup);
//! println!("speedup: {:.2}x", poise.ipc / gto.ipc);
//! ```

pub mod cache;
pub(crate) mod ctrl_state;
pub mod experiment;
pub mod faults;
pub mod hardware_cost;
pub mod hie;
pub mod jobs;
pub mod json;
pub mod parallel;
pub mod params;
pub mod plan;
pub mod policies;
pub mod profiler;
pub mod train;

pub use experiment::{BenchResult, Scheme, Setup};
pub use faults::{FaultKind, FaultPlan};
pub use hie::{EpochLog, PoiseController};
pub use jobs::{Engine, JobOutput, ResultStore, RunReport, SimJob};
pub use params::PoiseParams;
pub use plan::{Axis, ExperimentPlan, Knob, KnobOverlay, KnobValue, PlanExpansion, SweepPoint};
pub use profiler::{GridSpec, ProfileWindow};

/// The codec's former path, kept because the benchmark (`perfbench/`)
/// imports `poise::fabric::json`.
pub mod fabric {
    pub use crate::json;
}
