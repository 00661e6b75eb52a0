//! The unified experiment engine: typed simulation jobs, a deduplicating
//! in-process work queue, and content-addressed result caching.
//!
//! The paper's ~20 figures and tables all draw from the same pool of
//! simulation runs — `(kernel × scheme × machine configuration)` products,
//! offline {N, p} profiles, training samples and model fits. Instead of
//! each figure binary re-simulating its slice, a figure *declares* its
//! jobs as [`SimJob`] values and the [`Engine`] executes the deduplicated
//! set once over a shared work queue (built on
//! [`parallel_map`](crate::parallel::parallel_map)), answering repeats
//! from the content-addressed cache in `results/cache/` (see
//! [`crate::cache`]).
//!
//! ## Job kinds and dependencies
//!
//! | job | inputs (cache key) | output |
//! |-----|--------------------|--------|
//! | [`SimJob::Profile`] | kernel, cfg, grid, window | [`SpeedupGrid`] |
//! | [`SimJob::Pbest`] | kernel, cfg, window | speedup scalar |
//! | [`SimJob::TupleRun`] | kernel, cfg, tuple, window | windowed counters |
//! | [`SimJob::Sample`] | kernel, cfg, grid, window, scoring | training sample |
//! | [`SimJob::Train`] | kernels, cfg, grid, window, scoring, dropped features; **sample outputs** | model weights |
//! | [`SimJob::Run`] | kernel, scheme, cfg, cycles, controller params; **model weights** / **profile tuples** | counters + energy + epoch log |
//!
//! Jobs reference their dependencies *by spec*: a Poise run embeds the
//! [`ModelSpec`] it is to be driven by, and the engine resolves the
//! corresponding [`SimJob::Train`] first (training in turn depends on one
//! [`SimJob::Sample`] per training kernel, so the expensive profiling
//! passes are shared between e.g. the Fig. 13 model variants). The cache
//! key of a job hashes its own spec **plus digests of the dependency
//! outputs it consumes** — for a Poise run the trained weights, for an
//! SWL/PCAL/Static-Best run only the two tuples derived from the profile
//! — so editing any input (a kernel spec, a controller parameter, the
//! machine configuration, the training population) invalidates exactly
//! the affected runs, and noise that does not reach a job's inputs (e.g.
//! a profile change that leaves the chosen tuples intact) invalidates
//! nothing.
//!
//! Every key also mixes in the code digest, which this crate's build
//! script takes over the sources that compute a job's output: after any
//! edit there the next pass is cold, and `run_all --gc` after a full
//! pass prunes the entries the older build left.
//!
//! ## Execution model
//!
//! [`Engine::run`] expands the requested jobs to their transitive
//! dependency closure, deduplicates by canonical spec, and executes in
//! three waves (leaf jobs → model fits → scheme runs), fanning each wave
//! across the host's cores. Each job executes once, under
//! `catch_unwind`, so one panicking simulation marks its dependants
//! failed without tearing down the run; every failure is terminal (see
//! [`FailClass`]). Progress is reported per job completion; cache
//! hit/miss/store counts are aggregated in the [`RunReport`].
//!
//! Executed results are canonicalised through their own serialisation
//! before being returned, so a cold run and a warm (all-hits) run hand
//! the renderer bit-identical values by construction.
//!
//! ## Job identity
//!
//! A job's *identity* is its [`SimJob::spec_text`] and the SHA-256 of
//! that text (the *spec hash*). Every in-memory map over jobs — plan
//! expansion, prefix grouping, the engine's graph, the [`ResultStore`] —
//! is keyed by spec text or spec hash, never by struct equality, so jobs
//! that differ only in engine settings the text leaves out (`step_mode`,
//! `sim_threads`, a run's display `tag` and `prefix_chain`) share one
//! entry.
//!
//! Rendering a spec text costs tens of microseconds, and a pass asks for
//! the same few hundred identities thousands of times, so each layer
//! resolves identities through a pass-scoped [`IdentityTable`]:
//!
//! * one per `plan_jobs` call, shared by every figure's
//!   [`crate::plan::ExperimentPlan::expand`] and by [`factor_prefixes`];
//! * one per [`Engine::run`], built while the dependency graph is
//!   expanded; the returned [`ResultStore`] keeps it, so render-time
//!   lookups resolve without rendering.
//!
//! A lookup computes a cheap fingerprint of the job and compares it
//! against the table's entries with the *identity equality*: every field
//! that enters the spec text, floats by bit pattern (`0.0` and `-0.0`
//! render differently, although `f64::eq` calls them equal), engine-only
//! fields skipped. Equal under it implies equal spec texts, so a hit
//! can reuse the entry's identity; the fingerprint reads only fields the
//! equality compares. A miss renders the text, and a text the table
//! already holds resolves to that entry.
//!
//! The dependency digests a run embeds (`model <sha>`, `profile <sha>`)
//! are memoised in the [`SharedSpec`] the run holds its model and profile
//! specs in, so every clone of the run shares one digest.
//!
//! No table outlives its pass: tables are locals of the call that owns
//! the pass (or of the store it returns), never global, `static`,
//! thread-local or owned by the [`Engine`]. A `run_all` process makes one
//! pass, so a longer-lived table would only make repeated in-process
//! passes — a benchmark's — cheaper than any real invocation.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::cache::{fmt_f64, parse_f64, sha256_hex, Cache, FsckReport, Lookup};
use crate::experiment::{
    run_kernel_configured, run_prefix_blob, KernelRun, NoPrefixes, PrefixBlob, PrefixStore,
    ProfileTuples, Scheme, Setup,
};
use crate::faults::{FaultKind, FaultPlan};
use crate::params::PoiseParams;
use crate::policies::{static_best_from_grid, swl_tuple_from_grid};
use crate::profiler::{pbest, profile_grid, run_tuple, GridSpec, ProfileWindow, SteadyState};
use crate::train::{collect_sample_scored, fit_samples};
use gpu_sim::KernelSource;
use gpu_sim::{
    CacheGeometry, Counters, DramConfig, EnergyBreakdown, EnergyConfig, GpuConfig, L2Config,
    SetIndexing, WarpTuple,
};
use poise_ml::{ScoringWeights, SpeedupGrid, TrainedModel, TrainingSample, N_FEATURES};
use workloads::{training_suite, AccessMix, KernelSpec, Phase, Workload};

/// The code digest mixed into every cache key (see the module docs).
const CODE_DIGEST: &str = env!("POISE_CODE_DIGEST");

/// Explicit, versioned spec renderings of the configuration structs that
/// enter cache keys.
///
/// Cache identity must be a deliberate statement of a job's inputs, not
/// an accident of `derive(Debug)`: a field rename or a `Debug` tweak
/// would silently invalidate (or worse, alias) every entry. Each
/// renderer here emits one line, `<tag> v<N> field=value ...`, with
/// exhaustive destructuring so adding a field to the source struct fails
/// to compile until the rendering (and its version) is revisited.
pub mod spec_render {
    use crate::cache::fmt_f64;
    use crate::params::PoiseParams;
    use crate::profiler::{GridSpec, ProfileWindow};
    use gpu_sim::WarpTuple;
    use gpu_sim::{CacheGeometry, DramConfig, EnergyConfig, GpuConfig, L2Config, SetIndexing};
    use poise_ml::ScoringWeights;
    use std::fmt::Write as _;

    fn indexing(ix: SetIndexing) -> &'static str {
        match ix {
            SetIndexing::Linear => "linear",
            SetIndexing::Hashed => "hashed",
        }
    }

    fn geometry(g: &CacheGeometry) -> String {
        let CacheGeometry {
            sets,
            ways,
            line_bytes,
            indexing: ix,
        } = *g;
        format!(
            "sets:{sets},ways:{ways},line:{line_bytes},index:{}",
            indexing(ix)
        )
    }

    /// One-line rendering of a [`GpuConfig`].
    ///
    /// `step_mode` and `sim_threads` are deliberately **excluded**: both
    /// run loops are proven bit-identical (the differential suites pin it
    /// per policy), so results are interchangeable across modes and
    /// switching the default must keep hitting the same entries.
    pub fn gpu_config(c: &GpuConfig) -> String {
        let GpuConfig {
            sms,
            schedulers_per_sm,
            max_warps_per_scheduler,
            l1,
            l1_hit_latency,
            l1_mshrs,
            mshr_merge_limit,
            l2,
            xbar_latency,
            dram,
            energy,
            track_reuse_distance,
            track_pc_stats,
            step_mode: _,   // bit-identical by contract; see above.
            sim_threads: _, // read by no run loop; see above.
        } = c;
        let L2Config {
            geometry: l2_geo,
            banks,
            latency: l2_latency,
            service_interval: l2_service,
        } = l2;
        let DramConfig {
            partitions,
            latency: dram_latency,
            service_interval: dram_service,
        } = dram;
        let EnergyConfig {
            alu_op,
            l1_access,
            l2_access,
            dram_access,
            leakage_per_sm_cycle,
        } = energy;
        let mut s = String::new();
        let _ = write!(
            s,
            "gpu v1 sms={sms} schedulers={schedulers_per_sm} \
             max_warps={max_warps_per_scheduler} l1={} l1_hit_latency={l1_hit_latency} \
             l1_mshrs={l1_mshrs} mshr_merge_limit={mshr_merge_limit} l2={},banks:{banks},\
             latency:{l2_latency},service:{l2_service} xbar={xbar_latency} \
             dram=partitions:{partitions},latency:{dram_latency},service:{dram_service} \
             energy=alu:{},l1:{},l2:{},dram:{},leak:{} track_reuse={track_reuse_distance} \
             track_pc={track_pc_stats}",
            geometry(l1),
            geometry(l2_geo),
            fmt_f64(*alu_op),
            fmt_f64(*l1_access),
            fmt_f64(*l2_access),
            fmt_f64(*dram_access),
            fmt_f64(*leakage_per_sm_cycle),
        );
        s
    }

    /// One-line rendering of a [`GridSpec`]: the explicit point list, so
    /// identity survives constructor refactors (a re-derived `coarse`
    /// ladder that yields the same points keeps the same key).
    pub fn grid(g: &GridSpec) -> String {
        let points = g
            .points()
            .iter()
            .map(|(n, p)| format!("{n}:{p}"))
            .collect::<Vec<_>>()
            .join(",");
        format!("grid v1 max_n={} points={points}", g.max_n())
    }

    /// One-line rendering of a [`ProfileWindow`].
    pub fn window(w: &ProfileWindow) -> String {
        let ProfileWindow { warmup, measure } = *w;
        format!("window v1 warmup={warmup} measure={measure}")
    }

    /// One-line rendering of [`ScoringWeights`].
    pub fn scoring(w: &ScoringWeights) -> String {
        let ScoringWeights([w0, w1, w2]) = *w;
        format!(
            "scoring v1 w={},{},{}",
            fmt_f64(w0),
            fmt_f64(w1),
            fmt_f64(w2)
        )
    }

    /// One-line rendering of the full [`PoiseParams`].
    pub fn params(p: &PoiseParams) -> String {
        let PoiseParams {
            scoring: sw,
            t_period,
            t_warmup,
            t_feature,
            t_search,
            i_max,
            stride_n,
            stride_p,
        } = p;
        format!(
            "params v1 {} t_period={t_period} t_warmup={t_warmup} t_feature={t_feature} \
             t_search={t_search} i_max={} stride_n={stride_n} stride_p={stride_p}",
            scoring(sw),
            fmt_f64(*i_max)
        )
    }

    /// One-line rendering of a [`WarpTuple`].
    pub fn tuple(t: &WarpTuple) -> String {
        let WarpTuple { n, p } = *t;
        format!("tuple v1 n={n} p={p}")
    }

    /// Comma-joined integer list (seeds, dropped feature indices).
    pub fn int_list<T: std::fmt::Display>(vs: &[T]) -> String {
        vs.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

// ---------------------------------------------------------------------------
// Job specifications.
// ---------------------------------------------------------------------------

/// Offline {N, p} profile of one kernel (drives SWL / PCAL-SWL /
/// Static-Best and the Fig. 2/5/17 surfaces).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// Workload to profile (synthetic or trace).
    pub workload: Workload,
    /// Machine configuration.
    pub cfg: GpuConfig,
    /// Grid points to sweep.
    pub grid: GridSpec,
    /// Warmup/measure windows per point.
    pub window: ProfileWindow,
}

/// `Pbest` memory-sensitivity classification (64× L1 speedup).
#[derive(Debug, Clone, PartialEq)]
pub struct PbestSpec {
    /// Workload to classify.
    pub workload: Workload,
    /// Machine configuration (the 64× L1 variant is derived internally).
    pub cfg: GpuConfig,
    /// Warmup/measure windows.
    pub window: ProfileWindow,
}

/// One steady-state run at a fixed tuple (Fig. 4 characterisation).
#[derive(Debug, Clone, PartialEq)]
pub struct TupleRunSpec {
    /// Workload to run.
    pub workload: Workload,
    /// Machine configuration.
    pub cfg: GpuConfig,
    /// The fixed warp-tuple.
    pub tuple: WarpTuple,
    /// Warmup/measure windows.
    pub window: ProfileWindow,
}

/// One training sample: profile a kernel, score the surface (Eq. 12),
/// sample the Table II features at the two reference points.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSpec {
    /// Workload to sample.
    pub workload: Workload,
    /// Machine configuration.
    pub cfg: GpuConfig,
    /// Profiling grid.
    pub grid: GridSpec,
    /// Warmup/measure windows.
    pub window: ProfileWindow,
    /// Eq. 12 scoring weights (the only [`PoiseParams`] field sampling
    /// reads, kept minimal so e.g. search-stride studies share samples).
    pub scoring: ScoringWeights,
}

/// A model fit over a training population. Depends on one
/// [`SampleSpec`] per kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// The training workloads (order matters for the fit).
    pub kernels: Vec<Workload>,
    /// Machine configuration for the sampling runs.
    pub cfg: GpuConfig,
    /// Profiling grid for the sampling runs.
    pub grid: GridSpec,
    /// Warmup/measure windows for the sampling runs.
    pub window: ProfileWindow,
    /// Eq. 12 scoring weights.
    pub scoring: ScoringWeights,
    /// Feature indices zeroed before fitting (Fig. 13 ablations).
    pub drop_features: Vec<usize>,
}

impl ModelSpec {
    /// The default offline training run of a [`Setup`]: the training
    /// suite capped per benchmark, profiled on the setup's training grid.
    pub fn default_training(setup: &Setup) -> Self {
        let kernels = training_suite()
            .iter()
            .flat_map(|b| b.capped(setup.train_cap_per_benchmark).kernels)
            .collect();
        ModelSpec {
            kernels,
            cfg: setup.cfg.clone(),
            grid: setup.train_grid.clone(),
            window: setup.profile_window,
            scoring: setup.params.scoring,
            drop_features: Vec::new(),
        }
    }

    /// The same training run with features dropped (Fig. 13).
    pub fn with_dropped(mut self, drop_features: Vec<usize>) -> Self {
        self.drop_features = drop_features;
        self
    }

    fn sample_specs(&self) -> Vec<SampleSpec> {
        self.kernels
            .iter()
            .map(|k| SampleSpec {
                workload: k.clone(),
                cfg: self.cfg.clone(),
                grid: self.grid.clone(),
                window: self.window,
                scoring: self.scoring,
            })
            .collect()
    }
}

/// A spec a run embeds by the SHA-256 of its own job's spec text.
trait EmbeddedSpec {
    /// [`SimJob::kind`] of the job producing this input.
    const KIND: &'static str;
    /// The job's spec lines after its `job <kind>` header.
    fn write_lines(&self, s: &mut String);
}

impl EmbeddedSpec for ModelSpec {
    const KIND: &'static str = "train";
    fn write_lines(&self, s: &mut String) {
        use std::fmt::Write as _;
        for k in &self.kernels {
            let _ = writeln!(s, "{}", k.spec_line());
        }
        let _ = writeln!(s, "cfg {}", spec_render::gpu_config(&self.cfg));
        let _ = writeln!(s, "{}", spec_render::grid(&self.grid));
        let _ = writeln!(s, "{}", spec_render::window(&self.window));
        let _ = writeln!(s, "{}", spec_render::scoring(&self.scoring));
        let _ = writeln!(
            s,
            "drop_features {}",
            spec_render::int_list(&self.drop_features)
        );
    }
}

impl EmbeddedSpec for ProfileSpec {
    const KIND: &'static str = "profile";
    fn write_lines(&self, s: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(s, "{}", self.workload.spec_line());
        let _ = writeln!(s, "cfg {}", spec_render::gpu_config(&self.cfg));
        let _ = writeln!(s, "{}", spec_render::grid(&self.grid));
        let _ = writeln!(s, "{}", spec_render::window(&self.window));
    }
}

/// An immutable spec shared by reference between runs: the model a
/// Poise run deploys, the profile a profile-driven run reads its tuples
/// from. Clones share the spec and the memoised SHA-256 of its job's
/// spec text, which the run's own spec text embeds (see "Job identity"
/// in the module docs). Build one per model and hand clones to every
/// run deploying it ([`KernelRunSpec::new_shared`]).
pub struct SharedSpec<T>(Arc<(T, OnceLock<String>)>);

impl<T> SharedSpec<T> {
    /// Share `spec`.
    pub fn new(spec: T) -> Self {
        SharedSpec(Arc::new((spec, OnceLock::new())))
    }
}

/// SHA-256 of a shared spec's job spec text, rendered once per share.
fn embedded_hash<T: EmbeddedSpec>(shared: &SharedSpec<T>) -> &str {
    let (spec, hash) = &*shared.0;
    hash.get_or_init(|| {
        let mut s = format!("job {}\n", T::KIND);
        spec.write_lines(&mut s);
        sha256_hex(&s)
    })
}

impl<T> Deref for SharedSpec<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0 .0
    }
}

impl<T> Clone for SharedSpec<T> {
    fn clone(&self) -> Self {
        SharedSpec(Arc::clone(&self.0))
    }
}

impl<T: PartialEq> PartialEq for SharedSpec<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 .0 == other.0 .0
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SharedSpec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0 .0.fmt(f)
    }
}

/// One evaluation run: a kernel under a scheme for a cycle budget.
///
/// Only the inputs the scheme actually consumes enter the spec: GTO and
/// the profile-driven schemes ignore [`PoiseParams`] entirely, APCM and
/// random-restart read only the epoch length, Poise the full parameter
/// set — so a Fig. 11 stride sweep re-simulates Poise runs only, and the
/// shared GTO baselines stay cached.
#[derive(Debug, Clone)]
pub struct KernelRunSpec {
    /// Workload to run.
    pub workload: Workload,
    /// Scheduling scheme.
    pub scheme: Scheme,
    /// Machine configuration (APCM's per-PC tracking is implied by the
    /// scheme, as in [`run_kernel_configured`]).
    pub cfg: GpuConfig,
    /// Cycle budget.
    pub run_cycles: u64,
    /// Full Poise parameters (`Some` iff the scheme is Poise).
    pub params: Option<PoiseParams>,
    /// Epoch length for APCM / random-restart.
    pub t_period: Option<u64>,
    /// Seeds for random-restart averaging (empty otherwise).
    pub rr_seeds: Vec<u64>,
    /// The model driving a Poise run.
    pub model: Option<SharedSpec<ModelSpec>>,
    /// The offline profile driving SWL / PCAL-SWL / Static-Best.
    pub profile: Option<SharedSpec<ProfileSpec>>,
    /// Display-only sweep tag (e.g. `sms=16`), set by
    /// [`crate::plan::ExperimentPlan::expand`] on jobs unique to one
    /// sweep point so `run_all` progress lines are distinguishable
    /// within a sweep. Never part of [`SimJob::spec_text`] / cache
    /// identity, and excluded from equality.
    pub tag: Option<String>,
    /// Barrier cycles (strictly ascending, each `<= run_cycles`) at which
    /// this run may fork from — and publish — prefix snapshots, set by
    /// [`factor_prefixes`]. Pure execution strategy: the result is
    /// bit-identical with any chain (including none), so like `tag` this
    /// is never part of [`SimJob::spec_text`] / cache identity and is
    /// excluded from equality.
    pub prefix_chain: Vec<u64>,
}

impl PartialEq for KernelRunSpec {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: a new field fails to compile here
        // until it is classified as identity (compare) or display (skip).
        let KernelRunSpec {
            workload,
            scheme,
            cfg,
            run_cycles,
            params,
            t_period,
            rr_seeds,
            model,
            profile,
            tag: _,          // display-only
            prefix_chain: _, // execution strategy, not identity
        } = self;
        workload == &other.workload
            && scheme == &other.scheme
            && cfg == &other.cfg
            && run_cycles == &other.run_cycles
            && params == &other.params
            && t_period == &other.t_period
            && rr_seeds == &other.rr_seeds
            && model == &other.model
            && profile == &other.profile
    }
}

impl KernelRunSpec {
    /// Build the spec for running `kernel` under `scheme` as configured
    /// by `setup`. `model` is required for Poise runs.
    pub fn new(
        workload: &Workload,
        scheme: Scheme,
        setup: &Setup,
        model: Option<&ModelSpec>,
    ) -> Self {
        let model = model.map(|m| SharedSpec::new(m.clone()));
        Self::new_shared(workload, scheme, setup, model.as_ref())
    }

    /// [`KernelRunSpec::new`] deploying a shared model: every run built
    /// from the same share renders the model's digest once.
    pub fn new_shared(
        workload: &Workload,
        scheme: Scheme,
        setup: &Setup,
        model: Option<&SharedSpec<ModelSpec>>,
    ) -> Self {
        let needs_profile = matches!(scheme, Scheme::Swl | Scheme::PcalSwl | Scheme::StaticBest);
        KernelRunSpec {
            workload: workload.clone(),
            scheme,
            cfg: setup.cfg.clone(),
            run_cycles: setup.run_cycles,
            params: (scheme == Scheme::Poise).then_some(setup.params),
            t_period: matches!(scheme, Scheme::Apcm | Scheme::RandomRestart)
                .then_some(setup.params.t_period),
            rr_seeds: if scheme == Scheme::RandomRestart {
                setup.rr_seeds.clone()
            } else {
                Vec::new()
            },
            model: (scheme == Scheme::Poise)
                .then(|| model.expect("a Poise run needs a ModelSpec").clone()),
            profile: needs_profile.then(|| {
                SharedSpec::new(ProfileSpec {
                    workload: workload.clone(),
                    cfg: setup.cfg.clone(),
                    grid: setup.eval_grid.clone(),
                    window: setup.profile_window,
                })
            }),
            tag: None,
            prefix_chain: Vec::new(),
        }
    }

    /// The spec of the synthetic [`SimJob::Prefix`] job at barrier
    /// `cycles`, given the boundaries below it: same inputs, shorter
    /// budget, chained through the lower boundaries. Both the factoring
    /// step (which materialises these as jobs) and the engine (which
    /// resolves a run's chain back to cache keys) derive prefix identity
    /// through here, so they agree by construction.
    fn prefix_at(&self, cycles: u64, below: &[u64]) -> KernelRunSpec {
        let mut p = self.clone();
        p.run_cycles = cycles;
        p.prefix_chain = below.to_vec();
        // Deterministic regardless of which run of the group derived it
        // (the prefix label shows its own barrier cycle instead).
        p.tag = None;
        p
    }

    /// Resolve the scheme's consumed inputs from the dep outputs (in
    /// [`SimJob::deps`] order) — shared by the run and prefix arms of
    /// `execute`, which must agree exactly for a forked suffix to see
    /// the same controller as the prefix that produced the blob.
    fn resolve_inputs<'a>(
        &self,
        dep_outputs: &[&'a JobOutput],
    ) -> (Option<&'a TrainedModel>, Option<ProfileTuples>, PoiseParams) {
        let mut di = dep_outputs.iter();
        let model = self
            .model
            .as_ref()
            .map(|_| di.next().expect("model dep").as_model().expect("model"));
        let grid = self
            .profile
            .as_ref()
            .map(|_| di.next().expect("profile dep").as_grid().expect("grid"));
        let tuples = grid.map(|g| {
            let max_warps = self
                .workload
                .warps_per_scheduler()
                .min(self.cfg.max_warps_per_scheduler);
            ProfileTuples {
                swl: swl_tuple_from_grid(g, max_warps),
                best: static_best_from_grid(g, max_warps),
            }
        });
        let params = match (self.params, self.t_period) {
            (Some(p), _) => p,
            (None, Some(t)) => PoiseParams {
                t_period: t,
                ..PoiseParams::default()
            },
            (None, None) => PoiseParams::default(),
        };
        (model, tuples, params)
    }
}

// ---------------------------------------------------------------------------
// SimJob.
// ---------------------------------------------------------------------------

/// One unit of simulation work. See the module docs for the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub enum SimJob {
    /// Offline {N, p} profile.
    Profile(ProfileSpec),
    /// Pbest classification.
    Pbest(PbestSpec),
    /// Steady-state run at a fixed tuple.
    TupleRun(TupleRunSpec),
    /// Training-sample collection.
    Sample(SampleSpec),
    /// Model fit (depends on its samples).
    Train(ModelSpec),
    /// Evaluation run (may depend on a model and/or a profile).
    Run(KernelRunSpec),
    /// Shared simulation prefix: the same inputs as a [`SimJob::Run`]
    /// but its output is the machine + controller snapshot blob at
    /// `run_cycles`, content-addressed in the cache like any other job
    /// output. Runs (and deeper prefixes) whose declared chain contains
    /// this barrier fork from the blob instead of re-simulating the span.
    Prefix(KernelRunSpec),
}

impl SimJob {
    /// Short cache-file/kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            SimJob::Profile(_) => "profile",
            SimJob::Pbest(_) => "pbest",
            SimJob::TupleRun(_) => "tuple",
            SimJob::Sample(_) => "sample",
            SimJob::Train(_) => "train",
            SimJob::Run(_) => "run",
            SimJob::Prefix(_) => "prefix",
        }
    }

    /// Human-readable progress label.
    pub fn label(&self) -> String {
        match self {
            SimJob::Profile(s) => {
                format!("profile[{} {}pt]", s.workload.name(), s.grid.points().len())
            }
            SimJob::Pbest(s) => format!("pbest[{}]", s.workload.name()),
            SimJob::TupleRun(s) => format!("tuple[{} {}]", s.workload.name(), s.tuple),
            SimJob::Sample(s) => format!("sample[{}]", s.workload.name()),
            SimJob::Train(s) => format!("train[{}k drop{:?}]", s.kernels.len(), s.drop_features),
            SimJob::Run(s) => match &s.tag {
                // Sweep-expanded jobs show the varied axis value so
                // progress lines are distinguishable within a sweep.
                Some(tag) => format!("run[{} {} {tag}]", s.workload.name(), s.scheme.name()),
                None => format!("run[{} {}]", s.workload.name(), s.scheme.name()),
            },
            SimJob::Prefix(s) => format!(
                "prefix[{} {} @{}]",
                s.workload.name(),
                s.scheme.name(),
                s.run_cycles
            ),
        }
    }

    /// Canonical specification text: every input field, one per line,
    /// rendered through the explicit versioned [`spec_render`] functions
    /// (never `derive(Debug)` — cache identity must survive struct
    /// refactors) with exact (round-trip) float formatting. Dependencies
    /// appear as the SHA-256 of *their* spec text, so input edits
    /// propagate through the graph.
    ///
    /// Renders on every call: layers that ask repeatedly resolve through
    /// an [`IdentityTable`] instead (see "Job identity" in the module
    /// docs).
    pub fn spec_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "job {}", self.kind());
        match self {
            SimJob::Profile(p) => p.write_lines(&mut s),
            SimJob::Pbest(p) => {
                let _ = writeln!(s, "{}", p.workload.spec_line());
                let _ = writeln!(s, "cfg {}", spec_render::gpu_config(&p.cfg));
                let _ = writeln!(s, "{}", spec_render::window(&p.window));
            }
            SimJob::TupleRun(t) => {
                let _ = writeln!(s, "{}", t.workload.spec_line());
                let _ = writeln!(s, "cfg {}", spec_render::gpu_config(&t.cfg));
                let _ = writeln!(s, "{}", spec_render::tuple(&t.tuple));
                let _ = writeln!(s, "{}", spec_render::window(&t.window));
            }
            SimJob::Sample(p) => {
                let _ = writeln!(s, "{}", p.workload.spec_line());
                let _ = writeln!(s, "cfg {}", spec_render::gpu_config(&p.cfg));
                let _ = writeln!(s, "{}", spec_render::grid(&p.grid));
                let _ = writeln!(s, "{}", spec_render::window(&p.window));
                let _ = writeln!(s, "{}", spec_render::scoring(&p.scoring));
            }
            SimJob::Train(m) => m.write_lines(&mut s),
            // A prefix renders the same input lines as the run it was
            // factored from (under its own `job prefix` header): its
            // identity is exactly "the simulation of these inputs up to
            // run_cycles", which is what suffix runs resolve against.
            SimJob::Run(r) | SimJob::Prefix(r) => {
                let _ = writeln!(s, "{}", r.workload.spec_line());
                let _ = writeln!(s, "scheme {}", r.scheme.name());
                let _ = writeln!(s, "cfg {}", spec_render::gpu_config(&r.cfg));
                let _ = writeln!(s, "run_cycles {}", r.run_cycles);
                if let Some(p) = &r.params {
                    let _ = writeln!(s, "{}", spec_render::params(p));
                }
                if let Some(t) = r.t_period {
                    let _ = writeln!(s, "t_period {t}");
                }
                if !r.rr_seeds.is_empty() {
                    let _ = writeln!(s, "rr_seeds {}", spec_render::int_list(&r.rr_seeds));
                }
                if let Some(m) = &r.model {
                    let _ = writeln!(s, "model {}", embedded_hash(m));
                }
                if let Some(p) = &r.profile {
                    let _ = writeln!(s, "profile {}", embedded_hash(p));
                }
            }
        }
        s
    }

    /// Direct dependencies (jobs whose outputs this job consumes).
    pub fn deps(&self) -> Vec<SimJob> {
        match self {
            SimJob::Train(m) => m.sample_specs().into_iter().map(SimJob::Sample).collect(),
            SimJob::Run(r) | SimJob::Prefix(r) => {
                let mut d = Vec::new();
                if let Some(m) = &r.model {
                    d.push(SimJob::Train((**m).clone()));
                }
                if let Some(p) = &r.profile {
                    d.push(SimJob::Profile((**p).clone()));
                }
                d
            }
            _ => Vec::new(),
        }
    }

    /// Execution wave: dependencies always live in strictly lower waves.
    /// Prefix chains are *soft* dependencies — a missing or corrupt blob
    /// degrades to re-simulation, not failure — so they are ordered by
    /// wave (each prefix one wave after the deepest boundary it forks
    /// from) rather than by graph edges, which keeps chains out of cache
    /// identity.
    pub(crate) fn wave(&self) -> usize {
        const PREFIX_BASE: usize = 2;
        match self {
            SimJob::Train(_) => 1,
            SimJob::Prefix(r) => PREFIX_BASE + r.prefix_chain.len(),
            // All evaluation runs share the final wave so the fan-out
            // across schemes/kernels keeps every core busy; by then every
            // prefix blob they could fork from is in the cache.
            SimJob::Run(_) => usize::MAX,
            _ => 0,
        }
    }

    /// Execute the job. `dep_outputs` holds the resolved outputs in
    /// [`SimJob::deps`] order; `prefixes` is the engine's snapshot
    /// transport for jobs with a prefix chain (`None` runs cold). Panics
    /// propagate to the engine's isolation layer.
    fn execute(&self, dep_outputs: &[&JobOutput], prefixes: Option<&PrefixIo>) -> JobOutput {
        match self {
            SimJob::Profile(p) => {
                JobOutput::Grid(profile_grid(&p.workload, &p.cfg, &p.grid, p.window))
            }
            SimJob::Pbest(p) => JobOutput::Scalar(pbest(&p.workload, &p.cfg, p.window)),
            SimJob::TupleRun(t) => {
                JobOutput::Steady(run_tuple(&t.workload, &t.cfg, t.tuple, t.window))
            }
            SimJob::Sample(p) => JobOutput::Sample(collect_sample_scored(
                &p.workload,
                &p.cfg,
                &p.grid,
                p.window,
                &p.scoring,
            )),
            SimJob::Train(m) => {
                let samples: Vec<TrainingSample> = dep_outputs
                    .iter()
                    .map(|o| o.as_sample().expect("train dep is a sample").clone())
                    .collect();
                JobOutput::Model(fit_samples(&samples, m.window, &m.drop_features))
            }
            // Both fork from the deepest cached prefix when the engine
            // resolved a chain; otherwise they run cold.
            SimJob::Run(r) => {
                let (model, tuples, params) = r.resolve_inputs(dep_outputs);
                JobOutput::Run(run_kernel_configured(
                    &r.workload,
                    r.scheme,
                    model,
                    tuples,
                    &r.cfg,
                    &params,
                    &r.rr_seeds,
                    r.run_cycles,
                    prefixes.map_or(&NoPrefixes as &dyn PrefixStore, |p| p),
                ))
            }
            SimJob::Prefix(r) => {
                let (model, tuples, params) = r.resolve_inputs(dep_outputs);
                JobOutput::Snapshot(run_prefix_blob(
                    &r.workload,
                    r.scheme,
                    model,
                    tuples,
                    &r.cfg,
                    &params,
                    r.run_cycles,
                    prefixes.map_or(&NoPrefixes as &dyn PrefixStore, |p| p),
                ))
            }
        }
    }

    /// The digest of a dependency's output *as consumed by this job*: a
    /// Poise run digests the model weights, a profile-driven run only the
    /// two derived tuples (so profile jitter that leaves the chosen
    /// tuples intact does not invalidate the run), and training digests
    /// the full sample rows.
    fn dep_digest(&self, dep: &SimJob, out: &JobOutput) -> String {
        match (self, dep, out) {
            (SimJob::Run(r) | SimJob::Prefix(r), SimJob::Profile(_), JobOutput::Grid(g)) => {
                let max_warps = r
                    .workload
                    .warps_per_scheduler()
                    .min(r.cfg.max_warps_per_scheduler);
                format!(
                    "tuples swl={:?} best={:?}",
                    swl_tuple_from_grid(g, max_warps),
                    static_best_from_grid(g, max_warps)
                )
            }
            _ => sha256_hex(&out.to_text()),
        }
    }
}

// ---------------------------------------------------------------------------
// Job identity (see the module docs).
// ---------------------------------------------------------------------------

/// A job's identity: its spec text and the SHA-256 of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Identity {
    /// [`SimJob::spec_text`].
    pub(crate) spec: Arc<str>,
    /// SHA-256 of `spec`: the key of every in-memory map over jobs.
    pub(crate) hash: Arc<str>,
}

impl Identity {
    /// Render `job`'s identity, without a table.
    pub(crate) fn of(job: &SimJob) -> Self {
        let spec = job.spec_text();
        Identity {
            hash: sha256_hex(&spec).into(),
            spec: spec.into(),
        }
    }
}

/// A pass-scoped memo of job identities (see "Job identity" in the
/// module docs): one entry per distinct spec text, holding the first job
/// seen with it. A table serving an engine run doubles as its job graph,
/// so the graph's jobs are not cloned a second time. A planner creates
/// one (`IdentityTable::default()`) per pass and hands it to
/// [`crate::plan::ExperimentPlan::expand`] and [`factor_prefixes`].
#[derive(Debug, Default)]
pub struct IdentityTable {
    entries: Vec<(SimJob, Identity)>,
    /// Fingerprint → entries whose job has it.
    by_print: HashMap<u64, Vec<usize>>,
    /// Spec hash → entry.
    by_hash: HashMap<Arc<str>, usize>,
}

impl IdentityTable {
    /// The entry whose job is identity-equal to `job`.
    fn find(&self, job: &SimJob, print: u64) -> Option<usize> {
        self.by_print
            .get(&print)?
            .iter()
            .copied()
            .find(|&i| self.entries[i].0.spec_eq(job))
    }

    /// Intern `job`: its entry, and whether this call added it. A miss
    /// renders the spec text; a text an entry already holds (a job equal
    /// to it in text but not under the identity equality) resolves to
    /// that entry.
    pub(crate) fn intern(&mut self, job: Cow<'_, SimJob>) -> (usize, bool) {
        let print = fingerprint(&job);
        if let Some(i) = self.find(&job, print) {
            return (i, false);
        }
        let id = Identity::of(&job);
        if let Some(&i) = self.by_hash.get(&id.hash) {
            return (i, false);
        }
        let i = self.entries.len();
        self.by_print.entry(print).or_default().push(i);
        self.by_hash.insert(id.hash.clone(), i);
        self.entries.push((job.into_owned(), id));
        (i, true)
    }

    /// The identity of `job`, rendered on first sight only.
    pub(crate) fn identity(&mut self, job: &SimJob) -> &Identity {
        let (i, _) = self.intern(Cow::Borrowed(job));
        &self.entries[i].1
    }

    /// The identity of `job` without changing the table: an entry's on a
    /// hit, freshly rendered on a miss.
    pub(crate) fn resolve(&self, job: &SimJob) -> Identity {
        match self.find(job, fingerprint(job)) {
            Some(i) => self.entries[i].1.clone(),
            None => Identity::of(job),
        }
    }

    /// Entry `i`'s job and identity.
    pub(crate) fn entry(&self, i: usize) -> (&SimJob, &Identity) {
        let (job, id) = &self.entries[i];
        (job, id)
    }
}

/// The fingerprint of a job for [`IdentityTable`] buckets: a fast
/// multiply-rotate hash (FxHash's) over fields the identity equality
/// compares, so identity-equal jobs always share a bucket.
fn fingerprint(job: &SimJob) -> u64 {
    let mut fp = Fingerprint(0);
    job.print(&mut fp);
    fp.0
}

struct Fingerprint(u64);

impl Fingerprint {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
}

/// The identity equality (see "Job identity" in the module docs) and the
/// fingerprint consistent with it.
trait SpecEq {
    /// Whether the two values render the same spec text, judged on the
    /// values alone: every rendered field compared, floats by bit
    /// pattern. May say `false` for equal texts; never `true` for
    /// different ones.
    fn spec_eq(&self, other: &Self) -> bool;
    /// Feed `fp` fields that `spec_eq` compares (and no others).
    fn print(&self, fp: &mut Fingerprint);
}

macro_rules! spec_eq_scalars {
    ($($t:ty),*) => {$(
        impl SpecEq for $t {
            fn spec_eq(&self, other: &Self) -> bool {
                self == other
            }
            fn print(&self, fp: &mut Fingerprint) {
                fp.word(*self as u64);
            }
        }
    )*};
}
spec_eq_scalars!(u64, usize, bool, Scheme, SetIndexing);

impl SpecEq for f64 {
    fn spec_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
    fn print(&self, fp: &mut Fingerprint) {
        fp.word(self.to_bits());
    }
}

impl SpecEq for String {
    fn spec_eq(&self, other: &Self) -> bool {
        self == other
    }
    fn print(&self, fp: &mut Fingerprint) {
        fp.bytes(self.as_bytes());
    }
}

impl<T: SpecEq> SpecEq for Option<T> {
    fn spec_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Some(a), Some(b)) => a.spec_eq(b),
            (None, None) => true,
            _ => false,
        }
    }
    fn print(&self, fp: &mut Fingerprint) {
        match self {
            Some(v) => {
                fp.word(1);
                v.print(fp);
            }
            None => fp.word(0),
        }
    }
}

impl<T: SpecEq> SpecEq for [T] {
    fn spec_eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.spec_eq(b))
    }
    fn print(&self, fp: &mut Fingerprint) {
        fp.word(self.len() as u64);
        for v in self {
            v.print(fp);
        }
    }
}

impl<T: SpecEq> SpecEq for Vec<T> {
    fn spec_eq(&self, other: &Self) -> bool {
        self[..].spec_eq(&other[..])
    }
    fn print(&self, fp: &mut Fingerprint) {
        self[..].print(fp);
    }
}

impl<T: SpecEq> SpecEq for SharedSpec<T> {
    fn spec_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 .0.spec_eq(&other.0 .0)
    }
    fn print(&self, fp: &mut Fingerprint) {
        self.0 .0.print(fp);
    }
}

/// Structs compared and printed field by field. The destructuring is
/// exhaustive: a new field fails to compile here until it is classified
/// as rendered (listed) or engine-only (`skip`).
macro_rules! spec_eq_fields {
    ($($t:ident { $($f:ident),* } $(skip { $($s:ident),* })?;)*) => {$(
        impl SpecEq for $t {
            fn spec_eq(&self, other: &Self) -> bool {
                let $t { $($f,)* $($($s: _,)*)? } = self;
                $($f.spec_eq(&other.$f))&&*
            }
            fn print(&self, fp: &mut Fingerprint) {
                $(self.$f.print(fp);)*
            }
        }
    )*};
}
spec_eq_fields! {
    AccessMix {
        alu_per_load, mlp, ind_gap, hot_lines, hot_repeat, hot_frac, cold_lines,
        shared_lines, shared_frac, stream_frac, store_frac
    };
    Phase { mix, instructions };
    KernelSpec { seed, name, warps_per_scheduler, trace_len, phases };
    CacheGeometry { sets, ways, line_bytes, indexing };
    L2Config { geometry, banks, latency, service_interval };
    DramConfig { partitions, latency, service_interval };
    EnergyConfig { alu_op, l1_access, l2_access, dram_access, leakage_per_sm_cycle };
    GpuConfig {
        sms, schedulers_per_sm, max_warps_per_scheduler, l1, l1_hit_latency, l1_mshrs,
        mshr_merge_limit, l2, xbar_latency, dram, energy, track_reuse_distance, track_pc_stats
    } skip { step_mode, sim_threads };
    ProfileWindow { warmup, measure };
    WarpTuple { n, p };
    PoiseParams {
        scoring, t_period, t_warmup, t_feature, t_search, i_max, stride_n, stride_p
    };
    ProfileSpec { workload, cfg, grid, window };
    PbestSpec { workload, cfg, window };
    TupleRunSpec { workload, cfg, tuple, window };
    SampleSpec { workload, cfg, grid, window, scoring };
    ModelSpec { drop_features, scoring, window, grid, cfg, kernels };
    KernelRunSpec {
        run_cycles, scheme, workload, cfg, params, t_period, rr_seeds, model, profile
    } skip { tag, prefix_chain };
}

impl SpecEq for ScoringWeights {
    fn spec_eq(&self, other: &Self) -> bool {
        self.0[..].spec_eq(&other.0[..])
    }
    fn print(&self, fp: &mut Fingerprint) {
        self.0[..].print(fp);
    }
}

impl SpecEq for GridSpec {
    fn spec_eq(&self, other: &Self) -> bool {
        self == other
    }
    fn print(&self, fp: &mut Fingerprint) {
        fp.word(self.max_n() as u64);
        fp.word(self.points().len() as u64);
    }
}

impl SpecEq for Workload {
    fn spec_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Workload::Synthetic(a), Workload::Synthetic(b)) => a.spec_eq(b),
            // A trace's line is a function of its content, which the
            // digest names.
            (Workload::Trace(a), Workload::Trace(b)) => a.digest == b.digest,
            _ => false,
        }
    }
    fn print(&self, fp: &mut Fingerprint) {
        match self {
            Workload::Synthetic(k) => {
                fp.word(0);
                k.print(fp);
            }
            Workload::Trace(t) => {
                fp.word(1);
                fp.bytes(t.digest.as_bytes());
            }
        }
    }
}

impl SpecEq for SimJob {
    fn spec_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SimJob::Profile(a), SimJob::Profile(b)) => a.spec_eq(b),
            (SimJob::Pbest(a), SimJob::Pbest(b)) => a.spec_eq(b),
            (SimJob::TupleRun(a), SimJob::TupleRun(b)) => a.spec_eq(b),
            (SimJob::Sample(a), SimJob::Sample(b)) => a.spec_eq(b),
            (SimJob::Train(a), SimJob::Train(b)) => a.spec_eq(b),
            (SimJob::Run(a), SimJob::Run(b)) | (SimJob::Prefix(a), SimJob::Prefix(b)) => {
                a.spec_eq(b)
            }
            _ => false,
        }
    }
    fn print(&self, fp: &mut Fingerprint) {
        fp.bytes(self.kind().as_bytes());
        match self {
            SimJob::Profile(s) => s.print(fp),
            SimJob::Pbest(s) => s.print(fp),
            SimJob::TupleRun(s) => s.print(fp),
            SimJob::Sample(s) => s.print(fp),
            SimJob::Train(s) => s.print(fp),
            SimJob::Run(s) | SimJob::Prefix(s) => s.print(fp),
        }
    }
}

// ---------------------------------------------------------------------------
// Job outputs and their serialisation.
// ---------------------------------------------------------------------------

/// The result of one [`SimJob`].
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Profile output.
    Grid(SpeedupGrid),
    /// Pbest output.
    Scalar(f64),
    /// Fixed-tuple steady-state output.
    Steady(SteadyState),
    /// Training-sample output.
    Sample(TrainingSample),
    /// Model-fit output.
    Model(TrainedModel),
    /// Evaluation-run output.
    Run(KernelRun),
    /// Prefix-job output: a [`PrefixBlob`] in its durable text form,
    /// kept verbatim so a cache round trip is byte-identical.
    Snapshot(String),
}

fn floats_to_line(vs: &[f64]) -> String {
    vs.iter().map(|v| fmt_f64(*v)).collect::<Vec<_>>().join(" ")
}

fn floats_from_line(line: &str, n: usize) -> Option<Vec<f64>> {
    let vs: Vec<f64> = line
        .split_whitespace()
        .map(parse_f64)
        .collect::<Option<Vec<_>>>()?;
    (vs.len() == n).then_some(vs)
}

impl JobOutput {
    /// Serialise to the cache body format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        match self {
            JobOutput::Grid(g) => {
                let _ = writeln!(s, "max_n {}", g.max_n());
                for (n, p, v) in g.iter() {
                    let _ = writeln!(s, "cell {n} {p} {}", fmt_f64(v));
                }
            }
            JobOutput::Scalar(v) => {
                let _ = writeln!(s, "value {}", fmt_f64(*v));
            }
            JobOutput::Steady(st) => {
                let _ = writeln!(s, "tuple {} {}", st.tuple.n, st.tuple.p);
                let _ = writeln!(s, "window {}", st.window.to_line());
            }
            JobOutput::Sample(t) => {
                let _ = writeln!(s, "kernel {}", t.kernel);
                let _ = writeln!(s, "features {}", floats_to_line(&t.features.0));
                let _ = writeln!(s, "target {} {}", t.target.n, t.target.p);
                let _ = writeln!(s, "best_speedup {}", fmt_f64(t.best_speedup));
                let _ = writeln!(s, "baseline_cycles {}", t.baseline_cycles);
                let _ = writeln!(s, "ref_hit_rate {}", fmt_f64(t.ref_hit_rate));
            }
            JobOutput::Model(m) => {
                let _ = writeln!(s, "alpha {}", floats_to_line(&m.alpha));
                let _ = writeln!(s, "beta {}", floats_to_line(&m.beta));
                let _ = writeln!(
                    s,
                    "dispersion {} {}",
                    fmt_f64(m.dispersion_n),
                    fmt_f64(m.dispersion_p)
                );
                let _ = writeln!(s, "samples_used {}", m.samples_used);
                let _ = writeln!(s, "dropped_features {:?}", m.dropped_features);
            }
            JobOutput::Run(r) => {
                let _ = writeln!(s, "kernel {}", r.kernel);
                let _ = writeln!(s, "counters {}", r.counters.to_line());
                let _ = writeln!(
                    s,
                    "energy {}",
                    floats_to_line(&[
                        r.energy.alu,
                        r.energy.l1,
                        r.energy.l2,
                        r.energy.dram,
                        r.energy.leakage
                    ])
                );
                for l in &r.epoch_logs {
                    let _ = writeln!(
                        s,
                        "epoch {} {} {} {} {} {}",
                        l.cycle,
                        l.predicted.n,
                        l.predicted.p,
                        l.searched.n,
                        l.searched.p,
                        u8::from(l.early_out)
                    );
                }
            }
            JobOutput::Snapshot(blob) => {
                s.push_str(blob);
            }
        }
        s
    }

    /// Parse a cache body of the given kind. `None` on any mismatch, in
    /// which case the job silently re-runs.
    pub fn from_text(kind: &str, body: &str) -> Option<JobOutput> {
        let mut lines = body.lines();
        match kind {
            "profile" => {
                let max_n: usize = lines.next()?.strip_prefix("max_n ")?.parse().ok()?;
                // Range-check everything before touching SpeedupGrid: its
                // constructor/setter assert their invariants, and a panic
                // here (a corrupt body that survived the header checks)
                // would escape the engine's per-job isolation.
                if max_n == 0 {
                    return None;
                }
                let mut g = SpeedupGrid::new(max_n);
                for line in lines {
                    let rest = line.strip_prefix("cell ")?;
                    let mut it = rest.split_whitespace();
                    let n: usize = it.next()?.parse().ok()?;
                    let p: usize = it.next()?.parse().ok()?;
                    let v = parse_f64(it.next()?)?;
                    if n == 0 || p == 0 || n > max_n || p > n {
                        return None;
                    }
                    g.set(n, p, v);
                }
                Some(JobOutput::Grid(g))
            }
            "pbest" => {
                let v = parse_f64(lines.next()?.strip_prefix("value ")?)?;
                Some(JobOutput::Scalar(v))
            }
            "tuple" => {
                let mut t = lines.next()?.strip_prefix("tuple ")?.split_whitespace();
                let n: usize = t.next()?.parse().ok()?;
                let p: usize = t.next()?.parse().ok()?;
                let window = Counters::from_words(
                    lines.next()?.strip_prefix("window ")?.split_whitespace(),
                )?;
                Some(JobOutput::Steady(SteadyState {
                    tuple: WarpTuple { n, p },
                    window,
                }))
            }
            "sample" => {
                let kernel = lines.next()?.strip_prefix("kernel ")?.to_string();
                let feats = floats_from_line(lines.next()?.strip_prefix("features ")?, N_FEATURES)?;
                let mut t = lines.next()?.strip_prefix("target ")?.split_whitespace();
                let n: usize = t.next()?.parse().ok()?;
                let p: usize = t.next()?.parse().ok()?;
                let best_speedup = parse_f64(lines.next()?.strip_prefix("best_speedup ")?)?;
                let baseline_cycles = lines
                    .next()?
                    .strip_prefix("baseline_cycles ")?
                    .parse()
                    .ok()?;
                let ref_hit_rate = parse_f64(lines.next()?.strip_prefix("ref_hit_rate ")?)?;
                let mut features = poise_ml::FeatureVector([0.0; N_FEATURES]);
                features.0.copy_from_slice(&feats);
                Some(JobOutput::Sample(TrainingSample {
                    kernel,
                    features,
                    target: WarpTuple { n, p },
                    best_speedup,
                    baseline_cycles,
                    ref_hit_rate,
                }))
            }
            "train" => {
                let alpha = floats_from_line(lines.next()?.strip_prefix("alpha ")?, N_FEATURES)?;
                let beta = floats_from_line(lines.next()?.strip_prefix("beta ")?, N_FEATURES)?;
                let disp = floats_from_line(lines.next()?.strip_prefix("dispersion ")?, 2)?;
                let samples_used = lines.next()?.strip_prefix("samples_used ")?.parse().ok()?;
                let dropped = lines.next()?.strip_prefix("dropped_features ")?;
                let dropped_features: Vec<usize> = dropped
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .split(',')
                    .filter(|t| !t.trim().is_empty())
                    .map(|t| t.trim().parse().ok())
                    .collect::<Option<Vec<_>>>()?;
                let mut m = TrainedModel {
                    alpha: [0.0; N_FEATURES],
                    beta: [0.0; N_FEATURES],
                    dispersion_n: disp[0],
                    dispersion_p: disp[1],
                    samples_used,
                    dropped_features,
                };
                m.alpha.copy_from_slice(&alpha);
                m.beta.copy_from_slice(&beta);
                Some(JobOutput::Model(m))
            }
            "run" => {
                let kernel = lines.next()?.strip_prefix("kernel ")?.to_string();
                let counters = Counters::from_words(
                    lines.next()?.strip_prefix("counters ")?.split_whitespace(),
                )?;
                let e = floats_from_line(lines.next()?.strip_prefix("energy ")?, 5)?;
                let mut epoch_logs = Vec::new();
                for line in lines {
                    let mut it = line.strip_prefix("epoch ")?.split_whitespace();
                    let cycle: u64 = it.next()?.parse().ok()?;
                    let pn: usize = it.next()?.parse().ok()?;
                    let pp: usize = it.next()?.parse().ok()?;
                    let sn: usize = it.next()?.parse().ok()?;
                    let sp: usize = it.next()?.parse().ok()?;
                    let early: u8 = it.next()?.parse().ok()?;
                    epoch_logs.push(crate::hie::EpochLog {
                        cycle,
                        predicted: WarpTuple { n: pn, p: pp },
                        searched: WarpTuple { n: sn, p: sp },
                        early_out: early != 0,
                    });
                }
                Some(JobOutput::Run(KernelRun {
                    kernel,
                    counters,
                    energy: EnergyBreakdown {
                        alu: e[0],
                        l1: e[1],
                        l2: e[2],
                        dram: e[3],
                        leakage: e[4],
                    },
                    epoch_logs,
                }))
            }
            "prefix" => {
                // Full structural + snapshot-grammar validation: this is
                // the path `--fsck` (and every cache hit) goes through,
                // so a bit-flipped blob is caught here and quarantined by
                // the cache's self-healing machinery rather than fed to
                // `Gpu::restore` later.
                let blob = PrefixBlob::parse(body)?;
                gpu_sim::snapshot::validate(&blob.gpu).ok()?;
                Some(JobOutput::Snapshot(body.to_string()))
            }
            _ => None,
        }
    }

    /// Downcast helpers.
    pub fn as_grid(&self) -> Option<&SpeedupGrid> {
        match self {
            JobOutput::Grid(g) => Some(g),
            _ => None,
        }
    }

    /// The Pbest scalar, if that is what this output is.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            JobOutput::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// The steady-state tuple run, if that is what this output is.
    pub fn as_steady(&self) -> Option<&SteadyState> {
        match self {
            JobOutput::Steady(s) => Some(s),
            _ => None,
        }
    }

    /// The training sample, if that is what this output is.
    pub fn as_sample(&self) -> Option<&TrainingSample> {
        match self {
            JobOutput::Sample(s) => Some(s),
            _ => None,
        }
    }

    /// The trained model, if that is what this output is.
    pub fn as_model(&self) -> Option<&TrainedModel> {
        match self {
            JobOutput::Model(m) => Some(m),
            _ => None,
        }
    }

    /// The prefix snapshot blob text, if that is what this output is.
    pub fn as_snapshot(&self) -> Option<&str> {
        match self {
            JobOutput::Snapshot(b) => Some(b),
            _ => None,
        }
    }

    /// The evaluation run, if that is what this output is.
    pub fn as_run(&self) -> Option<&KernelRun> {
        match self {
            JobOutput::Run(r) => Some(r),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// Resolved results of an engine run, addressed by spec hash.
#[derive(Debug, Default)]
pub struct ResultStore {
    /// The run's identity table (its job graph), so lookups by job
    /// resolve without rendering; a job outside it renders.
    pub(crate) ids: IdentityTable,
    pub(crate) outputs: HashMap<Arc<str>, Result<JobOutput, String>>,
    /// Execution wall seconds per spec hash: measured for executed jobs,
    /// recalled from the entry's metadata for cache hits — so
    /// throughput-reporting figures render identically cold and warm.
    pub(crate) walls: HashMap<Arc<str>, f64>,
}

impl ResultStore {
    /// An empty store resolving identities through `ids`.
    pub(crate) fn over(ids: IdentityTable) -> Self {
        ResultStore {
            ids,
            ..ResultStore::default()
        }
    }

    /// Record entry `i`'s result (and, on success, its wall seconds).
    pub(crate) fn insert(&mut self, i: usize, result: Result<JobOutput, String>, wall: f64) {
        let hash = self.ids.entry(i).1.hash.clone();
        if result.is_ok() {
            self.walls.insert(hash.clone(), wall);
        }
        self.outputs.insert(hash, result);
    }

    /// Fetch a job's output; `Err` carries the failure (or "never ran").
    pub fn get(&self, job: &SimJob) -> Result<&JobOutput, String> {
        match self.outputs.get(&self.ids.resolve(job).hash) {
            Some(Ok(o)) => Ok(o),
            Some(Err(e)) => Err(e.clone()),
            None => Err(format!("{} was not executed", job.label())),
        }
    }

    /// The execution wall seconds of a job's simulation (see `walls`).
    /// `None` for failed/never-run jobs.
    pub fn wall(&self, job: &SimJob) -> Option<f64> {
        self.walls.get(&self.ids.resolve(job).hash).copied()
    }

    /// The profile grid for `spec`.
    pub fn grid(&self, spec: &ProfileSpec) -> Result<&SpeedupGrid, String> {
        self.get(&SimJob::Profile(spec.clone()))
            .map(|o| o.as_grid().expect("profile output"))
    }

    /// The Pbest scalar for `spec`.
    pub fn pbest(&self, spec: &PbestSpec) -> Result<f64, String> {
        self.get(&SimJob::Pbest(spec.clone()))
            .map(|o| o.as_scalar().expect("pbest output"))
    }

    /// The steady-state run for `spec`.
    pub fn steady(&self, spec: &TupleRunSpec) -> Result<&SteadyState, String> {
        self.get(&SimJob::TupleRun(spec.clone()))
            .map(|o| o.as_steady().expect("tuple output"))
    }

    /// The training sample for `spec`.
    pub fn sample(&self, spec: &SampleSpec) -> Result<&TrainingSample, String> {
        self.get(&SimJob::Sample(spec.clone()))
            .map(|o| o.as_sample().expect("sample output"))
    }

    /// The trained model for `spec`.
    pub fn model(&self, spec: &ModelSpec) -> Result<&TrainedModel, String> {
        self.get(&SimJob::Train(spec.clone()))
            .map(|o| o.as_model().expect("train output"))
    }

    /// The evaluation run for `spec`.
    pub fn run(&self, spec: &KernelRunSpec) -> Result<&KernelRun, String> {
        self.get(&SimJob::Run(spec.clone()))
            .map(|o| o.as_run().expect("run output"))
    }
}

/// How a job failed. Both classes are terminal: a job executes once.
/// A panic is a deterministic bug (executing again repeats the crash),
/// and a dependency failure can only be fixed upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailClass {
    /// The job panicked (caught by the engine's isolation layer), or its
    /// output did not round-trip through its serialisation — an engine
    /// bug, as deterministic as a panic.
    Panic,
    /// An upstream dependency failed; never executed.
    Dependency,
}

impl FailClass {
    /// Stable display name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            FailClass::Panic => "panic",
            FailClass::Dependency => "dependency",
        }
    }
}

/// One failed job, for the failures report
/// (`results/run_all_failures.txt`).
#[derive(Debug, Clone)]
pub struct JobTrouble {
    /// The job's progress label.
    pub label: String,
    /// SHA-256 of the job's spec text — the stable job identity (the
    /// full cache key needs dependency outputs).
    pub spec_hash: String,
    /// Failure classification.
    pub class: FailClass,
    /// The error / panic payload.
    pub error: String,
    /// Wall milliseconds the job ran before failing (0 for a dependency
    /// failure, which never runs).
    pub wall_ms: u64,
}

/// Outcome summary of one [`Engine::run`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Unique jobs in the expanded graph.
    pub total: usize,
    /// Jobs actually simulated this run.
    pub executed: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Failed jobs as `(label, error)`; dependants of a failed job fail
    /// with a "dependency failed" error.
    pub failed: Vec<(String, String)>,
    /// Always 0: a job executes once. Kept only because the benchmark
    /// (`perfbench/`) reports it as `jobs.retried`.
    pub retried: usize,
    /// Cache entries found corrupt during this run (quarantined and
    /// re-executed; see [`crate::cache`]).
    pub corrupt: u64,
    /// Corrupt entries successfully moved under `quarantine/`.
    pub quarantined: u64,
    /// Torn writes and bit flips an installed fault plan injected into
    /// this run's stores (see [`crate::cache::CacheStats::store_faults`]).
    pub store_faults: u64,
    /// Every failed job, for the structured failures report.
    pub trouble: Vec<JobTrouble>,
    /// Wall-clock of the engine run.
    pub wall: Duration,
}

impl RunReport {
    /// Cache hit rate over the whole graph, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / self.total as f64
        }
    }

    /// One-line summary for logs. `corrupt` is always shown — silence
    /// must mean "checked and clean", not "unchecked".
    pub fn summary_line(&self) -> String {
        format!(
            "jobs={} executed={} cache_hits={} failed={} hit_rate={:.1}% corrupt={} wall={:.1}s",
            self.total,
            self.executed,
            self.cache_hits,
            self.failed.len(),
            100.0 * self.hit_rate(),
            self.corrupt,
            self.wall.as_secs_f64()
        )
    }
}

/// Lifecycle status of one job, as streamed to a [`ProgressSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Execution began (a cache miss — hits never start).
    Started,
    /// Answered from the cache without executing.
    Hit,
    /// Executed and committed.
    Done,
    /// Never emitted: a job executes once. Kept only because the
    /// benchmark's pass clock (`perfbench/`) matches on it.
    Recovered,
    /// The job failed (see [`FailClass`]).
    Failed,
}

/// One job-lifecycle event, emitted through the engine's
/// [`ProgressSink`] as execution proceeds.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// The job's progress label.
    pub label: String,
    /// SHA-256 of the job's spec text — the stable job identity.
    pub spec_hash: String,
    /// What happened.
    pub status: JobStatus,
    /// Wall seconds of the resolving execution (0 while not terminal).
    pub wall: f64,
    /// The failure message, for `Failed`.
    pub error: Option<String>,
}

/// An external observer of job lifecycle events. Implementations must
/// be cheap and non-blocking — events fire inside the engine's parallel
/// execution loops.
pub trait ProgressSink: Send + Sync {
    /// One lifecycle event. Exactly one of `Hit`, `Done` or `Failed`
    /// per resolved job; `Done` and a `Failed` execution follow one
    /// `Started`.
    fn job_event(&self, event: &JobEvent);
}

/// The deduplicated dependency closure of `jobs` as
/// `(spec_hash, label)` pairs in stable execution order: the identity
/// set an [`Engine::run`] over `jobs` resolves.
pub fn graph_closure(jobs: &[SimJob]) -> Vec<(String, String)> {
    let JobGraph { ids, order } = expand_graph(jobs);
    order
        .iter()
        .map(|&i| {
            let (job, id) = ids.entry(i);
            (id.hash.to_string(), job.label())
        })
        .collect()
}

/// The deduplicated dependency closure of a requested job set, in
/// stable execution order.
struct JobGraph {
    /// The closure's identities, one entry per distinct spec text: the
    /// pass's identity table (see the module docs).
    ids: IdentityTable,
    /// Entries of `ids` in execution order.
    order: Vec<usize>,
}

/// Expand `jobs` to their transitive dependency closure, deduplicated by
/// canonical spec, ordered by wave then expansion order.
fn expand_graph(jobs: &[SimJob]) -> JobGraph {
    let mut ids = IdentityTable::default();
    let mut order: Vec<usize> = Vec::new();
    let mut worklist: Vec<Cow<'_, SimJob>> = jobs.iter().map(Cow::Borrowed).collect();
    while let Some(job) = worklist.pop() {
        let (i, new) = ids.intern(job);
        if new {
            worklist.extend(ids.entry(i).0.deps().into_iter().map(Cow::Owned));
            order.push(i);
        }
    }
    // Stable order: wave, then expansion order (reversed so that the
    // originally-requested jobs come before late-discovered deps of
    // the same wave — purely cosmetic, execution is parallel anyway).
    order.sort_by_key(|&i| ids.entry(i).0.wave());
    JobGraph { ids, order }
}

/// Factor the declared jobs into shared prefixes and suffix runs.
///
/// Evaluation runs that differ **only** in `run_cycles` (same kernel,
/// scheme, machine, controller parameters, model and profile — i.e. the
/// same simulation trajectory observed at different horizons, which is
/// exactly what a `run_cycles` sweep axis declares) are one chained
/// simulation wearing several jobs. For each such group this emits a
/// [`SimJob::Prefix`] at every distinct horizon but the last, chains
/// them, and points every run's `prefix_chain` at the boundaries at or
/// below its own horizon: the whole ladder then costs one simulation of
/// the longest horizon instead of the sum of all of them, and each
/// suffix is bit-identical to its cold run by the snapshot oracle's
/// contract.
///
/// Random-restart runs never factor: their output averages several
/// seeded reruns of the same span, which has no single shareable
/// machine state.
///
/// Returns the number of runs that will fork from a shared prefix (the
/// `prefix_shared` figure in `run_all` reports). Horizon-free identities
/// resolve through `ids`, the plan's identity table.
pub fn factor_prefixes(jobs: &mut Vec<SimJob>, ids: &mut IdentityTable) -> usize {
    // Group factorable runs by their horizon-free spec text, in text
    // order for a deterministic emission order.
    let mut groups: BTreeMap<Arc<str>, Vec<usize>> = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        let SimJob::Run(r) = job else { continue };
        if r.scheme == Scheme::RandomRestart {
            continue;
        }
        let horizon_free = SimJob::Run(r.prefix_at(0, &[]));
        groups
            .entry(ids.identity(&horizon_free).spec.clone())
            .or_default()
            .push(i);
    }
    let mut shared = 0;
    let mut prefixes: Vec<SimJob> = Vec::new();
    for idxs in groups.values() {
        let mut ladder: Vec<u64> = idxs
            .iter()
            .map(|&i| match &jobs[i] {
                SimJob::Run(r) => r.run_cycles,
                _ => unreachable!("groups hold runs only"),
            })
            .collect();
        ladder.sort_unstable();
        ladder.dedup();
        // The group's barrier set: every horizon but the longest.
        let bounds = &ladder[..ladder.len() - 1];
        if bounds.is_empty() {
            continue;
        }
        let proto = match &jobs[idxs[0]] {
            SimJob::Run(r) => r.clone(),
            _ => unreachable!("groups hold runs only"),
        };
        for (k, &b) in bounds.iter().enumerate() {
            prefixes.push(SimJob::Prefix(proto.prefix_at(b, &bounds[..k])));
        }
        shared += idxs.len();
        for &i in idxs {
            let SimJob::Run(r) = &mut jobs[i] else {
                unreachable!("groups hold runs only")
            };
            r.prefix_chain = bounds
                .iter()
                .copied()
                .filter(|&b| b <= r.run_cycles)
                .collect();
        }
    }
    jobs.append(&mut prefixes);
    shared
}

/// A job's cache coordinates, resolvable once its dependencies are in
/// the store (the key hashes dependency-output digests). The spec hash
/// alone (the job's [`Identity`]) is the stable pre-dependency identity
/// used by fault plans and failure reports.
struct CacheKey {
    kind: &'static str,
    /// The full cache key (spec + dependency digests).
    key: String,
}

/// What [`Engine::run_one`] hands back to the wave loop.
struct Disposition {
    result: Result<JobOutput, (FailClass, String)>,
    was_hit: bool,
    /// Wall seconds of the execution (recalled for a hit, 0 for a
    /// dependency failure).
    wall: f64,
}

/// The experiment engine: expands, deduplicates, caches and executes
/// [`SimJob`] graphs. See the module docs.
pub struct Engine {
    cache: Cache,
    /// Suppress per-job progress lines.
    pub quiet: bool,
    /// Fault-injection plan for the execution seam (`None` in normal
    /// operation). Install via [`Engine::set_faults`] so the cache's
    /// store seam shares the plan.
    faults: Option<Arc<FaultPlan>>,
    /// External observer of job lifecycle events (`None` = silent).
    pub progress: Option<Arc<dyn ProgressSink>>,
}

/// One resolved prefix barrier: the cycle and the cache coordinates of
/// the [`SimJob::Prefix`] output at that barrier.
struct PrefixPoint {
    cycles: u64,
    key: String,
    spec: Arc<str>,
}

/// The engine's [`PrefixStore`]: snapshot blobs are ordinary cache
/// entries (kind `prefix`), so prefix sharing inherits the cache's whole
/// story — content addressing, checksums, corruption quarantine, fsck
/// and gc.
struct PrefixIo<'a> {
    cache: &'a Cache,
    boundaries: Vec<u64>,
    points: Vec<PrefixPoint>,
    /// Job start, so published blobs record the wall time actually spent
    /// reaching their barrier.
    t0: Instant,
}

impl PrefixStore for PrefixIo<'_> {
    fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    fn load(&self, cycles: u64) -> Option<String> {
        let p = self.points.iter().find(|p| p.cycles == cycles)?;
        match self.cache.lookup("prefix", &p.key) {
            // Re-validate through the output parser (structure + snapshot
            // grammar); a stale or damaged body degrades to a miss and
            // the runner re-simulates the span.
            Lookup::Hit(body, _) => JobOutput::from_text("prefix", &body)
                .is_some()
                .then_some(body),
            // `lookup` already quarantined the entry (self-healing): the
            // next prefix job to want this barrier re-runs and re-stores.
            Lookup::Corrupt | Lookup::Miss => None,
        }
    }

    fn store(&self, cycles: u64, blob: &str) {
        if let Some(p) = self.points.iter().find(|p| p.cycles == cycles) {
            self.cache.store(
                "prefix",
                &p.key,
                &p.spec,
                blob,
                self.t0.elapsed().as_secs_f64(),
            );
        }
    }
}

impl Engine {
    /// An engine whose cache lives under `cache_root`.
    pub fn new(cache_root: impl Into<PathBuf>) -> Self {
        Engine {
            cache: Cache::new(cache_root),
            quiet: false,
            faults: None,
            progress: None,
        }
    }

    /// The underlying cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Install (or clear) a fault-injection plan, shared between the
    /// execution seam here and the cache's store seam.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        let plan = plan.map(Arc::new);
        self.cache.set_faults(plan.clone());
        self.faults = plan;
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Emit one lifecycle event through the progress sink, if any.
    fn emit(
        &self,
        label: &str,
        spec_hash: &str,
        status: JobStatus,
        wall: f64,
        error: Option<&str>,
    ) {
        if let Some(sink) = &self.progress {
            sink.job_event(&JobEvent {
                label: label.to_string(),
                spec_hash: spec_hash.to_string(),
                status,
                wall,
                error: error.map(str::to_string),
            });
        }
    }

    /// Offline re-validation of every cache entry (`run_all --fsck`):
    /// header, key, end marker, checksum, plus a full deserialisation
    /// round-trip of the body. Invalid entries are quarantined.
    pub fn fsck(&self) -> std::io::Result<FsckReport> {
        self.cache
            .fsck(&|kind, body| JobOutput::from_text(kind, body).is_some())
    }

    /// Execute `jobs` (plus their transitive dependencies), deduplicated,
    /// across the host's cores. Never panics on job failure: failed jobs
    /// (and their dependants) surface in the report and as `Err` entries
    /// in the store.
    pub fn run(&self, jobs: &[SimJob]) -> (ResultStore, RunReport) {
        let t0 = Instant::now();
        let JobGraph { ids, order } = expand_graph(jobs);
        let total = order.len();

        // The store keeps the graph's identity table: dependency lookups
        // here and render lookups after the run resolve through it.
        let mut store = ResultStore::over(ids);
        let mut report = RunReport {
            total,
            ..RunReport::default()
        };
        let done = AtomicUsize::new(0);
        let (corrupt0, quarantined0, store_faults0) = (
            self.cache.stats.corrupt_count(),
            self.cache.stats.quarantined_count(),
            self.cache.stats.store_faults_count(),
        );

        // Distinct waves actually present, ascending: the classic three
        // (leaves → fits → runs) plus one wave per prefix-chain depth
        // when the plan was prefix-factored.
        let mut waves: Vec<usize> = order.iter().map(|&i| store.ids.entry(i).0.wave()).collect();
        waves.sort_unstable();
        waves.dedup();
        for wave in waves {
            let wave_jobs: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&i| store.ids.entry(i).0.wave() == wave)
                .collect();
            let results: Vec<(usize, Disposition)> =
                crate::parallel::parallel_map(&wave_jobs, |&i| {
                    let (job, id) = store.ids.entry(i);
                    let jt = Instant::now();
                    let d = self.run_one(job, id, &store);
                    let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if !self.quiet {
                        let status = match (&d.result, d.was_hit) {
                            (Ok(_), true) => "hit".to_string(),
                            (Ok(_), false) => format!("ran {:.2}s", jt.elapsed().as_secs_f64()),
                            (Err((_, e)), _) => format!("FAILED: {e}"),
                        };
                        eprintln!("[engine] {n}/{total} {} {status}", job.label());
                    }
                    (i, d)
                });
            for (i, d) in results {
                let (job, id) = store.ids.entry(i);
                let result = match d.result {
                    Ok(out) => {
                        if d.was_hit {
                            report.cache_hits += 1;
                        } else {
                            report.executed += 1;
                        }
                        Ok(out)
                    }
                    Err((class, error)) => {
                        report.failed.push((job.label(), error.clone()));
                        report.trouble.push(JobTrouble {
                            label: job.label(),
                            spec_hash: id.hash.to_string(),
                            class,
                            error: error.clone(),
                            wall_ms: (d.wall * 1000.0) as u64,
                        });
                        Err(error)
                    }
                };
                store.insert(i, result, d.wall);
            }
        }

        report.corrupt = self.cache.stats.corrupt_count() - corrupt0;
        report.quarantined = self.cache.stats.quarantined_count() - quarantined0;
        report.store_faults = self.cache.stats.store_faults_count() - store_faults0;
        report.wall = t0.elapsed();
        if !self.quiet {
            eprintln!("[engine] {}", report.summary_line());
        }
        (store, report)
    }

    /// Resolve the cache key of `job` (identity `id`) against `store`
    /// (dependencies must already be resolved there — their output
    /// digests enter the key). `Err` carries the dependency-failure
    /// message.
    fn identify(
        &self,
        job: &SimJob,
        id: &Identity,
        store: &ResultStore,
    ) -> Result<CacheKey, String> {
        let mut dep_digests = String::new();
        for dep in &job.deps() {
            match store.get(dep) {
                Ok(o) => dep_digests.push_str(&format!("dep {}\n", job.dep_digest(dep, o))),
                Err(e) => return Err(format!("dependency {} failed: {e}", dep.label())),
            }
        }
        let spec = &id.spec;
        Ok(CacheKey {
            kind: job.kind(),
            key: sha256_hex(&format!("{CODE_DIGEST}\n{spec}--deps--\n{dep_digests}")),
        })
    }

    /// Resolve a job's prefix chain to concrete cache coordinates: each
    /// barrier cycle maps to the synthetic [`SimJob::Prefix`] at that
    /// boundary, identified exactly like a real job (spec text + dep
    /// digests), so a chain entry and the standalone prefix job the
    /// factoring emitted address the same cache entry. `None` when the
    /// job has no chain (or its deps failed, in which case `run_one`
    /// fails first anyway); the job then runs cold.
    fn prefix_io(&self, job: &SimJob, store: &ResultStore) -> Option<PrefixIo<'_>> {
        let r = match job {
            SimJob::Run(r) | SimJob::Prefix(r) => r,
            _ => return None,
        };
        if r.prefix_chain.is_empty() {
            return None;
        }
        let mut points = Vec::with_capacity(r.prefix_chain.len());
        for (i, &cycles) in r.prefix_chain.iter().enumerate() {
            let synth = SimJob::Prefix(r.prefix_at(cycles, &r.prefix_chain[..i]));
            // Ladder barriers are graph jobs (a table hit).
            let id = store.ids.resolve(&synth);
            let key = self.identify(&synth, &id, store).ok()?.key;
            points.push(PrefixPoint {
                cycles,
                key,
                spec: id.spec,
            });
        }
        Some(PrefixIo {
            cache: &self.cache,
            boundaries: r.prefix_chain.clone(),
            points,
            t0: Instant::now(),
        })
    }

    /// Run (or load) one job (identity `id`) whose dependencies are
    /// already in `store`, injecting an execution fault when a plan is
    /// installed. A job executes at most once: every failure is terminal.
    fn run_one(&self, job: &SimJob, id: &Identity, store: &ResultStore) -> Disposition {
        let spec_hash: &str = &id.hash;
        let label = job.label();
        let CacheKey { kind, key } = match self.identify(job, id, store) {
            Ok(k) => k,
            Err(error) => {
                self.emit(&label, spec_hash, JobStatus::Failed, 0.0, Some(&error));
                return Disposition {
                    result: Err((FailClass::Dependency, error)),
                    was_hit: false,
                    wall: 0.0,
                };
            }
        };
        let deps = job.deps();
        let dep_outputs: Vec<&JobOutput> = deps
            .iter()
            .map(|d| store.get(d).expect("identify() checked every dep"))
            .collect();
        // A corrupt entry was quarantined by the lookup and re-executes
        // exactly like a miss.
        if let Lookup::Hit(body, wall) = self.cache.lookup(kind, &key) {
            if let Some(out) = JobOutput::from_text(kind, &body) {
                self.emit(&label, spec_hash, JobStatus::Hit, wall, None);
                return Disposition {
                    result: Ok(out),
                    was_hit: true,
                    wall,
                };
            }
            // Checksum-valid but unparseable (a serialiser bug or a hand
            // edit): re-execute; the store below overwrites the entry.
        }

        let prefixes = self.prefix_io(job, store);
        let injected = self.faults.as_ref().and_then(|p| p.exec_fault(spec_hash));
        self.emit(&label, spec_hash, JobStatus::Started, 0.0, None);
        let t0 = Instant::now();
        let executed = catch_unwind(AssertUnwindSafe(|| {
            if injected == Some(FaultKind::Panic) {
                panic!("injected fault: panic");
            }
            job.execute(&dep_outputs, prefixes.as_ref())
        }));
        let wall = t0.elapsed().as_secs_f64();
        let result = match executed {
            Ok(out) => {
                let body = out.to_text();
                self.cache.store(kind, &key, &id.spec, &body, wall);
                // Canonicalise through the serialisation so a cold run
                // returns bit-identical values to a later warm run. A
                // non-round-tripping output is a bug in the job's
                // serialiser, but it must fail *this job*, not panic past
                // the engine's isolation.
                JobOutput::from_text(kind, &body).ok_or_else(|| {
                    format!(
                        "{label} produced output that does not round-trip through its \
                         serialisation (engine bug)"
                    )
                })
            }
            Err(panic) => Err(panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string())),
        };
        match &result {
            Ok(_) => self.emit(&label, spec_hash, JobStatus::Done, wall, None),
            Err(e) => self.emit(&label, spec_hash, JobStatus::Failed, wall, Some(e)),
        }
        Disposition {
            result: result.map_err(|e| (FailClass::Panic, e)),
            was_hit: false,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{AccessMix, KernelSpec};

    fn tmp_engine(tag: &str) -> (Engine, PathBuf) {
        let dir = std::env::temp_dir().join(format!("poise-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = Engine::new(&dir);
        e.quiet = true;
        (e, dir)
    }

    fn tiny_setup() -> Setup {
        let mut s = Setup::for_tests();
        s.run_cycles = 10_000;
        s.eval_grid = GridSpec::diagonal(6);
        s.profile_window = ProfileWindow {
            warmup: 200,
            measure: 800,
        };
        s
    }

    fn kernel(seed: u64) -> Workload {
        KernelSpec::steady(format!("jk{seed}"), AccessMix::memory_sensitive(), seed).into()
    }

    #[test]
    fn duplicate_jobs_execute_once_and_second_run_hits() {
        let (engine, dir) = tmp_engine("dedup");
        let setup = tiny_setup();
        // The same GTO run requested three times, plus one distinct run.
        let gto = SimJob::Run(KernelRunSpec::new(&kernel(1), Scheme::Gto, &setup, None));
        let other = SimJob::Run(KernelRunSpec::new(&kernel(2), Scheme::Gto, &setup, None));
        let jobs = vec![gto.clone(), gto.clone(), other, gto.clone()];
        let (store, report) = engine.run(&jobs);
        assert_eq!(report.total, 2, "duplicates must deduplicate");
        assert_eq!(report.executed, 2);
        assert_eq!(report.cache_hits, 0);
        assert!(store.get(&gto).is_ok());
        // Second run: everything from cache, zero simulations.
        let (store2, report2) = engine.run(&jobs);
        assert_eq!(report2.executed, 0);
        assert_eq!(report2.cache_hits, 2);
        let a = store.get(&gto).unwrap().as_run().unwrap();
        let b = store2.get(&gto).unwrap().as_run().unwrap();
        assert_eq!(a.counters, b.counters, "cache hit must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_driven_run_resolves_its_dependency() {
        let (engine, dir) = tmp_engine("deps");
        let setup = tiny_setup();
        let job = SimJob::Run(KernelRunSpec::new(&kernel(3), Scheme::Swl, &setup, None));
        let (store, report) = engine.run(std::slice::from_ref(&job));
        // The profile dependency was discovered and executed too.
        assert_eq!(report.total, 2);
        assert_eq!(report.executed, 2);
        let run = store.get(&job).unwrap().as_run().unwrap();
        assert!(run.counters.instructions > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_job_is_isolated_and_dependants_fail_gracefully() {
        let (engine, dir) = tmp_engine("panic");
        // An invalid kernel (no phases) makes the profiler panic.
        let bad: Workload = KernelSpec {
            name: "bad".into(),
            warps_per_scheduler: 4,
            phases: Vec::new(),
            trace_len: None,
            seed: 0,
        }
        .into();
        let setup = tiny_setup();
        let bad_job = SimJob::Run(KernelRunSpec::new(&bad, Scheme::Swl, &setup, None));
        let good_job = SimJob::Run(KernelRunSpec::new(&kernel(4), Scheme::Gto, &setup, None));
        let (store, report) = engine.run(&[bad_job.clone(), good_job.clone()]);
        // The profile panics; the dependant run fails with a dependency
        // error; the unrelated job still completes.
        assert_eq!(report.failed.len(), 2);
        assert!(store.get(&good_job).is_ok());
        let err = store.get(&bad_job).unwrap_err();
        assert!(err.contains("dependency"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_perturbations_miss_the_cache() {
        let (engine, dir) = tmp_engine("perturb");
        let setup = tiny_setup();
        let base = KernelRunSpec::new(&kernel(5), Scheme::Gto, &setup, None);
        let (_, r0) = engine.run(&[SimJob::Run(base.clone())]);
        assert_eq!(r0.executed, 1);

        // Each perturbation of the job spec must be a miss.
        let mut cycles = base.clone();
        cycles.run_cycles += 1;
        let mut cfg = base.clone();
        cfg.cfg.l1_mshrs += 1;
        let mut kern = base.clone();
        kern.workload.synthetic_mut().unwrap().seed += 1;
        let mut sched = base.clone();
        sched.scheme = Scheme::RandomRestart;
        sched.t_period = Some(5_000);
        sched.rr_seeds = vec![1];
        for (i, variant) in [cycles, cfg, kern, sched].into_iter().enumerate() {
            let (_, r) = engine.run(&[SimJob::Run(variant)]);
            assert_eq!(r.executed, 1, "perturbation {i} should re-run");
        }
        // And the unperturbed spec still hits.
        let (_, r1) = engine.run(&[SimJob::Run(base)]);
        assert_eq!((r1.executed, r1.cache_hits), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_re_run_and_are_quarantined() {
        let (engine, dir) = tmp_engine("corrupt");
        let setup = tiny_setup();
        let job = SimJob::Run(KernelRunSpec::new(&kernel(6), Scheme::Gto, &setup, None));
        let (store, _) = engine.run(std::slice::from_ref(&job));
        let want = store.get(&job).unwrap().as_run().unwrap().counters;
        // Truncate / garble every cache file.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                std::fs::write(entry.path(), "# poise job cache v1\ngarbage").unwrap();
            }
        }
        let (store2, r2) = engine.run(std::slice::from_ref(&job));
        assert_eq!(r2.executed, 1, "corrupt entry must re-run, not panic");
        assert_eq!(r2.corrupt, 1, "corruption must be counted, not silent");
        assert_eq!(r2.quarantined, 1);
        assert!(
            engine.cache().quarantine_root().read_dir().unwrap().count() == 1,
            "the garbled entry is preserved under quarantine/"
        );
        assert_eq!(
            store2.get(&job).unwrap().as_run().unwrap().counters,
            want,
            "re-run must reproduce the result"
        );
        // The healed store is clean: a third run hits, an fsck agrees.
        let (_, r3) = engine.run(std::slice::from_ref(&job));
        assert_eq!((r3.executed, r3.cache_hits, r3.corrupt), (0, 1, 0));
        let report = engine.fsck().unwrap();
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.valid, report.scanned);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outputs_round_trip_through_text() {
        // Grid.
        let mut g = SpeedupGrid::new(4);
        g.set(3, 2, 1.23456789012345);
        g.set(4, 4, 1.0);
        let t = JobOutput::Grid(g.clone()).to_text();
        let back = JobOutput::from_text("profile", &t).unwrap();
        assert_eq!(back.as_grid().unwrap().get(3, 2), g.get(3, 2));
        // Model.
        let m = TrainedModel {
            alpha: [0.1, -0.2, 0.3, 0.0, 1.5, -2.0, 0.004, 1.6],
            beta: [3.7, 0.48, -6.3, 10.3, -6.5, -0.9, 0.08, -2.1],
            dispersion_n: 0.12,
            dispersion_p: 0.34,
            samples_used: 42,
            dropped_features: vec![2, 5],
        };
        let t = JobOutput::Model(m.clone()).to_text();
        let back = JobOutput::from_text("train", &t).unwrap();
        let m2 = back.as_model().unwrap();
        assert_eq!(m.alpha, m2.alpha);
        assert_eq!(m.beta, m2.beta);
        assert_eq!(m.dropped_features, m2.dropped_features);
        // Run with epoch logs.
        let r = KernelRun {
            kernel: "k#1".into(),
            counters: Counters {
                cycles: 100,
                instructions: 42,
                ..Counters::default()
            },
            energy: EnergyBreakdown {
                alu: 1.0,
                l1: 2.0,
                l2: 3.0,
                dram: 4.5,
                leakage: 6.25,
            },
            epoch_logs: vec![crate::hie::EpochLog {
                cycle: 7,
                predicted: WarpTuple { n: 8, p: 2 },
                searched: WarpTuple { n: 6, p: 3 },
                early_out: false,
            }],
        };
        let t = JobOutput::Run(r.clone()).to_text();
        let back = JobOutput::from_text("run", &t).unwrap();
        let r2 = back.as_run().unwrap();
        assert_eq!(r.counters, r2.counters);
        assert_eq!(r.epoch_logs, r2.epoch_logs);
        assert_eq!(r.energy, r2.energy);
        // Truncated bodies parse to None, not panic.
        assert!(JobOutput::from_text("run", "kernel k\n").is_none());
        assert!(JobOutput::from_text("train", "alpha 1 2\n").is_none());
        // Out-of-range grid cells (corrupt bodies) must be rejected
        // before reaching SpeedupGrid's asserting constructor/setter —
        // a panic here would escape the engine's per-job isolation.
        assert!(JobOutput::from_text("profile", "max_n 0\n").is_none());
        assert!(JobOutput::from_text("profile", "max_n 4\ncell 0 0 1.0\n").is_none());
        assert!(JobOutput::from_text("profile", "max_n 4\ncell 3 0 1.0\n").is_none());
        assert!(JobOutput::from_text("profile", "max_n 4\ncell 5 1 1.0\n").is_none());
    }

    #[test]
    fn editing_a_trace_file_invalidates_only_that_workloads_jobs() {
        use workloads::{record_kernel, TraceRef};
        let (engine, dir) = tmp_engine("trace-edit");
        let setup = tiny_setup();
        let trace_path = dir.join("k.trace");
        let record = |seed: u64| {
            let spec = KernelSpec::steady("tk", AccessMix::memory_sensitive(), seed).with_warps(4);
            let data = record_kernel(&spec, "tk", 1, setup.cfg.schedulers_per_sm, 2_000);
            Workload::from(TraceRef::write(&data, &trace_path).unwrap())
        };

        let trace_a = record(1);
        let synth = kernel(9);
        let jobs = |t: &Workload| {
            vec![
                SimJob::Run(KernelRunSpec::new(t, Scheme::Gto, &setup, None)),
                SimJob::Run(KernelRunSpec::new(&synth, Scheme::Gto, &setup, None)),
            ]
        };
        let (_, r1) = engine.run(&jobs(&trace_a));
        assert_eq!((r1.executed, r1.cache_hits), (2, 0));

        // Unchanged file, reloaded: both jobs hit.
        let reloaded = Workload::from(TraceRef::load(&trace_path).unwrap());
        assert_eq!(reloaded.spec_line(), trace_a.spec_line());
        let (_, r2) = engine.run(&jobs(&reloaded));
        assert_eq!((r2.executed, r2.cache_hits), (0, 2));

        // Edited file: only the trace workload's job re-runs; the
        // synthetic job still answers from cache.
        let trace_b = record(2);
        assert_ne!(trace_b.spec_line(), trace_a.spec_line());
        let (_, r3) = engine.run(&jobs(&trace_b));
        assert_eq!((r3.executed, r3.cache_hits), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_untouched_drops_jobs_outside_the_current_set() {
        let (engine, dir) = tmp_engine("gc");
        let setup = tiny_setup();
        let a = SimJob::Run(KernelRunSpec::new(&kernel(11), Scheme::Gto, &setup, None));
        let b = SimJob::Run(KernelRunSpec::new(&kernel(12), Scheme::Gto, &setup, None));
        engine.run(&[a.clone(), b.clone()]);

        // A later engine (fresh touched set) only runs job `a` — e.g.
        // after `b`'s kernel was edited out of the suites — and gc's.
        let mut engine2 = Engine::new(&dir);
        engine2.quiet = true;
        let (_, r) = engine2.run(std::slice::from_ref(&a));
        assert_eq!(r.cache_hits, 1);
        let (removed, kept) = engine2.cache().prune_untouched().unwrap();
        assert_eq!((removed, kept), (1, 1), "b's entry goes, a's stays");
        // `a` still hits afterwards; `b` re-runs.
        let mut engine3 = Engine::new(&dir);
        engine3.quiet = true;
        let (_, r) = engine3.run(&[a, b]);
        assert_eq!((r.executed, r.cache_hits), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_and_fsck_cover_prefix_blobs() {
        let setup = tiny_setup();
        let mut factored: Vec<SimJob> = [4_000u64, 8_000]
            .iter()
            .map(|&c| run_at(17, Scheme::Gto, c, &setup))
            .collect();
        factor_prefixes(&mut factored, &mut IdentityTable::default());
        // 3 entries on disk: both runs and the 4k blob. fsck validates
        // blob structure and snapshot grammar.
        let (engine, dir) = tmp_engine("prefix-gc");
        engine.run(&factored);
        assert_eq!(engine.fsck().unwrap().corrupt, 0);
        // gc: a later engine that only wants the short horizon keeps its
        // run but drops the unreferenced blob and the long run.
        let mut engine2 = Engine::new(&dir);
        engine2.quiet = true;
        let (_, r) = engine2.run(std::slice::from_ref(&factored[0]));
        assert_eq!(r.cache_hits, 1);
        let (removed, kept) = engine2.cache().prune_untouched().unwrap();
        assert_eq!((removed, kept), (2, 1), "blob + long run go, short stays");
        // A factored pass touches everything it re-creates or hits, so
        // gc right after it removes nothing.
        let mut engine3 = Engine::new(&dir);
        engine3.quiet = true;
        engine3.run(&factored);
        let (removed, kept) = engine3.cache().prune_untouched().unwrap();
        assert_eq!(removed, 0);
        assert_eq!(kept, 3, "2 runs + 1 blob all live");
        // fsck quarantines a damaged blob like any other entry.
        let blob_path = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| {
                p.is_file()
                    && p.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with("prefix-"))
            })
            .expect("the factored run stored a prefix blob");
        std::fs::write(&blob_path, "# poise job cache v1\ngarbage").unwrap();
        let fsck = engine3.fsck().unwrap();
        assert_eq!(fsck.corrupt, 1);
        assert!(!blob_path.exists(), "fsck quarantines the casualty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_is_terminal_no_retry() {
        use crate::faults::FaultKind;
        let setup = tiny_setup();
        let job = SimJob::Run(KernelRunSpec::new(&kernel(22), Scheme::Gto, &setup, None));
        let (mut engine, dir) = tmp_engine("panic-terminal");
        // rate 1.0: every execution fires.
        engine.set_faults(Some(
            crate::faults::FaultPlan::new(0, 1.0).with_kinds(&[FaultKind::Panic]),
        ));
        let (store, report) = engine.run(std::slice::from_ref(&job));
        assert_eq!(report.failed.len(), 1);
        let t = &report.trouble[0];
        assert_eq!(t.class, FailClass::Panic);
        assert!(t.error.contains("injected fault: panic"));
        assert!(store.get(&job).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_faults_corrupt_on_disk_but_never_in_memory() {
        use crate::faults::FaultKind;
        let setup = tiny_setup();
        let job = SimJob::Run(KernelRunSpec::new(&kernel(28), Scheme::Gto, &setup, None));
        // Fault-free baseline.
        let (baseline_engine, base_dir) = tmp_engine("store-base");
        let (store0, _) = baseline_engine.run(std::slice::from_ref(&job));
        let want = store0.get(&job).unwrap().as_run().unwrap().counters;

        let (mut engine, dir) = tmp_engine("store-faults");
        engine.set_faults(Some(
            crate::faults::FaultPlan::new(0, 1.0)
                .with_kinds(&[FaultKind::TornWrite, FaultKind::BitFlip]),
        ));
        // Every store is corrupted, so every run re-executes — but the
        // in-memory result is canonicalised from the clean body, never
        // from disk, so consumers always see correct values.
        let (s1, r1) = engine.run(std::slice::from_ref(&job));
        assert_eq!(s1.get(&job).unwrap().as_run().unwrap().counters, want);
        assert_eq!(r1.failed.len(), 0);
        let (s2, r2) = engine.run(std::slice::from_ref(&job));
        assert_eq!(s2.get(&job).unwrap().as_run().unwrap().counters, want);
        assert_eq!(r2.corrupt, 1, "the torn first store is detected");
        // Healing: drop the plan; the next run re-executes and stores
        // cleanly; the one after hits.
        engine.set_faults(None);
        let (_, r3) = engine.run(std::slice::from_ref(&job));
        assert_eq!(r3.executed, 1);
        let (_, r4) = engine.run(std::slice::from_ref(&job));
        assert_eq!((r4.cache_hits, r4.corrupt), (1, 0));
        assert_eq!(engine.fsck().unwrap().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&base_dir);
    }

    #[test]
    fn model_spec_changes_invalidate_poise_runs_only_via_digest() {
        // Two model specs differing in a training kernel produce
        // different run spec texts (the model is referenced by spec
        // hash), so the Poise run re-simulates.
        let setup = tiny_setup();
        let mut ms = ModelSpec::default_training(&setup);
        ms.kernels.truncate(2);
        let run_a = SimJob::Run(KernelRunSpec::new(
            &kernel(7),
            Scheme::Poise,
            &setup,
            Some(&ms),
        ));
        let mut ms2 = ms.clone();
        ms2.kernels[0].synthetic_mut().unwrap().seed += 1;
        let run_b = SimJob::Run(KernelRunSpec::new(
            &kernel(7),
            Scheme::Poise,
            &setup,
            Some(&ms2),
        ));
        assert_ne!(run_a.spec_text(), run_b.spec_text());
        // A GTO run spec is independent of the model entirely.
        let gto_a = SimJob::Run(KernelRunSpec::new(&kernel(7), Scheme::Gto, &setup, None));
        let gto_b = SimJob::Run(KernelRunSpec::new(&kernel(7), Scheme::Gto, &setup, None));
        assert_eq!(gto_a.spec_text(), gto_b.spec_text());
    }

    #[test]
    fn signed_zeros_get_distinct_identities_through_the_table() {
        // `f64::eq` calls 0.0 and -0.0 equal, but they render differently:
        // the table must not hand one run the other's identity, whether
        // the zero sits in the run's own parameters or in the model whose
        // digest the run embeds.
        let setup = tiny_setup();
        let mut ms = ModelSpec::default_training(&setup);
        ms.kernels.truncate(2);
        let run = |own: f64, model: f64| {
            let mut m = ms.clone();
            m.scoring.0[2] = model;
            let mut r = KernelRunSpec::new(&kernel(8), Scheme::Poise, &setup, Some(&m));
            r.params.as_mut().expect("Poise params").scoring.0[2] = own;
            SimJob::Run(r)
        };
        for (a, b) in [
            (run(0.0, 0.25), run(-0.0, 0.25)),
            (run(0.25, 0.0), run(0.25, -0.0)),
        ] {
            assert_eq!(a, b, "struct equality cannot tell the zeros apart");
            let mut ids = IdentityTable::default();
            let ha = ids.identity(&a).hash.clone();
            let hb = ids.identity(&b).hash.clone();
            assert_ne!(ha, hb);
            assert_eq!(ha, Identity::of(&a).hash);
            assert_eq!(hb, Identity::of(&b).hash);
            assert_eq!((ids.resolve(&a).hash, ids.resolve(&b).hash), (ha, hb));
            // The engine's graph keeps both runs (and both models when
            // they differ).
            let closure = graph_closure(&[a.clone(), b.clone()]);
            let runs = closure
                .iter()
                .filter(|(_, l)| l.starts_with("run["))
                .count();
            assert_eq!(runs, 2);
        }
    }

    #[test]
    fn engine_only_fields_share_one_table_entry() {
        // Runs differing only in what the spec text leaves out hit the
        // same entry, and the store resolves either to the same output.
        let setup = tiny_setup();
        let a = KernelRunSpec::new(&kernel(8), Scheme::Gto, &setup, None);
        let mut b = a.clone();
        b.cfg.sim_threads = 2;
        b.cfg.step_mode = gpu_sim::StepMode::Reference;
        b.tag = Some("sim_threads=2".into());
        b.prefix_chain = vec![1_000];
        let (a, b) = (SimJob::Run(a), SimJob::Run(b));
        let mut ids = IdentityTable::default();
        assert!(ids.intern(Cow::Borrowed(&a)).1);
        assert_eq!(ids.intern(Cow::Borrowed(&b)), (0, false));
        assert_eq!(ids.resolve(&b), Identity::of(&a));
    }

    /// A run at `cycles` for `kernel(seed)` under `scheme`.
    fn run_at(seed: u64, scheme: Scheme, cycles: u64, setup: &Setup) -> SimJob {
        let mut r = KernelRunSpec::new(&kernel(seed), scheme, setup, None);
        r.run_cycles = cycles;
        SimJob::Run(r)
    }

    fn chain_of(job: &SimJob) -> &[u64] {
        match job {
            SimJob::Run(r) | SimJob::Prefix(r) => &r.prefix_chain,
            _ => panic!("not a kernel job"),
        }
    }

    #[test]
    fn factor_prefixes_builds_chained_ladders() {
        let setup = tiny_setup();
        // A GTO horizon ladder, a lone APCM run, and a random-restart
        // ladder that must never factor.
        let mut jobs = vec![
            run_at(7, Scheme::Gto, 10_000, &setup),
            run_at(7, Scheme::Gto, 20_000, &setup),
            run_at(7, Scheme::Gto, 40_000, &setup),
            run_at(7, Scheme::Apcm, 40_000, &setup),
            run_at(7, Scheme::RandomRestart, 10_000, &setup),
            run_at(7, Scheme::RandomRestart, 20_000, &setup),
        ];
        let shared = factor_prefixes(&mut jobs, &mut IdentityTable::default());
        assert_eq!(shared, 3, "only the GTO ladder forks");
        // Two prefixes appended: GTO@10k (root) and GTO@20k (chained).
        assert_eq!(jobs.len(), 8);
        let (p10, p20) = (&jobs[6], &jobs[7]);
        assert!(matches!(p10, SimJob::Prefix(r) if r.run_cycles == 10_000));
        assert!(matches!(p20, SimJob::Prefix(r) if r.run_cycles == 20_000));
        assert_eq!(chain_of(p10), &[] as &[u64]);
        assert_eq!(chain_of(p20), &[10_000]);
        // Each run forks from the deepest boundary at or below its own
        // horizon; the lone and random-restart runs are untouched.
        assert_eq!(chain_of(&jobs[0]), &[10_000]);
        assert_eq!(chain_of(&jobs[1]), &[10_000, 20_000]);
        assert_eq!(chain_of(&jobs[2]), &[10_000, 20_000]);
        for job in &jobs[3..6] {
            assert_eq!(chain_of(job), &[] as &[u64]);
        }
        // Waves: the root prefix runs before the chained one, and every
        // evaluation run shares the final wave.
        assert!(p10.wave() < p20.wave());
        assert!(jobs[..6].iter().all(|j| j.wave() == usize::MAX));
    }

    #[test]
    fn prefix_factored_ladder_matches_cold_runs_bit_for_bit() {
        let setup = tiny_setup();
        // Two dependency-free schemes, three horizons each — APCM
        // carries mutable controller state across the barrier, so this
        // also exercises the save/restore path through the engine.
        let mut declared: Vec<SimJob> = Vec::new();
        for s in [Scheme::Gto, Scheme::Apcm] {
            for c in [4_000u64, 8_000, 12_000] {
                declared.push(run_at(11, s, c, &setup));
            }
        }
        let (cold_engine, cold_dir) = tmp_engine("prefix-cold");
        let (cold_store, cold_report) = cold_engine.run(&declared);
        assert_eq!(cold_report.executed, 6);

        let mut factored = declared.clone();
        let shared = factor_prefixes(&mut factored, &mut IdentityTable::default());
        assert_eq!(shared, 6);
        let (fork_engine, fork_dir) = tmp_engine("prefix-fork");
        let (fork_store, fork_report) = fork_engine.run(&factored);
        // 6 runs + 2 prefixes per scheme, all simulated once.
        assert_eq!(fork_report.executed, 10);
        assert_eq!(fork_report.failed.len(), 0);
        // The prefix chain is an execution strategy, not an identity:
        // the declared (chain-free) jobs address the factored store, and
        // every forked suffix is bit-identical to its cold run.
        for job in &declared {
            assert_eq!(
                cold_store.get(job).unwrap().to_text(),
                fork_store.get(job).unwrap().to_text(),
                "forked suffix diverged for {}",
                job.label()
            );
        }
        // Warm pass: runs and prefixes all hit.
        let (_, warm) = fork_engine.run(&factored);
        assert_eq!((warm.executed, warm.cache_hits), (0, 10));
        let _ = std::fs::remove_dir_all(&cold_dir);
        let _ = std::fs::remove_dir_all(&fork_dir);
    }

    #[test]
    fn run_published_checkpoints_land_on_prefix_keys() {
        // A run that passes a barrier publishes the blob under the same
        // key a standalone Prefix job would use — so a later ladder (or
        // an interrupted run's restart) finds it without resimulating.
        let setup = tiny_setup();
        let mut r = KernelRunSpec::new(&kernel(9), Scheme::Gto, &setup, None);
        r.run_cycles = 9_000;
        r.prefix_chain = vec![3_000, 6_000];
        let (engine, dir) = tmp_engine("checkpoint");
        let (_, first) = engine.run(&[SimJob::Run(r.clone())]);
        assert_eq!(first.executed, 1);
        let p1 = SimJob::Prefix(r.prefix_at(3_000, &[]));
        let p2 = SimJob::Prefix(r.prefix_at(6_000, &[3_000]));
        let (store, rep) = engine.run(&[p1.clone(), p2.clone()]);
        assert_eq!((rep.executed, rep.cache_hits), (0, 2));
        for (p, cycles) in [(&p1, 3_000), (&p2, 6_000)] {
            let blob = store.get(p).unwrap();
            let parsed = PrefixBlob::parse(blob.as_snapshot().unwrap()).unwrap();
            assert_eq!(parsed.cycles, cycles);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_prefix_blobs_self_heal_to_cold_runs() {
        let setup = tiny_setup();
        let declared: Vec<SimJob> = [4_000u64, 8_000, 12_000]
            .iter()
            .map(|&c| run_at(13, Scheme::Gto, c, &setup))
            .collect();
        let mut factored = declared.clone();
        factor_prefixes(&mut factored, &mut IdentityTable::default());
        let (engine, dir) = tmp_engine("prefix-heal");
        let (store1, r1) = engine.run(&factored);
        assert_eq!(r1.executed, 5);
        // Garble every prefix blob on disk, and evict the run entries so
        // the runs must re-execute and consult the damaged prefixes.
        let mut garbled = 0;
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !entry.path().is_file() {
                continue;
            }
            if name.starts_with("prefix-") {
                std::fs::write(entry.path(), "# poise job cache v1\ngarbage").unwrap();
                garbled += 1;
            } else if name.starts_with("run-") {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }
        assert_eq!(garbled, 2);
        // The runs fall back to cold simulation (the corrupt blobs are
        // quarantined, never trusted) and still produce identical bits.
        let (store2, r2) = engine.run(&factored);
        assert_eq!(r2.failed.len(), 0);
        assert!(r2.quarantined >= 2, "damaged blobs are quarantined");
        for job in &declared {
            assert_eq!(
                store1.get(job).unwrap().to_text(),
                store2.get(job).unwrap().to_text(),
                "self-healed run diverged for {}",
                job.label()
            );
        }
        // Corrupt the (re-stored) blobs again and declare a *longer*
        // run forking from them, with no prefix job scheduled to repair
        // them first: the loader falls through the damaged boundaries
        // to a cold start and the result still matches a cold engine.
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            if entry.file_name().to_string_lossy().starts_with("prefix-") {
                std::fs::write(entry.path(), "# poise job cache v1\ngarbage").unwrap();
            }
        }
        let ext_job = {
            let SimJob::Run(r) = &declared[0] else {
                unreachable!()
            };
            let mut ext = r.clone();
            ext.run_cycles = 16_000;
            ext.prefix_chain = vec![4_000, 8_000];
            SimJob::Run(ext)
        };
        let (store3, r3) = engine.run(std::slice::from_ref(&ext_job));
        assert_eq!((r3.failed.len(), r3.executed), (0, 1));
        assert!(r3.quarantined >= 1, "the damaged fork point is quarantined");
        let (cold_engine, cold_dir) = tmp_engine("prefix-heal-cold");
        let cold16 = run_at(13, Scheme::Gto, 16_000, &setup);
        let (cold_store, _) = cold_engine.run(std::slice::from_ref(&cold16));
        assert_eq!(
            store3.get(&ext_job).unwrap().to_text(),
            cold_store.get(&cold16).unwrap().to_text(),
            "cold fallback diverged from a genuinely cold run"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&cold_dir);
    }
}
