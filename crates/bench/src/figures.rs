//! The figure registry: every table/figure of the evaluation section as a
//! declarative [`Figure`] over the unified experiment engine.
//!
//! A figure contributes two functions:
//!
//! * `jobs` — the [`SimJob`]s it needs (kernel × scheme runs, offline
//!   profiles, Pbest classifications, training samples/fits);
//! * `render` — formats the figure from the engine's [`ResultStore`] and
//!   writes it under `results/`.
//!
//! `run_all` concatenates every figure's jobs, hands the union to
//! [`poise::jobs::Engine`] — which deduplicates across figures, executes
//! the unique set once over the shared work queue, and answers repeats
//! from the content-addressed cache — then renders each figure in order.
//! `run_all --only <figure>` renders a single figure through the same
//! path.
//!
//! ## Byte-compatibility with the retired per-binary harness
//!
//! The old harness computed the Figs. 7–10/14 comparison once (in
//! `fig07_performance`, which rendered from the in-memory full-precision
//! rows) and re-read it from `results/main_comparison.tsv` (6-decimal
//! cells) in every later binary. [`main_rows_cached`] reproduces that
//! round-trip so every figure renders byte-identically to the per-binary
//! `run_all`, which the migration was validated against.

use std::process::ExitCode;
use std::time::Instant;

use gpu_sim::{KernelSource, SetIndexing, WarpTuple};
use poise::experiment::{self, arithmetic_mean, harmonic_mean, Scheme, Setup};
use poise::jobs::{
    Engine, IdentityTable, KernelRunSpec, ModelSpec, PbestSpec, ProfileSpec, ResultStore,
    RunReport, SampleSpec, SharedSpec, SimJob, TupleRunSpec,
};
use poise::plan::{Axis, ExperimentPlan, KnobOverlay, PlanExpansion, SweepPoint};
use poise::policies::swl_tuple_from_grid;
use poise::profiler::{GridSpec, ProfileWindow};
use poise::FaultPlan;
use poise_ml::{ScoringWeights, SpeedupGrid, TrainingSample};
use workloads::{
    compute_insensitive_suite, evaluation_suite, fig4_kernels, training_suite, Benchmark, TraceRef,
    Workload,
};

use crate::{
    bench_order, cell, emit_table, metric, model_to_text, render_grid, results_dir, rows_from_tsv,
    rows_to_tsv, MainRow,
};

/// Shared context every figure declares and renders against: the
/// knob-derived [`Setup`] and the default training [`ModelSpec`].
pub struct FigCtx {
    /// The experiment setup (machine, params, effort caps).
    pub setup: Setup,
    /// The one-time offline training run all Poise figures share; every
    /// run deploying it shares its digest (see [`SharedSpec`]).
    pub model: SharedSpec<ModelSpec>,
    /// The trace workloads under [`crate::traces_dir`], loaded once at
    /// context construction so the `trace_eval` jobs and renderer see
    /// the same snapshot. A load reads, hashes and header-checks each
    /// file once; its op streams decode from those bytes in the first
    /// job that simulates it, so a warm pass decodes none.
    pub traces: Vec<Workload>,
    /// Load failures (`path: error`): a file that cannot be read or has
    /// a corrupt header, or a traces directory that cannot be read. The
    /// loadable traces still declare jobs, but `trace_eval`'s render
    /// fails while any error stands — a corrupt committed trace must
    /// fail the run (and veto `--gc`), not silently shrink it. A corrupt
    /// *body* is not found here: it fails each job that simulates the
    /// trace, which fails the run the same way.
    pub trace_errors: Vec<String>,
}

impl FigCtx {
    /// Build the context over an explicit base [`Setup`] (the knob
    /// overlay has already been applied by the CLI entry point).
    pub fn new(setup: Setup) -> Self {
        let model = SharedSpec::new(ModelSpec::default_training(&setup));
        let (traces, trace_errors) = load_trace_workloads();
        FigCtx {
            setup,
            model,
            traces,
            trace_errors,
        }
    }
}

/// One registered figure/table.
///
/// Every figure is an [`ExperimentPlan`]: `axes` declares its intrinsic
/// sweep (empty for the common single-point figures; `run_all --sweep`
/// can override or extend it), `jobs` is a pure function of one sweep
/// point's [`Setup`], and `render` receives every expanded point. The
/// shared [`FigCtx`] carries what is deliberately *not* swept: the base
/// setup, the one offline-trained model every point deploys, and the
/// trace workloads.
pub struct Figure {
    /// Output name, e.g. `"fig07_performance"` (`--only` matches it).
    pub name: &'static str,
    /// The figure's intrinsic sweep axes over the base setup.
    pub axes: fn(&FigCtx) -> Vec<Axis>,
    /// Whether the renderer can present more than one sweep point.
    /// `run_all` rejects a `--sweep` that expands a non-sweepable
    /// figure *before* simulating anything — paying for the whole
    /// swept job graph only to fail at render time would waste hours
    /// at paper knobs.
    pub sweepable: bool,
    /// The simulation jobs of one sweep point.
    pub jobs: fn(&FigCtx, &Setup) -> Vec<SimJob>,
    /// Render from cached results; `Err` carries the failure message.
    pub render: fn(&FigCtx, &[SweepPoint], &ResultStore) -> Result<(), String>,
}

impl Figure {
    /// The figure's plan: its axes applied over the context's base setup.
    /// `override_axes` (from `run_all --sweep`) replace a same-knob
    /// default axis or extend the axis list.
    pub fn plan(&self, ctx: &FigCtx, override_axes: &[Axis]) -> ExperimentPlan {
        let mut axes = (self.axes)(ctx);
        for o in override_axes {
            match axes.iter_mut().find(|a| a.knob == o.knob) {
                Some(a) => *a = o.clone(),
                None => axes.push(o.clone()),
            }
        }
        ExperimentPlan::new(ctx.setup.clone(), axes)
    }

    /// Expand this figure's plan into its per-point jobs, resolving
    /// identities through the plan's table `ids`.
    pub fn expand(
        &self,
        ctx: &FigCtx,
        override_axes: &[Axis],
        ids: &mut IdentityTable,
    ) -> PlanExpansion {
        self.plan(ctx, override_axes)
            .expand(ids, |setup| (self.jobs)(ctx, setup))
    }
}

/// All figures, in the canonical `run_all` order.
pub fn registry() -> Vec<Figure> {
    macro_rules! fig {
        ($name:literal, $jobs:ident, $render:ident) => {
            Figure {
                name: $name,
                axes: no_axes,
                sweepable: false,
                jobs: $jobs,
                render: $render,
            }
        };
        // Figures declaring axes render arbitrary point sets.
        ($name:literal, $axes:ident, $jobs:ident, $render:ident) => {
            Figure {
                name: $name,
                axes: $axes,
                sweepable: true,
                jobs: $jobs,
                render: $render,
            }
        };
    }
    vec![
        fig!("table4_params", no_jobs, render_table4),
        fig!("table_hw_cost", no_jobs, render_table_hw_cost),
        fig!("table2_weights", jobs_table2, render_table2),
        fig!("fig04_hit_rates", jobs_fig04, render_fig04),
        fig!("fig02_pitfalls", jobs_fig02, render_fig02),
        fig!("fig05_scoring", jobs_fig05, render_fig05),
        fig!("table3_workloads", jobs_table3, render_table3),
        fig!("fig07_performance", jobs_main_comparison, render_fig07),
        fig!("fig08_l1_hit_rate", jobs_main_comparison, render_fig08),
        fig!("fig09_aml", jobs_main_comparison, render_fig09),
        fig!("fig10_displacement", jobs_main_comparison, render_fig10),
        fig!("fig14_energy", jobs_main_comparison, render_fig14),
        fig!(
            "prediction_error",
            jobs_prediction_error,
            render_prediction_error
        ),
        fig!("fig16_insensitive", jobs_fig16, render_fig16),
        fig!("trace_eval", jobs_trace_eval, render_trace_eval),
        fig!("fig15_alternatives", jobs_fig15, render_fig15),
        fig!("fig17_case_study", jobs_fig17, render_fig17),
        fig!("fig11_stride", jobs_fig11, render_fig11),
        fig!("fig12_cache_size", axes_fig12, jobs_fig12, render_fig12),
        fig!("fig13_feature_ablation", jobs_fig13, render_fig13),
        fig!("ablation_mshr", jobs_ablation_mshr, render_ablation_mshr),
        fig!("ablation_epoch", jobs_ablation_epoch, render_ablation_epoch),
        fig!(
            "sm_scaling",
            axes_sm_scaling,
            jobs_sm_scaling,
            render_sm_scaling
        ),
    ]
}

// ---------------------------------------------------------------------------
// Shared job/lookup helpers. `jobs` and `render` construct specs through
// the same functions, so a figure always looks up exactly what it
// declared.
// ---------------------------------------------------------------------------

fn no_axes(_ctx: &FigCtx) -> Vec<Axis> {
    Vec::new()
}

fn no_jobs(_ctx: &FigCtx, _setup: &Setup) -> Vec<SimJob> {
    Vec::new()
}

/// The single sweep point of a figure without axes. Figures whose
/// renderer calls this do not support `--sweep`: expanding them to
/// several points is a loud render error, never a silent overwrite of
/// one point's output by another's.
fn single_point(points: &[SweepPoint]) -> Result<&SweepPoint, String> {
    match points {
        [p] => Ok(p),
        _ => Err(format!(
            "figure renders a single sweep point but the plan expanded to {} \
             (this figure does not support --sweep)",
            points.len()
        )),
    }
}

/// Jobs for one benchmark under one scheme (capped kernels).
fn scheme_jobs(
    bench: &Benchmark,
    scheme: Scheme,
    setup: &Setup,
    model: Option<&SharedSpec<ModelSpec>>,
) -> Vec<SimJob> {
    bench
        .capped(setup.kernels_cap)
        .kernels
        .iter()
        .map(|k| SimJob::Run(KernelRunSpec::new_shared(k, scheme, setup, model)))
        .collect()
}

/// Aggregate one benchmark × scheme from cached kernel runs, exactly as
/// `experiment::run_benchmark` would.
fn scheme_result(
    store: &ResultStore,
    bench: &Benchmark,
    scheme: Scheme,
    setup: &Setup,
    model: Option<&SharedSpec<ModelSpec>>,
) -> Result<experiment::BenchResult, String> {
    scheme_results(store, bench, &[scheme], setup, model)
        .pop()
        .expect("one result per scheme")
}

/// [`scheme_result`] for each of `schemes`, in order. Each kernel's
/// profile-driven runs are looked up through one profile share
/// ([`KernelRunSpec::for_schemes`]).
fn scheme_results(
    store: &ResultStore,
    bench: &Benchmark,
    schemes: &[Scheme],
    setup: &Setup,
    model: Option<&SharedSpec<ModelSpec>>,
) -> Vec<Result<experiment::BenchResult, String>> {
    let specs: Vec<Vec<KernelRunSpec>> = bench
        .capped(setup.kernels_cap)
        .kernels
        .iter()
        .map(|k| KernelRunSpec::for_schemes(k, schemes, setup, model))
        .collect();
    schemes
        .iter()
        .enumerate()
        .map(|(si, &scheme)| {
            let runs = specs
                .iter()
                .map(|kernel| store.run(&kernel[si]).cloned())
                .collect::<Result<Vec<_>, String>>()?;
            Ok(experiment::aggregate(bench.name.clone(), scheme, runs))
        })
        .collect()
}

/// The Figs. 7–10/14 comparison: five schemes × eleven benchmarks.
fn jobs_main_comparison(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for bench in evaluation_suite() {
        for scheme in Scheme::main_comparison() {
            let model = (scheme == Scheme::Poise).then_some(&ctx.model);
            jobs.extend(scheme_jobs(bench, scheme, setup, model));
        }
    }
    jobs
}

/// A placeholder row for a (bench, scheme) point whose jobs failed:
/// every metric NaN, which [`crate::cell`] renders as `MISSING`. The
/// figure still emits its full table; the failure detail lives in
/// `results/run_all_failures.txt`.
fn missing_row(bench: &str, scheme: Scheme) -> MainRow {
    MainRow {
        bench: bench.to_string(),
        scheme: scheme.name().to_string(),
        ipc: f64::NAN,
        l1_hit_rate: f64::NAN,
        aml: f64::NAN,
        energy: f64::NAN,
        disp_n: f64::NAN,
        disp_p: f64::NAN,
        disp_euclid: f64::NAN,
    }
}

/// Full-precision main-comparison rows, in the order the old harness
/// produced them (bench-major, `Scheme::main_comparison` order).
/// Points whose jobs failed degrade to [`missing_row`] instead of
/// failing the whole figure.
fn main_rows(ctx: &FigCtx, setup: &Setup, store: &ResultStore) -> Result<Vec<MainRow>, String> {
    let mut rows = Vec::new();
    let schemes = Scheme::main_comparison();
    for bench in evaluation_suite() {
        let results = scheme_results(store, bench, &schemes, setup, Some(&ctx.model));
        for (scheme, result) in schemes.into_iter().zip(results) {
            match result {
                Ok(r) => rows.push(crate::row_of(&r)),
                Err(e) => {
                    eprintln!(
                        "[bench] {} × {}: {e}; rendering MISSING cells",
                        bench.name,
                        scheme.name()
                    );
                    rows.push(missing_row(&bench.name, scheme));
                }
            }
        }
    }
    Ok(rows)
}

/// Main-comparison rows as every figure after `fig07` saw them in the
/// per-binary harness: round-tripped through the 6-decimal TSV cells
/// (see the module docs).
fn main_rows_cached(
    ctx: &FigCtx,
    setup: &Setup,
    store: &ResultStore,
) -> Result<Vec<MainRow>, String> {
    let rows = main_rows(ctx, setup, store)?;
    rows_from_tsv(&rows_to_tsv(&rows)).ok_or_else(|| "TSV round-trip failed".to_string())
}

// ---------------------------------------------------------------------------
// Table IV — parameters (no simulation).
// ---------------------------------------------------------------------------

fn render_table4(
    _ctx: &FigCtx,
    _points: &[SweepPoint],
    _store: &ResultStore,
) -> Result<(), String> {
    use poise::PoiseParams;
    use poise_ml::TrainingThresholds;
    let p = PoiseParams::default();
    let t = TrainingThresholds::default();
    let rows = vec![
        vec![
            "w0, w1, w2".into(),
            "performance scoring weights".into(),
            format!("{}, {}, {}", p.scoring.0[0], p.scoring.0[1], p.scoring.0[2]),
        ],
        vec![
            "Tperiod".into(),
            "inference periodicity".into(),
            format!("{} cycles", p.t_period),
        ],
        vec![
            "Twarmup".into(),
            "warmup duration".into(),
            format!("{} cycles", p.t_warmup),
        ],
        vec![
            "Tfeature".into(),
            "feature sampling duration".into(),
            format!("{} cycles", p.t_feature),
        ],
        vec![
            "Tsearch".into(),
            "local-search sampling duration".into(),
            format!("{} cycles", p.t_search),
        ],
        vec![
            "Imax".into(),
            "cut-off for instructions between loads".into(),
            format!("{}", p.i_max),
        ],
        vec![
            "eps_N".into(),
            "search stride for N".into(),
            p.stride_n.to_string(),
        ],
        vec![
            "eps_p".into(),
            "search stride for p".into(),
            p.stride_p.to_string(),
        ],
        vec![
            "thr speedup".into(),
            "training kernel best-tuple speedup".into(),
            format!(">= {:.1}%", (t.min_speedup - 1.0) * 100.0),
        ],
        vec![
            "thr cycles".into(),
            "training kernel baseline cycles".into(),
            format!(">= {}", t.min_cycles),
        ],
        vec![
            "thr hit rate".into(),
            "training kernel L1 hit rate at (1,1)".into(),
            format!("> {} %", t.min_ref_hit_rate * 100.0),
        ],
    ];
    emit_table(
        "table4_params.txt",
        "Table IV — Poise parameters",
        &["parameter", "description", "value"],
        &rows,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// §VII-I — hardware cost (no simulation).
// ---------------------------------------------------------------------------

fn render_table_hw_cost(
    _ctx: &FigCtx,
    _points: &[SweepPoint],
    _store: &ResultStore,
) -> Result<(), String> {
    use poise::hardware_cost::HardwareCost;
    let c = HardwareCost::paper_baseline();
    let rows = vec![
        vec![
            "performance counters".into(),
            format!("{} bits", c.counter_bits),
        ],
        vec!["FSM state registers".into(), format!("{} bits", c.fsm_bits)],
        vec![
            "vital + pollute bits".into(),
            format!("{} bits", c.warp_bits),
        ],
        vec!["total per SM".into(), format!("{} bits", c.bits_per_sm())],
        vec!["bytes per SM".into(), format!("{:.2} B", c.bytes_per_sm())],
        vec![
            "bytes per chip (32 SMs)".into(),
            format!("{:.0} B", c.bytes_total(32)),
        ],
    ];
    emit_table(
        "table_hw_cost.txt",
        "SVII-I — Poise per-SM storage overhead",
        &["item", "cost"],
        &rows,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Table II — learned weights.
// ---------------------------------------------------------------------------

fn jobs_table2(ctx: &FigCtx, _setup: &Setup) -> Vec<SimJob> {
    vec![SimJob::Train((*ctx.model).clone())]
}

fn render_table2(ctx: &FigCtx, _points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let model = store.model(&ctx.model)?;
    // Keep the human-readable weight dump the old harness left in
    // `results/model.txt` (the canonical copy now lives in the job cache).
    std::fs::write(results_dir().join("model.txt"), model_to_text(model))
        .map_err(|e| format!("write model.txt: {e}"))?;
    let names = [
        "x1 = ho",
        "x2 = h'",
        "x3 = eta_o",
        "x4 = eta'",
        "x5 = (eta'-eta_o)^2",
        "x6 = In(eta'-eta_o)^2",
        "x7 = (L'm'-moLo)^2/1e4",
        "x8 = 1 (intercept)",
    ];
    let mut rows = Vec::new();
    for (i, n) in names.iter().enumerate() {
        rows.push(vec![
            n.to_string(),
            format!("{:+.6}", model.alpha[i]),
            format!("{:+.6}", model.beta[i]),
        ]);
    }
    rows.push(vec![
        "dispersion".to_string(),
        format!("{:+.6}", model.dispersion_n),
        format!("{:+.6}", model.dispersion_p),
    ]);
    rows.push(vec![
        "samples used".to_string(),
        model.samples_used.to_string(),
        model.samples_used.to_string(),
    ]);
    emit_table(
        "table2_weights.txt",
        "Table II — learned feature weights (alpha for N, beta for p)",
        &["feature", "alpha (N)", "beta (p)"],
        &rows,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 4 — L1 hit-rate decomposition.
// ---------------------------------------------------------------------------

fn fig04_specs(setup: &Setup) -> Vec<(Workload, TupleRunSpec, TupleRunSpec)> {
    let mut cfg = setup.cfg.clone();
    cfg.track_reuse_distance = true;
    let window = ProfileWindow {
        warmup: setup.profile_window.warmup,
        measure: setup.profile_window.measure * 2,
    };
    fig4_kernels()
        .into_iter()
        .map(Workload::from)
        .map(|kernel| {
            let base = TupleRunSpec {
                workload: kernel.clone(),
                cfg: cfg.clone(),
                tuple: WarpTuple::max(24),
                window,
            };
            let reduced = TupleRunSpec {
                workload: kernel.clone(),
                cfg: cfg.clone(),
                tuple: WarpTuple::new(24, 1, 24),
                window,
            };
            (kernel, base, reduced)
        })
        .collect()
}

fn jobs_fig04(_ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    fig04_specs(setup)
        .into_iter()
        .flat_map(|(_, base, reduced)| [SimJob::TupleRun(base), SimJob::TupleRun(reduced)])
        .collect()
}

fn render_fig04(_ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let mut rows = Vec::new();
    for (kernel, base_spec, reduced_spec) in fig04_specs(setup) {
        let b = &store.steady(&base_spec)?.window;
        let r = &store.steady(&reduced_spec)?.window;
        let hits = (b.l1_hits).max(1) as f64;
        rows.push(vec![
            kernel.name().to_string(),
            cell(r.polluting_hit_rate(), 3),
            cell(r.non_polluting_hit_rate(), 3),
            cell(b.l1_hit_rate(), 3),
            cell(100.0 * b.l1_intra_hits as f64 / hits, 0),
            cell(100.0 * b.l1_inter_hits as f64 / hits, 0),
            cell(b.reuse_distance(), 0),
        ]);
    }
    emit_table(
        "fig04_hit_rates.txt",
        "Fig. 4 — L1 hit rates at (24, 1): hp, hnp, baseline ho, \
         intra/inter share of baseline hits (%), reuse distance R (lines)",
        &["kernel", "hp", "hnp", "ho", "intra%", "inter%", "R"],
        &rows,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 2 — solution-space pitfalls.
// ---------------------------------------------------------------------------

/// Simulate PCAL's search procedure offline on the profiled surface:
/// start at the SWL point, pick the best p at that N, then unit-step
/// hill-climb in N until no neighbour improves.
fn pcal_converge(grid: &SpeedupGrid, start: WarpTuple) -> WarpTuple {
    let at = |n: usize, p: usize| grid.get(n, p.min(n)).unwrap_or(f64::NEG_INFINITY);
    // Parallel p search at the starting N.
    let mut best_p = start.p;
    let mut best = at(start.n, start.p);
    for p in 1..=start.n {
        if at(start.n, p) > best {
            best = at(start.n, p);
            best_p = p;
        }
    }
    // Unit-step hill climb in N.
    let mut n = start.n;
    loop {
        let up = if n < grid.max_n() {
            at(n + 1, best_p)
        } else {
            f64::NEG_INFINITY
        };
        let down = if n > 1 {
            at(n - 1, best_p)
        } else {
            f64::NEG_INFINITY
        };
        if up > best && up >= down {
            n += 1;
            best = up;
        } else if down > best {
            n -= 1;
            best = down;
        } else {
            break;
        }
    }
    WarpTuple::new(n, best_p.min(n), grid.max_n())
}

fn fig02_spec(setup: &Setup) -> ProfileSpec {
    // The paper profiles ii kernel #112; any intra-heavy family member
    // shows the same structure — use the ii base kernel. Full 300-point
    // triangle at the hardware scheduler capacity.
    let bench = evaluation_suite()
        .iter()
        .find(|b| b.name == "ii")
        .expect("ii benchmark");
    let kernel = bench.kernels[0].clone();
    let max_n = setup
        .cfg
        .max_warps_per_scheduler
        .min(kernel.warps_per_scheduler());
    ProfileSpec {
        workload: kernel,
        cfg: setup.cfg.clone(),
        grid: GridSpec::full(max_n),
        window: setup.profile_window,
    }
}

fn jobs_fig02(_ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    vec![SimJob::Profile(fig02_spec(setup))]
}

fn render_fig02(_ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let spec = fig02_spec(setup);
    let grid = store.grid(&spec)?;
    let max_n = spec
        .workload
        .warps_per_scheduler()
        .min(setup.cfg.max_warps_per_scheduler);

    println!(
        "# Fig. 2a — {{N, p}} solution space of {}",
        spec.workload.name()
    );
    print!("{}", render_grid(grid));
    let ccws = swl_tuple_from_grid(grid, max_n);
    let pcal = pcal_converge(grid, ccws);
    let (maxt, maxs) = grid.best_performance().ok_or("unprofiled grid")?;
    println!(
        "CCWS (diagonal best): {ccws} -> {:.3}",
        grid.get(ccws.n, ccws.p).unwrap_or(0.0)
    );
    println!(
        "PCAL convergence:     {pcal} -> {:.3}",
        grid.get(pcal.n, pcal.p).unwrap_or(0.0)
    );
    println!("MAX (global best):    {maxt} -> {maxs:.3}");

    let mut rows = Vec::new();
    for n in 1..=grid.max_n() {
        rows.push(vec![
            n.to_string(),
            grid.get(n, n).map_or("-".into(), |v| cell(v, 3)),
            grid.get(n, 1).map_or("-".into(), |v| cell(v, 3)),
        ]);
    }
    emit_table(
        "fig02_pitfalls.txt",
        "Fig. 2b — IPC (normalised) along p = N and p = 1",
        &["N", "p=N", "p=1"],
        &rows,
    );
    let mut extra = String::new();
    extra.push_str(&render_grid(grid));
    extra.push_str(&format!(
        "CCWS {ccws}  PCAL {pcal}  MAX {maxt} ({maxs:.3})\n"
    ));
    std::fs::write(results_dir().join("fig02_grid.txt"), extra)
        .map_err(|e| format!("write fig02_grid.txt: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 5 — scoring system.
// ---------------------------------------------------------------------------

fn fig05_specs(setup: &Setup) -> Vec<ProfileSpec> {
    let bench = evaluation_suite()
        .iter()
        .find(|b| b.name == "ii")
        .expect("ii benchmark");
    [&bench.kernels[2], &bench.kernels[4]]
        .into_iter()
        .map(|kernel| {
            let max_n = setup
                .cfg
                .max_warps_per_scheduler
                .min(kernel.warps_per_scheduler());
            ProfileSpec {
                workload: kernel.clone(),
                cfg: setup.cfg.clone(),
                grid: GridSpec::full(max_n),
                window: setup.profile_window,
            }
        })
        .collect()
}

fn jobs_fig05(_ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    fig05_specs(setup)
        .into_iter()
        .map(SimJob::Profile)
        .collect()
}

fn render_fig05(_ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let mut rows = Vec::new();
    let mut grids = String::new();
    for spec in fig05_specs(setup) {
        let grid = store.grid(&spec)?;
        let (perf_t, perf_s) = grid.best_performance().ok_or("unprofiled")?;
        let (score_t, _) = grid
            .best_scored(&ScoringWeights::default())
            .ok_or("unscored")?;
        let score_s = grid.get(score_t.n, score_t.p).unwrap_or(1.0);
        rows.push(vec![
            spec.workload.name().to_string(),
            format!("{perf_t}"),
            cell(perf_s, 3),
            format!("{score_t}"),
            cell(score_s, 3),
        ]);
        grids.push_str(&format!(
            "== {} ==\n{}",
            spec.workload.name(),
            render_grid(grid)
        ));
    }
    emit_table(
        "fig05_scoring.txt",
        "Fig. 5 — max-performance vs max-score tuples (speedup vs GTO)",
        &["kernel", "perf tuple", "speedup", "score tuple", "speedup"],
        &rows,
    );
    std::fs::write(results_dir().join("fig05_grids.txt"), grids)
        .map_err(|e| format!("write fig05_grids.txt: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Table III — workloads with Pbest.
// ---------------------------------------------------------------------------

fn table3_specs(setup: &Setup) -> Vec<(&'static str, &'static Benchmark, PbestSpec)> {
    let window = ProfileWindow::pbest();
    let mut specs = Vec::new();
    for (set, suite) in [("train", training_suite()), ("eval", evaluation_suite())] {
        for bench in suite {
            let spec = PbestSpec {
                workload: bench.kernels[0].clone(),
                cfg: setup.cfg.clone(),
                window,
            };
            specs.push((set, bench, spec));
        }
    }
    specs
}

fn jobs_table3(_ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    table3_specs(setup)
        .into_iter()
        .map(|(_, _, spec)| SimJob::Pbest(spec))
        .collect()
}

fn render_table3(_ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let mut rows = Vec::new();
    for (set, bench, spec) in table3_specs(setup) {
        let p = store.pbest(&spec)?;
        rows.push((set, bench.name.clone(), bench.kernels.len(), p));
    }
    // Sort the evaluation set by Pbest, as the paper lists it.
    rows.sort_by(|a, b| {
        a.0.cmp(b.0)
            .then(b.3.partial_cmp(&a.3).unwrap_or(std::cmp::Ordering::Equal))
    });
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(set, name, kernels, p)| {
            vec![
                set.to_string(),
                name.clone(),
                kernels.to_string(),
                format!("{p:.2}x"),
            ]
        })
        .collect();
    emit_table(
        "table3_workloads.txt",
        "Table IIIa — workloads with measured Pbest (64x L1 speedup)",
        &["set", "benchmark", "#kernels", "Pbest"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 7 — IPC normalised to GTO.
// ---------------------------------------------------------------------------

fn render_fig07(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let rows = main_rows(ctx, setup, store)?;
    // The old harness persisted the comparison here; keep the artefact
    // (now a pure product of the job cache, not a cache itself).
    std::fs::write(
        results_dir().join("main_comparison.tsv"),
        rows_to_tsv(&rows),
    )
    .map_err(|e| format!("write main_comparison.tsv: {e}"))?;
    let schemes = ["GTO", "SWL", "PCAL-SWL", "Poise", "Static-Best"];
    let mut table = Vec::new();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for bench in bench_order() {
        let gto = metric(&rows, &bench, "GTO", |r| r.ipc);
        let mut row = vec![bench.clone()];
        for (i, s) in schemes.iter().enumerate() {
            let v = metric(&rows, &bench, s, |r| r.ipc) / gto;
            speedups[i].push(v);
            row.push(cell(v, 3));
        }
        table.push(row);
    }
    let mut hmean = vec!["H-Mean".to_string()];
    for sp in &speedups {
        hmean.push(cell(harmonic_mean(sp), 3));
    }
    table.push(hmean);
    emit_table(
        "fig07_performance.txt",
        "Fig. 7 — IPC normalised to GTO",
        &["bench", "GTO", "SWL", "PCAL-SWL", "Poise", "Static-Best"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 8 — absolute L1 hit rate.
// ---------------------------------------------------------------------------

fn render_fig08(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let rows = main_rows_cached(ctx, &single_point(points)?.setup, store)?;
    let schemes = ["GTO", "SWL", "PCAL-SWL", "Poise", "Static-Best"];
    let mut table = Vec::new();
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for bench in bench_order() {
        let mut row = vec![bench.clone()];
        for (i, s) in schemes.iter().enumerate() {
            let v = metric(&rows, &bench, s, |r| r.l1_hit_rate) * 100.0;
            rates[i].push(v);
            row.push(cell(v, 1));
        }
        table.push(row);
    }
    let mut amean = vec!["A-Mean".to_string()];
    for r in &rates {
        amean.push(cell(arithmetic_mean(r), 1));
    }
    table.push(amean);
    emit_table(
        "fig08_l1_hit_rate.txt",
        "Fig. 8 — absolute L1 hit rate (%)",
        &["bench", "GTO", "SWL", "PCAL-SWL", "Poise", "Static-Best"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 9 — AML normalised to GTO.
// ---------------------------------------------------------------------------

fn render_fig09(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let rows = main_rows_cached(ctx, &single_point(points)?.setup, store)?;
    let schemes = ["GTO", "SWL", "PCAL-SWL", "Poise", "Static-Best"];
    let mut table = Vec::new();
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for bench in bench_order() {
        let gto = metric(&rows, &bench, "GTO", |r| r.aml);
        let mut row = vec![bench.clone()];
        for (i, s) in schemes.iter().enumerate() {
            let v = metric(&rows, &bench, s, |r| r.aml) / gto;
            ratios[i].push(v);
            row.push(cell(v, 3));
        }
        table.push(row);
    }
    let mut amean = vec!["A-Mean".to_string()];
    for r in &ratios {
        amean.push(cell(arithmetic_mean(r), 3));
    }
    table.push(amean);
    emit_table(
        "fig09_aml.txt",
        "Fig. 9 — AML normalised to GTO",
        &["bench", "GTO", "SWL", "PCAL-SWL", "Poise", "Static-Best"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 10 — prediction/search displacement.
// ---------------------------------------------------------------------------

fn render_fig10(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let rows = main_rows_cached(ctx, &single_point(points)?.setup, store)?;
    let mut table = Vec::new();
    let (mut dns, mut dps, mut des) = (Vec::new(), Vec::new(), Vec::new());
    for bench in bench_order() {
        let dn = metric(&rows, &bench, "Poise", |r| r.disp_n);
        let dp = metric(&rows, &bench, "Poise", |r| r.disp_p);
        let de = metric(&rows, &bench, "Poise", |r| r.disp_euclid);
        dns.push(dn);
        dps.push(dp);
        des.push(de);
        table.push(vec![bench, cell(dn, 2), cell(dp, 2), cell(de, 2)]);
    }
    table.push(vec![
        "A-Mean".to_string(),
        cell(arithmetic_mean(&dns), 2),
        cell(arithmetic_mean(&dps), 2),
        cell(arithmetic_mean(&des), 2),
    ]);
    emit_table(
        "fig10_displacement.txt",
        "Fig. 10 — displacement between predicted and converged tuples",
        &["bench", "N-axis", "p-axis", "Euclidean"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 14 — energy normalised to GTO.
// ---------------------------------------------------------------------------

fn render_fig14(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let rows = main_rows_cached(ctx, &single_point(points)?.setup, store)?;
    let mut table = Vec::new();
    let mut ratios = Vec::new();
    for bench in bench_order() {
        let gto_epi = metric(&rows, &bench, "GTO", |r| r.energy / r.ipc);
        let poise_epi = metric(&rows, &bench, "Poise", |r| r.energy / r.ipc);
        let v = poise_epi / gto_epi;
        ratios.push(v);
        table.push(vec![bench, "1.000".to_string(), cell(v, 3)]);
    }
    table.push(vec![
        "H-Mean".to_string(),
        "1.000".to_string(),
        cell(harmonic_mean(&ratios), 3),
    ]);
    emit_table(
        "fig14_energy.txt",
        "Fig. 14 — energy consumption normalised to GTO (per unit work)",
        &["bench", "GTO", "Poise"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// §VII-B — offline prediction error.
// ---------------------------------------------------------------------------

fn prediction_error_specs(setup: &Setup) -> Vec<SampleSpec> {
    evaluation_suite()
        .iter()
        .flat_map(|b| b.capped(2).kernels)
        .map(|kernel| SampleSpec {
            workload: kernel,
            cfg: setup.cfg.clone(),
            grid: setup.eval_grid.clone(),
            window: setup.profile_window,
            scoring: setup.params.scoring,
        })
        .collect()
}

fn jobs_prediction_error(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let mut jobs: Vec<SimJob> = prediction_error_specs(setup)
        .into_iter()
        .map(SimJob::Sample)
        .collect();
    jobs.push(SimJob::Train((*ctx.model).clone()));
    jobs
}

fn render_prediction_error(
    ctx: &FigCtx,
    points: &[SweepPoint],
    store: &ResultStore,
) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let model = store.model(&ctx.model)?;
    let mut samples: Vec<TrainingSample> = Vec::new();
    for spec in prediction_error_specs(setup) {
        samples.push(store.sample(&spec)?.clone());
    }
    let (en, ep) = model.prediction_error(&samples);
    let rows = vec![
        vec!["N".to_string(), format!("{:.1}%", en * 100.0)],
        vec!["p".to_string(), format!("{:.1}%", ep * 100.0)],
        vec!["kernels".to_string(), samples.len().to_string()],
    ];
    emit_table(
        "prediction_error.txt",
        "SVII-B — offline mean relative prediction error on unseen kernels",
        &["output", "error"],
        &rows,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 16 — memory-insensitive applications.
// ---------------------------------------------------------------------------

fn jobs_fig16(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for bench in compute_insensitive_suite() {
        jobs.extend(scheme_jobs(bench, Scheme::Gto, setup, None));
        jobs.extend(scheme_jobs(bench, Scheme::Poise, setup, Some(&ctx.model)));
        jobs.push(SimJob::Pbest(PbestSpec {
            workload: bench.kernels[0].clone(),
            cfg: setup.cfg.clone(),
            window: ProfileWindow::pbest(),
        }));
    }
    jobs
}

fn render_fig16(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let mut table = Vec::new();
    let mut ratios = Vec::new();
    for bench in compute_insensitive_suite() {
        let gto = scheme_result(store, bench, Scheme::Gto, setup, None)?;
        let poise = scheme_result(store, bench, Scheme::Poise, setup, Some(&ctx.model))?;
        let pb = store.pbest(&PbestSpec {
            workload: bench.kernels[0].clone(),
            cfg: setup.cfg.clone(),
            window: ProfileWindow::pbest(),
        })?;
        let v = poise.ipc / gto.ipc;
        ratios.push(v);
        table.push(vec![bench.name.clone(), cell(v, 3), format!("{pb:.2}x")]);
    }
    table.push(vec![
        "H-Mean".to_string(),
        cell(harmonic_mean(&ratios), 3),
        String::new(),
    ]);
    emit_table(
        "fig16_insensitive.txt",
        "Fig. 16 — Poise IPC vs GTO on compute-insensitive applications",
        &["bench", "Poise/GTO", "Pbest"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// trace_eval — every scheme over the committed trace workloads.
// ---------------------------------------------------------------------------

/// All seven schemes, in the order `trace_eval` reports them.
const TRACE_EVAL_SCHEMES: [Scheme; 7] = [
    Scheme::Gto,
    Scheme::Swl,
    Scheme::PcalSwl,
    Scheme::Poise,
    Scheme::StaticBest,
    Scheme::RandomRestart,
    Scheme::Apcm,
];

/// Load every `*.trace` file under [`crate::traces_dir`], sorted by file
/// name for a deterministic job order. Returns the loadable workloads
/// plus one message per unreadable file or corrupt header, or for an
/// unreadable directory; the caller surfaces those as a `trace_eval`
/// failure. Called once per [`FigCtx`]; figures read the cached
/// `ctx.traces`.
fn load_trace_workloads() -> (Vec<Workload>, Vec<String>) {
    let dir = crate::traces_dir();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        // A checkout without the default `traces/` has no trace
        // workloads; a directory named by `POISE_TRACES_DIR` must exist.
        Err(e)
            if e.kind() == std::io::ErrorKind::NotFound
                && std::env::var_os("POISE_TRACES_DIR").is_none() =>
        {
            return (Vec::new(), Vec::new())
        }
        Err(e) => return (Vec::new(), vec![format!("{}: {e}", dir.display())]),
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "trace"))
        .collect();
    paths.sort();
    let mut traces = Vec::new();
    let mut errors = Vec::new();
    for p in paths {
        match TraceRef::load(&p) {
            Ok(t) => traces.push(Workload::from(t)),
            Err(e) => errors.push(format!("{}: {e}", p.display())),
        }
    }
    (traces, errors)
}

fn jobs_trace_eval(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for workload in &ctx.traces {
        for scheme in TRACE_EVAL_SCHEMES {
            let model = (scheme == Scheme::Poise).then_some(&ctx.model);
            jobs.push(SimJob::Run(KernelRunSpec::new_shared(
                workload, scheme, setup, model,
            )));
        }
    }
    jobs
}

fn render_trace_eval(
    ctx: &FigCtx,
    points: &[SweepPoint],
    store: &ResultStore,
) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    if !ctx.trace_errors.is_empty() {
        return Err(format!(
            "traces failed to load: {}",
            ctx.trace_errors.join("; ")
        ));
    }
    let workloads = &ctx.traces;
    let mut table = Vec::new();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); TRACE_EVAL_SCHEMES.len()];
    for workload in workloads {
        let specs =
            KernelRunSpec::for_schemes(workload, &TRACE_EVAL_SCHEMES, setup, Some(&ctx.model));
        // GTO is the first scheme.
        let gto = store.run(&specs[0])?;
        let gto_ipc = gto.counters.ipc().max(1e-12);
        let mut row = vec![
            workload.name().to_string(),
            workload.trace().expect("trace workload").digest[..12].to_string(),
        ];
        for (si, spec) in specs.iter().enumerate() {
            let r = store.run(spec)?;
            let v = r.counters.ipc() / gto_ipc;
            per_scheme[si].push(v);
            row.push(cell(v, 3));
        }
        row.push(cell(100.0 * gto.counters.l1_hit_rate(), 1));
        table.push(row);
    }
    if workloads.is_empty() {
        table.push(vec![format!(
            "(no .trace files under {}; run record_traces)",
            crate::traces_dir().display()
        )]);
    } else {
        let mut hmean = vec!["H-Mean".to_string(), String::new()];
        for sp in &per_scheme {
            hmean.push(cell(harmonic_mean(sp), 3));
        }
        hmean.push(String::new());
        table.push(hmean);
    }
    emit_table(
        "trace_eval.txt",
        "trace_eval — all schemes over the recorded traces (IPC vs GTO; \
         GTO L1 hit % absolute)",
        &[
            "trace",
            "digest",
            "GTO",
            "SWL",
            "PCAL-SWL",
            "Poise",
            "Static-Best",
            "Rand-restart",
            "APCM",
            "GTO-hit%",
        ],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 15 — APCM and random-restart alternatives.
// ---------------------------------------------------------------------------

fn jobs_fig15(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let mut jobs = jobs_main_comparison(ctx, setup);
    for bench in evaluation_suite() {
        for scheme in [Scheme::Apcm, Scheme::RandomRestart] {
            jobs.extend(scheme_jobs(bench, scheme, setup, None));
        }
    }
    jobs
}

fn render_fig15(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let cached = main_rows_cached(ctx, setup, store)?;
    let schemes = [Scheme::Apcm, Scheme::RandomRestart];
    let mut table = Vec::new();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for bench in evaluation_suite() {
        let gto = metric(&cached, &bench.name, "GTO", |r| r.ipc);
        let poise = metric(&cached, &bench.name, "Poise", |r| r.ipc) / gto;
        let mut row = vec![bench.name.clone()];
        for (i, &scheme) in schemes.iter().enumerate() {
            let r = scheme_result(store, bench, scheme, setup, None)?;
            let v = r.ipc / gto;
            cols[i].push(v);
            row.push(cell(v, 3));
        }
        cols[2].push(poise);
        row.push(cell(poise, 3));
        table.push(row);
    }
    let mut hmean = vec!["H-Mean".to_string()];
    for c in &cols {
        hmean.push(cell(harmonic_mean(c), 3));
    }
    table.push(hmean);
    emit_table(
        "fig15_alternatives.txt",
        "Fig. 15 — APCM and random-restart vs Poise (IPC normalised to GTO)",
        &["bench", "APCM", "Random-restart", "Poise"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 17 — bfs case study.
// ---------------------------------------------------------------------------

fn fig17_specs(ctx: &FigCtx, setup: &Setup) -> (ProfileSpec, KernelRunSpec) {
    let bench = evaluation_suite()
        .iter()
        .find(|b| b.name == "bfs")
        .expect("bfs");
    let kernel = bench.kernels[0].clone();
    let profile = ProfileSpec {
        workload: kernel.clone(),
        cfg: setup.cfg.clone(),
        grid: GridSpec::full(kernel.warps_per_scheduler()),
        window: setup.profile_window,
    };
    let mut run = KernelRunSpec::new_shared(&kernel, Scheme::Poise, setup, Some(&ctx.model));
    run.run_cycles = setup.run_cycles.max(3 * setup.params.t_period);
    (profile, run)
}

fn jobs_fig17(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let (profile, run) = fig17_specs(ctx, setup);
    vec![SimJob::Profile(profile), SimJob::Run(run)]
}

fn render_fig17(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let (profile_spec, run_spec) = fig17_specs(ctx, &single_point(points)?.setup);
    let grid = store.grid(&profile_spec)?;
    println!(
        "# Fig. 17a — static profile of {}",
        profile_spec.workload.name()
    );
    print!("{}", render_grid(grid));
    let (bt, bs) = grid.best_performance().ok_or("unprofiled")?;
    println!("best tuple: {bt} -> {bs:.3}\n");

    let run = store.run(&run_spec)?;
    println!("# Fig. 17b — Poise predictions and searched tuples");
    let mut rows = Vec::new();
    for l in &run.epoch_logs {
        rows.push(vec![
            l.cycle.to_string(),
            format!("{}", l.predicted),
            format!("{}", l.searched),
            grid.get(l.searched.n, l.searched.p)
                .map_or("-".into(), |v| cell(v, 3)),
            if l.early_out { "early-out" } else { "" }.to_string(),
        ]);
    }
    emit_table(
        "fig17_case_study.txt",
        "Fig. 17b — Poise epochs on bfs (speedup looked up in the static profile)",
        &["cycle", "predicted", "searched", "profile speedup", "note"],
        &rows,
    );
    std::fs::write(
        results_dir().join("fig17_grid.txt"),
        format!("{}best {bt} ({bs:.3})\n", render_grid(grid)),
    )
    .map_err(|e| format!("write fig17_grid.txt: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 11 — search-stride sensitivity.
// ---------------------------------------------------------------------------

const FIG11_STRIDES: [(usize, usize); 5] = [(0, 0), (1, 1), (2, 2), (2, 4), (4, 4)];

fn fig11_setup(setup: &Setup, sn: usize, sp: usize) -> Setup {
    let mut s = setup.clone();
    s.params = s.params.with_strides(sn, sp);
    s
}

fn jobs_fig11(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    // The GTO baselines come from the main comparison; the (2, 4) stride
    // equals the Table IV default, so those Poise runs deduplicate with
    // the main comparison as well.
    let mut jobs = jobs_main_comparison(ctx, setup);
    for bench in evaluation_suite() {
        for (sn, sp) in FIG11_STRIDES {
            let s = fig11_setup(setup, sn, sp);
            jobs.extend(scheme_jobs(bench, Scheme::Poise, &s, Some(&ctx.model)));
        }
    }
    jobs
}

fn render_fig11(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let rows_cache = main_rows_cached(ctx, setup, store)?;
    let mut table = Vec::new();
    let mut per_stride: Vec<Vec<f64>> = vec![Vec::new(); FIG11_STRIDES.len()];
    for bench in evaluation_suite() {
        let gto = metric(&rows_cache, &bench.name, "GTO", |r| r.ipc);
        let mut row = vec![bench.name.clone()];
        for (si, (sn, sp)) in FIG11_STRIDES.into_iter().enumerate() {
            let s = fig11_setup(setup, sn, sp);
            let r = scheme_result(store, bench, Scheme::Poise, &s, Some(&ctx.model))?;
            let v = r.ipc / gto;
            per_stride[si].push(v);
            row.push(cell(v, 3));
        }
        table.push(row);
    }
    let mut hmean = vec!["H-Mean".to_string()];
    for sp in &per_stride {
        hmean.push(cell(harmonic_mean(sp), 3));
    }
    table.push(hmean);
    emit_table(
        "fig11_stride.txt",
        "Fig. 11 — Poise IPC vs GTO for search strides (eN, ep)",
        &["bench", "(0,0)", "(1,1)", "(2,2)", "(2,4)", "(4,4)"],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 12 — cache-size sensitivity.
// ---------------------------------------------------------------------------

/// Fig. 12 is a *plan*: linear indexing pinned by a one-value axis, L1
/// capacity swept by `l1_scale`. The model stays the one trained on the
/// base machine (`ctx.model`), so an L1 sweep re-simulates runs only —
/// the training pass is shared by every point.
const FIG12_SCALES: [usize; 3] = [1, 2, 4];

fn axes_fig12(_ctx: &FigCtx) -> Vec<Axis> {
    vec![
        Axis::l1_indexing([SetIndexing::Linear]),
        Axis::l1_scale(FIG12_SCALES),
    ]
}

fn jobs_fig12(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for bench in evaluation_suite() {
        jobs.extend(scheme_jobs(bench, Scheme::Gto, setup, None));
        jobs.extend(scheme_jobs(bench, Scheme::Poise, setup, Some(&ctx.model)));
    }
    jobs
}

fn render_fig12(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let mut table = Vec::new();
    let mut per_scale: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    for bench in evaluation_suite() {
        let mut row = vec![bench.name.clone()];
        for (si, point) in points.iter().enumerate() {
            // A failed point degrades to a MISSING cell (and poisons
            // this scale's H-Mean to MISSING) instead of failing the
            // figure.
            let v = match (
                scheme_result(store, bench, Scheme::Gto, &point.setup, None),
                scheme_result(store, bench, Scheme::Poise, &point.setup, Some(&ctx.model)),
            ) {
                (Ok(gto), Ok(poise)) => poise.ipc / gto.ipc,
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!(
                        "[bench] fig12 {} @ point {si}: {e}; rendering MISSING",
                        bench.name
                    );
                    f64::NAN
                }
            };
            per_scale[si].push(v);
            row.push(cell(v, 3));
        }
        table.push(row);
    }
    let mut hmean = vec!["H-Mean".to_string()];
    for sp in &per_scale {
        hmean.push(cell(harmonic_mean(sp), 3));
    }
    table.push(hmean);
    let kb: Vec<String> = points
        .iter()
        .map(|p| format!("{}", p.setup.cfg.l1.capacity_bytes() / 1024))
        .collect();
    let header: Vec<String> = std::iter::once("bench".to_string())
        .chain(kb.iter().map(|k| format!("Poise+{k}KB")))
        .collect();
    emit_table(
        "fig12_cache_size.txt",
        &format!(
            "Fig. 12 — Poise IPC vs GTO with linear-indexed L1 of {} KB",
            kb.join("/")
        ),
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 13 — leave-one-feature-out ablation.
// ---------------------------------------------------------------------------

fn fig13_setup(setup: &Setup) -> Setup {
    // No local search: strides (0, 0), so prediction accuracy is exposed.
    let mut s = setup.clone();
    s.params = s.params.with_strides(0, 0);
    s
}

/// The model variants: all features, then drop x3..x7 (drop index i − 1).
fn fig13_variants(ctx: &FigCtx) -> Vec<(String, SharedSpec<ModelSpec>)> {
    std::iter::once(("all".to_string(), Vec::new()))
        .chain((3..=7).rev().map(|i| (format!("-x{i}"), vec![i - 1])))
        .map(|(name, drop)| {
            let model = (*ctx.model).clone().with_dropped(drop);
            (name, SharedSpec::new(model))
        })
        .collect()
}

fn jobs_fig13(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let s = fig13_setup(setup);
    let mut jobs = Vec::new();
    for (_, model) in fig13_variants(ctx) {
        jobs.push(SimJob::Train((*model).clone()));
        for bench in evaluation_suite() {
            jobs.extend(scheme_jobs(bench, Scheme::Poise, &s, Some(&model)));
        }
    }
    jobs
}

fn render_fig13(ctx: &FigCtx, points: &[SweepPoint], store: &ResultStore) -> Result<(), String> {
    let s = fig13_setup(&single_point(points)?.setup);
    let variants = fig13_variants(ctx);
    let mut table = Vec::new();
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for bench in evaluation_suite() {
        let mut ipcs = Vec::new();
        for (_, model) in &variants {
            let r = scheme_result(store, bench, Scheme::Poise, &s, Some(model))?;
            ipcs.push(r.ipc);
        }
        let all = ipcs[0];
        let mut row = vec![bench.name.clone()];
        for (vi, ipc) in ipcs.iter().enumerate() {
            let v = ipc / all;
            per_variant[vi].push(v);
            row.push(cell(v, 3));
        }
        table.push(row);
    }
    let mut hmean = vec!["H-Mean".to_string()];
    for pv in &per_variant {
        hmean.push(cell(harmonic_mean(pv), 3));
    }
    table.push(hmean);
    let header: Vec<&str> = std::iter::once("bench")
        .chain(variants.iter().map(|(n, _)| n.as_str()))
        .collect();
    emit_table(
        "fig13_feature_ablation.txt",
        "Fig. 13 — IPC normalised to the all-features model (no local search)",
        &header,
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Ablation — MSHR count sweep.
// ---------------------------------------------------------------------------

const MSHR_SWEEP: [usize; 5] = [4, 8, 16, 32, 64];

fn ablation_mshr_specs(setup: &Setup) -> Vec<(usize, KernelRunSpec)> {
    let bench = evaluation_suite()
        .iter()
        .find(|b| b.name == "ii")
        .expect("ii");
    let kernel = bench.kernels[0].clone();
    MSHR_SWEEP
        .into_iter()
        .map(|mshrs| {
            let mut s = setup.clone();
            s.cfg.l1_mshrs = mshrs;
            s.run_cycles = 60_000;
            (mshrs, KernelRunSpec::new(&kernel, Scheme::Gto, &s, None))
        })
        .collect()
}

fn jobs_ablation_mshr(_ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    ablation_mshr_specs(setup)
        .into_iter()
        .map(|(_, spec)| SimJob::Run(spec))
        .collect()
}

fn render_ablation_mshr(
    _ctx: &FigCtx,
    points: &[SweepPoint],
    store: &ResultStore,
) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let mut rows = Vec::new();
    for (mshrs, spec) in ablation_mshr_specs(setup) {
        let c = store.run(&spec)?.counters;
        rows.push(vec![
            mshrs.to_string(),
            cell(c.ipc(), 3),
            cell(c.aml(), 0),
            c.l1_rejects.to_string(),
        ]);
    }
    emit_table(
        "ablation_mshr.txt",
        "Ablation — MSHR count at the GTO baseline (ii), Eq. 1's MLP term",
        &["Kmshr", "IPC", "AML", "rejects"],
        &rows,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Ablation — inference-epoch sensitivity.
// ---------------------------------------------------------------------------

const EPOCH_SWEEP: [u64; 4] = [50_000, 100_000, 200_000, 400_000];

fn ablation_epoch_benches() -> impl Iterator<Item = &'static Benchmark> {
    evaluation_suite()
        .iter()
        .filter(|b| b.name == "ii" || b.name == "gsmv")
}

fn ablation_epoch_setup(setup: &Setup, t: u64) -> Setup {
    let mut s = setup.clone();
    s.params.t_period = t;
    // Two epochs at every setting for a fair sampling share.
    s.run_cycles = 2 * t;
    s
}

fn jobs_ablation_epoch(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for bench in ablation_epoch_benches() {
        jobs.extend(scheme_jobs(bench, Scheme::Gto, setup, None));
        for t in EPOCH_SWEEP {
            let s = ablation_epoch_setup(setup, t);
            jobs.extend(scheme_jobs(bench, Scheme::Poise, &s, Some(&ctx.model)));
        }
    }
    jobs
}

fn render_ablation_epoch(
    ctx: &FigCtx,
    points: &[SweepPoint],
    store: &ResultStore,
) -> Result<(), String> {
    let setup = &single_point(points)?.setup;
    let mut rows = Vec::new();
    for bench in ablation_epoch_benches() {
        let gto = scheme_result(store, bench, Scheme::Gto, setup, None)?;
        let mut row = vec![bench.name.clone()];
        for t in EPOCH_SWEEP {
            let s = ablation_epoch_setup(setup, t);
            let r = scheme_result(store, bench, Scheme::Poise, &s, Some(&ctx.model))?;
            row.push(cell(r.ipc / gto.ipc, 3));
        }
        rows.push(row);
    }
    emit_table(
        "ablation_epoch.txt",
        "Ablation — Poise IPC vs GTO across inference epoch lengths",
        &["bench", "50k", "100k", "200k", "400k"],
        &rows,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// sm_scaling — every scheme across machine sizes (a sweep figure).
// ---------------------------------------------------------------------------

/// The default SM ladder: powers of two from 1 up to the base machine.
/// With the paper machine (`--set sms=32`) this is 1→32 SMs; smaller
/// base machines (CI smoke) get proportionally shorter sweeps. Override
/// with `run_all --sweep sms=...`.
fn axes_sm_scaling(ctx: &FigCtx) -> Vec<Axis> {
    let max = ctx.setup.cfg.sms;
    let mut ladder = Vec::new();
    let mut s = 1;
    while s < max {
        ladder.push(s);
        s *= 2;
    }
    ladder.push(max);
    vec![Axis::sms(ladder)]
}

/// One kernel per evaluation benchmark keeps the 7-scheme × machine-size
/// product tractable.
fn sm_scaling_benches() -> Vec<Benchmark> {
    evaluation_suite().iter().map(|b| b.capped(1)).collect()
}

fn jobs_sm_scaling(ctx: &FigCtx, setup: &Setup) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for bench in sm_scaling_benches() {
        for scheme in TRACE_EVAL_SCHEMES {
            let model = (scheme == Scheme::Poise).then_some(&ctx.model);
            jobs.extend(scheme_jobs(&bench, scheme, setup, model));
        }
    }
    jobs
}

fn render_sm_scaling(
    ctx: &FigCtx,
    points: &[SweepPoint],
    store: &ResultStore,
) -> Result<(), String> {
    let mut table = Vec::new();
    for point in points {
        let setup = &point.setup;
        let specs: Vec<Vec<KernelRunSpec>> = sm_scaling_benches()
            .iter()
            .flat_map(|bench| bench.capped(setup.kernels_cap).kernels)
            .map(|k| KernelRunSpec::for_schemes(&k, &TRACE_EVAL_SCHEMES, setup, Some(&ctx.model)))
            .collect();
        // GTO first: the normalisation base at this machine size.
        let mut gto_ipc = f64::NAN;
        for (si, &scheme) in TRACE_EVAL_SCHEMES.iter().enumerate() {
            // Aggregate this scheme's runs; a failed job degrades the
            // whole (scheme, size) cell to MISSING rather than failing
            // the figure. A missing GTO leaves gto_ipc NaN, so the
            // "vs GTO" column of the other schemes goes MISSING too.
            let aggregate = || -> Result<(u64, u64, f64), String> {
                let (mut cycles, mut instructions, mut wall) = (0u64, 0u64, 0.0f64);
                for kernel in &specs {
                    let run = store.run(&kernel[si])?;
                    cycles += run.counters.cycles;
                    instructions += run.counters.instructions;
                    wall += store.wall(&SimJob::Run(kernel[si].clone())).unwrap_or(0.0);
                }
                Ok((cycles, instructions, wall))
            };
            let (ipc, thr) = match aggregate() {
                Ok((cycles, instructions, wall)) => {
                    let ipc = instructions as f64 / cycles.max(1) as f64;
                    // Simulation throughput: simulated cycles per
                    // wall-second of the runs that produced these
                    // results (recorded in the cache entries, so warm
                    // renders match the cold pass).
                    let thr = if wall > 0.0 {
                        cell(cycles as f64 / wall / 1.0e6, 2)
                    } else {
                        "-".to_string()
                    };
                    (ipc, thr)
                }
                Err(e) => {
                    eprintln!(
                        "[bench] sm_scaling {} SMs × {}: {e}; rendering MISSING",
                        setup.cfg.sms,
                        scheme.name()
                    );
                    (f64::NAN, "-".to_string())
                }
            };
            if scheme == Scheme::Gto {
                gto_ipc = ipc;
            }
            table.push(vec![
                setup.cfg.sms.to_string(),
                scheme.name().to_string(),
                cell(ipc, 3),
                cell(ipc / gto_ipc, 3),
                thr,
                // Threads that stepped the SMs of these runs: always 1,
                // as the simulator runs on the calling thread. The
                // column stays because perfbench's figure digest expects
                // six-field rows here.
                setup.cfg.sim_threads.to_string(),
            ]);
        }
    }
    emit_table(
        "sm_scaling.txt",
        "sm_scaling — all schemes across machine sizes (aggregate IPC over one \
         kernel per evaluation benchmark; sim-throughput from recorded execution walls)",
        &[
            "sms",
            "scheme",
            "IPC",
            "vs GTO",
            "sim Mcyc/s",
            "sim_threads",
        ],
        &table,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Whether `--only` entry `entry` selects figure `name`: the exact name
/// or a prefix up to an underscore (`fig12` matches `fig12_cache_size`).
fn name_matches(entry: &str, name: &str) -> bool {
    name == entry
        || name
            .strip_prefix(entry)
            .is_some_and(|rest| rest.starts_with('_'))
}

/// The registry figures `only` selects, in registry order (all of them
/// without a filter). Every entry must match at least one figure: the
/// error names each one that matches none, so a typo fails the run
/// instead of silently shrinking it.
fn select_figures(only: Option<&[String]>) -> Result<Vec<Figure>, String> {
    let figures = registry();
    let Some(only) = only else {
        return Ok(figures);
    };
    let unmatched: Vec<String> = only
        .iter()
        .filter(|entry| !figures.iter().any(|f| name_matches(entry, f.name)))
        .map(|entry| format!("`{entry}`"))
        .collect();
    if !unmatched.is_empty() {
        return Err(format!(
            "--only: no figure matches {} (see --list)",
            unmatched.join(", ")
        ));
    }
    Ok(figures
        .into_iter()
        .filter(|f| only.iter().any(|entry| name_matches(entry, f.name)))
        .collect())
}

/// The fully planned job set of one `run_all`-shaped invocation: the
/// selected figures, their sweep expansions, and the concatenated
/// (prefix-factored) job list the engine executes.
pub struct PlannedJobs {
    pub figures: Vec<Figure>,
    pub expansions: Vec<PlanExpansion>,
    pub setup: Setup,
    /// The context the jobs were declared against. Render with it: its
    /// trace snapshot is the one the `trace_eval` jobs were built from.
    pub ctx: FigCtx,
    pub jobs: Vec<SimJob>,
    pub sweeping: bool,
    pub sweep_shared: usize,
    pub prefix_shared: usize,
}

/// The planning path of `run_all`: select figures (an `only` entry that
/// matches none is an error), apply the overlay, expand every plan,
/// reject sweeps that reach single-point renderers, and factor shared
/// snapshot prefixes. Deterministic in its arguments, so a warm pass
/// re-derives the cold pass's job graph and cache keys.
pub fn plan_jobs(
    base: KnobOverlay,
    sets: &[String],
    sweeps: &[String],
    only: Option<&[String]>,
    verbose: bool,
) -> Result<PlannedJobs, String> {
    let figures = select_figures(only)?;
    let overlay = base.merged(KnobOverlay::parse(sets)?);
    let sweep_axes: Vec<Axis> = sweeps
        .iter()
        .map(|s| Axis::parse(s))
        .collect::<Result<_, _>>()?;
    if verbose && !overlay.is_empty() {
        eprintln!("[run_all] knob overlay: {}", overlay.summary());
    }
    let ctx = FigCtx::new(crate::base_setup(&overlay));
    // The plan's identity table: every figure's expansion and the prefix
    // factoring below share it, and it is dropped with this call.
    let mut ids = IdentityTable::default();
    let expansions: Vec<PlanExpansion> = figures
        .iter()
        .map(|f| f.expand(&ctx, &sweep_axes, &mut ids))
        .collect();
    // Reject a sweep that reaches a single-point renderer *now*, before
    // any simulation is paid for (the renderer's own single_point()
    // guard stays as defence in depth).
    let unsweepable: Vec<&str> = figures
        .iter()
        .zip(&expansions)
        .filter(|(f, e)| e.points.len() > 1 && !f.sweepable)
        .map(|(f, _)| f.name)
        .collect();
    if !unsweepable.is_empty() {
        return Err(format!(
            "--sweep expands figures that render a single point only: {}; \
             restrict with --only to sweep-aware figures (e.g. sm_scaling, fig12_cache_size)",
            unsweepable.join(", ")
        ));
    }
    let mut sweep_shared = 0usize;
    for (figure, exp) in figures.iter().zip(&expansions) {
        if exp.points.len() > 1 {
            sweep_shared += exp.shared;
            if verbose {
                eprintln!(
                    "[run_all] {}: {} sweep points, {} jobs shared across points (executed once)",
                    figure.name,
                    exp.points.len(),
                    exp.shared
                );
            }
        }
    }
    let sweeping = expansions.iter().any(|e| e.points.len() > 1);
    let mut jobs: Vec<SimJob> = expansions.iter().flat_map(|e| e.jobs.clone()).collect();
    // Prefix factoring: runs that differ only in their cycle horizon
    // collapse into one chained simulation plus per-horizon forks (a
    // `run_cycles` sweep axis is the canonical producer).
    let prefix_shared = poise::jobs::factor_prefixes(&mut jobs, &mut ids);
    if verbose && prefix_shared > 0 {
        eprintln!(
            "[run_all] prefix factoring: {prefix_shared} run(s) fork from shared \
             snapshot prefixes instead of simulating from cycle 0"
        );
    }
    Ok(PlannedJobs {
        figures,
        expansions,
        setup: ctx.setup.clone(),
        ctx,
        jobs,
        sweeping,
        sweep_shared,
        prefix_shared,
    })
}

/// The status of one figure in a `run_all` pass.
enum FigStatus {
    Pass(f64),
    Fail(String),
    Skipped,
}

/// `run_all`'s command line (see [`run_all_main`] for the flags).
#[derive(Default)]
struct RunAllArgs {
    keep_going: bool,
    gc: bool,
    fsck: bool,
    list: bool,
    only: Option<Vec<String>>,
    sets: Vec<String>,
    sweeps: Vec<String>,
    inject: Option<String>,
}

impl RunAllArgs {
    /// Parse `args`. Every argument must be a known flag or a known
    /// flag's value; anything else is an error naming it, so a typo or
    /// a retired flag never degrades into a silent default run. `--fsck`
    /// checks the whole store, so any other flag beside it is an error
    /// too.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut a = RunAllArgs::default();
        let mut others: Vec<&str> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg != "--fsck" {
                others.push(arg);
            }
            let mut value = |flag: &str| -> Result<String, String> {
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs an argument"))
            };
            match arg.as_str() {
                "--keep-going" => a.keep_going = true,
                "--gc" => a.gc = true,
                "--fsck" => a.fsck = true,
                "--list" => a.list = true,
                "--only" => {
                    let v = value("--only")?;
                    a.only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
                }
                "--set" => a.sets.push(value("--set")?),
                "--sweep" => a.sweeps.push(value("--sweep")?),
                "--inject" => a.inject = Some(value("--inject")?),
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (flags: --keep-going, --only, --set, \
                         --sweep, --list, --gc, --inject, --fsck)"
                    ))
                }
            }
        }
        if a.fsck && !others.is_empty() {
            return Err(format!(
                "--fsck checks the whole store and takes no other flag (got {})",
                others.join(" ")
            ));
        }
        Ok(a)
    }
}

/// One-command reproduction of the evaluation section: collect every
/// figure's jobs up front, execute the deduplicated set once across
/// cores, then render each figure into [`results_dir`], next to the
/// pass summary (`run_all_summary.txt`) and the failures report
/// (`run_all_failures.txt`). Flags:
///
/// * `--keep-going` — render every figure even after failures (the
///   default stops at the first failing figure, like the old harness,
///   but always prints the pass/fail summary instead of bare `exit(1)`);
/// * `--only <a,b,...>` — restrict to the named figures (exact name or a
///   prefix up to an underscore: `fig12` matches `fig12_cache_size`);
///   an entry that matches no figure is an error, before anything is
///   planned;
/// * `--set <knob>=<value>` (repeatable) — apply a knob to the base
///   setup;
/// * `--sweep <knob>=<v1,v2,...>` (repeatable) — sweep a knob: replaces
///   a same-knob default axis of each selected figure (e.g.
///   `sm_scaling`'s SM ladder) or extends the figure's plan. Figures
///   whose renderer cannot present multiple points fail loudly;
/// * `--list` — plan the selected figures (the whole registry without
///   `--only`) exactly as a run would, print their names and exit: an
///   invocation a run would refuse fails here too;
/// * `--gc` — after a fully successful pass, prune `results/cache/`
///   entries the current job set no longer references (entries keyed by
///   edited-away kernel specs, old knob settings, deleted traces). The
///   content-addressed store never looks those up again, so without an
///   occasional `--gc` it grows without bound across spec edits;
/// * `--inject seed=S,rate=P[,kinds=a+b+...]` — deterministic fault
///   injection (see [`poise::faults`]): job panics, torn cache writes
///   and bit flips, all derived from the seed so a run is exactly
///   reproducible. A panicked job fails with its dependants; corrupt
///   cache entries are quarantined and re-run. Surviving outputs are
///   bit-identical to a fault-free pass;
/// * `--fsck` — offline cache re-validation of the whole store: parse
///   and checksum every entry, quarantine invalid ones and remove stale
///   temp files, then exit (failure exit if anything was corrupt — a
///   second `--fsck` passes). It takes no other flag.
///
/// Any other argument is an error (exit 1), reported before anything
/// runs.
///
/// Exit codes (CI and scripts key off these):
/// * `0` — clean pass;
/// * `1` — figure or job failures (panics, dependency failures, render
///   errors) or a bad command line;
/// * `3` — every figure passed after quarantining corrupt cache
///   entries.
pub fn run_all_main(args: &[String]) -> ExitCode {
    let args = match RunAllArgs::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[run_all] {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.fsck {
        return fsck_main();
    }
    let faults = match args.inject.as_deref().map(FaultPlan::parse).transpose() {
        Ok(p) => p,
        // `FaultPlan::parse` errors already name `--inject`.
        Err(e) => {
            eprintln!("[run_all] {e}");
            return ExitCode::FAILURE;
        }
    };
    let only = args.only.as_deref();
    let t0 = Instant::now();
    let planned = match plan_jobs(
        KnobOverlay::default(),
        &args.sets,
        &args.sweeps,
        only,
        !args.list,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("[run_all] {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for f in &planned.figures {
            println!("{}", f.name);
        }
        return ExitCode::SUCCESS;
    }
    let PlannedJobs {
        figures,
        expansions,
        ctx,
        jobs,
        sweeping,
        sweep_shared,
        prefix_shared,
        ..
    } = planned;
    let results = results_dir();
    let mut engine = Engine::new(results.join("cache"));
    if let Some(plan) = faults {
        eprintln!("[run_all] fault injection: {}", plan.summary());
        engine.set_faults(Some(plan));
    }

    eprintln!(
        "[run_all] {} figures declared {} jobs; executing the deduplicated set...",
        figures.len(),
        jobs.len()
    );
    let (store, report) = engine.run(&jobs);

    // Phase 2: render in order.
    let mut statuses: Vec<(&str, FigStatus)> = Vec::new();
    let mut stop = false;
    for (figure, exp) in figures.iter().zip(&expansions) {
        if stop {
            statuses.push((figure.name, FigStatus::Skipped));
            continue;
        }
        println!("\n===== {} =====", figure.name);
        let ft = Instant::now();
        match (figure.render)(&ctx, &exp.points, &store) {
            Ok(()) => statuses.push((figure.name, FigStatus::Pass(ft.elapsed().as_secs_f64()))),
            Err(e) => {
                eprintln!("[run_all] {} FAILED: {e}", figure.name);
                statuses.push((figure.name, FigStatus::Fail(e)));
                if !args.keep_going {
                    stop = true;
                }
            }
        }
    }

    // The structured failures report: every failed job plus
    // cache-corruption events. Written on every pass (a clean one
    // records that, too) so CI can upload it unconditionally.
    let failures_path = results.join("run_all_failures.txt");
    if let Err(e) = std::fs::write(&failures_path, failures_report(engine.faults(), &report)) {
        eprintln!("[run_all] could not write {}: {e}", failures_path.display());
    }
    if !report.trouble.is_empty() || report.corrupt > 0 {
        eprintln!("[run_all] failure details in {}", failures_path.display());
    }

    // Phase 3: the summary table (printed and persisted).
    let failed = statuses
        .iter()
        .filter(|(_, s)| matches!(s, FigStatus::Fail(_)))
        .count();
    let rows: Vec<Vec<String>> = statuses
        .iter()
        .map(|(name, status)| {
            let (st, detail) = match status {
                FigStatus::Pass(secs) => ("pass".to_string(), format!("{secs:.2}s")),
                FigStatus::Fail(e) => ("FAIL".to_string(), e.clone()),
                FigStatus::Skipped => ("skipped".to_string(), "after earlier failure".into()),
            };
            vec![name.to_string(), st, detail]
        })
        .collect();
    println!();
    // Only a sweeping run carries the shared-job statistic, keeping the
    // default (single-point) summary line unchanged; likewise the
    // prefix-factoring statistic only appears when factoring fired, and
    // the steady-state point count when a job simulated one.
    let mut sweep_note = if sweeping {
        format!(" sweep_shared={sweep_shared};")
    } else {
        String::new()
    };
    if prefix_shared > 0 {
        sweep_note.push_str(&format!(" prefix_shared={prefix_shared};"));
    }
    if report.steady_points > 0 {
        sweep_note.push_str(&format!(" steady_points={};", report.steady_points));
    }
    emit_table(
        "run_all_summary.txt",
        &format!(
            "run_all summary — {}/{} figures pass; engine: {};{sweep_note} total wall {:.1}s",
            statuses.len()
                - failed
                - statuses
                    .iter()
                    .filter(|(_, s)| matches!(s, FigStatus::Skipped))
                    .count(),
            statuses.len(),
            report.summary_line(),
            t0.elapsed().as_secs_f64()
        ),
        &["figure", "status", "detail"],
        &rows,
    );

    // Phase 4 (opt-in): garbage-collect cache entries the current job
    // set no longer references. Only when every requested figure ran —
    // a failed/skipped figure's entries must survive for the retry —
    // and never under --only, which would see a partial job set.
    if args.gc {
        let all_ran = statuses
            .iter()
            .all(|(_, s)| matches!(s, FigStatus::Pass(_)));
        if only.is_some() {
            eprintln!("[run_all] --gc ignored under --only (partial job set)");
        } else if !all_ran {
            eprintln!("[run_all] --gc skipped: not every figure completed");
        } else {
            match engine.cache().prune_untouched() {
                Ok((removed, kept)) => {
                    eprintln!("[run_all] cache gc: removed {removed} stale entries, kept {kept}")
                }
                Err(e) => eprintln!("[run_all] cache gc failed: {e}"),
            }
        }
    }

    // Exit-code mapping (documented on `run_all_main`): clean 0; hard
    // failures 1; pass after quarantining corrupt entries 3.
    let job_failures = report.failed.len();
    if failed > 0 || job_failures > 0 {
        if failed > 0 {
            eprintln!("[run_all] {failed} figure(s) failed");
        }
        if job_failures > 0 {
            eprintln!(
                "[run_all] {job_failures} job(s) failed (see {})",
                failures_path.display()
            );
        }
        ExitCode::FAILURE
    } else if report.corrupt > 0 {
        println!(
            "\n[run_all] all experiments complete in {:.0}s; outputs in {} \
             (self-healed: {} corrupt cache entries quarantined)",
            t0.elapsed().as_secs_f64(),
            results.display(),
            report.corrupt
        );
        ExitCode::from(3)
    } else {
        println!(
            "\n[run_all] all experiments complete in {:.0}s; outputs in {}",
            t0.elapsed().as_secs_f64(),
            results.display()
        );
        ExitCode::SUCCESS
    }
}

/// `run_all --fsck`: offline re-validation of every cache entry (see
/// [`Engine::fsck`]), plus removal of tmp orphans left by killed
/// writers. Corrupt entries are quarantined, so a failing fsck leaves
/// the store clean and a second pass succeeds.
fn fsck_main() -> ExitCode {
    let engine = Engine::new(results_dir().join("cache"));
    match engine.fsck() {
        Ok(r) => {
            println!(
                "[run_all] fsck: {} entries scanned, {} valid, {} corrupt (quarantined), \
                 {} stale temp file(s) removed",
                r.scanned, r.valid, r.corrupt, r.tmp_removed
            );
            if r.corrupt > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("[run_all] fsck failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Render `results/run_all_failures.txt`: the fault plan (if any), the
/// engine summary, cache-corruption counters, and one line per failed
/// job: its label, spec hash, failure class, wall time and error.
fn failures_report(faults: Option<&FaultPlan>, report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# run_all failures report");
    let _ = writeln!(
        s,
        "# fault injection: {}",
        faults.map_or_else(|| "none".to_string(), |p| p.summary())
    );
    if faults.is_some() {
        let _ = writeln!(s, "# store faults injected: {}", report.store_faults);
    }
    let _ = writeln!(s, "# engine: {}", report.summary_line());
    let _ = writeln!(
        s,
        "# cache: {} corrupt entries found, {} quarantined under cache/quarantine/",
        report.corrupt, report.quarantined
    );
    if report.trouble.is_empty() {
        let _ = writeln!(s, "# no failed jobs");
    }
    for t in &report.trouble {
        let _ = writeln!(
            s,
            "job {} spec_hash={}: {} after {}ms — {}",
            t.label,
            t.spec_hash,
            t.class.name(),
            t.wall_ms,
            t.error
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use poise::jobs::{FailClass, JobTrouble};

    #[test]
    fn failures_report_lists_injected_faults_and_failed_jobs() {
        let t = JobTrouble {
            label: "run[k]".to_string(),
            spec_hash: "ab12".to_string(),
            class: FailClass::Panic,
            error: "injected fault: panic".to_string(),
            wall_ms: 3,
        };
        let report = RunReport {
            total: 1,
            failed: vec![(t.label.clone(), t.error.clone())],
            trouble: vec![t],
            store_faults: 2,
            ..RunReport::default()
        };
        let plan = FaultPlan::parse("seed=45,rate=0.15,kinds=panic+torn").unwrap();
        assert_eq!(
            failures_report(Some(&plan), &report),
            "# run_all failures report
# fault injection: seed=45,rate=0.15,kinds=panic+torn
# store faults injected: 2
# engine: jobs=1 executed=0 cache_hits=0 failed=1 hit_rate=0.0% corrupt=0 wall=0.0s
# cache: 0 corrupt entries found, 0 quarantined under cache/quarantine/
job run[k] spec_hash=ab12: panic after 3ms — injected fault: panic
"
        );
        // Without a plan there is no store-fault line.
        assert_eq!(
            failures_report(None, &RunReport::default()),
            "# run_all failures report
# fault injection: none
# engine: jobs=0 executed=0 cache_hits=0 failed=0 hit_rate=100.0% corrupt=0 wall=0.0s
# cache: 0 corrupt entries found, 0 quarantined under cache/quarantine/
# no failed jobs
"
        );
    }
}
