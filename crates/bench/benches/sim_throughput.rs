//! `sim_throughput`: simulated cycles per wall-clock second, the tracked
//! perf number for the simulator core.
//!
//! Reports the per-SM decoupled loop, the global event-driven loop and
//! the cycle-stepped reference side by side on the regimes that bracket
//! the design space:
//!
//! * **memory-bound, low occupancy** (streaming, N = 1/4): every vital
//!   warp blocks on its outstanding load almost immediately — the regime
//!   the global skip already handles well;
//! * **memory-bound, high occupancy** (streaming, N = 16): many warps per
//!   scheduler keep *some* SM busy at every instant, so the global skip
//!   collapses to stepping while the per-SM loop still skips each SM's
//!   own stalls — the regime `StepMode::PerSm` exists for;
//! * **compute-bound** (long ALU stretches at full occupancy): the
//!   fast-forward worst case (skips almost never trigger), bounding the
//!   overhead of the readiness/horizon bookkeeping.
//!
//! Each workload additionally ladders `StepMode::ParallelSm` over
//! `sim_threads` ∈ {1, 2, 4, 8} against the single-threaded per-SM
//! loop, reporting speedup and parallel efficiency next to the host's
//! core count (the ladder is only meaningful on multi-core hosts).
//!
//! Also times `profile_grid` on a coarse(24) grid end-to-end, and the
//! experiment engine (`poise::jobs`) cold vs warm over a small job
//! graph, since those are the harness paths every figure regeneration
//! pays.
//!
//! Run with: `cargo bench -p poise-bench --bench sim_throughput`
//!
//! Flags (after `--`):
//!
//! * `--smoke` — one fast sample per point (CI smoke mode);
//! * `--json`  — additionally write machine-readable per-commit results
//!   to `results/sim_throughput.json` (the tracked perf trajectory).

use std::fmt::Write as _;
use std::time::Instant;

use gpu_sim::stats::SmFastForward;
use gpu_sim::{FixedTuple, Gpu, GpuConfig, StepMode, UniformKernel, WarpTuple};
use poise::profiler::{profile_grid, GridSpec, ProfileWindow};
use poise_bench::results_dir;
use workloads::{AccessMix, KernelSpec};

const MODES: [(StepMode, &str); 3] = [
    (StepMode::PerSm, "per_sm"),
    (StepMode::EventDriven, "event_driven"),
    (StepMode::Reference, "reference"),
];

/// `sim_threads` points for the `StepMode::ParallelSm` ladder. The
/// 1-thread point measures the round-loop overhead of the parallel
/// path itself (the acceptance bar is a small single-digit regression
/// vs `PerSm`); higher points measure scaling up to the host's cores.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

struct Opts {
    smoke: bool,
    json: bool,
}

impl Opts {
    fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Opts {
            smoke: args.iter().any(|a| a == "--smoke"),
            json: args.iter().any(|a| a == "--json"),
        }
    }

    fn budget(&self) -> u64 {
        if self.smoke {
            120_000
        } else {
            400_000
        }
    }

    fn samples(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    fn grid_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// Per-mode result of one workload point: best-of-N throughput plus the
/// per-SM fast-forward totals of the last run (spans, skipped SM-cycles,
/// horizon stalls, ALU-run bursts) — the "why didn't this skip?"
/// diagnostics.
struct ModeResult {
    rate: f64,
    ff: SmFastForward,
}

/// Cycles per second of one (kernel, tuple, mode) point: best of N runs.
fn cycles_per_second(
    kernel: &UniformKernel,
    tuple: WarpTuple,
    sms: usize,
    mode: StepMode,
    sim_threads: usize,
    opts: &Opts,
) -> ModeResult {
    let mut best = 0.0f64;
    let mut ff = SmFastForward::default();
    for _ in 0..opts.samples() {
        let mut cfg = GpuConfig::scaled(sms);
        cfg.step_mode = mode;
        cfg.sim_threads = sim_threads;
        let mut gpu = Gpu::new(cfg, kernel);
        let mut ctrl = FixedTuple::new(tuple);
        let t = Instant::now();
        let res = gpu.run(&mut ctrl, opts.budget());
        let rate = res.counters.cycles as f64 / t.elapsed().as_secs_f64();
        best = best.max(rate);
        ff = SmFastForward::default();
        for f in gpu.fast_forward_breakdown() {
            ff.accumulate(f);
        }
    }
    ModeResult { rate: best, ff }
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.2} Gcyc/s", r / 1e9)
    } else {
        format!("{:.1} Mcyc/s", r / 1e6)
    }
}

struct WorkloadResult {
    name: &'static str,
    /// Simulated machine size (SMs).
    sms: usize,
    /// cycles/sec per mode, in `MODES` order.
    rates: [f64; 3],
    /// cycles/sec of `StepMode::ParallelSm` per `THREAD_LADDER` point.
    parallel_rates: [f64; THREAD_LADDER.len()],
    /// Per-SM fast-forward totals of the per-SM mode run.
    per_sm_ff: SmFastForward,
}

impl WorkloadResult {
    fn speedup_vs_reference(&self) -> f64 {
        self.rates[0] / self.rates[2]
    }

    fn speedup_vs_event_driven(&self) -> f64 {
        self.rates[0] / self.rates[1]
    }

    /// ParallelSm throughput at ladder point `i` relative to the
    /// single-threaded PerSm loop.
    fn parallel_speedup(&self, i: usize) -> f64 {
        self.parallel_rates[i] / self.rates[0]
    }
}

fn report(
    name: &'static str,
    kernel: &UniformKernel,
    tuple: WarpTuple,
    sms: usize,
    opts: &Opts,
) -> WorkloadResult {
    let mut rates = [0.0; 3];
    let mut per_sm_ff = SmFastForward::default();
    for (i, (mode, _)) in MODES.iter().enumerate() {
        let r = cycles_per_second(kernel, tuple, sms, *mode, 1, opts);
        rates[i] = r.rate;
        if *mode == StepMode::PerSm {
            per_sm_ff = r.ff;
        }
    }
    let mut parallel_rates = [0.0; THREAD_LADDER.len()];
    for (i, &t) in THREAD_LADDER.iter().enumerate() {
        parallel_rates[i] =
            cycles_per_second(kernel, tuple, sms, StepMode::ParallelSm, t, opts).rate;
    }
    println!(
        "sim_throughput/{name:<24} per-sm {:>14}   event-driven {:>14}   reference {:>14}   \
         per-sm vs ref {:>6.2}x   vs event {:>5.2}x",
        fmt_rate(rates[0]),
        fmt_rate(rates[1]),
        fmt_rate(rates[2]),
        rates[0] / rates[2],
        rates[0] / rates[1],
    );
    println!(
        "    per-sm breakdown: {} spans, {} skipped SM-cycles, {} horizon stalls, \
         {} ALU-run bursts over {} SM-cycles",
        per_sm_ff.spans,
        per_sm_ff.skipped,
        per_sm_ff.horizon_stalls,
        per_sm_ff.bursts,
        per_sm_ff.burst_cycles
    );
    let ladder = THREAD_LADDER
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            format!(
                "t{t} {} ({:.2}x)",
                fmt_rate(parallel_rates[i]),
                parallel_rates[i] / rates[0]
            )
        })
        .collect::<Vec<_>>()
        .join("   ");
    println!("    parallel-sm ladder (vs per-sm): {ladder}");
    WorkloadResult {
        name,
        sms,
        rates,
        parallel_rates,
        per_sm_ff,
    }
}

struct GridResult {
    points: usize,
    /// Wall-clock seconds per mode, in `MODES` order.
    seconds: [f64; 3],
}

fn profile_grid_end_to_end(opts: &Opts) -> GridResult {
    let spec: workloads::Workload =
        KernelSpec::steady("bench-grid", AccessMix::memory_sensitive(), 13).into();
    let window = ProfileWindow::default();
    let mut seconds = [0.0; 3];
    let mut points = 0;
    for (i, (mode, _)) in MODES.iter().enumerate() {
        let mut cfg = GpuConfig::scaled(2);
        cfg.step_mode = *mode;
        let mut best = f64::INFINITY;
        for _ in 0..opts.grid_reps() {
            let t = Instant::now();
            let grid = profile_grid(&spec, &cfg, &GridSpec::coarse(24), window);
            best = best.min(t.elapsed().as_secs_f64());
            points = grid.iter().count();
        }
        seconds[i] = best;
    }
    println!(
        "sim_throughput/profile_grid-coarse24     {points} points   per-sm {:.2}s   \
         event-driven {:.2}s   reference {:.2}s   per-sm vs ref {:>5.2}x   vs event {:>5.2}x",
        seconds[0],
        seconds[1],
        seconds[2],
        seconds[2] / seconds[0],
        seconds[1] / seconds[0],
    );
    GridResult { points, seconds }
}

struct EngineResult {
    jobs: usize,
    cold_seconds: f64,
    warm_seconds: f64,
}

/// Cold vs warm pass of the experiment engine over a small scheme ×
/// kernel job graph (1-SM machine, short budgets): the cold figure
/// tracks per-job orchestration overhead on top of the simulations, the
/// warm figure the cost of answering the whole graph from the
/// content-addressed cache.
fn engine_end_to_end() -> EngineResult {
    use poise::experiment::{Scheme, Setup};
    use poise::jobs::{Engine, KernelRunSpec, SimJob};

    let dir = std::env::temp_dir().join(format!("poise-sim-throughput-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = Engine::new(&dir);
    engine.quiet = true;
    let setup = Setup::for_tests();
    let mut jobs = Vec::new();
    for i in 0..4 {
        let spec: workloads::Workload = KernelSpec::steady(
            format!("engine-bench-{i}"),
            AccessMix::memory_sensitive(),
            i,
        )
        .into();
        for s in [Scheme::Gto, Scheme::Swl] {
            jobs.push(SimJob::Run(KernelRunSpec::new(&spec, s, &setup, None)));
        }
    }
    let t = Instant::now();
    let (_, cold) = engine.run(&jobs);
    let cold_seconds = t.elapsed().as_secs_f64();
    assert_eq!(cold.executed, cold.total, "cold pass must simulate");
    let t = Instant::now();
    let (_, warm) = engine.run(&jobs);
    let warm_seconds = t.elapsed().as_secs_f64();
    assert_eq!(warm.cache_hits, warm.total, "warm pass must hit");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "sim_throughput/engine-smoke              {} jobs   cold {:.2}s   warm {:.3}s   \
         ({} sims cold, {} cache hits warm)",
        cold.total, cold_seconds, warm_seconds, cold.executed, warm.cache_hits,
    );
    EngineResult {
        jobs: cold.total,
        cold_seconds,
        warm_seconds,
    }
}

struct PrefixReuseResult {
    schemes: usize,
    horizons: usize,
    declared_jobs: usize,
    prefix_jobs: usize,
    prefix_shared: usize,
    /// Simulated epochs (cycles stepped by evaluation runs + prefixes),
    /// cold vs factored — the structural saving, independent of host.
    cold_epochs: u64,
    forked_epochs: u64,
    cold_seconds: f64,
    forked_seconds: f64,
    /// The two run stores agree byte-for-byte (modulo `# wall:` lines).
    stores_identical: bool,
}

/// Every durable cache entry under `dir`, keyed by file name, with the
/// wall-clock header line (the only legitimately nondeterministic byte
/// of an entry) stripped. Prefix blobs are excluded: they exist only in
/// the forked store by design.
fn normalized_cache_entries(dir: &std::path::Path) -> std::collections::BTreeMap<String, String> {
    let mut entries = std::collections::BTreeMap::new();
    let Ok(rd) = std::fs::read_dir(dir) else {
        return entries;
    };
    for entry in rd.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') || name.starts_with("prefix-") {
            continue;
        }
        let body = std::fs::read_to_string(&path).unwrap_or_default();
        let norm = body
            .lines()
            .filter(|l| !l.starts_with("# wall:"))
            .collect::<Vec<_>>()
            .join("\n");
        entries.insert(name, norm);
    }
    entries
}

/// Cold vs prefix-forked pass over a `run_cycles` ladder of every
/// scheme: the cold engine simulates each horizon from cycle 0, the
/// forked engine factors the ladder through `factor_prefixes` so each
/// scheme pays one simulation of the longest horizon (random-restart
/// never factors and stays cold on both sides — the honest comparison).
/// Model training and profiling run in both engines alike, so the
/// wall-clock ratio understates the epoch ratio by that shared cost.
fn prefix_reuse_end_to_end(opts: &Opts) -> PrefixReuseResult {
    use poise::experiment::{Scheme, Setup};
    use poise::jobs::{factor_prefixes, Engine, IdentityTable, KernelRunSpec, ModelSpec, SimJob};

    let schemes = [
        Scheme::Gto,
        Scheme::Swl,
        Scheme::PcalSwl,
        Scheme::Poise,
        Scheme::StaticBest,
        Scheme::RandomRestart,
        Scheme::Apcm,
    ];
    let h = if opts.smoke { 3_000u64 } else { 10_000 };
    let horizons = [h, 2 * h, 3 * h, 4 * h];
    let mut setup = Setup::for_tests();
    setup.run_cycles = *horizons.last().unwrap();
    let model = ModelSpec::default_training(&setup);
    let spec: workloads::Workload =
        KernelSpec::steady("prefix-bench", AccessMix::memory_sensitive(), 5).into();
    let mut declared = Vec::new();
    for &s in &schemes {
        let ms = (s == Scheme::Poise).then_some(&model);
        for &cycles in &horizons {
            let mut r = KernelRunSpec::new(&spec, s, &setup, ms);
            r.run_cycles = cycles;
            declared.push(SimJob::Run(r));
        }
    }

    let cold_dir = std::env::temp_dir().join(format!("poise-prefix-cold-{}", std::process::id()));
    let fork_dir = std::env::temp_dir().join(format!("poise-prefix-fork-{}", std::process::id()));
    for d in [&cold_dir, &fork_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let mut cold_engine = Engine::new(&cold_dir);
    cold_engine.quiet = true;
    let t = Instant::now();
    let (_, cold) = cold_engine.run(&declared);
    let cold_seconds = t.elapsed().as_secs_f64();
    assert_eq!(cold.failed.len(), 0, "cold pass must succeed");

    let mut factored = declared.clone();
    let prefix_shared = factor_prefixes(&mut factored, &mut IdentityTable::default());
    let mut fork_engine = Engine::new(&fork_dir);
    fork_engine.quiet = true;
    let t = Instant::now();
    let (_, fork) = fork_engine.run(&factored);
    let forked_seconds = t.elapsed().as_secs_f64();
    assert_eq!(fork.failed.len(), 0, "forked pass must succeed");

    // Simulated epochs: each job steps exactly its horizon minus the
    // deepest snapshot boundary it forks from (random-restart's seeded
    // reruns multiply both sides equally and are counted once).
    let span = |job: &SimJob| match job {
        SimJob::Run(r) | SimJob::Prefix(r) => {
            r.run_cycles - r.prefix_chain.last().copied().unwrap_or(0)
        }
        _ => 0,
    };
    let cold_epochs: u64 = declared.iter().map(&span).sum();
    let forked_epochs: u64 = factored.iter().map(&span).sum();

    let stores_identical =
        normalized_cache_entries(&cold_dir) == normalized_cache_entries(&fork_dir);
    for d in [&cold_dir, &fork_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let out = PrefixReuseResult {
        schemes: schemes.len(),
        horizons: horizons.len(),
        declared_jobs: declared.len(),
        prefix_jobs: factored.len() - declared.len(),
        prefix_shared,
        cold_epochs,
        forked_epochs,
        cold_seconds,
        forked_seconds,
        stores_identical,
    };
    println!(
        "sim_throughput/prefix-reuse              {} schemes x {} horizons   cold {:.2}s   \
         forked {:.2}s ({:.2}x)   epochs {} -> {} ({:.2}x)   stores {}",
        out.schemes,
        out.horizons,
        out.cold_seconds,
        out.forked_seconds,
        out.cold_seconds / out.forked_seconds,
        out.cold_epochs,
        out.forked_epochs,
        out.cold_epochs as f64 / out.forked_epochs as f64,
        if out.stores_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    );
    assert!(out.stores_identical, "forked store diverged from cold");
    out
}

/// The commit this run measures, for the tracked trajectory under
/// `results/`. Prefers the CI-provided sha, falls back to `git`.
fn commit_id() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Physical core count: unique `(physical id, core id)` pairs from
/// `/proc/cpuinfo`, falling back to the logical count when the file is
/// absent or unparsable (non-Linux hosts, restricted containers).
fn physical_cores(logical: usize) -> usize {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
        return logical;
    };
    let mut cores = std::collections::HashSet::new();
    let mut package = String::from("0");
    for line in info.lines() {
        if let Some((k, v)) = line.split_once(':') {
            match k.trim() {
                "physical id" => package = v.trim().to_string(),
                "core id" => {
                    cores.insert((package.clone(), v.trim().to_string()));
                }
                _ => {}
            }
        }
    }
    if cores.is_empty() {
        logical
    } else {
        cores.len()
    }
}

fn write_json(
    opts: &Opts,
    workloads: &[WorkloadResult],
    grid: &GridResult,
    engine: &EngineResult,
    prefix: &PrefixReuseResult,
) {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"sim_throughput\",");
    let _ = writeln!(s, "  \"commit\": \"{}\",", json_escape(&commit_id()));
    let _ = writeln!(s, "  \"unix_time\": {unix_time},");
    let _ = writeln!(s, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(s, "  \"budget_cycles\": {},", opts.budget());
    // Host context: thread-ladder numbers are only interpretable
    // against the parallelism the host can actually supply (a 1-core
    // container pins every ladder point at the inline path).
    let logical = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(s, "  \"host\": {{");
    let _ = writeln!(s, "    \"logical_cpus\": {logical},");
    let _ = writeln!(s, "    \"physical_cores\": {},", physical_cores(logical));
    let _ = writeln!(
        s,
        "    \"thread_budget\": {}",
        gpu_sim::threadpool::thread_budget()
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"workloads\": [");
    for (wi, w) in workloads.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", w.name);
        let _ = writeln!(s, "      \"sms\": {},", w.sms);
        for (i, (_, mode_name)) in MODES.iter().enumerate() {
            let _ = writeln!(
                s,
                "      \"{}_cycles_per_sec\": {:.1},",
                mode_name, w.rates[i]
            );
        }
        let _ = writeln!(
            s,
            "      \"per_sm_speedup_vs_reference\": {:.3},",
            w.speedup_vs_reference()
        );
        let _ = writeln!(
            s,
            "      \"per_sm_speedup_vs_event_driven\": {:.3},",
            w.speedup_vs_event_driven()
        );
        let _ = writeln!(s, "      \"parallel_sm_ladder\": [");
        for (i, &t) in THREAD_LADDER.iter().enumerate() {
            let comma = if i + 1 < THREAD_LADDER.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "        {{\"sim_threads\": {t}, \"cycles_per_sec\": {:.1}, \
                 \"speedup_vs_per_sm\": {:.3}, \"parallel_efficiency\": {:.3}}}{comma}",
                w.parallel_rates[i],
                w.parallel_speedup(i),
                w.parallel_speedup(i) / t as f64,
            );
        }
        let _ = writeln!(s, "      ],");
        let ff = &w.per_sm_ff;
        let _ = writeln!(
            s,
            "      \"per_sm_ff\": {{\"spans\": {}, \"skipped_sm_cycles\": {}, \"horizon_stalls\": {}, \
             \"bursts\": {}, \"burst_sm_cycles\": {}}}",
            ff.spans, ff.skipped, ff.horizon_stalls, ff.bursts, ff.burst_cycles
        );
        let comma = if wi + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"profile_grid_coarse24\": {{");
    let _ = writeln!(s, "    \"points\": {},", grid.points);
    for (i, (_, mode_name)) in MODES.iter().enumerate() {
        let comma = if i + 1 < MODES.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    \"{}_seconds\": {:.4}{comma}",
            mode_name, grid.seconds[i]
        );
    }
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"engine_smoke\": {{");
    let _ = writeln!(s, "    \"jobs\": {},", engine.jobs);
    let _ = writeln!(s, "    \"cold_seconds\": {:.4},", engine.cold_seconds);
    let _ = writeln!(s, "    \"warm_seconds\": {:.4}", engine.warm_seconds);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"prefix_reuse\": {{");
    let _ = writeln!(s, "    \"schemes\": {},", prefix.schemes);
    let _ = writeln!(s, "    \"horizons\": {},", prefix.horizons);
    let _ = writeln!(s, "    \"declared_jobs\": {},", prefix.declared_jobs);
    let _ = writeln!(s, "    \"prefix_jobs\": {},", prefix.prefix_jobs);
    let _ = writeln!(s, "    \"prefix_shared\": {},", prefix.prefix_shared);
    let _ = writeln!(s, "    \"cold_epochs\": {},", prefix.cold_epochs);
    let _ = writeln!(s, "    \"forked_epochs\": {},", prefix.forked_epochs);
    let _ = writeln!(
        s,
        "    \"epoch_reduction\": {:.3},",
        prefix.cold_epochs as f64 / prefix.forked_epochs as f64
    );
    let _ = writeln!(s, "    \"cold_seconds\": {:.4},", prefix.cold_seconds);
    let _ = writeln!(s, "    \"forked_seconds\": {:.4},", prefix.forked_seconds);
    let _ = writeln!(
        s,
        "    \"wall_speedup\": {:.3},",
        prefix.cold_seconds / prefix.forked_seconds
    );
    let _ = writeln!(s, "    \"stores_identical\": {}", prefix.stores_identical);
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    let path = results_dir().join("sim_throughput.json");
    std::fs::write(&path, s).expect("write sim_throughput.json");
    eprintln!("[bench] wrote {}", path.display());
}

fn main() {
    let opts = Opts::from_args();
    let workloads = vec![
        // Memory-bound: one streaming warp, no ALU padding.
        report(
            "mem-bound-stream-n1",
            &UniformKernel::streaming(1, 0),
            WarpTuple::new(1, 1, 24),
            4,
            &opts,
        ),
        // Memory-bound at modest occupancy: still stall-dominated.
        report(
            "mem-bound-stream-n4",
            &UniformKernel::streaming(4, 2),
            WarpTuple::new(4, 4, 24),
            4,
            &opts,
        ),
        // Memory-bound at high occupancy on the full Table IIIb machine:
        // the SMs desynchronise, the global skip collapses, and only the
        // per-SM loop keeps skipping each SM's own stalls.
        report(
            "mem-bound-stream-n16",
            &UniformKernel::streaming(16, 2),
            WarpTuple::new(16, 16, 24),
            32,
            &opts,
        ),
        // Full occupancy beyond the MSHR file (48 outstanding loads
        // wanted vs 32 MSHRs) on the full machine: a structural reject
        // storm, the most expensive rows of a `GridSpec::full(24)`
        // profiling sweep. Ready warps retry every cycle, so neither
        // stepped mode can skip at all; the per-SM loop bulk-replays the
        // storm cycles.
        report(
            "reject-storm-stream-n24",
            &UniformKernel::streaming(24, 0),
            WarpTuple::new(24, 24, 24),
            32,
            &opts,
        ),
        // Compute-bound: long ALU stretches, full occupancy.
        report(
            "compute-bound",
            &UniformKernel::streaming(16, 40),
            WarpTuple::new(16, 16, 24),
            4,
            &opts,
        ),
    ];
    let grid = profile_grid_end_to_end(&opts);
    let engine = engine_end_to_end();
    let prefix = prefix_reuse_end_to_end(&opts);
    if opts.json {
        write_json(&opts, &workloads, &grid, &engine, &prefix);
    }
}
