//! The figure pipeline (`plan`, `jobs`, `cache`, codecs, `digest` and the
//! figure renderers): the `figures-smoke` and `prefix-ladder` workloads.
//!
//! A pass is what `run_all` does in process: `plan_jobs`, then
//! `Engine::run`, then every figure's `render`. A cold pass starts from an
//! empty results directory; warm passes follow over the warmed store.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use poise::cache::{Cache, Lookup};
use poise::fabric::json::{obj, Json};
use poise::jobs::{
    Engine, JobEvent, JobOutput, JobStatus, ProgressSink, ResultStore, RunReport, SimJob,
};
use poise::plan::KnobOverlay;
use poise::Scheme;
use poise_bench::figures::{plan_jobs, FigCtx};
use poise_ml::SpeedupGrid;
use workloads::digest::Sha256;

use crate::calib::{Calib, Clock};
use crate::trace::Tracer;
use crate::{median, Opts, Report};

/// Warm passes after each cold pass.
const WARM_PASSES: usize = 5;
/// Cold passes an untraced run makes even when `--seconds` runs out
/// first: `cold_s` is their median.
const MIN_COLD_PASSES: usize = 3;
/// Set-ups timed before the first pass; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Seconds after which the pass clock is split at the next job event.
const PIECE_S: f64 = 0.25;
/// The job kinds whose codecs are reported.
const CODEC_KINDS: [&str; 4] = ["run", "profile", "sample", "prefix"];

/// A `run_all` invocation: its `--set`, `--sweep` and `--only` arguments.
pub struct Plan {
    sets: Vec<String>,
    sweeps: Vec<String>,
    only: Option<Vec<String>>,
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

impl Plan {
    /// All 23 figures at smoke knobs. The profile window is shortened
    /// from its default (18k + 8k cycles) because profile and sample jobs
    /// dominate a cold pass whatever the other knobs say; the short pass
    /// lets a run take several cold passes.
    pub fn figures_smoke(tiny: bool) -> Plan {
        let sets: &[&str] = if tiny {
            &["sms=1", "kernels_cap=1", "train_cap=4", "run_cycles=20000"]
        } else {
            &[
                "sms=1",
                "kernels_cap=1",
                "train_cap=4",
                "run_cycles=10000",
                "profile_warmup=2000",
                "profile_measure=1000",
            ]
        };
        Plan {
            sets: strings(sets),
            sweeps: Vec::new(),
            only: None,
        }
    }

    /// A four-rung `run_cycles` ladder over Fig. 12.
    pub fn prefix_ladder(tiny: bool) -> Plan {
        let (sets, sweep): (&[&str], &str) = if tiny {
            (&["sms=1", "train_cap=4"], "run_cycles=10000,20000")
        } else {
            (&["sms=2"], "run_cycles=25000,50000,75000,100000")
        };
        Plan {
            sets: strings(sets),
            sweeps: vec![sweep.to_string()],
            only: Some(vec!["fig12_cache_size".to_string()]),
        }
    }

    /// The equivalent `run_all` arguments, for the record.
    fn args(&self) -> String {
        let mut a: Vec<String> = Vec::new();
        for s in &self.sets {
            a.push(format!("--set {s}"));
        }
        for s in &self.sweeps {
            a.push(format!("--sweep {s}"));
        }
        if let Some(o) = &self.only {
            a.push(format!("--only {}", o.join(",")));
        }
        a.join(" ")
    }
}

/// One pass's results and timings.
struct Pass {
    total_s: f64,
    plan_s: f64,
    engine_s: f64,
    render_s: f64,
    report: RunReport,
    store: ResultStore,
    /// The factored job list the engine ran.
    jobs: Vec<SimJob>,
    /// The unfactored `Figure::expand` job lists, concatenated.
    expanded: Vec<SimJob>,
    sweep_shared: usize,
    prefix_shared: usize,
    render_failures: Vec<String>,
    /// Normalised wall seconds of each executed job, by spec hash.
    job_s: HashMap<String, f64>,
}

fn pass(plan: &Plan, engine: &Engine, label: &str, t: &mut Tracer) -> Result<Pass, String> {
    let (pass, total_s) = t.span(label, |t| -> Result<Pass, String> {
        let (planned, plan_s) = t.span("plan.plan_jobs", |_| {
            plan_jobs(
                KnobOverlay::default(),
                &plan.sets,
                &plan.sweeps,
                plan.only.as_deref(),
                false,
            )
        });
        let planned = planned?;
        let (ctx, _) = t.span("plan.fig_ctx", |_| FigCtx::new(planned.setup.clone()));
        let ((store, report), engine_s) = t.span("jobs.engine_run", |_| engine.run(&planned.jobs));
        let mut render_s = 0.0;
        let mut render_failures = Vec::new();
        for (fig, exp) in planned.figures.iter().zip(&planned.expansions) {
            let (r, secs) = t.span(&format!("render.{}", fig.name), |_| {
                (fig.render)(&ctx, &exp.points, &store)
            });
            render_s += secs;
            if let Err(e) = r {
                render_failures.push(format!("{}: {e}", fig.name));
            }
        }
        Ok(Pass {
            total_s: 0.0,
            plan_s,
            engine_s,
            render_s,
            report,
            store,
            expanded: planned
                .expansions
                .iter()
                .flat_map(|e| e.jobs.clone())
                .collect(),
            jobs: planned.jobs,
            sweep_shared: planned.sweep_shared,
            prefix_shared: planned.prefix_shared,
            render_failures,
            job_s: HashMap::new(),
        })
    });
    pass.map(|p| Pass { total_s, ..p })
}

/// A fresh, empty results directory and an engine over it.
fn fresh_engine(results: &Path) -> Engine {
    let _ = std::fs::remove_dir_all(results);
    std::fs::create_dir_all(results).expect("create results dir");
    new_engine(results)
}

/// `Engine::new` over a results directory's cache: the set-up every
/// pass, cold or warm, starts with.
fn new_engine(results: &Path) -> Engine {
    let mut engine = Engine::new(results.join("cache"));
    engine.quiet = true;
    engine
}

/// Normalised seconds per set-up, the median of [`SETUP_REPS`], each
/// between two host-speed probes. A set-up is what `run_all` does before
/// its engine runs the first job: `plan_jobs`, `FigCtx::new` and
/// `Engine::new` over the results directory. Creating the directory is
/// left out: on a shared disk a `mkdir` took from 10 µs to 800 µs within
/// one hour, whatever the code did.
fn setup_s(plan: &Plan, results: &Path, cal: &Calib) -> Result<f64, String> {
    fresh_engine(results);
    let mut before = cal.probe();
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let planned = plan_jobs(
            KnobOverlay::default(),
            &plan.sets,
            &plan.sweeps,
            plan.only.as_deref(),
            false,
        )?;
        std::hint::black_box(FigCtx::new(planned.setup.clone()));
        std::hint::black_box(new_engine(results));
        let raw = t.elapsed().as_secs_f64();
        let after = cal.probe();
        samples.push(Calib::norm(raw, before, after));
        before = after;
    }
    Ok(median(&samples))
}

/// The engine's progress sink during a timed pass. It splits the pass
/// clock at the first job event after each [`PIECE_S`], so host-speed
/// probes fall between jobs, and scales each executed job's wall by the
/// piece it ran in.
#[derive(Default)]
struct PassClock(Mutex<Option<ClockState>>);

struct ClockState {
    clock: Clock,
    /// Executed jobs of the open piece: spec hash and raw wall.
    piece: Vec<(String, f64)>,
    job_s: HashMap<String, f64>,
}

impl ClockState {
    fn split(&mut self) {
        let scale = self.clock.split();
        self.job_s
            .extend(self.piece.drain(..).map(|(h, wall)| (h, wall * scale)));
    }
}

impl ProgressSink for PassClock {
    fn job_event(&self, e: &JobEvent) {
        let mut guard = self.0.lock().expect("pass clock");
        let Some(st) = guard.as_mut() else {
            return;
        };
        if matches!(e.status, JobStatus::Done | JobStatus::Recovered) {
            st.piece.push((e.spec_hash.clone(), e.wall));
        }
        if st.clock.piece_s() >= PIECE_S {
            st.split();
        }
    }
}

/// A [`pass`] timed by a piecewise-normalised clock: `total_s` is its
/// normalised time, probes excluded, and `job_s` its executed jobs'.
fn probed_pass(
    plan: &Plan,
    engine: &Engine,
    clock: &PassClock,
    label: &str,
    t: &mut Tracer,
    cal: &Arc<Calib>,
) -> Result<Pass, String> {
    *clock.0.lock().expect("pass clock") = Some(ClockState {
        clock: Clock::start(cal.clone()),
        piece: Vec::new(),
        job_s: HashMap::new(),
    });
    let p = pass(plan, engine, label, t);
    let mut st = clock.0.lock().expect("pass clock").take().expect("clock set");
    st.split();
    let mut p = p?;
    p.total_s = st.clock.totals().1;
    p.job_s = st.job_s;
    Ok(p)
}

/// The figure files of a results directory (the cache excluded).
fn figure_files(results: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for e in std::fs::read_dir(results)
        .expect("read results dir")
        .flatten()
    {
        if e.path().is_file() {
            let name = e.file_name().to_string_lossy().into_owned();
            files.insert(name, std::fs::read(e.path()).expect("read figure file"));
        }
    }
    files
}

/// Digest of the figure files. `sm_scaling` reports simulator throughput
/// from recorded execution walls, which differ run to run; its
/// `sim Mcyc/s` column (the fifth) is left out of the digest.
fn figures_digest(files: &BTreeMap<String, Vec<u8>>) -> String {
    let mut h = Sha256::new();
    for (name, bytes) in files {
        h.update(name.as_bytes());
        h.update(b"\0");
        if name == "sm_scaling.txt" {
            for line in String::from_utf8_lossy(bytes).lines() {
                let mut f: Vec<&str> = line.split_whitespace().collect();
                if f.len() == 6 && f[0].parse::<usize>().is_ok() {
                    f.remove(4);
                }
                h.update(f.join(" ").as_bytes());
                h.update(b"\n");
            }
        } else {
            h.update(bytes);
        }
    }
    h.finish_hex()
}

/// Checks common to every pass.
fn check_pass(p: &Pass, rep: &mut Report, what: &str) {
    rep.ops(p.report.total as u64);
    rep.check(
        format!("{what}: every figure renders"),
        p.render_failures.is_empty(),
    );
    for f in &p.render_failures {
        eprintln!("[perfbench] {what}: render failed: {f}");
    }
    rep.check(
        format!("{what}: RunReport lists no failures"),
        p.report.failed.is_empty(),
    );
    for (label, e) in &p.report.failed {
        eprintln!("[perfbench] {what}: job {label} failed: {e}");
    }
    rep.failed += p.report.failed.len() as u64;
}

/// Cycles a `Run` or `Prefix` job simulates itself: its horizon minus the
/// deepest prefix barrier it forks from, once per random-restart seed.
fn own_cycles(job: &SimJob) -> u64 {
    let (SimJob::Run(r) | SimJob::Prefix(r)) = job else {
        return 0;
    };
    let fork = r
        .prefix_chain
        .iter()
        .copied()
        .filter(|&b| b <= r.run_cycles)
        .max()
        .unwrap_or(0);
    let reps = if r.scheme == Scheme::RandomRestart {
        r.rr_seeds.len().max(1) as u64
    } else {
        1
    };
    (r.run_cycles - fork) * reps
}

fn unique(jobs: &[SimJob]) -> Vec<&SimJob> {
    let mut seen = HashSet::new();
    jobs.iter().filter(|j| seen.insert(j.spec_text())).collect()
}

/// Simulated cycles per normalised second of job wall time over the
/// `Run` and `Prefix` jobs a cold pass executed, and how many of them
/// the pass clock did not time.
fn engine_sim_rate(p: &Pass) -> (f64, usize) {
    let (mut cycles, mut secs, mut untimed) = (0u64, 0.0, 0);
    for job in unique(&p.jobs) {
        let c = own_cycles(job);
        if c == 0 || p.store.wall(job).is_none() {
            continue;
        }
        let mut h = Sha256::new();
        h.update(job.spec_text().as_bytes());
        match p.job_s.get(&h.finish_hex()) {
            Some(s) => {
                cycles += c;
                secs += s;
            }
            None => untimed += 1,
        }
    }
    (cycles as f64 / secs / 1e6, untimed)
}

/// Per-kind codec timings: (encode µs, decode µs) per entry.
type CodecTimes = BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>;

/// Encode and decode one output, checking the round trip.
fn time_codec(
    kind: &'static str,
    out: &JobOutput,
    times: &mut CodecTimes,
    rep: &mut Report,
    t: &mut Tracer,
) {
    let (text, enc) = t.span(&format!("codec.encode.{kind}"), |_| out.to_text());
    let (back, dec) = t.span(&format!("codec.decode.{kind}"), |_| {
        JobOutput::from_text(kind, &text)
    });
    rep.check(
        format!("codec round trip ({kind})"),
        back.is_some_and(|b| b.to_text() == text),
    );
    let e = times.entry(kind).or_default();
    e.0.push(enc * 1e6);
    e.1.push(dec * 1e6);
}

/// The job graph closure (dependencies included), unique by spec.
fn closure(jobs: &[SimJob]) -> Vec<SimJob> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut stack: Vec<SimJob> = jobs.to_vec();
    while let Some(j) = stack.pop() {
        if seen.insert(j.spec_text()) {
            stack.extend(j.deps());
            out.push(j);
        }
    }
    out
}

/// Cache entries as `(kind, key, path)`, in file-name order.
fn cache_entries(root: &Path) -> Vec<(String, String, PathBuf)> {
    let mut entries: Vec<_> = std::fs::read_dir(root)
        .expect("read cache dir")
        .flatten()
        .filter(|e| e.path().is_file())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let stem = name.strip_suffix(".txt")?;
            let (kind, key) = stem.split_once('-')?;
            Some((kind.to_string(), key.to_string(), e.path()))
        })
        .collect();
    entries.sort();
    entries
}

/// The `# spec:` block of a cache entry, as `Cache::store` takes it.
fn entry_spec(text: &str) -> String {
    text.lines()
        .skip_while(|l| *l != "# spec:")
        .skip(1)
        .take_while(|l| *l != "# end-spec")
        .map(|l| l.strip_prefix("#   ").unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run a figure workload: the set-up timings, then cold passes each
/// followed by warm passes, for `opts.seconds` and at least
/// [`MIN_COLD_PASSES`] after an untimed first one (a traced run makes one
/// untraced and one traced pass instead). Pass times and rates are normalised by host-speed
/// probes. A traced run returns the codec kinds the workload did not
/// exercise.
pub fn run(
    plan: &Plan,
    opts: &Opts,
    rep: &mut Report,
    t: &mut Tracer,
    cal: &Arc<Calib>,
) -> Vec<&'static str> {
    let results = opts.out_dir.join("results");
    rep.note(
        "pass",
        obj(vec![
            ("run_all_args", Json::Str(plan.args())),
            ("warm_passes_per_cold", Json::Num(WARM_PASSES as f64)),
        ]),
    );
    let setup = setup_s(plan, &results, cal).unwrap_or_else(|e| {
        rep.check(format!("set-up plan_jobs: {e}"), false);
        f64::NAN
    });
    let (mut cold, mut warm, mut rates) = (vec![], vec![], vec![]);
    let mut digest: Option<String> = None;
    let mut traced: Option<(Pass, Vec<Pass>, Engine)> = None;
    let mut untraced_cold_warm = (0.0, 0.0);
    let mut off = Tracer::new(false);
    let clock = Arc::new(PassClock::default());
    let start = Instant::now();
    for i in 0.. {
        let trace_this = t.on() && i == 1;
        let tr: &mut Tracer = if trace_this { &mut *t } else { &mut off };
        let mut engine = fresh_engine(&results);
        engine.progress = Some(clock.clone());
        let mut c = match probed_pass(plan, &engine, &clock, "pass.cold", tr, cal) {
            Ok(c) => c,
            Err(e) => {
                rep.check(format!("plan_jobs: {e}"), false);
                break;
            }
        };
        check_pass(&c, rep, "cold pass");
        let files = figure_files(&results);
        let d = figures_digest(&files);
        match &digest {
            None => {
                rep.digest(d.as_bytes());
                digest = Some(d);
            }
            Some(first) => rep.check("figure digest repeats across cold passes", *first == d),
        }
        let (rate, untimed) = engine_sim_rate(&c);
        rep.check(
            format!("cold pass: every executed run job timed ({untimed} not)"),
            untimed == 0,
        );
        if !trace_this {
            // A user's warm re-run is a new process: the cold pass's
            // results must not inflate the warm passes' memory.
            c.store = ResultStore::default();
        }
        let mut warms = Vec::new();
        for _ in 0..WARM_PASSES {
            let Ok(mut w) = probed_pass(plan, &engine, &clock, "pass.warm", tr, cal) else {
                rep.check("warm plan_jobs", false);
                continue;
            };
            check_pass(&w, rep, "warm pass");
            rep.check(
                "warm pass is 100% cache hits",
                w.report.cache_hits == w.report.total && w.report.executed == 0,
            );
            rep.check(
                "warm figure files byte-identical to cold",
                figure_files(&results) == files,
            );
            w.store = ResultStore::default();
            warms.push(w);
        }
        let pass_s = c.total_s + warms.iter().map(|w| w.total_s).sum::<f64>();
        let warm_med = median(&warms.iter().map(|w| w.total_s).collect::<Vec<_>>());
        if trace_this {
            rep.layer(
                "trace.cold_overhead_pct",
                100.0 * (c.total_s / untraced_cold_warm.0 - 1.0),
                "%",
            );
            rep.layer(
                "trace.warm_overhead_pct",
                100.0 * (warm_med / untraced_cold_warm.1 - 1.0),
                "%",
            );
            traced = Some((c, warms, engine));
            break;
        }
        untraced_cold_warm = (c.total_s, warm_med);
        if i == 0 && !t.on() {
            // The first pass warms the process (allocator, page cache,
            // lazily loaded traces); it is checked but not timed.
            continue;
        }
        cold.push(c.total_s);
        warm.extend(warms.iter().map(|w| w.total_s));
        rates.push(rate);
        if !t.on()
            && cold.len() >= MIN_COLD_PASSES
            && start.elapsed().as_secs_f64() + pass_s > opts.seconds
        {
            break;
        }
    }
    rep.note("passes", Json::Num(cold.len() as f64));
    rep.e2e_median("sim_mcycles_per_s", &rates, "Mcycles/s");
    rep.e2e_median("cold_s", &cold, "s");
    rep.e2e_median("warm_s", &warm, "s");
    rep.e2e("setup_s", setup, "s");

    match traced {
        Some((c, warms, engine)) => pipeline_layers(&c, &warms, &engine, opts, rep, t),
        None => Vec::new(),
    }
}

/// The pipeline layers for a workload that runs no figures (`sim-core`):
/// one traced cold pass of the tiny `figures-smoke` plan and its warm
/// passes. Returns the codec kinds the plan did not exercise.
pub fn probe(opts: &Opts, rep: &mut Report, t: &mut Tracer) -> Vec<&'static str> {
    let plan = Plan::figures_smoke(true);
    let engine = fresh_engine(&opts.out_dir.join("results"));
    let passes: Result<Vec<Pass>, String> = (0..=WARM_PASSES)
        .map(|i| {
            pass(
                &plan,
                &engine,
                if i == 0 { "pass.cold" } else { "pass.warm" },
                t,
            )
        })
        .collect();
    match passes {
        Ok(mut passes) => {
            for p in &passes {
                check_pass(p, rep, "pipeline probe");
            }
            let c = passes.remove(0);
            pipeline_layers(&c, &passes, &engine, opts, rep, t)
        }
        Err(e) => {
            rep.check(format!("pipeline probe plan_jobs: {e}"), false);
            CODEC_KINDS.to_vec()
        }
    }
}

/// Per-layer metrics of the traced passes. Returns the codec kinds the
/// workload did not exercise.
fn pipeline_layers(
    c: &Pass,
    warms: &[Pass],
    engine: &Engine,
    opts: &Opts,
    rep: &mut Report,
    t: &mut Tracer,
) -> Vec<&'static str> {
    let mut plan_s: Vec<f64> = warms.iter().map(|w| w.plan_s).collect();
    plan_s.push(c.plan_s);
    rep.layer("plan.plan_jobs_s", median(&plan_s), "s");
    rep.layer("plan.declared_jobs", c.jobs.len() as f64, "count");
    rep.layer("plan.unique_jobs", c.report.total as f64, "count");
    rep.layer("plan.sweep_shared", c.sweep_shared as f64, "count");
    rep.layer("plan.prefix_shared", c.prefix_shared as f64, "count");

    let warm_engine: Vec<f64> = warms.iter().map(|w| w.engine_s).collect();
    rep.layer("jobs.engine_cold_s", c.engine_s, "s");
    rep.layer("jobs.engine_warm_s", median(&warm_engine), "s");
    rep.layer("jobs.executed", c.report.executed as f64, "count");
    rep.layer(
        "jobs.cache_hits",
        warms.iter().map(|w| w.report.cache_hits).sum::<usize>() as f64,
        "count",
    );
    rep.layer(
        "jobs.retried",
        (c.report.retried + warms.iter().map(|w| w.report.retried).sum::<usize>()) as f64,
        "count",
    );
    prefix_layers(c, opts, rep, t);

    let root = engine.cache().root().to_path_buf();
    cache_layers(engine.cache(), &root, opts, rep, t);

    let mut times = CodecTimes::new();
    for job in closure(&c.jobs) {
        let Some(kind) = CODEC_KINDS.iter().copied().find(|k| *k == job.kind()) else {
            continue;
        };
        match c.store.get(&job) {
            Ok(out) => time_codec(kind, out, &mut times, rep, t),
            Err(e) => rep.check(format!("store has {}: {e}", job.label()), false),
        }
    }
    codec_layers(&times, rep);

    let render: Vec<f64> = warms.iter().map(|w| w.render_s).collect();
    rep.layer("render.s", median(&render), "s");
    CODEC_KINDS
        .iter()
        .copied()
        .filter(|k| !times.contains_key(k))
        .collect()
}

fn codec_layers(times: &CodecTimes, rep: &mut Report) {
    for (kind, (enc, dec)) in times {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        rep.layer(format!("codec.encode_us.{kind}"), mean(enc), "us");
        rep.layer(format!("codec.decode_us.{kind}"), mean(dec), "us");
    }
}

/// Codec timings for kinds the workload lacks, from a probe output
/// (the profiler probe's grid for `profile`).
pub fn codec_probe(grid: &SpeedupGrid, kinds: &[&'static str], rep: &mut Report, t: &mut Tracer) {
    let mut times = CodecTimes::new();
    for &kind in kinds {
        match kind {
            "profile" => {
                let out = JobOutput::Grid(grid.clone());
                for _ in 0..20 {
                    time_codec(kind, &out, &mut times, rep, t);
                }
            }
            other => rep.check(format!("no probe for codec kind {other}"), false),
        }
    }
    codec_layers(&times, rep);
}

/// `jobs.prefix.*`: simulated epochs and cold engine wall of the
/// unfactored `Figure::expand` job list against the factored one.
fn prefix_layers(c: &Pass, opts: &Opts, rep: &mut Report, t: &mut Tracer) {
    let epochs = |jobs: &[SimJob]| unique(jobs).into_iter().map(own_cycles).sum::<u64>();
    let (factored, unfactored) = (epochs(&c.jobs), epochs(&c.expanded));
    rep.layer(
        "jobs.prefix.epoch_ratio",
        unfactored as f64 / factored as f64,
        "ratio",
    );
    if c.prefix_shared == 0 {
        rep.layer("jobs.prefix.wall_ratio", 1.0, "ratio");
        return;
    }
    let dir = opts.out_dir.join("unfactored");
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = Engine::new(dir.join("cache"));
    engine.quiet = true;
    let ((store, report), secs) = t.span("jobs.engine_run_unfactored", |_| engine.run(&c.expanded));
    rep.ops(report.total as u64);
    rep.check("unfactored run lists no failures", report.failed.is_empty());
    rep.layer("jobs.prefix.wall_ratio", secs / c.engine_s, "ratio");
    // Factoring rewrites runs in place and appends prefixes, so the two
    // lists align index by index: forked runs must equal cold ones.
    let same = c
        .expanded
        .iter()
        .zip(&c.jobs)
        .all(|(u, f)| match (store.get(u), c.store.get(f)) {
            (Ok(a), Ok(b)) => a.to_text() == b.to_text(),
            _ => false,
        });
    rep.check("prefix-forked outputs equal unfactored outputs", same);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache.*` and `digest.*` over the warmed store.
fn cache_layers(cache: &Cache, root: &Path, opts: &Opts, rep: &mut Report, t: &mut Tracer) {
    let entries = cache_entries(root);
    let mut lookup = Vec::new();
    let mut bodies = Vec::new();
    let mut bytes = 0u64;
    for (kind, key, path) in &entries {
        bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        let (hit, secs) = t.span("cache.lookup", |_| cache.lookup(kind, key));
        lookup.push(secs * 1e6);
        match hit {
            Lookup::Hit(body, wall) => bodies.push((kind, key, path, body, wall)),
            other => rep.check(format!("cache lookup {kind}-{key}: {other:?}"), false),
        }
    }
    rep.layer(
        "cache.lookup_us",
        lookup.iter().sum::<f64>() / lookup.len().max(1) as f64,
        "us",
    );
    rep.layer("cache.bytes", bytes as f64, "bytes");

    // Re-store every entry into a scratch cache; the copies must be
    // byte-identical to the originals.
    let dir = opts.out_dir.join("restore");
    let _ = std::fs::remove_dir_all(&dir);
    let scratch = Cache::new(&dir);
    let (mut store_s, mut identical) = (0.0, true);
    let mut all = Vec::with_capacity(bytes as usize);
    for (kind, key, path, body, wall) in &bodies {
        let text = std::fs::read(path).expect("read cache entry");
        let spec = entry_spec(&String::from_utf8_lossy(&text));
        let (_, secs) = t.span("cache.store", |_| {
            scratch.store(kind, key, &spec, body, *wall)
        });
        store_s += secs;
        identical &=
            std::fs::read(dir.join(format!("{kind}-{key}.txt"))).ok() == Some(text.clone());
        all.extend_from_slice(&text);
    }
    rep.check("re-stored cache entries are byte-identical", identical);
    rep.layer("cache.store_mb_per_s", bytes as f64 / 1e6 / store_s, "MB/s");
    let _ = std::fs::remove_dir_all(&dir);

    let (_, secs) = t.span("digest.sha256", |_| {
        let mut h = Sha256::new();
        h.update(std::hint::black_box(&all));
        h.finish_hex()
    });
    rep.layer(
        "digest.sha256_mb_per_s",
        all.len() as f64 / 1e6 / secs,
        "MB/s",
    );
}
