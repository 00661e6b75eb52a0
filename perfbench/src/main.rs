//! The repository benchmark: end-to-end and per-layer metrics of the
//! simulator and the figure pipeline, from one process per run.
//!
//! ```text
//! perfbench --workload <sim-core|figures-smoke|prefix-ladder> [--seed N]
//!           [--seconds S] [--trace 0|1] [--out-dir DIR] [--tiny]
//! ```
//!
//! `perfbench/run.py` builds this binary and runs it; see
//! `perfbench/README.md` for the workloads, every metric and how to open
//! the trace. The last line of standard output is the result
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the full record (host block, digest, checks, every metric).

mod calib;
mod pipeline;
mod sim;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use poise::fabric::json::{obj, Json};
use workloads::digest::Sha256;

use crate::calib::Calib;
use crate::pipeline::Plan;
use crate::trace::Tracer;

const WORKLOADS: [&str; 3] = ["sim-core", "figures-smoke", "prefix-ladder"];

const USAGE: &str = "usage: perfbench --workload <sim-core|figures-smoke|prefix-ladder> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] [--tiny]";

/// The repository root (this package's parent directory).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// How long the measured passes run.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny knobs, for the self-test.
    pub tiny: bool,
    pub out_dir: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 30.0,
            trace: false,
            tiny: false,
            out_dir: repo_root().join(".perfbench_out"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                opts.tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--out-dir" => opts.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!("unknown workload {:?}", opts.workload));
        }
        if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(opts)
    }

    fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}{}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            if self.tiny { "-tiny" } else { "" }
        )
    }
}

/// Run `f` at engine thread budget `n`, then restore the benchmark's
/// budget of 1. Called only from the main thread while no other thread
/// of the process reads the environment.
pub fn with_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    std::env::set_var(gpu_sim::threadpool::BUDGET_ENV, n.to_string());
    let r = f();
    std::env::set_var(gpu_sim::threadpool::BUDGET_ENV, "1");
    r
}

/// Median of a non-empty sample (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// One metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything a run reports: operation and check counts, metrics, the
/// digest of simulated counters and figure outputs, and notes for the
/// record.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
    checks: u64,
    check_failures: Vec<String>,
    e2e: Vec<Metric>,
    /// The samples behind each end-to-end median, for the record.
    samples: Vec<(String, Vec<f64>)>,
    layers: Vec<Metric>,
    digest: Sha256,
    notes: Vec<(String, Json)>,
}

impl Report {
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record a correctness check; a failed check is a failed operation.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks += 1;
        if !ok {
            let what = what.into();
            eprintln!("[perfbench] CHECK FAILED: {what}");
            self.failed += 1;
            self.check_failures.push(what);
        }
    }

    fn metric(&mut self, name: String, value: f64, unit: &'static str) -> Metric {
        if !value.is_finite() {
            self.check(format!("metric {name} is finite (got {value})"), false);
        }
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        let m = self.metric(name.to_string(), value, unit);
        self.e2e.push(m);
    }

    /// An end-to-end metric that is the median of `samples`.
    pub fn e2e_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.e2e(name, median(samples), unit);
        self.samples.push((name.to_string(), samples.to_vec()));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let m = self.metric(name.into(), value, unit);
        self.layers.push(m);
    }

    /// Feed simulated counters or figure outputs into the run's digest.
    pub fn digest(&mut self, bytes: impl AsRef<[u8]>) {
        self.digest.update(bytes.as_ref());
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(logical CPUs, physical cores)` from `/proc/cpuinfo`; physical cores
/// are unique `(physical id, core id)` pairs.
fn cpuinfo() -> (usize, usize) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let mut logical = 0;
    let mut cores = std::collections::BTreeSet::new();
    let mut package = "0";
    for line in info.lines() {
        if let Some((k, v)) = line.split_once(':') {
            match k.trim() {
                "processor" => logical += 1,
                "physical id" => package = v.trim(),
                "core id" => {
                    cores.insert((package, v.trim()));
                }
                _ => {}
            }
        }
    }
    (
        logical,
        if cores.is_empty() {
            logical
        } else {
            cores.len()
        },
    )
}

/// `git rev-parse HEAD`, or `unknown` when the repository root is not a
/// git checkout (git would otherwise report an enclosing repository).
fn commit() -> String {
    if !repo_root().join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// SHA-256 over the sources that determine results (manifests, crate
/// sources, committed traces), in path order: identifies the code where
/// no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("traces"), &mut files);
    files.sort();
    let mut h = Sha256::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(&root).unwrap_or(&f);
            h.update(rel.to_string_lossy().as_bytes());
            h.update(b"\0");
            h.update(&bytes);
        }
    }
    h.finish_hex()
}

fn host_block() -> Json {
    let (logical, physical) = cpuinfo();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("commit", Json::Str(commit())),
        ("source_sha256", Json::Str(source_digest())),
        ("nproc", Json::Num(nproc as f64)),
        ("logical_cpus", Json::Num(logical as f64)),
        ("physical_cores", Json::Num(physical as f64)),
        (
            "thread_budget",
            Json::Num(gpu_sim::threadpool::thread_budget() as f64),
        ),
        (
            "rustc",
            Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
    ])
}

fn run(opts: &Opts) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let mut rep = Report::default();
    let mut t = Tracer::new(opts.trace);
    let cal = Arc::new(Calib::new());
    sim::noise_control(opts, &mut rep, &mut t);
    match opts.workload.as_str() {
        "sim-core" => {
            sim::sim_core(opts, &mut rep, &mut t, &cal);
            if opts.trace {
                let grid = sim::probes(opts, &mut rep, &mut t, &cal, false);
                let missing = pipeline::probe(opts, &mut rep, &mut t);
                pipeline::codec_probe(&grid, &missing, &mut rep, &mut t);
            }
        }
        fig => {
            let plan = if fig == "figures-smoke" {
                Plan::figures_smoke(opts.tiny)
            } else {
                Plan::prefix_ladder(opts.tiny)
            };
            let missing = pipeline::run(&plan, opts, &mut rep, &mut t, &cal);
            if opts.trace {
                let grid = sim::probes(opts, &mut rep, &mut t, &cal, true);
                pipeline::codec_probe(&grid, &missing, &mut rep, &mut t);
            }
        }
    }
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.note(
        "host_probe",
        obj(vec![
            ("count", Json::Num(cal.probes().len() as f64)),
            ("median_s", Json::Num(median(&cal.probes()))),
            ("reference_s", Json::Num(calib::REF_PROBE_S)),
        ]),
    );
    let stem = opts.stem();
    if opts.trace {
        rep.layer("trace.spans", t.span_count() as f64, "count");
        t.write(&opts.out_dir, &stem)?;
    }

    let correct = rep.failed == 0 && rep.check_failures.is_empty();
    let digest = std::mem::take(&mut rep.digest).finish_hex();
    let mut record = vec![
        ("bench", Json::Str("perfbench".into())),
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seed_applies", Json::Bool(opts.workload == "sim-core")),
        ("trace", Json::Bool(opts.trace)),
        ("seconds", Json::Num(opts.seconds)),
        ("tiny", Json::Bool(opts.tiny)),
        ("host", host_block()),
        ("digest", Json::Str(digest)),
        ("noisy", Json::Bool(rep.noisy)),
        ("checks", Json::Num(rep.checks as f64)),
        (
            "check_failures",
            Json::Arr(rep.check_failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(rep.attempted as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        ("end_to_end", metrics_json(&rep.e2e)),
        (
            "samples",
            Json::Obj(
                rep.samples
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("per_layer", metrics_json(&rep.layers)),
    ];
    let notes = std::mem::take(&mut rep.notes);
    record.extend(notes.iter().map(|(k, v)| (k.as_str(), v.clone())));
    let record = obj(record).render();
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(rep.attempted.max(1) as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        (
            "metrics",
            metrics_json(if opts.trace { &rep.layers } else { &rep.e2e }),
        ),
    ])
    .render();
    std::fs::write(opts.out_dir.join(format!("{stem}.record.json")), &record)?;
    std::fs::write(opts.out_dir.join(format!("{stem}.result.json")), &result)?;
    println!("{record}");
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("[perfbench] {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The environment is set before any thread exists: an engine thread
    // budget of 1 (one busy thread per run, so a run's times do not
    // depend on how the host schedules a second one), figure outputs
    // under the run's own results directory, the committed traces.
    std::env::set_var(gpu_sim::threadpool::BUDGET_ENV, "1");
    std::env::set_var("POISE_RESULTS_DIR", opts.out_dir.join("results"));
    std::env::remove_var("POISE_TRACES_DIR");
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            ExitCode::FAILURE
        }
    }
}
