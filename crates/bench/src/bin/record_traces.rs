//! Record the committed trace workloads under `traces/` — one per
//! synthetic kernel class (streaming, hot-set, shared-heavy,
//! compute-bound).
//!
//! ```sh
//! cargo run --release -p poise-bench --bin record_traces
//! ```
//!
//! Flags: `--out <dir>` (default the workspace `traces/`),
//! `--ops <n>` per-warp recording horizon (default 2600), `--sms <n>`
//! recorded SM count (default 1; replay folds larger machines onto the
//! recorded geometry modulo). Any other argument, a flag without its
//! value or a value that is not a positive integer is an error (exit
//! 1, naming it) before anything is written.
//!
//! The shipped traces are recorded at 1 SM × 2 schedulers × 8 warps so
//! the files stay reviewably small. `crates/core/tests/trace_replay.rs`
//! pins the record→replay differential (counters, steering and Poise's
//! epoch log, every policy, every step mode) in the tier-1 suite.

use std::path::PathBuf;
use std::process::ExitCode;

use gpu_sim::GpuConfig;
use workloads::{record_kernel, AccessMix, KernelSpec, TraceRef};

/// The four shipped kernel classes.
fn trace_kernels() -> Vec<(&'static str, KernelSpec)> {
    let mut streaming = AccessMix::memory_sensitive();
    streaming.stream_frac = 0.6;
    streaming.hot_frac = 0.2;
    let hotset = AccessMix::memory_sensitive();
    let mut shared = AccessMix::memory_sensitive();
    shared.shared_frac = 0.55;
    shared.shared_lines = 72;
    shared.hot_frac = 0.4;
    let compute = AccessMix::compute_intensive();
    vec![
        (
            "streaming",
            KernelSpec::steady("trace-streaming", streaming, 71).with_warps(8),
        ),
        (
            "hotset",
            KernelSpec::steady("trace-hotset", hotset, 72).with_warps(8),
        ),
        (
            "shared",
            KernelSpec::steady("trace-shared", shared, 73).with_warps(8),
        ),
        (
            "compute",
            KernelSpec::steady("trace-compute", compute, 74).with_warps(8),
        ),
    ]
}

/// The command line (see the module docs).
struct Args {
    out: PathBuf,
    ops: usize,
    sms: usize,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut a = Args {
            out: poise_bench::traces_dir(),
            ops: 2_600,
            sms: 1,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs an argument"))
            };
            let count = |v: &String| {
                v.parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| format!("{flag} must be a positive integer, got `{v}`"))
            };
            match flag.as_str() {
                "--out" => a.out = PathBuf::from(value()?),
                "--ops" => a.ops = count(value()?)?,
                "--sms" => a.sms = count(value()?)?,
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (flags: --out, --ops, --sms)"
                    ))
                }
            }
        }
        Ok(a)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { out, ops, sms } = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[record_traces] {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = GpuConfig::scaled(1);

    for (class, spec) in trace_kernels() {
        let data = record_kernel(&spec, &spec.name, sms, cfg.schedulers_per_sm, ops);
        let path = out.join(format!("{class}.trace"));
        match TraceRef::write(&data, &path) {
            Ok(t) => println!(
                "[record_traces] wrote {} ({} warps x <= {ops} ops, {} instrs, digest {})",
                path.display(),
                sms * cfg.schedulers_per_sm * data.warps_per_scheduler,
                data.total_instructions(),
                &t.digest[..12],
            ),
            Err(e) => {
                eprintln!("[record_traces] {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
