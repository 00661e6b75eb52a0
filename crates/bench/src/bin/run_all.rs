//! One-command reproduction of the paper's evaluation section, writing
//! each output under `results/` (or `POISE_RESULTS_DIR`); see
//! EXPERIMENTS.md for the engine, the cache layout and the
//! paper-vs-measured record.
//!
//! Every registered figure declares its simulation jobs up front; the
//! unified experiment engine executes the deduplicated set once across
//! the host's cores (answering repeats from the content-addressed cache
//! in `results/cache/`), then every figure renders from the shared
//! results — replacing the old 21-process serial harness.
//!
//! Flags: `--keep-going` (render every figure even after failures, then
//! summarise), `--only <a,b,...>` (exact names or underscore prefixes,
//! e.g. `fig12`; one figure is `--only fig07`; an entry that matches no
//! figure is an error), `--list` (plan as a run would, print the
//! selected figures), `--gc` (prune cache entries the
//! current job set no longer references), `--set <knob>=<value>` (apply
//! a knob to the base setup, e.g. `--set sms=32`), and `--sweep
//! <knob>=<v1,v2,..>` (sweep a knob across every selected figure's plan
//! — see `poise::plan` and the "Plans & sweeps" section of
//! EXPERIMENTS.md for the knob grammar). Any other argument is an
//! error.
//!
//! Robustness: `--inject seed=S,rate=P[,kinds=a+b]` turns on
//! deterministic fault injection (panics, torn cache writes, bit flips
//! — see `poise::faults`). A job executes once: a panicked job fails
//! with its dependants, and corrupt cache entries are quarantined and
//! re-run. Failed points render as `MISSING` cells and every failed job
//! gets one line in `results/run_all_failures.txt`. `--fsck`
//! re-validates the whole cache offline and takes no other flag. Exit
//! codes: 0 clean, 1 hard failures or a bad command line, 3 pass after
//! quarantining corrupt cache entries (see "Failure handling & fault
//! injection" in EXPERIMENTS.md).
//!
//! Editing any job input (kernel specs, schemes, parameters, machine
//! configuration) invalidates exactly the affected cache entries, and
//! every key carries a digest of the sources that compute the results,
//! so the first pass after an edit to that code is cold.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    poise_bench::figures::run_all_main(&args)
}
