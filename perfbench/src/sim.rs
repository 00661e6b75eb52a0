//! The simulator layer (`gpu-sim`): the `sim-core` workload, the
//! same-loop noise control every run takes, and the gpu-sim, snapshot and
//! profiler probes of the traced run.

use std::time::Instant;

use gpu_sim::{
    Counters, FixedTuple, Gpu, GpuConfig, KernelSource, SimResult, StepMode, UniformKernel,
    WarpTuple,
};
use poise::fabric::json::{obj, Json};
use poise::profiler::{profile_grid, GridSpec, ProfileWindow};
use poise_ml::SpeedupGrid;
use workloads::{AccessMix, KernelSpec, Workload};

use crate::calib::Calib;
use crate::trace::Tracer;
use crate::{median, with_budget, Opts, Report};

/// One `sim-core` kernel: a seeded steady kernel at a fixed tuple.
pub struct SimKernel {
    pub name: &'static str,
    pub spec: KernelSpec,
    pub tuple: WarpTuple,
}

/// The three `sim-core` kernels. `seed` picks their generator seeds.
pub fn kernels(seed: u64) -> Vec<SimKernel> {
    let k = |name: &'static str, mix: AccessMix, i: u64, n: usize| SimKernel {
        name,
        spec: KernelSpec::steady(name, mix, derive_seed(seed, i)),
        tuple: WarpTuple::new(n, n, 24),
    };
    vec![
        k("mem-n16", AccessMix::memory_sensitive(), 1, 16),
        // Beyond the 32 MSHRs: the reject-storm regime.
        k("mem-n24", AccessMix::memory_sensitive(), 2, 24),
        k("compute", AccessMix::compute_intensive(), 3, 24),
    ]
}

/// SplitMix64 of `seed` and a stream index: independent kernel seeds
/// from one run seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Machine and pass sizes.
pub struct Size {
    /// The machine every sim-core, noise-control and probe run uses.
    pub cfg: GpuConfig,
    /// Cycles of each cold and each warm segment of a `sim-core` round.
    pub cycles: u64,
    /// Cycles of the `Reference` cross-check.
    pub reference_cycles: u64,
    /// Cycles of each noise-control run.
    pub noise_cycles: u64,
    /// Cycles simulated before the snapshot probe snapshots.
    pub snapshot_at: u64,
    /// The profiler probe's machine, grid and window.
    pub grid_sms: usize,
    pub grid_max_n: usize,
    pub grid_window: ProfileWindow,
}

impl Size {
    pub fn new(tiny: bool) -> Self {
        if tiny {
            Size {
                cfg: GpuConfig::scaled(2),
                cycles: 4_000,
                reference_cycles: 1_000,
                noise_cycles: 2_000,
                snapshot_at: 2_000,
                grid_sms: 1,
                grid_max_n: 8,
                grid_window: ProfileWindow {
                    warmup: 500,
                    measure: 1_000,
                },
            }
        } else {
            Size {
                // Table IIIb: 32 SMs.
                cfg: GpuConfig::baseline(),
                cycles: 100_000,
                reference_cycles: 5_000,
                noise_cycles: 30_000,
                snapshot_at: 20_000,
                grid_sms: 2,
                grid_max_n: 24,
                grid_window: ProfileWindow::default(),
            }
        }
    }

    fn cfg(&self, (mode, threads): Mode) -> GpuConfig {
        let mut cfg = self.cfg.clone();
        cfg.step_mode = mode;
        cfg.sim_threads = threads;
        cfg
    }
}

/// A run loop: step mode and simulation threads.
type Mode = (StepMode, usize);
const PER_SM: Mode = (StepMode::PerSm, 1);
/// Dispatched by `Gpu::run` to the same loop as `PerSm`.
const PARALLEL_T1: Mode = (StepMode::ParallelSm, 1);
const PARALLEL_T2: Mode = (StepMode::ParallelSm, 2);
const REFERENCE: Mode = (StepMode::Reference, 1);

fn mode_name((mode, threads): Mode) -> String {
    match mode {
        StepMode::PerSm => "per_sm".to_string(),
        StepMode::ParallelSm => format!("parallel_t{threads}"),
        StepMode::EventDriven => "event_driven".to_string(),
        StepMode::Reference => "reference".to_string(),
    }
}

/// `Gpu::run` under a fixed-tuple controller, as a `gpu.run.<label>` span.
fn run(
    gpu: &mut Gpu,
    tuple: WarpTuple,
    cycles: u64,
    label: &str,
    t: &mut Tracer,
) -> (SimResult, f64) {
    t.span(&format!("gpu.run.{label}"), |_| {
        gpu.run(&mut FixedTuple::new(tuple), cycles)
    })
}

fn counters_text(c: &Counters) -> String {
    format!("{c:?}\n")
}

/// One fresh machine run for `cycles` under `mode`; returns the result
/// and the seconds inside `Gpu::run`.
fn fresh_run(
    size: &Size,
    kernel: &dyn KernelSource,
    tuple: WarpTuple,
    mode: Mode,
    cycles: u64,
    label: &str,
    t: &mut Tracer,
) -> (SimResult, f64) {
    let mut gpu = Gpu::new(size.cfg(mode), kernel);
    run(
        &mut gpu,
        tuple,
        cycles,
        &format!("{label}.{}", mode_name(mode)),
        t,
    )
}

/// `PerSm` against `ParallelSm@2` from cycle 0, `pairs` times: checks
/// the counters are equal and returns the median `PerSm` over
/// `ParallelSm@2` wall-time ratio with the `ParallelSm@2` counters.
/// `ParallelSm@2` runs at a thread budget of 2, so it gets its helper.
fn t2_pairs(
    size: &Size,
    kernel: &dyn KernelSource,
    tuple: WarpTuple,
    label: &str,
    pairs: usize,
    rep: &mut Report,
    t: &mut Tracer,
) -> (f64, Counters) {
    let mut ratios = Vec::new();
    let mut counters = None;
    for _ in 0..pairs {
        let (a, ta) = fresh_run(size, kernel, tuple, PER_SM, size.cycles, label, t);
        let (b, tb) = with_budget(2, || {
            fresh_run(size, kernel, tuple, PARALLEL_T2, size.cycles, label, t)
        });
        rep.ops(2);
        rep.check(
            format!("{label}: ParallelSm@2 counters equal PerSm"),
            a.counters == b.counters,
        );
        ratios.push(ta / tb);
        counters.get_or_insert(b.counters);
    }
    (median(&ratios), counters.expect("pairs > 0"))
}

/// The same-loop noise control, taken on every run: `PerSm` against
/// `ParallelSm` at one thread, which `Gpu::run` dispatches to the same
/// `run_decoupled` loop. Pairs alternate their order; the ratio is the
/// median `ParallelSm@1` rate over the median `PerSm` rate. Outside ±5%
/// the run marks itself noisy.
pub fn noise_control(opts: &Opts, rep: &mut Report, t: &mut Tracer) {
    const PAIRS: usize = 7;
    let size = Size::new(opts.tiny);
    let kernel = KernelSpec::steady("noise-control", AccessMix::memory_sensitive(), 0x5eed);
    let tuple = WarpTuple::new(16, 16, 24);
    let (mut per_sm, mut par1) = (Vec::new(), Vec::new());
    let mut first: Option<Counters> = None;
    let mut same = true;
    t.span("gpu.noise_control", |t| {
        for i in 0..PAIRS {
            let order = if i % 2 == 0 {
                [PER_SM, PARALLEL_T1]
            } else {
                [PARALLEL_T1, PER_SM]
            };
            for mode in order {
                let (res, secs) =
                    fresh_run(&size, &kernel, tuple, mode, size.noise_cycles, "noise", t);
                let rate = res.cycles as f64 / secs;
                if mode == PER_SM {
                    per_sm.push(rate);
                } else {
                    par1.push(rate);
                }
                same &= *first.get_or_insert(res.counters) == res.counters;
            }
        }
    });
    rep.check("noise control: PerSm and ParallelSm@1 counters equal", same);
    let ratio = median(&par1) / median(&per_sm);
    let noisy = (ratio - 1.0).abs() > 0.05;
    if noisy {
        eprintln!("[perfbench] NOISY: ParallelSm@1 / PerSm = {ratio:.4} (outside ±5%)");
    }
    rep.note(
        "noise_control",
        obj(vec![
            ("parallel_t1_vs_per_sm", Json::Num(ratio)),
            ("noisy", Json::Bool(noisy)),
            ("pairs", Json::Num(PAIRS as f64)),
            ("cycles", Json::Num(size.noise_cycles as f64)),
        ]),
    );
    rep.noisy = noisy;
    rep.layer("gpu.parallel_t1_vs_per_sm", ratio, "ratio");
}

/// Per-kernel totals over the measured rounds.
#[derive(Default, Clone, Copy)]
struct KernelTotals {
    cycles: u64,
    secs: f64,
}

/// One `sim-core` round: build the three machines, run a cold segment
/// from cycle 0, then a warm segment continuing on the warmed machine.
/// A host-speed probe follows set-up and every segment; each time is
/// normalised by the probes on either side of it.
struct Round {
    setup_s: f64,
    cold_s: f64,
    warm_s: f64,
    cycles: u64,
    per_kernel: Vec<KernelTotals>,
    /// Counter text of every segment, for the determinism check.
    counters: String,
    machines: Vec<Gpu>,
}

fn round(seed: u64, size: &Size, t: &mut Tracer, cal: &Calib) -> Round {
    let before = cal.probe();
    let ((kernels, mut machines), setup_s) = t.span("setup.sim_core", |_| {
        // Kernel generation is part of set-up: the specs are rebuilt
        // from the seed every round.
        let kernels = kernels(seed);
        let machines: Vec<Gpu> = kernels
            .iter()
            .map(|k| Gpu::new(size.cfg(PER_SM), &k.spec))
            .collect();
        (kernels, machines)
    });
    let mut prev = cal.probe();
    let mut r = Round {
        setup_s: Calib::norm(setup_s, before, prev),
        cold_s: 0.0,
        warm_s: 0.0,
        cycles: 0,
        per_kernel: vec![KernelTotals::default(); kernels.len()],
        counters: String::new(),
        machines: Vec::new(),
    };
    for warm in [false, true] {
        for (i, (k, gpu)) in kernels.iter().zip(&mut machines).enumerate() {
            let before = gpu.cycle();
            let (res, raw) = run(gpu, k.tuple, size.cycles, k.name, t);
            let next = cal.probe();
            let secs = Calib::norm(raw, prev, next);
            prev = next;
            let cycles = gpu.cycle() - before;
            if warm {
                r.warm_s += secs;
            } else {
                r.cold_s += secs;
            }
            r.cycles += cycles;
            r.per_kernel[i].cycles += cycles;
            r.per_kernel[i].secs += raw;
            r.counters.push_str(&counters_text(&res.counters));
        }
    }
    r.machines = machines;
    r
}

/// The `sim-core` workload.
pub fn sim_core(opts: &Opts, rep: &mut Report, t: &mut Tracer, cal: &Calib) {
    let size = Size::new(opts.tiny);
    let ks = kernels(opts.seed);
    rep.note(
        "pass",
        obj(vec![
            ("sms", Json::Num(size.cfg.sms as f64)),
            ("cycles_per_segment", Json::Num(size.cycles as f64)),
            ("segments_per_kernel", Json::Num(2.0)),
            (
                "kernels",
                Json::Arr(
                    ks.iter()
                        .map(|k| {
                            obj(vec![
                                ("name", Json::Str(k.name.into())),
                                ("seed", Json::Str(k.spec.seed.to_string())),
                                ("tuple", Json::Str(k.tuple.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );

    // Correctness: PerSm against ParallelSm@2 at the full segment, and
    // against the cycle-stepped Reference over a short run.
    let mut t2 = Vec::new();
    let pairs = if t.on() { 3 } else { 1 };
    for k in &ks {
        let (ratio, counters) = t2_pairs(&size, &k.spec, k.tuple, k.name, pairs, rep, t);
        rep.digest(counters_text(&counters));
        t2.push((k.name, ratio));
        let c = size.reference_cycles;
        let (a, _) = fresh_run(&size, &k.spec, k.tuple, PER_SM, c, k.name, t);
        let (r, _) = fresh_run(&size, &k.spec, k.tuple, REFERENCE, c, k.name, t);
        rep.ops(2);
        rep.check(
            format!("{}: Reference counters equal PerSm over {c} cycles", k.name),
            a.counters == r.counters,
        );
        rep.digest(counters_text(&r.counters));
    }

    // Measured rounds: alternate untraced and traced rounds in a traced
    // run, so the tracing overhead is measured on the same machine state.
    let mut off = Tracer::new(false);
    let (mut setup, mut cold, mut warm, mut rates) = (vec![], vec![], vec![], vec![]);
    let (mut traced_cold, mut traced_warm) = (vec![], vec![]);
    let mut totals = vec![KernelTotals::default(); ks.len()];
    let mut first: Option<Round> = None;
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let traced = t.on() && i % 2 == 1;
        let r = if traced {
            round(opts.seed, &size, t, cal)
        } else {
            round(opts.seed, &size, &mut off, cal)
        };
        rep.ops(2 * ks.len() as u64);
        setup.push(r.setup_s);
        if traced {
            traced_cold.push(r.cold_s);
            traced_warm.push(r.warm_s);
        } else {
            cold.push(r.cold_s);
            warm.push(r.warm_s);
            rates.push(r.cycles as f64 / (r.cold_s + r.warm_s) / 1e6);
        }
        for (tot, k) in totals.iter_mut().zip(&r.per_kernel) {
            tot.cycles += k.cycles;
            tot.secs += k.secs;
        }
        let round_s = r.setup_s + r.cold_s + r.warm_s;
        match &first {
            None => {
                rep.digest(&r.counters);
                first = Some(r);
            }
            Some(f) => rep.check("sim-core round counters repeat", f.counters == r.counters),
        }
        i += 1;
        let min_rounds = if t.on() { 4 } else { 1 };
        if i >= min_rounds && start.elapsed().as_secs_f64() + round_s > opts.seconds {
            break;
        }
    }
    rep.note("passes", Json::Num(cold.len() as f64));
    rep.e2e_median("sim_mcycles_per_s", &rates, "Mcycles/s");
    rep.e2e_median("cold_s", &cold, "s");
    rep.e2e_median("warm_s", &warm, "s");
    rep.e2e_median("setup_s", &setup, "s");

    if t.on() {
        kernel_layers(&ks, &totals, rep);
        let first = first.expect("at least one round");
        fast_forward_layers(&first.machines, rep);
        parallel_layers(&t2, rep);
        rep.layer(
            "trace.cold_overhead_pct",
            100.0 * (median(&traced_cold) / median(&cold) - 1.0),
            "%",
        );
        rep.layer(
            "trace.warm_overhead_pct",
            100.0 * (median(&traced_warm) / median(&warm) - 1.0),
            "%",
        );
    }
}

/// `gpu.run.<kernel>.mcycles_per_s`: each kernel's simulated cycles over
/// its seconds inside `Gpu::run`.
fn kernel_layers(ks: &[SimKernel], totals: &[KernelTotals], rep: &mut Report) {
    for (k, tot) in ks.iter().zip(totals) {
        rep.layer(
            format!("gpu.run.{}.mcycles_per_s", k.name),
            tot.cycles as f64 / tot.secs / 1e6,
            "Mcycles/s",
        );
    }
}

/// `gpu.ff.*`: exact per-SM fast-forward counts summed over machines.
fn fast_forward_layers(machines: &[Gpu], rep: &mut Report) {
    let (mut skipped, mut sm_cycles, mut stalls) = (0u64, 0u64, 0u64);
    for gpu in machines {
        for f in gpu.fast_forward_breakdown() {
            skipped += f.skipped;
            stalls += f.horizon_stalls;
        }
        sm_cycles += gpu.cycle() * gpu.sms().len() as u64;
    }
    rep.layer(
        "gpu.ff.skipped_frac",
        skipped as f64 / sm_cycles as f64,
        "ratio",
    );
    rep.layer("gpu.ff.horizon_stalls", stalls as f64, "count");
}

fn parallel_layers(t2: &[(&str, f64)], rep: &mut Report) {
    let geo = (t2.iter().map(|(_, r)| r.ln()).sum::<f64>() / t2.len() as f64).exp();
    rep.layer("gpu.parallel_t2_vs_per_sm", geo, "ratio");
    for (name, r) in t2 {
        rep.layer(format!("gpu.parallel_t2_vs_per_sm.{name}"), *r, "ratio");
    }
}

/// The traced run's simulator probes. `with_kernels` adds the `sim-core`
/// per-kernel measurements (one short round and one t=2 pair per kernel)
/// for workloads that do not run them themselves. Returns the profiler
/// probe's grid.
pub fn probes(
    opts: &Opts,
    rep: &mut Report,
    t: &mut Tracer,
    cal: &Calib,
    with_kernels: bool,
) -> SpeedupGrid {
    let size = Size::new(opts.tiny);
    let ks = kernels(opts.seed);
    if with_kernels {
        let mut off = Tracer::new(false);
        let r = round(opts.seed, &size, &mut off, cal);
        kernel_layers(&ks, &r.per_kernel, rep);
        fast_forward_layers(&r.machines, rep);
        let t2: Vec<_> = ks
            .iter()
            .map(|k| {
                (
                    k.name,
                    t2_pairs(&size, &k.spec, k.tuple, k.name, 1, rep, t).0,
                )
            })
            .collect();
        parallel_layers(&t2, rep);
    }

    // The synthetic streaming N=16 kernel of `sim_throughput`, where the
    // parallel loop has lost before.
    let stream = UniformKernel::streaming(16, 2);
    let tuple = WarpTuple::new(16, 16, 24);
    let (ratio, _) = t2_pairs(&size, &stream, tuple, "stream-n16", 1, rep, t);
    rep.layer("gpu.parallel_t2_vs_per_sm.stream-n16", ratio, "ratio");

    snapshot_probe(&size, &ks[1], rep, t);

    let spec: Workload = KernelSpec::steady(
        "grid-probe",
        AccessMix::memory_sensitive(),
        derive_seed(opts.seed, 4),
    )
    .into();
    let cfg = GpuConfig::scaled(size.grid_sms);
    let (grid, secs) = t.span("profiler.profile_grid", |_| {
        profile_grid(
            &spec,
            &cfg,
            &GridSpec::coarse(size.grid_max_n),
            size.grid_window,
        )
    });
    rep.layer("profiler.profile_grid_s", secs, "s");
    grid
}

/// Snapshot and restore the `mem-n24` machine mid-run; the restored
/// machine must continue bit-identically.
fn snapshot_probe(size: &Size, k: &SimKernel, rep: &mut Report, t: &mut Tracer) {
    const REPS: usize = 3;
    let cfg = size.cfg(PER_SM);
    let mut gpu = Gpu::new(cfg.clone(), &k.spec);
    gpu.run(&mut FixedTuple::new(k.tuple), size.snapshot_at);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut text = String::new();
    let mut restored = None;
    for _ in 0..REPS {
        let (s, secs) = t.span("snapshot.encode", |_| gpu.snapshot());
        enc.push(secs);
        text = s;
        let (g, secs) = t.span("snapshot.restore", |_| {
            Gpu::restore(cfg.clone(), &k.spec, &text)
        });
        dec.push(secs);
        restored = Some(g);
    }
    let tail = size.snapshot_at / 4;
    let ok = match restored.expect("REPS > 0") {
        Ok(mut g) => {
            let a = gpu.resume(&mut FixedTuple::new(k.tuple), tail);
            let b = g.resume(&mut FixedTuple::new(k.tuple), tail);
            a.counters == b.counters
        }
        Err(e) => {
            eprintln!("[perfbench] snapshot restore failed: {e}");
            false
        }
    };
    rep.check("snapshot: restored machine continues bit-identically", ok);
    rep.layer("snapshot.encode_ms", 1e3 * median(&enc), "ms");
    rep.layer("snapshot.restore_ms", 1e3 * median(&dec), "ms");
    rep.layer("snapshot.kb", text.len() as f64 / 1024.0, "KiB");
}
