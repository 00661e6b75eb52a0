//! The trace backend's correctness oracle: **record → replay must be
//! bit-identical to the live generator**.
//!
//! The recorder dumps a synthetic kernel's per-warp streams to the trace
//! format; the replayer feeds them back through the same
//! `InstructionStream` seam. For any recording that covers the cycle
//! budget, the simulator cannot tell the two backends apart — same
//! counters, same final cycle, same completion status, the same
//! controller steering trajectory and, for Poise, the same HIE epoch
//! log — for every shipped control policy, under both the per-SM
//! decoupled loop and the cycle-stepped reference loop. This is what
//! makes a committed trace a trustworthy regression artefact: replaying
//! it *is* re-running the kernel.
//!
//! One kernel per synthetic class is exercised: streaming, hot-set
//! (intra-warp locality), shared-heavy (inter-warp locality) and
//! compute-bound — the same classes shipped under `traces/`.

use gpu_sim::{ControlCtx, Controller, Counters, FixedTuple, Gpu, GpuConfig, StepMode, WarpTuple};
use poise::hie::PoiseController;
use poise::params::PoiseParams;
use poise::policies::{ApcmController, PcalSwlController, RandomRestartController};
use poise_ml::{TrainedModel, N_FEATURES};
use workloads::{record_kernel, AccessMix, KernelSpec, TraceRef, Workload};

const BUDGET: u64 = 12_000;

/// Wraps a controller, recording every tuple change it steers.
struct Recording<C> {
    inner: C,
    events: Vec<(u64, WarpTuple)>,
}

impl<C: Controller> Controller for Recording<C> {
    fn on_kernel_start(&mut self, ctx: &mut ControlCtx) {
        self.inner.on_kernel_start(ctx);
        self.events.push((ctx.cycle, ctx.current_tuple()));
    }

    fn on_cycle(&mut self, ctx: &mut ControlCtx) {
        let before = ctx.current_tuple();
        self.inner.on_cycle(ctx);
        let after = ctx.current_tuple();
        if before != after {
            self.events.push((ctx.cycle, after));
        }
    }

    fn on_kernel_end(&mut self, ctx: &mut ControlCtx) {
        self.inner.on_kernel_end(ctx);
    }

    fn next_wake(&self, now: u64) -> Option<u64> {
        self.inner.next_wake(now)
    }
}

fn const_model(n: f64, p: f64) -> TrainedModel {
    let mut alpha = [0.0; N_FEATURES];
    let mut beta = [0.0; N_FEATURES];
    alpha[N_FEATURES - 1] = n.ln();
    beta[N_FEATURES - 1] = p.ln();
    TrainedModel {
        alpha,
        beta,
        dispersion_n: 0.1,
        dispersion_p: 0.1,
        samples_used: 0,
        dropped_features: Vec::new(),
    }
}

/// One kernel per synthetic class (the shipped trace classes).
fn kernel_classes() -> Vec<(&'static str, KernelSpec)> {
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
            KernelSpec::steady("tr-stream", streaming, 17).with_warps(8),
        ),
        (
            "hotset",
            KernelSpec::steady("tr-hotset", hotset, 18).with_warps(8),
        ),
        (
            "shared",
            KernelSpec::steady("tr-shared", shared, 19).with_warps(6),
        ),
        (
            "compute",
            KernelSpec::steady("tr-compute", compute, 20).with_warps(6),
        ),
    ]
}

/// Record `spec` at the 1-SM test geometry, generously past the budget
/// (a warp issues ≤ 1 instruction/cycle and emits ≤ 1 free sync per
/// issued instruction, so 2 × budget bounds its consumption).
fn record(spec: &KernelSpec, cfg: &GpuConfig) -> Workload {
    let data = record_kernel(
        spec,
        &spec.name,
        1,
        cfg.schedulers_per_sm,
        (2 * BUDGET + 8) as usize,
    );
    Workload::from(TraceRef::from_data(data))
}

struct RunOutcome {
    counters: Counters,
    cycle: u64,
    completed: bool,
    steering: Vec<(u64, WarpTuple)>,
}

/// Runs `workload` under the controller `make` builds; returns the
/// outcome and the controller after the run.
fn run_with<C: Controller>(
    mode: StepMode,
    workload: &Workload,
    make: impl Fn() -> C,
) -> (RunOutcome, C) {
    let mut cfg = GpuConfig::scaled(1);
    cfg.track_pc_stats = true; // uniform config so APCM is comparable
    cfg.step_mode = mode;
    let mut gpu = Gpu::new(cfg, workload);
    let mut ctrl = Recording {
        inner: make(),
        events: Vec::new(),
    };
    let res = gpu.run(&mut ctrl, BUDGET);
    let outcome = RunOutcome {
        counters: res.counters,
        cycle: gpu.cycle(),
        completed: res.completed,
        steering: ctrl.events,
    };
    (outcome, ctrl.inner)
}

fn assert_replay_identical<C: Controller>(policy: &str, make: impl Fn() -> C) {
    assert_replay_identical_with(policy, make, |_| ());
}

/// [`assert_replay_identical`], also comparing the controller `state`
/// each run leaves behind.
fn assert_replay_identical_with<C: Controller, S: PartialEq + std::fmt::Debug>(
    policy: &str,
    make: impl Fn() -> C,
    state: impl Fn(&C) -> S,
) {
    let cfg = GpuConfig::scaled(1);
    for (class, spec) in kernel_classes() {
        let live = Workload::from(spec.clone());
        let replay = record(&spec, &cfg);
        for mode in [StepMode::Reference, StepMode::PerSm] {
            let (a, ctrl_a) = run_with(mode, &live, &make);
            let (b, ctrl_b) = run_with(mode, &replay, &make);
            assert_eq!(
                a.counters, b.counters,
                "{policy}/{class}/{mode:?}: replay counters diverged from the live generator"
            );
            assert_eq!(a.cycle, b.cycle, "{policy}/{class}/{mode:?}: final cycle");
            assert_eq!(
                a.completed, b.completed,
                "{policy}/{class}/{mode:?}: completion status"
            );
            assert_eq!(
                a.steering, b.steering,
                "{policy}/{class}/{mode:?}: steering trajectory"
            );
            assert_eq!(
                state(&ctrl_a),
                state(&ctrl_b),
                "{policy}/{class}/{mode:?}: controller state"
            );
        }
    }
}

#[test]
fn gto_replay_is_identical() {
    assert_replay_identical("GTO", FixedTuple::max);
}

#[test]
fn swl_replay_is_identical() {
    assert_replay_identical("SWL", || FixedTuple::new(WarpTuple::new(4, 4, 24)));
}

#[test]
fn static_best_replay_is_identical() {
    assert_replay_identical("Static-Best", || FixedTuple::new(WarpTuple::new(6, 2, 24)));
}

#[test]
fn poise_replay_is_identical() {
    assert_replay_identical_with(
        "Poise",
        || PoiseController::new(const_model(8.0, 2.0), PoiseParams::scaled_down(20)),
        |c| c.log.clone(),
    );
}

#[test]
fn pcal_swl_replay_is_identical() {
    assert_replay_identical("PCAL-SWL", || {
        PcalSwlController::new(WarpTuple::new(4, 4, 24))
    });
}

#[test]
fn random_restart_replay_is_identical() {
    assert_replay_identical("Random-restart", || {
        RandomRestartController::new(42, 5_000).with_windows(500, 1_000)
    });
}

#[test]
fn apcm_replay_is_identical() {
    assert_replay_identical("APCM", || {
        ApcmController::new(6_000).with_monitor_cycles(2_000)
    });
}

#[test]
fn replay_through_a_file_round_trip_is_identical() {
    // The full pipeline the shipped traces use: record → encode → write →
    // load → replay. Identity must survive the text serialisation.
    let cfg = GpuConfig::scaled(1);
    let (_, spec) = kernel_classes().remove(0);
    let dir = std::env::temp_dir().join(format!("poise-trace-replay-{}", std::process::id()));
    let data = record_kernel(
        &spec,
        &spec.name,
        1,
        cfg.schedulers_per_sm,
        2 * BUDGET as usize,
    );
    let loaded = TraceRef::write(&data, dir.join("s.trace")).unwrap();
    let (a, _) = run_with(StepMode::PerSm, &Workload::from(spec), FixedTuple::max);
    let (b, _) = run_with(StepMode::PerSm, &Workload::from(loaded), FixedTuple::max);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.steering, b.steering);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_recordings_diverge_detectably() {
    // A sanity check on the oracle itself: a recording that is *too
    // short* for the budget must not silently pass — the replayed warps
    // end early and the counters move.
    let cfg = GpuConfig::scaled(1);
    let (_, spec) = kernel_classes().remove(0);
    let short = Workload::from(TraceRef::from_data(record_kernel(
        &spec,
        &spec.name,
        1,
        cfg.schedulers_per_sm,
        64,
    )));
    let (live, _) = run_with(StepMode::PerSm, &Workload::from(spec), FixedTuple::max);
    let (replay, _) = run_with(StepMode::PerSm, &short, FixedTuple::max);
    assert_ne!(
        live.counters, replay.counters,
        "a 64-op recording cannot cover a {BUDGET}-cycle run"
    );
    assert!(replay.completed, "the short trace must drain and complete");
}
