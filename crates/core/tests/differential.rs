//! Differential tests: the per-SM decoupled run loop (single-threaded
//! and on the work-stealing pool), and the global event-driven
//! fast-forward loop, must all be **bit-identical** to the cycle-stepped
//! reference loop for every shipped control policy, across streaming /
//! cache-resident / finite / phased kernels.
//!
//! This is the contract that makes the fast-forward optimisations safe to
//! lean on everywhere: same `Counters` (so IPC, AML, hit rates and gap
//! statistics agree exactly), same final cycle, same completion status,
//! and same controller steering trajectory (tuple changes at the same
//! cycles with the same values — proving skipped spans never cross a
//! controller wake, and per-SM epochs barrier exactly on every wake).

use gpu_sim::{ControlCtx, Controller, Counters, FixedTuple, Gpu, GpuConfig, StepMode, WarpTuple};
use poise::hie::PoiseController;
use poise::params::PoiseParams;
use poise::policies::{ApcmController, PcalSwlController, RandomRestartController};
use poise_ml::{TrainedModel, N_FEATURES};
use workloads::{AccessMix, KernelSpec, Phase};

/// Wraps a controller, recording every tuple change it steers, so two
/// runs can be compared action-by-action.
struct Recording<C> {
    inner: C,
    events: Vec<(u64, WarpTuple)>,
}

impl<C> Recording<C> {
    fn new(inner: C) -> Self {
        Recording {
            inner,
            events: Vec::new(),
        }
    }
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

/// The kernels of the differential matrix: streaming-heavy,
/// cache-resident, a finite trace that drains mid-run, and a phased
/// kernel that alternates compute-bound and memory-bound regimes (so
/// fast-forward engages and disengages repeatedly within one run).
fn kernels() -> Vec<(&'static str, KernelSpec)> {
    let mut resident = AccessMix::memory_sensitive();
    resident.hot_lines = 4;
    resident.hot_frac = 1.0;
    resident.stream_frac = 0.0;
    resident.shared_frac = 0.0;
    resident.cold_lines = 8;
    let mut streaming = AccessMix::memory_sensitive();
    streaming.stream_frac = 0.6;
    streaming.hot_frac = 0.2;
    vec![
        (
            "streaming",
            KernelSpec::steady("diff-stream", streaming, 7).with_warps(8),
        ),
        (
            "resident",
            KernelSpec::steady("diff-resident", resident, 7).with_warps(8),
        ),
        (
            "finite",
            KernelSpec::steady("diff-finite", AccessMix::memory_sensitive(), 7)
                .with_warps(6)
                .with_trace_len(400),
        ),
        (
            "phased",
            KernelSpec::phased(
                "diff-phased",
                vec![
                    Phase {
                        mix: AccessMix::compute_intensive(),
                        instructions: 300,
                    },
                    Phase {
                        mix: AccessMix::memory_sensitive(),
                        instructions: 300,
                    },
                ],
                7,
            )
            .with_warps(8),
        ),
    ]
}

struct RunOutcome {
    counters: Counters,
    cycle: u64,
    completed: bool,
    steering: Vec<(u64, WarpTuple)>,
    ff_cycles: u64,
}

fn run_with<C: Controller>(
    mode: StepMode,
    spec: &KernelSpec,
    make: impl Fn() -> C,
    budget: u64,
) -> RunOutcome {
    let mut cfg = GpuConfig::scaled(1);
    cfg.track_pc_stats = true; // uniform config so APCM is comparable
    cfg.step_mode = mode;
    if mode == StepMode::ParallelSm {
        cfg.sim_threads = 2;
    }
    let mut gpu = Gpu::new(cfg, spec);
    let mut ctrl = Recording::new(make());
    let res = gpu.run(&mut ctrl, budget);
    RunOutcome {
        counters: res.counters,
        cycle: gpu.cycle(),
        completed: res.completed,
        steering: ctrl.events,
        ff_cycles: gpu.fast_forward_stats().1,
    }
}

fn assert_identical<C: Controller>(policy: &str, make: impl Fn() -> C, budget: u64) {
    for (kname, spec) in kernels() {
        let rf = run_with(StepMode::Reference, &spec, &make, budget);
        assert_eq!(rf.ff_cycles, 0, "reference mode must never skip");
        for mode in [StepMode::PerSm, StepMode::ParallelSm, StepMode::EventDriven] {
            let fast = run_with(mode, &spec, &make, budget);
            assert_eq!(
                fast.counters, rf.counters,
                "{policy}/{kname}/{mode:?}: counters diverged"
            );
            assert_eq!(
                fast.cycle, rf.cycle,
                "{policy}/{kname}/{mode:?}: final cycle"
            );
            assert_eq!(
                fast.completed, rf.completed,
                "{policy}/{kname}/{mode:?}: completion status"
            );
            assert_eq!(
                fast.steering, rf.steering,
                "{policy}/{kname}/{mode:?}: steering trajectory (a skip crossed a wake)"
            );
        }
    }
}

const BUDGET: u64 = 60_000;

#[test]
fn gto_fixed_max_is_identical() {
    assert_identical("GTO", FixedTuple::max, BUDGET);
}

#[test]
fn swl_fixed_diagonal_is_identical() {
    // SWL executes through FixedTuple at an offline-chosen diagonal point.
    assert_identical("SWL", || FixedTuple::new(WarpTuple::new(4, 4, 24)), BUDGET);
}

#[test]
fn static_best_fixed_off_diagonal_is_identical() {
    // Static-Best executes through FixedTuple at an off-diagonal optimum.
    assert_identical(
        "Static-Best",
        || FixedTuple::new(WarpTuple::new(6, 2, 24)),
        BUDGET,
    );
}

#[test]
fn poise_hie_is_identical() {
    assert_identical(
        "Poise",
        || PoiseController::new(const_model(8.0, 2.0), PoiseParams::scaled_down(20)),
        BUDGET,
    );
}

#[test]
fn pcal_swl_is_identical() {
    assert_identical(
        "PCAL-SWL",
        || PcalSwlController::new(WarpTuple::new(4, 4, 24)),
        BUDGET,
    );
}

#[test]
fn random_restart_is_identical() {
    assert_identical(
        "Random-restart",
        || RandomRestartController::new(42, 15_000).with_windows(500, 1_000),
        BUDGET,
    );
}

#[test]
fn apcm_is_identical() {
    assert_identical(
        "APCM",
        || ApcmController::new(30_000).with_monitor_cycles(8_000),
        BUDGET,
    );
}

#[test]
fn fast_forward_engages_on_memory_bound_runs() {
    // The equality tests above would pass vacuously if fast-forward never
    // triggered; pin that both fast modes actually skip a large share of a
    // memory-bound run.
    let (_, spec) = kernels().remove(0);
    for mode in [StepMode::PerSm, StepMode::ParallelSm, StepMode::EventDriven] {
        let fast = run_with(mode, &spec, FixedTuple::max, BUDGET);
        assert!(
            fast.ff_cycles > BUDGET / 4,
            "{mode:?}: expected a large skipped share, got {} of {BUDGET}",
            fast.ff_cycles
        );
    }
}

#[test]
fn per_sm_decoupling_beats_the_global_skip_on_multi_sm_machines() {
    // The regime this mode exists for: multiple desynchronised SMs at high
    // occupancy. The global skip needs *every* scheduler stalled at once;
    // the per-SM loop skips each SM's own stalls regardless.
    let spec = KernelSpec::steady("diff-multi", AccessMix::memory_sensitive(), 11).with_warps(16);
    let run = |mode: StepMode| {
        let mut cfg = GpuConfig::scaled(4);
        cfg.step_mode = mode;
        if mode == StepMode::ParallelSm {
            cfg.sim_threads = 2;
        }
        let mut gpu = Gpu::new(cfg, &spec);
        let mut ctrl = FixedTuple::max();
        let res = gpu.run(&mut ctrl, BUDGET);
        (res.counters, gpu.fast_forward_stats().1)
    };
    let (pc, per_sm_skipped) = run(StepMode::PerSm);
    let (tc, _) = run(StepMode::ParallelSm);
    let (ec, global_skipped) = run(StepMode::EventDriven);
    let (rc, _) = run(StepMode::Reference);
    assert_eq!(pc, rc);
    assert_eq!(tc, rc);
    assert_eq!(ec, rc);
    assert!(
        per_sm_skipped > global_skipped,
        "per-SM skipping ({per_sm_skipped} SM-cycles) must beat the global \
         skip ({global_skipped} cycles) at high occupancy"
    );
}

#[test]
fn reject_storms_are_identical_under_steering_controllers() {
    // Full occupancy (24 warps/scheduler, 48 outstanding loads wanted
    // against 32 MSHRs) drives the L1 into a structural reject storm —
    // the regime the per-SM known-reject replay exists for. Dynamic
    // controllers steer tuples mid-storm, repeatedly moving the machine
    // in and out of it; every mode must agree bit-for-bit. The budget is
    // modest because the reference loop really steps every storm cycle.
    let spec = KernelSpec::steady("diff-storm", AccessMix::memory_sensitive(), 3).with_warps(24);
    let budget = 25_000;
    let check = |name: &str, make: &dyn Fn() -> Box<dyn Controller>, expect_rejects: bool| {
        let rf = run_with(StepMode::Reference, &spec, make, budget);
        if expect_rejects {
            assert!(
                rf.counters.l1_rejects > 0,
                "{name}: expected a reject storm at full occupancy"
            );
        }
        for mode in [StepMode::PerSm, StepMode::ParallelSm, StepMode::EventDriven] {
            let fast = run_with(mode, &spec, make, budget);
            assert_eq!(fast.counters, rf.counters, "{name}/{mode:?}: counters");
            assert_eq!(fast.steering, rf.steering, "{name}/{mode:?}: steering");
            assert_eq!(fast.cycle, rf.cycle, "{name}/{mode:?}: final cycle");
        }
    };
    check("GTO", &|| Box::new(FixedTuple::max()), true);
    check(
        "Poise",
        &|| {
            Box::new(PoiseController::new(
                const_model(20.0, 4.0),
                PoiseParams::scaled_down(24),
            ))
        },
        // Poise steers away from max occupancy, so the storm may subside.
        false,
    );
    check(
        "APCM",
        &|| Box::new(ApcmController::new(12_000).with_monitor_cycles(4_000)),
        true,
    );
}

#[test]
fn poise_epoch_logs_match_across_modes() {
    // Beyond counters: the HIE's own prediction/search log must agree.
    let spec = KernelSpec::steady("diff-log", AccessMix::memory_sensitive(), 9).with_warps(8);
    let run = |mode: StepMode| {
        let mut cfg = GpuConfig::scaled(1);
        cfg.step_mode = mode;
        if mode == StepMode::ParallelSm {
            cfg.sim_threads = 2;
        }
        let mut gpu = Gpu::new(cfg, &spec);
        let mut ctrl = PoiseController::new(const_model(8.0, 2.0), PoiseParams::scaled_down(20));
        gpu.run(&mut ctrl, 40_000);
        ctrl.log
    };
    let reference = run(StepMode::Reference);
    assert_eq!(run(StepMode::PerSm), reference);
    assert_eq!(run(StepMode::ParallelSm), reference);
    assert_eq!(run(StepMode::EventDriven), reference);
}
