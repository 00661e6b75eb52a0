//! Fast-forward sanity check, promoted from the old `ff_check` example so
//! it runs under `cargo test` instead of requiring a manual invocation:
//! every fast run loop must produce bit-identical counters to the
//! cycle-stepped reference across the three regimes that bracket the
//! design space, and must actually engage where it is supposed to.

use gpu_sim::{
    FixedTuple, Gpu, GpuConfig, Instr, InstructionStream, KernelSource, StepMode, UniformKernel,
    WarpTuple,
};

const BUDGET: u64 = 150_000;

fn run(
    kernel: &UniformKernel,
    warps: usize,
    mode: StepMode,
) -> (gpu_sim::Counters, bool, u64, (u64, u64)) {
    let mut cfg = GpuConfig::scaled(4);
    cfg.step_mode = mode;
    let mut gpu = Gpu::new(cfg, kernel);
    let mut ctrl = FixedTuple::new(WarpTuple::new(warps, warps, 24));
    let res = gpu.run(&mut ctrl, BUDGET);
    (
        res.counters,
        res.completed,
        gpu.cycle(),
        gpu.fast_forward_stats(),
    )
}

#[test]
fn fast_forward_sanity_check() {
    for (name, warps, alu) in [
        ("mem-bound n1", 1usize, 0usize),
        ("mem-bound n4", 4, 2),
        ("high-occupancy n16", 16, 2),
        ("reject-storm n24", 24, 0),
        ("compute", 8, 40),
    ] {
        let kernel = UniformKernel::streaming(warps, alu);
        let rf = run(&kernel, warps, StepMode::Reference);
        assert_eq!(rf.3, (0, 0), "{name}: reference must never skip");
        for mode in [StepMode::PerSm, StepMode::EventDriven] {
            let fast = run(&kernel, warps, mode);
            assert_eq!(fast.0, rf.0, "{name}/{mode:?}: counters diverged");
            assert_eq!(
                (fast.1, fast.2),
                (rf.1, rf.2),
                "{name}/{mode:?}: completion/cycle diverged"
            );
        }
        // The per-SM loop must skip heavily on every memory-bound regime,
        // including the structural reject storm the stepped skip cannot
        // touch.
        if alu < 40 {
            let (_, _, _, (spans, skipped)) = run(&kernel, warps, StepMode::PerSm);
            assert!(
                spans > 0 && skipped > BUDGET / 4,
                "{name}: per-SM fast-forward barely engaged \
                 ({spans} spans, {skipped} skipped SM-cycles)"
            );
        }
    }
}

/// Every warp of an SM loads from one small per-SM line set: three of
/// eight loads go to 4 hot lines (more requesters than the merge limit of
/// 8), the rest to a pool of 60 (more lines than the 32 MSHRs). Each
/// iteration is one ALU instruction, two loads, a store that evicts a
/// random line of the set, and a sync. `UniformKernel` warps never share
/// a line, so only a kernel like this makes one warp's MSHR allocation
/// or completion change another warp's reject.
struct SharedLines {
    warps: usize,
}

struct SharedStream {
    rng: u64,
    slot: u8,
    base: u64,
}

impl SharedStream {
    fn pick(&mut self) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let r = self.rng >> 8;
        self.base + if r % 8 < 3 { r / 8 % 4 } else { 4 + r / 8 % 60 }
    }
}

impl InstructionStream for SharedStream {
    fn next_instr(&mut self) -> Option<Instr> {
        self.slot = (self.slot + 1) % 5;
        Some(match self.slot {
            1 => Instr::Alu,
            2 | 3 => Instr::Load {
                line: self.pick(),
                pc: 0,
            },
            4 => Instr::Store {
                line: self.pick(),
                pc: 0,
            },
            _ => Instr::SyncLoads,
        })
    }
}

impl KernelSource for SharedLines {
    fn stream_for(&self, sm: usize, sched: usize, warp: usize) -> Box<dyn InstructionStream> {
        Box::new(SharedStream {
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((sm * 64 + sched * 24 + warp + 1) as u64),
            slot: 0,
            base: (sm as u64 + 1) << 32,
        })
    }

    fn warps_per_scheduler(&self) -> usize {
        self.warps
    }
}

#[test]
fn shared_line_storms_match_the_memo_free_reference() {
    // `Reference` probes the L1 for every retry, so it checks each known
    // reject the fast loops answer from the memo.
    let kernel = SharedLines { warps: 24 };
    let run = |mode: StepMode, tuple: WarpTuple| {
        let mut cfg = GpuConfig::scaled(2);
        cfg.step_mode = mode;
        if mode == StepMode::ParallelSm {
            cfg.sim_threads = 2;
        }
        let mut gpu = Gpu::new(cfg, &kernel);
        let res = gpu.run(&mut FixedTuple::new(tuple), 20_000);
        (res.counters, gpu.cycle(), gpu.fast_forward_stats())
    };
    for tuple in [WarpTuple::new(24, 24, 24), WarpTuple::new(20, 2, 24)] {
        let rf = run(StepMode::Reference, tuple);
        assert!(
            rf.0.l1_rejects > 50_000 && rf.0.mshr_merges > 1_000,
            "{tuple:?}: expected a merging reject storm, got {} rejects, {} merges",
            rf.0.l1_rejects,
            rf.0.mshr_merges
        );
        for mode in [StepMode::PerSm, StepMode::ParallelSm] {
            let fast = run(mode, tuple);
            assert_eq!(
                (fast.0, fast.1),
                (rf.0, rf.1),
                "{tuple:?}/{mode:?}: diverged from the reference"
            );
            assert!(
                fast.2 .1 > 0,
                "{tuple:?}/{mode:?}: the replay never engaged"
            );
        }
    }
}
