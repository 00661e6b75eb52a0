//! Golden pins of the exact [`Counters`] a short run produces.
//!
//! The differential suite proves the step modes agree with each other,
//! but `Reference` shares the per-SM issue logic (`Sm::step`,
//! `Sm::issue_one` apart from its reject memo, the L1) with the fast
//! loops, so a bug there moves every mode together and stays invisible
//! to it. These values were
//! generated once, before the ALU-run bursts and the MSHR-reject memo
//! existed, and pin the issue path itself: any change to a simulated
//! counter — under `PerSm`, `ParallelSm` or `Reference` — fails here.
//!
//! The kernels cover the two regimes those mechanisms target: the
//! memory-sensitive mix beyond the 32 MSHRs (a reject storm at N = 24,
//! with half the warps non-polluting) and below it (N = 16, so eight
//! warps per scheduler are non-vital), and the compute mix at full
//! occupancy (long ALU runs). Reuse-distance and per-PC tracking are on,
//! so the probes the memo may skip are covered too.

use gpu_sim::{Counters, FixedTuple, Gpu, GpuConfig, StepMode, WarpTuple};
use workloads::{AccessMix, KernelSpec};

const CYCLES: u64 = 30_000;

fn run(spec: &KernelSpec, tuple: WarpTuple, mode: StepMode) -> Counters {
    let mut cfg = GpuConfig::scaled(2);
    cfg.track_reuse_distance = true;
    cfg.track_pc_stats = true;
    cfg.step_mode = mode;
    if mode == StepMode::ParallelSm {
        cfg.sim_threads = 2;
    }
    let mut gpu = Gpu::new(cfg, spec);
    gpu.run(&mut FixedTuple::new(tuple), CYCLES).counters
}

fn check(spec: KernelSpec, n: usize, p: usize, golden: Counters) {
    let tuple = WarpTuple::new(n, p, 24);
    for mode in [StepMode::PerSm, StepMode::ParallelSm, StepMode::Reference] {
        assert_eq!(
            run(&spec, tuple, mode),
            golden,
            "{} at ({n},{p}) under {mode:?}",
            spec.name
        );
    }
}

#[test]
fn memory_mix_at_24_12() {
    check(
        KernelSpec::steady("mem", AccessMix::memory_sensitive(), 5),
        24,
        12,
        Counters {
            cycles: 30000,
            instructions: 17072,
            loads: 4596,
            stores: 259,
            l1_accesses: 4596,
            l1_hits: 939,
            l1_intra_hits: 580,
            l1_inter_hits: 359,
            l1_hits_polluting: 809,
            l1_accesses_polluting: 2973,
            l1_hits_non_polluting: 130,
            l1_accesses_non_polluting: 1623,
            l1_misses_completed: 3578,
            miss_latency_sum: 2249531,
            l1_rejects: 625373,
            mshr_allocations: 3135,
            mshr_merges: 522,
            l2_accesses: 3394,
            l2_hits: 857,
            dram_accesses: 2537,
            busy_scheduler_cycles: 17072,
            stall_scheduler_cycles: 102928,
            in_gap_sum: 12046,
            in_gap_count: 4520,
            reuse_distance_sum: 16737,
            reuse_distance_count: 1005,
        },
    );
}

#[test]
fn memory_mix_at_16_8() {
    check(
        KernelSpec::steady("mem", AccessMix::memory_sensitive(), 5),
        16,
        8,
        Counters {
            cycles: 30000,
            instructions: 16521,
            loads: 4454,
            stores: 257,
            l1_accesses: 4454,
            l1_hits: 817,
            l1_intra_hits: 506,
            l1_inter_hits: 311,
            l1_hits_polluting: 704,
            l1_accesses_polluting: 2513,
            l1_hits_non_polluting: 113,
            l1_accesses_non_polluting: 1941,
            l1_misses_completed: 3560,
            miss_latency_sum: 2242129,
            l1_rejects: 336731,
            mshr_allocations: 3128,
            mshr_merges: 509,
            l2_accesses: 3385,
            l2_hits: 851,
            dram_accesses: 2534,
            busy_scheduler_cycles: 16521,
            stall_scheduler_cycles: 103479,
            in_gap_sum: 11713,
            in_gap_count: 4390,
            reuse_distance_sum: 17911,
            reuse_distance_count: 1025,
        },
    );
}

#[test]
fn compute_mix_at_24_24() {
    check(
        KernelSpec::steady("compute", AccessMix::compute_intensive(), 6),
        24,
        24,
        Counters {
            cycles: 30000,
            instructions: 120000,
            loads: 1120,
            stores: 116,
            l1_accesses: 1120,
            l1_hits: 793,
            l1_intra_hits: 626,
            l1_inter_hits: 167,
            l1_hits_polluting: 793,
            l1_accesses_polluting: 1120,
            l1_hits_non_polluting: 0,
            l1_accesses_non_polluting: 0,
            l1_misses_completed: 324,
            miss_latency_sum: 104109,
            l1_rejects: 0,
            mshr_allocations: 317,
            mshr_merges: 10,
            l2_accesses: 433,
            l2_hits: 154,
            dram_accesses: 279,
            busy_scheduler_cycles: 120000,
            stall_scheduler_cycles: 0,
            in_gap_sum: 116562,
            in_gap_count: 1099,
            reuse_distance_sum: 2963,
            reuse_distance_count: 361,
        },
    );
}
