//! Named benchmark suites mirroring the paper's Table IIIa workloads.
//!
//! Each paper benchmark is replaced by a synthetic kernel (family) whose
//! locality profile follows the published characterisation — see the crate
//! docs and DESIGN.md for the substitution argument. Multi-kernel
//! applications (`ii` has 118 kernels, `ss` 164, `pvr` 248, …) are built by
//! deterministic parameter jitter around a base mix, giving the regression
//! a realistically diverse population.
//!
//! ## Footprint calibration
//!
//! The baseline L1 holds 128 lines per SM and the L2's per-SM share is
//! 576 lines; 48 warps run per SM. The knobs are therefore set so that:
//!
//! * `48 × hot_lines ≫ 128` — per-warp hot sets thrash the baseline L1
//!   (the pathology Poise relieves) but a few polluting warps' hot sets
//!   fit, giving the high `hp` at small `p` that Fig. 4 reports;
//! * `cold_lines` (a per-SM array swept by all warps) sets reuse distance
//!   and the L2/DRAM pressure: smaller than the 64× L1 (8192 lines) for
//!   high-Pbest benchmarks, far larger for bfs/cfd-style low-Pbest ones;
//! * `shared_lines ≲ 128` — the inter-warp tile survives in the L1 when
//!   polluting warps keep refetching it, giving non-polluting warps their
//!   `hnp` hits (the syr2k/cfd shape).
//!
//! ## Built once per process
//!
//! [`training_suite`], [`evaluation_suite`] and
//! [`compute_insensitive_suite`] return `&'static` slices, each built on
//! first use and borrowed by every later caller: a `run_all` pass at
//! figures-smoke knobs asked for them 61 times while planning and
//! rendering, and `ii`, `ss` and `pvr` alone hold 530 kernels. This keeps the job engine's rule
//! that no memo outlives its pass (see "Job identity" in
//! `poise::jobs`): a suite is a constant of the program, a pure function
//! of no input, not a memo of any plan's inputs, so no knob, sweep or
//! cache state can make a stale suite visible. Nor is the saving
//! benchmark-only: a `run_all` process builds each suite once in its one
//! pass, just as a benchmark's untimed first pass does.

use std::sync::LazyLock;

use crate::spec::{AccessMix, Benchmark, KernelSpec, Phase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministically jitter a base mix into the `idx`-th family member.
fn jitter(base: &AccessMix, bench_seed: u64, idx: u64) -> (AccessMix, usize) {
    let mut rng = SmallRng::seed_from_u64(
        bench_seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(idx),
    );
    let scale = |rng: &mut SmallRng, v: usize, lo: f64, hi: f64| -> usize {
        ((v as f64 * rng.gen_range(lo..hi)).round() as usize).max(1)
    };
    let shift = |rng: &mut SmallRng, v: f64, amt: f64| -> f64 {
        (v + rng.gen_range(-amt..amt)).clamp(0.0, 0.95)
    };
    let mut m = *base;
    m.hot_lines = scale(&mut rng, m.hot_lines, 0.6, 1.6);
    m.cold_lines = scale(&mut rng, m.cold_lines, 0.5, 2.0);
    m.shared_lines = scale(&mut rng, m.shared_lines, 0.7, 1.4);
    m.alu_per_load = scale(&mut rng, m.alu_per_load.max(1), 0.6, 1.5);
    m.hot_frac = shift(&mut rng, m.hot_frac, 0.10);
    m.shared_frac = shift(&mut rng, m.shared_frac, 0.08);
    m.stream_frac = shift(&mut rng, m.stream_frac, 0.04);
    if m.shared_frac + m.stream_frac > 0.95 {
        m.stream_frac = 0.95 - m.shared_frac;
    }
    // Occasional partial occupancy, exercising the paper's tuple scaling.
    let warps = match rng.gen_range(0..6u32) {
        0 => 16,
        1 => 12,
        _ => 24,
    };
    (m, warps)
}

/// Build a jittered kernel family.
fn family(name: &str, base: AccessMix, count: usize, seed: u64) -> Benchmark {
    let kernels: Vec<KernelSpec> = (0..count)
        .map(|i| {
            let (mix, warps) = jitter(&base, seed, i as u64);
            KernelSpec::steady(format!("{name}#{i}"), mix, seed ^ (i as u64) << 1).with_warps(warps)
        })
        .collect();
    Benchmark::new(name, kernels)
}

/// An intra-warp-locality-dominated mix (the `ii` shape: ~97% intra-warp
/// hits, small per-warp hot set, negligible sharing, moderate cold sweep).
fn intra_heavy() -> AccessMix {
    AccessMix {
        alu_per_load: 2,
        mlp: 2,
        ind_gap: 1,
        hot_lines: 12,
        hot_repeat: 2,
        hot_frac: 0.85,
        cold_lines: 400,
        shared_lines: 16,
        shared_frac: 0.03,
        stream_frac: 0.03,
        store_frac: 0.03,
    }
}

/// An inter-warp-locality-dominated mix (the `syr2k` shape: ~60%
/// inter-warp hits via a shared tile, heavily memory-bound).
fn inter_heavy() -> AccessMix {
    AccessMix {
        alu_per_load: 1,
        mlp: 2,
        ind_gap: 0,
        hot_lines: 6,
        hot_repeat: 2,
        hot_frac: 0.5,
        cold_lines: 1500,
        shared_lines: 72,
        shared_frac: 0.55,
        stream_frac: 0.03,
        store_frac: 0.03,
    }
}

/// The training suite (Table IIIa): gco, pvr, ccl — fully disjoint from
/// the evaluation suite, spanning a spectrum of memory sensitivity
/// (Pbest 3.43x / 2.07x / 1.49x). Built once per process.
pub fn training_suite() -> &'static [Benchmark] {
    static SUITE: LazyLock<Vec<Benchmark>> = LazyLock::new(build_training_suite);
    &SUITE
}

fn build_training_suite() -> Vec<Benchmark> {
    let gco = AccessMix {
        // Graph colouring: irregular, strong per-warp locality on
        // adjacency chunks, some shared frontier, DRAM-heavy sweep.
        alu_per_load: 2,
        mlp: 2,
        ind_gap: 1,
        hot_lines: 12,
        hot_repeat: 2,
        hot_frac: 0.7,
        cold_lines: 500,
        shared_lines: 32,
        shared_frac: 0.15,
        stream_frac: 0.04,
        store_frac: 0.05,
    };
    let pvr = AccessMix {
        // Page-view rank (MapReduce): hash-bucket reuse plus scan traffic.
        alu_per_load: 3,
        mlp: 2,
        ind_gap: 1,
        hot_lines: 10,
        hot_repeat: 2,
        hot_frac: 0.6,
        cold_lines: 800,
        shared_lines: 48,
        shared_frac: 0.25,
        stream_frac: 0.08,
        store_frac: 0.06,
    };
    let ccl = AccessMix {
        // Component labelling: weaker locality, more streaming.
        alu_per_load: 5,
        mlp: 1,
        ind_gap: 2,
        hot_lines: 8,
        hot_repeat: 2,
        hot_frac: 0.5,
        cold_lines: 3500,
        shared_lines: 40,
        shared_frac: 0.18,
        stream_frac: 0.15,
        store_frac: 0.07,
    };
    vec![
        family("gco", gco, 12, 101),
        family("pvr", pvr, 248, 102),
        family("ccl", ccl, 17, 103),
    ]
}

/// A two-phase monolithic kernel: alternates between an intra-heavy and an
/// inter-heavy regime. These model the paper's syrk/gsmv/mvt/atax
/// observation that Poise's periodic re-prediction captures phase changes
/// that kernel-granularity offline profiling (Static-Best) cannot.
fn phased_kernel(name: &str, seed: u64, phase_len: u64) -> KernelSpec {
    let mut a = intra_heavy();
    a.hot_lines = 16;
    a.hot_frac = 0.9;
    a.alu_per_load = 2;
    let mut b = inter_heavy();
    b.shared_frac = 0.5;
    b.cold_lines = 1500;
    KernelSpec::phased(
        name,
        vec![
            Phase {
                mix: a,
                instructions: phase_len,
            },
            Phase {
                mix: b,
                instructions: phase_len,
            },
        ],
        seed,
    )
}

/// The evaluation suite (Table IIIa): eleven benchmarks unseen during
/// training, listed in the paper's order (sorted by Pbest). Built once
/// per process.
pub fn evaluation_suite() -> &'static [Benchmark] {
    static SUITE: LazyLock<Vec<Benchmark>> = LazyLock::new(build_evaluation_suite);
    &SUITE
}

fn build_evaluation_suite() -> Vec<Benchmark> {
    let mut suite = Vec::new();

    // syr2k — Pbest 14.1x: extremely memory-bound, inter-warp dominated,
    // optimum close to the SWL diagonal.
    suite.push(Benchmark::new(
        "syr2k",
        vec![KernelSpec::steady("syr2k#0", inter_heavy(), 201)],
    ));

    // syrk — Pbest 9.0x, monolithic kernel with phase changes.
    suite.push(Benchmark::new(
        "syrk",
        vec![phased_kernel("syrk#0", 202, 30_000)],
    ));

    // mm — Pbest 6.2x, 23 kernels, strongest Poise win (2.94x): intra-heavy
    // and severely memory-bound.
    let mm = AccessMix {
        alu_per_load: 1,
        mlp: 2,
        ind_gap: 0,
        hot_lines: 16,
        hot_repeat: 2,
        hot_frac: 0.9,
        cold_lines: 500,
        shared_lines: 32,
        shared_frac: 0.08,
        stream_frac: 0.02,
        store_frac: 0.03,
    };
    suite.push(family("mm", mm, 23, 203));

    // ii — Pbest 5.9x, 118 kernels, 97% intra-warp hits.
    suite.push(family("ii", intra_heavy(), 118, 204));

    // gsmv — Pbest 3.2x, 2 monolithic phased kernels.
    suite.push(Benchmark::new(
        "gsmv",
        vec![
            phased_kernel("gsmv#0", 205, 24_000),
            phased_kernel("gsmv#1", 206, 40_000),
        ],
    ));

    // mvt — Pbest 3.0x, 1 monolithic phased kernel.
    suite.push(Benchmark::new(
        "mvt",
        vec![phased_kernel("mvt#0", 207, 32_000)],
    ));

    // bicg — Pbest 2.9x, optimum close to the SWL diagonal.
    let mut bicg = inter_heavy();
    bicg.alu_per_load = 2;
    bicg.shared_frac = 0.6;
    bicg.cold_lines = 1200;
    suite.push(Benchmark::new(
        "bicg",
        vec![
            KernelSpec::steady("bicg#0", bicg, 208),
            KernelSpec::steady("bicg#1", bicg, 209).with_warps(16),
        ],
    ));

    // ss — Pbest 2.85x, 164 kernels, moderate mixed locality.
    let ss = AccessMix {
        alu_per_load: 4,
        mlp: 2,
        ind_gap: 1,
        hot_lines: 10,
        hot_repeat: 2,
        hot_frac: 0.6,
        cold_lines: 600,
        shared_lines: 40,
        shared_frac: 0.2,
        stream_frac: 0.08,
        store_frac: 0.05,
    };
    suite.push(family("ss", ss, 164, 210));

    // atax — Pbest 2.7x, 2 monolithic phased kernels.
    suite.push(Benchmark::new(
        "atax",
        vec![
            phased_kernel("atax#0", 211, 28_000),
            phased_kernel("atax#1", 212, 36_000),
        ],
    ));

    // bfs — Pbest 1.55x, 24 kernels, 77% intra / 23% inter, very long
    // reuse distances that defeat even large caches.
    let bfs = AccessMix {
        alu_per_load: 4,
        mlp: 1,
        ind_gap: 2,
        hot_lines: 20,
        hot_repeat: 2,
        hot_frac: 0.55,
        cold_lines: 16_000,
        shared_lines: 24,
        shared_frac: 0.15,
        stream_frac: 0.06,
        store_frac: 0.05,
    };
    suite.push(family("bfs", bfs, 24, 213));

    // kmeans — Pbest 1.42x, 8 kernels, weak sensitivity (streaming plus
    // more compute per load).
    let kmeans = AccessMix {
        alu_per_load: 7,
        mlp: 1,
        ind_gap: 3,
        hot_lines: 6,
        hot_repeat: 2,
        hot_frac: 0.45,
        cold_lines: 20_000,
        shared_lines: 48,
        shared_frac: 0.25,
        stream_frac: 0.18,
        store_frac: 0.07,
    };
    suite.push(family("kmeans", kmeans, 8, 214));

    suite
}

/// The four kernels characterised in Fig. 4, at their published
/// intra/inter-warp splits and reuse distances (ii 97%/3% R=236;
/// bfs 77%/23% R=1136; syr2k 40%/60% R=240; cfd 2%/98% R=3161).
pub fn fig4_kernels() -> Vec<KernelSpec> {
    let ii = intra_heavy();
    let bfs = AccessMix {
        alu_per_load: 4,
        mlp: 1,
        ind_gap: 2,
        hot_lines: 20,
        hot_repeat: 2,
        hot_frac: 0.55,
        cold_lines: 16_000,
        shared_lines: 24,
        shared_frac: 0.15,
        stream_frac: 0.06,
        store_frac: 0.05,
    };
    let syr2k = inter_heavy();
    let cfd = AccessMix {
        // cfd: 2% intra / 98% inter — negligible per-warp reuse, all
        // locality on a shared flux tile, enormous cold sweep.
        alu_per_load: 2,
        mlp: 2,
        ind_gap: 1,
        hot_lines: 2,
        hot_repeat: 1,
        hot_frac: 0.04,
        cold_lines: 24_000,
        shared_lines: 64,
        shared_frac: 0.5,
        stream_frac: 0.03,
        store_frac: 0.04,
    };
    vec![
        KernelSpec::steady("ii", ii, 301),
        KernelSpec::steady("bfs", bfs, 302),
        KernelSpec::steady("syr2k", syr2k, 303),
        KernelSpec::steady("cfd", cfd, 304),
    ]
}

/// The compute-insensitive suite of Fig. 16 (`Pbest < 20%`): long ALU
/// stretches between loads (In above Poise's Imax cut-off) and small
/// footprints. Built once per process.
pub fn compute_insensitive_suite() -> &'static [Benchmark] {
    static SUITE: LazyLock<Vec<Benchmark>> = LazyLock::new(build_compute_insensitive_suite);
    &SUITE
}

fn build_compute_insensitive_suite() -> Vec<Benchmark> {
    let names: [(&str, usize, u64); 7] = [
        ("wc", 60, 401),
        ("covar", 80, 402),
        ("gramschm", 70, 403),
        ("sradv2", 90, 404),
        ("hybridsort", 65, 405),
        ("hotspot", 100, 406),
        ("pathfinder", 75, 407),
    ];
    names
        .iter()
        .map(|&(name, alu, seed)| {
            let mut mix = AccessMix::compute_intensive();
            mix.alu_per_load = alu;
            Benchmark::new(
                name,
                vec![KernelSpec::steady(format!("{name}#0"), mix, seed)],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iiia_kernel_counts_are_respected() {
        let train = training_suite();
        let counts: Vec<(String, usize)> = train
            .iter()
            .map(|b| (b.name.clone(), b.kernels.len()))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("gco".to_string(), 12),
                ("pvr".to_string(), 248),
                ("ccl".to_string(), 17)
            ]
        );
        assert_eq!(train.iter().map(|b| b.kernels.len()).sum::<usize>(), 277);

        let eval = evaluation_suite();
        assert_eq!(eval.iter().map(|b| b.kernels.len()).sum::<usize>(), 346);
        let by_name = |n: &str| {
            eval.iter()
                .find(|b| b.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
                .kernels
                .len()
        };
        assert_eq!(by_name("ii"), 118);
        assert_eq!(by_name("ss"), 164);
        assert_eq!(by_name("mm"), 23);
        assert_eq!(by_name("bfs"), 24);
        assert_eq!(by_name("syr2k"), 1);
    }

    #[test]
    fn training_and_evaluation_are_disjoint() {
        let train: std::collections::HashSet<String> =
            training_suite().iter().map(|b| b.name.clone()).collect();
        for b in evaluation_suite() {
            assert!(!train.contains(&b.name));
        }
    }

    #[test]
    fn suites_are_built_once_and_equal_a_fresh_build() {
        assert!(std::ptr::eq(evaluation_suite(), evaluation_suite()));
        let same = |a: &[Benchmark], b: Vec<Benchmark>| {
            a.len() == b.len()
                && a.iter()
                    .zip(&b)
                    .all(|(x, y)| x.name == y.name && x.kernels == y.kernels)
        };
        assert!(same(training_suite(), build_training_suite()));
        assert!(same(evaluation_suite(), build_evaluation_suite()));
        assert!(same(
            compute_insensitive_suite(),
            build_compute_insensitive_suite()
        ));
    }

    #[test]
    fn jitter_is_deterministic_and_diverse() {
        let base = intra_heavy();
        let (a1, w1) = jitter(&base, 42, 7);
        let (a2, w2) = jitter(&base, 42, 7);
        assert_eq!(a1, a2);
        assert_eq!(w1, w2);
        let (b, _) = jitter(&base, 42, 8);
        assert_ne!(a1, b);
    }

    #[test]
    fn compute_insensitive_kernels_have_high_in() {
        for b in compute_insensitive_suite() {
            let mix = b.kernels[0].synthetic().unwrap().base_mix();
            // In ~ alu_per_load + ind_gap per load; must exceed Imax = 49.
            assert!(mix.alu_per_load + mix.ind_gap > 49, "{}", b.name);
        }
    }

    #[test]
    fn fig4_kernels_cover_the_four_benchmarks() {
        let names: Vec<String> = fig4_kernels().iter().map(|k| k.name.clone()).collect();
        assert_eq!(names, vec!["ii", "bfs", "syr2k", "cfd"]);
    }

    #[test]
    fn fig4_reuse_distance_ordering_matches_paper() {
        // Paper: R(ii) = 236 < R(bfs) = 1136 < R(cfd) = 3161; syr2k = 240.
        let ks = fig4_kernels();
        let cold = |i: usize| ks[i].base_mix().cold_lines;
        assert!(cold(0) < cold(1), "ii < bfs");
        assert!(cold(1) < cold(3), "bfs < cfd");
    }

    #[test]
    fn phased_kernels_alternate_phases() {
        let k = phased_kernel("x", 1, 1000);
        assert_eq!(k.phases.len(), 2);
        assert!(k.phases[0].mix.hot_frac > k.phases[1].mix.hot_frac);
    }
}
