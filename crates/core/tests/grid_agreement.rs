//! Full-resolution vs coarse profiling grids (ROADMAP "Bigger grids").
//!
//! `GridSpec::coarse(24)` was a concession to the slower cycle-stepped
//! core: a geometric N-ladder plus a power-of-two p-ladder instead of the
//! full 300-point triangle. With the per-SM decoupled core the full
//! triangle is routinely affordable (the Fig. 2/5 regenerators now use
//! it), and this test pins the property that made the coarse grid
//! acceptable in the first place: both grids locate the same best
//! operating point, up to grid adjacency.

use gpu_sim::GpuConfig;
use poise::profiler::{profile_grid, GridSpec, ProfileWindow};
use workloads::{evaluation_suite, AccessMix, KernelSpec, Workload};

#[test]
fn full_and_coarse_grids_agree_on_the_best_tuple() {
    let cfg = GpuConfig::scaled(1);
    let window = ProfileWindow {
        warmup: 8_000,
        measure: 6_000,
    };
    let ii = evaluation_suite()
        .iter()
        .find(|b| b.name == "ii")
        .expect("ii benchmark");
    let kernels = [
        Workload::from(KernelSpec::steady(
            "agree-thrash",
            AccessMix::memory_sensitive(),
            5,
        )),
        ii.kernels[0].clone(),
    ];
    for spec in &kernels {
        let full = profile_grid(spec, &cfg, &GridSpec::full(24), window);
        let coarse = profile_grid(spec, &cfg, &GridSpec::coarse(24), window);
        let (ft, fs) = full.best_performance().expect("full grid profiled");
        let (ct, cs) = coarse.best_performance().expect("coarse grid profiled");
        let dn = ft.n.abs_diff(ct.n);
        let dp = ft.p.abs_diff(ct.p);
        assert!(
            dn <= 1 && dp <= 1,
            "{}: full(24) best {ft} and coarse(24) best {ct} are not adjacent",
            spec.name()
        );
        // The coarse pick must also be competitive in speedup, not merely
        // nearby in the plane.
        assert!(
            cs >= 0.95 * fs,
            "{}: coarse best {ct}@{cs:.3} far below full best {ft}@{fs:.3}",
            spec.name()
        );
    }
}
