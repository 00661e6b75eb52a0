//! Offline {N, p} profiling: steady-state runs at fixed tuples, full or
//! coarse grid sweeps (parallelised with [`std::thread::scope`]), and the
//! `Pbest` classification.

use crate::parallel::parallel_map;
use gpu_sim::{Counters, FixedTuple, Gpu, GpuConfig, KernelSource, WarpTuple};
use poise_ml::SpeedupGrid;
use workloads::Workload;

/// Warmup/measure windows of a profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileWindow {
    /// Cycles simulated before measurement starts.
    pub warmup: u64,
    /// Cycles measured.
    pub measure: u64,
}

impl Default for ProfileWindow {
    fn default() -> Self {
        // Under maximal thrashing the protected working set of a small-p
        // tuple takes ~20k cycles to become resident (every fill fights a
        // saturated memory system), so steady-state measurement needs a
        // long warmup.
        ProfileWindow {
            warmup: 18_000,
            measure: 8_000,
        }
    }
}

impl ProfileWindow {
    /// A long window for the Pbest classification runs: a 64× L1 holds
    /// thousands of lines and takes ~100k cycles to warm through a cold
    /// memory hierarchy.
    pub fn pbest() -> Self {
        ProfileWindow {
            warmup: 100_000,
            measure: 30_000,
        }
    }
}

/// The result of one steady-state run at a fixed tuple.
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// The tuple the run executed at.
    pub tuple: WarpTuple,
    /// Counters over the measurement window only.
    pub window: Counters,
}

impl SteadyState {
    /// Instructions per cycle over the measurement window.
    pub fn ipc(&self) -> f64 {
        self.window.ipc()
    }
}

/// Run `spec` at a fixed `tuple` and return windowed counters.
pub fn run_tuple(
    spec: &Workload,
    cfg: &GpuConfig,
    tuple: WarpTuple,
    window: ProfileWindow,
) -> SteadyState {
    let mut gpu = Gpu::new(cfg.clone(), spec);
    let mut ctrl = FixedTuple::new(tuple);
    gpu.run(&mut ctrl, window.warmup);
    gpu.stats_mut().reset_window();
    gpu.run(&mut ctrl, window.measure);
    SteadyState {
        tuple,
        window: gpu.stats().window,
    }
}

/// Which {N, p} points to profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    points: Vec<(usize, usize)>,
    max_n: usize,
}

impl GridSpec {
    /// Every tuple with `1 <= p <= n <= max_n`.
    pub fn full(max_n: usize) -> Self {
        let points = (1..=max_n)
            .flat_map(|n| (1..=n).map(move |p| (n, p)))
            .collect();
        GridSpec { points, max_n }
    }

    /// A cheaper grid: N restricted to a geometric-ish ladder and p to
    /// powers of two plus the diagonal — dense enough for scoring while an
    /// order of magnitude cheaper than the full triangle.
    pub fn coarse(max_n: usize) -> Self {
        let mut ns: Vec<usize> = vec![1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24];
        ns.retain(|&n| n <= max_n);
        if !ns.contains(&max_n) {
            ns.push(max_n);
        }
        let mut points = Vec::new();
        for &n in &ns {
            let mut ps = vec![1usize, 2, 4, 8, 16];
            ps.push(n);
            ps.push(n.saturating_sub(1).max(1));
            ps.sort_unstable();
            ps.dedup();
            for p in ps {
                if p <= n {
                    points.push((n, p));
                }
            }
        }
        GridSpec { points, max_n }
    }

    /// The diagonal `p == n` only (the SWL search space).
    pub fn diagonal(max_n: usize) -> Self {
        GridSpec {
            points: (1..=max_n).map(|n| (n, n)).collect(),
            max_n,
        }
    }

    /// The profiled points.
    pub fn points(&self) -> &[(usize, usize)] {
        &self.points
    }

    /// Largest N in the grid.
    pub fn max_n(&self) -> usize {
        self.max_n
    }
}

/// Profile `spec` over `grid`, returning speedups relative to the maximal
/// tuple `(max, max)` (the GTO baseline). Runs points in parallel across
/// the host's cores.
pub fn profile_grid(
    spec: &Workload,
    cfg: &GpuConfig,
    grid: &GridSpec,
    window: ProfileWindow,
) -> SpeedupGrid {
    profile_grid_runs(spec, cfg, grid, window).grid
}

/// A profiled grid together with the steady-state runs behind it.
pub(crate) struct GridRuns {
    pub(crate) grid: SpeedupGrid,
    /// The `(max, max)` baseline run.
    pub(crate) base: SteadyState,
    /// The runs of the other profiled points, in grid order.
    pub(crate) points: Vec<SteadyState>,
}

impl GridRuns {
    /// The run at `tuple`, if the profile simulated it.
    pub(crate) fn run_at(&self, tuple: WarpTuple) -> Option<&SteadyState> {
        std::iter::once(&self.base)
            .chain(&self.points)
            .find(|st| st.tuple == tuple)
    }
}

/// [`profile_grid`], keeping the runs so callers can reuse them. The
/// baseline is a speedup of exactly 1 by construction, so it is simulated
/// once, not again as a grid point.
pub(crate) fn profile_grid_runs(
    spec: &Workload,
    cfg: &GpuConfig,
    grid: &GridSpec,
    window: ProfileWindow,
) -> GridRuns {
    let max_warps = spec.warps_per_scheduler().min(cfg.max_warps_per_scheduler);
    let max = WarpTuple::max(max_warps);
    let base = run_tuple(spec, cfg, max, window);
    let base_ipc = base.ipc().max(1e-9);

    let tuples: Vec<WarpTuple> = grid
        .points()
        .iter()
        .map(|&(n, p)| WarpTuple { n, p })
        .filter(|&t| t.n <= max_warps && t.p <= t.n && t != max)
        .collect();

    let points = parallel_map(&tuples, |&t| run_tuple(spec, cfg, t, window));

    let mut out = SpeedupGrid::new(max_warps);
    for st in &points {
        out.set(st.tuple.n, st.tuple.p, st.ipc() / base_ipc);
    }
    out.set(max.n, max.p, 1.0);
    GridRuns {
        grid: out,
        base,
        points,
    }
}

/// Compute `Pbest`: the speedup of the kernel when the L1 is scaled 64×
/// (the paper's memory-sensitivity classifier; sensitive iff > 1.4).
pub fn pbest(spec: &Workload, cfg: &GpuConfig, window: ProfileWindow) -> f64 {
    let max_warps = spec.warps_per_scheduler().min(cfg.max_warps_per_scheduler);
    let t = WarpTuple::max(max_warps);
    let base = run_tuple(spec, cfg, t, window);
    let big_cfg = cfg.clone().with_l1_scale(64);
    let big = run_tuple(spec, &big_cfg, t, window);
    big.ipc() / base.ipc().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{AccessMix, KernelSpec};

    fn quick_cfg() -> GpuConfig {
        GpuConfig::scaled(2)
    }

    fn thrashy_kernel() -> Workload {
        KernelSpec::steady("thrash", AccessMix::memory_sensitive(), 5).into()
    }

    #[test]
    fn grid_specs_cover_expected_points() {
        let full = GridSpec::full(4);
        assert_eq!(full.points().len(), 1 + 2 + 3 + 4);
        let diag = GridSpec::diagonal(6);
        assert!(diag.points().iter().all(|&(n, p)| n == p));
        assert_eq!(diag.points().len(), 6);
        let coarse = GridSpec::coarse(24);
        assert!(coarse.points().len() < GridSpec::full(24).points().len());
        // The diagonal of every ladder N must be present for SWL-style
        // lookups, including the extremes.
        for n in [1, 2, 4, 8, 16, 24] {
            assert!(coarse.points().contains(&(n, n)), "missing ({n},{n})");
        }
    }

    #[test]
    fn run_tuple_measures_window_only() {
        let st = run_tuple(
            &thrashy_kernel(),
            &quick_cfg(),
            WarpTuple::new(4, 2, 24),
            ProfileWindow {
                warmup: 500,
                measure: 1_000,
            },
        );
        assert_eq!(st.window.cycles, 1_000);
        assert!(st.window.instructions > 0);
    }

    #[test]
    fn profile_grid_normalises_to_baseline() {
        let g = profile_grid(
            &thrashy_kernel(),
            &quick_cfg(),
            &GridSpec::diagonal(8),
            ProfileWindow {
                warmup: 300,
                measure: 800,
            },
        );
        // The max-warps diagonal point is the baseline itself.
        let max_n = g.max_n();
        let s = g.get(max_n, max_n).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pbest_exceeds_one_for_thrashing_kernels() {
        // The big cache needs a long warmup before its benefit shows.
        let p = pbest(
            &thrashy_kernel(),
            &quick_cfg(),
            ProfileWindow {
                warmup: 30_000,
                measure: 8_000,
            },
        );
        assert!(p > 1.1, "64x L1 must help a thrashing kernel, got {p}");
    }

    #[test]
    fn profile_respects_kernel_occupancy() {
        let k: Workload = KernelSpec::steady("thrash", AccessMix::memory_sensitive(), 5)
            .with_warps(8)
            .into();
        let g = profile_grid(
            &k,
            &quick_cfg(),
            &GridSpec::full(24),
            ProfileWindow {
                warmup: 100,
                measure: 300,
            },
        );
        assert_eq!(g.max_n(), 8);
        assert!(g.get(9, 1).is_none());
    }
}
