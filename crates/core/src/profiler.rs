//! Offline {N, p} profiling: steady-state runs at fixed tuples, full or
//! coarse grid sweeps (parallelised with [`std::thread::scope`]), and the
//! `Pbest` classification.
//!
//! ## The steady-state memo
//!
//! [`run_tuple`] simulates one point: a workload on a machine
//! configuration at a fixed tuple over a warmup/measure window. Every
//! other entry point runs its points through a [`SteadyMemo`], which
//! keeps each point's [`SteadyState`] once simulated: [`SteadyMemo::runs`]
//! resolves a (workload, configuration, window) to its [`SteadyRuns`],
//! under the job identity equality of [`crate::jobs`], and
//! [`SteadyRuns::run`] and [`SteadyRuns::profile`] answer from it. A
//! point's first request simulates it; a concurrent request waits for
//! that simulation; later requests reuse it. A simulation that panics
//! leaves its point empty, so the next request runs it again and panics
//! the same way.
//!
//! The job engine owns one memo per pass, so the profiles, samples,
//! tuple runs and Pbest classifications of a pass simulate each point
//! once (see "Execution model" in [`crate::jobs`]). [`profile_grid`]
//! and [`crate::train::collect_sample`] keep their signatures and run
//! over a fresh memo of their own: one code path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::jobs::{fingerprint, SpecEq};
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
/// the host's cores, over a fresh [`SteadyMemo`].
pub fn profile_grid(
    spec: &Workload,
    cfg: &GpuConfig,
    grid: &GridSpec,
    window: ProfileWindow,
) -> SpeedupGrid {
    SteadyMemo::default().runs(spec, cfg, window).profile(grid)
}

/// Compute `Pbest`: the speedup of the kernel when the L1 is scaled 64×
/// (the paper's memory-sensitivity classifier; sensitive iff > 1.4),
/// over `memo`'s runs.
pub fn pbest(memo: &SteadyMemo, spec: &Workload, cfg: &GpuConfig, window: ProfileWindow) -> f64 {
    let base = memo.runs(spec, cfg, window);
    let big = memo.runs(spec, &cfg.clone().with_l1_scale(64), window);
    let t = base.max_tuple();
    let base_ipc = base.run(t).ipc().max(1e-9);
    big.run(t).ipc() / base_ipc
}

/// A memo of steady-state runs: see "The steady-state memo" in the
/// module docs.
#[derive(Default)]
pub struct SteadyMemo {
    /// Fingerprint → the machines with it.
    machines: Mutex<HashMap<u64, Vec<Arc<Machine>>>>,
    /// Points simulated through this memo (a reuse does not count).
    simulated: AtomicUsize,
}

/// What one memo entry simulates, held once for all its points: a
/// workload on a machine configuration over a window. Compared and
/// fingerprinted under the job identity equality.
pub(crate) struct MachineKey {
    pub(crate) workload: Workload,
    pub(crate) cfg: GpuConfig,
    pub(crate) window: ProfileWindow,
}

/// One memo entry: its key and the points requested so far.
struct Machine {
    key: MachineKey,
    /// A tuple is absent until requested, and again after its
    /// simulation panicked.
    points: Mutex<HashMap<WarpTuple, PointState>>,
    /// Signalled whenever a simulation of one of the points ends.
    changed: Condvar,
}

/// A requested point.
enum PointState {
    /// A thread is simulating it.
    Running,
    /// Simulated: its run.
    Done(Box<SteadyState>),
}

/// A point a thread is simulating. Dropping it publishes `done`, or
/// forgets the point when the simulation unwound, and wakes the
/// machine's waiters.
struct Claim<'a> {
    machine: &'a Machine,
    tuple: WarpTuple,
    done: Option<SteadyState>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut points = self
            .machine
            .points
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match self.done.take() {
            Some(st) => points.insert(self.tuple, PointState::Done(Box::new(st))),
            None => points.remove(&self.tuple),
        };
        self.machine.changed.notify_all();
    }
}

impl SteadyMemo {
    /// The memo's runs of `spec` on `cfg` over `window`.
    pub fn runs(&self, spec: &Workload, cfg: &GpuConfig, window: ProfileWindow) -> SteadyRuns<'_> {
        let key = MachineKey {
            workload: spec.clone(),
            cfg: cfg.clone(),
            window,
        };
        let print = fingerprint(&key);
        let mut machines = self.machines.lock().expect("memo machines");
        let bucket = machines.entry(print).or_default();
        let machine = match bucket.iter().find(|m| m.key.spec_eq(&key)) {
            Some(m) => Arc::clone(m),
            None => {
                let m = Arc::new(Machine {
                    key,
                    points: Mutex::default(),
                    changed: Condvar::new(),
                });
                bucket.push(Arc::clone(&m));
                m
            }
        };
        SteadyRuns {
            memo: self,
            machine,
        }
    }

    /// How many points were simulated through this memo: each distinct
    /// point once, plus a re-run for every simulation that panicked.
    pub fn simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }
}

/// A [`SteadyMemo`]'s runs of one workload on one machine over one
/// window.
pub struct SteadyRuns<'a> {
    memo: &'a SteadyMemo,
    machine: Arc<Machine>,
}

impl SteadyRuns<'_> {
    /// The run at `tuple`: simulated on the first request, waited for
    /// while another thread simulates it, reused after.
    pub fn run(&self, tuple: WarpTuple) -> SteadyState {
        self.request(tuple, true)
            .expect("a waiting request always gets a run")
    }

    /// The most warps per scheduler the workload fills on the machine.
    pub fn max_warps(&self) -> usize {
        let MachineKey { workload, cfg, .. } = &self.machine.key;
        workload
            .warps_per_scheduler()
            .min(cfg.max_warps_per_scheduler)
    }

    /// The maximal tuple `(max, max)`: the GTO baseline.
    pub fn max_tuple(&self) -> WarpTuple {
        WarpTuple::max(self.max_warps())
    }

    /// Speedups over `grid` relative to the baseline [`Self::max_tuple`],
    /// which is a speedup of exactly 1 by construction, so it is not run
    /// again as a grid point. The baseline runs first, on the calling
    /// thread; the other points fan out across the host's cores, and a
    /// point another thread is simulating is waited for only once every
    /// other point is done, so two jobs over one grid share its points
    /// instead of one idling behind the other.
    pub fn profile(&self, grid: &GridSpec) -> SpeedupGrid {
        let max_warps = self.max_warps();
        let max = WarpTuple::max(max_warps);
        let base_ipc = self.run(max).ipc().max(1e-9);
        let tuples: Vec<WarpTuple> = grid
            .points()
            .iter()
            .map(|&(n, p)| WarpTuple { n, p })
            .filter(|&t| t.n <= max_warps && t.p <= t.n && t != max)
            .collect();
        let first = parallel_map(&tuples, |&t| self.request(t, false));
        let mut out = SpeedupGrid::new(max_warps);
        for (&t, st) in tuples.iter().zip(first) {
            let st = st.unwrap_or_else(|| self.run(t));
            out.set(t.n, t.p, st.ipc() / base_ipc);
        }
        out.set(max.n, max.p, 1.0);
        out
    }

    /// The run at `tuple`, simulating it if no thread has; `None` when
    /// `wait` is false and another thread is simulating it.
    fn request(&self, tuple: WarpTuple, wait: bool) -> Option<SteadyState> {
        let machine = &*self.machine;
        let mut points = machine.points.lock().expect("memo points");
        loop {
            match points.get(&tuple) {
                Some(PointState::Done(st)) => return Some(SteadyState::clone(st)),
                Some(PointState::Running) if !wait => return None,
                Some(PointState::Running) => {
                    points = machine.changed.wait(points).expect("memo points")
                }
                None => break,
            }
        }
        points.insert(tuple, PointState::Running);
        drop(points);
        let mut claim = Claim {
            machine,
            tuple,
            done: None,
        };
        let MachineKey {
            workload,
            cfg,
            window,
        } = &machine.key;
        let st = run_tuple(workload, cfg, tuple, *window);
        self.memo.simulated.fetch_add(1, Ordering::Relaxed);
        claim.done = Some(st.clone());
        Some(st)
    }
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
            &SteadyMemo::default(),
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
    fn concurrent_requests_for_one_point_share_one_simulation() {
        let memo = SteadyMemo::default();
        let (k, cfg) = (thrashy_kernel(), quick_cfg());
        // A few milliseconds: the second request arrives while the first
        // simulates.
        let window = ProfileWindow {
            warmup: 40_000,
            measure: 10_000,
        };
        let t = WarpTuple::new(4, 2, 24);
        let run = || memo.runs(&k, &cfg, window).run(t);
        let requested = || {
            let runs = memo.runs(&k, &cfg, window);
            let points = runs.machine.points.lock().unwrap();
            points.contains_key(&t)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(run);
            while !requested() {
                std::thread::yield_now();
            }
            let b = s.spawn(run);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.window, b.window);
        assert_eq!(memo.simulated(), 1);
        // Engine-only fields are not part of the key.
        let mut reference = cfg.clone();
        reference.step_mode = gpu_sim::StepMode::Reference;
        assert_eq!(memo.runs(&k, &reference, window).run(t).window, a.window);
        assert_eq!(memo.simulated(), 1);
    }

    #[test]
    fn a_panicking_simulation_leaves_its_point_empty() {
        // An invalid kernel (no phases) makes every simulation of it panic.
        let bad: Workload = KernelSpec {
            name: "bad".into(),
            warps_per_scheduler: 4,
            phases: Vec::new(),
            trace_len: None,
            seed: 0,
        }
        .into();
        let memo = SteadyMemo::default();
        let runs = memo.runs(&bad, &quick_cfg(), ProfileWindow::default());
        let t = runs.max_tuple();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runs.run(t)));
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runs.run(t)));
        let message = |r: std::thread::Result<SteadyState>| match r {
            Ok(_) => panic!("an invalid kernel must not simulate"),
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string())),
        };
        assert_eq!(
            message(first),
            message(second),
            "the re-run fails the same way"
        );
        assert_eq!(memo.simulated(), 0);
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
