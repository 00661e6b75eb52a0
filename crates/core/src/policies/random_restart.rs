//! Random-restart hill climbing (paper §VII-J, "Stochastic search").
//!
//! Each epoch the controller picks a uniformly random warp-tuple, performs
//! the same stride-halving gradient-ascent local search Poise uses, and
//! runs at the converged tuple for the remainder of the epoch. Random
//! restarts escape local optima eventually, but — as the paper observes —
//! a random starting point is usually far from the optimum, so much of the
//! epoch is burned sampling mediocre tuples.

use gpu_sim::{ControlCtx, Controller, WarpTuple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Default sampling window length per probe (cycles); matches Poise's
/// Tsearch.
const SAMPLE_CYCLES: u64 = 4_000;
/// Default warmup after each steering change (cycles).
const WARMUP_CYCLES: u64 = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    N,
    P,
}

#[derive(Debug, Clone)]
enum State {
    Warmup { until: u64 },
    Sample { until: u64 },
    Stable,
}

/// The random-restart stochastic search controller.
#[derive(Debug)]
pub struct RandomRestartController {
    rng: SmallRng,
    epoch_len: u64,
    epoch_start: u64,
    warmup_cycles: u64,
    sample_cycles: u64,
    state: State,
    axis: Axis,
    stride: usize,
    stride_n: usize,
    stride_p: usize,
    current: WarpTuple,
    current_ipc: Option<f64>,
    pending: Vec<WarpTuple>,
    sampled: Vec<(WarpTuple, f64)>,
    measuring: Option<WarpTuple>,
    /// Converged tuples per epoch (diagnostics).
    pub converged: Vec<WarpTuple>,
}

impl RandomRestartController {
    /// Build with an RNG seed (experiments average over several seeds) and
    /// an epoch length comparable to Poise's Tperiod.
    pub fn new(seed: u64, epoch_len: u64) -> Self {
        RandomRestartController {
            rng: SmallRng::seed_from_u64(seed),
            epoch_len,
            epoch_start: 0,
            warmup_cycles: WARMUP_CYCLES,
            sample_cycles: SAMPLE_CYCLES,
            state: State::Stable,
            axis: Axis::N,
            stride: 2,
            stride_n: 2,
            stride_p: 4,
            current: WarpTuple { n: 1, p: 1 },
            current_ipc: None,
            pending: Vec::new(),
            sampled: Vec::new(),
            measuring: None,
            converged: Vec::new(),
        }
    }

    fn restart(&mut self, ctx: &mut ControlCtx) {
        self.epoch_start = ctx.cycle;
        let n = self.rng.gen_range(1..=ctx.kernel_warps);
        let p = self.rng.gen_range(1..=n);
        self.current = WarpTuple::new(n, p, ctx.kernel_warps);
        self.current_ipc = None;
        self.axis = Axis::N;
        self.stride = self.stride_n;
        self.pending.clear();
        self.sampled.clear();
        self.measure(ctx, self.current);
    }

    /// Builder: override the probe windows (used by fast tests).
    pub fn with_windows(mut self, warmup: u64, sample: u64) -> Self {
        self.warmup_cycles = warmup;
        self.sample_cycles = sample;
        self
    }

    fn measure(&mut self, ctx: &mut ControlCtx, t: WarpTuple) {
        ctx.set_tuple_all(t);
        ctx.reset_window();
        self.measuring = Some(t);
        self.state = State::Warmup {
            until: ctx.cycle + self.warmup_cycles,
        };
    }

    fn neighbour(&self, dir: i64, max_warps: usize) -> Option<WarpTuple> {
        let s = self.stride as i64 * dir;
        let (n, p) = match self.axis {
            Axis::N => (self.current.n as i64 + s, self.current.p as i64),
            Axis::P => (self.current.n as i64, self.current.p as i64 + s),
        };
        (n >= 1 && p >= 1 && p <= n && n <= max_warps as i64)
            .then(|| WarpTuple::new(n as usize, p as usize, max_warps))
    }

    fn queue_step(&mut self, max_warps: usize) {
        self.pending.clear();
        self.sampled.clear();
        for dir in [-1i64, 1] {
            if let Some(t) = self.neighbour(dir, max_warps) {
                self.pending.push(t);
            }
        }
    }

    fn advance(&mut self, ctx: &mut ControlCtx) {
        loop {
            if let Some(t) = self.pending.pop() {
                self.measure(ctx, t);
                return;
            }
            if !self.sampled.is_empty() {
                let cur = self.current_ipc.unwrap_or(0.0);
                let best = self
                    .sampled
                    .iter()
                    .copied()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                match best {
                    Some((t, ipc)) if ipc > cur => {
                        self.current = t;
                        self.current_ipc = Some(ipc);
                    }
                    _ => self.stride /= 2,
                }
                self.sampled.clear();
            }
            if self.stride == 0 {
                match self.axis {
                    Axis::N => {
                        self.axis = Axis::P;
                        self.stride = self.stride_p;
                        continue;
                    }
                    Axis::P => {
                        self.converged.push(self.current);
                        ctx.set_tuple_all(self.current);
                        self.state = State::Stable;
                        return;
                    }
                }
            }
            self.queue_step(ctx.kernel_warps);
            if self.pending.is_empty() {
                self.stride /= 2;
            }
        }
    }
}

impl Controller for RandomRestartController {
    fn on_kernel_start(&mut self, ctx: &mut ControlCtx) {
        self.restart(ctx);
    }

    fn on_cycle(&mut self, ctx: &mut ControlCtx) {
        if ctx.cycle.saturating_sub(self.epoch_start) >= self.epoch_len {
            self.restart(ctx);
            return;
        }
        match self.state {
            State::Warmup { until } => {
                if ctx.cycle >= until {
                    ctx.reset_window();
                    self.state = State::Sample {
                        until: ctx.cycle + self.sample_cycles,
                    };
                }
            }
            State::Sample { until } => {
                if ctx.cycle >= until {
                    let ipc = ctx.window().ipc;
                    if let Some(t) = self.measuring.take() {
                        if t == self.current && self.current_ipc.is_none() {
                            self.current_ipc = Some(ipc);
                        } else {
                            self.sampled.push((t, ipc));
                        }
                    }
                    self.advance(ctx);
                }
            }
            State::Stable => {}
        }
    }

    fn next_wake(&self, _now: u64) -> Option<u64> {
        // Acts at the active probe deadline and at every epoch restart.
        let epoch_end = self.epoch_start + self.epoch_len;
        let state_deadline = match self.state {
            State::Warmup { until } | State::Sample { until } => Some(until),
            State::Stable => None,
        };
        Some(state_deadline.map_or(epoch_end, |u| u.min(epoch_end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Gpu, GpuConfig};
    use workloads::{AccessMix, KernelSpec};

    #[test]
    fn converges_each_epoch_within_domain() {
        let spec = KernelSpec::steady("rr-t", AccessMix::memory_sensitive(), 5);
        let mut gpu = Gpu::new(GpuConfig::scaled(1), &spec);
        let mut ctrl = RandomRestartController::new(42, 15_000).with_windows(200, 400);
        gpu.run(&mut ctrl, 60_000);
        assert!(
            ctrl.converged.len() >= 2,
            "expected multiple restarts, got {}",
            ctrl.converged.len()
        );
        for t in &ctrl.converged {
            assert!(t.p <= t.n && t.n <= 24);
        }
    }

    #[test]
    fn different_seeds_restart_differently() {
        let spec = KernelSpec::steady("rr-s", AccessMix::memory_sensitive(), 5);
        let run = |seed| {
            let mut gpu = Gpu::new(GpuConfig::scaled(1), &spec);
            let mut ctrl = RandomRestartController::new(seed, 12_000).with_windows(200, 400);
            gpu.run(&mut ctrl, 40_000);
            ctrl.converged
        };
        // Not guaranteed distinct in principle, but over several epochs
        // with different seeds a collision of all tuples is vanishingly
        // rare.
        assert_ne!(run(1), run(999));
    }
}
