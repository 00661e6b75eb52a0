//! Performance counters.
//!
//! The simulator maintains two copies of every counter: a cumulative
//! `total` and a resettable `window`. Control policies (and in particular
//! Poise's hardware inference engine) sample the window over fixed-length
//! intervals — exactly how the paper's seven 32-bit per-SM performance
//! counters are used — and reset it between samples.

/// Apply a macro to the full ordered field list of [`Counters`]: the
/// order of its text encoding ([`Counters::to_line`]). Every user
/// destructures or builds a `Counters` without `..`, so a field missing
/// here fails to compile.
macro_rules! with_counter_fields {
    ($m:ident) => {
        $m!(
            cycles,
            instructions,
            loads,
            stores,
            l1_accesses,
            l1_hits,
            l1_intra_hits,
            l1_inter_hits,
            l1_hits_polluting,
            l1_accesses_polluting,
            l1_hits_non_polluting,
            l1_accesses_non_polluting,
            l1_misses_completed,
            miss_latency_sum,
            l1_rejects,
            mshr_allocations,
            mshr_merges,
            l2_accesses,
            l2_hits,
            dram_accesses,
            busy_scheduler_cycles,
            stall_scheduler_cycles,
            in_gap_sum,
            in_gap_count,
            reuse_distance_sum,
            reuse_distance_count
        )
    };
}

/// Raw event counters, aggregated over the whole GPU.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Cycles elapsed (advanced once per GPU cycle).
    pub cycles: u64,
    /// Instructions issued (all kinds).
    pub instructions: u64,
    /// Global load instructions issued.
    pub loads: u64,
    /// Global store instructions issued.
    pub stores: u64,
    /// L1 data cache lookups (loads only).
    pub l1_accesses: u64,
    /// L1 load hits.
    pub l1_hits: u64,
    /// L1 load hits whose line was previously touched by the same warp.
    pub l1_intra_hits: u64,
    /// L1 load hits on lines touched only by other warps.
    pub l1_inter_hits: u64,
    /// L1 hits experienced by cache-polluting warps.
    pub l1_hits_polluting: u64,
    /// L1 lookups by cache-polluting warps.
    pub l1_accesses_polluting: u64,
    /// L1 hits experienced by non-polluting warps.
    pub l1_hits_non_polluting: u64,
    /// L1 lookups by non-polluting warps.
    pub l1_accesses_non_polluting: u64,
    /// Completed L1 miss requests (counted at fill time, merged requests
    /// counted individually).
    pub l1_misses_completed: u64,
    /// Sum over completed misses of (fill time − issue time), for AML.
    pub miss_latency_sum: u64,
    /// Load requests rejected for structural reasons (MSHRs full, merge
    /// limit, replacement-unavailable).
    pub l1_rejects: u64,
    /// MSHR allocations (primary misses).
    pub mshr_allocations: u64,
    /// Requests merged into an existing MSHR entry (secondary misses).
    pub mshr_merges: u64,
    /// L2 lookups.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// DRAM line transfers.
    pub dram_accesses: u64,
    /// Scheduler-cycles in which an instruction was issued.
    pub busy_scheduler_cycles: u64,
    /// Scheduler-cycles in which no instruction could be issued while live
    /// warps remained.
    pub stall_scheduler_cycles: u64,
    /// Sum of per-load "instructions since previous load" gaps, for In.
    pub in_gap_sum: u64,
    /// Number of gaps accumulated into `in_gap_sum`.
    pub in_gap_count: u64,
    /// Sum of observed per-warp LRU stack distances (reuse distances), in
    /// lines; only accumulated when reuse tracking is enabled.
    pub reuse_distance_sum: u64,
    /// Number of reuses accumulated into `reuse_distance_sum`.
    pub reuse_distance_count: u64,
}

impl Counters {
    /// Instructions per cycle over the counted interval.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Net L1 load hit rate (`ho` / `h'` in the paper, depending on the
    /// warp-tuple active while counting).
    pub fn l1_hit_rate(&self) -> f64 {
        ratio(self.l1_hits, self.l1_accesses)
    }

    /// Intra-warp hit rate (`eta` in the paper): intra-warp hits over all
    /// L1 lookups.
    pub fn intra_warp_hit_rate(&self) -> f64 {
        ratio(self.l1_intra_hits, self.l1_accesses)
    }

    /// Inter-warp hit rate: inter-warp hits over all L1 lookups.
    pub fn inter_warp_hit_rate(&self) -> f64 {
        ratio(self.l1_inter_hits, self.l1_accesses)
    }

    /// Hit rate experienced by cache-polluting warps (`hp`).
    pub fn polluting_hit_rate(&self) -> f64 {
        ratio(self.l1_hits_polluting, self.l1_accesses_polluting)
    }

    /// Hit rate experienced by non-polluting warps (`hnp`).
    pub fn non_polluting_hit_rate(&self) -> f64 {
        ratio(self.l1_hits_non_polluting, self.l1_accesses_non_polluting)
    }

    /// Average memory latency of completed L1 misses (`Lo` / `L'`).
    pub fn aml(&self) -> f64 {
        if self.l1_misses_completed == 0 {
            0.0
        } else {
            self.miss_latency_sum as f64 / self.l1_misses_completed as f64
        }
    }

    /// Average instructions between adjacent global loads (`In`).
    pub fn in_avg(&self) -> f64 {
        if self.in_gap_count == 0 {
            // No loads at all: treat as unboundedly compute-intensive.
            f64::INFINITY
        } else {
            self.in_gap_sum as f64 / self.in_gap_count as f64
        }
    }

    /// Average per-warp reuse distance in lines (`R`), if tracked.
    pub fn reuse_distance(&self) -> f64 {
        ratio(self.reuse_distance_sum, self.reuse_distance_count)
    }

    /// L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        ratio(self.l2_hits, self.l2_accesses)
    }

    /// Counter-wise sum (`self += other`). Every counter is an event
    /// count, so the sum over several runs counts the runs taken
    /// together.
    pub fn accumulate(&mut self, other: &Counters) {
        macro_rules! add {
            ($($f:ident),*) => {{
                let Counters { $($f),* } = *other;
                $(self.$f += $f;)*
            }};
        }
        with_counter_fields!(add)
    }

    /// Counter-wise difference (`self − earlier`); useful for deriving a
    /// window from two cumulative snapshots.
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        macro_rules! d {
            ($($f:ident),*) => {
                Counters { $($f: self.$f.wrapping_sub(earlier.$f)),* }
            };
        }
        with_counter_fields!(d)
    }

    /// The text encoding of snapshots and cached results: every counter
    /// in declaration order, in decimal, separated by single spaces.
    pub fn to_line(&self) -> String {
        macro_rules! emit {
            ($($f:ident),*) => {{
                let Counters { $($f),* } = *self;
                [$($f.to_string()),*].join(" ")
            }};
        }
        with_counter_fields!(emit)
    }

    /// Decode [`Counters::to_line`] from its whitespace-separated words:
    /// `None` unless there is exactly one valid `u64` per counter.
    pub fn from_words<'a>(words: impl IntoIterator<Item = &'a str>) -> Option<Counters> {
        let mut it = words.into_iter();
        macro_rules! build {
            ($($f:ident),*) => {
                Counters { $($f: it.next()?.parse().ok()?),* }
            };
        }
        let c = with_counter_fields!(build);
        it.next().is_none().then_some(c)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The derived quantities a control policy samples from one counter window.
///
/// This is the information content of the paper's seven per-SM performance
/// counters, reduced to the terms that appear in the feature vector
/// (Table II): net hit rate, intra-warp hit rate, AML, `In`, and IPC for
/// local-search comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Cycles in the window.
    pub cycles: u64,
    /// Instructions issued in the window.
    pub instructions: u64,
    /// Net L1 hit rate in the window.
    pub hit_rate: f64,
    /// Intra-warp hit rate in the window.
    pub intra_rate: f64,
    /// Average memory latency of misses completing in the window.
    pub aml: f64,
    /// Average instructions between global loads in the window.
    pub in_avg: f64,
    /// Instructions per cycle in the window.
    pub ipc: f64,
}

impl WindowSample {
    /// Derive a sample from a counter window.
    pub fn from_counters(c: &Counters) -> Self {
        WindowSample {
            cycles: c.cycles,
            instructions: c.instructions,
            hit_rate: c.l1_hit_rate(),
            intra_rate: c.intra_warp_hit_rate(),
            aml: c.aml(),
            in_avg: c.in_avg(),
            ipc: c.ipc(),
        }
    }
}

/// Per-SM fast-forward diagnostics (see the module docs of
/// [`crate::gpu`]): how often one SM's private run-ahead engaged, how many
/// of its scheduler cycles were skipped in bulk, and how often its advance
/// was cut short by the shared memory-system horizon rather than by an
/// event or a controller barrier.
///
/// These are *wall-clock* diagnostics, not architectural counters: they
/// explain why a workload does (not) benefit from [`StepMode::PerSm`]
/// without affecting any simulated quantity, and are therefore excluded
/// from the bit-identity contract on [`Counters`] (the reference loop
/// records none).
///
/// [`StepMode::PerSm`]: crate::config::StepMode::PerSm
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmFastForward {
    /// Replays in which no scheduler issued (every scheduler idle or in
    /// a known-reject storm; see the `gpu` module docs).
    pub spans: u64,
    /// SM-local cycles covered by those spans.
    pub skipped: u64,
    /// Times the SM's advance stopped at the conservative memory-system
    /// horizon (an own read still unresolved) instead of an event/barrier.
    pub horizon_stalls: u64,
    /// Replays in which at least one scheduler issued its greedy warp's
    /// ALU run.
    pub bursts: u64,
    /// SM-local cycles covered by those bursts. They are not in
    /// `skipped`, so the SM-cycles stepped one at a time are the total
    /// minus `skipped` minus `burst_cycles`.
    pub burst_cycles: u64,
}

/// Total and windowed counters for one simulation.
#[derive(Debug, Clone, Default)]
pub struct GpuStats {
    /// Cumulative counters since simulation start.
    pub total: Counters,
    /// Resettable window counters.
    pub window: Counters,
    /// Per-SM fast-forward breakdown, indexed by SM id. Populated (and
    /// sized) by [`crate::Gpu::new`]; only the [`StepMode::PerSm`] loop
    /// writes to it.
    ///
    /// [`StepMode::PerSm`]: crate::config::StepMode::PerSm
    pub fast_forward: Vec<SmFastForward>,
}

impl GpuStats {
    /// Create zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset the window counters (the total is unaffected).
    pub fn reset_window(&mut self) {
        self.window = Counters::default();
    }

    /// Sample the current window.
    pub fn window_sample(&self) -> WindowSample {
        WindowSample::from_counters(&self.window)
    }

    /// Apply `f` to both the total and window counters.
    #[inline]
    pub fn bump(&mut self, f: impl Fn(&mut Counters)) {
        f(&mut self.total);
        f(&mut self.window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let c = Counters::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.l1_hit_rate(), 0.0);
        assert_eq!(c.aml(), 0.0);
        assert!(c.in_avg().is_infinite());
    }

    #[test]
    fn bump_updates_both_copies() {
        let mut s = GpuStats::new();
        s.bump(|c| c.instructions += 5);
        assert_eq!(s.total.instructions, 5);
        assert_eq!(s.window.instructions, 5);
        s.reset_window();
        assert_eq!(s.total.instructions, 5);
        assert_eq!(s.window.instructions, 0);
    }

    #[test]
    fn delta_since_subtracts_fieldwise() {
        let a = Counters {
            instructions: 10,
            cycles: 100,
            ..Counters::default()
        };
        let mut b = a;
        b.instructions = 25;
        b.cycles = 140;
        let d = b.delta_since(&a);
        assert_eq!(d.instructions, 15);
        assert_eq!(d.cycles, 40);
    }

    #[test]
    fn window_sample_derives_rates() {
        let mut s = GpuStats::new();
        s.bump(|c| {
            c.cycles = 100;
            c.instructions = 80;
            c.l1_accesses = 40;
            c.l1_hits = 30;
            c.l1_intra_hits = 20;
            c.l1_misses_completed = 10;
            c.miss_latency_sum = 4000;
            c.in_gap_sum = 90;
            c.in_gap_count = 30;
        });
        let w = s.window_sample();
        assert!((w.hit_rate - 0.75).abs() < 1e-12);
        assert!((w.intra_rate - 0.5).abs() < 1e-12);
        assert!((w.aml - 400.0).abs() < 1e-12);
        assert!((w.in_avg - 3.0).abs() < 1e-12);
        assert!((w.ipc - 0.8).abs() < 1e-12);
    }
}
