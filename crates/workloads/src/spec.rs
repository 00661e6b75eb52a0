//! Kernel specifications and the deterministic instruction-stream
//! generator.

use crate::workload::Workload;
use gpu_sim::{Instr, InstructionStream, KernelSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Static load-site (PC) identifiers assigned by the generator, one per
/// access class, so per-PC policies (APCM) can distinguish them.
pub mod pcs {
    /// Loads to the per-SM shared region.
    pub const SHARED: u32 = 0;
    /// Streaming loads (no reuse).
    pub const STREAM: u32 = 1;
    /// Loads to the per-warp hot set.
    pub const HOT: u32 = 2;
    /// Loads to the per-warp cold set.
    pub const COLD: u32 = 3;
    /// Number of distinct PCs emitted.
    pub const COUNT: usize = 4;
}

/// Where loads go and how densely they appear, for one phase of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessMix {
    /// ALU instructions preceding each load group (drives the paper's
    /// `In`, instructions between adjacent global loads).
    pub alu_per_load: usize,
    /// Loads issued back-to-back per dependency group (memory-level
    /// parallelism).
    pub mlp: usize,
    /// Independent ALU instructions between the load group and its first
    /// consumer (instruction concurrency; low for memory-sensitive code).
    pub ind_gap: usize,
    /// Per-warp hot working set in lines (short-reuse intra-warp locality).
    pub hot_lines: usize,
    /// Consecutive accesses to each hot line before advancing (controls
    /// how much intra-warp reuse survives thrashing).
    pub hot_repeat: usize,
    /// Fraction of private loads that target the hot set (the rest walk
    /// the cold buffer).
    pub hot_frac: f64,
    /// Per-SM cold buffer in lines (a large array swept by all warps from
    /// random offsets — long reuse distance, the thrashing and
    /// L2/DRAM-pressure knob).
    pub cold_lines: usize,
    /// Per-SM shared working set in lines (inter-warp locality).
    pub shared_lines: usize,
    /// Fraction of loads that target the shared set.
    pub shared_frac: f64,
    /// Fraction of loads that stream (unique lines, no reuse).
    pub stream_frac: f64,
    /// Fraction of memory operations that are stores.
    pub store_frac: f64,
}

impl AccessMix {
    /// A memory-sensitive default: dependent loads, modest ALU padding,
    /// mixed hot/cold private footprint.
    pub fn memory_sensitive() -> Self {
        AccessMix {
            alu_per_load: 4,
            mlp: 2,
            ind_gap: 1,
            hot_lines: 16,
            hot_repeat: 2,
            hot_frac: 0.8,
            cold_lines: 256,
            shared_lines: 48,
            shared_frac: 0.15,
            stream_frac: 0.05,
            store_frac: 0.05,
        }
    }

    /// A compute-intensive default: long ALU stretches, tiny footprint.
    pub fn compute_intensive() -> Self {
        AccessMix {
            alu_per_load: 80,
            mlp: 1,
            ind_gap: 16,
            hot_lines: 4,
            hot_repeat: 4,
            hot_frac: 0.9,
            cold_lines: 32,
            shared_lines: 16,
            shared_frac: 0.2,
            stream_frac: 0.1,
            store_frac: 0.1,
        }
    }

    fn validate(&self) {
        assert!(self.mlp >= 1, "mlp must be at least 1");
        assert!(self.hot_lines >= 1 && self.cold_lines >= 1 && self.shared_lines >= 1);
        assert!(self.hot_repeat >= 1);
        for f in [
            self.hot_frac,
            self.shared_frac,
            self.stream_frac,
            self.store_frac,
        ] {
            assert!((0.0..=1.0).contains(&f), "fractions must be in [0,1]");
        }
        assert!(
            self.shared_frac + self.stream_frac <= 1.0,
            "class fractions must not exceed 1"
        );
    }
}

/// One phase of a kernel: an access mix active for a number of
/// instructions per warp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// The mix active during this phase.
    pub mix: AccessMix,
    /// Instructions per warp before moving to the next phase. Phases
    /// cycle; use a single phase for steady-state kernels.
    pub instructions: u64,
}

/// A complete synthetic kernel description.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Human-readable name, e.g. `"ii#17"`.
    pub name: String,
    /// Warps launched per scheduler (occupancy), 1..=24.
    pub warps_per_scheduler: usize,
    /// Phases cycled through during execution; must be non-empty.
    pub phases: Vec<Phase>,
    /// Optional per-warp trace length; `None` runs until the cycle budget.
    pub trace_len: Option<u64>,
    /// Seed for the deterministic per-warp generators.
    pub seed: u64,
}

impl KernelSpec {
    /// Single-phase kernel with the given mix.
    pub fn steady(name: impl Into<String>, mix: AccessMix, seed: u64) -> Self {
        mix.validate();
        KernelSpec {
            name: name.into(),
            warps_per_scheduler: 24,
            phases: vec![Phase {
                mix,
                instructions: u64::MAX,
            }],
            trace_len: None,
            seed,
        }
    }

    /// Multi-phase kernel cycling through the given phases.
    pub fn phased(name: impl Into<String>, phases: Vec<Phase>, seed: u64) -> Self {
        assert!(!phases.is_empty(), "a kernel needs at least one phase");
        for p in &phases {
            p.mix.validate();
        }
        KernelSpec {
            name: name.into(),
            warps_per_scheduler: 24,
            phases,
            trace_len: None,
            seed,
        }
    }

    /// Builder: set occupancy (warps per scheduler).
    pub fn with_warps(mut self, warps: usize) -> Self {
        assert!((1..=24).contains(&warps));
        self.warps_per_scheduler = warps;
        self
    }

    /// Builder: bound each warp's trace.
    pub fn with_trace_len(mut self, len: u64) -> Self {
        self.trace_len = Some(len);
        self
    }

    /// The mix of the first phase (convenient for single-phase kernels).
    pub fn base_mix(&self) -> &AccessMix {
        &self.phases[0].mix
    }
}

impl KernelSource for KernelSpec {
    fn stream_for(&self, sm: usize, scheduler: usize, warp: usize) -> Box<dyn InstructionStream> {
        Box::new(SpecStream::new(self, sm, scheduler, warp))
    }

    fn warps_per_scheduler(&self) -> usize {
        self.warps_per_scheduler
    }

    fn n_pcs(&self) -> usize {
        pcs::COUNT
    }
}

/// Address-space layout (line addresses are abstract 64-bit identifiers):
/// per-warp private regions and stream regions are disjoint by
/// construction; the shared region is per SM so that inter-warp locality
/// is visible to the per-SM L1.
#[derive(Debug)]
struct AddressSpace {
    hot_base: u64,
    cold_base: u64,
    stream_base: u64,
    shared_base: u64,
}

impl AddressSpace {
    fn new(sm: usize, scheduler: usize, warp: usize) -> Self {
        let warp_uid = ((sm as u64) << 16) | ((scheduler as u64) << 8) | warp as u64;
        AddressSpace {
            hot_base: (warp_uid + 1) << 26,
            // The cold buffer is per SM: all warps of an SM sweep the same
            // large array from desynchronised offsets.
            cold_base: ((sm as u64 + 1) << 52) + (1 << 40),
            stream_base: ((warp_uid + 1) << 26) + (2 << 20),
            shared_base: (sm as u64 + 1) << 52,
        }
    }
}

/// Deterministic per-warp instruction stream realising a [`KernelSpec`].
///
/// The current mix is read in place from `phases`; the address generator
/// state lives in its own field so it can advance while the mix is
/// borrowed.
struct SpecStream {
    phases: Vec<Phase>,
    trace_len: Option<u64>,
    phase_idx: usize,
    instr_in_phase: u64,
    emitted: u64,
    /// Position inside the repeating iteration pattern.
    slot: IterSlot,
    gen: AddressGen,
}

/// The random draws and region cursors behind a stream's memory
/// operations.
struct AddressGen {
    addr: AddressSpace,
    rng: SmallRng,
    hot_pos: u64,
    hot_rep: usize,
    cold_pos: u64,
    shared_pos: u64,
    stream_pos: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum IterSlot {
    /// Leading ALU block, `k` remaining.
    Alu(usize),
    /// Load group, `k` remaining.
    Mem(usize),
    /// Trailing independent ALU block, `k` remaining.
    Gap(usize),
    /// The dependence barrier.
    Sync,
}

impl SpecStream {
    fn new(spec: &KernelSpec, sm: usize, scheduler: usize, warp: usize) -> Self {
        let seed = spec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((sm as u64) << 32) ^ ((scheduler as u64) << 16) ^ warp as u64);
        let mix = &spec.phases[0].mix;
        let mut rng = SmallRng::seed_from_u64(seed);
        // Desynchronise warps within the shared and cold regions so reuse
        // is temporal, not lock-step.
        let shared_pos = rng.gen_range(0..mix.shared_lines as u64);
        let cold_pos = rng.gen_range(0..mix.cold_lines as u64);
        SpecStream {
            phases: spec.phases.clone(),
            trace_len: spec.trace_len,
            phase_idx: 0,
            instr_in_phase: 0,
            emitted: 0,
            slot: IterSlot::Alu(mix.alu_per_load),
            gen: AddressGen {
                addr: AddressSpace::new(sm, scheduler, warp),
                rng,
                hot_pos: 0,
                hot_rep: 0,
                cold_pos,
                shared_pos,
                stream_pos: 0,
            },
        }
    }

    fn mix(&self) -> &AccessMix {
        &self.phases[self.phase_idx].mix
    }

    fn advance_phase_if_due(&mut self) {
        let dur = self.phases[self.phase_idx].instructions;
        if self.instr_in_phase >= dur {
            self.instr_in_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % self.phases.len();
            self.slot = IterSlot::Alu(self.mix().alu_per_load);
        }
    }
}

impl AddressGen {
    fn next_address(&mut self, mix: &AccessMix) -> (u64, u32) {
        let r: f64 = self.rng.gen();
        if r < mix.shared_frac {
            let line = self.addr.shared_base + self.shared_pos % mix.shared_lines as u64;
            self.shared_pos += 1;
            (line, pcs::SHARED)
        } else if r < mix.shared_frac + mix.stream_frac {
            let line = self.addr.stream_base + self.stream_pos;
            self.stream_pos += 1;
            (line, pcs::STREAM)
        } else if self.rng.gen::<f64>() < mix.hot_frac {
            let line = self.addr.hot_base + self.hot_pos % mix.hot_lines as u64;
            self.hot_rep += 1;
            if self.hot_rep >= mix.hot_repeat {
                self.hot_rep = 0;
                self.hot_pos += 1;
            }
            (line, pcs::HOT)
        } else {
            let line = self.addr.cold_base + self.cold_pos % mix.cold_lines as u64;
            self.cold_pos += 1;
            (line, pcs::COLD)
        }
    }
}

impl InstructionStream for SpecStream {
    fn next_instr(&mut self) -> Option<Instr> {
        if let Some(len) = self.trace_len {
            if self.emitted >= len {
                return None;
            }
        }
        self.advance_phase_if_due();
        let mix = &self.phases[self.phase_idx].mix;
        loop {
            match self.slot {
                IterSlot::Alu(0) => {
                    self.slot = IterSlot::Mem(mix.mlp);
                }
                IterSlot::Alu(k) => {
                    self.slot = IterSlot::Alu(k - 1);
                    self.emitted += 1;
                    self.instr_in_phase += 1;
                    return Some(Instr::Alu);
                }
                IterSlot::Mem(0) => {
                    self.slot = IterSlot::Gap(mix.ind_gap);
                }
                IterSlot::Mem(k) => {
                    self.slot = IterSlot::Mem(k - 1);
                    self.emitted += 1;
                    self.instr_in_phase += 1;
                    let (line, pc) = self.gen.next_address(mix);
                    let is_store = self.gen.rng.gen::<f64>() < mix.store_frac;
                    return Some(if is_store {
                        Instr::Store { line, pc }
                    } else {
                        Instr::Load { line, pc }
                    });
                }
                IterSlot::Gap(0) => {
                    self.slot = IterSlot::Sync;
                }
                IterSlot::Gap(k) => {
                    self.slot = IterSlot::Gap(k - 1);
                    self.emitted += 1;
                    self.instr_in_phase += 1;
                    return Some(Instr::Alu);
                }
                IterSlot::Sync => {
                    self.slot = IterSlot::Alu(mix.alu_per_load);
                    // Syncs are free (consume no issue slot) but still mark
                    // the dependence point.
                    return Some(Instr::SyncLoads);
                }
            }
        }
    }

    /// The rest of the current ALU block, capped at the phase end (a due
    /// phase switch reports 0) and at `trace_len`.
    fn alu_run(&self) -> u64 {
        let in_slot = match self.slot {
            IterSlot::Alu(k) | IterSlot::Gap(k) => k,
            // The load group is done; the gap block comes next.
            IterSlot::Mem(0) => self.mix().ind_gap,
            IterSlot::Mem(_) | IterSlot::Sync => 0,
        } as u64;
        let phase_left = self.phases[self.phase_idx]
            .instructions
            .saturating_sub(self.instr_in_phase);
        let trace_left = self
            .trace_len
            .map_or(u64::MAX, |len| len.saturating_sub(self.emitted));
        in_slot.min(phase_left).min(trace_left)
    }

    fn skip_alu(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(n <= self.alu_run(), "skip_alu past the ALU run");
        let k = n as usize;
        self.slot = match self.slot {
            IterSlot::Alu(left) => IterSlot::Alu(left - k),
            IterSlot::Gap(left) => IterSlot::Gap(left - k),
            IterSlot::Mem(0) => IterSlot::Gap(self.mix().ind_gap - k),
            IterSlot::Mem(_) | IterSlot::Sync => unreachable!("no ALU run to skip"),
        };
        self.emitted += n;
        self.instr_in_phase += n;
    }
}

/// A named group of workloads executed in sequence (a benchmark
/// application). Synthetic kernels and trace replays mix freely — every
/// member is a [`Workload`].
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Suite-qualified benchmark name, e.g. `"ii"`.
    pub name: String,
    /// The workloads, in launch order.
    pub kernels: Vec<Workload>,
}

impl Benchmark {
    /// Build a benchmark from workloads (synthetic [`KernelSpec`]s and
    /// [`crate::TraceRef`]s both convert).
    pub fn new<I>(name: impl Into<String>, kernels: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<Workload>,
    {
        let kernels: Vec<Workload> = kernels.into_iter().map(Into::into).collect();
        assert!(!kernels.is_empty());
        Benchmark {
            name: name.into(),
            kernels,
        }
    }

    /// Deterministically subsample at most `cap` kernels, evenly spaced
    /// across the launch order (used to bound experiment cost; the paper's
    /// kernel counts are preserved in the full definitions).
    pub fn capped(&self, cap: usize) -> Benchmark {
        if self.kernels.len() <= cap || cap == 0 {
            return self.clone();
        }
        let step = self.kernels.len() as f64 / cap as f64;
        let kernels = (0..cap)
            .map(|i| self.kernels[(i as f64 * step) as usize].clone())
            .collect();
        Benchmark {
            name: self.name.clone(),
            kernels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(spec: &KernelSpec, n: usize) -> Vec<Instr> {
        let mut s = spec.stream_for(0, 0, 0);
        (0..n).map(|_| s.next_instr().unwrap()).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let spec = KernelSpec::steady("t", AccessMix::memory_sensitive(), 7);
        assert_eq!(collect(&spec, 500), collect(&spec, 500));
    }

    #[test]
    fn different_seeds_differ() {
        let a = KernelSpec::steady("a", AccessMix::memory_sensitive(), 1);
        let b = KernelSpec::steady("b", AccessMix::memory_sensitive(), 2);
        assert_ne!(collect(&a, 500), collect(&b, 500));
    }

    #[test]
    fn pattern_contains_all_slots() {
        let mut mix = AccessMix::memory_sensitive();
        mix.store_frac = 0.5;
        let spec = KernelSpec::steady("t", mix, 3);
        let instrs = collect(&spec, 2_000);
        assert!(instrs.iter().any(|i| matches!(i, Instr::Alu)));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Load { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Store { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::SyncLoads)));
    }

    #[test]
    fn alu_per_load_controls_gap() {
        let mut mix = AccessMix::memory_sensitive();
        mix.alu_per_load = 10;
        mix.mlp = 1;
        mix.ind_gap = 0;
        let spec = KernelSpec::steady("t", mix, 3);
        let instrs = collect(&spec, 120);
        // Pattern: 10 Alu, 1 mem, sync → 12 slots per iteration.
        let loads = instrs
            .iter()
            .filter(|i| matches!(i, Instr::Load { .. } | Instr::Store { .. }))
            .count();
        assert!((9..=11).contains(&loads), "got {loads} mem ops");
    }

    #[test]
    fn trace_len_bounds_stream() {
        let spec = KernelSpec::steady("t", AccessMix::memory_sensitive(), 3).with_trace_len(50);
        let mut s = spec.stream_for(0, 0, 0);
        let mut n = 0;
        while s.next_instr().is_some() {
            n += 1;
            assert!(n <= 60, "stream must terminate");
        }
        assert!(n >= 50);
    }

    #[test]
    fn hot_addresses_recur_cold_streams_do_not() {
        let mut mix = AccessMix::memory_sensitive();
        mix.shared_frac = 0.0;
        mix.stream_frac = 1.0;
        mix.store_frac = 0.0;
        let spec = KernelSpec::steady("t", mix, 3);
        let mut seen = std::collections::HashSet::new();
        let mut s = spec.stream_for(0, 0, 0);
        for _ in 0..2000 {
            if let Some(Instr::Load { line, .. }) = s.next_instr() {
                assert!(seen.insert(line), "streaming load repeated a line");
            }
        }
    }

    #[test]
    fn shared_addresses_are_per_sm() {
        let mut mix = AccessMix::memory_sensitive();
        mix.shared_frac = 1.0;
        mix.stream_frac = 0.0;
        mix.store_frac = 0.0;
        let spec = KernelSpec::steady("t", mix, 3);
        let lines = |sm: usize, warp: usize| {
            let mut s = spec.stream_for(sm, 0, warp);
            let mut v = std::collections::HashSet::new();
            for _ in 0..1000 {
                if let Some(Instr::Load { line, .. }) = s.next_instr() {
                    v.insert(line);
                }
            }
            v
        };
        let a = lines(0, 0);
        let b = lines(0, 1);
        let c = lines(1, 0);
        assert!(!a.is_disjoint(&b), "same-SM warps must share lines");
        assert!(a.is_disjoint(&c), "different SMs must not share lines");
    }

    #[test]
    fn phases_switch_the_mix() {
        let mut dense = AccessMix::memory_sensitive();
        dense.alu_per_load = 0;
        dense.mlp = 1;
        dense.ind_gap = 0;
        let mut sparse = dense;
        sparse.alu_per_load = 50;
        let spec = KernelSpec::phased(
            "t",
            vec![
                Phase {
                    mix: dense,
                    instructions: 100,
                },
                Phase {
                    mix: sparse,
                    instructions: 100,
                },
            ],
            3,
        );
        // Dense phase: pattern [Load, Sync] → 100 counted instructions span
        // 200 emitted items. Sparse phase: [50xAlu, Load, Sync] → ~2 loads
        // per 100 counted instructions.
        let instrs = collect(&spec, 320);
        let dense_loads = instrs[..180]
            .iter()
            .filter(|i| matches!(i, Instr::Load { .. } | Instr::Store { .. }))
            .count();
        let sparse_loads = instrs[210..310]
            .iter()
            .filter(|i| matches!(i, Instr::Load { .. } | Instr::Store { .. }))
            .count();
        assert!(
            dense_loads > sparse_loads * 5,
            "dense phase {dense_loads} vs sparse {sparse_loads}"
        );
    }

    #[test]
    fn capped_subsamples_evenly() {
        let kernels: Vec<KernelSpec> = (0..10)
            .map(|i| KernelSpec::steady(format!("k{i}"), AccessMix::memory_sensitive(), i))
            .collect();
        let b = Benchmark::new("b", kernels);
        let c = b.capped(3);
        assert_eq!(c.kernels.len(), 3);
        assert_eq!(c.kernels[0].name(), "k0");
        assert!(b.capped(20).kernels.len() == 10);
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn invalid_fractions_panic() {
        let mut mix = AccessMix::memory_sensitive();
        mix.shared_frac = 1.5;
        let _ = KernelSpec::steady("bad", mix, 0);
    }
}
