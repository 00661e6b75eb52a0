//! Architectural configuration for the simulated GPU.
//!
//! [`GpuConfig::baseline`] reproduces Table IIIb of the Poise paper
//! (32 SMs, 2 GTO schedulers/SM, 24 warps/scheduler, 16 KB 4-way L1 with
//! 32 MSHRs, 2.25 MB 24-bank L2, 6 DRAM partitions). [`GpuConfig::scaled`]
//! shrinks the machine proportionally (fewer SMs with a proportionally
//! smaller shared memory system) so that per-SM pressure — the quantity all
//! of Poise's features observe — is preserved while simulation cost drops.

/// Which run loop [`crate::Gpu::run`] uses.
///
/// There are two loops, `PerSm` and `Reference`, and they produce
/// **bit-identical** counters (the differential suite in the `poise`
/// crate enforces this for every shipped policy); they differ only in
/// wall-clock cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Decoupled per-SM local clocks: each SM runs ahead independently up
    /// to a conservative horizon (its next event, the shared memory
    /// system's safe horizon, the next controller wake, the budget end)
    /// and skips its own stalled spans, so one busy SM no longer pins the
    /// whole machine to cycle-stepping. The default; see the module docs
    /// of [`crate::gpu`] for the synchronisation invariant.
    #[default]
    PerSm,
    /// Runs the [`StepMode::PerSm`] loop, at any
    /// [`GpuConfig::sim_threads`]. The name remains because the
    /// benchmark (`perfbench/`) compiles against it: its `ParallelSm@2`
    /// check and its noise control select it.
    ParallelSm,
    /// Runs the [`StepMode::PerSm`] loop. The name remains because the
    /// benchmark (`perfbench/`) matches on every variant.
    EventDriven,
    /// Step every cycle. The reference loop `PerSm` is validated against;
    /// it also probes the L1 for every retried load, so it is the oracle
    /// of the per-SM loop's reject memo.
    Reference,
}

/// How a cache maps a line address to a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetIndexing {
    /// `set = line mod sets` — the "linear" indexing used in the Fig. 12
    /// sensitivity study.
    Linear,
    /// A xor-fold hash of the line address — the "hash set-indexed" L1 of
    /// the baseline (Table IIIb), which spreads strided footprints.
    Hashed,
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (used for bandwidth/energy accounting only; the
    /// simulator addresses whole lines).
    pub line_bytes: usize,
    /// Set index function.
    pub indexing: SetIndexing,
}

impl CacheGeometry {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Map a line address to its set.
    pub fn set_of(&self, line: u64) -> usize {
        match self.indexing {
            SetIndexing::Linear => (line % self.sets as u64) as usize,
            SetIndexing::Hashed => {
                // xor-fold upper address bits into the index, in the spirit
                // of GPGPU-Sim's hashed set index function.
                let x = line ^ (line >> 7) ^ (line >> 15) ^ (line >> 23);
                (x % self.sets as u64) as usize
            }
        }
    }
}

/// Shared L2 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Per-bank geometry. Total capacity = banks × geometry capacity.
    pub geometry: CacheGeometry,
    /// Number of address-interleaved banks.
    pub banks: usize,
    /// Tag + data access latency (core cycles).
    pub latency: u64,
    /// Minimum interval between requests serviced by one bank
    /// (core cycles; models the 700 MHz L2 clock of the baseline).
    pub service_interval: u64,
}

/// DRAM configuration (GDDR5-style partitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of memory partitions (channels).
    pub partitions: usize,
    /// Uncontended access latency (core cycles).
    pub latency: u64,
    /// Minimum interval between line transfers per partition (core cycles);
    /// models per-partition bandwidth.
    pub service_interval: u64,
}

/// Per-event energy model, in arbitrary consistent energy units.
///
/// The absolute scale is irrelevant for the paper's Fig. 14, which reports
/// energy normalised to the GTO baseline; the *ratios* between event kinds
/// follow the usual hierarchy (DRAM ≫ L2 ≫ L1 ≫ ALU) and leakage is charged
/// per SM-cycle so that shorter runs dissipate less static power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Dynamic energy per issued ALU instruction.
    pub alu_op: f64,
    /// Dynamic energy per L1 access (hit or miss lookup).
    pub l1_access: f64,
    /// Dynamic energy per L2 access.
    pub l2_access: f64,
    /// Dynamic energy per DRAM line transfer.
    pub dram_access: f64,
    /// Static (leakage) energy per SM per cycle.
    pub leakage_per_sm_cycle: f64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            alu_op: 1.0,
            l1_access: 4.0,
            l2_access: 16.0,
            dram_access: 160.0,
            leakage_per_sm_cycle: 6.0,
        }
    }
}

/// Top-level configuration of the simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// Warp schedulers per SM (baseline: 2).
    pub schedulers_per_sm: usize,
    /// Maximum warps managed by one scheduler (baseline: 24).
    pub max_warps_per_scheduler: usize,
    /// L1 data cache geometry (per SM).
    pub l1: CacheGeometry,
    /// L1 hit latency in cycles (load-to-use).
    pub l1_hit_latency: u64,
    /// Number of L1 MSHR entries per SM.
    pub l1_mshrs: usize,
    /// Maximum merged requests per MSHR entry before rejecting.
    pub mshr_merge_limit: usize,
    /// Shared L2 configuration.
    pub l2: L2Config,
    /// One-way crossbar traversal latency (core cycles).
    pub xbar_latency: u64,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Energy model parameters.
    pub energy: EnergyConfig,
    /// Track per-warp reuse distance (LRU stack distance). Costly; only
    /// enabled for characterisation experiments such as Fig. 4.
    pub track_reuse_distance: bool,
    /// Track per-PC load locality (needed by APCM-style bypass policies).
    pub track_pc_stats: bool,
    /// Which run loop to use (decoupled per-SM clocks or the
    /// cycle-stepped reference; counters are bit-identical in both).
    pub step_mode: StepMode,
    /// Read by no run loop: the simulator is single-threaded. It stays
    /// out of the result-cache identity; the `sm_scaling` figure prints
    /// it (always 1 there), and the benchmark (`perfbench/`) sets it.
    pub sim_threads: usize,
}

impl GpuConfig {
    /// The paper's baseline machine (Table IIIb).
    pub fn baseline() -> Self {
        GpuConfig {
            sms: 32,
            schedulers_per_sm: 2,
            max_warps_per_scheduler: 24,
            l1: CacheGeometry {
                sets: 32,
                ways: 4,
                line_bytes: 128,
                indexing: SetIndexing::Hashed,
            },
            // Load-to-use latency of an L1 hit. Fermi/Kepler-class GPUs
            // expose ~80 cycles between a load and its dependent use even
            // on a hit, which is precisely why warp-level parallelism is
            // needed; small values would let a handful of warps saturate a
            // scheduler and flatten the {N, p} landscape.
            l1_hit_latency: 72,
            l1_mshrs: 32,
            mshr_merge_limit: 8,
            l2: L2Config {
                geometry: CacheGeometry {
                    sets: 96,
                    ways: 8,
                    line_bytes: 128,
                    indexing: SetIndexing::Linear,
                },
                banks: 24,
                latency: 120,
                service_interval: 2,
            },
            xbar_latency: 16,
            dram: DramConfig {
                partitions: 6,
                latency: 220,
                service_interval: 12,
            },
            energy: EnergyConfig::default(),
            track_reuse_distance: false,
            track_pc_stats: false,
            step_mode: StepMode::default(),
            sim_threads: 1,
        }
    }

    /// A proportionally scaled machine with `sms` SMs.
    ///
    /// The shared L2 banks and DRAM partitions shrink with the SM count so
    /// that per-SM cache capacity and per-SM memory bandwidth match the
    /// 32-SM baseline. Used by the experiment harness to keep full figure
    /// sweeps tractable on small hosts; `--set sms=32` restores Table IIIb.
    pub fn scaled(sms: usize) -> Self {
        let mut cfg = Self::baseline();
        cfg.rescale_sms(sms);
        cfg
    }

    /// Rescale the SM count **in place**: shrink the shared L2 banks and
    /// DRAM partitions proportionally (the invariant of [`Self::scaled`])
    /// while leaving every other field — e.g. an already-customised L1
    /// geometry — untouched. The experiment knob overlay uses this so a
    /// later `sms=` assignment preserves earlier edits.
    pub fn rescale_sms(&mut self, sms: usize) {
        let sms = sms.max(1);
        let ratio = sms as f64 / 32.0;
        self.sms = sms;
        self.l2.banks = ((24.0 * ratio).round() as usize).max(1);
        self.dram.partitions = ((6.0 * ratio).round() as usize).max(1);
    }

    /// Scale the L1 capacity by an integral factor, keeping associativity
    /// (used for the Pbest classification runs and the Fig. 12 study).
    pub fn with_l1_scale(mut self, factor: usize) -> Self {
        self.l1.sets *= factor.max(1);
        self
    }

    /// Replace the L1 set-index function (Fig. 12 uses linear indexing).
    pub fn with_l1_indexing(mut self, indexing: SetIndexing) -> Self {
        self.l1.indexing = indexing;
        self
    }

    /// Total warps per SM.
    pub fn warps_per_sm(&self) -> usize {
        self.schedulers_per_sm * self.max_warps_per_scheduler
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_iiib() {
        let cfg = GpuConfig::baseline();
        assert_eq!(cfg.sms, 32);
        assert_eq!(cfg.schedulers_per_sm, 2);
        assert_eq!(cfg.max_warps_per_scheduler, 24);
        // 16 KB L1: 32 sets x 4 ways x 128 B.
        assert_eq!(cfg.l1.capacity_bytes(), 16 * 1024);
        assert_eq!(cfg.l1_mshrs, 32);
        // 2.25 MB L2: 24 banks x 96 sets x 8 ways x 128 B.
        assert_eq!(cfg.l2.banks * cfg.l2.geometry.capacity_bytes(), 2304 * 1024);
        assert_eq!(cfg.dram.partitions, 6);
        assert_eq!(cfg.warps_per_sm(), 48);
    }

    #[test]
    fn scaled_preserves_per_sm_resources() {
        let cfg = GpuConfig::scaled(8);
        assert_eq!(cfg.sms, 8);
        assert_eq!(cfg.l2.banks, 6);
        assert_eq!(cfg.dram.partitions, 2);
        // Per-SM L2 capacity matches baseline's.
        let base = GpuConfig::baseline();
        let per_sm_base = base.l2.banks * base.l2.geometry.capacity_bytes() / base.sms;
        let per_sm_scaled = cfg.l2.banks * cfg.l2.geometry.capacity_bytes() / cfg.sms;
        assert_eq!(per_sm_base, per_sm_scaled);
    }

    #[test]
    fn l1_scale_multiplies_capacity() {
        let cfg = GpuConfig::baseline().with_l1_scale(4);
        assert_eq!(cfg.l1.capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn set_indexing_stays_in_range() {
        let geo = CacheGeometry {
            sets: 32,
            ways: 4,
            line_bytes: 128,
            indexing: SetIndexing::Hashed,
        };
        for line in 0..10_000u64 {
            assert!(geo.set_of(line) < geo.sets);
        }
        let lin = CacheGeometry {
            indexing: SetIndexing::Linear,
            ..geo
        };
        assert_eq!(lin.set_of(33), 1);
    }

    #[test]
    fn hashed_indexing_spreads_strided_addresses() {
        // A power-of-two stride that aliases to one set under linear
        // indexing should spread over several sets under hashing.
        let hashed = CacheGeometry {
            sets: 32,
            ways: 4,
            line_bytes: 128,
            indexing: SetIndexing::Hashed,
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            seen.insert(hashed.set_of(i * 32));
        }
        assert!(seen.len() > 8, "hash should spread strided lines");
    }
}
