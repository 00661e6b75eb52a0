//! # gpu-sim — cycle-level GPU simulator substrate
//!
//! A warp-granular, cycle-level simulator of a modern GPU modelled after the
//! baseline used in the Poise paper (Dublish, Nagarajan, Topham; HPCA 2019,
//! Table IIIb): 32 streaming multiprocessors (SMs), two greedy-then-oldest
//! (GTO) warp schedulers per SM with up to 24 warps each, a 16 KB 4-way L1
//! data cache with 32 MSHRs per SM, a banked shared L2, a crossbar
//! interconnect and a multi-partition GDDR5-style DRAM model.
//!
//! The simulator exposes the two control knobs the paper is built around:
//!
//! * **N — vital warps**: the subset of warps that participate in
//!   multithreading (warp scheduler arbitration).
//! * **p — cache-polluting warps**: the subset of vital warps whose load
//!   misses may *allocate* (and therefore evict) L1 lines; the remaining
//!   `N − p` warps may still hit in the L1 but their misses bypass line
//!   reservation and are forwarded to the L2.
//!
//! Control policies (GTO, SWL, PCAL, Poise's hardware inference engine, …)
//! are implemented outside this crate against the [`Controller`] trait; the
//! simulator invokes the controller every cycle and the controller steers
//! warp-tuples, samples windowed performance counters and resets them.
//!
//! ## Fidelity notes
//!
//! Following the paper's own analytical model (Section V-A), warps are the
//! unit of simulation and "each warp instruction generates a single, highly
//! coalesced memory request". Cache state, MSHR merging, queueing at the L2
//! banks and DRAM partitions, and load-use stalls are modelled explicitly;
//! SIMD lanes and instruction fetch/decode are not.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Gpu, GpuConfig, FixedTuple, UniformKernel, Instr};
//!
//! // A trivial kernel: every warp alternates ALU work and a streaming load.
//! let kernel = UniformKernel::streaming(8, 4);
//! let cfg = GpuConfig::scaled(2);
//! let mut gpu = Gpu::new(cfg, &kernel);
//! let mut ctrl = FixedTuple::max();
//! let result = gpu.run(&mut ctrl, 10_000);
//! assert!(result.counters.instructions > 0);
//! ```

pub mod cache;
pub mod config;
pub mod controller;
pub mod energy;
pub mod gpu;
pub mod instruction;
pub mod l1;
pub mod memsys;
pub mod scheduler;
pub mod sm;
pub mod snapshot;
pub mod stats;
pub mod threadpool;
pub mod warp;

pub use cache::{CacheLineState, SetAssocCache};
pub use config::{
    CacheGeometry, DramConfig, EnergyConfig, GpuConfig, L2Config, SetIndexing, StepMode,
};
pub use controller::{ControlCtx, Controller, FixedTuple};
pub use energy::EnergyBreakdown;
pub use gpu::{Gpu, SimResult};
pub use instruction::{Instr, InstructionStream, KernelSource, UniformKernel};
pub use l1::{AccessOutcome, L1Data};
pub use memsys::{MemRequester, MemSystem};
pub use scheduler::WarpScheduler;
pub use sm::Sm;
pub use snapshot::{SnapshotError, SNAPSHOT_HEADER};
pub use stats::{Counters, GpuStats, WindowSample};
pub use warp::Warp;

/// A warp-tuple `{N, p}`: `n` vital warps of which `p` may pollute the L1.
///
/// Invariant: `1 <= p <= n`. Construct via [`WarpTuple::new`], which clamps
/// its arguments into the valid range for the given scheduler capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WarpTuple {
    /// Number of vital warps permitted to participate in multithreading.
    pub n: usize,
    /// Number of cache-polluting warps permitted to allocate L1 lines.
    pub p: usize,
}

impl WarpTuple {
    /// Builds a tuple, clamping `n` into `[1, max_warps]` and `p` into
    /// `[1, n]`.
    pub fn new(n: usize, p: usize, max_warps: usize) -> Self {
        let n = n.clamp(1, max_warps.max(1));
        let p = p.clamp(1, n);
        WarpTuple { n, p }
    }

    /// The baseline tuple: all warps vital, all polluting.
    pub fn max(max_warps: usize) -> Self {
        WarpTuple {
            n: max_warps.max(1),
            p: max_warps.max(1),
        }
    }

    /// Euclidean distance to another tuple in the {N, p} plane.
    pub fn distance(&self, other: &WarpTuple) -> f64 {
        let dn = self.n as f64 - other.n as f64;
        let dp = self.p as f64 - other.p as f64;
        (dn * dn + dp * dp).sqrt()
    }
}

impl std::fmt::Display for WarpTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.n, self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_tuple_clamps_into_range() {
        let t = WarpTuple::new(100, 50, 24);
        assert_eq!(t, WarpTuple { n: 24, p: 24 });
        let t = WarpTuple::new(0, 0, 24);
        assert_eq!(t, WarpTuple { n: 1, p: 1 });
        let t = WarpTuple::new(10, 15, 24);
        assert_eq!(t, WarpTuple { n: 10, p: 10 });
    }

    #[test]
    fn warp_tuple_distance_is_euclidean() {
        let a = WarpTuple::new(3, 1, 24);
        let b = WarpTuple::new(6, 5, 24);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn warp_tuple_max_uses_capacity() {
        assert_eq!(WarpTuple::max(24), WarpTuple { n: 24, p: 24 });
    }
}
