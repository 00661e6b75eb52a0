//! The warp instruction model and the kernel-source abstraction.
//!
//! Warps execute a stream of [`Instr`]s produced lazily by an
//! [`InstructionStream`]. The stream encodes both the instruction mix and
//! the data-dependence structure: a [`Instr::SyncLoads`] acts as the first
//! instruction that *uses* the values of all loads issued so far, so the
//! distance between a load and the following sync is the paper's
//! "instruction concurrency" and the number of loads issued back-to-back
//! before a sync is the warp's memory-level parallelism.

/// One warp-level instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// An arithmetic instruction with no outstanding-load dependence.
    Alu,
    /// A (coalesced) global load of one cache line.
    Load {
        /// Line address (the simulator addresses whole lines).
        line: u64,
        /// Static load-site identifier, used by per-PC policies (APCM).
        pc: u32,
    },
    /// A (coalesced) global store of one cache line. Stores are
    /// write-through/no-allocate and never stall the warp.
    Store {
        /// Line address.
        line: u64,
        /// Static store-site identifier.
        pc: u32,
    },
    /// Data dependence on all previously issued loads: the warp may not
    /// proceed past this point until every outstanding load has completed.
    /// Consumes no issue slot when no loads are outstanding.
    SyncLoads,
}

/// A lazy, per-warp instruction stream.
///
/// Streams may be unbounded (steady-state kernels); the simulator bounds
/// execution with a cycle limit.
///
/// `Send` because [`StepMode::ParallelSm`](crate::config::StepMode)
/// advances SMs (and therefore pulls from their warps' streams) on worker
/// threads.
pub trait InstructionStream: Send {
    /// Produce the next instruction, or `None` when the warp's trace ends.
    fn next_instr(&mut self) -> Option<Instr>;

    /// How many of the next instructions are certainly [`Instr::Alu`]. It
    /// may under-report (0 means unknown) but must never over-report: the
    /// per-SM loop issues that many instructions in one burst through
    /// [`Self::skip_alu`] without looking at them.
    fn alu_run(&self) -> u64 {
        0
    }

    /// Consume `n <= self.alu_run()` ALU instructions, leaving the stream
    /// exactly as `n` calls to [`Self::next_instr`] would.
    fn skip_alu(&mut self, n: u64) {
        for _ in 0..n {
            let i = self.next_instr();
            debug_assert_eq!(i, Some(Instr::Alu), "skip_alu past the ALU run");
        }
    }
}

/// A kernel: a factory of per-warp instruction streams plus launch geometry.
///
/// Implemented by the `workloads` crate; [`UniformKernel`] is a minimal
/// built-in implementation for tests and doc examples.
pub trait KernelSource {
    /// Create the instruction stream for the warp at the given position.
    fn stream_for(&self, sm: usize, scheduler: usize, warp: usize) -> Box<dyn InstructionStream>;

    /// Number of warps launched per scheduler (occupancy), `<=` the
    /// scheduler capacity.
    fn warps_per_scheduler(&self) -> usize;

    /// Number of distinct static load/store sites (PCs) the kernel uses.
    fn n_pcs(&self) -> usize {
        1
    }
}

/// A trivially uniform kernel for tests: every warp repeats
/// `alu_per_load` ALU instructions, one load, then a sync.
///
/// With `stride == 0` every warp repeatedly loads its own single line
/// (maximal intra-warp locality); with `stride > 0` the address advances
/// every iteration (pure streaming).
#[derive(Debug, Clone)]
pub struct UniformKernel {
    warps: usize,
    alu_per_load: usize,
    stride: u64,
}

impl UniformKernel {
    /// A streaming kernel: every load touches a fresh line.
    pub fn streaming(warps: usize, alu_per_load: usize) -> Self {
        UniformKernel {
            warps,
            alu_per_load,
            stride: 1,
        }
    }

    /// A fully cache-resident kernel: every warp re-loads one private line.
    pub fn resident(warps: usize, alu_per_load: usize) -> Self {
        UniformKernel {
            warps,
            alu_per_load,
            stride: 0,
        }
    }
}

impl KernelSource for UniformKernel {
    fn stream_for(&self, sm: usize, scheduler: usize, warp: usize) -> Box<dyn InstructionStream> {
        let uid = ((sm as u64) << 32) | ((scheduler as u64) << 16) | warp as u64;
        Box::new(UniformStream {
            base: (uid + 1) << 20,
            offset: 0,
            stride: self.stride,
            alu_per_load: self.alu_per_load,
            phase: 0,
        })
    }

    fn warps_per_scheduler(&self) -> usize {
        self.warps
    }
}

#[derive(Debug)]
struct UniformStream {
    base: u64,
    offset: u64,
    stride: u64,
    alu_per_load: usize,
    phase: usize,
}

impl InstructionStream for UniformStream {
    fn next_instr(&mut self) -> Option<Instr> {
        // Pattern: Alu x alu_per_load, Load, SyncLoads, repeat.
        let instr = if self.phase < self.alu_per_load {
            Instr::Alu
        } else if self.phase == self.alu_per_load {
            let line = self.base + self.offset;
            self.offset = self.offset.wrapping_add(self.stride);
            Instr::Load { line, pc: 0 }
        } else {
            Instr::SyncLoads
        };
        self.phase += 1;
        if self.phase == self.alu_per_load + 2 {
            self.phase = 0;
        }
        Some(instr)
    }

    fn alu_run(&self) -> u64 {
        self.alu_per_load.saturating_sub(self.phase) as u64
    }

    fn skip_alu(&mut self, n: u64) {
        debug_assert!(n <= self.alu_run());
        self.phase += n as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stream_emits_expected_pattern() {
        let k = UniformKernel::streaming(4, 2);
        let mut s = k.stream_for(0, 0, 0);
        assert_eq!(s.next_instr(), Some(Instr::Alu));
        assert_eq!(s.next_instr(), Some(Instr::Alu));
        match s.next_instr() {
            Some(Instr::Load { line, pc: 0 }) => {
                // Next load must differ (streaming).
                assert_eq!(s.next_instr(), Some(Instr::SyncLoads));
                s.next_instr();
                s.next_instr();
                match s.next_instr() {
                    Some(Instr::Load { line: l2, .. }) => assert_ne!(line, l2),
                    other => panic!("expected load, got {other:?}"),
                }
            }
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn uniform_alu_run_is_exact() {
        let k = UniformKernel::streaming(1, 5);
        let mut s = k.stream_for(0, 0, 0);
        for _ in 0..3 {
            let run = s.alu_run();
            assert_eq!(run, 5);
            for _ in 0..run {
                assert_eq!(s.next_instr(), Some(Instr::Alu));
            }
            assert_eq!(s.alu_run(), 0);
            assert!(matches!(s.next_instr(), Some(Instr::Load { .. })));
            assert_eq!(s.next_instr(), Some(Instr::SyncLoads));
        }
        let mut skipped = k.stream_for(0, 0, 0);
        let mut pulled = k.stream_for(0, 0, 0);
        skipped.next_instr();
        pulled.next_instr();
        skipped.skip_alu(3);
        for _ in 0..3 {
            pulled.next_instr();
        }
        for _ in 0..50 {
            assert_eq!(skipped.next_instr(), pulled.next_instr());
        }
    }

    #[test]
    fn resident_stream_reuses_one_line() {
        let k = UniformKernel::resident(1, 0);
        let mut s = k.stream_for(0, 0, 0);
        let mut lines = std::collections::HashSet::new();
        for _ in 0..32 {
            if let Some(Instr::Load { line, .. }) = s.next_instr() {
                lines.insert(line);
            }
        }
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn warps_are_address_disjoint() {
        let k = UniformKernel::streaming(2, 1);
        let mut a = k.stream_for(0, 0, 0);
        let mut b = k.stream_for(0, 0, 1);
        let la = loop {
            if let Some(Instr::Load { line, .. }) = a.next_instr() {
                break line;
            }
        };
        let lb = loop {
            if let Some(Instr::Load { line, .. }) = b.next_instr() {
                break line;
            }
        };
        assert_ne!(la, lb);
    }
}
