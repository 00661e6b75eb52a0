//! The per-SM L1 data cache: tag store + MSHRs + pollute-bit bypass +
//! reuse classification + per-PC locality tracking.
//!
//! This module implements the cache-side half of Poise's warp-tuple
//! mechanism (paper Section VI-C): every load request carries the *pollute
//! bit* of its warp; on a miss, a polluting request reserves a line for the
//! fill while a non-polluting request is forwarded to the L2 **without**
//! reserving a line, so it can still hit on lines allocated by polluting
//! warps but can never evict them.

use crate::cache::{CacheLineState, Lookup, SetAssocCache};
use crate::config::GpuConfig;
use crate::stats::GpuStats;

/// Outcome of a load lookup in the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit on a valid line; data available after the L1 hit latency.
    Hit,
    /// Miss; a request was sent to the memory system (or merged into an
    /// in-flight one). The warp must wait for the fill.
    Miss {
        /// Index of the MSHR entry the request waits on.
        mshr: usize,
        /// Whether this allocated a new entry (primary miss) rather than
        /// merging (secondary miss).
        primary: bool,
    },
    /// Structural reject: MSHRs exhausted or merge limit reached. The load
    /// must be retried on a later cycle.
    Reject {
        /// The line is in flight and its entry already holds the maximum
        /// number of waiters (otherwise no MSHR was free).
        merge_limited: bool,
    },
}

/// A warp waiting on an MSHR fill.
#[derive(Debug, Clone, Copy)]
pub struct MshrWaiter {
    /// Scheduler index within the SM.
    pub scheduler: u8,
    /// Warp index within the scheduler.
    pub warp: u8,
    /// Cycle at which the request was issued (for AML accounting).
    pub issued_at: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct MshrEntry {
    pub(crate) line: u64,
    /// Reserved (set, way) in the tag store, or `None` for bypassing fills.
    pub(crate) target: Option<(usize, usize)>,
    pub(crate) waiters: Vec<MshrWaiter>,
    pub(crate) in_use: bool,
}

impl MshrEntry {
    fn free() -> Self {
        MshrEntry {
            line: 0,
            target: None,
            waiters: Vec::new(),
            in_use: false,
        }
    }
}

/// Per-PC (load-site) counters for APCM-style policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcStats {
    /// Lookups issued by this PC.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Hits classified as intra-warp reuse.
    pub intra_hits: u64,
}

/// The L1 data cache of one SM.
///
/// The MSHR file is the hot structure of every load: a miss consults it
/// for a merge target and a primary miss allocates from it. Both paths are
/// kept off the entry array itself — `in_use` is a compact `(line, index)`
/// list scanned for merges (O(misses in flight), two cache lines instead
/// of the ~30 a full entry scan touches) and `free` is a stack popped for
/// allocation in O(1).
#[derive(Debug)]
pub struct L1Data {
    pub(crate) tags: SetAssocCache,
    pub(crate) mshrs: Vec<MshrEntry>,
    /// `(line, entry index)` of every in-use MSHR entry.
    pub(crate) in_use: Vec<(u64, u32)>,
    /// Free entry indices (allocation pops, completion pushes).
    pub(crate) free: Vec<u32>,
    pub(crate) merge_limit: usize,
    /// Per-PC counters (only maintained when enabled in the config).
    pub(crate) pc_stats: Vec<PcStats>,
    /// Per-PC force-bypass flags set by bypass policies.
    pub(crate) bypass_pc: Vec<bool>,
    pub(crate) track_pcs: bool,
}

impl L1Data {
    /// Build the L1 for one SM from the GPU configuration.
    pub fn new(cfg: &GpuConfig, n_pcs: usize) -> Self {
        L1Data {
            tags: SetAssocCache::new(cfg.l1),
            mshrs: vec![MshrEntry::free(); cfg.l1_mshrs],
            in_use: Vec::with_capacity(cfg.l1_mshrs),
            free: (0..cfg.l1_mshrs as u32).rev().collect(),
            merge_limit: cfg.mshr_merge_limit,
            pc_stats: vec![PcStats::default(); n_pcs.max(1)],
            bypass_pc: vec![false; n_pcs.max(1)],
            track_pcs: cfg.track_pc_stats,
        }
    }

    /// Access the underlying tag store (testing / inspection).
    pub fn tags(&self) -> &SetAssocCache {
        &self.tags
    }

    /// Number of MSHR entries currently in use.
    pub fn mshrs_in_use(&self) -> usize {
        self.in_use.len()
    }

    /// Whether every MSHR entry is in use (a miss to a line not in
    /// flight is rejected).
    #[inline]
    pub fn mshrs_exhausted(&self) -> bool {
        self.free.is_empty()
    }

    /// Set or clear the force-bypass flag of a load PC (APCM).
    pub fn set_bypass_pc(&mut self, pc: usize, bypass: bool) {
        if pc < self.bypass_pc.len() {
            self.bypass_pc[pc] = bypass;
        }
    }

    /// Per-PC counters gathered so far.
    pub fn pc_stats(&self) -> &[PcStats] {
        &self.pc_stats
    }

    /// Reset per-PC counters.
    pub fn reset_pc_stats(&mut self) {
        for s in &mut self.pc_stats {
            *s = PcStats::default();
        }
    }

    /// Perform a load lookup.
    ///
    /// `warp_bit` is the SM-local warp index (scheduler * capacity + warp)
    /// used for intra/inter-warp reuse classification; `polluting` is the
    /// warp's pollute bit; `waiter` identifies the warp for wakeup.
    #[allow(clippy::too_many_arguments)]
    pub fn access_load(
        &mut self,
        line: u64,
        warp_bit: u32,
        polluting: bool,
        pc: u32,
        now: u64,
        waiter: MshrWaiter,
        stats: &mut GpuStats,
    ) -> AccessOutcome {
        let polluting = polluting && !self.bypass_pc.get(pc as usize).copied().unwrap_or(false);
        // Structural rejects are counted separately and do NOT count as
        // cache accesses: the load is replayed later and is counted when it
        // actually proceeds (otherwise retry storms under MSHR exhaustion
        // deflate every hit-rate metric).
        match self.tags.access(line) {
            Lookup::Hit { set, way } => {
                self.count_access(polluting, pc, stats);
                let l = self.tags.line_mut(set, way);
                let mask = 1u64 << (warp_bit % 64);
                let intra = l.touchers & mask != 0;
                l.touchers |= mask;
                stats.bump(|c| {
                    c.l1_hits += 1;
                    if intra {
                        c.l1_intra_hits += 1;
                    } else {
                        c.l1_inter_hits += 1;
                    }
                    if polluting {
                        c.l1_hits_polluting += 1;
                    } else {
                        c.l1_hits_non_polluting += 1;
                    }
                });
                if self.track_pcs {
                    if let Some(s) = self.pc_stats.get_mut(pc as usize) {
                        s.hits += 1;
                        if intra {
                            s.intra_hits += 1;
                        }
                    }
                }
                AccessOutcome::Hit
            }
            Lookup::PendingHit { .. } | Lookup::Miss => {
                // Try to merge into an in-flight request for the same line.
                if let Some(idx) = self.find_mshr(line) {
                    if self.mshrs[idx].waiters.len() >= self.merge_limit {
                        stats.bump(|c| c.l1_rejects += 1);
                        return AccessOutcome::Reject {
                            merge_limited: true,
                        };
                    }
                    self.count_access(polluting, pc, stats);
                    self.mshrs[idx].waiters.push(MshrWaiter {
                        issued_at: now,
                        ..waiter
                    });
                    stats.bump(|c| c.mshr_merges += 1);
                    return AccessOutcome::Miss {
                        mshr: idx,
                        primary: false,
                    };
                }
                // Primary miss: need a free MSHR.
                let Some(free_idx) = self.free.pop() else {
                    stats.bump(|c| c.l1_rejects += 1);
                    return AccessOutcome::Reject {
                        merge_limited: false,
                    };
                };
                self.count_access(polluting, pc, stats);
                let idx = free_idx as usize;
                self.in_use.push((line, free_idx));
                // Polluting warps reserve a line for the fill; non-polluting
                // requests bypass allocation. If the set is entirely
                // reserved, fall back to bypassing.
                let target = if polluting {
                    self.tags.pick_victim(line).map(|(set, way)| {
                        self.tags.reserve(set, way, line);
                        (set, way)
                    })
                } else {
                    None
                };
                let e = &mut self.mshrs[idx];
                e.in_use = true;
                e.line = line;
                e.target = target;
                e.waiters.clear();
                e.waiters.push(MshrWaiter {
                    issued_at: now,
                    ..waiter
                });
                stats.bump(|c| c.mshr_allocations += 1);
                AccessOutcome::Miss {
                    mshr: idx,
                    primary: true,
                }
            }
        }
    }

    /// Handle a store: write-through, no-allocate, write-evict on hit.
    pub fn access_store(&mut self, line: u64) {
        self.tags.invalidate(line);
    }

    /// Complete the fill of MSHR entry `mshr` at time `now`, draining the
    /// waiters into `out` for warp wake-up, and return the filled line.
    /// `out` is cleared first; using a caller-owned scratch (instead of
    /// returning a fresh `Vec`) keeps the per-fill hot path
    /// allocation-free — `drain` preserves the MSHR entry's waiter
    /// capacity for reuse too.
    pub fn complete_fill_into(
        &mut self,
        mshr: usize,
        now: u64,
        stats: &mut GpuStats,
        out: &mut Vec<MshrWaiter>,
    ) -> u64 {
        out.clear();
        let e = &mut self.mshrs[mshr];
        debug_assert!(e.in_use, "fill of a free MSHR entry");
        out.append(&mut e.waiters);
        let waiters: &[MshrWaiter] = out;
        // Touchers: all waiting warps have logically touched the line.
        let mut touchers = 0u64;
        for w in waiters {
            let warp_bit = sm_local_warp_bit(w.scheduler, w.warp);
            touchers |= 1u64 << (warp_bit % 64);
        }
        if let Some((set, way)) = e.target {
            // The reservation may have been invalidated by a store; only
            // fill if still reserved for this line.
            let l = self.tags.line(set, way);
            if l.state == CacheLineState::Reserved && l.tag == e.line {
                self.tags.fill(set, way, touchers);
            }
        }
        e.in_use = false;
        e.target = None;
        let pos = self
            .in_use
            .iter()
            .position(|&(_, i)| i as usize == mshr)
            .expect("completed entry was in use");
        self.in_use.swap_remove(pos);
        self.free.push(mshr as u32);
        stats.bump(|c| {
            c.l1_misses_completed += waiters.len() as u64;
            c.miss_latency_sum += waiters
                .iter()
                .map(|w| now.saturating_sub(w.issued_at))
                .sum::<u64>();
        });
        e.line
    }

    /// [`Self::complete_fill_into`] with a freshly allocated waiter list.
    #[cfg(test)]
    pub fn complete_fill(
        &mut self,
        mshr: usize,
        now: u64,
        stats: &mut GpuStats,
    ) -> Vec<MshrWaiter> {
        let mut out = Vec::new();
        self.complete_fill_into(mshr, now, stats, &mut out);
        out
    }

    fn find_mshr(&self, line: u64) -> Option<usize> {
        self.in_use
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, i)| i as usize)
    }

    /// Count one real (non-rejected) cache access.
    fn count_access(&mut self, polluting: bool, pc: u32, stats: &mut GpuStats) {
        stats.bump(|c| {
            c.l1_accesses += 1;
            if polluting {
                c.l1_accesses_polluting += 1;
            } else {
                c.l1_accesses_non_polluting += 1;
            }
        });
        if self.track_pcs {
            if let Some(s) = self.pc_stats.get_mut(pc as usize) {
                s.accesses += 1;
            }
        }
    }
}

/// SM-local warp identifier used in line toucher bitmasks.
#[inline]
pub fn sm_local_warp_bit(scheduler: u8, warp: u8) -> u32 {
    (scheduler as u32) * 24 + warp as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn l1() -> (L1Data, GpuStats) {
        let mut cfg = GpuConfig::scaled(1);
        cfg.l1_mshrs = 4;
        cfg.mshr_merge_limit = 2;
        (L1Data::new(&cfg, 4), GpuStats::new())
    }

    fn waiter(s: u8, w: u8) -> MshrWaiter {
        MshrWaiter {
            scheduler: s,
            warp: w,
            issued_at: 0,
        }
    }

    #[test]
    fn polluting_miss_fill_then_hit() {
        let (mut l1, mut st) = l1();
        let out = l1.access_load(42, 0, true, 0, 10, waiter(0, 0), &mut st);
        let mshr = match out {
            AccessOutcome::Miss {
                mshr,
                primary: true,
            } => mshr,
            other => panic!("expected primary miss, got {other:?}"),
        };
        assert_eq!(l1.mshrs_in_use(), 1);
        let ws = l1.complete_fill(mshr, 110, &mut st);
        assert_eq!(ws.len(), 1);
        assert_eq!(st.total.miss_latency_sum, 100);
        assert_eq!(st.total.l1_misses_completed, 1);
        // Line now resident.
        assert_eq!(
            l1.access_load(42, 0, true, 0, 120, waiter(0, 0), &mut st),
            AccessOutcome::Hit
        );
        assert_eq!(st.total.l1_hits, 1);
    }

    #[test]
    fn non_polluting_miss_does_not_allocate() {
        let (mut l1, mut st) = l1();
        let out = l1.access_load(7, 1, false, 0, 0, waiter(0, 1), &mut st);
        let mshr = match out {
            AccessOutcome::Miss { mshr, .. } => mshr,
            other => panic!("expected miss, got {other:?}"),
        };
        l1.complete_fill(mshr, 100, &mut st);
        // Still a miss: the fill bypassed the tag store.
        assert!(matches!(
            l1.access_load(7, 1, false, 0, 200, waiter(0, 1), &mut st),
            AccessOutcome::Miss { .. }
        ));
        assert_eq!(l1.tags().valid_lines(), 0);
    }

    #[test]
    fn secondary_miss_merges_and_respects_limit() {
        let (mut l1, mut st) = l1();
        let m0 = match l1.access_load(9, 0, true, 0, 0, waiter(0, 0), &mut st) {
            AccessOutcome::Miss {
                mshr,
                primary: true,
            } => mshr,
            o => panic!("{o:?}"),
        };
        match l1.access_load(9, 1, true, 0, 1, waiter(0, 1), &mut st) {
            AccessOutcome::Miss {
                mshr,
                primary: false,
            } => assert_eq!(mshr, m0),
            o => panic!("{o:?}"),
        }
        // Merge limit is 2: the third requester is rejected.
        assert_eq!(
            l1.access_load(9, 2, true, 0, 2, waiter(0, 2), &mut st),
            AccessOutcome::Reject {
                merge_limited: true
            }
        );
        assert_eq!(st.total.mshr_merges, 1);
        assert_eq!(st.total.l1_rejects, 1);
        // Fill wakes both waiters and counts both latencies.
        let ws = l1.complete_fill(m0, 50, &mut st);
        assert_eq!(ws.len(), 2);
        assert_eq!(st.total.l1_misses_completed, 2);
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let (mut l1, mut st) = l1();
        for i in 0..4u64 {
            assert!(matches!(
                l1.access_load(100 + i, 0, true, 0, 0, waiter(0, 0), &mut st),
                AccessOutcome::Miss { .. }
            ));
        }
        assert!(l1.mshrs_exhausted());
        assert_eq!(
            l1.access_load(999, 0, true, 0, 0, waiter(0, 0), &mut st),
            AccessOutcome::Reject {
                merge_limited: false
            }
        );
    }

    #[test]
    fn intra_vs_inter_warp_classification() {
        let (mut l1, mut st) = l1();
        let m = match l1.access_load(5, 3, true, 0, 0, waiter(0, 3), &mut st) {
            AccessOutcome::Miss { mshr, .. } => mshr,
            o => panic!("{o:?}"),
        };
        l1.complete_fill(m, 10, &mut st);
        // Same warp (bit 3): intra-warp hit.
        l1.access_load(5, 3, true, 0, 20, waiter(0, 3), &mut st);
        assert_eq!(st.total.l1_intra_hits, 1);
        // Different warp (bit 7): inter-warp hit, then it becomes a toucher.
        l1.access_load(5, 7, true, 0, 21, waiter(0, 7), &mut st);
        assert_eq!(st.total.l1_inter_hits, 1);
        l1.access_load(5, 7, true, 0, 22, waiter(0, 7), &mut st);
        assert_eq!(st.total.l1_intra_hits, 2);
    }

    #[test]
    fn bypass_pc_forces_non_polluting() {
        let (mut l1, mut st) = l1();
        l1.set_bypass_pc(2, true);
        let m = match l1.access_load(77, 0, true, 2, 0, waiter(0, 0), &mut st) {
            AccessOutcome::Miss { mshr, .. } => mshr,
            o => panic!("{o:?}"),
        };
        l1.complete_fill(m, 10, &mut st);
        assert_eq!(l1.tags().valid_lines(), 0, "bypassed PC must not allocate");
        // Accounting also treats it as non-polluting.
        assert_eq!(st.total.l1_accesses_non_polluting, 1);
    }

    #[test]
    fn store_invalidates_resident_line() {
        let (mut l1, mut st) = l1();
        let m = match l1.access_load(11, 0, true, 0, 0, waiter(0, 0), &mut st) {
            AccessOutcome::Miss { mshr, .. } => mshr,
            o => panic!("{o:?}"),
        };
        l1.complete_fill(m, 10, &mut st);
        assert_eq!(l1.tags().valid_lines(), 1);
        l1.access_store(11);
        assert_eq!(l1.tags().valid_lines(), 0);
    }
}
