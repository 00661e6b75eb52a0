//! One streaming multiprocessor: warps, schedulers, L1, issue logic.

use crate::config::{GpuConfig, StepMode};
use crate::instruction::{Instr, KernelSource};
use crate::l1::{sm_local_warp_bit, AccessOutcome, L1Data, MshrWaiter};
use crate::memsys::MemRequester;
use crate::scheduler::WarpScheduler;
use crate::stats::GpuStats;
use crate::warp::Warp;
use crate::WarpTuple;

/// Maximum scheduler candidates probed per cycle (arbitration width).
const MAX_ISSUE_ATTEMPTS: usize = 8;
/// Maximum zero-cost `SyncLoads` skips per candidate per cycle.
const MAX_SYNC_SKIPS: usize = 4;

/// A load-completion event destined for this SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmEvent {
    /// An L1 fill completed for the given MSHR entry.
    Fill {
        /// MSHR entry index.
        mshr: usize,
    },
    /// A load hit's data became available for one warp.
    HitDone {
        /// Scheduler index.
        scheduler: u8,
        /// Warp index within the scheduler.
        warp: u8,
    },
}

/// One streaming multiprocessor.
///
/// Beyond the architectural state, the SM maintains two per-scheduler
/// summaries so that the run loops' "can anything issue?" and "is anything
/// live?" tests are O(schedulers) instead of O(warps):
///
/// * `ready_mask[s]` — bit `w` set iff warp `w` of scheduler `s` has
///   [`Warp::ready`] true; intersected with the vital prefix
///   `tuple.n` it yields the issue candidates of a cycle, and the issue
///   scan walks its set bits instead of probing every slot;
/// * `live_warps[s]` — warps of scheduler `s` with [`Warp::live`] true.
///
/// Both are maintained incrementally at every warp state transition
/// (issue-side blocking, stream exhaustion, load completion); tuple
/// steering needs no recompute because the mask covers all warps and the
/// vital prefix is applied at query time.
pub struct Sm {
    /// SM index within the GPU.
    pub id: usize,
    /// Warp schedulers (baseline: 2).
    pub schedulers: Vec<WarpScheduler>,
    /// Warps, indexed `[scheduler][warp]`.
    pub warps: Vec<Vec<Warp>>,
    /// The L1 data cache.
    pub l1: L1Data,
    pub(crate) hit_latency: u64,
    /// Per-scheduler readiness bitmask (bit `w` = warp `w` is ready).
    pub(crate) ready_mask: Vec<u64>,
    /// Per-scheduler count of live warps.
    pub(crate) live_warps: Vec<u32>,
    /// Whether the issue scan answers known rejects from the schedulers'
    /// reject memo. Off in [`StepMode::Reference`], so that loop probes
    /// the L1 for every retry and checks the memo.
    pub(crate) use_memo: bool,
    /// Reused scratch for fill completions: [`L1Data::complete_fill_into`]
    /// drains each MSHR entry's waiters into this buffer so the hot path
    /// allocates nothing per fill.
    pub(crate) fill_scratch: Vec<MshrWaiter>,
}

/// Where the GTO scan of `ready` (oldest first, at most `left` probes)
/// next probes the L1 for real: the number of known rejects it counts
/// first, and the bit of the warp it then probes — 0 when the width runs
/// out or only known rejects remain.
#[inline]
fn next_real_probe(ready: u64, known: u64, left: u32) -> (u32, u64) {
    let real = ready & !known;
    let next = real & real.wrapping_neg();
    let ahead = (ready & next.wrapping_sub(1)).count_ones();
    if ahead >= left {
        (left, 0)
    } else {
        (ahead, next)
    }
}

/// Bitmask of the `n` lowest warp slots.
#[inline]
fn warp_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm").field("id", &self.id).finish()
    }
}

/// Callback used by the SM to schedule future events; implemented by the
/// GPU's event queue.
pub trait EventSink {
    /// Schedule `ev` for SM `sm` at absolute cycle `at`.
    fn schedule(&mut self, at: u64, sm: usize, ev: SmEvent);
}

impl Sm {
    /// Build an SM and instantiate its warps from the kernel source.
    pub fn new(id: usize, cfg: &GpuConfig, kernel: &dyn KernelSource) -> Self {
        let n_warps = kernel
            .warps_per_scheduler()
            .clamp(1, cfg.max_warps_per_scheduler);
        let schedulers = (0..cfg.schedulers_per_sm)
            .map(|_| WarpScheduler::new(n_warps))
            .collect();
        let warps = (0..cfg.schedulers_per_sm)
            .map(|s| {
                (0..n_warps)
                    .map(|w| Warp::new(kernel.stream_for(id, s, w), cfg.track_reuse_distance))
                    .collect()
            })
            .collect();
        debug_assert!(n_warps <= 64, "readiness bitmask is u64-wide");
        // Fresh warps are all ready and live.
        let ready_mask = vec![warp_mask(n_warps); cfg.schedulers_per_sm];
        let live_warps = vec![n_warps as u32; cfg.schedulers_per_sm];
        Sm {
            id,
            schedulers,
            warps,
            l1: L1Data::new(cfg, kernel.n_pcs()),
            hit_latency: cfg.l1_hit_latency,
            ready_mask,
            live_warps,
            use_memo: cfg.step_mode != StepMode::Reference,
            fill_scratch: Vec::new(),
        }
    }

    /// Rebuild the derived readiness/liveness structures from the warps
    /// themselves. Used after a snapshot restore writes warp state
    /// directly; the masks are pure functions of [`Warp::ready`] /
    /// [`Warp::live`], so recomputing (rather than serialising) them keeps
    /// the snapshot format minimal.
    pub(crate) fn recompute_activity(&mut self) {
        for (s, warps) in self.warps.iter().enumerate() {
            let mut mask = 0u64;
            let mut live = 0u32;
            for (w, warp) in warps.iter().enumerate() {
                if warp.ready() {
                    mask |= 1u64 << w;
                }
                if warp.live() {
                    live += 1;
                }
            }
            self.ready_mask[s] = mask;
            self.live_warps[s] = live;
        }
    }

    /// Install a warp-tuple on every scheduler of this SM. O(schedulers):
    /// the readiness mask covers all warps, so moving the vital boundary
    /// needs no recompute.
    pub fn set_tuple(&mut self, t: WarpTuple) {
        for sched in self.schedulers.iter_mut() {
            sched.set_tuple(t);
        }
    }

    /// The ready vital warps of scheduler `s`, as a bitmask.
    #[inline]
    fn issue_candidates(&self, s: usize) -> u64 {
        let sched = &self.schedulers[s];
        self.ready_mask[s] & warp_mask(sched.tuple().n.min(sched.n_warps))
    }

    /// Whether any warp still has work (instructions or outstanding
    /// loads). O(schedulers) via the incremental liveness counters.
    pub fn live(&self) -> bool {
        self.live_warps.iter().any(|&c| c > 0)
    }

    /// Apply `f` to one warp, incrementally maintaining the ready/live
    /// counters across the state transition `f` may cause.
    #[inline]
    fn update_warp<R>(&mut self, sched: usize, w: usize, f: impl FnOnce(&mut Warp) -> R) -> R {
        let warp = &mut self.warps[sched][w];
        let was_ready = warp.ready();
        let was_live = warp.live();
        let r = f(warp);
        let now_ready = warp.ready();
        let now_live = warp.live();
        if was_ready != now_ready {
            let bit = 1u64 << w;
            if now_ready {
                self.ready_mask[sched] |= bit;
            } else {
                self.ready_mask[sched] &= !bit;
            }
        }
        if was_live != now_live {
            if now_live {
                self.live_warps[sched] += 1;
            } else {
                self.live_warps[sched] -= 1;
            }
        }
        r
    }

    /// Advance this SM by one cycle: each scheduler attempts one issue.
    ///
    /// Generic over the memory requester so the per-SM loop can
    /// substitute a per-SM [`crate::memsys::PortRequester`] (append-only,
    /// no shared state) without virtual dispatch on the issue hot path.
    pub fn step<M: MemRequester>(
        &mut self,
        now: u64,
        mem: &mut M,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) {
        for sched_idx in 0..self.schedulers.len() {
            // With no ready vital warp the candidate scan cannot issue (or
            // have any side effect); the mask makes that check O(1).
            let issued = self.issue_candidates(sched_idx) != 0
                && self.issue_one(sched_idx, now, mem, events, stats);
            let any_live = self.live_warps[sched_idx] > 0;
            stats.bump(|c| {
                if issued {
                    c.busy_scheduler_cycles += 1;
                } else if any_live {
                    c.stall_scheduler_cycles += 1;
                }
            });
        }
    }

    fn issue_one<M: MemRequester>(
        &mut self,
        sched_idx: usize,
        now: u64,
        mem: &mut M,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) -> bool {
        // GTO priority order: greedy favourite first, then vital warps
        // oldest-first. The scan walks the set bits of the readiness mask
        // (blocked warps cost nothing); at most MAX_ISSUE_ATTEMPTS ready
        // warps are probed per cycle (arbitration width). A probe can only
        // change the probed warp's own state, so the snapshot taken here
        // matches a fresh readiness check at every candidate.
        //
        // A probe of a known reject (the reject memo) would only bump
        // `l1_rejects`: the stashed line already tops the warp's reuse
        // stack. Such probes still count toward the width but skip
        // `try_issue`, and the ones between two real probes are counted
        // at once. A failed probe allocates and completes no MSHR, so the
        // memo read here holds for the whole scan.
        let sched = &self.schedulers[sched_idx];
        let ready = self.issue_candidates(sched_idx);
        let known = if self.use_memo {
            sched.known_rejects(self.l1.mshrs_exhausted())
        } else {
            0
        };
        let greedy = sched.greedy_bit() & ready;
        let mut left = MAX_ISSUE_ATTEMPTS as u32;
        let mut rejects = 0u64;
        let mut issued = false;
        for mut todo in [greedy, ready & !greedy] {
            while !issued && left > 0 && todo != 0 {
                let (ahead, next) = next_real_probe(todo, known, left);
                rejects += u64::from(ahead);
                left -= ahead;
                if next == 0 {
                    break;
                }
                left -= 1;
                todo &= !(next | next.wrapping_sub(1));
                issued = self.probe(sched_idx, next, now, mem, events, stats);
            }
        }
        if rejects > 0 {
            stats.bump(|c| c.l1_rejects += rejects);
        }
        issued
    }

    /// Probe the warp of scheduler `sched_idx` whose bit is `bit` for
    /// real, forgetting its memo first; book-keep an issue.
    fn probe<M: MemRequester>(
        &mut self,
        sched_idx: usize,
        bit: u64,
        now: u64,
        mem: &mut M,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) -> bool {
        let w_idx = bit.trailing_zeros() as usize;
        self.schedulers[sched_idx].forget(w_idx);
        match self.try_issue(sched_idx, w_idx, now, mem, events, stats) {
            Some(kind) => {
                self.note_issued(sched_idx, w_idx, kind, stats);
                true
            }
            None => false,
        }
    }

    /// Forget every memo'd reject of a load to `line`: an MSHR for it was
    /// just allocated or completed.
    fn forget_rejects_on(&mut self, line: u64) {
        for sched in &mut self.schedulers {
            sched.forget_line(line);
        }
    }

    /// The replay rule (see the `gpu` module docs): `Some(run)` when
    /// every scheduler is idle, in a known-reject storm or issuing its
    /// greedy warp's ALU run, with `run` the shortest such run
    /// (`u64::MAX` when none issues); `None` when the SM must step. The
    /// caller also bounds the replay by the next event, the memory
    /// horizon and the barrier. O(schedulers), on masks.
    pub(crate) fn replay_len(&self) -> Option<u64> {
        let exhausted = self.l1.mshrs_exhausted();
        let mut run = u64::MAX;
        for (s, sched) in self.schedulers.iter().enumerate() {
            let ready = self.issue_candidates(s);
            if ready == 0 {
                continue;
            }
            let known = sched.known_rejects(exhausted);
            let greedy = sched.greedy_bit() & ready;
            if greedy & !known != 0 {
                let warp = &self.warps[s][greedy.trailing_zeros() as usize];
                let alu = if warp.has_pending() {
                    0
                } else {
                    warp.stream.alu_run()
                };
                if alu == 0 {
                    return None;
                }
                run = run.min(alu);
                continue;
            }
            // The greedy warp, if ready, is a known reject; the rest of
            // the scan must reach no real probe either.
            let width = MAX_ISSUE_ATTEMPTS as u32 - greedy.count_ones();
            if next_real_probe(ready & !greedy, known, width).1 != 0 {
                return None;
            }
        }
        Some(run)
    }

    /// Account `k` cycles, at most what [`Self::replay_len`] allowed,
    /// exactly as `k` stepped cycles. Returns whether any scheduler
    /// issued.
    pub(crate) fn replay(&mut self, k: u64, stats: &mut GpuStats) -> bool {
        let exhausted = self.l1.mshrs_exhausted();
        let (mut issuing, mut stalled, mut rejects) = (0u64, 0u64, 0u64);
        for s in 0..self.schedulers.len() {
            let ready = self.issue_candidates(s);
            let sched = &self.schedulers[s];
            let greedy = sched.greedy_bit() & ready & !sched.known_rejects(exhausted);
            if greedy != 0 {
                let warp = &mut self.warps[s][greedy.trailing_zeros() as usize];
                warp.stream.skip_alu(k);
                warp.fetched += k;
                warp.instructions += k;
                warp.since_last_load += k;
                issuing += 1;
            } else if ready != 0 {
                stalled += 1;
                rejects += u64::from(ready.count_ones().min(MAX_ISSUE_ATTEMPTS as u32));
            } else if self.live_warps[s] > 0 {
                stalled += 1;
            }
        }
        stats.bump(|c| {
            c.instructions += k * issuing;
            c.busy_scheduler_cycles += k * issuing;
            c.stall_scheduler_cycles += k * stalled;
            c.l1_rejects += k * rejects;
        });
        issuing > 0
    }

    /// Book-keeping for a successful issue: greedy favourite, instruction
    /// counts, and the load-gap statistics behind the paper's `In`.
    fn note_issued(
        &mut self,
        sched_idx: usize,
        w_idx: usize,
        kind: IssuedKind,
        stats: &mut GpuStats,
    ) {
        self.schedulers[sched_idx].note_issue(w_idx);
        let warp = &mut self.warps[sched_idx][w_idx];
        warp.instructions += 1;
        stats.bump(|c| c.instructions += 1);
        match kind {
            IssuedKind::Load => {
                if warp.seen_load {
                    let gap = warp.since_last_load;
                    stats.bump(|c| {
                        c.in_gap_sum += gap;
                        c.in_gap_count += 1;
                    });
                }
                warp.seen_load = true;
                warp.since_last_load = 0;
                stats.bump(|c| c.loads += 1);
            }
            IssuedKind::Store => {
                warp.since_last_load += 1;
                stats.bump(|c| c.stores += 1);
            }
            IssuedKind::Alu => {
                warp.since_last_load += 1;
            }
        }
    }

    /// Attempt to issue the next instruction of a warp. Returns the kind of
    /// instruction issued, or `None` if the warp could not issue (stalled,
    /// structurally rejected, or ran out of instructions).
    fn try_issue<M: MemRequester>(
        &mut self,
        sched_idx: usize,
        w_idx: usize,
        now: u64,
        mem: &mut M,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) -> Option<IssuedKind> {
        let polluting = self.schedulers[sched_idx].pollute(w_idx);
        for _ in 0..MAX_SYNC_SKIPS {
            // `fetch` may exhaust the stream (ready/live transition) and a
            // sync with loads outstanding blocks the warp (ready
            // transition); route both through the counter-tracking helper.
            let instr = self.update_warp(sched_idx, w_idx, Warp::fetch)?;
            match instr {
                Instr::Alu => return Some(IssuedKind::Alu),
                Instr::SyncLoads => {
                    let blocked = self.update_warp(sched_idx, w_idx, |warp| {
                        if warp.outstanding_loads > 0 {
                            warp.waiting_sync = true;
                            true
                        } else {
                            false
                        }
                    });
                    if blocked {
                        return None;
                    }
                    // Satisfied syncs are free; keep fetching.
                    continue;
                }
                Instr::Store { line, .. } => {
                    self.l1.access_store(line);
                    mem.write(self.id, line, now, stats);
                    return Some(IssuedKind::Store);
                }
                Instr::Load { line, pc } => {
                    let warp = &mut self.warps[sched_idx][w_idx];
                    if let Some(dist) = warp.observe_reuse(line) {
                        stats.bump(|c| {
                            c.reuse_distance_sum += dist;
                            c.reuse_distance_count += 1;
                        });
                    }
                    let warp_bit = sm_local_warp_bit(sched_idx as u8, w_idx as u8);
                    let waiter = MshrWaiter {
                        scheduler: sched_idx as u8,
                        warp: w_idx as u8,
                        issued_at: now,
                    };
                    match self
                        .l1
                        .access_load(line, warp_bit, polluting, pc, now, waiter, stats)
                    {
                        AccessOutcome::Hit => {
                            let warp = &mut self.warps[sched_idx][w_idx];
                            warp.outstanding_loads += 1;
                            events.schedule(
                                now + self.hit_latency,
                                self.id,
                                SmEvent::HitDone {
                                    scheduler: sched_idx as u8,
                                    warp: w_idx as u8,
                                },
                            );
                            return Some(IssuedKind::Load);
                        }
                        AccessOutcome::Miss { mshr, primary } => {
                            let warp = &mut self.warps[sched_idx][w_idx];
                            warp.outstanding_loads += 1;
                            if primary {
                                // The memory system schedules the fill —
                                // immediately (stepped loop), or once the
                                // parked request is applied in global
                                // order (per-SM loop).
                                mem.read(self.id, line, now, mshr, events, stats);
                                self.forget_rejects_on(line);
                            }
                            return Some(IssuedKind::Load);
                        }
                        AccessOutcome::Reject { merge_limited } => {
                            // Structural hazard: stash, memo the reject,
                            // and let the scheduler try another warp this
                            // cycle.
                            let warp = &mut self.warps[sched_idx][w_idx];
                            warp.stash(instr);
                            self.schedulers[sched_idx].note_reject(w_idx, line, merge_limited);
                            return None;
                        }
                    }
                }
            }
        }
        None
    }

    /// Deliver an event (fill or hit completion) to this SM.
    pub fn handle_event(&mut self, ev: SmEvent, now: u64, stats: &mut GpuStats) {
        match ev {
            SmEvent::Fill { mshr } => {
                let mut waiters = std::mem::take(&mut self.fill_scratch);
                let line = self.l1.complete_fill_into(mshr, now, stats, &mut waiters);
                self.forget_rejects_on(line);
                for w in &waiters {
                    self.update_warp(w.scheduler as usize, w.warp as usize, Warp::load_completed);
                }
                waiters.clear();
                self.fill_scratch = waiters;
            }
            SmEvent::HitDone { scheduler, warp } => {
                self.update_warp(scheduler as usize, warp as usize, Warp::load_completed);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssuedKind {
    Alu,
    Load,
    Store,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::UniformKernel;
    use crate::memsys::MemSystem;

    struct VecSink(Vec<(u64, usize, SmEvent)>);
    impl EventSink for VecSink {
        fn schedule(&mut self, at: u64, sm: usize, ev: SmEvent) {
            self.0.push((at, sm, ev));
        }
    }

    fn setup(kernel: &UniformKernel) -> (Sm, MemSystem, GpuStats, VecSink) {
        let cfg = GpuConfig::scaled(1);
        (
            Sm::new(0, &cfg, kernel),
            MemSystem::new(&cfg),
            GpuStats::new(),
            VecSink(Vec::new()),
        )
    }

    #[test]
    fn alu_instructions_issue_every_cycle() {
        // alu_per_load = 4 means mostly ALU work early on.
        let k = UniformKernel::streaming(1, 4);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        for t in 0..4 {
            sm.step(t, &mut mem, &mut ev, &mut st);
        }
        // 2 schedulers x 4 cycles, all ALU at first.
        assert_eq!(st.total.instructions, 8);
        assert_eq!(st.total.busy_scheduler_cycles, 8);
    }

    #[test]
    fn load_miss_schedules_fill_event() {
        let k = UniformKernel::streaming(1, 0);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        sm.step(0, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.loads, 2); // one per scheduler
        assert_eq!(ev.0.len(), 2);
        assert!(matches!(ev.0[0].2, SmEvent::Fill { .. }));
    }

    #[test]
    fn warp_stalls_at_sync_until_fill() {
        let k = UniformKernel::streaming(1, 0);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        // Cycle 0: load issues. Cycle 1: sync blocks (load outstanding).
        sm.step(0, &mut mem, &mut ev, &mut st);
        sm.step(1, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.stall_scheduler_cycles, 2);
        // Deliver the fills; warps resume.
        let events: Vec<_> = ev.0.drain(..).collect();
        for (at, _, e) in events {
            sm.handle_event(e, at, &mut st);
        }
        let before = st.total.instructions;
        sm.step(1_000, &mut mem, &mut ev, &mut st);
        assert!(st.total.instructions > before);
    }

    #[test]
    fn hit_completion_wakes_warp() {
        let k = UniformKernel::resident(1, 0);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        // First load misses; complete it.
        sm.step(0, &mut mem, &mut ev, &mut st);
        let events: Vec<_> = ev.0.drain(..).collect();
        for (at, _, e) in events {
            sm.handle_event(e, at, &mut st);
        }
        // Second load to the same line: must be an L1 hit with a HitDone.
        sm.step(500, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.l1_hits, 2);
        assert!(ev
            .0
            .iter()
            .any(|(_, _, e)| matches!(e, SmEvent::HitDone { .. })));
    }

    #[test]
    fn non_vital_warps_do_not_issue() {
        let k = UniformKernel::streaming(8, 4);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        sm.set_tuple(WarpTuple::new(1, 1, 8));
        for t in 0..20 {
            sm.step(t, &mut mem, &mut ev, &mut st);
        }
        // Only warp 0 of each scheduler may have issued.
        for sched in &sm.warps {
            for (i, w) in sched.iter().enumerate() {
                if i == 0 {
                    assert!(w.instructions > 0);
                } else {
                    assert_eq!(w.instructions, 0, "warp {i} issued while non-vital");
                }
            }
        }
    }

    /// Warp `w` of the single scheduler runs `self.0[w]`, then ends.
    struct Scripted(Vec<Vec<Instr>>);

    struct ScriptStream(std::vec::IntoIter<Instr>);

    impl crate::instruction::InstructionStream for ScriptStream {
        fn next_instr(&mut self) -> Option<Instr> {
            self.0.next()
        }
    }

    impl KernelSource for Scripted {
        fn stream_for(
            &self,
            _sm: usize,
            _sched: usize,
            warp: usize,
        ) -> Box<dyn crate::instruction::InstructionStream> {
            Box::new(ScriptStream(self.0[warp].clone().into_iter()))
        }
        fn warps_per_scheduler(&self) -> usize {
            self.0.len()
        }
    }

    fn load(line: u64) -> Instr {
        Instr::Load { line, pc: 0 }
    }

    /// One scheduler, 2 MSHRs, merge limit 2, memo consulted.
    fn memo_setup(scripts: Vec<Vec<Instr>>) -> (Sm, MemSystem, GpuStats, VecSink) {
        let mut cfg = GpuConfig::scaled(1);
        cfg.schedulers_per_sm = 1;
        cfg.l1_mshrs = 2;
        cfg.mshr_merge_limit = 2;
        cfg.step_mode = crate::config::StepMode::PerSm;
        (
            Sm::new(0, &cfg, &Scripted(scripts)),
            MemSystem::new(&cfg),
            GpuStats::new(),
            VecSink(Vec::new()),
        )
    }

    fn known(sm: &Sm) -> u64 {
        sm.schedulers[0].known_rejects(sm.l1.mshrs_exhausted())
    }

    fn complete(sm: &mut Sm, line: u64, now: u64, st: &mut GpuStats) {
        let &(_, mshr) = sm.l1.in_use.iter().find(|e| e.0 == line).unwrap();
        sm.handle_event(
            SmEvent::Fill {
                mshr: mshr as usize,
            },
            now,
            st,
        );
    }

    /// Cycles 0-2 of the memo tests: warps 0 and 1 take both MSHRs with
    /// lines 1 and 2, and the rest are full rejects.
    fn fill_mshrs(scripts: Vec<Vec<Instr>>) -> (Sm, MemSystem, GpuStats, VecSink) {
        let (mut sm, mut mem, mut st, mut ev) = memo_setup(scripts);
        for t in 0..3 {
            sm.step(t, &mut mem, &mut ev, &mut st);
        }
        assert_eq!(st.total.mshr_allocations, 2);
        assert!(sm.l1.mshrs_exhausted());
        (sm, mem, st, ev)
    }

    #[test]
    fn allocating_a_stashed_line_forgets_its_rejects() {
        // Warps 2 and 3 both want line 3, which is not in flight.
        let (mut sm, mut mem, mut st, mut ev) = fill_mshrs(vec![
            vec![load(1)],
            vec![load(2)],
            vec![load(3)],
            vec![load(3)],
        ]);
        assert_eq!(known(&sm), 0b1100);
        // Line 1 completes; warp 2 takes the freed entry for line 3, so
        // warp 3 can now merge although the free list is empty again.
        complete(&mut sm, 1, 3, &mut st);
        sm.step(3, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.mshr_allocations, 3);
        assert!(sm.l1.mshrs_exhausted());
        assert_eq!(known(&sm), 0);
        sm.step(4, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.mshr_merges, 1);
    }

    #[test]
    fn completing_a_merge_limited_line_forgets_its_rejects() {
        // Warp 2 is the third requester of line 1: a merge-limit reject,
        // known whatever the free list holds.
        let (mut sm, mut mem, mut st, mut ev) =
            memo_setup(vec![vec![load(1)], vec![load(1)], vec![load(1)]]);
        for t in 0..3 {
            sm.step(t, &mut mem, &mut ev, &mut st);
        }
        assert_eq!(st.total.mshr_merges, 1);
        assert!(!sm.l1.mshrs_exhausted());
        assert_eq!(known(&sm), 0b100);
        // The fill makes line 1 valid: warp 2 now hits.
        complete(&mut sm, 1, 3, &mut st);
        assert_eq!(known(&sm), 0);
        sm.step(4, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.l1_hits, 1);
    }

    #[test]
    fn a_free_mshr_suspends_full_rejects() {
        let (mut sm, mut mem, mut st, mut ev) =
            fill_mshrs(vec![vec![load(1)], vec![load(2)], vec![load(3)]]);
        assert_eq!(known(&sm), 0b100);
        // An unrelated line completes: warp 2's miss could now allocate.
        complete(&mut sm, 1, 3, &mut st);
        assert_eq!(known(&sm), 0);
        sm.step(3, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.mshr_allocations, 3);
    }

    #[test]
    fn unrelated_mshr_changes_keep_full_rejects() {
        // Warp 1 (the greedy favourite after cycle 1) also wants line 5.
        let (mut sm, mut mem, mut st, mut ev) = fill_mshrs(vec![
            vec![load(1)],
            vec![load(2), load(5)],
            vec![load(3)],
            vec![load(4)],
        ]);
        assert_eq!(known(&sm), 0b1110);
        // Line 1 completes and warp 1 allocates line 5: neither touches
        // lines 3 or 4, and the free list is empty again.
        complete(&mut sm, 1, 3, &mut st);
        sm.step(3, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.mshr_allocations, 3);
        assert!(sm.l1.mshrs_exhausted());
        assert_eq!(known(&sm), 0b1100);
    }

    #[test]
    fn in_gap_tracks_instructions_between_loads() {
        let k = UniformKernel::streaming(1, 3);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        let mut t = 0;
        while st.total.in_gap_count < 4 && t < 10_000 {
            sm.step(t, &mut mem, &mut ev, &mut st);
            let events: Vec<_> = ev.0.drain(..).collect();
            for (at, _, e) in events {
                sm.handle_event(e, at.max(t), &mut st);
            }
            t += 1;
        }
        assert!(st.total.in_gap_count >= 4);
        // Gap between loads is the 3 ALU instructions (sync is free).
        assert_eq!(st.total.in_gap_sum / st.total.in_gap_count, 3);
    }
}
