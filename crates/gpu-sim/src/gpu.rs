//! The top-level GPU: SMs + shared memory system + event queues + run loop.
//!
//! ## Run loops and the fast-forward hierarchy
//!
//! Memory-bound phases — exactly the regimes Poise targets — spend most
//! cycles with every vital warp blocked on an outstanding load. The
//! simulator ships two run loops over identical architectural state
//! (selected by [`StepMode`]), proven **bit-identical** to each other by
//! the differential suite in the `poise` crate:
//!
//! * [`StepMode::Reference`] steps every cycle of every SM.
//! * [`StepMode::PerSm`] (the default) gives every SM its **own local
//!   clock** and lets it run ahead — and replay its own repetitive spans
//!   — independently of the others. Every other [`StepMode`] runs this
//!   loop too.
//!
//! ### The replay rule
//!
//! The per-SM advance (`Lane::advance`) pays per state change rather than
//! per cycle. At the top of each iteration, once the events due have been
//! delivered, it checks every scheduler of the SM (`Sm::replay_len`,
//! O(schedulers) on masks). Each must be in one of three states:
//!
//! * **idle** — no ready vital warp: a stepped cycle only bumps its
//!   `stall_scheduler_cycles` if it has live warps;
//! * **known-reject storm** — every warp its scan would probe (the greedy
//!   warp, then the oldest, at most 8) is a known reject of the reject
//!   memo below: a stepped cycle only counts those `l1_rejects` and a
//!   stall;
//! * **ALU run** — its ready greedy warp has no stashed instruction and
//!   its stream reports an ALU run ([`InstructionStream::alu_run`], which
//!   may under-report, 0 meaning unknown, but never over-report): GTO
//!   re-picks that warp every cycle and it issues one ALU instruction.
//!
//! Then nothing but those counters and the issuing warps' streams moves
//! until the shortest run ends, so `k = min(shortest run, next event,
//! horizon, barrier) − clock` cycles are accounted at once (`Sm::replay`):
//! `k` onto each issuing warp's `instructions`, `since_last_load` and
//! `fetched` (its stream skips `k` through
//! [`InstructionStream::skip_alu`]) and per issuing scheduler onto
//! `instructions` and `busy_scheduler_cycles`, `k` per other live
//! scheduler onto `stall_scheduler_cycles`, and `k` times each storm
//! scheduler's probe count onto `l1_rejects`. Otherwise the SM steps one
//! cycle. A replay with no issuing scheduler counts in [`SmFastForward`]
//! as a span, any other as a burst. `Reference` steps every cycle, so it
//! checks every replay.
//!
//! ### The reject memo
//!
//! Each scheduler memoises which warps' stashed loads the L1 rejected
//! (`WarpScheduler::known_rejects`). Every load reject is one of two
//! kinds, each with an exact validity rule:
//!
//! * a **full** reject — no free MSHR, and the line is not in flight —
//!   stays a reject while the free list is empty and no MSHR has been
//!   allocated for that line since: the load could only be accepted by
//!   merging into an entry for its line, by hitting (a line turns valid
//!   only through a fill, and a fill needs an allocation first), or by
//!   allocating a free entry;
//! * a **merge-limit** reject — the line's entry already holds the
//!   maximum number of waiters — stays a reject until that entry
//!   completes, because its waiters only grow until then and no second
//!   entry, hence no fill, can exist for the line meanwhile.
//!
//! So the known rejects are the memo when the free list is empty and only
//! its merge-limit bits otherwise; an MSHR allocation or completion for a
//! line forgets the warps stashed on that line (walking only memo'd
//! warps), and a real probe forgets the probed warp first. Hits, merges,
//! rejects and store invalidations change no outcome. `Sm::issue_one`
//! answers known rejects without calling the L1: they still count toward
//! the arbitration width, and those ahead of the next real probe are
//! counted with one `l1_rejects` bump (the stashed line already tops the
//! warp's reuse stack, so skipping the probe skips nothing else). The
//! per-SM loop consults the memo; `Reference` probes for real, which
//! makes it the memo's oracle.
//!
//! The memo and the [`SmFastForward`] counts are derived state: they stay
//! out of [`Counters`] and out of snapshots, and a restored machine
//! starts with an empty memo.
//!
//! [`InstructionStream::alu_run`]: crate::instruction::InstructionStream::alu_run
//! [`InstructionStream::skip_alu`]: crate::instruction::InstructionStream::skip_alu
//!
//! ## The per-SM horizon invariant
//!
//! SMs interact only through two channels, and each bounds how far one SM
//! may run ahead:
//!
//! 1. **The shared memory system.** L2 banks and DRAM partitions are
//!    stateful queues; requests must be serviced in the exact
//!    `(cycle, SM, scheduler)` order the reference loop issues them. In
//!    the per-SM loop requests therefore park on per-SM ports (through a
//!    `PortRequester`, as [`MemSystem::read`] / [`MemSystem::write`] park
//!    them in deferred mode) and are applied by
//!    [`MemSystem::apply_ready`] only once no SM with a smaller
//!    `(local clock, SM id)` key can still issue an earlier-ordered
//!    request. Deferral gives the issuer lookahead: a read
//!    issued at cycle `t` cannot fill before `t + l2_hit_round_trip`, so
//!    [`MemSystem::safe_horizon`] lets the SM keep executing cycles
//!    strictly below that bound while the request's true completion time
//!    is still unknown.
//! 2. **The controller.** Steering and window sampling are global-time
//!    operations, so [`Controller::on_cycle`] fires only at **global
//!    barriers**: the wakes the controller declares via
//!    [`Controller::next_wake`] (all skipped `on_cycle`s are pure no-ops
//!    by that contract), clamped to the budget end. Every SM must reach
//!    the barrier before the controller runs, and all SMs leave the
//!    barrier in lockstep — so steering decisions, window samples and
//!    epoch logs are bit-identical with the stepped loop.
//!
//! An SM at local cycle `c` may therefore execute `c` iff
//! `c < min(next event addressed to it, memory safe horizon, barrier)`.
//! The outer loop repeatedly picks the **laggard** SM (smallest
//! `(clock, id)`), applies newly-safe memory requests, and advances it to
//! its private horizon; the laggard always progresses (its own pending
//! reads are by construction safe to apply), so the loop cannot deadlock.
//! Kernel drain is detected per SM — the cycle after which it has no live
//! warp, no queued event and no unresolved request — and the global
//! completion cycle is `max(per-SM drain) + 1`, exactly where the
//! reference loop's global check fires.
//!
//! Replayed cycles are accounted exactly as the reference loop would
//! step them: global `cycles` advances at barriers by the epoch length,
//! and a replay never crosses an event, the horizon or a barrier, the
//! only points where another SM or the controller can change this SM's
//! state. All counters — IPC, AML, hit rates, gap statistics — are
//! therefore bit-identical across the two loops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::{GpuConfig, StepMode};
use crate::controller::{ControlCtx, Controller};
use crate::energy::EnergyBreakdown;
use crate::instruction::KernelSource;
use crate::memsys::{MemSystem, Port, PortRequester};
use crate::sm::{EventSink, Sm, SmEvent};
use crate::stats::{Counters, GpuStats, SmFastForward};

/// A scheduled event: ordered by time, then by insertion sequence for
/// determinism. Queues are per-SM, so the SM id lives in the queue index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct QueuedEvent {
    pub(crate) at: u64,
    pub(crate) seq: u64,
    pub(crate) ev_kind: u8,
    pub(crate) ev_a: u32,
    pub(crate) ev_b: u32,
}

impl QueuedEvent {
    fn pack(at: u64, seq: u64, ev: SmEvent) -> Self {
        match ev {
            SmEvent::Fill { mshr } => QueuedEvent {
                at,
                seq,
                ev_kind: 0,
                ev_a: mshr as u32,
                ev_b: 0,
            },
            SmEvent::HitDone { scheduler, warp } => QueuedEvent {
                at,
                seq,
                ev_kind: 1,
                ev_a: scheduler as u32,
                ev_b: warp as u32,
            },
        }
    }

    fn unpack(&self) -> SmEvent {
        match self.ev_kind {
            0 => SmEvent::Fill {
                mshr: self.ev_a as usize,
            },
            _ => SmEvent::HitDone {
                scheduler: self.ev_a as u8,
                warp: self.ev_b as u8,
            },
        }
    }
}

/// Per-SM event queues. Events only ever target state of their own SM, so
/// per-SM ordering (time, then insertion sequence) fully determines
/// behaviour; the stepped loop drains all queues at each global cycle.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    pub(crate) queues: Vec<BinaryHeap<Reverse<QueuedEvent>>>,
    pub(crate) seqs: Vec<u64>,
}

impl EventQueue {
    fn new(sms: usize) -> Self {
        EventQueue {
            queues: (0..sms).map(|_| BinaryHeap::new()).collect(),
            seqs: vec![0; sms],
        }
    }

    /// Pop the next event for `sm` due at or before `now`, if any.
    fn pop_due(&mut self, sm: usize, now: u64) -> Option<SmEvent> {
        let q = &mut self.queues[sm];
        if q.peek().is_some_and(|r| r.0.at <= now) {
            Some(q.pop().expect("peeked").0.unpack())
        } else {
            None
        }
    }

    fn all_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }
}

impl EventSink for EventQueue {
    fn schedule(&mut self, at: u64, sm: usize, ev: SmEvent) {
        self.seqs[sm] += 1;
        self.queues[sm].push(Reverse(QueuedEvent::pack(at, self.seqs[sm], ev)));
    }
}

/// Event sink scoped to one SM's queue, so the decoupled loop can hold the
/// queue and the SM mutably at once. An SM only ever schedules completions
/// for itself.
struct SmSink<'a> {
    sm: usize,
    q: &'a mut BinaryHeap<Reverse<QueuedEvent>>,
    seq: &'a mut u64,
}

impl EventSink for SmSink<'_> {
    fn schedule(&mut self, at: u64, sm: usize, ev: SmEvent) {
        debug_assert_eq!(sm, self.sm, "SMs only schedule their own events");
        *self.seq += 1;
        self.q.push(Reverse(QueuedEvent::pack(at, *self.seq, ev)));
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Cumulative counters.
    pub counters: Counters,
    /// Energy breakdown under the configured energy model.
    pub energy: EnergyBreakdown,
    /// Whether the kernel drained before the cycle budget expired.
    pub completed: bool,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.counters.ipc()
    }
}

/// The simulated GPU.
pub struct Gpu {
    pub(crate) cfg: GpuConfig,
    pub(crate) sms: Vec<Sm>,
    pub(crate) mem: MemSystem,
    pub(crate) events: EventQueue,
    pub(crate) stats: GpuStats,
    pub(crate) cycle: u64,
    pub(crate) kernel_warps: usize,
    /// Whether a previous `run` drained the kernel. A drained machine
    /// replays a degenerate epoch if its run loop is re-entered (the
    /// completion cycle is re-derived one higher each call), so
    /// [`Gpu::resume`] short-circuits on this flag instead — the snapshot
    /// codec persists it precisely so a restored post-drain machine
    /// settles to the same counters as an uninterrupted run.
    pub(crate) drained: bool,
    /// Per-SM local clocks (per-SM mode; equal to `cycle` at barriers).
    pub(crate) clocks: Vec<u64>,
    /// Per-SM drain cycle: the local cycle during which the SM's last
    /// state change occurred, once it has no live warp and no queued
    /// event. `max + 1` is the global completion cycle.
    pub(crate) done_at: Vec<Option<u64>>,
    /// Lazy-deletion min-heap of `(local clock, SM id)` used by the
    /// decoupled loop to pick the laggard and the request-safety frontier
    /// in O(log SMs) instead of rescanning every SM per advance. Owned by
    /// the `Gpu` (rather than rebuilt per epoch) so its allocation is
    /// reused across epochs — `clear()` keeps the capacity.
    pub(crate) frontier_heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("sms", &self.sms.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl Gpu {
    /// Instantiate a GPU and launch `kernel` on it (one stream per warp).
    pub fn new(cfg: GpuConfig, kernel: &dyn KernelSource) -> Self {
        let sms: Vec<Sm> = (0..cfg.sms).map(|i| Sm::new(i, &cfg, kernel)).collect();
        let mut mem = MemSystem::new(&cfg);
        mem.set_deferred(cfg.step_mode != StepMode::Reference);
        let kernel_warps = kernel
            .warps_per_scheduler()
            .clamp(1, cfg.max_warps_per_scheduler);
        let mut stats = GpuStats::new();
        stats.fast_forward = vec![SmFastForward::default(); cfg.sms];
        Gpu {
            events: EventQueue::new(cfg.sms),
            clocks: vec![0; cfg.sms],
            done_at: vec![None; cfg.sms],
            frontier_heap: BinaryHeap::new(),
            sms,
            mem,
            stats,
            cycle: 0,
            cfg,
            kernel_warps,
            drained: false,
        }
    }

    /// The configuration this GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The SMs (for inspection in tests and tools).
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// Cumulative statistics so far.
    pub fn stats(&self) -> &GpuStats {
        &self.stats
    }

    /// Mutable statistics access, e.g. to reset the window between a
    /// warmup and a measurement phase when driving the GPU directly.
    pub fn stats_mut(&mut self) -> &mut GpuStats {
        &mut self.stats
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Aggregate fast-forward diagnostics since construction:
    /// `(spans_taken, cycles_skipped)`, summing the per-SM skips of
    /// [`StepMode::PerSm`] (SM-local cycles, so the sum can exceed the
    /// global cycle count on multi-SM machines). Always `(0, 0)` in
    /// [`StepMode::Reference`].
    pub fn fast_forward_stats(&self) -> (u64, u64) {
        let per_sm = &self.stats.fast_forward;
        (
            per_sm.iter().map(|f| f.spans).sum(),
            per_sm.iter().map(|f| f.skipped).sum(),
        )
    }

    /// Per-SM fast-forward breakdown (non-issuing replays and their
    /// SM-cycles, horizon stalls, issuing replays and theirs), indexed by
    /// SM id. Only the per-SM loop populates it; use it to see *why* a
    /// workload does not skip (frequent `horizon_stalls` mean the SM
    /// keeps hitting the shared-memory horizon; zero `spans` mean its
    /// schedulers stay busy, and `burst_cycles` then says how much of
    /// that busy time was replayed rather than stepped).
    pub fn fast_forward_breakdown(&self) -> &[SmFastForward] {
        &self.stats.fast_forward
    }

    /// Build the controller's view of the machine at the current cycle.
    fn control_ctx(&mut self) -> ControlCtx<'_> {
        ControlCtx {
            cycle: self.cycle,
            max_warps: self.cfg.max_warps_per_scheduler,
            kernel_warps: self.kernel_warps,
            sms: &mut self.sms,
            stats: &mut self.stats,
            in_declared_quiet_span: false,
        }
    }

    /// Run under `controller` for at most `max_cycles` further cycles, or
    /// until every warp drains. Can be called repeatedly to continue.
    pub fn run(&mut self, controller: &mut dyn Controller, max_cycles: u64) -> SimResult {
        controller.on_kernel_start(&mut self.control_ctx());
        self.run_body(controller, max_cycles)
    }

    /// Continue a run — typically one restored from a snapshot — without
    /// re-firing [`Controller::on_kernel_start`], so that
    /// `run(j); resume(k − j)` is bit-identical to `run(k)` on a machine
    /// whose controller state was carried across (the snapshot codec does
    /// both). A machine whose kernel already drained returns immediately
    /// with the settled counters (re-entering the run loop would replay a
    /// degenerate drain epoch and shift the completion cycle).
    pub fn resume(&mut self, controller: &mut dyn Controller, max_cycles: u64) -> SimResult {
        if self.drained {
            controller.on_kernel_end(&mut self.control_ctx());
            return self.result(true);
        }
        self.run_body(controller, max_cycles)
    }

    fn run_body(&mut self, controller: &mut dyn Controller, max_cycles: u64) -> SimResult {
        let end = self.cycle + max_cycles;
        // The same test picks the memory system's deferred ports
        // (`Gpu::new`) and the reject memo (`Sm::new`).
        let completed = if self.cfg.step_mode == StepMode::Reference {
            self.run_stepped(controller, end)
        } else {
            self.run_decoupled(controller, end)
        };
        self.drained = self.drained || completed;
        controller.on_kernel_end(&mut self.control_ctx());
        self.result(completed)
    }

    fn result(&self, completed: bool) -> SimResult {
        SimResult {
            cycles: self.stats.total.cycles,
            counters: self.stats.total,
            energy: EnergyBreakdown::from_counters(
                &self.stats.total,
                &self.cfg.energy,
                self.cfg.sms,
            ),
            completed,
        }
    }

    /// The single-clock loop of [`StepMode::Reference`]: every SM steps
    /// every global cycle.
    fn run_stepped(&mut self, controller: &mut dyn Controller, end: u64) -> bool {
        // Debug builds track the controller's declared `next_wake` so the
        // `ControlCtx` methods can assert the quiet-span contract: an
        // `on_cycle(t)` with `t` strictly before the declared wake (or
        // after a declared `None`) must be a pure no-op. The stepped
        // loop is the only place a violation is *observable* — the
        // per-SM loop skips those cycles outright — so this is where
        // third-party controllers get caught before the differential
        // suite has to diagnose a divergence.
        let mut declared_wake: Option<Option<u64>> = None;
        while self.cycle < end {
            // Deliver all events due at or before this cycle.
            for sm_idx in 0..self.sms.len() {
                while let Some(ev) = self.events.pop_due(sm_idx, self.cycle) {
                    self.sms[sm_idx].handle_event(ev, self.cycle, &mut self.stats);
                }
            }
            // Step every SM.
            for sm in &mut self.sms {
                sm.step(self.cycle, &mut self.mem, &mut self.events, &mut self.stats);
            }
            self.cycle += 1;
            self.stats.bump(|c| c.cycles += 1);
            let mut ctx = self.control_ctx();
            ctx.in_declared_quiet_span = match declared_wake {
                Some(None) => true,
                Some(Some(w)) => ctx.cycle < w,
                None => false,
            };
            controller.on_cycle(&mut ctx);
            if cfg!(debug_assertions) {
                declared_wake = Some(controller.next_wake(self.cycle));
            }
            // Exact drain check: O(SMs × schedulers) with the incremental
            // liveness counters, so the completion cycle is precise (the
            // seed's interval-256 check overcounted up to 255 cycles).
            if self.events.all_empty() && !self.sms.iter().any(|sm| sm.live()) {
                return true;
            }
        }
        false
    }

    /// The decoupled loop of [`StepMode::PerSm`]: between controller
    /// barriers, repeatedly advance the laggard SM to its private horizon,
    /// applying shared-memory requests in global order as their safety
    /// frontier passes (see the module docs for the invariant).
    fn run_decoupled(&mut self, controller: &mut dyn Controller, end: u64) -> bool {
        // All SMs are synchronised at run entry.
        for c in &mut self.clocks {
            *c = self.cycle;
        }
        let mut completed = false;
        while self.cycle < end {
            let epoch_start = self.cycle;
            let barrier = controller
                .next_wake(epoch_start)
                .unwrap_or(u64::MAX)
                .min(end)
                .max(epoch_start + 1);
            self.frontier_heap.clear();
            for i in 0..self.sms.len() {
                if self.done_at[i].is_none() {
                    self.frontier_heap.push(Reverse((epoch_start, i)));
                }
            }
            loop {
                // The heap top (stale entries lazily discarded) is both
                // the request-safety frontier — the minimum `(clock, id)`
                // over SMs that may still issue — and the laggard to
                // advance next.
                let top = loop {
                    match self.frontier_heap.peek() {
                        None => break None,
                        Some(&Reverse((c, i))) => {
                            if self.done_at[i].is_some() || self.clocks[i] != c {
                                self.frontier_heap.pop();
                            } else {
                                break Some((c, i));
                            }
                        }
                    }
                };
                let Some((c, i)) = top else {
                    // Every SM drained: flush the remaining (write-only)
                    // requests, which nothing can precede any more.
                    self.mem
                        .apply_ready((u64::MAX, 0), &mut self.events, &mut self.stats);
                    break;
                };
                self.mem
                    .apply_ready((c, i), &mut self.events, &mut self.stats);
                if c >= barrier {
                    break; // the laggard reached the barrier: all did
                }
                self.advance_sm(i, barrier);
                debug_assert!(
                    self.clocks[i] > c || self.done_at[i].is_some(),
                    "laggard must progress"
                );
                if self.done_at[i].is_none() {
                    self.frontier_heap.push(Reverse((self.clocks[i], i)));
                }
            }
            debug_assert_eq!(
                self.mem.pending_requests(),
                0,
                "requests drained at barrier"
            );
            // Every SM is now at `barrier`, or drained for good en route.
            let all_done = self.done_at.iter().all(|d| d.is_some());
            let epoch_end = if all_done {
                completed = true;
                self.done_at
                    .iter()
                    .filter_map(|d| d.map(|c| c + 1))
                    .max()
                    .unwrap_or(epoch_start + 1)
                    .max(epoch_start + 1)
            } else {
                barrier
            };
            self.stats.bump(|c| c.cycles += epoch_end - epoch_start);
            self.cycle = epoch_end;
            for c in &mut self.clocks {
                *c = epoch_end;
            }
            // Fire the controller exactly where the stepped loop would:
            // at the barrier. A pre-barrier drain skips the call — the
            // reference loop's `on_cycle` there is a no-op by the
            // `next_wake` contract.
            if epoch_end == barrier {
                controller.on_cycle(&mut self.control_ctx());
            }
            if completed {
                break;
            }
        }
        completed
    }

    /// Advance SM `i` on its local clock until the barrier, its own drain,
    /// or the conservative memory horizon stops it, skipping stalled
    /// spans in bulk along the way (the laggard advance of
    /// [`StepMode::PerSm`], expressed as a one-off [`Lane`]).
    fn advance_sm(&mut self, i: usize, barrier: u64) {
        let min_fill = self.mem.min_fill_latency();
        {
            let port = &mut self.mem.ports_mut()[i];
            // `apply_ready((clock, i))` just drained every request this SM
            // issued before its current cycle, so its port is empty and
            // untracked — exactly the reindex contract.
            debug_assert!(port.is_empty(), "laggard port drained by apply_ready");
            let mut lane = Lane {
                id: i,
                sm: &mut self.sms[i],
                q: &mut self.events.queues[i],
                seq: &mut self.events.seqs[i],
                port,
                stats: &mut self.stats,
                clock: self.clocks[i],
                done_at: None,
                barrier,
                min_fill,
            };
            lane.advance();
            self.clocks[i] = lane.clock;
            if lane.done_at.is_some() {
                self.done_at[i] = lane.done_at;
            }
        }
        self.mem.reindex_port(i);
    }
}

/// One SM's decoupled advance, bundling the disjoint `&mut` borrows it
/// needs: the SM, its event queue and sequence counter, its private
/// memory port, and the statistics.
struct Lane<'a> {
    id: usize,
    sm: &'a mut Sm,
    q: &'a mut BinaryHeap<Reverse<QueuedEvent>>,
    seq: &'a mut u64,
    port: &'a mut Port,
    stats: &'a mut GpuStats,
    /// Local clock (in/out).
    clock: u64,
    /// Drain cycle discovered by this advance, if any (out).
    done_at: Option<u64>,
    barrier: u64,
    /// [`MemSystem::min_fill_latency`], hoisted by the caller.
    min_fill: u64,
}

impl Lane<'_> {
    /// The lane-local conservative horizon: first cycle that may not run
    /// until the oldest unapplied read has been applied in global order.
    /// Identical to [`MemSystem::safe_horizon`] — a port is the only
    /// memory state an SM's own reads park on.
    fn horizon(&self) -> u64 {
        self.port
            .next_read_at()
            .map_or(u64::MAX, |at| at + self.min_fill)
    }

    /// Advance until the barrier, the lane's drain or its horizon stops
    /// it, replaying repetitive spans along the way. Memory requests go
    /// through a [`PortRequester`] over the lane's own port (the parking
    /// of [`MemSystem::read`] in deferred mode; the front heap is
    /// reindexed by the caller afterwards).
    fn advance(&mut self) {
        let mut clock = self.clock;
        // The conservative horizon: re-queried only while unknown — while
        // advancing, the oldest unapplied read can only change from
        // "none" to "the first read issued here" (later reads queue
        // behind it and applies happen outside the advance).
        let mut hz = self.horizon();
        loop {
            if clock >= self.barrier {
                break;
            }
            // Deliver every event due at the SM's current cycle (events at
            // the barrier itself belong to the next epoch, after the
            // controller has run — hence the barrier check above).
            while self.q.peek().is_some_and(|r| r.0.at <= clock) {
                let ev = self.q.pop().expect("peeked").0.unpack();
                self.sm.handle_event(ev, clock, self.stats);
            }
            // Drained by a delivery: no live warp, no queued event, and
            // (implied) no unresolved read. The cycle of the last delivery
            // is the SM's drain cycle.
            if !self.sm.live() && self.q.is_empty() {
                debug_assert_eq!(hz, u64::MAX);
                self.done_at = Some(clock);
                break;
            }
            if clock >= hz {
                self.stats.fast_forward[self.id].horizon_stalls += 1;
                break;
            }
            // The replay rule: when every scheduler is idle, in a
            // known-reject storm or issuing its greedy warp's ALU run,
            // each cycle until the shortest run ends (or an event, the
            // horizon or the barrier intervenes) repeats the same
            // effects, so account them at once.
            if let Some(run) = self.sm.replay_len() {
                let next_ev = self.q.peek().map_or(u64::MAX, |r| r.0.at);
                let target = clock
                    .saturating_add(run)
                    .min(next_ev)
                    .min(hz)
                    .min(self.barrier);
                debug_assert!(target > clock);
                let k = target - clock;
                let issued = self.sm.replay(k, self.stats);
                let ff = &mut self.stats.fast_forward[self.id];
                if issued {
                    ff.bursts += 1;
                    ff.burst_cycles += k;
                } else {
                    ff.spans += 1;
                    ff.skipped += k;
                }
                clock = target;
                continue;
            }
            self.sm.step(
                clock,
                &mut PortRequester {
                    sm: self.id,
                    port: &mut *self.port,
                },
                &mut SmSink {
                    sm: self.id,
                    q: &mut *self.q,
                    seq: &mut *self.seq,
                },
                self.stats,
            );
            if hz == u64::MAX {
                hz = self.horizon();
            }
            let drained = !self.sm.live() && self.q.is_empty();
            if drained {
                self.done_at = Some(clock);
            }
            clock += 1;
            if drained {
                break;
            }
        }
        self.clock = clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::FixedTuple;
    use crate::instruction::UniformKernel;

    /// `cfg` switched to `mode`.
    fn cfg_with(mut cfg: GpuConfig, mode: StepMode) -> GpuConfig {
        cfg.step_mode = mode;
        cfg
    }

    /// A finite ALU-only kernel: `warps` warps per scheduler, each with
    /// `instrs` instructions.
    struct FiniteAlu {
        warps: usize,
        instrs: u32,
    }

    struct FiniteStream(u32);

    impl crate::instruction::InstructionStream for FiniteStream {
        fn next_instr(&mut self) -> Option<crate::instruction::Instr> {
            if self.0 == 0 {
                None
            } else {
                self.0 -= 1;
                Some(crate::instruction::Instr::Alu)
            }
        }
    }

    impl KernelSource for FiniteAlu {
        fn stream_for(
            &self,
            _sm: usize,
            _sched: usize,
            _warp: usize,
        ) -> Box<dyn crate::instruction::InstructionStream> {
            Box::new(FiniteStream(self.instrs))
        }
        fn warps_per_scheduler(&self) -> usize {
            self.warps
        }
    }

    #[test]
    fn run_is_deterministic() {
        let kernel = UniformKernel::streaming(8, 3);
        let run = || {
            let mut gpu = Gpu::new(GpuConfig::scaled(2), &kernel);
            let mut ctrl = FixedTuple::max();
            gpu.run(&mut ctrl, 5_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn resident_kernel_outpaces_streaming_kernel() {
        let mut hit_gpu = Gpu::new(GpuConfig::scaled(2), &UniformKernel::resident(8, 2));
        let mut miss_gpu = Gpu::new(GpuConfig::scaled(2), &UniformKernel::streaming(8, 2));
        let hit = hit_gpu.run(&mut FixedTuple::max(), 20_000);
        let miss = miss_gpu.run(&mut FixedTuple::max(), 20_000);
        assert!(
            hit.ipc() > miss.ipc() * 1.3,
            "cache-resident kernel should be much faster: {} vs {}",
            hit.ipc(),
            miss.ipc()
        );
    }

    #[test]
    fn more_warps_hide_latency_for_streaming() {
        let ipc_at = |warps: usize| {
            let mut gpu = Gpu::new(GpuConfig::scaled(2), &UniformKernel::streaming(warps, 8));
            gpu.run(&mut FixedTuple::max(), 20_000).ipc()
        };
        let one = ipc_at(1);
        let many = ipc_at(16);
        assert!(
            many > one * 2.0,
            "TLP must hide memory latency: 1 warp {one}, 16 warps {many}"
        );
    }

    #[test]
    fn aml_grows_under_heavy_load() {
        // Few warps barely load the memory system; many warps queue.
        let aml_at = |warps: usize| {
            let mut gpu = Gpu::new(GpuConfig::scaled(2), &UniformKernel::streaming(warps, 0));
            gpu.run(&mut FixedTuple::max(), 30_000).counters.aml()
        };
        let light = aml_at(1);
        let heavy = aml_at(24);
        assert!(
            heavy > light * 1.2,
            "congestion must raise AML: light {light}, heavy {heavy}"
        );
    }

    #[test]
    fn bounded_kernel_completes() {
        // UniformKernel streams are unbounded, so completion is tested via
        // a custom finite kernel.
        let mut gpu = Gpu::new(
            GpuConfig::scaled(1),
            &FiniteAlu {
                warps: 4,
                instrs: 100,
            },
        );
        let res = gpu.run(&mut FixedTuple::max(), 100_000);
        assert!(res.completed);
        // 1 SM x 2 schedulers x 4 warps x 100 instructions.
        assert_eq!(res.counters.instructions, 800);
    }

    #[test]
    fn drain_cycle_is_exact() {
        // Regression for the seed's interval-256 drain check, which
        // overcounted up to 255 idle cycles in `SimResult.cycles`.
        //
        // 4 warps x 100 ALU instructions per scheduler issue one
        // instruction per scheduler-cycle: cycles 0..=399 issue all 400,
        // cycle 400 discovers the exhausted streams (`fetch -> None`), and
        // the drain is detected after advancing to cycle 401 — in both
        // run loops.
        for mode in [StepMode::PerSm, StepMode::Reference] {
            let cfg = cfg_with(GpuConfig::scaled(1), mode);
            let mut gpu = Gpu::new(
                cfg,
                &FiniteAlu {
                    warps: 4,
                    instrs: 100,
                },
            );
            let res = gpu.run(&mut FixedTuple::max(), 100_000);
            assert!(res.completed);
            assert_eq!(res.counters.cycles, 401, "{mode:?}");
            assert_eq!(gpu.cycle(), 401, "{mode:?}");
        }
    }

    #[test]
    fn fast_forward_skips_stalled_spans() {
        // A single streaming warp spends almost every cycle blocked on its
        // outstanding load; the per-SM loop must skip most of them.
        let kernel = UniformKernel::streaming(1, 0);
        let mut gpu = Gpu::new(GpuConfig::scaled(1), &kernel);
        let res = gpu.run(&mut FixedTuple::max(), 50_000);
        let (spans, skipped) = gpu.fast_forward_stats();
        assert!(spans > 100, "expected many skip spans, got {spans}");
        assert!(
            skipped > 25_000,
            "expected most cycles skipped, got {skipped}"
        );
        assert_eq!(res.counters.cycles, 50_000);
    }

    #[test]
    fn reference_mode_never_skips() {
        let kernel = UniformKernel::streaming(1, 0);
        let mut cfg = GpuConfig::scaled(1);
        cfg.step_mode = StepMode::Reference;
        let mut gpu = Gpu::new(cfg, &kernel);
        gpu.run(&mut FixedTuple::max(), 10_000);
        assert_eq!(gpu.fast_forward_stats(), (0, 0));
    }

    #[test]
    fn per_sm_mode_decouples_sms() {
        // On a multi-SM machine, per-SM mode must (a) stay bit-identical
        // to the reference and (b) skip per SM even though the SMs stay
        // desynchronised (the global skip cannot engage every span).
        let kernel = UniformKernel::streaming(16, 2);
        let run = |mode: StepMode| {
            let mut cfg = GpuConfig::scaled(4);
            cfg.step_mode = mode;
            let mut gpu = Gpu::new(cfg, &kernel);
            let res = gpu.run(&mut FixedTuple::max(), 30_000);
            (
                res.counters,
                res.completed,
                gpu.cycle(),
                gpu.stats().fast_forward.clone(),
            )
        };
        let (pc, pdone, pcyc, breakdown) = run(StepMode::PerSm);
        let (rc, rdone, rcyc, _) = run(StepMode::Reference);
        assert_eq!(pc, rc, "per-SM counters diverged from reference");
        assert_eq!((pdone, pcyc), (rdone, rcyc));
        for (i, f) in breakdown.iter().enumerate() {
            assert!(f.spans > 0, "SM {i} never skipped: {f:?}");
            assert!(
                f.horizon_stalls > 0,
                "SM {i} never hit the memory horizon: {f:?}"
            );
        }
    }

    #[test]
    fn kept_mode_names_run_the_per_sm_loop() {
        // `ParallelSm` at any `sim_threads`, and `EventDriven`, are names
        // for the per-SM loop: the same counters and cycle, and the same
        // spans, bursts and horizon stalls, which only that loop records.
        let kernel = UniformKernel::streaming(16, 2);
        let run = |mode: StepMode, threads: usize| {
            let mut cfg = GpuConfig::scaled(4);
            cfg.step_mode = mode;
            cfg.sim_threads = threads;
            let mut gpu = Gpu::new(cfg, &kernel);
            let res = gpu.run(&mut FixedTuple::max(), 30_000);
            (
                res.counters,
                gpu.cycle(),
                gpu.fast_forward_breakdown().to_vec(),
            )
        };
        let base = run(StepMode::PerSm, 1);
        for threads in [1, 2, 8] {
            assert_eq!(
                run(StepMode::ParallelSm, threads),
                base,
                "ParallelSm at sim_threads={threads}"
            );
        }
        assert_eq!(run(StepMode::EventDriven, 1), base, "EventDriven");
    }

    #[test]
    fn mshr_reject_storms_replay_identically() {
        // 24 warps/scheduler want 48 outstanding loads against 32 MSHRs:
        // ready warps retry structurally rejected loads every cycle, so
        // there is never a "nothing can issue" span. The decoupled loop
        // must replay those known-reject cycles in bulk — bit-identically
        // (every retry bumps `l1_rejects`) and actually skipping them.
        let kernel = UniformKernel::streaming(24, 0);
        let run = |mode: StepMode| {
            let cfg = cfg_with(GpuConfig::scaled(2), mode);
            let mut gpu = Gpu::new(cfg, &kernel);
            let mut ctrl = FixedTuple::max();
            let res = gpu.run(&mut ctrl, 20_000);
            (res.counters, gpu.cycle(), gpu.fast_forward_stats().1)
        };
        let (pc, pcyc, pskip) = run(StepMode::PerSm);
        let (rc, rcyc, _) = run(StepMode::Reference);
        assert_eq!((pc, pcyc), (rc, rcyc), "per-SM diverged in a reject storm");
        assert!(rc.l1_rejects > 20_000, "storm must reject heavily");
        assert!(
            pskip > 15_000,
            "per-SM known-reject replay must skip most of the storm, got {pskip}"
        );
    }

    #[test]
    fn alu_bursts_engage_and_match_reference() {
        // 64-instruction ALU runs between loads: the greedy warps issue
        // long ALU runs while the other warps wait on their loads, so the
        // per-SM loop accounts most issuing cycles in bursts — and must
        // stay bit-identical to the reference, which never bursts.
        let kernel = UniformKernel::resident(6, 64);
        let run = |mode: StepMode| {
            let cfg = cfg_with(GpuConfig::scaled(2), mode);
            let mut gpu = Gpu::new(cfg, &kernel);
            let res = gpu.run(&mut FixedTuple::max(), 20_000);
            let bursts = gpu
                .fast_forward_breakdown()
                .iter()
                .fold((0, 0), |a, f| (a.0 + f.bursts, a.1 + f.burst_cycles));
            (res.counters, gpu.cycle(), bursts)
        };
        let (rc, rcyc, rbursts) = run(StepMode::Reference);
        assert_eq!(rbursts, (0, 0), "the reference loop must not burst");
        let (c, cyc, (bursts, burst_cycles)) = run(StepMode::PerSm);
        assert_eq!((c, cyc), (rc, rcyc), "per-SM diverged with bursts");
        assert!(bursts > 100, "expected many bursts, got {bursts}");
        assert!(
            burst_cycles > 20_000,
            "expected most of the 40k SM-cycles in bursts, got {burst_cycles}"
        );
    }

    /// A controller that acts (resets the window and logs) exactly at
    /// multiples of `period`, declaring its cadence via `next_wake`.
    struct Tick {
        period: u64,
        fired_at: Vec<u64>,
    }

    impl Controller for Tick {
        fn on_cycle(&mut self, ctx: &mut ControlCtx) {
            if ctx.cycle.is_multiple_of(self.period) {
                self.fired_at.push(ctx.cycle);
                ctx.reset_window();
            }
        }

        fn next_wake(&self, now: u64) -> Option<u64> {
            Some((now / self.period + 1) * self.period)
        }
    }

    /// A broken controller: declares a sparse wake cadence but samples
    /// the window on every cycle anyway.
    struct ContractViolator;

    impl Controller for ContractViolator {
        fn on_cycle(&mut self, ctx: &mut ControlCtx) {
            let _ = ctx.window(); // illegal between declared wakes
        }

        fn next_wake(&self, now: u64) -> Option<u64> {
            Some(now + 1_000)
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "next_wake contract violation")]
    fn stepped_loop_catches_next_wake_contract_violations() {
        let kernel = UniformKernel::streaming(2, 1);
        let mut cfg = GpuConfig::scaled(1);
        cfg.step_mode = StepMode::Reference;
        let mut gpu = Gpu::new(cfg, &kernel);
        gpu.run(&mut ContractViolator, 5_000);
    }

    #[test]
    fn compliant_controllers_pass_the_contract_assertion() {
        // The periodic Tick controller declares its cadence correctly and
        // must run clean under the debug assertion of the stepped loop.
        let kernel = UniformKernel::streaming(2, 1);
        let mut cfg = GpuConfig::scaled(1);
        cfg.step_mode = StepMode::Reference;
        let mut gpu = Gpu::new(cfg, &kernel);
        let mut ctrl = Tick {
            period: 500,
            fired_at: Vec::new(),
        };
        gpu.run(&mut ctrl, 5_000);
        assert!(!ctrl.fired_at.is_empty());
    }

    #[test]
    fn fast_forward_never_crosses_a_controller_wake() {
        // The periodic controller must fire at exactly the same cycles in
        // both loops: per-SM epochs barrier exactly on each wake.
        let run = |mode: StepMode| {
            let kernel = UniformKernel::streaming(2, 1);
            let cfg = cfg_with(GpuConfig::scaled(1), mode);
            let mut gpu = Gpu::new(cfg, &kernel);
            let mut ctrl = Tick {
                period: 777,
                fired_at: Vec::new(),
            };
            let res = gpu.run(&mut ctrl, 20_000);
            (ctrl.fired_at, res.counters, gpu.fast_forward_stats().1)
        };
        let (rf_fired, rf_counters, _) = run(StepMode::Reference);
        let (fired, counters, skipped) = run(StepMode::PerSm);
        assert_eq!(fired, rf_fired);
        assert_eq!(counters, rf_counters);
        assert!(skipped > 0, "the per-SM loop must engage for this workload");
        // Every wake observed exactly once per period boundary.
        assert!(rf_fired.windows(2).all(|w| w[1] - w[0] == 777));
    }
}
