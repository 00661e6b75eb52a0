//! The shared memory system below the L1s: crossbar, banked L2, DRAM.
//!
//! Bandwidth-limited resources (L2 banks, DRAM partitions) are modelled as
//! latency-rate servers: each keeps a `next_free` timestamp and a request
//! arriving at time `t` starts service at `max(t, next_free)`, advancing
//! `next_free` by the service interval. Queueing delay — and therefore the
//! congestion-dependent average memory latency that the paper's `Lo` and
//! `L'` terms capture — emerges from the gap between arrival and service
//! times under load.
//!
//! ## Per-SM request ports and the conservative horizon
//!
//! Because the servers keep mutable shared state (`next_free` timestamps,
//! L2 tags), the *order* in which requests are applied matters: the
//! cycle-stepped reference loop services them in `(cycle, SM, scheduler)`
//! order as it issues them ([`MemSystem::read`] / [`MemSystem::write`]),
//! and the per-SM loop must reproduce exactly that order to stay
//! bit-identical. When SMs run on decoupled local clocks
//! ([`StepMode::PerSm`]), an SM that is ahead cannot apply its requests
//! immediately — a lagging SM might still issue an earlier-cycle request.
//!
//! A decoupled SM advance therefore issues through a `PortRequester`,
//! which only *enqueues* each request on the SM's private port (FIFO per
//! SM, timestamps nondecreasing by construction).
//! [`MemSystem::apply_ready`] later drains the ports in global
//! `(cycle, SM)` order, but only up to the caller-supplied *frontier* —
//! the smallest `(local clock, SM id)` key over all SMs still able to
//! issue — so no request is ever serviced before a possibly-earlier one.
//!
//! Parking is what creates lookahead for the issuing SM: a read issued at
//! cycle `t` cannot possibly fill before `t +`
//! [`MemSystem::min_fill_latency`] (crossbar + L2 + crossbar, the
//! uncontended minimum), so the SM may keep executing cycles strictly
//! below that bound even while the request's actual completion time is
//! still unknown. The port's oldest unresolved read plus that latency is
//! the first cycle the SM may **not** execute until the read has been
//! applied (the per-SM loop's horizon). Writes produce no reply and never
//! bound their issuer; they only hold their place in the global
//! application order.
//!
//! [`StepMode::PerSm`]: crate::config::StepMode::PerSm

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::cache::{Lookup, SetAssocCache};
use crate::config::GpuConfig;
use crate::sm::{EventSink, SmEvent};
use crate::stats::GpuStats;

#[derive(Debug)]
pub(crate) struct L2Bank {
    pub(crate) tags: SetAssocCache,
    pub(crate) next_free: u64,
}

#[derive(Debug)]
pub(crate) struct Partition {
    pub(crate) next_free: u64,
}

/// One memory request parked on a per-SM port, waiting for the global
/// application order to reach it.
#[derive(Debug, Clone, Copy)]
enum PendingReq {
    /// A primary-miss read; the fill is delivered to the MSHR entry.
    Read { line: u64, mshr: usize },
    /// A write-through store (no reply).
    Write { line: u64 },
}

/// The private request port of one SM: issue-order FIFO with
/// nondecreasing timestamps.
///
/// A port is the *only* memory-system state an SM's decoupled advance
/// touches: the advance holds its SM's `&mut Port` (via
/// [`MemSystem::ports_mut`]) and appends through [`PortRequester`], while
/// the shared service state (bank queues, L2 tags, the front heap) is
/// only ever read or written by [`MemSystem::apply_ready`] between
/// advances.
#[derive(Debug, Default)]
pub(crate) struct Port {
    queue: VecDeque<(u64, PendingReq)>,
    /// Issue cycles of unresolved reads only (front = oldest), for the
    /// horizon in O(1).
    reads: VecDeque<u64>,
}

impl Port {
    /// Whether the port holds no parked requests.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Issue cycle of the port's globally-oldest parked request.
    pub(crate) fn front_at(&self) -> Option<u64> {
        self.queue.front().map(|&(at, _)| at)
    }

    /// Issue cycle of the oldest unresolved *read* (writes never bound
    /// their issuer): the horizon is this plus
    /// [`MemSystem::min_fill_latency`].
    pub(crate) fn next_read_at(&self) -> Option<u64> {
        self.reads.front().copied()
    }
}

/// The memory-request surface an SM issues through — implemented by
/// [`MemSystem`] itself (servicing on the spot; the stepped loop issues
/// through it) and by [`PortRequester`] (append-only onto one lane-held
/// port, for the decoupled loop). Generic at the call sites so both paths
/// monomorphize: the per-issue hot path pays no virtual dispatch.
pub trait MemRequester {
    /// Issue a read of `line` by SM `sm` at time `now` on behalf of MSHR
    /// entry `mshr`; the fill event is scheduled through `events` (possibly
    /// later, once the request is applied in global order).
    fn read(
        &mut self,
        sm: usize,
        line: u64,
        now: u64,
        mshr: usize,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    );

    /// Issue a write of `line` by SM `sm` at time `now` (no reply).
    fn write(&mut self, sm: usize, line: u64, now: u64, stats: &mut GpuStats);
}

impl MemRequester for MemSystem {
    fn read(
        &mut self,
        sm: usize,
        line: u64,
        now: u64,
        mshr: usize,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) {
        MemSystem::read(self, sm, line, now, mshr, events, stats);
    }

    fn write(&mut self, sm: usize, line: u64, now: u64, stats: &mut GpuStats) {
        MemSystem::write(self, sm, line, now, stats);
    }
}

/// A [`MemRequester`] over one SM's own port: appends requests without
/// touching any shared [`MemSystem`] state (in particular not the front
/// heap, which the owning loop reindexes after the advance). This is what
/// a decoupled SM advance issues through.
pub(crate) struct PortRequester<'a> {
    /// The SM that owns the port (debug-asserted on every request).
    pub(crate) sm: usize,
    /// The port itself, disjointly borrowed from [`MemSystem::ports_mut`].
    pub(crate) port: &'a mut Port,
}

impl MemRequester for PortRequester<'_> {
    fn read(
        &mut self,
        sm: usize,
        line: u64,
        now: u64,
        mshr: usize,
        _events: &mut dyn EventSink,
        _stats: &mut GpuStats,
    ) {
        debug_assert_eq!(sm, self.sm, "lanes only issue on their own port");
        debug_assert!(self.port.queue.back().is_none_or(|&(at, _)| at <= now));
        self.port
            .queue
            .push_back((now, PendingReq::Read { line, mshr }));
        self.port.reads.push_back(now);
    }

    fn write(&mut self, sm: usize, line: u64, now: u64, _stats: &mut GpuStats) {
        debug_assert_eq!(sm, self.sm, "lanes only issue on their own port");
        debug_assert!(self.port.queue.back().is_none_or(|&(at, _)| at <= now));
        self.port.queue.push_back((now, PendingReq::Write { line }));
    }
}

/// The GPU-wide shared memory system.
#[derive(Debug)]
pub struct MemSystem {
    pub(crate) banks: Vec<L2Bank>,
    pub(crate) partitions: Vec<Partition>,
    pub(crate) xbar_latency: u64,
    pub(crate) l2_latency: u64,
    pub(crate) l2_service: u64,
    pub(crate) dram_latency: u64,
    pub(crate) dram_service: u64,
    /// Requests the per-SM loop parked, until applied in global order.
    pub(crate) ports: Vec<Port>,
    /// Min-heap holding the front `(cycle, SM)` key of every non-empty
    /// port — exactly one entry per such port — so [`MemSystem::apply_ready`]
    /// pays O(1) when nothing is due and O(log SMs) per applied request
    /// instead of rescanning every port.
    pub(crate) front_heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl MemSystem {
    /// Build the memory system from the GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        MemSystem {
            banks: (0..cfg.l2.banks)
                .map(|_| L2Bank {
                    tags: SetAssocCache::new(cfg.l2.geometry),
                    next_free: 0,
                })
                .collect(),
            partitions: (0..cfg.dram.partitions)
                .map(|_| Partition { next_free: 0 })
                .collect(),
            xbar_latency: cfg.xbar_latency,
            l2_latency: cfg.l2.latency,
            l2_service: cfg.l2.service_interval,
            dram_latency: cfg.dram.latency,
            dram_service: cfg.dram.service_interval,
            ports: (0..cfg.sms).map(|_| Port::default()).collect(),
            front_heap: BinaryHeap::new(),
        }
    }

    /// Requests parked on the per-SM ports, not yet applied.
    pub fn pending_requests(&self) -> usize {
        self.ports.iter().map(|p| p.queue.len()).sum()
    }

    /// Service a read of `line` by SM `sm` at time `now` on behalf of MSHR
    /// entry `mshr` on the spot, scheduling the fill event through
    /// `events`.
    pub fn read(
        &mut self,
        sm: usize,
        line: u64,
        now: u64,
        mshr: usize,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) {
        let ready = self.service_read(line, now, stats);
        events.schedule(ready, sm, SmEvent::Fill { mshr });
    }

    /// Service a write of `line` at time `now` on the spot. Writes consume
    /// L2 and (on L2 miss) DRAM bandwidth but produce no reply; L2 is
    /// write-through no-allocate for this model.
    pub fn write(&mut self, _sm: usize, line: u64, now: u64, stats: &mut GpuStats) {
        self.service_write(line, now, stats);
    }

    /// Apply every parked request strictly ordered before `frontier` —
    /// the minimum `(local clock, SM id)` key over all SMs that may still
    /// issue (`u64::MAX` clock for drained SMs) — in global
    /// `(cycle, SM id, issue order)` order, scheduling fill events for
    /// reads through `events`. This reproduces the exact service order of
    /// the cycle-stepped reference loop.
    pub fn apply_ready(
        &mut self,
        frontier: (u64, usize),
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) {
        // The heap top is the globally oldest parked request; O(1) when
        // nothing is ordered before the frontier.
        while let Some(&Reverse((at, sm))) = self.front_heap.peek() {
            if (at, sm) >= frontier {
                return;
            }
            self.front_heap.pop();
            let (t, req) = self.ports[sm]
                .queue
                .pop_front()
                .expect("heap tracks fronts");
            debug_assert_eq!(t, at);
            if let Some(&(next_at, _)) = self.ports[sm].queue.front() {
                self.front_heap.push(Reverse((next_at, sm)));
            }
            match req {
                PendingReq::Read { line, mshr } => {
                    self.ports[sm].reads.pop_front();
                    let ready = self.service_read(line, at, stats);
                    events.schedule(ready, sm, SmEvent::Fill { mshr });
                }
                PendingReq::Write { line } => self.service_write(line, at, stats),
            }
        }
    }

    /// Service a read at time `now`; returns the cycle at which the fill
    /// arrives back at the requesting SM.
    fn service_read(&mut self, line: u64, now: u64, stats: &mut GpuStats) -> u64 {
        let arrive_l2 = now + self.xbar_latency;
        let bank_idx = (line % self.banks.len() as u64) as usize;
        let bank = &mut self.banks[bank_idx];
        let start = arrive_l2.max(bank.next_free);
        bank.next_free = start + self.l2_service;
        stats.bump(|c| c.l2_accesses += 1);
        let lookup = bank.tags.access(line);
        let data_ready = match lookup {
            Lookup::Hit { .. } => {
                stats.bump(|c| c.l2_hits += 1);
                start + self.l2_latency
            }
            // A pending-hit cannot occur in this model (fills are applied
            // eagerly), but treat it as a hit for robustness.
            Lookup::PendingHit { .. } => start + self.l2_latency,
            Lookup::Miss => {
                let t = self.dram_read(line, start + self.l2_latency, stats);
                self.banks[bank_idx].tags.insert_missing(line);
                t
            }
        };
        data_ready + self.xbar_latency
    }

    /// Service a write at time `now`.
    fn service_write(&mut self, line: u64, now: u64, stats: &mut GpuStats) {
        let arrive_l2 = now + self.xbar_latency;
        let bank_idx = (line % self.banks.len() as u64) as usize;
        let bank = &mut self.banks[bank_idx];
        let start = arrive_l2.max(bank.next_free);
        bank.next_free = start + self.l2_service;
        stats.bump(|c| c.l2_accesses += 1);
        match bank.tags.access(line) {
            Lookup::Hit { .. } | Lookup::PendingHit { .. } => {
                stats.bump(|c| c.l2_hits += 1);
            }
            Lookup::Miss => {
                self.dram_read(line, start + self.l2_latency, stats);
            }
        }
    }

    fn dram_read(&mut self, line: u64, at: u64, stats: &mut GpuStats) -> u64 {
        let part_idx = (line % self.partitions.len() as u64) as usize;
        let part = &mut self.partitions[part_idx];
        let start = at.max(part.next_free);
        part.next_free = start + self.dram_service;
        stats.bump(|c| c.dram_accesses += 1);
        start + self.dram_latency
    }

    /// The per-SM ports as a slice, so the decoupled loop can hand the
    /// advancing lane a `&mut` to its own port alone (the borrow checker's
    /// view of "SM advances only touch SM-private memory state").
    pub(crate) fn ports_mut(&mut self) -> &mut [Port] {
        &mut self.ports
    }

    /// Re-register SM `sm`'s port in the front heap after a decoupled
    /// advance filled it through a [`PortRequester`] (which deliberately
    /// does not touch the heap). Caller contract: the port was **empty**
    /// (hence untracked) when the advance started — a port that was
    /// already non-empty kept its valid heap entry, because advances only
    /// append behind an unchanged front.
    pub(crate) fn reindex_port(&mut self, sm: usize) {
        if let Some(at) = self.ports[sm].front_at() {
            self.front_heap.push(Reverse((at, sm)));
        }
    }

    /// Uncontended round-trip latency of an L2 hit, for reference. Also
    /// the lookahead of the per-SM horizon: no read can fill sooner.
    pub fn l2_hit_round_trip(&self) -> u64 {
        2 * self.xbar_latency + self.l2_latency
    }

    /// The horizon lookahead: at least one cycle even for degenerate
    /// zero-latency configurations, so decoupled SMs always make progress.
    /// A lane's horizon is its port's oldest unresolved read plus this.
    pub fn min_fill_latency(&self) -> u64 {
        self.l2_hit_round_trip().max(1)
    }

    /// Uncontended round-trip latency of a DRAM access, for reference.
    pub fn dram_round_trip(&self) -> u64 {
        2 * self.xbar_latency + self.l2_latency + self.dram_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct VecSink(Vec<(u64, usize, SmEvent)>);
    impl EventSink for VecSink {
        fn schedule(&mut self, at: u64, sm: usize, ev: SmEvent) {
            self.0.push((at, sm, ev));
        }
    }

    fn memsys() -> (MemSystem, GpuStats) {
        let cfg = GpuConfig::scaled(2);
        (MemSystem::new(&cfg), GpuStats::new())
    }

    /// Immediate-mode read returning the fill time (as the pre-port API
    /// did), for the service-model tests.
    fn read_at(m: &mut MemSystem, line: u64, now: u64, st: &mut GpuStats) -> u64 {
        let mut sink = VecSink(Vec::new());
        m.read(0, line, now, 0, &mut sink, st);
        sink.0[0].0
    }

    #[test]
    fn first_read_misses_l2_and_goes_to_dram() {
        let (mut m, mut st) = memsys();
        let t = read_at(&mut m, 1234, 0, &mut st);
        assert_eq!(t, m.dram_round_trip());
        assert_eq!(st.total.l2_accesses, 1);
        assert_eq!(st.total.l2_hits, 0);
        assert_eq!(st.total.dram_accesses, 1);
    }

    #[test]
    fn second_read_hits_l2() {
        let (mut m, mut st) = memsys();
        let _ = read_at(&mut m, 1234, 0, &mut st);
        let t = read_at(&mut m, 1234, 10_000, &mut st);
        assert_eq!(t, 10_000 + m.l2_hit_round_trip());
        assert_eq!(st.total.l2_hits, 1);
        assert_eq!(st.total.dram_accesses, 1);
    }

    #[test]
    fn bank_contention_adds_queueing_delay() {
        let (mut m, mut st) = memsys();
        // Two reads to the same bank at the same instant: the second is
        // delayed by the bank service interval.
        let banks = 6; // scaled(2)
        let l0 = 0u64;
        let l1 = banks as u64; // same bank, different line
        let t0 = read_at(&mut m, l0, 0, &mut st);
        let t1 = read_at(&mut m, l1, 0, &mut st);
        assert!(t1 > t0, "contended access must finish later");
    }

    #[test]
    fn dram_bandwidth_saturates_under_burst() {
        let (mut m, mut st) = memsys();
        // Fire a burst of unique lines mapping to one partition; the k-th
        // completion should be pushed out by ~k * dram service interval.
        let parts = m.partitions.len() as u64;
        let banks = m.banks.len() as u64;
        let lcm = parts * banks;
        let mut last = 0;
        for k in 0..64u64 {
            let line = k * lcm; // bank 0, partition 0 every time
            let t = read_at(&mut m, line, 0, &mut st);
            assert!(t >= last);
            last = t;
        }
        let uncontended = m.dram_round_trip();
        assert!(
            last > uncontended + 50 * 12,
            "burst must queue: got {last}, uncontended {uncontended}"
        );
    }

    #[test]
    fn writes_consume_bandwidth_but_do_not_allocate() {
        let (mut m, mut st) = memsys();
        m.write(0, 555, 0, &mut st);
        assert_eq!(st.total.dram_accesses, 1);
        // Line was not allocated in L2 by the write.
        let t = read_at(&mut m, 555, 10_000, &mut st);
        assert_eq!(t, 10_000 + m.dram_round_trip());
    }

    /// One decoupled SM advance, as `Gpu::advance_sm` runs it: `issue`
    /// parks requests on SM `sm`'s drained port through a
    /// [`PortRequester`], then the port is reindexed.
    fn advance(
        m: &mut MemSystem,
        sm: usize,
        st: &mut GpuStats,
        issue: impl FnOnce(&mut PortRequester<'_>, &mut VecSink, &mut GpuStats),
    ) {
        assert!(
            m.ports[sm].is_empty(),
            "an advance starts on a drained port"
        );
        let mut sink = VecSink(Vec::new());
        let port = &mut m.ports_mut()[sm];
        issue(&mut PortRequester { sm, port }, &mut sink, st);
        assert!(sink.0.is_empty(), "a parked read schedules no fill");
        m.reindex_port(sm);
    }

    #[test]
    fn deferred_requests_park_until_the_frontier_passes() {
        let (mut m, mut st) = memsys();
        let mut sink = VecSink(Vec::new());
        // SM 1 runs ahead and issues at cycle 10; SM 0 lags at cycle 4.
        advance(&mut m, 1, &mut st, |p, ev, st| {
            p.read(1, 777, 10, 3, ev, st)
        });
        assert_eq!(m.pending_requests(), 1);
        assert_eq!(st.total.l2_accesses, 0, "parked reads touch no state");
        // Frontier below the request: nothing may be applied yet.
        m.apply_ready((4, 0), &mut sink, &mut st);
        assert_eq!(m.pending_requests(), 1);
        assert!(sink.0.is_empty());
        // SM 0 passes cycle 10: the request becomes safe.
        m.apply_ready((11, 0), &mut sink, &mut st);
        assert_eq!(m.pending_requests(), 0);
        assert_eq!(sink.0.len(), 1);
        let (at, sm, ev) = sink.0[0];
        assert_eq!(sm, 1);
        assert_eq!(ev, SmEvent::Fill { mshr: 3 });
        assert_eq!(at, 10 + m.dram_round_trip());
    }

    #[test]
    fn apply_order_matches_the_reference_loop() {
        // Same-cycle requests from different SMs must be serviced in SM
        // order, exactly as the stepped loop calls them — observable via
        // bank queueing on a shared bank.
        let (mut m_def, mut st_def) = memsys();
        let (mut m_imm, mut st_imm) = memsys();
        let banks = m_imm.banks.len() as u64;
        let mut imm = VecSink(Vec::new());
        // Reference order: (cycle 5, SM 0) then (cycle 5, SM 1).
        m_imm.read(0, 0, 5, 0, &mut imm, &mut st_imm);
        m_imm.read(1, banks, 5, 1, &mut imm, &mut st_imm);
        // Parked out of SM order (SM 1 advanced first).
        advance(&mut m_def, 1, &mut st_def, |p, ev, st| {
            p.read(1, banks, 5, 1, ev, st)
        });
        advance(&mut m_def, 0, &mut st_def, |p, ev, st| {
            p.read(0, 0, 5, 0, ev, st)
        });
        let mut def = VecSink(Vec::new());
        m_def.apply_ready((u64::MAX, 0), &mut def, &mut st_def);
        let fill_of =
            |v: &VecSink, sm: usize| v.0.iter().find(|&&(_, s, _)| s == sm).expect("fill").0;
        assert_eq!(fill_of(&imm, 0), fill_of(&def, 0));
        assert_eq!(fill_of(&imm, 1), fill_of(&def, 1));
    }

    #[test]
    fn safe_horizon_tracks_oldest_unresolved_read() {
        let (mut m, mut st) = memsys();
        let mut sink = VecSink(Vec::new());
        // The bound `Lane::horizon` uses.
        let horizon = |m: &MemSystem, sm: usize| {
            m.ports[sm]
                .next_read_at()
                .map(|at| at + m.min_fill_latency())
        };
        assert_eq!(horizon(&m, 0), None);
        advance(&mut m, 0, &mut st, |p, ev, st| {
            p.read(0, 1, 7, 0, ev, st);
            p.read(0, 2, 9, 1, ev, st);
        });
        assert_eq!(horizon(&m, 0), Some(7 + m.l2_hit_round_trip()));
        // Writes never bound their issuer.
        advance(&mut m, 1, &mut st, |p, _, st| p.write(1, 3, 2, st));
        assert_eq!(horizon(&m, 1), None);
        // Applying the oldest read moves the horizon to the next one.
        m.apply_ready((8, 0), &mut sink, &mut st);
        assert_eq!(horizon(&m, 0), Some(9 + m.l2_hit_round_trip()));
    }
}
