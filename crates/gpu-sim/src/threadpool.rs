//! A small scoped thread pool with work stealing, plus the process-wide
//! helper-thread budget it draws from.
//!
//! ## The pool
//!
//! [`ThreadPool`] is built once per simulation ([`crate::Gpu`] keeps it
//! across `run()` calls) and reused for every parallel round, so the
//! per-round cost is a condvar wake, not a thread spawn. Each round
//! ([`ThreadPool::run`]) distributes `items` indices over the
//! participants — the calling thread plus the pool's workers — as
//! contiguous chunks with atomic claim cursors; a participant drains its
//! own chunk first (cache-friendly, contention-free) and then steals from
//! whichever chunk has the most work left. The caller's installed
//! [`CancelToken`] is re-installed inside every worker for the duration
//! of the round, so watchdogs fire inside parallel advances too.
//!
//! ## The budget
//!
//! Worker threads are **helpers** accounted against a process-wide budget
//! so that nested parallelism composes instead of oversubscribing: an
//! outer `parallel_map` fan-out and the inner per-SM advance threads draw
//! from the same pot. The budget counts helper threads only — every
//! already-running thread that *calls* into a fan-out participates in the
//! work for free. The cap is `available_parallelism` minus the caller,
//! overridable with the `POISE_THREAD_BUDGET` environment variable
//! (useful for CI and for benchmarks that pin the thread count).
//! [`acquire_helpers`] never blocks: it grants what is available
//! (possibly zero) and callers degrade gracefully to running
//! sequentially on their own thread.

use crate::cancel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Environment variable overriding the process-wide thread budget
/// (total threads the process should keep busy, including the main one).
pub const BUDGET_ENV: &str = "POISE_THREAD_BUDGET";

/// The process-wide thread budget: total concurrent compute threads this
/// process should use. `POISE_THREAD_BUDGET` if set (and ≥ 1), else
/// [`std::thread::available_parallelism`].
pub fn thread_budget() -> usize {
    std::env::var(BUDGET_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Helper threads currently leased process-wide.
static HELPERS_IN_USE: AtomicUsize = AtomicUsize::new(0);

/// A lease over some number of helper threads; returns them to the
/// ledger it was drawn from (the process-wide budget) on drop.
#[derive(Debug)]
pub struct Lease {
    granted: usize,
    ledger: &'static AtomicUsize,
}

impl Lease {
    /// How many helpers this lease actually granted (≤ what was asked).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.granted > 0 {
            self.ledger.fetch_sub(self.granted, Ordering::AcqRel);
        }
    }
}

/// Lease up to `want` helper threads from the process-wide budget.
///
/// Never blocks: the grant is `min(want, budget - 1 - helpers in use)`
/// (the `- 1` reserves a slot for the calling thread, which always
/// participates in its own fan-out) and may be zero, in which case the
/// caller simply runs sequentially. First-come first-served by design —
/// fairness across concurrent fan-outs is not a goal; not oversubscribing
/// the host is.
pub fn acquire_helpers(want: usize) -> Lease {
    acquire_from(&HELPERS_IN_USE, thread_budget().saturating_sub(1), want)
}

/// [`acquire_helpers`] over any ledger of helpers in use, capped at
/// `cap`. Tests lease from ledgers of their own, so concurrently running
/// pools cannot move the counts they check.
fn acquire_from(ledger: &'static AtomicUsize, cap: usize, want: usize) -> Lease {
    loop {
        let used = ledger.load(Ordering::Acquire);
        let take = want.min(cap.saturating_sub(used));
        if take == 0 {
            return Lease { granted: 0, ledger };
        }
        if ledger
            .compare_exchange(used, used + take, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return Lease {
                granted: take,
                ledger,
            };
        }
    }
}

/// One round's item distribution: contiguous chunks with atomic claim
/// cursors. Claiming is a `fetch_add` on the owner's cursor; stealing is
/// the same `fetch_add` on the victim's. Overshoot past a chunk's end is
/// harmless (bounded by the number of concurrent stealers) — `remaining`
/// saturates.
struct Chunks {
    /// Claim cursor per chunk (next unclaimed global index).
    cursors: Vec<AtomicUsize>,
    /// Exclusive end per chunk.
    ends: Vec<usize>,
}

impl Chunks {
    fn new(items: usize, parts: usize) -> Self {
        let parts = parts.max(1);
        let per = items / parts;
        let extra = items % parts;
        let mut cursors = Vec::with_capacity(parts);
        let mut ends = Vec::with_capacity(parts);
        let mut start = 0;
        for p in 0..parts {
            let len = per + usize::from(p < extra);
            cursors.push(AtomicUsize::new(start));
            ends.push(start + len);
            start += len;
        }
        debug_assert_eq!(start, items);
        Chunks { cursors, ends }
    }

    fn claim(&self, chunk: usize) -> Option<usize> {
        let i = self.cursors[chunk].fetch_add(1, Ordering::Relaxed);
        (i < self.ends[chunk]).then_some(i)
    }

    fn remaining(&self, chunk: usize) -> usize {
        self.ends[chunk].saturating_sub(self.cursors[chunk].load(Ordering::Relaxed))
    }

    /// Participant `who`'s drive loop: drain the own chunk, then steal
    /// from the fullest chunk until everything is claimed.
    fn drive(&self, who: usize, f: &(dyn Fn(usize) + Sync)) {
        while let Some(i) = self.claim(who) {
            f(i);
        }
        loop {
            let victim = (0..self.cursors.len())
                .filter(|&c| c != who)
                .max_by_key(|&c| self.remaining(c))
                .filter(|&c| self.remaining(c) > 0);
            let Some(v) = victim else { break };
            // Claim one item at a time so concurrent stealers rebalance.
            match self.claim(v) {
                Some(i) => f(i),
                None => continue, // lost the race; re-pick a victim
            }
        }
    }
}

/// The lifetime-erased per-round task handed to workers. Soundness: the
/// submitting thread blocks in [`ThreadPool::run`] until every worker has
/// finished the round, so the erased borrow never outlives the closure.
type Task = &'static (dyn Fn(usize) + Sync);

struct PoolState {
    task: Option<Task>,
    /// Round number; workers run each round exactly once.
    round: u64,
    /// Workers still executing the current round.
    active: usize,
    /// A worker panicked during the current round.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// A persistent pool of parked worker threads (see the module docs).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Budget lease backing the workers, held for the pool's lifetime.
    _lease: Lease,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl ThreadPool {
    /// Build a pool with up to `want_workers` helper threads, bounded by
    /// the process-wide budget (possibly zero workers, in which case
    /// [`Self::run`] executes inline on the caller).
    pub fn new(want_workers: usize) -> Self {
        Self::from_lease(acquire_helpers(want_workers))
    }

    /// Test-only: a pool with exactly `n` workers regardless of the host
    /// budget, so the cross-thread paths (condvar hand-off, stealing,
    /// panic propagation) really execute even on single-core hosts.
    #[cfg(test)]
    pub(crate) fn with_forced_workers(n: usize) -> Self {
        HELPERS_IN_USE.fetch_add(n, Ordering::AcqRel);
        Self::from_lease(Lease {
            granted: n,
            ledger: &HELPERS_IN_USE,
        })
    }

    fn from_lease(lease: Lease) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                task: None,
                round: 0,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..lease.granted())
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("poise-sm-{w}"))
                    .spawn(move || worker_loop(&shared, w + 1))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            _lease: lease,
        }
    }

    /// Number of helper threads (participants are `workers() + 1`: the
    /// calling thread drives chunk 0).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run `f(i)` for every `i in 0..items`, distributed over the caller
    /// plus the workers with chunked work stealing. Blocks until all
    /// items are done. `f` must tolerate concurrent invocation for
    /// distinct `i` (it is `Sync`). Panics in `f` are propagated to the
    /// caller after the round drains.
    pub fn run(&mut self, items: usize, f: impl Fn(usize) + Sync) {
        let chunks = Chunks::new(items, self.workers() + 1);
        let token = cancel::current();
        let body = move |who: usize| {
            let _guard = cancel::install(token.clone());
            chunks.drive(who, &f);
        };
        if self.handles.is_empty() {
            body(0);
            return;
        }
        let task: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: we block below until `active == 0`, i.e. until no worker
        // can still hold this borrow; see `Task`.
        let task: Task = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.task = Some(task);
            st.round += 1;
            st.active = self.handles.len();
            st.panicked = false;
        }
        self.shared.work.notify_all();
        let main_panic = catch_unwind(AssertUnwindSafe(|| body(0))).err();
        let mut st = self.shared.state.lock().unwrap();
        while st.active > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.task = None;
        let worker_panicked = st.panicked;
        drop(st);
        if let Some(p) = main_panic {
            std::panic::resume_unwind(p);
        }
        if worker_panicked {
            panic!("a thread-pool worker panicked during a parallel round");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, who: usize) {
    let mut last_round = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.round != last_round {
                    if let Some(t) = st.task {
                        last_round = st.round;
                        break t;
                    }
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let panicked = catch_unwind(AssertUnwindSafe(|| task(who))).is_err();
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if panicked {
            st.panicked = true;
        }
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_items_run_exactly_once() {
        let mut pool = ThreadPool::with_forced_workers(3);
        assert_eq!(pool.workers(), 3);
        for items in [0usize, 1, 7, 64, 1000] {
            let hits: Vec<AtomicU64> = (0..items).map(|_| AtomicU64::new(0)).collect();
            pool.run(items, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        // Exhaust a private budget so the pool gets no helpers (the
        // process-wide one moves under concurrently running tests).
        static LEDGER: AtomicUsize = AtomicUsize::new(0);
        let hog = acquire_from(&LEDGER, 2, usize::MAX);
        assert_eq!(hog.granted(), 2);
        let mut pool = ThreadPool::from_lease(acquire_from(&LEDGER, 2, 4));
        assert_eq!(pool.workers(), 0);
        let count = AtomicU64::new(0);
        pool.run(10, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
        drop(hog);
    }

    #[test]
    fn cancel_token_reaches_pool_workers() {
        let token = CancelToken::new();
        let _g = cancel::install(Some(token.clone()));
        let mut pool = ThreadPool::with_forced_workers(2);
        let seen = AtomicU64::new(0);
        let outer = token.clone();
        pool.run(16, |_| {
            if cancel::current().is_some_and(|t| t.same_as(&outer)) {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn lease_returns_to_budget_on_drop() {
        // A ledger of its own: the `ParallelSm` tests in this binary
        // lease from (and return to) the process-wide one concurrently.
        static LEDGER: AtomicUsize = AtomicUsize::new(0);
        let cap = thread_budget().saturating_sub(1);
        let lease = acquire_from(&LEDGER, cap, 1);
        // On a 1-core budget the grant may be 0; either way drop restores.
        let granted = lease.granted();
        assert_eq!(granted, cap.min(1));
        assert_eq!(LEDGER.load(Ordering::Acquire), granted);
        drop(lease);
        assert_eq!(LEDGER.load(Ordering::Acquire), 0);
    }

    #[test]
    fn worker_panic_propagates() {
        let mut pool = ThreadPool::with_forced_workers(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool survives a panicked round.
        let count = AtomicU64::new(0);
        pool.run(4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn chunks_balance_and_steal() {
        let c = Chunks::new(10, 3);
        assert_eq!(c.ends, vec![4, 7, 10]);
        // Drain chunk 0, then steal everything else from participant 0.
        let seen = Mutex::new(Vec::new());
        c.drive(0, &|i| seen.lock().unwrap().push(i));
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
