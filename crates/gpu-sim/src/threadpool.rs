//! The process-wide helper-thread budget.
//!
//! Helper threads are accounted against one process-wide budget so that
//! nested parallelism composes instead of oversubscribing: the job
//! engine's waves and the `profile_grid` fan-outs inside them both lease
//! from it (through `poise::parallel::parallel_map`). The budget counts
//! helper threads only — every already-running thread that *calls* into
//! a fan-out participates in the work for free. The cap is
//! `available_parallelism` minus the caller, overridable with the
//! `POISE_THREAD_BUDGET` environment variable (useful for CI and for
//! benchmarks that pin the thread count). [`acquire_helpers`] never
//! blocks: it grants what is available (possibly zero) and callers
//! degrade gracefully to running sequentially on their own thread.
//!
//! The simulator itself spawns no thread. The module keeps its name
//! because the benchmark (`perfbench/`) imports [`BUDGET_ENV`] and
//! [`thread_budget`] from this path.

use std::sync::atomic::{AtomicUsize, Ordering};

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
/// fan-outs cannot move the counts they check.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_returns_to_budget_on_drop() {
        // A ledger of its own: concurrently running tests lease from (and
        // return to) the process-wide one.
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
    fn a_dry_ledger_grants_no_helpers() {
        static LEDGER: AtomicUsize = AtomicUsize::new(0);
        let hog = acquire_from(&LEDGER, 2, usize::MAX);
        assert_eq!(hog.granted(), 2);
        assert_eq!(acquire_from(&LEDGER, 2, 4).granted(), 0);
        drop(hog);
        assert_eq!(acquire_from(&LEDGER, 2, 4).granted(), 2);
    }
}
