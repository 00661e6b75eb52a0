//! Scoped-thread fan-out for the experiment layer.
//!
//! Simulation runs are embarrassingly parallel (each owns its `Gpu`), so a
//! work queue over [`std::thread::scope`] is all that is needed: no
//! external dependency, panics propagate on join, and results keep the
//! input order. Helper threads are leased from the process-wide budget
//! ([`gpu_sim::threadpool::acquire_helpers`], `POISE_THREAD_BUDGET`), one
//! pot for every fan-out, so nested use (the job engine of
//! [`crate::jobs`] fanning a wave of jobs whose grid profiles fan out
//! again) composes instead of oversubscribing: inner fan-outs see what
//! the outer ones left and degrade to sequential on their own thread
//! when the pot is dry.
//!
//! Callers that need per-task failure isolation (the job engine) wrap
//! `f` in `catch_unwind` themselves; `parallel_map` keeps the strict
//! propagate-on-join contract so plain experiment fan-outs fail fast.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` in parallel, preserving input order. Helper
/// threads are leased from the process-wide budget (the calling thread
/// always participates); empty/singleton inputs and a dry budget fall
/// back to a sequential map. Panics if any worker panics.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let lease = gpu_sim::threadpool::acquire_helpers(items.len() - 1);
    if lease.granted() == 0 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let (f, next, slots) = (&f, &next, &slots);
        let drain = move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            match items.get(i) {
                Some(item) => {
                    let r = f(item);
                    *slots[i].lock().expect("result slot") = Some(r);
                }
                None => break,
            }
        };
        for _ in 0..lease.granted() {
            s.spawn(drain);
        }
        // The caller works too — its thread is the one the budget's
        // `- 1` reservation accounts for.
        drain();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every index was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..137).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn nested_fanout_is_safe() {
        let items: Vec<usize> = (0..8).collect();
        let out = parallel_map(&items, |&i| {
            let inner: Vec<usize> = (0..4).collect();
            parallel_map(&inner, |&j| i * 10 + j).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn exhausted_budget_degrades_to_sequential() {
        // Hog the whole process budget; the map must still complete
        // (sequentially, on the calling thread).
        let hog = gpu_sim::threadpool::acquire_helpers(usize::MAX);
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |&x| x + 1);
        assert_eq!(out, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
        drop(hog);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        parallel_map(&items, |&x| {
            if x == 33 {
                panic!("worker boom");
            }
            x
        });
    }
}
