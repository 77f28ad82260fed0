//! Multi-core execution of the evaluation sweeps.
//!
//! The experiment registry's suites are embarrassingly parallel, so
//! [`map`], a simple work-claiming pool, fans their jobs over `n` threads
//! while preserving input order. Every suite hands it one job per
//! (workload, scheme) through `experiments::sweep`, so one large
//! workload's schemes run side by side. Graph and genome first hand it one
//! job per dataset or chromosome that builds the input their workloads
//! share (a tile schedule, a reference and its seed index). No simulator
//! state is shared between threads, so parallel runs are
//! **bit-identical** to their sequential twins. The `figures` binary's
//! `--threads` flag feeds this pool.
//!
//! Everything is built on `std::thread::scope` — no dependencies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a thread-count knob: `0` means one thread per available core,
/// anything else is taken literally (`1` = sequential).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Applies `f` to every item on a pool of up to `threads` worker threads,
/// returning the outputs in input order.
///
/// Items are claimed atomically (index order), so threads stay busy until
/// the queue drains regardless of per-item cost skew. With `threads <= 1`
/// (after [`resolve_threads`]) this degenerates to a plain sequential map —
/// the experiment registry calls it unconditionally and lets the knob
/// decide.
pub fn map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = resolve_threads(threads).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = queue[i].lock().unwrap().take().expect("each item is claimed once");
                let out = f(item);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots.into_iter().map(|slot| slot.into_inner().unwrap().expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..100).collect();
        let serial = map(1, items.clone(), |x| x * x);
        let parallel = map(7, items, |x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[99], 99 * 99);
    }

    #[test]
    fn map_handles_fewer_items_than_threads() {
        assert_eq!(map(16, vec![1, 2], |x| x + 1), vec![2, 3]);
        assert_eq!(map(16, Vec::<u64>::new(), |x| x), Vec::<u64>::new());
    }

    #[test]
    fn map_with_zero_threads_auto_detects() {
        // `0` = available parallelism; correctness must not depend on the
        // machine, only the schedule does.
        let items: Vec<u64> = (0..32).collect();
        assert_eq!(map(0, items.clone(), |x| x * 3), map(1, items, |x| x * 3));
    }

    #[test]
    fn resolve_threads_is_literal_except_zero() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(6), 6);
        assert!(resolve_threads(0) >= 1);
    }
}
