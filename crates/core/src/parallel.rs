//! A minimal deterministic parallel map over scoped threads.
//!
//! The build environment has no crates.io access, so instead of rayon this
//! module provides the one primitive the workspace needs: map a function
//! over independent items on however many cores exist, **without changing
//! any result**. Items are claimed from a shared atomic cursor and each
//! result is written into its own pre-allocated slot, so the output order —
//! and therefore every downstream reduction — is identical for 1 thread or
//! 64. Work items must not share mutable state; in this workspace they
//! never do, because every trial/group derives its own RNG stream.
//!
//! Thread count resolution: [`set_thread_override`] (used by determinism
//! tests and benchmarks) beats the `DAP_THREADS` environment variable,
//! which beats [`std::thread::available_parallelism`]. The core count is
//! detected once per process and cached: detection reads cgroup and
//! affinity state, and every [`parallel_map`] would otherwise pay for it.
//! With one thread the map degenerates to an inline loop — no spawn, no
//! synchronization.
//!
//! Nested maps: a [`parallel_map`] called from a worker of a map that
//! already runs [`effective_threads`] workers also runs inline, since every
//! core is busy with the outer items. The experiment engine fans `(cell,
//! rep)` tasks out and each task's `DapSession::finalize` fans its groups
//! out; spawning threads for the inner map would start two per task on top
//! of the outer workers, only to oversubscribe the cores, and every extra
//! thread's malloc arena keeps memory resident after the thread exits.
//! A worker of a map with fewer items than threads still fans its nested
//! maps out.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// `0` means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the workers of a map that runs [`effective_threads`] of them:
    /// nested maps there run inline.
    static IN_FULL_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Forces every subsequent [`parallel_map`] onto exactly `n` threads
/// (`None` restores automatic detection). Intended for tests proving
/// thread-count independence and for benchmarks pinning a configuration;
/// the override is process-global.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The thread count [`parallel_map`] will use right now.
pub fn effective_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("DAP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on up to [`effective_threads`] scoped threads,
/// returning results in input order. Results are bit-identical to the
/// serial `items.into_iter().map(f).collect()` as long as `f` is a pure
/// function of its item. Inside a worker of a map that uses every thread,
/// it runs inline (see the module docs).
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let available = effective_threads();
    let threads = available.min(n.max(1));
    if threads <= 1 || n <= 1 || IN_FULL_MAP.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let full = threads == available;

    // Each item moves into its slot behind a Mutex so worker threads can
    // take ownership; results land in per-index slots, preserving order.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let work = &work;
    let slots = &slots;
    let cursor = &cursor;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(move || {
                IN_FULL_MAP.with(|w| w.set(full));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item =
                        work[i].lock().expect("work slot poisoned").take().expect("claimed once");
                    let out = f(item);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                }
            }));
        }
        for h in handles {
            // Propagate panics from workers instead of swallowing them.
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    slots
        .iter()
        .map(|s| s.lock().expect("result slot poisoned").take().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 7] {
            set_thread_override(Some(threads));
            let got = parallel_map(items.clone(), |x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
        set_thread_override(None);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(empty, |x| x).is_empty());
        assert_eq!(parallel_map(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        // A reduction-style payload sensitive to evaluation order if the
        // implementation ever leaked one.
        let items: Vec<usize> = (0..64).collect();
        let run = |threads| {
            set_thread_override(Some(threads));
            let out = parallel_map(items.clone(), |i| {
                let mut acc = 0.0f64;
                for j in 0..100 {
                    acc += ((i * 31 + j) as f64).sqrt().sin();
                }
                acc
            });
            set_thread_override(None);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(5));
    }

    #[test]
    fn nested_maps_in_full_workers_run_inline() {
        // More outer items than any thread count a test here sets, so a
        // spawned outer worker always belongs to a map using every thread.
        set_thread_override(Some(2));
        let caller = std::thread::current().id();
        let outer = parallel_map((0..256u64).collect(), |i| {
            let me = std::thread::current().id();
            let inner =
                parallel_map((0..8u64).collect(), |j| (std::thread::current().id(), i * 8 + j));
            (me, inner)
        });
        set_thread_override(None);
        for (i, (me, inner)) in outer.iter().enumerate() {
            let values: Vec<u64> = inner.iter().map(|&(_, v)| v).collect();
            let expect: Vec<u64> = (0..8).map(|j| i as u64 * 8 + j).collect();
            assert_eq!(values, expect);
            if *me != caller {
                assert!(inner.iter().all(|&(t, _)| t == *me), "item {i} spawned threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        set_thread_override(Some(2));
        let _ = parallel_map(vec![1, 2, 3, 4], |x| {
            if x == 3 {
                panic!("worker boom");
            }
            x
        });
    }
}
