//! Deterministic fork-join execution for the slot pipeline.
//!
//! Most of the engine's parallel phases follow one shape: a read-only input
//! slice is split into **contiguous shards**, each shard is mapped to a
//! partial result by one of the scoped worker threads, and the partials are
//! folded back **in shard order** by a single-threaded merge. Because
//! every shard covers a contiguous index range and the merge concatenates
//! (or scatters) in ascending range order, the combined result is
//! *bit-identical* to the single-threaded computation — floating-point
//! sums happen in the same order, candidate lists stay ascending, and
//! greedy tie-breaks are unchanged. That is the determinism contract
//! [`crate::aggregator::Aggregator`] exposes through its
//! [`threads`](crate::aggregator::AggregatorBuilder::threads) knob, and
//! property tests assert it end to end (`tests/parallel_determinism.rs`).
//!
//! One phase takes its work differently: the Eq. 9 schedulers hand a
//! slot's connected components to `threads.get()` workers through
//! `ps_solver::ufl::map_components`, which deals them out one at a time
//! from an atomic counter (their costs differ too widely for contiguous
//! shards) and puts the results back in component order before the
//! merge, so the same contract holds.
//!
//! Workers come from [`std::thread::scope`] — no thread pool, no extra
//! dependencies, no `'static` bounds. A new thread can take a while to
//! start: on a 2-vCPU virtual machine, 0.1–0.45 ms from spawn to its first
//! shard (10th to 90th percentile; at times several ms) in `city_exact`'s
//! sharded phases, about as long as a shard's work. So the calling thread
//! is a worker too, and every worker claims the next unmapped shard from
//! one counter: a shard whose worker has not started yet goes to the
//! first worker that is free. `threads = 1` (or a shard count of 1) skips
//! spawning entirely and runs the exact serial code path.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A resolved worker-thread count for the slot pipeline (always ≥ 1).
///
/// Construct with [`Threads::new`] (`0` = auto-detect) or
/// [`Threads::single`] for the guaranteed-serial configuration. The
/// engine's outputs do not depend on the value — see the
/// [module docs](self) for the determinism contract — so this is purely
/// a wall-clock knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(NonZeroUsize);

impl Threads {
    /// Resolves a requested thread count: `0` means "use
    /// [`std::thread::available_parallelism`]", anything else is taken
    /// literally.
    pub fn new(requested: usize) -> Self {
        let n = match NonZeroUsize::new(requested) {
            Some(n) => n,
            None => std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        };
        Threads(n)
    }

    /// Exactly one worker: every phase runs inline on the calling thread.
    pub fn single() -> Self {
        Threads(NonZeroUsize::MIN)
    }

    /// The resolved worker count.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Splits `0..len` into at most `self.get()` contiguous ranges of
    /// near-equal length (earlier ranges absorb the remainder; empty
    /// ranges are never produced).
    pub fn shard_ranges(self, len: usize) -> Vec<Range<usize>> {
        if len == 0 {
            return Vec::new();
        }
        let shards = self.get().min(len);
        let base = len / shards;
        let rem = len % shards;
        let mut out = Vec::with_capacity(shards);
        let mut start = 0;
        for i in 0..shards {
            let size = base + usize::from(i < rem);
            out.push(start..start + size);
            start += size;
        }
        debug_assert_eq!(start, len);
        out
    }

    /// Maps each shard range of `0..len` through `f` on the scoped
    /// workers, the calling thread among them, and returns the partial
    /// results **in shard order** (ascending index ranges), whichever
    /// worker mapped each range. With one worker — or an input too small
    /// to split — `f` runs inline on the calling thread over `0..len`,
    /// so the serial path is literally the unsharded computation.
    ///
    /// `f` must be a pure function of its range (reading shared state is
    /// fine, which is why it only needs `Fn + Sync`): the caller's merge
    /// then sees the same partials regardless of worker count.
    pub fn map_ranges<R, F>(self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        self.map_ranges_min(len, 1, f)
    }

    /// [`Threads::map_ranges`] with a work floor: the shard count is
    /// additionally capped at `len / min_per_shard`, so no worker is
    /// spawned for fewer than `min_per_shard` items and inputs smaller
    /// than `2 × min_per_shard` run inline. Starting an OS thread takes
    /// about 0.1 ms (see the [module docs](self)); callers whose per-item
    /// work is cheap pass a floor so paper-scale slots (tens of sensors)
    /// never pay fork-join overhead. Shard *boundaries* never influence a
    /// merged result (merges concatenate or scatter by absolute index), so
    /// the floor — like the thread count itself — cannot change any output.
    pub fn map_ranges_min<R, F>(self, len: usize, min_per_shard: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let cap = len / min_per_shard.max(1);
        let workers = self.get().min(cap).max(1);
        let ranges = Threads::new(workers).shard_ranges(len);
        if ranges.len() <= 1 {
            return ranges.into_iter().map(f).collect();
        }
        // Every worker, the caller first, claims the next unmapped range
        // from one counter, so a helper that has not started by the time
        // the caller runs out of work leaves its range to the caller
        // instead of holding up the phase by a whole range's work.
        // `Relaxed` suffices: the counter publishes nothing but the index
        // it hands out, and the partials come back through `join`.
        let next = AtomicUsize::new(0);
        let drain = || {
            let mut done = Vec::new();
            while let Some(range) = ranges.get(next.fetch_add(1, Ordering::Relaxed)) {
                done.push((range.start, f(range.clone())));
            }
            done
        };
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..ranges.len()).map(|_| scope.spawn(drain)).collect();
            let mut done = drain();
            for helper in helpers {
                done.extend(helper.join().expect("shard worker panicked"));
            }
            done
        });
        done.sort_unstable_by_key(|&(start, _)| start);
        done.into_iter().map(|(_, partial)| partial).collect()
    }
}

impl Default for Threads {
    /// Auto-detected parallelism, the same as `Threads::new(0)`.
    fn default() -> Self {
        Threads::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_resolves_to_available_parallelism() {
        let auto = Threads::new(0);
        assert!(auto.get() >= 1);
        assert_eq!(auto, Threads::default());
        assert_eq!(Threads::new(3).get(), 3);
        assert_eq!(Threads::single().get(), 1);
    }

    #[test]
    fn shard_ranges_cover_exactly_without_gaps() {
        for threads in 1..9usize {
            for len in 0..40usize {
                let ranges = Threads::new(threads).shard_ranges(len);
                assert!(ranges.len() <= threads.max(1));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at {threads} threads, len {len}");
                    assert!(!r.is_empty(), "empty shard at {threads} threads, len {len}");
                    next = r.end;
                }
                assert_eq!(next, len);
                // Near-equal: sizes differ by at most one.
                if let (Some(max), Some(min)) = (
                    ranges.iter().map(|r| r.len()).max(),
                    ranges.iter().map(|r| r.len()).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn map_ranges_returns_partials_in_shard_order() {
        for threads in [1, 2, 3, 7, 16] {
            let partials = Threads::new(threads).map_ranges(100, |r| r.clone());
            let flat: Vec<usize> = partials.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    /// Partials come back in shard order even when the shards finish out
    /// of order: the worker holding the first range waits until the
    /// second is done.
    #[test]
    fn map_ranges_keeps_shard_order_whatever_finishes_first() {
        use std::sync::{mpsc, Mutex};
        let (second_done, wait_for_second) = mpsc::channel();
        let wait_for_second = Mutex::new(wait_for_second);
        let finished = Mutex::new(Vec::new());
        let partials = Threads::new(2).map_ranges(10, |r| {
            match r.start {
                0 => wait_for_second.lock().unwrap().recv().unwrap(),
                _ => second_done.send(()).unwrap(),
            }
            finished.lock().unwrap().push(r.start);
            r
        });
        assert_eq!(partials, vec![0..5, 5..10]);
        assert_eq!(finished.into_inner().unwrap(), vec![5, 0]);
    }

    #[test]
    fn sharded_float_sums_are_bit_identical_across_thread_counts() {
        // The merge is ordered, so per-shard partial sums are combined in
        // the same order no matter how many workers ran.
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() / 7.0).collect();
        let sum_with = |threads: usize| -> Vec<f64> {
            Threads::new(threads).map_ranges(xs.len(), |r| xs[r].iter().sum::<f64>())
        };
        // Identical shard boundaries → identical partials bit for bit.
        assert_eq!(sum_with(4), sum_with(4));
        // And the serial path equals a one-shard map.
        assert_eq!(sum_with(1), vec![xs.iter().sum::<f64>()]);
    }

    #[test]
    fn work_floor_caps_the_shard_count() {
        // 100 items at a floor of 40: at most 2 shards regardless of the
        // requested worker count, and the flattened result is unchanged.
        let partials = Threads::new(8).map_ranges_min(100, 40, |r| r.clone());
        assert_eq!(partials.len(), 2);
        let flat: Vec<usize> = partials.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
        // Below 2× the floor the computation runs inline as one range.
        let caller = std::thread::current().id();
        let seen = Threads::new(8).map_ranges_min(79, 40, |_| std::thread::current().id());
        assert_eq!(seen, vec![caller]);
        // A zero floor behaves like map_ranges.
        assert_eq!(Threads::new(4).map_ranges_min(8, 0, |r| r.len()).len(), 4);
    }

    #[test]
    fn single_thread_runs_inline() {
        // No worker threads: the closure observes the calling thread.
        let caller = std::thread::current().id();
        let seen = Threads::single().map_ranges(10, |_| std::thread::current().id());
        assert_eq!(seen, vec![caller]);
    }
}
