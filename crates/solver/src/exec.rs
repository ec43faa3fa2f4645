//! Deterministic fork-join execution: the one way the workspace runs work
//! on more than one thread.
//!
//! Every parallel phase maps a fixed list of tasks through
//! [`Threads::map_tasks`] and merges the results on the calling thread
//! **in task order**, whichever worker ran each task. Floats are then
//! summed in the same order, candidate lists stay ascending and greedy
//! ties break the same way at every worker count, so the output is
//! *bit-identical* to the single-threaded computation. That is the
//! contract behind the engine's and the cluster's `threads` knobs, and
//! `tests/parallel_determinism.rs` and `tests/cluster_equivalence.rs`
//! assert it end to end. Items that cost about the same (Algorithm 1's
//! relevance lists and gains, the Eq. 9 build, a cluster's shard engines)
//! go as contiguous ranges, at most one per worker
//! ([`Threads::map_ranges`]). Items whose costs differ widely (Eq. 9
//! components in [`crate::ufl::map_components`], the cells of an
//! experiment sweep) go one task each.
//!
//! Workers come from [`std::thread::scope`]: no pool, no dependency, no
//! `'static` bound and no `unsafe`, which a pool that parks scoped threads
//! between forks would need. On a 2-vCPU virtual machine a new thread
//! takes 0.1–0.45 ms to reach its first task (10th to 90th percentile; at
//! times several ms), about as long as a range of `city_exact`'s sharded
//! phases. So the calling thread is a worker too, and every worker claims
//! the next task from one counter: a task whose worker has not started
//! goes to the first free one. One worker, or one task, runs inline, so
//! the serial path is the unsharded computation. The workspace's
//! `clippy.toml` disallows every other way to start a thread.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A resolved worker-thread count (always ≥ 1).
///
/// Construct with [`Threads::new`] (`0` = auto-detect) or
/// [`Threads::single`] for the guaranteed-serial configuration. Outputs
/// do not depend on the value — see the [module docs](self) for the
/// determinism contract — so this is purely a wall-clock knob.
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

    /// Maps the task indices `0..tasks` through `f` and returns the
    /// results **in task order**, whichever worker ran each task.
    ///
    /// Runs on `min(self.get(), tasks)` workers, the calling thread among
    /// them. Each worker claims the next unclaimed index from one shared
    /// counter until none is left. One worker, or one task, runs inline
    /// on the calling thread. A panic in `f` panics the caller with the
    /// same payload, once every worker has stopped.
    ///
    /// `f` must be a pure function of its index (reading shared state is
    /// fine, which is why it only needs `Fn + Sync`): the caller's merge
    /// then sees the same results regardless of worker count.
    pub fn map_tasks<R, F>(self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.get().min(tasks);
        if workers <= 1 {
            return (0..tasks).map(f).collect();
        }
        // `Relaxed` suffices: the counter publishes nothing but the index
        // it hands out, and the results come back through `join`.
        let next = AtomicUsize::new(0);
        let drain = || -> Vec<(usize, R)> {
            std::iter::from_fn(|| {
                let task = next.fetch_add(1, Ordering::Relaxed);
                (task < tasks).then(|| (task, f(task)))
            })
            .collect()
        };
        #[allow(clippy::disallowed_methods)] // the one fork-join every parallel phase runs on
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
            let mut done = drain();
            for helper in helpers {
                match helper.join() {
                    Ok(part) => done.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            done
        });
        done.sort_unstable_by_key(|&(task, _)| task);
        done.into_iter().map(|(_, r)| r).collect()
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

    /// Maps each range of [`Threads::shard_ranges`]`(len)` through `f`
    /// with [`Threads::map_tasks`] and returns the partial results **in
    /// shard order** (ascending index ranges). With one worker — or an
    /// input too small to split — `f` runs inline on the calling thread
    /// over `0..len`, so the serial path is literally the unsharded
    /// computation.
    pub fn map_ranges<R, F>(self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        self.map_ranges_min(len, 1, f)
    }

    /// [`Threads::map_ranges`] with a work floor: the shard count is
    /// additionally capped at `len / min_per_shard`, so no worker gets
    /// fewer than `min_per_shard` items and inputs smaller than
    /// `2 × min_per_shard` run inline. Starting an OS thread takes about
    /// 0.1 ms (see the [module docs](self)); callers whose per-item work
    /// is cheap pass a floor so paper-scale slots (tens of sensors) never
    /// pay fork-join overhead. Shard *boundaries* never influence a merged
    /// result (merges concatenate or scatter by absolute index), so the
    /// floor — like the thread count itself — cannot change any output.
    pub fn map_ranges_min<R, F>(self, len: usize, min_per_shard: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let cap = len / min_per_shard.max(1);
        let ranges = Threads::new(self.get().min(cap).max(1)).shard_ranges(len);
        self.map_tasks(ranges.len(), |i| f(ranges[i].clone()))
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
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier, Condvar, Mutex};
    use std::time::Duration;

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

    /// Results come back in task order even when the tasks finish out of
    /// order: in each pair the worker holding task `2k` waits until task
    /// `2k + 1` is done, so the two run on different workers and neither
    /// worker's own results are a contiguous run of the output.
    #[test]
    fn map_tasks_keeps_task_order_whatever_finishes_first() {
        let pairs: Vec<_> = (0..2)
            .map(|_| {
                let (done, wait) = mpsc::channel();
                (done, Mutex::new(wait))
            })
            .collect();
        let finished = Mutex::new(Vec::new());
        let results = Threads::new(2).map_tasks(4, |task| {
            let (done, wait) = &pairs[task / 2];
            if task % 2 == 0 {
                wait.lock().unwrap().recv().unwrap();
            }
            finished.lock().unwrap().push(task);
            // Signal only once recorded: a preempted sender must not let
            // its partner record first.
            if task % 2 == 1 {
                done.send(()).unwrap();
            }
            task
        });
        assert_eq!(results, [0, 1, 2, 3]);
        assert_eq!(finished.into_inner().unwrap(), [1, 0, 3, 2]);
    }

    /// A panicking task panics the caller with its payload, whether a
    /// helper or the calling thread ran it.
    #[test]
    fn a_panicking_task_panics_the_caller() {
        let caller = std::thread::current().id();
        for panics_on_helper in [true, false] {
            // Neither worker can claim the second task while it waits at
            // the barrier, so each runs one.
            let both_started = Barrier::new(2);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Threads::new(2).map_tasks(2, |_| {
                    both_started.wait();
                    let on_helper = std::thread::current().id() != caller;
                    assert!(on_helper != panics_on_helper, "task failed");
                })
            }));
            let payload = outcome.expect_err("the caller did not panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failed"));
        }
        let inline = catch_unwind(|| Threads::single().map_tasks(2, |task| assert_eq!(task, 0)));
        assert!(inline.is_err());
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
        let seen = Threads::single().map_tasks(3, |_| std::thread::current().id());
        assert_eq!(seen, vec![caller; 3]);
    }

    #[test]
    fn no_tasks_never_call_f() {
        for threads in [1, 2, 8] {
            let threads = Threads::new(threads);
            let none: Vec<()> = threads.map_tasks(0, |task| panic!("task {task} ran"));
            assert!(none.is_empty());
            let none: Vec<()> = threads.map_ranges(0, |r| panic!("range {r:?} ran"));
            assert!(none.is_empty());
            let none: Vec<()> = threads.map_ranges_min(0, 5, |r| panic!("range {r:?} ran"));
            assert!(none.is_empty());
        }
    }

    #[test]
    fn map_tasks_runs_every_task_exactly_once() {
        for threads in 1..=6 {
            for tasks in 0..=25usize {
                let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                let results = Threads::new(threads).map_tasks(tasks, |task| {
                    runs[task].fetch_add(1, Ordering::Relaxed);
                    task * task
                });
                let squares: Vec<usize> = (0..tasks).map(|task| task * task).collect();
                assert_eq!(results, squares, "{threads} threads, {tasks} tasks");
                for (task, runs) in runs.iter().enumerate() {
                    assert_eq!(runs.load(Ordering::Relaxed), 1, "task {task} of {tasks}");
                }
            }
        }
    }

    /// `min(threads, tasks)` workers run at once, and no more: three tasks
    /// that each wait for all three to start finish only if three workers
    /// hold them together, and two workers never show more than two
    /// thread ids.
    #[test]
    fn map_tasks_runs_min_of_threads_and_tasks_workers() {
        let started = (Mutex::new(0), Condvar::new());
        let ids = Threads::new(8).map_tasks(3, |_| {
            let (count, all_in) = &started;
            let mut count = count.lock().unwrap();
            *count += 1;
            all_in.notify_all();
            let (count, timeout) = all_in
                .wait_timeout_while(count, Duration::from_secs(10), |count| *count < 3)
                .unwrap();
            assert!(
                !timeout.timed_out(),
                "only {} of 3 tasks ran at once",
                *count
            );
            std::thread::current().id()
        });
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 3);

        // Tasks slow enough that any further worker would claim some.
        let ids = Threads::new(2).map_tasks(40, |_| {
            std::thread::sleep(Duration::from_millis(1));
            std::thread::current().id()
        });
        assert!(ids.iter().collect::<HashSet<_>>().len() <= 2);
    }

    #[test]
    fn shard_ranges_give_the_remainder_to_the_earliest_ranges() {
        assert_eq!(Threads::new(3).shard_ranges(10), [0..4, 4..7, 7..10]);
        assert_eq!(Threads::new(4).shard_ranges(6), [0..2, 2..4, 4..5, 5..6]);
        assert_eq!(Threads::new(4).shard_ranges(2), [0..1, 1..2]);
        assert_eq!(Threads::new(2).shard_ranges(5), [0..3, 3..5]);
    }

    #[test]
    fn work_floor_never_leaves_a_shard_below_the_floor() {
        for threads in [1, 2, 3, 8] {
            for len in 0..=70usize {
                for floor in [1, 2, 7, 16, 35] {
                    let ranges = Threads::new(threads).map_ranges_min(len, floor, |r| r);
                    let label = format!("{threads} threads, len {len}, floor {floor}");
                    assert!(ranges.len() <= threads, "{label}");
                    if ranges.len() > 1 {
                        assert!(ranges.iter().all(|r| r.len() >= floor), "{label}");
                    }
                    let flat: Vec<usize> = ranges.into_iter().flatten().collect();
                    assert_eq!(flat, (0..len).collect::<Vec<_>>(), "{label}");
                }
            }
        }
    }

    /// A panic in the caller's own task reaches the caller only after the
    /// helper's task has finished: no worker outlives the fork-join.
    #[test]
    fn a_panicking_caller_task_still_waits_for_the_helpers() {
        let caller = std::thread::current().id();
        let both_started = Barrier::new(2);
        let helper_done = AtomicBool::new(false);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Threads::new(2).map_tasks(2, |_| {
                both_started.wait();
                if std::thread::current().id() == caller {
                    panic!("caller failed");
                }
                std::thread::sleep(Duration::from_millis(50));
                helper_done.store(true, Ordering::SeqCst);
            })
        }));
        let payload = outcome.expect_err("the caller did not panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller failed"));
        assert!(
            helper_done.load(Ordering::SeqCst),
            "the helper was still running"
        );
    }
}
