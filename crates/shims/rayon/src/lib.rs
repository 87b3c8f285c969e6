//! Offline stand-in for the `rayon` crate.
//!
//! The build environment cannot reach crates.io, so this workspace ships
//! the slice of the rayon API its campaign engine uses:
//! `into_par_iter()` over ranges, vectors and slices, followed by
//! `.map(..).collect()`, `.for_each(..)`, `.sum()` or `.reduce(..)`, plus
//! [`ThreadPoolBuilder`]/[`ThreadPool::install`] to run a job on a chosen
//! number of workers.
//!
//! Work is **claimed**, not pre-split: the worker threads (one per
//! available core, [`std::thread::scope`]) share one queue of the job's
//! items and each takes the next unclaimed item whenever it finishes
//! one, so a mix of cheap and expensive items never leaves a worker idle
//! while items remain. Results still come back **in input order** — the
//! same observable contract rayon's indexed parallel iterators give — so
//! which worker ran an item, and when, is never observable in the output.
//!
//! A parallel iterator started on a worker thread runs inline on that
//! worker: one job never uses more threads than its worker count.

#![deny(missing_docs)]

use std::cell::Cell;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Re-exports that make `use rayon::prelude::*` work.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter};
}

thread_local! {
    /// Worker-count override of the current thread: set by
    /// [`ThreadPool::install`], and 1 on worker threads (nested parallel
    /// iterators run inline).
    static WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker threads a parallel iterator started on this thread uses: the
/// innermost [`ThreadPool::install`]'s count, else one per core the
/// process may run on.
#[must_use]
pub fn current_num_threads() -> usize {
    WORKERS
        .with(Cell::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Ordered parallel map: applies `f` to every item on worker threads
/// that claim items one at a time from a shared queue, and returns the
/// results in input order.
///
/// # Panics
///
/// Re-raises the first panic of `f`, after the workers stop.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_init(items, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker state: each worker calls `init` once
/// and hands the value to `f` for every item it claims (the inline
/// path of a one-worker run calls it once in all). Which items share a
/// state depends on the claim order, so `f`'s results must not depend
/// on the state it is given.
///
/// # Panics
///
/// Re-raises the first panic of `init` or `f`, after the workers stop.
pub fn par_map_init<T, S, R, I, F>(items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let (queue, init, f) = (&queue, &init, &f);
    let worker = move || {
        WORKERS.with(|w| w.set(Some(1)));
        let mut done = Vec::new();
        let mut state = None;
        loop {
            // The lock is held only while taking the next item, never
            // while running `f`, so a panicking item cannot poison it.
            let next = queue.lock().expect("work queue lock").next();
            let Some((i, item)) = next else { break };
            let run = || f(state.get_or_insert_with(init), item);
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(r) => done.push((i, r)),
                Err(payload) => {
                    // Empty the queue so the other workers stop at their
                    // next claim.
                    queue
                        .lock()
                        .expect("work queue lock")
                        .by_ref()
                        .for_each(drop);
                    resume_unwind(payload);
                }
            }
        }
        done
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item is claimed exactly once"))
        .collect()
}

/// Builds a [`ThreadPool`] (the `rayon::ThreadPoolBuilder` subset).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for the default worker count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; 0 keeps the default
    /// ([`current_num_threads`] outside any pool).
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool. Never fails; the `Result` keeps call sites
    /// source-compatible with rayon.
    ///
    /// # Errors
    ///
    /// None: the error type is uninhabited.
    pub fn build(self) -> Result<ThreadPool, Infallible> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A worker count that parallel iterators inside
/// [`ThreadPool::install`] use. Workers are spawned per parallel
/// iterator, as everywhere in this shim, so the pool itself holds no
/// threads.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread; every parallel iterator it
    /// starts uses this pool's worker count.
    pub fn install<R, OP: FnOnce() -> R>(&self, op: OP) -> R {
        /// Restores the caller's override, also when `op` panics.
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                WORKERS.with(|w| w.set(self.0));
            }
        }
        let threads = self.current_num_threads();
        let _restore = Restore(WORKERS.with(|w| w.replace(Some(threads))));
        op()
    }

    /// The pool's worker count.
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        }
    }
}

/// A materialized parallel iterator.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` in parallel, preserving order.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Applies `f` in parallel with per-worker state made by `init`
    /// (rayon's `map_init`), preserving order.
    pub fn map_init<S, R, I, F>(self, init: I, f: F) -> ParMapInit<T, I, F>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map(self.items, f);
    }

    /// Rayon tuning hint — accepted and ignored.
    #[must_use]
    pub fn with_min_len(self, _min: usize) -> Self {
        self
    }
}

/// A parallel map stage awaiting collection.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Executes the map and collects the ordered results.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map(self.items, self.f).into_iter().collect()
    }

    /// Executes the map and sums the results.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        par_map(self.items, self.f).into_iter().sum()
    }

    /// Executes the map and folds the results with `op`, seeded by
    /// `identity`.
    pub fn reduce<Id, Op>(self, identity: Id, op: Op) -> R
    where
        Id: Fn() -> R,
        Op: Fn(R, R) -> R,
    {
        par_map(self.items, self.f).into_iter().fold(identity(), op)
    }
}

/// A parallel map stage with per-worker state, awaiting collection.
pub struct ParMapInit<T, I, F> {
    items: Vec<T>,
    init: I,
    f: F,
}

impl<T, S, R, I, F> ParMapInit<T, I, F>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    /// Executes the map and collects the ordered results.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map_init(self.items, self.init, self.f)
            .into_iter()
            .collect()
    }
}

/// Conversion into a [`ParIter`].
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;

    /// Materializes the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

macro_rules! impl_into_par_iter_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_into_par_iter_range!(u32, u64, usize, i32, i64);

macro_rules! impl_into_par_iter_range_inclusive {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::RangeInclusive<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_into_par_iter_range_inclusive!(u32, u64, usize, i32, i64);

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPoolBuilder};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::Duration;

    fn thread_names(ids: &[std::thread::ThreadId]) -> HashSet<String> {
        ids.iter().map(|id| format!("{id:?}")).collect()
    }

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * x).collect();
        let expected: Vec<u64> = (0u64..1000).map(|x| x * x).collect();
        assert_eq!(squares, expected);
    }

    #[test]
    fn map_init_preserves_order_and_builds_one_state_per_worker() {
        for threads in [1, 2, 5] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let inits = AtomicUsize::new(0);
            let out: Vec<(u64, usize)> = pool.install(|| {
                (0u64..200)
                    .into_par_iter()
                    .map_init(
                        || inits.fetch_add(1, Ordering::Relaxed),
                        |_, x| {
                            // Long enough that every worker claims work.
                            std::thread::sleep(Duration::from_micros(50));
                            (x * 3, 0)
                        },
                    )
                    .collect()
            });
            assert_eq!(out, (0u64..200).map(|x| (x * 3, 0)).collect::<Vec<_>>());
            let inits = inits.load(Ordering::Relaxed);
            assert!(
                (1..=threads).contains(&inits),
                "{threads} workers, {inits} states"
            );
        }
    }

    #[test]
    fn map_init_state_persists_across_a_workers_items() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let seen: Vec<u64> = pool.install(|| {
            (0u64..5)
                .into_par_iter()
                .map_init(Vec::new, |history: &mut Vec<u64>, x| {
                    history.push(x);
                    history.iter().sum()
                })
                .collect()
        });
        assert_eq!(seen, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn for_each_visits_everything() {
        let sum = AtomicU64::new(0);
        (1u64..=100).into_par_iter().for_each(|x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn sum_and_reduce_agree() {
        let s: u64 = (1u64..=50).into_par_iter().map(|x| x).sum();
        let r: u64 = (1u64..=50)
            .into_par_iter()
            .map(|x| x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(s, 1275);
        assert_eq!(r, 1275);
    }

    #[test]
    fn slice_par_iter_borrows() {
        let v = vec![1u64, 2, 3];
        let doubled: Vec<u64> = v.as_slice().into_par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn actually_uses_multiple_threads_when_available() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let ids: Vec<std::thread::ThreadId> = (0u64..64)
            .into_par_iter()
            .map(|_| {
                std::thread::sleep(Duration::from_millis(1));
                std::thread::current().id()
            })
            .collect();
        assert!(thread_names(&ids).len() > 1, "expected work on >1 thread");
    }

    #[test]
    fn install_sets_the_worker_count() {
        for n in [1, 2, 3, 5] {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            let ids: Vec<std::thread::ThreadId> = pool.install(|| {
                assert_eq!(current_num_threads(), n);
                (0u64..40)
                    .into_par_iter()
                    .map(|_| {
                        std::thread::sleep(Duration::from_millis(2));
                        std::thread::current().id()
                    })
                    .collect()
            });
            let used = thread_names(&ids);
            assert!(used.len() <= n, "{n} workers, {} threads used", used.len());
            if n == 1 {
                assert_eq!(used, thread_names(&[std::thread::current().id()]));
            }
        }
        let default = ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(default.current_num_threads(), current_num_threads());
    }

    #[test]
    fn idle_workers_claim_the_remaining_items() {
        // Item 0 blocks its worker until every other item has run. A
        // pre-split schedule would strand half the items behind it; with
        // claiming, the second worker drains them all.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let others_done = AtomicUsize::new(0);
        let n = 32;
        let out: Vec<usize> = pool.install(|| {
            (0..n)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        while others_done.load(Ordering::SeqCst) < n - 1 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    } else {
                        others_done.fetch_add(1, Ordering::SeqCst);
                    }
                    i * 10
                })
                .collect()
        });
        assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_iterators_run_inline_on_their_worker() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let nested: Vec<bool> = pool.install(|| {
            (0u64..8)
                .into_par_iter()
                .map(|_| {
                    let outer = std::thread::current().id();
                    let inner: Vec<std::thread::ThreadId> = (0u64..8)
                        .into_par_iter()
                        .map(|_| std::thread::current().id())
                        .collect();
                    inner.iter().all(|&id| id == outer)
                })
                .collect()
        });
        assert!(nested.into_iter().all(|inline| inline));
    }

    #[test]
    fn a_panicking_item_reraises_its_own_panic() {
        let before = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            pool.install(|| {
                (0u64..1000)
                    .into_par_iter()
                    .map(|i| {
                        assert_ne!(i, 5, "item five fails");
                        ran.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        i
                    })
                    .collect::<Vec<u64>>()
            })
        });
        let payload = caught.expect_err("the panic propagates");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("item five fails"), "{message}");
        // Items keep running only while the panic hook reports the
        // panic; after that the queue is empty.
        assert!(
            ran.load(Ordering::SeqCst) < 999,
            "the other workers stop claiming after a panic"
        );
        assert_eq!(current_num_threads(), before, "install restores on unwind");
    }
}
