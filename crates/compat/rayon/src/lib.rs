//! Offline compatibility shim for the subset of the `rayon` API the
//! `congest` round engine and the `expander` recursion scheduler use.
//!
//! The build environment has no access to crates.io, so this in-tree crate
//! stands in for the real `rayon`. It implements *indexed* parallel
//! iterators over slices — `par_iter` / `par_iter_mut`, plus the `zip`,
//! `enumerate` and `for_each` combinators — by splitting the index space
//! into contiguous chunks and driving each chunk on a scoped OS thread
//! (`std::thread::scope`). That is exactly the execution shape rayon's
//! work-stealing pool converges to for uniform per-item work, which is the
//! engine's profile (every vertex does O(deg) work per round).
//!
//! It also provides [`scope`]/[`Scope::spawn`] for *coarse-grained* tasks
//! (the recursion scheduler spawns a handful of worker tasks per level,
//! each pulling jobs from a shared queue). Two honest deviations from
//! rayon: the tasks run on the caller's thread plus freshly spawned
//! scoped OS threads instead of pooled workers (fine at task counts
//! ≲ dozens, which is the only way the workspace uses it — [`scope`] caps
//! concurrency at [`MAX_SCOPED_TASKS`] and queues the rest), and the task
//! closure takes no `&Scope` argument
//! (swap in real rayon by writing `|_| …`; nested spawn is unused here).
//!
//! Thread count: `RAYON_NUM_THREADS` if set, else
//! `std::thread::available_parallelism()`. With one thread the drivers run
//! inline on the caller's thread — zero spawn overhead — which keeps the
//! parallel engine within noise of the sequential engine on single-core
//! hosts.
//!
//! Swap the `rayon` entry in the root `[workspace.dependencies]` for the
//! real crate to drop this shim; no client code changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// Number of worker threads the shim will use for `for_each`.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// An indexed parallel iterator: a splittable, exactly-sized sequence.
///
/// Mirrors the shape of rayon's `IndexedParallelIterator`: combinators
/// carry slices (or other combinators) and only the terminal `for_each`
/// runs anything, after recursively splitting the index space across
/// threads.
pub trait IndexedParallelIterator: Sized + Send {
    /// Item handed to the consumer closure.
    type Item: Send;
    /// Sequential iterator driving one contiguous chunk.
    type Seq: Iterator<Item = Self::Item>;

    /// Exact number of items.
    fn len(&self) -> usize;

    /// Whether the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);

    /// The sequential driver for this (chunk of the) iterator.
    fn into_seq(self) -> Self::Seq;

    /// Pairs this sequence with another, item by item.
    ///
    /// Lengths must match (the engine always zips same-length vertex
    /// arrays); this is checked and panics on mismatch, like rayon's
    /// `zip_eq`.
    fn zip<B: IndexedParallelIterator>(self, other: B) -> Zip<Self, B> {
        assert_eq!(self.len(), other.len(), "zip: length mismatch");
        Zip { a: self, b: other }
    }

    /// Attaches the item index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            inner: self,
            base: 0,
        }
    }

    /// Consumes the sequence, invoking `f` on every item, in parallel
    /// across contiguous chunks.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let threads = current_num_threads();
        let len = self.len();
        if threads <= 1 || len <= 1 {
            self.into_seq().for_each(&f);
            return;
        }
        // Contiguous chunking; the last chunk absorbs the remainder.
        let chunk = len.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut rest = self;
            let mut remaining = len;
            let fref = &f;
            while remaining > chunk {
                let (head, tail) = rest.split_at(chunk);
                rest = tail;
                remaining -= chunk;
                scope.spawn(move || head.into_seq().for_each(fref));
            }
            // Drive the final chunk on the calling thread.
            rest.into_seq().for_each(fref);
        });
    }
}

/// Hard cap on concurrently running scoped tasks: a [`scope`] never holds
/// more OS threads than this; excess tasks queue behind the running ones.
pub const MAX_SCOPED_TASKS: usize = 64;

/// A fork-join task scope created by [`scope`]. Tasks spawned into it are
/// guaranteed to have completed by the time [`scope`] returns.
pub struct Scope<'env> {
    tasks: RefCell<Vec<Box<dyn FnOnce() + Send + 'env>>>,
}

impl<'env> Scope<'env> {
    /// Registers `body` to run on this scope. Unlike real rayon the body
    /// takes no `&Scope` argument (nested spawn is unused in this
    /// workspace) and execution is deferred until the [`scope`] closure
    /// returns — equivalent for independent tasks, which is the only
    /// shape the workspace spawns.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.tasks.borrow_mut().push(Box::new(body));
    }
}

/// Creates a task scope: `f` spawns tasks via [`Scope::spawn`]; all of
/// them have run to completion when `scope` returns.
///
/// At most [`MAX_SCOPED_TASKS`] workers drain a shared task queue: the
/// caller's thread is one of them, and each of the others is a scoped OS
/// thread, so a single task runs inline with zero spawn overhead and `t`
/// tasks spawn `t − 1` threads. Excess tasks are pulled from the queue as
/// workers free up. A panicking task is propagated once every worker has
/// stopped.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let s = Scope {
        tasks: RefCell::new(Vec::new()),
    };
    let result = f(&s);
    let tasks = s.tasks.into_inner();
    let workers = tasks.len().min(MAX_SCOPED_TASKS);
    let queue: Mutex<VecDeque<Box<dyn FnOnce() + Send + 'env>>> = Mutex::new(tasks.into());
    let drain = || loop {
        let task = queue.lock().expect("scope queue poisoned").pop_front();
        match task {
            Some(t) => t(),
            None => break,
        }
    };
    std::thread::scope(|ts| {
        for _ in 1..workers {
            ts.spawn(drain);
        }
        drain();
    });
    result
}

/// Parallel iterator over `&mut [T]`. See [`prelude::ParallelSliceMut`].
pub struct ParIterMut<'a, T: Send> {
    slice: &'a mut [T],
}

impl<'a, T: Send> IndexedParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (ParIterMut { slice: a }, ParIterMut { slice: b })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

/// Parallel iterator over `&[T]`. See [`prelude::ParallelSlice`].
pub struct ParIter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (ParIter { slice: a }, ParIter { slice: b })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

/// Item-wise pairing of two indexed parallel iterators.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> IndexedParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(index);
        let (b1, b2) = self.b.split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// Index-attaching combinator; the base offset survives splitting.
pub struct Enumerate<A> {
    inner: A,
    base: usize,
}

impl<A: IndexedParallelIterator> IndexedParallelIterator for Enumerate<A> {
    type Item = (usize, A::Item);
    type Seq = EnumerateSeq<A::Seq>;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.inner.split_at(index);
        (
            Enumerate {
                inner: a,
                base: self.base,
            },
            Enumerate {
                inner: b,
                base: self.base + index,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        EnumerateSeq {
            inner: self.inner.into_seq(),
            next: self.base,
        }
    }
}

/// Sequential driver of [`Enumerate`]: `std::iter::Enumerate` with a
/// non-zero starting index (and no per-item indirection).
pub struct EnumerateSeq<I> {
    inner: I,
    next: usize,
}

impl<I: Iterator> Iterator for EnumerateSeq<I> {
    type Item = (usize, I::Item);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let x = self.inner.next()?;
        let i = self.next;
        self.next += 1;
        Some((i, x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Entry-point traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::IndexedParallelIterator;
    use super::{ParIter, ParIterMut};

    /// Adds `par_iter_mut` to mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        /// Parallel iterator over mutable references.
        fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
            ParIterMut { slice: self }
        }
    }

    /// Adds `par_iter` to shared slices.
    pub trait ParallelSlice<T: Sync> {
        /// Parallel iterator over shared references.
        fn par_iter(&self) -> ParIter<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> ParIter<'_, T> {
            ParIter { slice: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn for_each_visits_every_item_once() {
        let mut v = vec![0u64; 10_000];
        v.par_iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = i as u64);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn zip_pairs_matching_indices() {
        let mut a = vec![0usize; 5000];
        let mut b: Vec<usize> = (0..5000).collect();
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .enumerate()
            .for_each(|(i, (x, y))| {
                assert_eq!(*y, i);
                *x = *y * 2;
            });
        assert!(a.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn zip_rejects_mismatched_lengths() {
        let mut a = [0u8; 3];
        let mut b = [0u8; 4];
        a.par_iter_mut().zip(b.par_iter_mut()).for_each(|_| {});
    }

    #[test]
    fn empty_and_single_item_sequences() {
        let mut v: Vec<u8> = Vec::new();
        v.par_iter_mut().for_each(|_| unreachable!());
        let mut one = [7u8];
        one.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(one[0], 8);
    }

    #[test]
    fn scope_runs_every_task_before_returning() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        super::scope(|s| {
            for _ in 0..10 {
                s.spawn(|| {
                    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.into_inner(), 10);
    }

    #[test]
    fn scope_tasks_run_concurrently() {
        // Two tasks rendezvous through a barrier: only possible if they
        // run on distinct threads at the same time.
        let barrier = std::sync::Barrier::new(2);
        let met = std::sync::atomic::AtomicBool::new(false);
        super::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    barrier.wait();
                    met.store(true, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        assert!(met.into_inner());
    }

    #[test]
    fn scope_returns_closure_value_and_handles_empty_and_single() {
        assert_eq!(super::scope(|_| 7), 7);
        // A single task runs inline on the caller's thread.
        let caller = std::thread::current().id();
        let mut ran_on = None;
        super::scope(|s| {
            s.spawn(|| ran_on = Some(std::thread::current().id()));
        });
        assert_eq!(ran_on, Some(caller));
    }

    #[test]
    fn scope_runs_one_of_two_tasks_on_the_caller() {
        // The barrier keeps either worker from draining both tasks, so
        // the two tasks must land on the two workers.
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let ran_on = std::sync::Mutex::new(Vec::new());
        super::scope(|s| {
            for task in 0..2 {
                let (barrier, ran_on) = (&barrier, &ran_on);
                s.spawn(move || {
                    barrier.wait();
                    let me = std::thread::current().id();
                    ran_on.lock().unwrap().push((task, me));
                });
            }
        });
        let mut ran_on = ran_on.into_inner().unwrap();
        ran_on.sort_by_key(|&(task, _)| task);
        let tasks: Vec<usize> = ran_on.iter().map(|&(task, _)| task).collect();
        assert_eq!(tasks, [0, 1], "every task runs exactly once");
        let on_caller = ran_on.iter().filter(|&&(_, id)| id == caller).count();
        assert_eq!(on_caller, 1, "one task runs on the caller's thread");
    }

    #[test]
    fn scope_propagates_a_task_panic() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            super::scope(|s| {
                s.spawn(|| panic!("task failed"));
                for _ in 0..3 {
                    s.spawn(|| {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(outcome.is_err());
        assert_eq!(counter.into_inner(), 3, "the other tasks still ran");
    }

    #[test]
    fn scope_survives_more_tasks_than_cap() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let tasks = super::MAX_SCOPED_TASKS + 9;
        super::scope(|s| {
            for _ in 0..tasks {
                s.spawn(|| {
                    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.into_inner(), tasks);
    }

    #[test]
    fn shared_par_iter_reads() {
        let v: Vec<usize> = (0..1000).collect();
        let sum = std::sync::atomic::AtomicUsize::new(0);
        v.par_iter().for_each(|&x| {
            sum.fetch_add(x, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 999 * 1000 / 2);
    }
}
