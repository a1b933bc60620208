//! The cluster-recursion scheduler: deterministic fan-out of independent
//! per-cluster jobs over rayon-scoped worker tasks.
//!
//! The decomposition recurses independently on each cluster and on the
//! inter-cluster remainder, so each recursion level presents a list of
//! *pure* jobs (one per non-trivial cluster). [`run_jobs`] executes such a
//! list with work stealing — worker tasks pull the next job from a shared
//! queue, so a level dominated by one giant cluster cannot idle the other
//! workers behind a static split — while keeping the output *bit-for-bit
//! identical* to the sequential loop:
//!
//! 1. **Pure jobs.** The job closure gets `(index, job)` and shared
//!    read-only context only; all mutation happens in the returned value.
//! 2. **Index-ordered merge.** Results are reassembled by job index, so
//!    the caller folds them in exactly the order the sequential loop
//!    would have produced.
//! 3. **Logical seeds.** Any randomness inside a job must be seeded with
//!    [`derive_seed`]`(parent_seed, index)` — a function of the job's
//!    logical position, never of the executing worker or of time.
//!
//! `parallel_nibble` uses [`run_jobs`] the same way for its `k`
//! instances: the jobs draw nothing, because every `(start, b)` is drawn
//! from the caller's rng in index order before the fan-out.
//!
//! [`ScratchPool`] recycles per-job scratch arenas across jobs and across
//! recursion levels instead of reallocating them. The arenas hold
//! *snapshots read through the level's `graph::WorkingGraph` overlay*
//! (adjacency buffers filled from live slots) — never a cloned `Graph`,
//! so arena refill cost tracks the cluster's live volume, not the level's
//! total edge count. And
//! [`RecursionReport`]/[`LevelExecution`] record what the scheduler did:
//! per-level job counts, steal and imbalance statistics, and wall-clock
//! per phase — the operational counterpart to the round-complexity
//! ledgers ([`crate::rounds::RoundLedger`], `congest::PhaseLedger`).

pub use graph::seed::derive_seed;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How [`run_jobs`] executes a job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerPolicy {
    /// Whether sibling jobs may run on worker tasks concurrently. With
    /// `false`, jobs run inline on the caller's thread in index order.
    pub parallel: bool,
    /// Worker-task cap. `0` means one worker per available thread
    /// (`rayon::current_num_threads()`); the effective count is always
    /// additionally capped by the job count and
    /// [`rayon::MAX_SCOPED_TASKS`].
    pub workers: usize,
}

impl SchedulerPolicy {
    /// Inline, single-threaded execution.
    pub fn sequential() -> Self {
        SchedulerPolicy {
            parallel: false,
            workers: 1,
        }
    }

    /// Parallel execution with one worker per available thread.
    pub fn parallel() -> Self {
        SchedulerPolicy {
            parallel: true,
            workers: 0,
        }
    }

    /// Parallel execution with an explicit worker cap (`0` = auto).
    pub fn with_workers(workers: usize) -> Self {
        SchedulerPolicy {
            parallel: true,
            workers,
        }
    }

    /// The worker count a batch of `jobs` jobs would actually get.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        if !self.parallel || jobs <= 1 {
            return 1;
        }
        let cap = if self.workers == 0 {
            rayon::current_num_threads()
        } else {
            self.workers
        };
        cap.clamp(1, rayon::MAX_SCOPED_TASKS).min(jobs)
    }
}

impl Default for SchedulerPolicy {
    /// Defaults to [`SchedulerPolicy::parallel`].
    fn default() -> Self {
        SchedulerPolicy::parallel()
    }
}

/// What one [`run_jobs`] batch did, for the [`RecursionReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Number of jobs in the batch.
    pub jobs: usize,
    /// Worker tasks the batch ran on (1 = inline sequential).
    pub workers: usize,
    /// Jobs executed by each worker (length = `workers`).
    pub per_worker: Vec<usize>,
    /// Jobs that ran on a different worker than the one a static
    /// contiguous split would have assigned them to — the scheduler's
    /// measure of how much dynamic pulling actually rebalanced the level.
    pub steals: usize,
    /// Wall-clock of the whole batch (spawn to last result).
    pub wall: Duration,
}

impl JobStats {
    /// Max-over-mean job count across workers (1.0 = perfectly even;
    /// meaningful only when `workers > 1`).
    pub fn imbalance(&self) -> f64 {
        if self.per_worker.is_empty() || self.jobs == 0 {
            return 1.0;
        }
        let max = *self.per_worker.iter().max().expect("non-empty") as f64;
        let mean = self.jobs as f64 / self.per_worker.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Executes `jobs` under `policy` and returns the results **in job-index
/// order** plus the batch statistics.
///
/// `run` must be pure per `(index, job)` (its only channel back is the
/// return value) and must derive any internal randomness from the job
/// index via [`derive_seed`]; under those two conditions the returned
/// vector is identical for every policy — the property
/// `tests/scheduler_equivalence.rs` enforces end to end.
///
/// # Panics
///
/// Panics if a worker task panics (the panic is propagated).
pub fn run_jobs<J, R, F>(jobs: Vec<J>, policy: &SchedulerPolicy, run: F) -> (Vec<R>, JobStats)
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    let start = Instant::now();
    let total = jobs.len();
    let workers = policy.effective_workers(total);
    if workers <= 1 {
        let results: Vec<R> = jobs
            .into_iter()
            .enumerate()
            .map(|(idx, job)| run(idx, job))
            .collect();
        return (
            results,
            JobStats {
                jobs: total,
                workers: 1,
                per_worker: vec![total],
                steals: 0,
                wall: start.elapsed(),
            },
        );
    }

    // Shared pull queue: the next undone job, in index order. Workers that
    // finish early keep pulling — that is the whole work-stealing story
    // for a flat job list (stealing from the one shared deque).
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let sink: Mutex<Vec<(usize, usize, R)>> = Mutex::new(Vec::with_capacity(total));
    rayon::scope(|s| {
        let queue = &queue;
        let sink = &sink;
        let run = &run;
        for w in 0..workers {
            s.spawn(move || {
                let mut local: Vec<(usize, usize, R)> = Vec::new();
                loop {
                    let next = queue.lock().expect("job queue poisoned").next();
                    match next {
                        Some((idx, job)) => local.push((idx, w, run(idx, job))),
                        None => break,
                    }
                }
                sink.lock().expect("result sink poisoned").extend(local);
            });
        }
    });

    let mut tagged = sink.into_inner().expect("result sink poisoned");
    debug_assert_eq!(tagged.len(), total, "every job must produce a result");
    tagged.sort_unstable_by_key(|&(idx, _, _)| idx);

    let mut per_worker = vec![0usize; workers];
    let mut steals = 0usize;
    let mut results = Vec::with_capacity(total);
    for (idx, w, r) in tagged {
        per_worker[w] += 1;
        // Static owner under a contiguous even split of the index space.
        if (idx * workers) / total != w {
            steals += 1;
        }
        results.push(r);
    }
    (
        results,
        JobStats {
            jobs: total,
            workers,
            per_worker,
            steals,
            wall: start.elapsed(),
        },
    )
}

/// A lock-protected pool of reusable scratch values: recursion levels
/// acquire a scratch arena per job and return it on drop, so steady-state
/// execution allocates `O(workers)` arenas total instead of one per job.
///
/// The pool hands values back **dirty** — a job must reset the fields it
/// uses (cheap `clear()`s that keep capacity) before reading them.
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    pool: Mutex<Vec<T>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool {
            pool: Mutex::new(Vec::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Takes a scratch value (recycled if available, `T::default()`
    /// otherwise). The guard returns it to the pool on drop.
    pub fn acquire(&self) -> Scratch<'_, T> {
        Scratch {
            pool: self,
            value: Some(self.take()),
        }
    }

    /// Takes a scratch value **out** of the pool (recycled if available,
    /// `T::default()` otherwise) without a guard — for values whose
    /// lifetime crosses the job boundary (e.g. per-job output buffers the
    /// caller merges later). Pair with [`ScratchPool::put`].
    pub fn take(&self) -> T {
        match self.pool.lock().expect("scratch pool poisoned").pop() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                T::default()
            }
        }
    }

    /// Returns a value previously obtained with [`ScratchPool::take`]
    /// (or any compatible value) to the pool for reuse.
    pub fn put(&self, value: T) {
        self.pool.lock().expect("scratch pool poisoned").push(value);
    }

    /// Acquisitions served from the pool (reuses).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquisitions that had to allocate a fresh value.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// RAII guard for a [`ScratchPool`] value. Derefs to `T`; returns the
/// value to the pool on drop.
#[derive(Debug)]
pub struct Scratch<'a, T: Default> {
    pool: &'a ScratchPool<T>,
    value: Option<T>,
}

impl<T: Default> Deref for Scratch<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value.as_ref().expect("present until drop")
    }
}

impl<T: Default> DerefMut for Scratch<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("present until drop")
    }
}

impl<T: Default> Drop for Scratch<'_, T> {
    fn drop(&mut self) {
        if let Some(v) = self.value.take() {
            self.pool
                .pool
                .lock()
                .expect("scratch pool poisoned")
                .push(v);
        }
    }
}

/// Per-level execution record of a scheduled recursion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelExecution {
    /// Recursion depth of the level (0 = the input graph).
    pub depth: usize,
    /// Cluster jobs scheduled at this level.
    pub jobs: usize,
    /// Worker tasks the level's batch ran on.
    pub workers: usize,
    /// Jobs that ran away from their static owner (see
    /// [`JobStats::steals`]).
    pub steals: usize,
    /// Heaviest worker's job count.
    pub max_jobs_per_worker: usize,
    /// Lightest worker's job count.
    pub min_jobs_per_worker: usize,
    /// Wall-clock of the level's decomposition phase.
    pub wall_decompose: Duration,
    /// Wall-clock of the cluster batch (routing + enumeration jobs).
    pub wall_clusters: Duration,
    /// Wall-clock of the index-ordered merge.
    pub wall_merge: Duration,
}

impl LevelExecution {
    /// Builds the record from a batch's [`JobStats`] (the wall fields for
    /// the other phases start at zero and are filled by the caller).
    pub fn from_stats(depth: usize, stats: &JobStats) -> Self {
        LevelExecution {
            depth,
            jobs: stats.jobs,
            workers: stats.workers,
            steals: stats.steals,
            max_jobs_per_worker: stats.per_worker.iter().copied().max().unwrap_or(0),
            min_jobs_per_worker: stats.per_worker.iter().copied().min().unwrap_or(0),
            wall_decompose: Duration::ZERO,
            wall_clusters: stats.wall,
            wall_merge: Duration::ZERO,
        }
    }

    /// Total wall-clock across the level's phases.
    pub fn wall(&self) -> Duration {
        self.wall_decompose + self.wall_clusters + self.wall_merge
    }
}

/// What the recursion scheduler did across a whole run: one
/// [`LevelExecution`] per recursion level plus the scratch-arena reuse
/// counters. Carried by the triangle pipeline's report next to the
/// round-complexity ledgers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecursionReport {
    /// Per-level records, in recursion order.
    pub levels: Vec<LevelExecution>,
    /// Scratch acquisitions served by reuse.
    pub scratch_hits: usize,
    /// Scratch acquisitions that allocated.
    pub scratch_misses: usize,
}

impl RecursionReport {
    /// Total jobs across all levels.
    pub fn total_jobs(&self) -> usize {
        self.levels.iter().map(|l| l.jobs).sum()
    }

    /// Total steals across all levels.
    pub fn total_steals(&self) -> usize {
        self.levels.iter().map(|l| l.steals).sum()
    }

    /// Total wall-clock across all levels and phases.
    pub fn total_wall(&self) -> Duration {
        self.levels.iter().map(LevelExecution::wall).sum()
    }

    /// Worst per-level max/mean job imbalance (1.0 when nothing ran on
    /// more than one worker).
    pub fn max_imbalance(&self) -> f64 {
        self.levels
            .iter()
            .filter(|l| l.workers > 1 && l.jobs > 0)
            .map(|l| l.max_jobs_per_worker as f64 * l.workers as f64 / l.jobs as f64)
            .fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_jobs(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn parallel_results_match_sequential_in_order() {
        let jobs = square_jobs(37);
        let (seq, seq_stats) = run_jobs(jobs.clone(), &SchedulerPolicy::sequential(), |i, j| {
            (i, j * j, derive_seed(9, i as u64))
        });
        let (par, par_stats) = run_jobs(jobs, &SchedulerPolicy::with_workers(4), |i, j| {
            (i, j * j, derive_seed(9, i as u64))
        });
        assert_eq!(seq, par);
        assert_eq!(seq_stats.workers, 1);
        assert_eq!(seq_stats.steals, 0);
        assert_eq!(par_stats.jobs, 37);
        assert_eq!(par_stats.workers, 4);
        assert_eq!(par_stats.per_worker.iter().sum::<usize>(), 37);
    }

    #[test]
    fn uneven_jobs_still_merge_in_index_order() {
        // Job i sleeps inversely to its index, so late indices finish
        // first under parallel execution; the merge must still be 0..n.
        let (results, _) = run_jobs(
            square_jobs(16),
            &SchedulerPolicy::with_workers(4),
            |i, _| {
                std::thread::sleep(Duration::from_micros(((16 - i) * 50) as u64));
                i
            },
        );
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_batches() {
        let (r, stats) = run_jobs(Vec::<u8>::new(), &SchedulerPolicy::parallel(), |_, j| j);
        assert!(r.is_empty());
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.workers, 1);
        let (r, stats) = run_jobs(vec![5u8], &SchedulerPolicy::with_workers(8), |_, j| j * 2);
        assert_eq!(r, vec![10]);
        assert_eq!(stats.workers, 1, "single job runs inline");
    }

    #[test]
    fn effective_workers_respects_caps() {
        assert_eq!(SchedulerPolicy::sequential().effective_workers(100), 1);
        assert_eq!(SchedulerPolicy::with_workers(4).effective_workers(2), 2);
        assert_eq!(SchedulerPolicy::with_workers(4).effective_workers(100), 4);
        assert!(
            SchedulerPolicy::with_workers(10_000).effective_workers(100_000)
                <= rayon::MAX_SCOPED_TASKS
        );
    }

    #[test]
    fn imbalance_and_steals_are_consistent() {
        let (_, stats) = run_jobs(square_jobs(64), &SchedulerPolicy::with_workers(4), |i, _| i);
        assert!(stats.imbalance() >= 1.0);
        assert!(stats.steals <= stats.jobs);
        let report = RecursionReport {
            levels: vec![LevelExecution::from_stats(0, &stats)],
            scratch_hits: 3,
            scratch_misses: 1,
        };
        assert_eq!(report.total_jobs(), 64);
        assert!(report.max_imbalance() >= 1.0);
        assert_eq!(report.total_steals(), stats.steals);
    }

    #[test]
    fn scratch_pool_recycles() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        {
            let mut a = pool.acquire();
            a.extend([1, 2, 3]);
        } // returned dirty
        assert_eq!(pool.misses(), 1);
        {
            let b = pool.acquire();
            assert_eq!(&*b, &[1, 2, 3], "pool hands values back dirty");
        }
        assert_eq!(pool.hits(), 1);
        // Concurrent jobs each get an exclusive value.
        let (results, _) = run_jobs(square_jobs(8), &SchedulerPolicy::with_workers(4), |i, _| {
            let mut s = pool.acquire();
            s.clear();
            s.push(i as u32);
            s[0]
        });
        assert_eq!(results, (0..8u32).collect::<Vec<_>>());
        assert!(pool.hits() + pool.misses() >= 9);
    }

    #[test]
    fn seed_derivation_is_reexported() {
        assert_eq!(derive_seed(1, 2), graph::seed::derive_seed(1, 2));
    }
}
