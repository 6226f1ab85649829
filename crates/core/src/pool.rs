//! A shared work-stealing execution layer for the enumeration engines.
//!
//! Both ranked engines spend nearly all of their time in independent
//! constrained re-optimizations: the direct engine fans each Lawler–Murty
//! partition expansion out into `k` constrained `MinTriang` calls, and the
//! factorized engine of `mtr-reduce` advances one ranked stream per atom.
//! [`WorkerPool`] is the execution substrate they share: a *scoped* pool of
//! worker threads, each with its own task deque, stealing from its siblings
//! when its own deque runs dry. Compared to fixed chunking, stealing means a
//! straggler task never idles a whole chunk's worth of workers. A task is
//! any `FnOnce() -> T`; it takes no argument.
//!
//! The pool is scoped ([`scoped`]) so tasks may borrow data that outlives
//! the `scoped` call — typically the [`Preprocessed`](crate::Preprocessed)
//! value and the cost function of a session. Workers are spawned once per
//! scope, not once per batch; because task lifetimes are pinned to the
//! scope's environment, a phase whose tasks borrow phase-local data opens
//! its own scope (the session layer runs one short-lived pool for the
//! preprocessing candidate build and one long-lived pool for the whole
//! enumeration). The submitting thread participates in every batch, so
//! `threads == 1` degrades to plain inline execution with no
//! synchronization at all.
//!
//! ```
//! use mtr_core::pool;
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let sum: u64 = pool::scoped(4, |p| {
//!     let tasks = inputs.iter().map(|&x| move || x * x);
//!     let results = p.run_batch(tasks.collect()).expect("tasks do not panic");
//!     results.into_iter().sum()
//! });
//! assert_eq!(sum, (0..100u64).map(|x| x * x).sum());
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};

/// Pool metric handles, resolved once per process (`mtr-obs` names are
/// interned in a global registry; the hot path only touches atomics).
struct PoolMetrics {
    tasks: mtr_obs::Counter,
    steals: mtr_obs::Counter,
    task_ns: mtr_obs::Histogram,
    queue_depth: mtr_obs::Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        tasks: mtr_obs::counter("core.pool.tasks"),
        steals: mtr_obs::counter("core.pool.steals"),
        task_ns: mtr_obs::histogram("core.pool.task_ns"),
        queue_depth: mtr_obs::gauge("core.pool.queue_depth"),
    })
}

/// Snapshot of a pool's execution counters, taken with
/// [`WorkerPool::stats`]. These feed
/// [`EnumerationStats`](crate::EnumerationStats) so the bench suite can
/// verify that work actually spread across workers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker count of the pool, the submitting thread included.
    pub threads: usize,
    /// Tasks executed per worker; index 0 is the submitting thread.
    pub worker_tasks: Vec<usize>,
    /// Tasks a worker popped from a sibling's deque (work stealing events).
    pub steals: usize,
}

/// A task batch failed instead of completing: some task panicked (the
/// unwind is caught on the worker, so the pool and the process survive)
/// or an armed `pool.task` failpoint injected an error. Surfaced by the
/// session layer as `EnumerationError::WorkerPanicked`, failing one
/// session instead of the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload (or injected-fault message) of the first task
    /// that failed.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a worker pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a caught panic payload (the `Box<dyn Any>` from
/// [`std::panic::catch_unwind`]) as the human-readable message `panic!`
/// was invoked with, falling back for exotic payload types.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => match other.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Runs one task with panic containment and the `pool.task` failpoint:
/// an injected fault (error *or* panic outcome) and a genuine unwind both
/// come back as `Err(TaskPanic)`; neither escapes to the calling thread.
fn run_contained<T>(task: impl FnOnce() -> T) -> Result<T, TaskPanic> {
    // The failpoint runs *inside* the unwind boundary so an injected
    // panic is contained exactly like a real task panic (a worker thread
    // must never unwind — its channel slot would go missing).
    match catch_unwind(AssertUnwindSafe(|| {
        mtr_fault::check("pool.task").map(|()| task())
    })) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(fault)) => Err(TaskPanic {
            message: fault.to_string(),
        }),
        Err(payload) => Err(TaskPanic {
            message: panic_message(payload),
        }),
    }
}

type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

struct PoolState {
    /// Tasks currently sitting in some deque (not yet popped).
    pending: usize,
    shutdown: bool,
}

struct Shared<'env> {
    /// One deque per worker; index 0 belongs to the submitting thread.
    queues: Vec<Mutex<VecDeque<Task<'env>>>>,
    state: Mutex<PoolState>,
    wakeup: Condvar,
    executed: Vec<AtomicUsize>,
    steals: AtomicUsize,
}

impl<'env> Shared<'env> {
    fn new(threads: usize) -> Self {
        Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            state: Mutex::new(PoolState {
                pending: 0,
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            executed: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
            steals: AtomicUsize::new(0),
        }
    }

    /// Pops a task: the worker's own deque first (FIFO), then a steal from
    /// each sibling (LIFO end, so stolen work is the coldest). Returns the
    /// task and the deque index it came from.
    fn pop_any(&self, wi: usize) -> Option<(Task<'env>, usize)> {
        let threads = self.queues.len();
        for k in 0..threads {
            let qi = (wi + k) % threads;
            let task = {
                // Tasks run outside every pool lock (unwinds are caught in
                // the task wrapper), so a poisoned guard only means some
                // *other* thread died mid-section; the deques and counters
                // it protects are updated atomically under the lock and
                // stay internally consistent — recover and continue.
                let mut q = self.queues[qi].lock().unwrap_or_else(|e| e.into_inner());
                if qi == wi {
                    q.pop_front()
                } else {
                    q.pop_back()
                }
            };
            if let Some(task) = task {
                self.state.lock().unwrap_or_else(|e| e.into_inner()).pending -= 1;
                pool_metrics().queue_depth.add(-1);
                return Some((task, qi));
            }
        }
        None
    }

    fn run_task(&self, wi: usize, task: Task<'env>, from: usize) {
        let metrics = pool_metrics();
        self.executed[wi].fetch_add(1, Ordering::Relaxed);
        metrics.tasks.incr();
        if from != wi {
            self.steals.fetch_add(1, Ordering::Relaxed);
            metrics.steals.incr();
        }
        let started = mtr_obs::clock();
        task();
        metrics.task_ns.record_elapsed(started);
    }

    fn shutdown(&self) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.wakeup.notify_all();
    }
}

fn worker_loop(shared: &Shared<'_>, wi: usize) {
    loop {
        if let Some((task, from)) = shared.pop_any(wi) {
            shared.run_task(wi, task, from);
            continue;
        }
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.shutdown {
                return;
            }
            if state.pending > 0 {
                break;
            }
            state = shared.wakeup.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Ends the worker threads even when the scope body panics, so
/// [`std::thread::scope`] can join instead of deadlocking.
struct ShutdownGuard<'a, 'env>(&'a Shared<'env>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A handle to the scoped worker pool — a cheap copyable reference that
/// engines hold for the lifetime of one enumeration session. Obtain one
/// through [`scoped`].
pub struct WorkerPool<'env, 'pool> {
    shared: &'pool Shared<'env>,
}

impl Clone for WorkerPool<'_, '_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for WorkerPool<'_, '_> {}

impl<'env> WorkerPool<'env, '_> {
    /// Number of workers, the submitting thread included.
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }

    /// Snapshot of the execution counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads(),
            worker_tasks: self
                .shared
                .executed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            steals: self.shared.steals.load(Ordering::Relaxed),
        }
    }

    /// Runs a batch of independent tasks to completion and returns their
    /// results in task order.
    ///
    /// Tasks are dealt round-robin onto the per-worker deques; idle workers
    /// steal from the back of their siblings' deques, so an uneven batch
    /// (one expensive re-optimization among many cheap ones) never leaves
    /// workers idle while work remains. The calling thread executes tasks
    /// too — with one thread, or a single task, this is plain inline
    /// execution.
    ///
    /// A panicking task does not take the process (or even the pool) down:
    /// the unwind is caught where the task ran, every other task of the
    /// batch still completes, the workers survive for later batches, and
    /// the whole batch reports [`TaskPanic`] carrying the first panic's
    /// message. The `pool.task` failpoint injects the same failure shape
    /// for chaos tests.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, TaskPanic>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let threads = self.threads();
        if threads == 1 || n == 1 {
            self.shared.executed[0].fetch_add(n, Ordering::Relaxed);
            let metrics = pool_metrics();
            metrics.tasks.add(n as u64);
            let mut out: Vec<T> = Vec::with_capacity(n);
            let mut failed: Option<TaskPanic> = None;
            for t in tasks {
                let started = mtr_obs::clock();
                let result = run_contained(t);
                metrics.task_ns.record_elapsed(started);
                match result {
                    Ok(v) => out.push(v),
                    Err(panic) => {
                        // Finish nothing further: inline batches have no
                        // concurrent siblings to wait for.
                        failed = Some(panic);
                        break;
                    }
                }
            }
            return match failed {
                None => Ok(out),
                Some(panic) => Err(panic),
            };
        }

        let (tx, rx) = mpsc::channel::<(usize, Result<T, TaskPanic>)>();
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            for (i, task) in tasks.into_iter().enumerate() {
                let tx = tx.clone();
                let boxed: Task<'env> = Box::new(move || {
                    let result = run_contained(task);
                    // The batch may have been abandoned; a closed channel is
                    // not this task's problem.
                    let _ = tx.send((i, result));
                });
                self.shared.queues[i % threads]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push_back(boxed);
            }
            state.pending += n;
        }
        pool_metrics().queue_depth.add(n as i64);
        self.shared.wakeup.notify_all();
        drop(tx);

        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut failed: Option<TaskPanic> = None;
        let mut received = 0;
        let take = |slot: &mut Option<T>,
                    outcome: Result<T, TaskPanic>,
                    failed: &mut Option<TaskPanic>| {
            match outcome {
                Ok(v) => *slot = Some(v),
                Err(panic) => {
                    if failed.is_none() {
                        *failed = Some(panic);
                    }
                }
            }
        };
        while received < n {
            // Help with the batch from our own deque (and steal) before
            // blocking on results produced by the workers.
            if let Some((task, from)) = self.shared.pop_any(0) {
                self.shared.run_task(0, task, from);
                while let Ok((i, outcome)) = rx.try_recv() {
                    take(&mut results[i], outcome, &mut failed);
                    received += 1;
                }
            } else {
                match rx.recv() {
                    Ok((i, outcome)) => {
                        take(&mut results[i], outcome, &mut failed);
                        received += 1;
                    }
                    // All senders gone with results missing: every unwind is
                    // caught task-side, so this is unreachable in practice —
                    // but a lost slot must fail the batch, never hang it.
                    Err(_) => {
                        if failed.is_none() {
                            failed = Some(TaskPanic {
                                message: "a batch result went missing".to_string(),
                            });
                        }
                        break;
                    }
                }
            }
        }
        if let Some(panic) = failed {
            return Err(panic);
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every batch slot is filled once received == n"))
            .collect())
    }
}

/// Resolves a requested thread count to an effective one: `0` means
/// auto-detect via [`std::thread::available_parallelism`], anything else is
/// taken as-is (minimum 1).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Spawns `threads - 1` worker threads (the caller is the last worker) and
/// runs `f` with a [`WorkerPool`] handle; returns when `f` and all workers
/// are done. With `threads <= 1` no thread is spawned and every batch runs
/// inline on the caller.
///
/// Tasks submitted through the handle may borrow anything that outlives
/// this call (the `'env` lifetime) — a session's preprocessing, graph, and
/// cost function — or move owned data in and out.
pub fn scoped<'env, F, R>(threads: usize, f: F) -> R
where
    F: for<'pool> FnOnce(WorkerPool<'env, 'pool>) -> R,
{
    let threads = threads.max(1);
    let shared: Shared<'env> = Shared::new(threads);
    if threads == 1 {
        return f(WorkerPool { shared: &shared });
    }
    std::thread::scope(|scope| {
        let guard = ShutdownGuard(&shared);
        for wi in 1..threads {
            let shared = &shared;
            scope.spawn(move || worker_loop(shared, wi));
        }
        let result = f(WorkerPool { shared: &shared });
        drop(guard);
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_results_come_back_in_task_order() {
        for threads in [1, 2, 4] {
            let doubled: Vec<usize> = scoped(threads, |p| {
                let tasks: Vec<_> = (0..64).map(|i| move || i * 2).collect();
                p.run_batch(tasks).expect("no task panics")
            });
            assert_eq!(doubled, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tasks_can_borrow_the_environment() {
        let data: Vec<u64> = (0..100).collect();
        let total: u64 = scoped(3, |p| {
            let tasks: Vec<_> = data
                .chunks(7)
                .map(|chunk| move || chunk.iter().sum::<u64>())
                .collect();
            p.run_batch(tasks)
                .expect("no task panics")
                .into_iter()
                .sum()
        });
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn multiple_batches_reuse_the_same_workers() {
        scoped(4, |p| {
            for round in 0..10usize {
                let tasks: Vec<_> = (0..16).map(|i| move || round * 100 + i).collect();
                let out = p.run_batch(tasks).expect("no task panics");
                assert_eq!(out.len(), 16);
                assert_eq!(out[3], round * 100 + 3);
            }
            let stats = p.stats();
            assert_eq!(stats.threads, 4);
            assert_eq!(stats.worker_tasks.iter().sum::<usize>(), 160);
        });
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let out: Vec<u8> = scoped(2, |p| {
            p.run_batch(Vec::<fn() -> u8>::new())
                .expect("empty batch cannot fail")
        });
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_runs_inline_and_counts_tasks() {
        scoped(1, |p| {
            let tasks: Vec<_> = (0..5).map(|i| move || i).collect();
            assert_eq!(
                p.run_batch(tasks).expect("no task panics"),
                vec![0, 1, 2, 3, 4]
            );
            let stats = p.stats();
            assert_eq!(stats.threads, 1);
            assert_eq!(stats.worker_tasks, vec![5]);
            assert_eq!(stats.steals, 0);
        });
    }

    #[test]
    fn stats_account_for_every_task() {
        let stats = scoped(4, |p| {
            let tasks: Vec<_> = (0..200)
                .map(|i| {
                    move || {
                        // Uneven work so stealing has something to balance.
                        let spins = if i % 16 == 0 { 20_000 } else { 10 };
                        (0..spins).fold(0u64, |acc, x| acc.wrapping_add(x))
                    }
                })
                .collect();
            p.run_batch(tasks).expect("no task panics");
            p.stats()
        });
        assert_eq!(stats.worker_tasks.len(), 4);
        assert_eq!(stats.worker_tasks.iter().sum::<usize>(), 200);
    }

    #[test]
    fn panicking_task_fails_the_batch_and_spares_the_pool() {
        type BoxedTask = Box<dyn FnOnce() -> usize + Send>;
        for threads in [1, 2, 4] {
            let err = scoped(threads, |p| {
                let tasks: Vec<BoxedTask> = (0..8usize)
                    .map(|i| {
                        Box::new(move || {
                            if i == 3 {
                                panic!("task {i} exploded");
                            }
                            i
                        }) as BoxedTask
                    })
                    .collect();
                let err = p.run_batch(tasks).expect_err("batch must fail");
                // The workers caught the unwind: the same pool still
                // serves later batches.
                let again = p
                    .run_batch((0..4).map(|i| move || i).collect::<Vec<_>>())
                    .expect("pool survives a panicked batch");
                assert_eq!(again, vec![0, 1, 2, 3]);
                err
            });
            assert!(
                err.message.contains("task 3 exploded"),
                "threads = {threads}: unexpected message {:?}",
                err.message
            );
            assert!(err.to_string().contains("worker pool task panicked"));
        }
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let s = catch_unwind(|| panic!("plain {}", "formatted")).unwrap_err();
        assert_eq!(panic_message(s), "plain formatted");
        let s = catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(s), "non-string panic payload");
    }

    #[test]
    fn resolve_threads_auto_detects_zero() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn moves_owned_state_in_and_out() {
        // The pattern the factorized engine uses: move a stateful value into
        // the task, return it with its result.
        let streams: Vec<Vec<u32>> = (0..8).map(|i| vec![i]).collect();
        let advanced: Vec<Vec<u32>> = scoped(3, |p| {
            let tasks: Vec<_> = streams
                .into_iter()
                .map(|mut s| {
                    move || {
                        let next = s.last().unwrap() + 10;
                        s.push(next);
                        s
                    }
                })
                .collect();
            p.run_batch(tasks).expect("no task panics")
        });
        for (i, s) in advanced.iter().enumerate() {
            assert_eq!(s, &vec![i as u32, i as u32 + 10]);
        }
    }
}
