//! A persistent, lazily-initialized worker pool.
//!
//! Spawning fresh OS threads on every call is acceptable for a one-off
//! benchmark and fatal on a hot path that runs an edge phase per
//! iteration. This pool is created once (on the first
//! batch that actually needs parallelism), parks its workers on a condition
//! variable between batches, and is shared by every engine entry point in
//! the process. [`pool_initializations`] exposes the creation count so tests
//! can assert the pool really is reused.
//!
//! The pool deliberately has no concept of task priorities, cancellation, or
//! futures: the only operation is [`ThreadPool::run`] — execute `tasks`
//! closures `f(0..tasks)` and block until all finished. Blocking until batch
//! completion is what makes the lifetime erasure below sound: borrowed data
//! captured by `f` cannot be freed while any worker can still touch it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// How many workers the global pool starts (the host's available
/// parallelism, at least one).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Number of times the global pool has been constructed. `OnceLock`
/// guarantees this is 0 (never needed) or 1 for the process lifetime; the
/// engine's tests assert it stays at 1 across repeated engine calls.
pub fn pool_initializations() -> usize {
    POOL_INITIALIZATIONS.load(Ordering::SeqCst)
}

/// The process-wide pool, created on first use.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        POOL_INITIALIZATIONS.fetch_add(1, Ordering::SeqCst);
        let pool = ThreadPool::new(default_workers());
        let registry = invector_obs::Registry::global();
        registry.register_collector(
            "invector_exec_pool_initializations_total",
            "times the global worker pool has been constructed (0 or 1)",
            || pool_initializations() as u64,
        );
        registry
            .gauge("invector_exec_pool_workers", "worker threads in the global pool")
            .set(pool.workers() as f64);
        pool
    })
}

/// Pool-level counters on the global registry, registered on first use.
struct PoolMetrics {
    batches: invector_obs::Counter,
    jobs: invector_obs::Counter,
    inline_batches: invector_obs::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = invector_obs::Registry::global();
        PoolMetrics {
            batches: registry
                .counter("invector_exec_pool_batches_total", "batches enqueued on the worker pool"),
            jobs: registry
                .counter("invector_exec_pool_jobs_total", "jobs pushed to the worker pool queue"),
            inline_batches: registry.counter(
                "invector_exec_pool_inline_batches_total",
                "batches run inline (single task or nested call from a worker)",
            ),
        }
    })
}

static POOL_INITIALIZATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while a pool worker executes a task, so nested [`ThreadPool::run`]
    /// calls degrade to inline execution instead of risking a deadlock where
    /// every worker waits for a batch no one is left to run.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One enqueued task: its batch plus the task index within the batch.
struct Job {
    batch: Arc<Batch>,
    index: usize,
}

/// Shared state of one `run` call. The `'static` on `task` is a lie told
/// via `transmute` in [`ThreadPool::run`]; it is sound because `run` does
/// not return until `remaining == 0`, i.e. until no worker can call the
/// closure again.
struct Batch {
    task: &'static (dyn Fn(usize) + Sync),
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// A fixed set of parked worker threads executing batches of indexed tasks.
pub struct ThreadPool {
    queue: Arc<PoolQueue>,
    workers: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("workers", &self.workers).finish()
    }
}

struct PoolQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
}

impl ThreadPool {
    /// Starts a pool with `workers` parked threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let queue =
            Arc::new(PoolQueue { jobs: Mutex::new(VecDeque::new()), available: Condvar::new() });
        for id in 0..workers {
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("invector-exec-{id}"))
                .spawn(move || worker_loop(&queue))
                .expect("failed to spawn pool worker");
        }
        ThreadPool { queue, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `f(0)`, `f(1)`, …, `f(tasks - 1)` on the pool and blocks
    /// until all calls have returned.
    ///
    /// Single-task batches (and calls made from inside a pool worker) run
    /// inline on the calling thread. If any task panics, the first payload
    /// is re-raised here after the whole batch has drained.
    pub fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || IN_POOL_WORKER.with(|w| w.get()) {
            pool_metrics().inline_batches.inc();
            for index in 0..tasks {
                f(index);
            }
            return;
        }
        pool_metrics().batches.inc();
        pool_metrics().jobs.add(tasks as u64);
        // SAFETY: erases the borrow lifetime of `f`. The wait on `done`
        // below guarantees `run` outlives every dereference by a worker.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let batch = Arc::new(Batch {
            task,
            state: Mutex::new(BatchState { remaining: tasks, panic: None }),
            done: Condvar::new(),
        });
        {
            let mut jobs = self.queue.jobs.lock().expect("pool queue poisoned");
            for index in 0..tasks {
                jobs.push_back(Job { batch: Arc::clone(&batch), index });
            }
        }
        self.queue.available.notify_all();
        let mut state = batch.state.lock().expect("batch state poisoned");
        while state.remaining > 0 {
            state = batch.done.wait(state).expect("batch state poisoned");
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
}

fn worker_loop(queue: &PoolQueue) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = queue.available.wait(jobs).expect("pool queue poisoned");
            }
        };
        let task = job.batch.task;
        IN_POOL_WORKER.with(|w| w.set(true));
        let outcome = {
            let _span = invector_obs::span!("exec.pool.job");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(job.index)))
        };
        IN_POOL_WORKER.with(|w| w.set(false));
        let mut state = job.batch.state.lock().expect("batch state poisoned");
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            job.batch.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(64, &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn batches_can_borrow_stack_data() {
        let pool = ThreadPool::new(2);
        let input = [1u64, 2, 3, 4, 5];
        let out: Vec<AtomicU64> = input.iter().map(|_| AtomicU64::new(0)).collect();
        pool.run(input.len(), &|i| {
            out[i].store(input[i] * 10, Ordering::SeqCst);
        });
        let got: Vec<u64> = out.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        assert_eq!(got, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn pool_survives_repeated_batches() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(7, &|i| {
                total.fetch_add(i as u64, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 50 * 21);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(|| {
            pool.run(4, &|i| {
                if i == 2 {
                    panic!("task exploded");
                }
            });
        });
        assert!(result.is_err());
        // The pool is still usable afterwards.
        let ok = AtomicU64::new(0);
        pool.run(4, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn nested_runs_execute_inline_without_deadlock() {
        let pool = ThreadPool::new(1); // one worker: nesting would deadlock
        let total = AtomicU64::new(0);
        pool.run(2, &|_| {
            pool.run(3, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn global_pool_is_initialized_at_most_once() {
        let before = pool_initializations();
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert_eq!(pool_initializations(), 1);
        assert!(before <= 1);
    }
}
