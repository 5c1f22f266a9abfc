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
//! futures. It has two operations:
//!
//! - [`ThreadPool::run`] executes `tasks` closures `f(0..tasks)` and blocks
//!   until all finished. Blocking until batch completion is what makes the
//!   lifetime erasure below sound: borrowed data captured by `f` cannot be
//!   freed while any worker can still touch it.
//! - [`ThreadPool::spawn`] queues one `'static` job and returns at once. The
//!   job owns everything it touches, so nothing has to outlive the call.
//!
//! A worker that runs out of jobs polls the queue ([`poll_window`]) for
//! [`SPIN_WINDOW`] before it parks, so a job queued within the window
//! starts without a wake-up. At most one worker polls at a time; the others
//! park at once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long an idle worker polls the queue before it parks.
///
/// Sized for the serving layer's epoch hand-off (`ServerCore::tick`). On
/// the 2-vCPU KVM guest it was measured on, a job handed to a parked
/// worker started 60–90 µs later (futex wake plus vCPU wake-up), while an
/// in-process client's ticks arrived 250–550 µs apart across the host's
/// speed phases. One millisecond covers the widest of those gaps about
/// twice over, so a steady stream of hand-offs never waits for a wake-up,
/// and an idle pool still parks within a millisecond of its last job.
pub const SPIN_WINDOW: Duration = Duration::from_millis(1);

/// Polling turns per `yield_now` in [`poll_window`]; the turns between
/// spin with [`std::hint::spin_loop`].
///
/// A yield is a `sched_yield` system call. On the 2-vCPU KVM guest, 5-s
/// `ingest-hot` runs spent 1.0–1.5 s of system time when the pollers
/// yielded on every turn, 0.7–0.8 s at 8 turns per yield, 0.3 s at 64 and
/// 0.2 s at 512 (two runs each; `mups` moved within its run-to-run noise).
/// 64 turns, a few microseconds, keeps most of that saving while a thread
/// waiting for this CPU still gets it quickly: over 6 alternating 15-s
/// pairs, system time per run fell from 3.3–4.0 s to 0.55–0.61 s.
const YIELD_EVERY: u32 = 64;

/// Polls `ready` until it holds or [`SPIN_WINDOW`] has passed, and returns
/// whether it held. Spins between checks and yields the CPU every
/// `YIELD_EVERY` turns, so another runnable thread on this CPU still
/// gets it within a few microseconds. The one polling loop of the pool's
/// idle workers and of the serving layer's epoch hand-off.
pub fn poll_window(mut ready: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + SPIN_WINDOW;
    let mut turns = 0u32;
    loop {
        if ready() {
            return true;
        }
        if Instant::now() >= until {
            return false;
        }
        turns += 1;
        if turns.is_multiple_of(YIELD_EVERY) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

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

/// `true` on a pool worker thread while it runs a job. Work that would
/// hand itself to the pool runs inline there instead.
pub fn on_worker() -> bool {
    IN_POOL_WORKER.with(|w| w.get())
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
    spawns: invector_obs::Counter,
    parks: invector_obs::Counter,
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
            spawns: registry
                .counter("invector_exec_pool_spawns_total", "'static jobs spawned on the pool"),
            parks: registry.counter(
                "invector_exec_pool_parks_total",
                "hand-offs that had to wake a parked worker (no worker was polling)",
            ),
        }
    })
}

static POOL_INITIALIZATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while a pool worker executes a job, so nested [`ThreadPool::run`]
    /// calls degrade to inline execution instead of risking a deadlock where
    /// every worker waits for a batch no one is left to run.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One enqueued job.
enum Job {
    /// Task `index` of a [`ThreadPool::run`] batch.
    Task { batch: Arc<Batch>, index: usize },
    /// A [`ThreadPool::spawn`] job.
    Spawned(Box<dyn FnOnce() + Send>),
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

/// A fixed set of worker threads executing batches of indexed tasks and
/// spawned jobs.
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
    state: Mutex<QueueState>,
    available: Condvar,
    /// `state.jobs.len()`, readable without the lock by a polling worker.
    queued: AtomicUsize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Workers waiting on `available`.
    parked: usize,
    /// Workers polling `queued` inside their spin window (0 or 1).
    polling: usize,
}

impl PoolQueue {
    /// Queues `jobs` and wakes parked workers for the ones no polling
    /// worker will take: all of them for a batch (`wake_all`), one for a
    /// spawned job.
    fn push(&self, jobs: impl Iterator<Item = Job>, wake_all: bool) {
        let mut state = self.state.lock().expect("pool queue poisoned");
        state.jobs.extend(jobs);
        self.queued.store(state.jobs.len(), Ordering::Release);
        if state.parked == 0 || (state.polling > 0 && !wake_all) {
            return;
        }
        pool_metrics().parks.inc();
        if wake_all {
            self.available.notify_all();
        } else {
            self.available.notify_one();
        }
    }
}

impl ThreadPool {
    /// Starts a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let queue = Arc::new(PoolQueue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), parked: 0, polling: 0 }),
            available: Condvar::new(),
            queued: AtomicUsize::new(0),
        });
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
        if tasks == 1 || on_worker() {
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
        self.queue
            .push((0..tasks).map(|index| Job::Task { batch: Arc::clone(&batch), index }), true);
        let mut state = batch.state.lock().expect("batch state poisoned");
        while state.remaining > 0 {
            state = batch.done.wait(state).expect("batch state poisoned");
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }

    /// Queues `job` to run on a worker and returns at once.
    ///
    /// The job owns what it touches (`'static`), so it may outlive the
    /// caller's stack frame. A panic inside it is caught on the worker and
    /// dropped, so a job that has a result or a failure to report passes it
    /// on itself.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        pool_metrics().spawns.inc();
        pool_metrics().jobs.inc();
        self.queue.push(std::iter::once(Job::Spawned(Box::new(job))), false);
    }
}

/// Takes the next job: polls inside the spin window when no other worker
/// is polling, then parks until one is queued.
fn next_job(queue: &PoolQueue) -> Job {
    let mut state = queue.state.lock().expect("pool queue poisoned");
    if state.jobs.is_empty() && state.polling == 0 {
        state.polling = 1;
        drop(state);
        poll_window(|| queue.queued.load(Ordering::Acquire) != 0);
        state = queue.state.lock().expect("pool queue poisoned");
        state.polling = 0;
    }
    loop {
        if let Some(job) = state.jobs.pop_front() {
            queue.queued.store(state.jobs.len(), Ordering::Release);
            // A spawn that found this worker polling woke no one; pass any
            // job queued behind it on to a parked worker.
            if !state.jobs.is_empty() && state.parked > 0 && state.polling == 0 {
                pool_metrics().parks.inc();
                queue.available.notify_one();
            }
            return job;
        }
        state.parked += 1;
        state = queue.available.wait(state).expect("pool queue poisoned");
        state.parked -= 1;
    }
}

fn worker_loop(queue: &PoolQueue) {
    loop {
        let job = next_job(queue);
        IN_POOL_WORKER.with(|w| w.set(true));
        match job {
            Job::Task { batch, index } => {
                let task = batch.task;
                let outcome = {
                    let _span = invector_obs::span!("exec.pool.job");
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(index)))
                };
                let mut state = batch.state.lock().expect("batch state poisoned");
                if let Err(payload) = outcome {
                    state.panic.get_or_insert(payload);
                }
                state.remaining -= 1;
                if state.remaining == 0 {
                    batch.done.notify_all();
                }
            }
            Job::Spawned(job) => {
                let _span = invector_obs::span!("exec.pool.spawned");
                // The job reports its own failures; the worker survives it.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
        }
        IN_POOL_WORKER.with(|w| w.set(false));
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

    /// Spawned jobs run on a worker, after the call returned, whether a
    /// worker was polling or parked when they were queued; a panicking job
    /// leaves the worker serving.
    #[test]
    fn spawned_jobs_run_on_a_worker_and_survive_panics() {
        let pool = ThreadPool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        for round in 0..3u32 {
            if round == 2 {
                // Past the spin window: the worker has parked.
                std::thread::sleep(SPIN_WINDOW * 5);
            }
            pool.spawn(|| panic!("job exploded"));
            let tx = tx.clone();
            pool.spawn(move || tx.send((round, on_worker())).expect("receiver"));
            let got = rx.recv_timeout(Duration::from_secs(10)).expect("spawned job ran");
            assert_eq!(got, (round, true));
        }
        assert!(!on_worker(), "the caller is not a worker");
    }

    /// The poll returns as soon as its condition holds and gives up once
    /// the window has passed.
    #[test]
    fn poll_window_returns_on_the_condition_or_at_the_window() {
        let mut calls = 0u32;
        assert!(poll_window(|| {
            calls += 1;
            true
        }));
        assert_eq!(calls, 1);
        let start = Instant::now();
        assert!(!poll_window(|| false));
        assert!(start.elapsed() >= SPIN_WINDOW);
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
