//! The shared work-pool runtime every concurrent layer runs on.
//!
//! CIPHERMATCH's end-to-end win comes from keeping every level of the
//! stack busy — packed SIMD lanes, parallel flash channels, overlapped
//! data movement — and the serving stack mirrors that on the host side:
//! instead of one threading scheme per layer (scoped threads here, a
//! thread per shard there, a thread per connection somewhere else), every
//! layer submits jobs to one runtime:
//!
//! * [`WorkerPool`] — N long-lived worker threads behind one mpsc job
//!   queue, graceful drain-then-join shutdown on drop;
//! * [`compute_pool`] — the one process-wide pool, one worker per core,
//!   that every CM-SW shard job of every loaded database runs on, so a
//!   process's thread count does not grow with its tenants;
//! * [`CompletionHandle`] — a future-without-async for one submitted job:
//!   block on [`CompletionHandle::wait`], poll with
//!   [`CompletionHandle::is_finished`], or drop it to detach the job.
//!
//! Worker threads never die with the jobs they run: a panicking job is
//! caught, reported as [`MatchError::WorkerPanicked`] through its handle,
//! and the worker moves on to the next job.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use cm_telemetry::{metric_names, Counter, Gauge, Histogram, MetricsRegistry};

use crate::api::MatchError;

/// A type-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The telemetry handles one [`WorkerPool`] records into. The default is
/// all no-ops; [`PoolMetrics::register`] wires a pool into a live
/// [`MetricsRegistry`] under a `pool` label.
#[derive(Debug, Clone, Default)]
pub struct PoolMetrics {
    /// Jobs enqueued and not yet picked up by a worker.
    pub queue_depth: Gauge,
    /// Submit → dequeue wait per job, µs.
    pub queue_wait: Histogram,
    /// Worker-side execution time per job, µs.
    pub run_time: Histogram,
    /// Jobs whose closure panicked on a worker.
    pub panics: Counter,
}

impl PoolMetrics {
    /// Registers the pool's four metrics in `registry`, labeling each
    /// with `pool` so several pools (frame pump, compute pool, bench
    /// clients) stay distinguishable in one exposition.
    pub fn register(registry: &MetricsRegistry, pool: &str) -> Self {
        let labels = [("pool", pool)];
        Self {
            queue_depth: registry.register_gauge(metric_names::EXEC_QUEUE_DEPTH, &labels),
            queue_wait: registry.register_histogram(metric_names::EXEC_QUEUE_WAIT_US, &labels),
            run_time: registry.register_histogram(metric_names::EXEC_RUN_TIME_US, &labels),
            panics: registry.register_counter(metric_names::EXEC_WORKER_PANICS, &labels),
        }
    }
}

/// Locks a mutex, riding through poisoning: the pool's internal critical
/// sections never panic, but a poisoned lock must not cascade into every
/// later submit/wait.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Completion handles
// ---------------------------------------------------------------------------

/// One job's result, `None` until the job finishes.
struct Slot<T> {
    state: Mutex<Option<Result<T, MatchError>>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<T, MatchError>) {
        *lock_unpoisoned(&self.state) = Some(result);
        self.cv.notify_all();
    }
}

/// The receiving end of one submitted job — a future without async.
///
/// Dropping the handle detaches the job: it still runs to completion on
/// its worker, its result is simply discarded.
pub struct CompletionHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> std::fmt::Debug for CompletionHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> CompletionHandle<T> {
    /// Whether the job has finished (successfully or by panicking).
    pub fn is_finished(&self) -> bool {
        lock_unpoisoned(&self.slot.state).is_some()
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// [`MatchError::WorkerPanicked`] if the job panicked.
    pub fn wait(self) -> Result<T, MatchError> {
        let mut state = lock_unpoisoned(&self.slot.state);
        loop {
            match state.take() {
                Some(result) => return result,
                None => {
                    state = self
                        .slot
                        .cv
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }
}

/// Waits on a batch of handles, preserving submission order.
///
/// # Errors
///
/// [`MatchError::WorkerPanicked`] if any job panicked (remaining handles
/// are dropped, detaching their jobs).
pub fn wait_all<T>(handles: Vec<CompletionHandle<T>>) -> Result<Vec<T>, MatchError> {
    handles.into_iter().map(CompletionHandle::wait).collect()
}

// ---------------------------------------------------------------------------
// Scoped fan-out over borrowed data
// ---------------------------------------------------------------------------

/// Splits `items` into up to `workers` contiguous chunks and evaluates
/// `f` on each chunk concurrently, returning the per-chunk results in
/// chunk order.
///
/// This is the runtime's primitive for compute-bound fan-out over
/// *borrowed* state (the Boolean engine's TFHE windows, its only user;
/// its callers pass [`compute_workers`] as `workers`): such jobs cannot ride
/// the `'static` [`WorkerPool`] queue, so this is
/// the one blessed home for scoped threads — every other module submits
/// to a pool or calls this. CM-SW does not come here: its Hom-Add sweep
/// is memory-bound and parallelises by polynomial-range shards on the
/// [`compute_pool`].
///
/// `workers == 1` (or a single chunk) runs inline on the caller's
/// thread.
///
/// # Errors
///
/// [`MatchError::InvalidConfig`] for a zero worker count;
/// [`MatchError::WorkerPanicked`] if any chunk's evaluation panicked.
pub fn fan_out<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    f: impl Fn(&[I]) -> T + Sync,
) -> Result<Vec<T>, MatchError> {
    if workers == 0 {
        return Err(MatchError::InvalidConfig("worker count must be positive"));
    }
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let chunk = items.len().div_ceil(workers);
    if workers == 1 || chunk >= items.len() {
        return Ok(vec![f(items)]);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || f(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| MatchError::WorkerPanicked))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

struct Queue {
    jobs: Mutex<(VecDeque<Job>, bool)>, // (pending jobs, shutting down)
    cv: Condvar,
}

/// N long-lived worker threads behind one job queue.
///
/// Submitting never blocks (the queue is unbounded — admission control
/// belongs to the layer above, e.g. the TCP server's `max_inflight_frames`);
/// dropping the pool is a graceful shutdown: the queue closes, workers
/// drain every job already submitted, then join.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
    metrics: PoolMetrics,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` long-lived threads.
    ///
    /// # Errors
    ///
    /// [`MatchError::InvalidConfig`] for a zero worker count;
    /// [`MatchError::Internal`] when the OS refuses a thread.
    pub fn new(workers: usize) -> Result<Self, MatchError> {
        if workers == 0 {
            return Err(MatchError::InvalidConfig("worker count must be positive"));
        }
        let mut pool = Self {
            queue: Arc::new(Queue {
                jobs: Mutex::new((VecDeque::new(), false)),
                cv: Condvar::new(),
            }),
            workers: Vec::with_capacity(workers),
            metrics: PoolMetrics::default(),
        };
        for i in 0..workers {
            let queue = Arc::clone(&pool.queue);
            // On failure, dropping `pool` joins the workers spawned so far.
            let worker = std::thread::Builder::new()
                .name(format!("cm-exec-{i}"))
                .spawn(move || worker_loop(&queue))
                .map_err(|_| MatchError::Internal("the OS refused a pool worker thread"))?;
            pool.workers.push(worker);
        }
        Ok(pool)
    }

    /// Installs telemetry handles for this pool (call before sharing the
    /// pool; handles registered later see only subsequent jobs).
    pub fn set_metrics(&mut self, metrics: PoolMetrics) {
        self.metrics = metrics;
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job, returning the handle that will carry its result.
    /// A panic inside `job` is caught on the worker and surfaces as
    /// [`MatchError::WorkerPanicked`] from [`CompletionHandle::wait`].
    pub fn submit<T, F>(&self, job: F) -> CompletionHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(Slot::new());
        let fill = Arc::clone(&slot);
        self.submit_notify(job, move |result| fill.fill(result));
        CompletionHandle { slot }
    }

    /// Submits a fire-and-forget job whose result is delivered to
    /// `notify` *on the worker thread* instead of through a
    /// [`CompletionHandle`] — the completion-queue hook for callers
    /// that must not block (a reactor thread handing frames to the
    /// pool). A panic inside `job` reaches `notify` as
    /// [`MatchError::WorkerPanicked`]; a panic inside `notify` itself
    /// is swallowed so the worker survives either way.
    pub fn submit_notify<T, F, N>(&self, job: F, notify: N)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        N: FnOnce(Result<T, MatchError>) + Send + 'static,
    {
        let metrics = self.metrics.clone();
        let enqueued = Instant::now();
        let run: Job = Box::new(move || {
            metrics.queue_wait.record_micros(enqueued.elapsed());
            metrics.queue_depth.add(-1);
            let running = Instant::now();
            let result =
                catch_unwind(AssertUnwindSafe(job)).map_err(|_| MatchError::WorkerPanicked);
            // Record before notifying so a snapshot taken right after a
            // `wait` returns already sees this job.
            metrics.run_time.record_micros(running.elapsed());
            if result.is_err() {
                metrics.panics.inc();
            }
            let _ = catch_unwind(AssertUnwindSafe(move || notify(result)));
        });
        self.metrics.queue_depth.add(1);
        lock_unpoisoned(&self.queue.jobs).0.push_back(run);
        self.queue.cv.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_unpoisoned(&self.queue.jobs).1 = true;
        self.queue.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut guard = lock_unpoisoned(&queue.jobs);
            loop {
                if let Some(job) = guard.0.pop_front() {
                    break job;
                }
                if guard.1 {
                    return; // queue closed and drained
                }
                guard = queue
                    .cv
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        job(); // panics are caught inside the job wrapper
    }
}

// ---------------------------------------------------------------------------
// The compute pool
// ---------------------------------------------------------------------------

/// The machine's available parallelism, read once: the size of the
/// [`compute_pool`] and of every core-sized pool. There is no option to
/// set it — CM-SW's Hom-Add stream is memory-bound, so more workers
/// than cores buy nothing.
pub fn compute_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide compute pool, started on first use and alive until
/// the process exits: every sharded CM-SW search of every loaded database
/// submits its per-shard jobs here, so loading a database spawns no
/// threads. Jobs must not wait on other jobs of this pool.
pub fn compute_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(compute_workers()).expect("starting the compute pool"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn pool_runs_jobs_and_returns_results_in_order() {
        let pool = WorkerPool::new(4).unwrap();
        let handles: Vec<_> = (0..32).map(|i| pool.submit(move || i * i)).collect();
        let results = wait_all(handles).unwrap();
        assert_eq!(results, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        assert_eq!(
            WorkerPool::new(0).err(),
            Some(MatchError::InvalidConfig("worker count must be positive"))
        );
    }

    #[test]
    fn dropping_the_pool_drains_queued_jobs() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1).unwrap();
            for _ in 0..16 {
                let ran = Arc::clone(&ran);
                drop(pool.submit(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }));
            }
            // The single worker cannot have run all 16 yet; drop drains.
        }
        assert_eq!(ran.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn panicked_jobs_surface_without_killing_the_worker() {
        let pool = WorkerPool::new(1).unwrap();
        let bad = pool.submit(|| panic!("job dies"));
        let good = pool.submit(|| 7usize);
        assert_eq!(bad.wait(), Err(MatchError::WorkerPanicked));
        assert_eq!(good.wait(), Ok(7));
    }

    #[test]
    fn notify_jobs_deliver_results_on_the_worker() {
        let pool = WorkerPool::new(2).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit_notify(|| 21usize * 2, move |result| tx.send(result).unwrap());
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Ok(42usize)
        );
    }

    #[test]
    fn notify_jobs_surface_panics_as_worker_panicked() {
        let pool = WorkerPool::new(1).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let tx2 = tx.clone();
        pool.submit_notify(
            || -> usize { panic!("job dies") },
            move |result| tx.send(result).unwrap(),
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Err(MatchError::WorkerPanicked)
        );
        // The worker survives both a panicking job and a panicking
        // notify and keeps serving.
        pool.submit_notify(
            || 9usize,
            move |result| {
                tx2.send(result).unwrap();
                panic!("notify dies");
            },
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Ok(9usize)
        );
        assert_eq!(pool.submit(|| 5usize).wait(), Ok(5));
    }

    #[test]
    fn pool_metrics_count_jobs_waits_and_panics() {
        let registry = MetricsRegistry::new();
        let mut pool = WorkerPool::new(1).unwrap();
        pool.set_metrics(PoolMetrics::register(&registry, "test"));
        let labels = [("pool", "test")];
        let bad = pool.submit(|| panic!("job dies"));
        let good = pool.submit(|| 1usize);
        assert_eq!(bad.wait(), Err(MatchError::WorkerPanicked));
        assert_eq!(good.wait(), Ok(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let tx2 = tx.clone();
        pool.submit_notify(
            || -> usize { panic!("job dies") },
            move |result| tx.send(result).unwrap(),
        );
        pool.submit_notify(|| 2usize, move |result| tx2.send(result).unwrap());
        assert_eq!(rx.recv().unwrap(), Err(MatchError::WorkerPanicked));
        assert_eq!(rx.recv().unwrap(), Ok(2));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(metric_names::EXEC_WORKER_PANICS, &labels),
            Some(2),
            "each panic counts once, whichever way it was submitted"
        );
        let waits = snap
            .histogram(metric_names::EXEC_QUEUE_WAIT_US, &labels)
            .unwrap();
        assert_eq!(waits.count, 4, "every job crossed the queue");
        let runs = snap
            .histogram(metric_names::EXEC_RUN_TIME_US, &labels)
            .unwrap();
        assert_eq!(runs.count, 4, "run time recorded even for a panic");
        assert_eq!(
            snap.gauge(metric_names::EXEC_QUEUE_DEPTH, &labels),
            Some(0),
            "depth returns to zero once drained"
        );
    }

    #[test]
    fn pool_actually_runs_jobs_concurrently() {
        let pool = WorkerPool::new(2).unwrap();
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                pool.submit(move || {
                    let (m, cv) = &*gate;
                    let mut in_flight = m.lock().unwrap();
                    *in_flight += 1;
                    cv.notify_all();
                    // Each job waits for the other: only possible if the
                    // pool really runs both at once.
                    while *in_flight < 2 {
                        let (guard, timeout) =
                            cv.wait_timeout(in_flight, Duration::from_secs(5)).unwrap();
                        in_flight = guard;
                        if timeout.timed_out() {
                            panic!("jobs never overlapped");
                        }
                    }
                })
            })
            .collect();
        wait_all(handles).unwrap();
    }
}
