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
//!   [`CompletionHandle::is_finished`], or drop it to detach the job;
//! * [`ExecOutcome`] — one executed job's result bundled with the
//!   [`MatchStats`] it accumulated and its wall-clock `elapsed` time, so
//!   per-query accounting comes from job outcomes instead of racy
//!   reset/read deltas on shared state;
//! * [`MatcherPool`] — K `boxed_clone`'d matchers checked out per query,
//!   the primitive that lets one tenant's queries run concurrently.
//!
//! Worker threads never die with the jobs they run: a panicking job is
//! caught, reported as [`MatchError::WorkerPanicked`] through its handle,
//! and the worker moves on to the next job.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cm_telemetry::{metric_names, Counter, Gauge, Histogram, MetricsRegistry};

use crate::api::{ErasedMatcher, MatchError, MatchStats};

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

/// One executed job's result, with the statistics it accumulated and the
/// wall time it took on its worker.
#[derive(Debug, Clone)]
pub struct ExecOutcome<T> {
    /// What the job returned.
    pub result: T,
    /// The [`MatchStats`] this one job accumulated (exact per-job
    /// attribution — no reset/read delta on shared state).
    pub stats: MatchStats,
    /// Wall-clock time the job spent executing on its worker.
    pub elapsed: Duration,
}

enum SlotState<T> {
    Pending,
    Done(T),
    Panicked,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, state: SlotState<T>) {
        *lock_unpoisoned(&self.state) = state;
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
        !matches!(*lock_unpoisoned(&self.slot.state), SlotState::Pending)
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// [`MatchError::WorkerPanicked`] if the job panicked.
    pub fn wait(self) -> Result<T, MatchError> {
        let mut state = lock_unpoisoned(&self.slot.state);
        loop {
            match std::mem::replace(&mut *state, SlotState::Pending) {
                SlotState::Pending => {
                    state = self
                        .slot
                        .cv
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                SlotState::Done(value) => return Ok(value),
                SlotState::Panicked => return Err(MatchError::WorkerPanicked),
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
/// *borrowed* state (the Boolean backend's TFHE windows, its only user):
/// such jobs cannot ride the `'static` [`WorkerPool`] queue, so this is
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
        let metrics = self.metrics.clone();
        let enqueued = Instant::now();
        let run: Job = Box::new(move || {
            metrics.queue_wait.record_micros(enqueued.elapsed());
            metrics.queue_depth.add(-1);
            let running = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(job));
            // Record before filling the slot so a snapshot taken right
            // after `wait` returns already sees this job.
            metrics.run_time.record_micros(running.elapsed());
            match result {
                Ok(value) => fill.fill(SlotState::Done(value)),
                Err(_) => {
                    metrics.panics.inc();
                    fill.fill(SlotState::Panicked);
                }
            }
        });
        self.enqueue(run);
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
            metrics.run_time.record_micros(running.elapsed());
            if result.is_err() {
                metrics.panics.inc();
            }
            let _ = catch_unwind(AssertUnwindSafe(move || notify(result)));
        });
        self.enqueue(run);
    }

    /// Enqueues a wrapped job and wakes one worker.
    fn enqueue(&self, run: Job) {
        self.metrics.queue_depth.add(1);
        {
            let mut guard = lock_unpoisoned(&self.queue.jobs);
            guard.0.push_back(run);
        }
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

// ---------------------------------------------------------------------------
// Matcher checkout pools
// ---------------------------------------------------------------------------

/// K `boxed_clone`'d matchers checked out one per in-flight query.
///
/// Clones share the encrypted database (an `Arc` — see
/// [`ErasedMatcher::database_fingerprint`]), so a pool costs K copies of
/// the *key material and engine state only*, not K ciphertext copies.
/// [`MatcherPool::try_run`] checks a matcher out (blocking while all K
/// are busy), runs the query on the calling thread, and returns the exact
/// per-query [`MatchStats`] as an [`ExecOutcome`] — the matcher is
/// exclusively held, so the stats delta cannot race.
pub struct MatcherPool {
    idle: Mutex<Vec<Box<dyn ErasedMatcher>>>,
    cv: Condvar,
    size: usize,
}

impl std::fmt::Debug for MatcherPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatcherPool")
            .field("size", &self.size)
            .finish()
    }
}

impl MatcherPool {
    /// Builds a pool of `workers` matchers: the template plus
    /// `workers - 1` [`ErasedMatcher::boxed_clone`]s, each reseeded with a
    /// distinct randomness stream derived from `seed`.
    ///
    /// # Errors
    ///
    /// [`MatchError::InvalidConfig`] for a zero worker count.
    pub fn new(
        template: Box<dyn ErasedMatcher>,
        workers: usize,
        seed: u64,
    ) -> Result<Self, MatchError> {
        if workers == 0 {
            return Err(MatchError::InvalidConfig("worker count must be positive"));
        }
        let mut matchers = Vec::with_capacity(workers);
        for i in 1..workers {
            let mut clone = template.boxed_clone();
            clone.reseed(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            matchers.push(clone);
        }
        matchers.push(template);
        Ok(Self {
            idle: Mutex::new(matchers),
            cv: Condvar::new(),
            size: workers,
        })
    }

    /// The pool size K.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Checks a matcher out, blocking while all K are busy. The guard
    /// returns it to the pool on drop (including during unwinding).
    pub fn checkout(&self) -> MatcherGuard<'_> {
        let mut idle = lock_unpoisoned(&self.idle);
        let matcher = loop {
            if let Some(m) = idle.pop() {
                break m;
            }
            idle = self
                .cv
                .wait(idle)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        MatcherGuard {
            pool: self,
            matcher: Some(matcher),
        }
    }

    /// Checks a matcher out, zeroes its counters, runs `f` on it, and
    /// returns `f`'s result with the exact stats and wall time of this one
    /// call. A panic inside `f` is caught and surfaced as
    /// [`MatchError::WorkerPanicked`] instead of unwinding through the
    /// caller — the serving path's guarantee that a hostile query can
    /// kill neither its connection worker nor the tenant's pool. The
    /// checked-out matcher is returned to the pool either way.
    ///
    /// # Errors
    ///
    /// [`MatchError::WorkerPanicked`] if `f` panicked.
    pub fn try_run<T>(
        &self,
        f: impl FnOnce(&mut dyn ErasedMatcher) -> T,
    ) -> Result<ExecOutcome<T>, MatchError> {
        let mut guard = self.checkout();
        guard.reset_stats();
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut *guard)))
            .map_err(|_| MatchError::WorkerPanicked)?;
        Ok(ExecOutcome {
            result,
            stats: guard.stats(),
            elapsed: start.elapsed(),
        })
    }

    fn give_back(&self, matcher: Box<dyn ErasedMatcher>) {
        lock_unpoisoned(&self.idle).push(matcher);
        self.cv.notify_one();
    }
}

/// An exclusively checked-out matcher; returns to its pool on drop.
pub struct MatcherGuard<'a> {
    pool: &'a MatcherPool,
    matcher: Option<Box<dyn ErasedMatcher>>,
}

impl std::ops::Deref for MatcherGuard<'_> {
    type Target = dyn ErasedMatcher;

    fn deref(&self) -> &Self::Target {
        self.matcher.as_deref().expect("matcher present until drop")
    }
}

impl std::ops::DerefMut for MatcherGuard<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.matcher
            .as_deref_mut()
            .expect("matcher present until drop")
    }
}

impl Drop for MatcherGuard<'_> {
    fn drop(&mut self) {
        if let Some(matcher) = self.matcher.take() {
            self.pool.give_back(matcher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Backend, MatcherConfig};
    use crate::bits::BitString;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(metric_names::EXEC_WORKER_PANICS, &labels),
            Some(1)
        );
        let waits = snap
            .histogram(metric_names::EXEC_QUEUE_WAIT_US, &labels)
            .unwrap();
        assert_eq!(waits.count, 2, "both jobs crossed the queue");
        let runs = snap
            .histogram(metric_names::EXEC_RUN_TIME_US, &labels)
            .unwrap();
        assert_eq!(runs.count, 2, "run time recorded even for a panic");
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

    #[test]
    fn matcher_pool_checkout_blocks_until_a_matcher_returns() {
        let template = MatcherConfig::new(Backend::Plain).build().unwrap();
        let pool = Arc::new(MatcherPool::new(template, 1, 0).unwrap());
        let guard = pool.checkout();
        let pool2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let _second = pool2.checkout(); // blocks until the guard drops
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "checkout must block while K=1 busy");
        drop(guard);
        waiter.join().unwrap();
    }

    #[test]
    fn matcher_pool_run_reports_exact_per_query_stats() {
        let mut template = MatcherConfig::new(Backend::Ciphermatch)
            .insecure_test()
            .seed(9)
            .build()
            .unwrap();
        let data = BitString::from_ascii("exact per-query attribution");
        template.load_database(&data).unwrap();
        let pool = MatcherPool::new(template, 2, 9).unwrap();
        let q = BitString::from_ascii("query");
        let first = pool.try_run(|m| m.find_all(&q).unwrap()).unwrap();
        let second = pool.try_run(|m| m.find_all(&q).unwrap()).unwrap();
        assert_eq!(first.result, data.find_all(&q));
        assert_eq!(second.result, data.find_all(&q));
        // Same query, zeroed counters each time: identical exact stats,
        // not an ever-growing lifetime aggregate.
        assert!(first.stats.hom_adds > 0);
        assert_eq!(first.stats.hom_adds, second.stats.hom_adds);
    }

    #[test]
    fn matcher_pool_clones_share_the_database_allocation() {
        let mut template = MatcherConfig::new(Backend::Ciphermatch)
            .insecure_test()
            .build()
            .unwrap();
        template
            .load_database(&BitString::from_ascii("shared among K workers"))
            .unwrap();
        let fingerprint = template.database_fingerprint().unwrap();
        let pool = MatcherPool::new(template, 3, 1).unwrap();
        // Hold all three checkouts at once so every distinct pool member
        // is inspected.
        let guards = [pool.checkout(), pool.checkout(), pool.checkout()];
        for guard in &guards {
            assert_eq!(guard.database_fingerprint(), Some(fingerprint));
        }
    }
}
