//! A fixed-size thread pool with a *scoped* execution API.
//!
//! The transfer pipeline (see `wireproto::transfer`) splits payloads into
//! blocks and runs the block codec across cores. Its needs shape this
//! module:
//!
//! * **Fixed, work-stealing-free.** Workers pull jobs from one shared
//!   FIFO injector queue — no per-worker deques, no stealing. Block jobs
//!   are coarse (hundreds of KiB of compression each), so a single
//!   mutex-guarded queue costs nothing measurable and keeps execution
//!   order deterministic enough to reason about.
//! * **Scoped.** [`Pool::scoped`] lets jobs borrow from the caller's
//!   stack (the payload being split lives in the caller), so block slices
//!   need no `'static` bound and no copying into `Arc`s. The scope joins
//!   all of its jobs before returning — even when the caller's closure
//!   panics after queueing jobs, mirroring `std::thread::scope` — the
//!   classic scoped-pool contract that makes the lifetime erasure sound.
//! * **Nested submission runs inline.** A job that submits to its own
//!   pool (directly or via `Pool::map`) would otherwise deadlock: the
//!   worker blocks joining children that no free worker can ever pick
//!   up. `Scope::execute` detects submission from one of the pool's own
//!   workers and runs the job synchronously on that worker instead —
//!   nested parallelism degrades to sequential execution, never to a
//!   hang, and results are unchanged because `map` preserves item order
//!   either way.
//! * **Deterministic results.** [`Pool::map`] returns results in item
//!   order regardless of completion order or worker count, which is what
//!   lets the wire format stay byte-identical across thread counts.
//!
//! * **Bounded, for fire-and-forget work.** [`Pool::bounded`] gives the
//!   same workers and queue a capacity: [`Pool::try_submit`] takes
//!   `'static` jobs from many producers, never blocks, and refuses with
//!   [`QueueFull`] once `capacity` jobs wait — the wire server's read
//!   scheduler, which turns the refusal into a typed retryable error
//!   (backpressure instead of memory growth). A panicking job never takes
//!   its worker down.
//!
//! A process-wide pool is available through [`global`]; its size comes
//! from the `DEVUDF_POOL_THREADS` environment variable when set (CI pins
//! it to 1 to prove format determinism), else from
//! `std::thread::available_parallelism` capped at 8.
//!
//! A pool's queue depth is exported as a gauge — `pool.queue_depth` for
//! [`Pool::new`], `<name>.queue_depth` for [`Pool::bounded`] — and the
//! scoped jobs workers run as the `pool.jobs` counter (see DESIGN.md §10).

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Id of the [`Pool`] this thread is a worker of (0 = not a worker).
    /// Lets [`Scope::execute`] detect same-pool nesting and run the job
    /// inline instead of deadlocking the worker in its nested join.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

/// A queued unit of work. Lifetimes are erased by [`Scope::execute`]; the
/// scope's join-before-return contract keeps the borrows alive.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The job queue a pool's workers consume.
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled when a job is pushed or shutdown begins.
    available: Condvar,
    /// Jobs [`Pool::try_submit`] lets wait before refusing.
    capacity: usize,
    /// The pool's queue-depth gauge.
    depth: obs::metrics::Gauge,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl Queue {
    /// Enqueue `job` unless the pool is shutting down or `limit` jobs
    /// already wait. Never blocks.
    fn push(&self, job: Job, limit: usize) -> Result<(), QueueFull> {
        let mut state = self.state.lock().expect("pool queue poisoned");
        if state.shutdown || state.jobs.len() >= limit {
            return Err(QueueFull);
        }
        state.jobs.push_back(job);
        self.depth.set(state.jobs.len() as i64);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or shutdown is flagged with an
    /// empty queue (drain-then-exit semantics).
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("pool queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.depth.set(state.jobs.len() as i64);
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self.available.wait(state).expect("pool queue poisoned");
        }
    }
}

/// A fixed set of worker threads consuming one shared job queue.
///
/// ```
/// let pool = devharness::pool::Pool::new(4);
/// let data = vec![1u64, 2, 3, 4, 5];
/// // Borrow `data` from the caller's stack — no 'static required.
/// let doubled = pool.map(data.iter().collect::<Vec<_>>(), |_, x| *x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
/// ```
pub struct Pool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Process-unique id, stamped into each worker's [`WORKER_OF`].
    id: usize,
}

impl Pool {
    /// Spawn a pool with `threads` workers (clamped to at least 1) for
    /// scoped work; its queue depth is the `pool.queue_depth` gauge.
    pub fn new(threads: usize) -> Pool {
        Pool::spawn("devharness-pool", "pool.queue_depth", threads, usize::MAX)
    }

    /// Spawn a pool with `threads` workers (clamped to at least 1) whose
    /// [`Pool::try_submit`] refuses once `capacity` jobs (clamped to at
    /// least 1) wait; its queue depth is the `<name>.queue_depth` gauge.
    pub fn bounded(name: &'static str, threads: usize, capacity: usize) -> Pool {
        let depth = format!("{name}.queue_depth");
        Pool::spawn(name, &depth, threads, capacity.max(1))
    }

    fn spawn(name: &str, depth: &str, threads: usize, capacity: usize) -> Pool {
        static NEXT_ID: AtomicUsize = AtomicUsize::new(1);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let threads = threads.max(1);
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity,
            depth: obs::metrics::registry().gauge(depth),
        });
        let workers = (0..threads)
            .map(|i| {
                let queue = queue.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        WORKER_OF.with(|w| w.set(id));
                        while let Some(job) = queue.pop() {
                            // A panicking job must not take its worker down
                            // with it — the pool would silently lose
                            // capacity. (Scoped jobs catch their own panics
                            // and re-raise them in `scoped`.)
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            queue,
            workers,
            threads,
            id,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs currently waiting (excludes jobs already running on workers).
    pub fn queued(&self) -> usize {
        self.queue
            .state
            .lock()
            .expect("pool queue poisoned")
            .jobs
            .len()
    }

    /// Submit a `'static` job, or refuse with [`QueueFull`] when the
    /// pool's capacity of waiting jobs is reached or it is shutting down.
    /// Never blocks.
    pub fn try_submit<F>(&self, job: F) -> Result<(), QueueFull>
    where
        F: FnOnce() + Send + 'static,
    {
        self.queue.push(Box::new(job), self.queue.capacity)
    }

    /// Run `f` with a [`Scope`] whose spawned jobs may borrow anything
    /// outliving this call. Every job is joined before `scoped` returns
    /// or unwinds; a panicking job re-panics here (after all siblings
    /// finished), and a panic in `f` itself resumes only after the join.
    pub fn scoped<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panicked: AtomicBool::new(false),
            }),
            _marker: PhantomData,
        };
        // `f` may panic after queueing jobs whose `'scope` borrows were
        // lifetime-erased; unwinding past this frame before those jobs
        // finish would be a use-after-free. Catch the panic, join
        // unconditionally, and only then resume it — as std::thread::scope
        // does. (A Drop guard would work too, but a panic inside a panic
        // aborts; catch/join/resume keeps the failure mode a clean panic.)
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait();
        match result {
            Ok(r) => {
                if scope.state.panicked.load(Ordering::Acquire) {
                    panic!("a job spawned on the thread pool panicked");
                }
                r
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Parallel map preserving item order: `f(index, item)` runs across
    /// the pool; the result vector is ordered by index no matter which
    /// worker finished first. Falls back to a plain inline loop when the
    /// pool has one thread or there is at most one item, so single-thread
    /// configurations pay no synchronization cost at all.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let n = items.len();
        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let f = &f;
        self.scoped(|scope| {
            for (slot, (i, item)) in results.iter_mut().zip(items.into_iter().enumerate()) {
                scope.execute(move || {
                    *slot = Some(f(i, item));
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("scope joined every job"))
            .collect()
    }
}

impl Drop for Pool {
    /// Drain the queue — queued jobs still run — and join the workers.
    fn drop(&mut self) {
        self.queue
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.queue.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// Handle passed to the closure of [`Pool::scoped`]; jobs spawned through
/// it may borrow data with lifetime `'scope`.
pub struct Scope<'pool, 'scope> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    /// Invariant over `'scope` (the `Cell` makes it so), mirroring
    /// `std::thread::Scope` — prevents the borrow checker from shrinking
    /// the scope lifetime under us.
    _marker: PhantomData<std::cell::Cell<&'scope mut ()>>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Submit a job. The job may borrow `'scope` data; the enclosing
    /// [`Pool::scoped`] call joins it before returning, which is what
    /// makes the internal lifetime erasure sound.
    ///
    /// Called from one of this pool's own workers, the job runs inline
    /// on the calling thread instead of being queued: every worker could
    /// be blocked joining a nested scope, in which case a queued child
    /// would never be picked up and the pool would deadlock.
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if WORKER_OF.with(|w| w.get()) == self.pool.id {
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                self.state.panicked.store(true, Ordering::Release);
            }
            return;
        }
        // Span parents are tracked in a thread-local stack that does not
        // cross into workers; carry the submitting thread's trace context
        // so spans opened inside the job parent under the submitting span.
        let ctx = obs::trace::current_context();
        *self.state.pending.lock().expect("scope state poisoned") += 1;
        let state = self.state.clone();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            obs::counter!("pool.jobs").inc();
            let _trace = obs::trace::enter_context(ctx);
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            let mut pending = state.pending.lock().expect("scope state poisoned");
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: `Pool::scoped` calls `Scope::wait` before returning *or
        // unwinding* (the user closure runs under catch_unwind), so every
        // `'scope` borrow the job captures strictly outlives its
        // execution. The job never leaves the pool's queue/workers.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        // Scoped jobs ignore the capacity: the caller blocks until they
        // join, so it is their bound.
        self.pool
            .queue
            .push(job, usize::MAX)
            .expect("a pool cannot shut down while a scope borrows it");
    }

    /// Wait for every job spawned through this scope. Never panics —
    /// [`Pool::scoped`] checks the panicked flag (and any caller-closure
    /// panic) only after this returns, so borrows stay sound.
    fn wait(&self) {
        let mut pending = self.state.pending.lock().expect("scope state poisoned");
        while *pending > 0 {
            pending = self.state.done.wait(pending).expect("scope state poisoned");
        }
    }
}

/// Returned by [`Pool::try_submit`] when the bounded queue is at
/// capacity: the caller sheds load instead of queueing unboundedly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("pool queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// Worker count for the process-global pool: `DEVUDF_POOL_THREADS` when
/// set to a positive integer, else `available_parallelism` capped at 8.
pub fn default_threads() -> usize {
    std::env::var("DEVUDF_POOL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        })
}

/// The process-global pool (lazily created, sized by [`default_threads`]).
pub fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map(items, |i, x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_borrows_from_caller_without_static() {
        let pool = Pool::new(3);
        let data: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 1000]).collect();
        let slices: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let sums = pool.map(slices, |_, s| s.iter().map(|&b| b as u64).sum::<u64>());
        assert_eq!(sums[3], 3 * 1000);
        assert_eq!(sums.len(), 10);
    }

    #[test]
    fn map_runs_inline_on_single_thread_pool() {
        let pool = Pool::new(1);
        // An inline run happens on the calling thread.
        let caller = std::thread::current().id();
        let ids = pool.map(vec![(); 4], |_, ()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn scoped_jobs_actually_run_on_workers() {
        let pool = Pool::new(2);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        pool.scoped(|scope| {
            for _ in 0..8 {
                scope.execute(|| {
                    seen.lock().unwrap().push(std::thread::current().id());
                });
            }
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 8);
        assert!(seen.iter().all(|&id| id != caller));
    }

    #[test]
    fn scoped_joins_before_returning() {
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        pool.scoped(|scope| {
            for _ in 0..64 {
                scope.execute(|| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        // If scoped returned early this would race; joining makes it exact.
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panicking_job_propagates_after_join() {
        let pool = Pool::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                for i in 0..6 {
                    let finished = finished.clone();
                    scope.execute(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must re-panic");
        // All non-panicking siblings still ran to completion first.
        assert_eq!(finished.load(Ordering::SeqCst), 5);
        // The pool survives a panicked scope and keeps working.
        let out = pool.map(vec![1, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn caller_panic_after_execute_still_joins_queued_jobs() {
        // Regression: `scoped` used to skip the join when the user closure
        // panicked after queueing, letting jobs that borrow the caller's
        // stack outlive it. The borrows below are only sound if the scope
        // joins on the panic path.
        let pool = Pool::new(2);
        let data = vec![7u8; 4096];
        let sums = Mutex::new(Vec::new());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                for _ in 0..16 {
                    scope.execute(|| {
                        // Borrows `data` and `sums` from this frame.
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        let s: u64 = data.iter().map(|&b| b as u64).sum();
                        sums.lock().unwrap().push(s);
                    });
                }
                panic!("caller panics with jobs still queued");
            });
        }));
        assert!(result.is_err(), "caller panic must propagate");
        // Every job ran to completion against live borrows first.
        let sums = sums.into_inner().unwrap();
        assert_eq!(sums.len(), 16);
        assert!(sums.iter().all(|&s| s == 7 * 4096));
    }

    #[test]
    fn nested_submission_to_same_pool_runs_inline_not_deadlocks() {
        // A job that maps on its own pool would deadlock if its children
        // were queued (all workers can be stuck joining); nested jobs run
        // inline on the worker instead.
        let pool = Pool::new(2);
        let outer: Vec<u64> = (0..8).collect();
        let out = pool.map(outer, |_, x| {
            let inner: Vec<u64> = (0..50).collect();
            pool.map(inner, |_, y| y * x).iter().sum::<u64>()
        });
        let expected: Vec<u64> = (0..8).map(|x| x * (0..50).sum::<u64>()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn nested_job_panic_still_propagates() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0u8; 4], |i, _| {
                pool.scoped(|scope| {
                    scope.execute(move || {
                        if i == 2 {
                            panic!("inner boom");
                        }
                    });
                });
            })
        }));
        assert!(result.is_err(), "nested panic must surface to the caller");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![5], |_, x| x * 2), vec![10]);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = global() as *const Pool;
        let b = global() as *const Pool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn map_empty_and_single() {
        let pool = Pool::new(4);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map(empty, |_, x| x).is_empty());
        assert_eq!(pool.map(vec![9], |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn bounded_pool_runs_submitted_jobs() {
        let svc = Pool::bounded("test-svc", 2, 16);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let counter = counter.clone();
            svc.try_submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(svc); // drains the queue and joins the workers
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn bounded_pool_refuses_work_beyond_capacity() {
        let svc = Pool::bounded("test-svc-full", 1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Block the lone worker so subsequent jobs stay queued.
        {
            let gate = gate.clone();
            svc.try_submit(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        }
        // Wait until the worker picked up the blocking job.
        while svc.queued() > 0 {
            std::thread::yield_now();
        }
        svc.try_submit(|| {}).unwrap();
        svc.try_submit(|| {}).unwrap();
        assert_eq!(svc.try_submit(|| {}), Err(QueueFull));
        assert_eq!(svc.queued(), 2);
        // Release the worker; the queue drains and capacity frees up.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        while svc.queued() > 0 {
            std::thread::yield_now();
        }
        svc.try_submit(|| {}).unwrap();
    }

    #[test]
    fn bounded_pool_survives_panicking_jobs() {
        let svc = Pool::bounded("test-svc-panic", 1, 8);
        let done = Arc::new(AtomicU64::new(0));
        svc.try_submit(|| panic!("job boom")).unwrap();
        let d = done.clone();
        svc.try_submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        drop(svc);
        assert_eq!(
            done.load(Ordering::SeqCst),
            1,
            "worker must outlive a panic"
        );
    }

    #[test]
    fn pooled_jobs_parent_under_the_submitting_span() {
        // Regression: block codec spans used to be orphaned because the
        // thread-local parent stack does not cross into pool workers.
        // `Scope::execute` now carries the submitting context into the job.
        let _serial = obs::metrics::test_lock();
        obs::set_enabled(true);
        obs::trace::clear_subscribers();
        let rec = Arc::new(obs::trace::RingBufferRecorder::new(64));
        obs::trace::add_subscriber(rec.clone());
        let pool = Pool::new(2);
        let outer = obs::trace::span("pool.test.transfer");
        let outer_id = outer.id();
        pool.map(vec![0u8; 4], |_, _| {
            drop(obs::trace::span("pool.test.block"));
        });
        drop(outer);
        obs::trace::clear_subscribers();
        // In a no-op obs build the span id is 0 and nothing is recorded.
        if outer_id != 0 {
            let block_parents: Vec<Option<u64>> = rec
                .events()
                .iter()
                .filter_map(|e| match e {
                    obs::trace::Event::Span { name, parent, .. } if *name == "pool.test.block" => {
                        Some(*parent)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(block_parents.len(), 4);
            assert!(
                block_parents.iter().all(|p| *p == Some(outer_id)),
                "{block_parents:?}"
            );
        }
    }
}
