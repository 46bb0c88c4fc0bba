//! A hand-rolled scoped-thread worker pool.
//!
//! The container has no rayon, so this is the workspace's shared fan-out
//! primitive: a fixed set of persistent worker threads fed through an
//! MPMC channel, with two submission APIs:
//!
//! * [`WorkerPool::submit`] — fire-and-forget `'static` jobs;
//! * [`WorkerPool::scope`] — structured fan-out of jobs that *borrow*
//!   from the caller's stack (rayon-`scope`-style). The scope blocks
//!   until every spawned job finished, which is what makes the borrows
//!   sound; while blocked, the scoping thread *helps* by draining jobs
//!   from the pool's queue, so nested scopes (a scoped job opening its
//!   own scope) cannot deadlock even on a single-worker pool.
//!
//! [`WorkerPool::map`] is the convenience built on top: apply a function
//! to a slice in parallel, results in input order.
//!
//! The API is deliberately engine-agnostic: the forecast engine fans
//! simulation batches out through it, and the HTTP front end runs its
//! request handlers on it. See the crate docs for the determinism
//! contract, panic propagation and help-while-wait semantics.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Span};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's always-on instruments. Handles are `Arc`-shared: clone
/// freely, or adopt into a [`MetricsRegistry`] via
/// [`WorkerPool::register_metrics`].
#[derive(Clone, Default, Debug)]
pub struct PoolMetrics {
    /// Jobs enqueued and not yet started (submit/spawn increments,
    /// dequeue — by a worker or a helping scope — decrements).
    pub queue_depth: Gauge,
    /// Per-job service time in nanoseconds (execution only, queue wait
    /// excluded).
    pub service_time_ns: Histogram,
    /// Job panics swallowed by the pool (fault-injection observability:
    /// chaos tests assert workers survived exactly the injected panics).
    pub panics_caught: Counter,
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    rx: Receiver<Job>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    metrics: PoolMetrics,
}

impl WorkerPool {
    /// Spawns `size` worker threads (clamped to at least 1).
    pub fn new(size: usize) -> WorkerPool {
        let size = size.max(1);
        let (tx, rx) = channel::unbounded::<Job>();
        let metrics = PoolMetrics::default();
        let workers = (0..size)
            .map(|i| {
                let rx = rx.clone();
                let metrics = metrics.clone();
                std::thread::Builder::new()
                    .name(format!("exec-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            metrics.queue_depth.dec();
                            let span = Span::start(&metrics.service_time_ns);
                            // A panicking job must not take the worker
                            // down; scopes observe the panic through
                            // their own wrapper (see `Scope::spawn`).
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                metrics.panics_caught.inc();
                            }
                            drop(span);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { tx: Some(tx), rx, workers, size, metrics }
    }

    /// A pool sized to the machine: `available_parallelism`, at least 1.
    pub fn with_default_size() -> WorkerPool {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        WorkerPool::new(n)
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Lifetime count of job panics the pool absorbed (workers survive
    /// every one of them; scoped jobs additionally re-raise at the scope).
    pub fn panics_caught(&self) -> u64 {
        self.metrics.panics_caught.get()
    }

    /// The pool's instrument handles (cheap `Arc` clones inside).
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// Adopts the pool's instruments into `registry` under the
    /// canonical `pool_*` metric names.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_gauge(
            "pool_queue_depth",
            "Jobs enqueued on the worker pool and not yet started.",
            &[],
            &self.metrics.queue_depth,
        );
        registry.adopt_histogram(
            "pool_job_service_ns",
            "Worker-pool job service time (execution only), nanoseconds.",
            &[],
            &self.metrics.service_time_ns,
        );
        registry.adopt_counter(
            "pool_panics_caught_total",
            "Job panics absorbed by the worker pool.",
            &[],
            &self.metrics.panics_caught,
        );
    }

    fn sender(&self) -> &Sender<Job> {
        self.tx.as_ref().expect("sender live until drop")
    }

    /// Enqueues a `'static` job. Panics in the job are swallowed (the
    /// worker survives); use [`WorkerPool::scope`] when the caller needs
    /// completion or panic propagation.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.metrics.queue_depth.inc();
        let sent = self.sender().send(Box::new(job));
        assert!(sent.is_ok(), "workers alive while pool alive");
    }

    /// Runs `f` with a [`Scope`] through which jobs borrowing from the
    /// current stack frame can be spawned onto the pool. All spawned jobs
    /// are guaranteed to have finished when `scope` returns — including
    /// when `f` or a job panics — which is what makes the `'env` borrows
    /// sound. The first panicking job's payload is re-raised here.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            cv: Condvar::new(),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: std::marker::PhantomData,
        };

        // Join in a drop guard so an unwinding `f` still waits for its
        // jobs before the borrowed frame is torn down.
        struct WaitGuard<'p> {
            pool: &'p WorkerPool,
            state: Arc<ScopeState>,
        }
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                wait_all(self.pool, &self.state);
            }
        }

        let result = {
            let _guard = WaitGuard { pool: self, state: Arc::clone(&state) };
            f(&scope)
        };
        // All jobs joined; surface the first job panic, if any.
        let payload = state.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
        result
    }

    /// Applies `f` to every element of `items` on the pool, returning the
    /// results in input order. Work is split into one contiguous chunk
    /// per worker; panics propagate.
    pub fn map<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let chunk = n.div_ceil(self.size.min(n));
        self.scope(|s| {
            let mut rest: &mut [Option<R>] = &mut results;
            let mut base = 0;
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                let start = base;
                let f = &f;
                s.spawn(move || {
                    for (off, slot) in head.iter_mut().enumerate() {
                        *slot = Some(f(start + off, &items[start + off]));
                    }
                });
                rest = tail;
                base += take;
            }
        });
        results.into_iter().map(|r| r.expect("scope joined")).collect()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("size", &self.size).finish_non_exhaustive()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping the sender terminates the workers' recv loops.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

struct ScopeState {
    /// Jobs spawned and not yet finished.
    pending: AtomicUsize,
    /// First panic payload raised by a job of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    cv: Condvar,
}

/// Blocks until every job of `state` finished, helping by running queued
/// jobs in the meantime (nested-scope deadlock avoidance: a waiting scope
/// never idles while work is queued).
fn wait_all(pool: &WorkerPool, state: &ScopeState) {
    loop {
        if state.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        match pool.rx.try_recv() {
            Ok(job) => {
                pool.metrics.queue_depth.dec();
                let span = Span::start(&pool.metrics.service_time_ns);
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    pool.metrics.panics_caught.inc();
                }
                drop(span);
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {
                // Nothing to steal; sleep until a job completion pokes
                // the condvar (the timeout guards the tiny window between
                // the pending check and the wait).
                let guard = state.panic.lock().unwrap_or_else(|e| e.into_inner());
                if state.pending.load(Ordering::SeqCst) == 0 {
                    return;
                }
                let _ = state
                    .cv
                    .wait_timeout(guard, Duration::from_millis(1))
                    .map(|(g, _)| drop(g));
            }
        }
    }
}

/// Spawn handle passed to [`WorkerPool::scope`] closures. Jobs spawned
/// through it may borrow anything that outlives the scope (`'env`).
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// `'env` is invariant: a scope must not be coerced to a longer or
    /// shorter borrow environment.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a job that may borrow from the environment (`'env`). The
    /// job runs on a pool worker (or on the scoping thread itself while
    /// it waits). Panics are captured and re-raised by the owning
    /// `scope` call.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let panics = self.pool.metrics.panics_caught.clone();
        let wrapped = move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            if let Err(payload) = result {
                panics.inc();
                let mut slot = state.panic.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last job out: wake the waiting scope. Taking the lock
                // orders the wake after the waiter's re-check.
                let _guard = state.panic.lock().unwrap_or_else(|e| e.into_inner());
                state.cv.notify_all();
            }
        };
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: the job is guaranteed to finish before `scope` returns
        // (wait_all runs in a drop guard, even on panic), so every `'env`
        // borrow it captures is live for the job's whole execution. Only
        // the lifetime is transmuted; the vtable/layout are unchanged.
        let boxed: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(boxed)
        };
        self.pool.metrics.queue_depth.inc();
        let sent = self.pool.sender().send(boxed);
        assert!(sent.is_ok(), "workers alive while pool alive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn submit_runs_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers, draining the queue
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_jobs_borrow_stack_data() {
        let pool = WorkerPool::new(3);
        let input: Vec<u64> = (0..100).collect();
        let mut partials = [0u64; 4];
        pool.scope(|s| {
            for (i, slot) in partials.iter_mut().enumerate() {
                let input = &input;
                s.spawn(move || {
                    *slot = input[i * 25..(i + 1) * 25].iter().sum();
                });
            }
        });
        assert_eq!(partials.iter().sum::<u64>(), 4950);
    }

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..37).collect();
        let out = pool.map(&items, |i, x| (i as u64) * 1000 + x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 1000 + (i as u64) * (i as u64));
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Even a single-worker pool must complete a scope spawned from
        // inside a scoped job (the waiting thread helps).
        let pool = WorkerPool::new(1);
        let pool_ref = &pool;
        let total = AtomicU64::new(0);
        pool_ref.scope(|s| {
            let total = &total;
            s.spawn(move || {
                pool_ref.scope(|inner| {
                    for _ in 0..8 {
                        inner.spawn(move || {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                total.fetch_add(100, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 108);
    }

    #[test]
    fn scope_propagates_job_panic() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("job exploded"));
                s.spawn(|| {}); // healthy sibling
            });
        }));
        assert!(result.is_err());
        // ...and the pool still works afterwards
        let sum = pool.map(&[1u64, 2, 3], |_, x| *x).iter().sum::<u64>();
        assert_eq!(sum, 6);
    }

    #[test]
    fn panics_caught_counts_absorbed_panics() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.panics_caught(), 0);
        for _ in 0..3 {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| s.spawn(|| panic!("chaos")));
            }));
        }
        assert_eq!(pool.panics_caught(), 3);
        // healthy work leaves the counter alone
        let _ = pool.map(&[1u64, 2], |_, x| *x);
        assert_eq!(pool.panics_caught(), 3);
    }

    #[test]
    fn map_propagates_panic_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&[0u32, 1, 2], |_, x| {
                if *x == 1 {
                    panic!("boom");
                }
                *x
            })
        }));
        assert!(result.is_err());
        assert_eq!(pool.map(&[5u32], |_, x| *x), vec![5]);
    }

    #[test]
    fn metrics_balance_after_drain() {
        let pool = WorkerPool::new(2);
        let metrics = pool.metrics().clone();
        for _ in 0..64 {
            pool.submit(|| {});
        }
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {});
            }
        });
        drop(pool); // joins workers, draining the queue
        assert_eq!(metrics.queue_depth.get(), 0, "every enqueue must be dequeued");
        assert_eq!(metrics.service_time_ns.count(), 80, "every job must be timed");
        assert_eq!(metrics.panics_caught.get(), 0);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = WorkerPool::new(2);
        let out = pool.scope(|_| 42);
        assert_eq!(out, 42);
        assert_eq!(pool.map::<u32, u32>(&[], |_, x| *x), Vec::<u32>::new());
    }
}
