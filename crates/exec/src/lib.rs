//! # exec — the workspace's shared execution layer
//!
//! The bottom-most concurrency crate: `forecast`'s simulation fan-out
//! (batch shards and select waves) and `pilgrim-core`'s HTTP workers run
//! their jobs on the [`WorkerPool`] defined here. The simulation kernel
//! itself is sequential: a simulation runs on whichever worker picked up
//! its job.
//!
//! ## Determinism contract
//!
//! The pool schedules *when and where* a job runs, never *what it
//! computes*: jobs receive disjoint inputs and produce owned outputs that
//! the caller merges in a caller-chosen order ([`WorkerPool::map`]
//! returns results in input order; scoped jobs write to disjoint
//! borrows). Any algorithm whose jobs are pure functions of their inputs
//! therefore produces bit-identical results at every pool size. The
//! forecast engine relies on this contract and pins it against its
//! sequential reference in `engine_integration.rs`.
//!
//! ## Panic propagation
//!
//! A panicking job never takes a worker thread down. Fire-and-forget
//! [`WorkerPool::submit`] jobs have their panics swallowed (there is no
//! caller left to inform); jobs spawned through a [`Scope`] capture the
//! first panic payload and [`WorkerPool::scope`] re-raises it on the
//! owning thread *after* every sibling job has finished — so borrowed
//! data stays alive for stragglers and the caller observes the panic
//! exactly once, at the scope boundary.
//!
//! ## Help-while-wait
//!
//! A thread blocked in [`WorkerPool::scope`] does not idle: it drains
//! jobs from the pool's queue while waiting for its own jobs to finish.
//! This makes nested scopes deadlock-free even on a single-worker pool —
//! a scoped job may open its own scope on the same pool, and the waiting
//! thread simply executes the nested jobs itself if no worker is free.
//!
//! ## Observability
//!
//! The pool is always instrumented (see [`pool::PoolMetrics`]): a queue
//! depth gauge, a per-job service-time histogram, and the
//! `panics_caught` counter. Handles are shared atomics from the
//! `telemetry` crate — [`WorkerPool::register_metrics`] adopts them
//! into a `MetricsRegistry` for `/pilgrim/metrics` exposition.

//! ## Completion hand-back
//!
//! Event-loop consumers (the `pilgrim-core` HTTP poller) receive worker
//! results through [`handback::Handback`]: workers push finished items
//! and fire a pluggable wake callback (a pipe write, for epoll), the
//! consumer drains the batch in O(1) lock time.

pub mod handback;
pub mod pool;

pub use handback::Handback;
pub use pool::{PoolMetrics, Scope, WorkerPool};
