//! # forecast — the concurrent forecast engine
//!
//! The paper's PNFS answers one query by building a fresh flow-level
//! simulation and running it on the calling thread. That is fine for a
//! demo and hopeless for a service: under concurrent traffic every HTTP
//! worker burns CPU rebuilding identical scaffolding and re-simulating
//! identical questions. This crate is the serving layer that fixes that,
//! three pieces deep:
//!
//! ## Worker pool ([`pool`], re-exported from the `exec` crate)
//!
//! A hand-rolled fixed-size pool of persistent threads (no rayon in this
//! environment) with a rayon-style *scoped* submission API, so jobs can
//! borrow request data from the caller's stack. Pool sizing defaults to
//! `available_parallelism`; simulation is CPU-bound, so more threads than
//! cores only add scheduling noise. A waiting scope *helps* by draining
//! the queue, so nested scopes cannot deadlock. The pool lives in the
//! bottom-layer `exec` crate. The engine fans batch shards and select
//! waves out through it; each simulation then runs sequentially on the
//! worker that picked it up, so the pool width bounds the threads a
//! forecast uses.
//!
//! ## Warm sessions ([`session`])
//!
//! Per-platform scaffolding that queries should not rebuild: a memoized
//! route-resolution table (endpoint pair → [`simflow::ResolvedPath`]),
//! the link-state overlay, and the *background flows* of the current
//! metrology epoch, resolved once when the data arrives. Sessions are `Arc`-shared across HTTP and
//! pool workers; the backing [`simflow::Platform`] is immutable.
//!
//! ## Epoch-keyed cache ([`cache`])
//!
//! A forecast is a pure function of `(platform, background epoch,
//! canonicalized query)`. The engine keeps a monotonic epoch counter;
//! ingesting new metrology data bumps it ([`ForecastEngine::bump_epoch`]),
//! which makes every cached entry unreachable in O(1) — no per-entry
//! invalidation to get wrong. Within an epoch, a repeated query returns
//! the memoized result, which renders to bit-identical JSON upstream.
//! Serving-time platform events (a link degrading, failing or
//! recovering — [`ForecastEngine::link_event`]) deliberately avoid that
//! hammer: keys also carry a route-footprint digest and only entries
//! whose routes the event can touch are invalidated, while disjoint
//! queries keep hitting ([`cache`] module docs have the full contract).
//!
//! ## Determinism
//!
//! Parallel execution never changes an answer: `predict` shards batches
//! into link-disjoint components (exact under max-min sharing) and
//! merges durations by request index; `select_fastest` simulates
//! hypothesis waves in parallel but *replays* the sequential
//! prune/select decision procedure over the collected makespans, so the
//! winner and pruned set always match the sequential reference
//! implementation (`pilgrim_core::Pnfs::select_fastest_reference`).

//! ## Singleflight and degraded serving
//!
//! Concurrent duplicate requests are *coalesced* ([`engine`] module
//! docs): one leader simulates, followers share its `Arc`'d result —
//! panic-safe, counted, and bit-identical by the determinism contract.
//! With a nonzero [`EngineConfig::stale_retention`] the cache keeps a
//! few trailing epochs so an overloaded server can answer from slightly
//! stale forecasts instead of shedding, and [`faults`] provides the
//! seed-deterministic fault injection the chaos tests drive all of this
//! with.

pub mod cache;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod session;

/// The worker pool lives in the bottom-layer [`exec`] crate, shared with
/// the HTTP front end in `pilgrim-core`; this alias keeps the historical
/// `forecast::pool` paths working.
pub use exec::pool;

pub use cache::{CacheKey, CachedResult, ForecastCache};
pub use engine::{EngineConfig, ForecastEngine, ForecastError, Selection, TransferSpec};
pub use exec::{Scope, WorkerPool};
pub use metrics::{ForecastMetrics, KernelCounters};
pub use faults::{Fault, FaultInjector, FaultPlan};
pub use session::{BackgroundFlow, LinkState, ResolvedSpec, Session};
