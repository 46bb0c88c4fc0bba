//! The kernel sizes each simulation by the resources its works touch: it
//! renumbers the platform-wide resource ids its works, platform events,
//! down marks and capacity scalings name into dense local ids before the
//! run. These tests pin that renumbering against a from-scratch event
//! loop that solves a one-shot [`SharingProblem`] over the **full,
//! uncompacted** id space at every instant.
//!
//! Flows cross resources scattered over a platform of a few thousand
//! links; capacity events and down marks hit touched and untouched
//! resources alike, under both dead-route policies. Completions and
//! traces must match the reference **bit for bit**. Two choices make
//! that exact rather than ulp-close: flow weights are powers of two, so
//! the solver's delta-maintained `Σ 1/w` sums carry no rounding, and the
//! reference settles work lazily, exactly like the kernel (only when a
//! rate changes, with one finish prediction per rate).

use proptest::prelude::*;
use simflow::model::SharingProblem;
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::RoutingKind;
use simflow::{
    DeadRoutePolicy, HostId, NetworkConfig, Platform, PlatformEventKind, ResolvedPath,
    SharingPolicy, SimError, SimTime, Simulation, TraceEvent,
};

const LINKS: usize = 3000;
const HOSTS: usize = 4;

/// `LINKS` unrouted links of assorted bandwidths plus `HOSTS` hosts:
/// resource ids `0..LINKS` are links, `LINKS..LINKS + HOSTS` host CPUs.
fn wide_platform() -> Platform {
    let mut b = PlatformBuilder::new("wide", RoutingKind::Full);
    let root = b.root_zone();
    for h in 0..HOSTS {
        b.add_host(root, &format!("h{h}"), 2e5 * (h + 1) as f64);
    }
    for i in 0..LINKS {
        b.add_link(&format!("l{i}"), 1e5 * (1 + i % 7) as f64, 0.0, SharingPolicy::Shared);
    }
    b.build().expect("valid platform")
}

/// One randomized schedule over platform-wide resource ids.
#[derive(Clone, Debug)]
struct Schedule {
    /// `(start, size, path)` per job; every path is non-empty and free of
    /// duplicate resources.
    jobs: Vec<(f64, f64, ResolvedPath)>,
    /// Pre-run capacity scalings.
    scaled: Vec<(u32, f64)>,
    /// Pre-run down marks.
    down: Vec<u32>,
    /// `(at, resource, kind)`, scheduled after every job.
    events: Vec<(f64, u32, PlatformEventKind)>,
}

/// The comparable outcome of a run: per job `(finish bits, failed)` and
/// the trace as `(tag, id, at bits, value bits)`, or the stall instant.
type Outcome = Result<(Vec<(u64, bool)>, Vec<(u8, u32, u64, u64)>), u64>;

fn path(resources: Vec<u32>, weight: f64, cap: f64) -> ResolvedPath {
    ResolvedPath { resources, weight, cap, latency: 0.0, delay: 0.0, bottleneck: f64::INFINITY }
}

/// Builds a schedule from raw integers. Jobs draw their routes from a
/// small pool of scattered ids, so they share resources and form
/// components; events and marks target either a pool resource or an
/// arbitrary (usually untouched) one.
fn schedule(
    pool: &[u32],
    jobs: &[(u32, u32, u32, u32, u32)],
    marks: &[(u32, u32, u32)],
    events: &[(u32, u32, u32, u32)],
) -> Schedule {
    let nr = (LINKS + HOSTS) as u32;
    let pool: Vec<u32> = pool.iter().map(|&r| r % nr).collect();
    let target =
        |t: u32| if t.is_multiple_of(2) { pool[(t / 2) as usize % pool.len()] } else { t % nr };
    let jobs = jobs
        .iter()
        .map(|&(start, size, picks, weight, cap)| {
            let mut route: Vec<u32> = Vec::new();
            for k in 0..1 + picks % 3 {
                let r = pool[((picks >> (4 * k)) as usize) % pool.len()];
                if !route.contains(&r) {
                    route.push(r);
                }
            }
            let weight = [1.0, 0.5, 0.25, 2.0][weight as usize % 4];
            let cap = if cap.is_multiple_of(3) { 1e4 * (1 + cap) as f64 } else { f64::INFINITY };
            (start as f64 * 0.25, size as f64 * 1e3, path(route, weight, cap))
        })
        .collect();
    let mut scaled = Vec::new();
    let mut down = Vec::new();
    for &(kind, t, factor) in marks {
        if kind.is_multiple_of(2) {
            scaled.push((target(t), factor as f64 / 4.0));
        } else {
            down.push(target(t));
        }
    }
    let events = events
        .iter()
        .map(|&(slot, t, kind, factor)| {
            let kind = match kind % 3 {
                0 => PlatformEventKind::Capacity(factor as f64 / 4.0),
                1 => PlatformEventKind::Down,
                _ => PlatformEventKind::Up,
            };
            (slot as f64 * 0.25, target(t), kind)
        })
        .collect();
    Schedule { jobs, scaled, down, events }
}

fn trace_key(e: &TraceEvent) -> (u8, u32, u64, u64) {
    match e {
        TraceEvent::Started { id, at } => (0, id.0, at.as_secs().to_bits(), 0),
        TraceEvent::RateChanged { id, at, rate } => {
            (1, id.0, at.as_secs().to_bits(), rate.to_bits())
        }
        TraceEvent::Finished { id, at } => (2, id.0, at.as_secs().to_bits(), 0),
        TraceEvent::PlatformChanged { resource, at, capacity } => {
            (3, *resource, at.as_secs().to_bits(), capacity.to_bits())
        }
    }
}

/// Runs the kernel on `s`.
fn kernel_run(p: &Platform, s: &Schedule, policy: DeadRoutePolicy, warm: bool) -> (Outcome, u64) {
    let (a, b): (HostId, HostId) = {
        let hosts: Vec<_> = p.hosts().collect();
        (hosts[0], hosts[1])
    };
    let mut sim = Simulation::new(p, NetworkConfig::ideal());
    sim.set_warm_start(warm);
    sim.set_dead_route_policy(policy);
    for (start, size, path) in &s.jobs {
        sim.add_transfer_resolved(a, b, *size, SimTime::from_secs(*start), path);
    }
    for &(r, f) in &s.scaled {
        sim.scale_resource_capacity(r, f);
    }
    for &r in &s.down {
        sim.mark_resource_down(r);
    }
    for &(at, r, kind) in &s.events {
        sim.add_platform_event(r, kind, SimTime::from_secs(at));
    }
    match sim.run_traced() {
        Ok((report, trace)) => {
            let done = report
                .completions
                .iter()
                .map(|c| (c.finish.as_secs().to_bits(), c.failed()))
                .collect();
            (Ok((done, trace.events.iter().map(trace_key).collect())), report.stats.resources)
        }
        Err(SimError::Stalled { at }) => (Err(at.to_bits()), 0),
        Err(e) => panic!("unexpected kernel error {e}"),
    }
}

/// The from-scratch reference: the kernel's event semantics (same-instant
/// order: completions by id, then starts and platform events in
/// scheduling order, then one reshare) with a one-shot [`SharingProblem`]
/// over every platform resource at each instant.
fn reference_run(p: &Platform, s: &Schedule, policy: DeadRoutePolicy) -> Outcome {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Sched,
        Run,
        Done,
    }
    enum Item {
        Start(usize),
        Platform(u32, PlatformEventKind),
    }
    let cfg = NetworkConfig::ideal();
    let nr = p.link_count() + p.host_count();
    let mut base: Vec<f64> =
        (0..nr as u32).map(|r| Simulation::nominal_capacity(p, &cfg, r)).collect();
    for &(r, f) in &s.scaled {
        base[r as usize] *= f;
    }
    let mut factor = vec![1.0f64; nr];
    let mut down = vec![false; nr];
    for &r in &s.down {
        down[r as usize] = true;
    }
    let mut cap: Vec<f64> = (0..nr).map(|r| if down[r] { 0.0 } else { base[r] }).collect();

    // The kernel's event queue: by time, then scheduling order (every
    // job's start was scheduled before every platform event).
    let mut queue: Vec<(f64, Item)> =
        s.jobs.iter().enumerate().map(|(i, j)| (j.0, Item::Start(i))).collect();
    queue.extend(s.events.iter().map(|&(at, r, k)| (at, Item::Platform(r, k))));
    queue.sort_by(|x, y| x.0.total_cmp(&y.0)); // stable: ties keep scheduling order

    let n = s.jobs.len();
    let tol: Vec<f64> = s.jobs.iter().map(|j| 1e-9 * j.1.max(1.0) + 1e-6).collect();
    let mut st = vec![St::Sched; n];
    let mut remaining: Vec<f64> = s.jobs.iter().map(|j| j.1).collect();
    let mut rate = vec![0.0f64; n];
    let mut last = vec![0.0f64; n];
    let mut due: Vec<Option<f64>> = vec![None; n];
    let mut finish = vec![0.0f64; n];
    let mut failed = vec![false; n];
    let mut trace: Vec<(u8, u32, u64, u64)> = Vec::new();
    let (mut qi, mut now, mut left) = (0usize, 0.0f64, n);
    let crosses = |i: usize, r: u32| s.jobs[i].2.resources.contains(&r);

    while left > 0 {
        let next_event = queue.get(qi).map(|q| q.0);
        let next_done =
            (0..n).filter(|&i| st[i] == St::Run).filter_map(|i| due[i]).reduce(f64::min);
        now = match (next_event, next_done) {
            (Some(e), Some(d)) => e.min(d),
            (Some(e), None) => e,
            (None, Some(d)) => d,
            (None, None) => return Err(now.to_bits()),
        };
        // Ends job `i` at `now`, completed or failed.
        macro_rules! finish {
            ($i:expr, $failed:expr) => {{
                let i = $i;
                st[i] = St::Done;
                failed[i] = $failed;
                finish[i] = now;
                left -= 1;
                trace.push((2, i as u32, now.to_bits(), 0));
            }};
        }
        for i in 0..n {
            if st[i] == St::Run && due[i].is_some_and(|t| t <= now) {
                finish!(i, false);
            }
        }
        while qi < queue.len() && queue[qi].0 <= now {
            match queue[qi].1 {
                Item::Start(i) => {
                    trace.push((0, i as u32, now.to_bits(), 0));
                    let dead = s.jobs[i].2.resources.iter().any(|&r| down[r as usize]);
                    if policy == DeadRoutePolicy::Fail && dead {
                        finish!(i, true);
                    } else {
                        st[i] = St::Run;
                        last[i] = now;
                    }
                }
                Item::Platform(r, kind) => {
                    let ri = r as usize;
                    let (new_cap, kill) = match kind {
                        PlatformEventKind::Capacity(f) => {
                            factor[ri] = f;
                            (if down[ri] { None } else { Some(base[ri] * f) }, false)
                        }
                        PlatformEventKind::Down if !down[ri] => {
                            down[ri] = true;
                            (Some(0.0), policy == DeadRoutePolicy::Fail)
                        }
                        PlatformEventKind::Up if down[ri] => {
                            down[ri] = false;
                            (Some(base[ri] * factor[ri]), false)
                        }
                        _ => (None, false),
                    };
                    if let Some(c) = new_cap {
                        cap[ri] = c;
                        trace.push((3, r, now.to_bits(), c.to_bits()));
                        if kill {
                            for i in 0..n {
                                if st[i] == St::Run && crosses(i, r) {
                                    finish!(i, true);
                                }
                            }
                        }
                    }
                }
            }
            qi += 1;
        }

        let mut problem = SharingProblem::with_capacities(cap.clone());
        let running: Vec<usize> = (0..n).filter(|&i| st[i] == St::Run).collect();
        for &i in &running {
            let path = &s.jobs[i].2;
            problem.add_flow(path.resources.clone(), path.weight, path.cap);
        }
        let rates = problem.solve();
        for (slot, &i) in running.iter().enumerate() {
            let new_rate = rates[slot];
            if new_rate == rate[i] {
                continue;
            }
            let dt = now - last[i];
            if dt > 0.0 && rate[i] > 0.0 {
                remaining[i] = if rate[i].is_infinite() {
                    0.0
                } else {
                    (remaining[i] - rate[i] * dt).max(0.0)
                };
            }
            last[i] = now;
            rate[i] = new_rate;
            due[i] = if remaining[i] <= tol[i] || new_rate.is_infinite() {
                Some(now)
            } else if new_rate > 0.0 {
                Some(now + remaining[i] / new_rate)
            } else {
                None
            };
            trace.push((1, i as u32, now.to_bits(), new_rate.to_bits()));
        }
    }
    Ok((finish.iter().zip(&failed).map(|(f, &x)| (f.to_bits(), x)).collect(), trace))
}

/// The distinct resources `s` names — what the kernel must size by.
fn named_resources(s: &Schedule) -> u64 {
    let mut ids: Vec<u32> = s.jobs.iter().flat_map(|j| j.2.resources.iter().copied()).collect();
    ids.extend(s.scaled.iter().map(|m| m.0));
    ids.extend(&s.down);
    ids.extend(s.events.iter().map(|e| e.1));
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u64
}

fn check(p: &Platform, s: &Schedule, policy: DeadRoutePolicy) {
    let want = reference_run(p, s, policy);
    for warm in [false, true] {
        let (got, resources) = kernel_run(p, s, policy, warm);
        assert_eq!(got, want, "kernel diverges from the full-id-space reference (warm={warm})");
        if got.is_ok() {
            assert_eq!(resources, named_resources(s), "solver not sized by the named resources");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Capacity events, down/up events and pre-run marks on scattered
    /// ids: the compacted kernel equals the full-id-space reference bit
    /// for bit under both dead-route policies.
    #[test]
    fn sparse_ids_match_full_space_reference(
        pool in proptest::collection::vec(0u32..100_000, 6..10),
        jobs in proptest::collection::vec(
            (0u32..12, 1u32..100_000, 0u32..4096, 0u32..4, 0u32..9),
            1..9,
        ),
        marks in proptest::collection::vec((0u32..2, 0u32..100_000, 0u32..16), 0..4),
        events in proptest::collection::vec((0u32..16, 0u32..100_000, 0u32..3, 0u32..16), 0..10),
    ) {
        let p = wide_platform();
        let s = schedule(&pool, &jobs, &marks, &events);
        check(&p, &s, DeadRoutePolicy::Fail);
        check(&p, &s, DeadRoutePolicy::Stall);
    }
}

/// Events and marks only on resources no flow crosses: the trace records
/// every platform change under its platform-wide id, and the flows run
/// exactly as on a pristine platform.
#[test]
fn untouched_resources_keep_platform_ids() {
    let p = wide_platform();
    let last_host = (LINKS + HOSTS - 1) as u32;
    let s = Schedule {
        jobs: vec![
            (0.0, 4e5, path(vec![2999, 17], 1.0, f64::INFINITY)),
            (0.5, 2e5, path(vec![17, 1500], 0.5, f64::INFINITY)),
        ],
        scaled: vec![(2500, 0.5)],
        down: vec![42],
        events: vec![
            (0.25, 2500, PlatformEventKind::Capacity(2.0)),
            (0.75, last_host, PlatformEventKind::Down),
            (1.0, 42, PlatformEventKind::Up),
        ],
    };
    let pristine = Schedule { scaled: vec![], down: vec![], events: vec![], ..s.clone() };
    for policy in [DeadRoutePolicy::Fail, DeadRoutePolicy::Stall] {
        check(&p, &s, policy);
        let (got, resources) = kernel_run(&p, &s, policy, true);
        let (done, trace) = got.expect("no stall");
        let changed: Vec<u32> = trace.iter().filter(|e| e.0 == 3).map(|e| e.1).collect();
        assert_eq!(changed, vec![2500, last_host, 42]);
        assert_eq!(resources, 6, "three route resources plus three named by marks and events");
        let (plain, _) = kernel_run(&p, &pristine, policy, true);
        assert_eq!(done, plain.expect("no stall").0, "untouched resources changed the flows");
    }
}
