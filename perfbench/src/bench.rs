//! The benchmark proper: set the Pilgrim service up in-process, drive
//! it over HTTP in a closed loop, check the answers against oracles,
//! and read the counters each layer already keeps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use forecast::{EngineConfig, ResolvedSpec, Session, TransferSpec};
use g5k::{synth, to_simflow, Flavor};
use jsonlite::Value;
use pilgrim_core::http::{Handler, HttpClient, Request, Server, ServerConfig};
use pilgrim_core::{FastestSelection, Metrology, PilgrimService, Pnfs, Prediction};
use rrd::{ArchiveSpec, Cf, Database, DsKind};
use simflow::{NetworkConfig, Platform, PlatformEventKind, SimTime, Simulation};

use crate::gen::{self, LinkAction, Op, QueryKind, Stream, Workload, PLATFORM};
use crate::stats::{self, Buckets};
use crate::sys;
use crate::trace::{self, Span, SpanLog};
use crate::window::Window;

/// Fresh servers set up per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Reads kept for the oracle: one in `every` (chosen by the seed), at
/// most `cap`, as `(workload, every, cap)`.
const SAMPLE_EVERY: [(Workload, u64, usize); 3] = [
    (Workload::SelectLarge, 64, 48),
    (Workload::PredictLoaded, 32, 48),
    (Workload::ChurnMixed, 16, 4000),
];
/// Sampled reads replayed against the lower layers in the traced run.
const REPLAYS: usize = 24;
/// Failure messages kept for the report.
const MAX_MESSAGES: usize = 8;

/// Inputs generated before any server exists.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub hosts: Arc<Vec<String>>,
    pub background: Vec<TransferSpec>,
    pub claim: gen::Query,
}

fn build_platform(w: Workload) -> Platform {
    let api = match w {
        Workload::SelectLarge => synth::synthetic(gen::LARGE_HOSTS),
        _ => synth::standard(),
    };
    to_simflow(&api, Flavor::G5kTest)
}

pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let p = build_platform(workload);
    let hosts: Arc<Vec<String>> = Arc::new(p.hosts().map(|h| p.host_name(h).to_string()).collect());
    let background = match workload {
        Workload::PredictLoaded => gen::background(seed, &hosts),
        _ => Vec::new(),
    };
    let claim = gen::claim_query(seed, &hosts);
    Inputs {
        workload,
        seed,
        hosts,
        background,
        claim,
    }
}

/// One fresh server, with the time each set-up step took.
pub struct Fixture {
    pub svc: Arc<PilgrimService>,
    pub server: Server,
    pub build_s: f64,
    pub register_s: f64,
    pub setup_s: f64,
    pub cold_s: f64,
}

fn rrd_db() -> Database {
    let mut db = Database::new(
        15,
        DsKind::Gauge,
        120,
        &[ArchiveSpec {
            cf: Cf::Average,
            steps_per_row: 1,
            rows: 240,
        }],
    );
    db.update(gen::RRD_T0, 168.9)
        .expect("first update seeds the RRD");
    db
}

/// Builds the platform, registers it (installing the background), starts
/// the server and answers the claim query on the cold path.
pub fn setup(inp: &Inputs, log: Option<&Arc<SpanLog>>) -> Result<Fixture, String> {
    let t0 = Instant::now();
    let platform = build_platform(inp.workload);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform(PLATFORM, platform);
    let register_s = t1.elapsed().as_secs_f64();
    let metrology = Metrology::new();
    metrology.insert(gen::RRD_PATH, rrd_db());
    let svc = Arc::new(PilgrimService::new(metrology, pnfs));
    if !inp.background.is_empty() {
        svc.pnfs
            .engine()
            .set_background(PLATFORM, &inp.background)
            .map_err(|e| format!("background: {e}"))?;
    }
    let handler = match log {
        Some(log) => traced_handler(Arc::clone(&svc), Arc::clone(log)),
        None => PilgrimService::handler_from(Arc::clone(&svc)),
    };
    let config = ServerConfig {
        workers: inp.workload.connections(),
        ..ServerConfig::default()
    };
    let server = Server::start_with("127.0.0.1:0", config, handler, None)
        .map_err(|e| format!("server start: {e}"))?;
    let t2 = Instant::now();
    let (status, body) = HttpClient::new(server.addr())
        .get(&inp.claim.uri)
        .map_err(|e| format!("cold: {e}"))?;
    let cold_s = t2.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("cold predict answered {status}: {body}"));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Fixture {
        svc,
        server,
        build_s,
        register_s,
        setup_s,
        cold_s,
    })
}

/// The handler of the traced run: `PilgrimService::handle` inside a span
/// for every request that carries an `X-Request-Id`.
fn traced_handler(svc: Arc<PilgrimService>, log: Arc<SpanLog>) -> Handler {
    Arc::new(move |req: &Request| {
        let id = req
            .header("x-request-id")
            .and_then(|v| v.parse::<u64>().ok());
        let start_ns = id.map(|_| log.now_ns());
        let resp = svc.handle(req);
        if let (Some(request), Some(start_ns)) = (id, start_ns) {
            log.push(Span {
                id: trace::handler_span_id(request),
                parent: Some(trace::client_span_id(request)),
                request,
                name: "service.handle",
                start_ns,
                end_ns: log.now_ns(),
            });
        }
        resp
    })
}

/// An operation kept for the oracle, with a digest of the body it was
/// answered (reads only).
pub struct Kept {
    pub i: u64,
    pub op: Op,
    pub body: Option<u64>,
}

/// Digest of an answer body; the oracle compares digests.
pub fn digest(body: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// Counts completed reads and takes the peak-memory reading when the
/// count reaches `at`, so the reading always follows the same work.
pub struct Progress {
    reads: AtomicU64,
    at: u64,
    rss_mb: OnceLock<f64>,
}

impl Progress {
    pub fn new(at: u64) -> Progress {
        Progress {
            reads: AtomicU64::new(0),
            at,
            rss_mb: OnceLock::new(),
        }
    }

    fn read_done(&self) {
        if self.reads.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.rss_mb.set(sys::peak_rss_mb());
        }
    }

    /// The reading, if the run got that far.
    pub fn rss_mb(&self) -> Option<f64> {
        self.rss_mb.get().copied()
    }
}

/// One answered operation: when it completed, counted from the start of
/// the timed loop, and its round trip.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub done_ns: u64,
    pub ns: u64,
}

/// What one connection saw.
#[derive(Default)]
pub struct Tally {
    pub reads: Vec<Sample>,
    pub writes: Vec<Sample>,
    /// Reads sent with and without a request id during the traced run.
    pub traced_read_ns: Vec<u64>,
    pub untraced_read_ns: Vec<u64>,
    pub failed: u64,
    pub messages: Vec<String>,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub kept: Vec<Kept>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.reads.extend(o.reads);
        self.writes.extend(o.writes);
        self.traced_read_ns.extend(o.traced_read_ns);
        self.untraced_read_ns.extend(o.untraced_read_ns);
        self.failed += o.failed;
        for m in o.messages {
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(m);
            }
        }
        self.request_bytes += o.request_bytes;
        self.response_bytes += o.response_bytes;
        self.kept.extend(o.kept);
    }

    pub fn attempted(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64 + self.failed
    }
}

/// Issues one operation and tallies it. In the traced run every even
/// operation carries its index as `X-Request-Id` and gets a client span.
#[allow(clippy::too_many_arguments)]
fn issue(
    client: &mut HttpClient,
    origin: Instant,
    i: u64,
    op: Op,
    keep: bool,
    log: Option<&SpanLog>,
    progress: Option<&Progress>,
    t: &mut Tally,
) {
    let uri = op.uri();
    let traced = log.filter(|_| i.is_multiple_of(2));
    let id = i.to_string();
    let headers: Vec<(&str, &str)> = if traced.is_some() {
        vec![("X-Request-Id", id.as_str())]
    } else {
        Vec::new()
    };
    let start_ns = traced.map(|l| l.now_ns());
    let t0 = Instant::now();
    let answer = client.request(op.method(), &uri, &headers);
    let ns = t0.elapsed().as_nanos() as u64;
    let sample = Sample {
        done_ns: origin.elapsed().as_nanos() as u64,
        ns,
    };
    if let (Some(l), Some(start_ns)) = (traced, start_ns) {
        let end_ns = l.now_ns();
        let id = trace::client_span_id(i);
        l.push(Span {
            id,
            parent: None,
            request: i,
            name: "client",
            start_ns,
            end_ns,
        });
    }
    t.request_bytes += uri.len() as u64;
    let (status, body) = match answer {
        Ok((status, _, body)) => (status, body),
        Err(e) => return t.fail(format!("op {i} {}: {e}", op.method())),
    };
    t.response_bytes += body.len() as u64;
    let ok = status == 200 && (!op.is_write() || body.contains("\"ok\":true"));
    if !ok {
        let head: String = body.chars().take(200).collect();
        return t.fail(format!("op {i}: status {status}: {head}"));
    }
    if op.is_write() {
        t.writes.push(sample);
    } else {
        if traced.is_some() {
            t.traced_read_ns.push(ns);
        } else if log.is_some() {
            t.untraced_read_ns.push(ns);
        }
        t.reads.push(sample);
        if let Some(p) = progress {
            p.read_done();
        }
    }
    if keep {
        let body = (!op.is_write()).then(|| digest(&body));
        t.kept.push(Kept { i, op, body });
    }
}

/// CPU and steal readings taken once a second during the timed loop.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pub at: Instant,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Mark {
    pub fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu_s: sys::process_cpu_s(),
            steal_s: sys::steal_s(),
        }
    }
}

/// The next operation of a loop and its index.
type Next<'a> = Mutex<Box<dyn FnMut() -> (u64, Op) + Send + 'a>>;

/// A closed loop: `connections` keep-alive clients, each sending the
/// next operation as soon as the previous one is answered, for
/// `seconds`. Returns the merged tally and its one-second windows.
fn closed_loop(
    addr: std::net::SocketAddr,
    seconds: u64,
    connections: usize,
    next: &Next<'_>,
    keep: &(dyn Fn(u64, &Op) -> bool + Sync),
    log: Option<&SpanLog>,
    progress: Option<&Progress>,
) -> (Tally, Vec<Window>) {
    let mut marks = vec![Mark::now()];
    let origin = marks[0].at;
    let deadline = origin + Duration::from_secs(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let mut t = Tally::default();
                    while Instant::now() < deadline {
                        let (i, op) = (next.lock().expect("operation stream"))();
                        let kept = keep(i, &op);
                        issue(&mut client, origin, i, op, kept, log, progress, &mut t);
                    }
                    t
                })
            })
            .collect();
        for k in 1..=seconds {
            let at = origin + Duration::from_secs(k);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            marks.push(Mark::now());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    let mut windows: Vec<Window> = marks
        .windows(2)
        .map(|m| Window {
            secs: (m[1].at - m[0].at).as_secs_f64(),
            cpu_s: m[1].cpu_s - m[0].cpu_s,
            steal_s: m[1].steal_s - m[0].steal_s,
            ..Window::default()
        })
        .collect();
    // Window k spans marks k to k+1; an operation answered after the last
    // mark belongs to no window.
    let bounds: Vec<u64> = marks
        .iter()
        .map(|m| (m.at - origin).as_nanos() as u64)
        .collect();
    for (list, is_read) in [(&all.reads, true), (&all.writes, false)] {
        for s in list {
            let k = bounds.partition_point(|&b| b <= s.done_ns);
            if let Some(w) = k.checked_sub(1).and_then(|k| windows.get_mut(k)) {
                if is_read {
                    w.reads.push(s.ns)
                } else {
                    w.writes.push(s.ns)
                }
            }
        }
    }
    (all, windows)
}

/// The timed loop of a workload. Keeps every write and a seeded sample
/// of reads for the oracle.
pub fn drive(
    inp: &Inputs,
    addr: std::net::SocketAddr,
    seconds: u64,
    log: Option<&SpanLog>,
    progress: &Progress,
) -> (Tally, Vec<Window>) {
    let mut stream = Stream::new(inp.workload, inp.seed, Arc::clone(&inp.hosts));
    let next: Next<'_> = Mutex::new(Box::new(move || stream.next_op()));
    let (every, cap) = sample_rule(inp.workload);
    let keep = |i: u64, op: &Op| op.is_write() || gen::sampled(inp.seed, i, every);
    let connections = inp.workload.connections();
    let (mut all, windows) = closed_loop(
        addr,
        seconds,
        connections,
        &next,
        &keep,
        log,
        Some(progress),
    );
    all.kept.sort_by_key(|k| k.i);
    // Cap the sampled reads; writes stay, the churn oracle replays them all.
    let mut reads = 0;
    all.kept.retain(|k| {
        reads += usize::from(!k.op.is_write());
        k.op.is_write() || reads <= cap
    });
    (all, windows)
}

fn sample_rule(w: Workload) -> (u64, usize) {
    let &(_, every, cap) = SAMPLE_EVERY
        .iter()
        .find(|(x, ..)| *x == w)
        .expect("every workload");
    (every, cap)
}

/// Length of the read-only workloads' write phase.
pub const TAIL_SECONDS: u64 = 3;

/// The read-only workloads' write phase, after the timed reads:
/// metrology pushes on one connection for [`TAIL_SECONDS`].
pub fn write_tail(inp: &Inputs, addr: std::net::SocketAddr) -> (Tally, Vec<Window>) {
    let mut j = 0;
    let next: Next<'_> = Mutex::new(Box::new(move || {
        j += 1;
        (j - 1, gen::tail_op(inp.seed, j - 1))
    }));
    closed_loop(addr, TAIL_SECONDS, 1, &next, &|_, _| false, None, None)
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

fn predictions_json(preds: &[Prediction]) -> String {
    Value::Array(preds.iter().map(Prediction::to_json).collect()).to_string()
}

fn selection_json(sel: &FastestSelection) -> String {
    Value::object(vec![
        ("best", Value::from(sel.best as i64)),
        ("makespan", Value::from(sel.best_makespan)),
        (
            "predictions",
            Value::Array(sel.predictions.iter().map(Prediction::to_json).collect()),
        ),
        (
            "pruned",
            Value::Array(sel.pruned.iter().map(|&i| Value::from(i as i64)).collect()),
        ),
    ])
    .to_string()
}

/// One monolithic simulation of `background` plus `specs`, all starting
/// at t=0 — what the engine's sharded, warm path must equal bit for bit.
fn monolithic(
    p: &Platform,
    background: &[TransferSpec],
    specs: &[TransferSpec],
) -> Result<Vec<Prediction>, String> {
    let mut sim = Simulation::new(p, NetworkConfig::default());
    let host = |n: &str| p.host_by_name(n).ok_or_else(|| format!("unknown host {n}"));
    for b in background {
        sim.add_transfer_at(host(&b.src)?, host(&b.dst)?, b.size, SimTime::ZERO)
            .map_err(|e| e.to_string())?;
    }
    let mut ids = Vec::with_capacity(specs.len());
    for s in specs {
        ids.push(
            sim.add_transfer_at(host(&s.src)?, host(&s.dst)?, s.size, SimTime::ZERO)
                .map_err(|e| e.to_string())?,
        );
    }
    let report = sim.run().map_err(|e| e.to_string())?;
    Ok(specs
        .iter()
        .zip(ids)
        .map(|(s, id)| {
            let c = report.completion(id);
            let duration = if c.failed() {
                f64::INFINITY
            } else {
                c.duration().as_secs()
            };
            Prediction {
                src: s.src.clone(),
                dst: s.dst.clone(),
                size: s.size,
                duration,
            }
        })
        .collect())
}

fn event_kind(a: LinkAction) -> PlatformEventKind {
    match a {
        LinkAction::Factor(f) => PlatformEventKind::Capacity(f),
        LinkAction::Down => PlatformEventKind::Down,
        LinkAction::Up => PlatformEventKind::Up,
    }
}

/// Checks every kept answer; returns the number of wrong answers and up
/// to [`MAX_MESSAGES`] descriptions.
pub fn check(inp: &Inputs, fx: &Fixture, kept: &[Kept]) -> (u64, Vec<String>, usize) {
    let mut c = Checker::default();
    match inp.workload {
        Workload::SelectLarge => {
            for k in kept {
                let (Op::Read(q), Some(body)) = (&k.op, &k.body) else {
                    continue;
                };
                let QueryKind::Select(h) = &q.kind else {
                    continue;
                };
                let want = fx.svc.pnfs.select_fastest_reference(PLATFORM, h);
                c.expect(
                    k.i,
                    *body,
                    want.map(|s| selection_json(&s)).map_err(|e| e.to_string()),
                );
            }
        }
        Workload::PredictLoaded => {
            let p = fx.svc.pnfs.platform(PLATFORM).expect("registered platform");
            for k in kept {
                let (Op::Read(q), Some(body)) = (&k.op, &k.body) else {
                    continue;
                };
                let QueryKind::Predict(specs) = &q.kind else {
                    continue;
                };
                let want = monolithic(&p, &inp.background, specs);
                c.expect(k.i, *body, want.map(|p| predictions_json(&p)));
            }
        }
        Workload::ChurnMixed => {
            // A capacity-1 engine replaying the writes and the kept reads
            // in operation order: on one connection each answer has
            // exactly one correct value.
            let mut oracle = Pnfs::with_engine_config(
                NetworkConfig::default(),
                EngineConfig {
                    workers: 1,
                    cache_capacity: 1,
                    stale_retention: 0,
                },
            );
            oracle.register_platform(PLATFORM, build_platform(inp.workload));
            for k in kept {
                match (&k.op, &k.body) {
                    (Op::Link { link, action }, _) => {
                        if let Err(e) = oracle.link_event(PLATFORM, link, event_kind(*action)) {
                            c.wrong
                                .fail(format!("op {}: oracle link event failed: {e}", k.i));
                        }
                    }
                    (Op::Rrd { .. }, _) => {
                        oracle.bump_epoch();
                    }
                    (Op::Read(q), Some(body)) => {
                        let QueryKind::Predict(specs) = &q.kind else {
                            continue;
                        };
                        let want = oracle.predict(PLATFORM, specs);
                        c.expect(
                            k.i,
                            *body,
                            want.map(|p| predictions_json(&p))
                                .map_err(|e| e.to_string()),
                        );
                    }
                    (Op::Read(_), None) => {}
                }
            }
        }
    }
    (c.wrong.failed, c.wrong.messages, c.checked)
}

#[derive(Default)]
struct Checker {
    wrong: Tally,
    checked: usize,
}

impl Checker {
    fn expect(&mut self, i: u64, got: u64, want: Result<String, String>) {
        self.checked += 1;
        match want {
            Ok(w) if digest(&w) == got => {}
            Ok(w) => self
                .wrong
                .fail(format!("op {i}: answer differs from expected {w:.200}")),
            Err(e) => self.wrong.fail(format!("op {i}: oracle failed: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Counters the program already keeps
// ---------------------------------------------------------------------

/// A snapshot of the service's and server's own counters.
pub struct Snap {
    pub hits: u64,
    pub misses: u64,
    pub simulations: u64,
    pub invalidated_targeted: u64,
    pub invalidated_epoch: u64,
    pub admission: Buckets,
    pub lookup: Buckets,
    pub simulate: Buckets,
    pub render: Buckets,
    pub jobs: Buckets,
    pub queue_wait: Buckets,
    pub wakeups: u64,
    pub memo_hits: u64,
}

pub fn snap(fx: &Fixture) -> Snap {
    let e = fx.svc.pnfs.engine();
    let m = e.metrics();
    let jobs = fx.svc.registry().histogram(
        "pool_job_service_ns",
        "Worker-pool job service time (execution only), nanoseconds.",
        &[],
    );
    let queue_wait = fx.server.registry().histogram(
        "http_queue_wait_ns",
        "Accept-to-dequeue wait before a worker picked the connection up",
        &[],
    );
    let wakeups = fx.server.registry().counter(
        "epoll_wakeups_total",
        "Returns from epoll_wait in the event front end's poller loop",
        &[],
    );
    Snap {
        hits: e.cache_hits(),
        misses: e.cache_misses(),
        simulations: e.simulations(),
        invalidated_targeted: e.invalidated_targeted(),
        invalidated_epoch: e.invalidated_epoch(),
        admission: m.stage_admission.nonzero_buckets(),
        lookup: m.stage_cache_lookup.nonzero_buckets(),
        simulate: m.stage_simulate.nonzero_buckets(),
        render: m.stage_render.nonzero_buckets(),
        jobs: jobs.nonzero_buckets(),
        queue_wait: queue_wait.nonzero_buckets(),
        wakeups: wakeups.get(),
        memo_hits: m.kernel.route_memo_hits.get(),
    }
}

// ---------------------------------------------------------------------
// Replay against the lower layers (traced run)
// ---------------------------------------------------------------------

/// Kernel counts of the replayed simulations.
#[derive(Default)]
pub struct KernelTally {
    pub runs: u64,
    pub flows: u64,
    pub reshares: u64,
    pub calendar_pops: u64,
    pub components: u64,
    pub levels_replayed: u64,
    pub levels_attempted: u64,
    pub horizon_sum: f64,
    pub calendar_peak: u64,
    pub warm_bytes: u64,
    pub pruned: u64,
    pub hypotheses: u64,
}

/// Runs the engine's own decomposition of one batch — resolution, batch
/// labelling, one simulation per component that holds a request — through
/// public calls, each in its own span under `root`.
fn replay_batch(
    log: &SpanLog,
    root: u64,
    i: u64,
    session: &Session,
    specs: &[TransferSpec],
    label: bool,
    k: &mut KernelTally,
) -> Result<(), String> {
    let mut resolved: Vec<ResolvedSpec> = Vec::with_capacity(specs.len());
    for s in specs {
        let (r, _) = log.time(Some(root), i, "session.resolve_spec", || {
            session.resolve_spec(s)
        });
        resolved.push(r.map_err(|e| e.to_string())?);
    }
    let platform = session.platform();
    for r in &resolved {
        let (route, _) = log.time(Some(root), i, "platform.route", || {
            platform.route_hosts(r.src, r.dst)
        });
        route.map_err(|e| format!("{e:?}"))?;
    }
    let (background, groups) = if label {
        let lists: Vec<&[u32]> = resolved
            .iter()
            .map(|r| r.path.resources.as_slice())
            .collect();
        let ((background, comp), _) = log.time(Some(root), i, "session.label_batch", || {
            session.label_batch(&lists)
        });
        let n_bg = background.len();
        let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
        let mut groups: Vec<(Vec<usize>, Vec<usize>)> = vec![(Vec::new(), Vec::new()); n_comp];
        for (item, &c) in comp.iter().enumerate() {
            if item < n_bg {
                groups[c].0.push(item);
            } else {
                groups[c].1.push(item - n_bg);
            }
        }
        groups.retain(|g| !g.1.is_empty());
        (background, groups)
    } else {
        let background = session.background();
        let all = (
            (0..background.len()).collect(),
            (0..resolved.len()).collect(),
        );
        (background, vec![all])
    };
    for (bg_idx, spec_idx) in &groups {
        let (d, _) = log.time(Some(root), i, "session.simulate_subset", || {
            session.simulate_subset(&background, bg_idx, &resolved, spec_idx)
        });
        d.map_err(|e| e.to_string())?;
        let mut sim = session.simulation();
        for &b in bg_idx {
            let b = &background[b];
            sim.add_transfer_resolved(b.src, b.dst, b.size, SimTime::ZERO, &b.path);
        }
        let ids: Vec<_> = spec_idx
            .iter()
            .map(|&s| {
                let s = &resolved[s];
                sim.add_transfer_resolved(s.src, s.dst, s.size, SimTime::ZERO, &s.path)
            })
            .collect();
        let (report, _) = log.time(Some(root), i, "simulation.run", || sim.run());
        let report = report.map_err(|e| e.to_string())?;
        let st = &report.stats;
        let w = &st.solver.warm;
        k.runs += 1;
        k.flows += (bg_idx.len() + spec_idx.len()) as u64;
        k.reshares += st.reshares;
        k.calendar_pops += st.calendar_pops;
        k.components += st.solver.components_solved;
        k.levels_replayed += w.levels_replayed;
        k.levels_attempted += w.levels_replayed
            + w.invalidated_dirty_ratio
            + w.invalidated_seed_cap
            + w.invalidated_bind_dirty
            + w.invalidated_frozen_flow;
        let horizon = ids
            .iter()
            .map(|&id| report.completion(id).finish.as_secs())
            .fold(0.0, f64::max);
        let makespan = report.makespan().as_secs();
        k.horizon_sum += if makespan > 0.0 {
            horizon / makespan
        } else {
            1.0
        };
        k.calendar_peak = k.calendar_peak.max(st.calendar_peak);
        k.warm_bytes = k.warm_bytes.max(st.warm_bytes);
    }
    Ok(())
}

/// Replays up to [`REPLAYS`] kept reads on the run's own session: the
/// whole `Pnfs` call on a fresh epoch (so it misses the cache), then the
/// engine's steps one public call at a time.
pub fn replay(fx: &Fixture, kept: &[Kept], log: &SpanLog) -> Result<KernelTally, String> {
    let pnfs = &fx.svc.pnfs;
    let session = pnfs.engine().session(PLATFORM).map_err(|e| e.to_string())?;
    let mut k = KernelTally::default();
    let reads = kept.iter().filter_map(|x| match &x.op {
        Op::Read(q) => Some((x.i, q)),
        _ => None,
    });
    for (i, q) in reads.take(REPLAYS) {
        pnfs.bump_epoch();
        let root = log.next_id();
        let start_ns = log.now_ns();
        match &q.kind {
            QueryKind::Predict(specs) => {
                let (r, _) = log.time(Some(root), i, "pnfs.predict", || {
                    pnfs.predict(PLATFORM, specs)
                });
                r.map_err(|e| e.to_string())?;
                replay_batch(log, root, i, &session, specs, true, &mut k)?;
            }
            QueryKind::Select(hyps) => {
                let (r, _) = log.time(Some(root), i, "pnfs.select_fastest", || {
                    pnfs.select_fastest(PLATFORM, hyps)
                });
                let sel = r.map_err(|e| e.to_string())?;
                k.pruned += sel.pruned.len() as u64;
                k.hypotheses += hyps.len() as u64;
                for h in hyps {
                    replay_batch(log, root, i, &session, h, false, &mut k)?;
                }
            }
        }
        log.push(Span {
            id: root,
            parent: None,
            request: i,
            name: "replay",
            start_ns,
            end_ns: log.now_ns(),
        });
    }
    Ok(k)
}

/// Milliseconds of a nanosecond count.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

pub fn summary_ms(ns: impl IntoIterator<Item = u64>) -> stats::Summary {
    stats::Summary::new(ns.into_iter().map(|v| ms(v as f64)).collect())
}
