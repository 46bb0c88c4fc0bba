//! End-to-end and per-layer benchmark of the Pilgrim forecast service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <select_large|predict_loaded|churn_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the HTTP service in-process, drives it in a closed loop over
//! keep-alive connections for `--seconds`, checks answers against
//! oracles, and prints a report whose last line is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits nonzero when any answer is wrong or a generator
//! self-check fails. See `perfbench/README.md`.

mod bench;
mod gen;
mod stats;
mod sys;
mod trace;
mod window;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use bench::Fixture;
use gen::{Workload, PLATFORM};
use stats::{bucket_count, bucket_delta, bucket_quantile, median, Summary};
use trace::SpanLog;
use window::Window;

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("cpu_ms_per_req", "ms"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("http.frontend_p50_ms", "ms"),
    ("http.frontend_p99_ms", "ms"),
    ("http.queue_wait_p50_ms", "ms"),
    ("http.queue_wait_p99_ms", "ms"),
    ("http.wakeups_per_req", "count/req"),
    ("service.handle_p50_ms", "ms"),
    ("service.handle_p99_ms", "ms"),
    ("service.admission_p50_ms", "ms"),
    ("service.render_p50_ms", "ms"),
    ("service.request_kb", "KiB"),
    ("service.response_kb", "KiB"),
    ("service.read_p99_ms", "ms"),
    ("service.write_p99_ms", "ms"),
    ("forecast.cache.hit_ratio", "ratio"),
    ("forecast.cache.lookup_p50_ms", "ms"),
    ("forecast.cache.invalidated_targeted", "count"),
    ("forecast.cache.invalidated_epoch", "count"),
    ("forecast.cache.len", "count"),
    ("forecast.engine.simulate_p50_ms", "ms"),
    ("forecast.engine.simulate_p99_ms", "ms"),
    ("forecast.engine.simulations_per_req", "count/req"),
    ("forecast.engine.pruned_ratio", "ratio"),
    ("exec.jobs_per_req", "count/req"),
    ("exec.job_p50_ms", "ms"),
    ("forecast.session.resolve_p50_us", "us"),
    ("forecast.session.routes_cached", "count"),
    ("forecast.session.label_p50_ms", "ms"),
    ("simflow.kernel.run_p50_ms", "ms"),
    ("simflow.kernel.run_p99_ms", "ms"),
    ("simflow.kernel.flows_per_run", "count/run"),
    ("simflow.kernel.reshares_per_run", "count/run"),
    ("simflow.kernel.calendar_pops_per_run", "count/run"),
    ("simflow.kernel.components_per_run", "count/run"),
    ("simflow.kernel.warm_replay_ratio", "ratio"),
    ("simflow.kernel.request_horizon_ratio", "ratio"),
    ("simflow.kernel.calendar_peak", "count"),
    ("simflow.kernel.warm_bytes", "B"),
    ("simflow.platform.route_p50_us", "us"),
    ("simflow.platform.route_memo_hits_per_req", "count/req"),
    ("simflow.platform.route_memo_entries", "count"),
    ("g5k.build_s", "s"),
    ("forecast.engine.register_s", "s"),
    ("box.steal_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("claim.cold_predict30_ms", "ms"),
];

/// The paper's §IV-C.2 claim: 30 concurrent transfers forecast in < 0.1 s.
const CLAIM_LIMIT_MS: f64 = 100.0;
/// `churn_mixed`'s cache hit ratio must fall in this band.
const CHURN_HIT_BAND: (f64, f64) = (0.3, 0.7);
/// Steal above this share of the run's CPU capacity flags the run.
const STEAL_FLAG: f64 = 0.05;
/// Samples a p99 pools: ten beyond it.
const MIN_TAIL: usize = 1000;
/// Completed reads after which `peak_rss_mb` is read (ten times as many
/// on `churn_mixed`), so the reading follows the same work however fast
/// the run goes.
const RSS_AT_READS: u64 = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or("--workload must be select_large, predict_loaded or churn_mixed")?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Metric values in print order.
type Metrics = Vec<(&'static str, &'static str, f64)>;

fn put(m: &mut Metrics, table: &[(&'static str, &'static str)], name: &str, value: f64) {
    let &(n, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .expect("metric listed");
    m.push((n, unit, if value.is_finite() { value } else { 0.0 }));
}

/// Runs one benchmark invocation; `Ok(false)` means a wrong answer or a
/// failed self-check.
fn run(a: &Args) -> Result<bool, String> {
    let w = a.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} connections={}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        w.connections()
    );
    println!("box: {}", sys::fingerprint());
    let mut checks: Vec<(String, bool)> = Vec::new();
    checks.push((
        "same seed gives byte-identical request streams".into(),
        streams_repeat(a.seed),
    ));

    let inp = bench::inputs(w, a.seed);
    let log = a.trace.then(|| Arc::new(SpanLog::new()));
    let mut setups: Vec<[f64; 4]> = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for _ in 0..bench::SETUPS {
        let f = bench::setup(&inp, log.as_ref())?;
        setups.push([f.setup_s, f.build_s, f.register_s, f.cold_s]);
        if let Some(mut old) = fixture.replace(f) {
            old.server.stop();
        }
    }
    let mut fx = fixture.expect("at least one set-up");
    let col = |k: usize| median(&setups.iter().map(|s| s[k]).collect::<Vec<_>>());
    let (setup_s, build_s, register_s, cold_ms) = (col(0), col(1), col(2), col(3) * 1e3);
    if let Some(log) = &log {
        // Cold-path spans belong to set-up, not to the measured run.
        log.take();
    }

    // The timed closed loop.
    let addr = fx.server.addr();
    let rss_at = if w.miss_only() {
        RSS_AT_READS
    } else {
        10 * RSS_AT_READS
    };
    let progress = bench::Progress::new(rss_at);
    let before = bench::snap(&fx);
    let (mut tally, windows) = bench::drive(&inp, addr, a.seconds, log.as_deref(), &progress);
    let after = bench::snap(&fx);
    let session = fx
        .svc
        .pnfs
        .engine()
        .session(PLATFORM)
        .map_err(|e| e.to_string())?;
    let routes_cached = session.routes_cached();
    let memo_entries = session.platform().route_memo_stats().entries;
    let cache_len = fx.svc.pnfs.engine().cache_len();
    let reads = tally.reads.len();
    let ops = reads + tally.writes.len();
    let (request_bytes, response_bytes) = (tally.request_bytes, tally.response_bytes);
    let nproc = sys::nproc();
    let whole = window::pool(&windows, &(0..windows.len()).collect::<Vec<_>>());
    let steal_ratio = whole.steal_share(nproc);
    // Every figure pools at least a sixth of the windows, and every
    // quiet one; read figures and the write p99 also MIN_TAIL samples.
    let pick = |ws: &[Window], tail: bool, writes: bool| {
        let min_windows = ws.len().div_ceil(6);
        let need = if tail { MIN_TAIL } else { 1 };
        let chosen = window::pick(ws, nproc, |r, wr, n| {
            n >= min_windows && if writes { wr >= need } else { r >= need }
        });
        (window::pool(ws, &chosen), chosen.len())
    };
    let (measured, n_measured) = pick(&windows, true, false);
    let write_windows = if w.miss_only() {
        let (tail, rounds) = bench::write_tail(&inp, addr);
        tally.merge(tail);
        rounds
    } else {
        windows.clone()
    };
    let (write_mid, _) = pick(&write_windows, false, true);
    let (write_tail, _) = pick(&write_windows, true, true);
    let end = bench::snap(&fx);
    let peak_rss_mb = progress.rss_mb().unwrap_or_else(|| {
        println!("warning: fewer than {rss_at} reads; peak_rss_mb read at the end of the loop");
        sys::peak_rss_mb()
    });

    // Answers, outside the timed region.
    let (wrong, wrong_messages, checked) = bench::check(&inp, &fx, &tally.kept);
    let attempted = tally.attempted();
    let failed = tally.failed + wrong;
    println!(
        "oracle: {checked} answers checked, {wrong} wrong ({})",
        oracle_rule(w)
    );
    for m in tally.messages.iter().chain(&wrong_messages) {
        println!("failure: {m}");
    }

    let read_ms = bench::summary_ms(measured.reads.iter().copied());
    let write_ms = bench::summary_ms(write_mid.writes.iter().copied());
    let (p90, _) = read_ms.at_most(0.9);
    let (p99, p99_q) = read_ms.at_most(0.99);
    let (w99, w99_q) = bench::summary_ms(write_tail.writes.iter().copied()).at_most(0.99);
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };

    println!(
        "windows: {} of {} one-second windows quiet (steal at most {} of capacity); reads and \
         rates over {n_measured} (steal {:.4})",
        windows
            .iter()
            .filter(|x| x.steal_share(nproc) <= window::QUIET_STEAL)
            .count(),
        windows.len(),
        window::QUIET_STEAL,
        measured.steal_share(nproc),
    );
    if p99_q < 0.99 {
        println!(
            "warning: {} reads support no p99; service.read_p99_ms reports p{}",
            measured.reads.len(),
            stats::label(p99_q)
        );
    }
    checks.push((
        "the write p99 has ten writes beyond it".into(),
        w99_q >= 0.99,
    ));
    if w.miss_only() {
        checks.push((
            format!("forecast.cache.hit_ratio == 0 (read {hit_ratio})"),
            hits == 0,
        ));
    } else {
        let (lo, hi) = CHURN_HIT_BAND;
        let ok = (lo..=hi).contains(&hit_ratio);
        checks.push((
            format!("forecast.cache.hit_ratio {hit_ratio:.3} in [{lo}, {hi}]"),
            ok,
        ));
    }
    println!(
        "claim: paper §IV-C.2 \"30 concurrent transfers < 0.1 s\": first 30-transfer predict on a \
         fresh server took {cold_ms:.3} ms (median of {} servers): {}",
        setups.len(),
        if cold_ms < CLAIM_LIMIT_MS {
            "met"
        } else {
            "MISSED"
        }
    );
    println!("reads: {} of {reads} in the loop", read_ms.describe(1.0));
    println!(
        "writes: p50={:.4} (n={}), p{}={:.4} (n={})",
        write_ms.median(),
        write_ms.n,
        stats::label(w99_q),
        w99,
        write_tail.writes.len()
    );
    println!(
        "failed_ratio: {failed}/{attempted} = {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "box: steal_ratio={steal_ratio:.4}{}",
        if steal_ratio > STEAL_FLAG {
            " FLAGGED: steal-heavy run, do not compare"
        } else {
            ""
        }
    );
    for (what, ok) in &checks {
        println!("self-check: {what}: {}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = failed == 0 && checks.iter().all(|c| c.1);

    let mut m = Metrics::new();
    if let Some(log) = &log {
        let kernel = bench::replay(&fx, &tally.kept, log)?;
        let spans = log.take();
        let path =
            PathBuf::from(".bench_traces").join(format!("{}-seed{}.jsonl", w.name(), a.seed));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", spans.len(), path.display());
        print_self_times(&spans);
        let by_name = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .collect()
        };
        let self_ns = trace::self_times(&spans);
        let frontend: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "client")
            .filter(|s| self_ns.contains_key(&trace::handler_span_id(s.request)))
            .map(|s| self_ns[&s.id] as f64)
            .collect();
        let t = PER_LAYER.as_slice();
        let ms_of = |v: Vec<f64>| Summary::new(v.into_iter().map(bench::ms).collect());
        let per_req = |x: u64| x as f64 / reads.max(1) as f64;
        let hq = |b: &stats::Buckets, q: f64| bench::ms(bucket_quantile(b, q) as f64);
        let fe = ms_of(frontend);
        put(&mut m, t, "http.frontend_p50_ms", fe.median());
        put(&mut m, t, "http.frontend_p99_ms", fe.at_most(0.99).0);
        let qw = bucket_delta(&before.queue_wait, &after.queue_wait);
        put(&mut m, t, "http.queue_wait_p50_ms", hq(&qw, 0.5));
        put(&mut m, t, "http.queue_wait_p99_ms", hq(&qw, 0.99));
        put(
            &mut m,
            t,
            "http.wakeups_per_req",
            (after.wakeups - before.wakeups) as f64 / ops.max(1) as f64,
        );
        let handle = ms_of(by_name("service.handle"));
        put(&mut m, t, "service.handle_p50_ms", handle.median());
        put(&mut m, t, "service.handle_p99_ms", handle.at_most(0.99).0);
        put(
            &mut m,
            t,
            "service.admission_p50_ms",
            hq(&bucket_delta(&before.admission, &after.admission), 0.5),
        );
        put(
            &mut m,
            t,
            "service.render_p50_ms",
            hq(&bucket_delta(&before.render, &after.render), 0.5),
        );
        put(
            &mut m,
            t,
            "service.request_kb",
            request_bytes as f64 / 1024.0 / ops.max(1) as f64,
        );
        put(
            &mut m,
            t,
            "service.response_kb",
            response_bytes as f64 / 1024.0 / ops.max(1) as f64,
        );
        put(&mut m, t, "service.read_p99_ms", p99);
        put(&mut m, t, "service.write_p99_ms", w99);
        put(&mut m, t, "forecast.cache.hit_ratio", hit_ratio);
        put(
            &mut m,
            t,
            "forecast.cache.lookup_p50_ms",
            hq(&bucket_delta(&before.lookup, &after.lookup), 0.5),
        );
        let targeted = end.invalidated_targeted - before.invalidated_targeted;
        put(
            &mut m,
            t,
            "forecast.cache.invalidated_targeted",
            targeted as f64,
        );
        let epoch = end.invalidated_epoch - before.invalidated_epoch;
        put(&mut m, t, "forecast.cache.invalidated_epoch", epoch as f64);
        put(&mut m, t, "forecast.cache.len", cache_len as f64);
        let sim = bucket_delta(&before.simulate, &after.simulate);
        put(&mut m, t, "forecast.engine.simulate_p50_ms", hq(&sim, 0.5));
        put(&mut m, t, "forecast.engine.simulate_p99_ms", hq(&sim, 0.99));
        put(
            &mut m,
            t,
            "forecast.engine.simulations_per_req",
            per_req(after.simulations - before.simulations),
        );
        let pruned = kernel.pruned as f64 / kernel.hypotheses.max(1) as f64;
        put(&mut m, t, "forecast.engine.pruned_ratio", pruned);
        let jobs = bucket_delta(&before.jobs, &after.jobs);
        put(&mut m, t, "exec.jobs_per_req", per_req(bucket_count(&jobs)));
        put(&mut m, t, "exec.job_p50_ms", hq(&jobs, 0.5));
        let resolve = Summary::new(
            by_name("session.resolve_spec")
                .iter()
                .map(|v| v / 1e3)
                .collect(),
        );
        put(
            &mut m,
            t,
            "forecast.session.resolve_p50_us",
            resolve.median(),
        );
        put(
            &mut m,
            t,
            "forecast.session.routes_cached",
            routes_cached as f64,
        );
        put(
            &mut m,
            t,
            "forecast.session.label_p50_ms",
            ms_of(by_name("session.label_batch")).median(),
        );
        let run = ms_of(by_name("simulation.run"));
        put(&mut m, t, "simflow.kernel.run_p50_ms", run.median());
        put(&mut m, t, "simflow.kernel.run_p99_ms", run.at_most(0.99).0);
        let runs = kernel.runs.max(1) as f64;
        put(
            &mut m,
            t,
            "simflow.kernel.flows_per_run",
            kernel.flows as f64 / runs,
        );
        put(
            &mut m,
            t,
            "simflow.kernel.reshares_per_run",
            kernel.reshares as f64 / runs,
        );
        put(
            &mut m,
            t,
            "simflow.kernel.calendar_pops_per_run",
            kernel.calendar_pops as f64 / runs,
        );
        put(
            &mut m,
            t,
            "simflow.kernel.components_per_run",
            kernel.components as f64 / runs,
        );
        let warm = kernel.levels_replayed as f64 / kernel.levels_attempted.max(1) as f64;
        put(&mut m, t, "simflow.kernel.warm_replay_ratio", warm);
        put(
            &mut m,
            t,
            "simflow.kernel.request_horizon_ratio",
            kernel.horizon_sum / runs,
        );
        put(
            &mut m,
            t,
            "simflow.kernel.calendar_peak",
            kernel.calendar_peak as f64,
        );
        put(
            &mut m,
            t,
            "simflow.kernel.warm_bytes",
            kernel.warm_bytes as f64,
        );
        let route = Summary::new(by_name("platform.route").iter().map(|v| v / 1e3).collect());
        put(&mut m, t, "simflow.platform.route_p50_us", route.median());
        put(
            &mut m,
            t,
            "simflow.platform.route_memo_hits_per_req",
            per_req(after.memo_hits - before.memo_hits),
        );
        put(
            &mut m,
            t,
            "simflow.platform.route_memo_entries",
            memo_entries as f64,
        );
        put(&mut m, t, "g5k.build_s", build_s);
        put(&mut m, t, "forecast.engine.register_s", register_s);
        put(&mut m, t, "box.steal_ratio", steal_ratio);
        let traced = bench::summary_ms(tally.traced_read_ns.iter().copied()).median();
        let untraced = bench::summary_ms(tally.untraced_read_ns.iter().copied()).median();
        put(&mut m, t, "trace.overhead_ratio", traced / untraced);
        put(&mut m, t, "claim.cold_predict30_ms", cold_ms);
    } else {
        let t = END_TO_END.as_slice();
        put(&mut m, t, "setup_s", setup_s);
        put(&mut m, t, "latency_p50_ms", read_ms.median());
        put(&mut m, t, "latency_p90_ms", p90);
        put(
            &mut m,
            t,
            "throughput_rps",
            measured.reads.len() as f64 / measured.secs,
        );
        put(
            &mut m,
            t,
            "cpu_ms_per_req",
            measured.cpu_s * 1e3 / measured.ops().max(1) as f64,
        );
        put(&mut m, t, "write_p50_ms", write_ms.median());
        put(&mut m, t, "peak_rss_mb", peak_rss_mb);
    }
    fx.server.stop();

    for (name, unit, v) in &m {
        println!("metric {name} = {v} {unit}");
    }
    let metrics: Vec<String> = m
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(correct)
}

/// How each workload's answers are checked.
fn oracle_rule(w: Workload) -> &'static str {
    match w {
        Workload::SelectLarge => {
            "one read in 64, at most 48, against Pnfs::select_fastest_reference"
        }
        Workload::PredictLoaded => {
            "one read in 32, at most 48, against one monolithic Simulation of background plus request"
        }
        Workload::ChurnMixed => {
            "every write and one read in 16, at most 4000, replayed in order on a capacity-1 engine"
        }
    }
}

/// The generator self-check: two streams from one seed, byte for byte.
fn streams_repeat(seed: u64) -> bool {
    let hosts: Arc<Vec<String>> = Arc::new((0..450).map(|i| format!("h{i}")).collect());
    let render = |w: Workload| {
        let mut s = gen::Stream::new(w, seed, Arc::clone(&hosts));
        (0..256)
            .map(|_| s.next_op())
            .map(|(i, op)| format!("{i} {} {}\n", op.method(), op.uri()))
            .collect::<String>()
    };
    [
        Workload::SelectLarge,
        Workload::PredictLoaded,
        Workload::ChurnMixed,
    ]
    .into_iter()
    .all(|w| render(w) == render(w))
}

/// Each span name's self time: count, median and total.
fn print_self_times(spans: &[trace::Span]) {
    let self_ns = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(self_ns[&s.id] as f64);
    }
    for (name, v) in by_name {
        let total: f64 = v.iter().sum();
        let sum = Summary::new(v.iter().map(|&x| bench::ms(x)).collect());
        println!(
            "self_time {name}: {} total={:.3} ms",
            sum.describe(1.0),
            bench::ms(total)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonlite::Value;

    #[test]
    fn benchmark_json_lists_what_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let v = Value::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            let items = v.get(key).and_then(Value::as_array).expect("listed");
            items
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Value::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<String> = table.iter().map(|m| m.0.to_string()).collect();
            let units: Vec<String> = table.iter().map(|m| m.1.to_string()).collect();
            assert_eq!(list(key, "name"), names, "{key}");
            assert_eq!(list(key, "unit"), units, "{key}");
        }
        let workloads = list("workloads", "name");
        assert!(
            workloads.iter().all(|w| Workload::parse(w).is_some()),
            "{workloads:?}"
        );
    }
}
