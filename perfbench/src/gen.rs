//! Seeded request generators. Every workload's operation stream is a
//! function of the seed and the platform's host list only, so the same
//! seed always yields byte-identical requests and the service sees
//! nothing but the generated HTTP traffic.

use std::sync::Arc;

use forecast::TransferSpec;

/// SplitMix64: small, fast and good enough to draw request shapes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from a run seed and a tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Stream tags, so the draws of different input parts never overlap.
const TAG_READ: u64 = 1;
const TAG_BACKGROUND: u64 = 2;
const TAG_CLAIM: u64 = 3;
const TAG_HOT: u64 = 4;
const TAG_CHURN: u64 = 5;
const TAG_TAIL: u64 = 6;
const TAG_SAMPLE: u64 = 7;

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SelectLarge,
    PredictLoaded,
    ChurnMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "select_large" => Some(Workload::SelectLarge),
            "predict_loaded" => Some(Workload::PredictLoaded),
            "churn_mixed" => Some(Workload::ChurnMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SelectLarge => "select_large",
            Workload::PredictLoaded => "predict_loaded",
            Workload::ChurnMixed => "churn_mixed",
        }
    }

    /// Closed-loop keep-alive connections driving the server.
    pub fn connections(self) -> usize {
        match self {
            Workload::ChurnMixed => 1,
            _ => 2,
        }
    }

    /// Every read of this workload is a distinct query.
    pub fn miss_only(self) -> bool {
        self != Workload::ChurnMixed
    }
}

/// Platform the workloads run on: `g5k::synth::synthetic(100_000)` for
/// `select_large`, the 450-host `g5k::synth::standard()` otherwise.
pub const PLATFORM: &str = "bench";
/// Hosts of the large synthetic platform.
pub const LARGE_HOSTS: usize = 100_000;
/// Long-lived background flows installed for `predict_loaded`.
pub const BACKGROUND_FLOWS: usize = 250;
/// Hot-set size of `churn_mixed`.
pub const HOT_QUERIES: usize = 64;
/// Transfers per hot query, and per cold-path claim query.
pub const SMALL_QUERY: usize = 30;
/// RRD fed by the metrology updates.
pub const RRD_PATH: &str = "ganglia/bench/pdu.rrd";
/// First timestamp of the RRD updates (2012-05-04 06:00:00 UTC).
pub const RRD_T0: i64 = 1_336_111_200;

/// A forecast query with its rendered request URI.
#[derive(Debug, PartialEq)]
pub struct Query {
    pub kind: QueryKind,
    pub uri: String,
}

#[derive(Debug, PartialEq)]
pub enum QueryKind {
    Predict(Vec<TransferSpec>),
    Select(Vec<Vec<TransferSpec>>),
}

/// A serving-time link change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkAction {
    Factor(f64),
    Down,
    Up,
}

/// One operation of a workload's stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Read(Arc<Query>),
    Link { link: String, action: LinkAction },
    Rrd { ts: i64, value: f64 },
}

impl Op {
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Read(_))
    }

    pub fn method(&self) -> &'static str {
        match self {
            Op::Link { .. } => "POST",
            _ => "GET",
        }
    }

    pub fn uri(&self) -> String {
        match self {
            Op::Read(q) => q.uri.clone(),
            Op::Link { link, action } => {
                let arg = match action {
                    LinkAction::Factor(f) => format!("factor={f}"),
                    LinkAction::Down => "state=down".to_string(),
                    LinkAction::Up => "state=up".to_string(),
                };
                format!("/pilgrim/link_event/{PLATFORM}?link={link}&{arg}")
            }
            Op::Rrd { ts, value } => {
                format!("/pilgrim/rrd_update/{RRD_PATH}?ts={ts}&value={value}")
            }
        }
    }
}

fn spec(src: &str, dst: &str, size: f64) -> TransferSpec {
    TransferSpec {
        src: src.to_string(),
        dst: dst.to_string(),
        size,
    }
}

fn transfer_arg(t: &TransferSpec) -> String {
    format!("{},{},{}", t.src, t.dst, t.size)
}

pub fn predict_query(specs: Vec<TransferSpec>) -> Query {
    let args: Vec<String> = specs
        .iter()
        .map(|t| format!("transfer={}", transfer_arg(t)))
        .collect();
    let uri = format!("/pilgrim/predict_transfers/{PLATFORM}?{}", args.join("&"));
    Query {
        kind: QueryKind::Predict(specs),
        uri,
    }
}

pub fn select_query(hypotheses: Vec<Vec<TransferSpec>>) -> Query {
    let args: Vec<String> = hypotheses
        .iter()
        .map(|h| {
            let parts: Vec<String> = h.iter().map(transfer_arg).collect();
            format!("hypothesis={}", parts.join(";"))
        })
        .collect();
    let uri = format!("/pilgrim/select_fastest/{PLATFORM}?{}", args.join("&"));
    Query {
        kind: QueryKind::Select(hypotheses),
        uri,
    }
}

/// Two distinct hosts.
fn pair(r: &mut Rng, hosts: &[String]) -> (usize, usize) {
    let src = r.below(hosts.len());
    let dst = (src + 1 + r.below(hosts.len() - 1)) % hosts.len();
    (src, dst)
}

/// `n` concurrent transfers between random host pairs. Sizes are whole
/// bytes plus `salt`, so queries with different salts never coincide.
fn random_transfers(r: &mut Rng, hosts: &[String], n: usize, salt: f64) -> Vec<TransferSpec> {
    (0..n)
        .map(|_| {
            let (s, d) = pair(r, hosts);
            spec(&hosts[s], &hosts[d], (1 + r.below(20)) as f64 * 5e7 + salt)
        })
        .collect()
}

/// `select_large` query `i`: four datasets on random hosts, and eight
/// placements of their consumer, each on four consecutive hosts (one
/// cluster, mostly) somewhere in the federation. Sizes carry `i`, so
/// every query is distinct.
pub fn select_read(seed: u64, i: u64, hosts: &[String]) -> Query {
    let mut r = Rng::new(mix(mix(seed, TAG_READ), i));
    let sources: Vec<usize> = (0..4).map(|_| r.below(hosts.len())).collect();
    let sizes: Vec<f64> = (0..4)
        .map(|_| (1 + r.below(9)) as f64 * 1e8 + i as f64)
        .collect();
    let hypotheses = (0..8)
        .map(|_| {
            let base = r.below(hosts.len() - 8);
            (0..4)
                .map(|j| {
                    let mut dst = base + j;
                    if dst == sources[j] {
                        dst += 4;
                    }
                    spec(&hosts[sources[j]], &hosts[dst], sizes[j])
                })
                .collect()
        })
        .collect();
    select_query(hypotheses)
}

/// `predict_loaded` query `i`: 30 to 250 concurrent transfers between
/// random hosts, sizes salted with `i`.
pub fn predict_read(seed: u64, i: u64, hosts: &[String]) -> Query {
    let mut r = Rng::new(mix(mix(seed, TAG_READ), i));
    let n = SMALL_QUERY + r.below(221);
    predict_query(random_transfers(&mut r, hosts, n, i as f64))
}

/// The long-lived background flows of `predict_loaded`: 20 to 100 GB
/// each, so they outlast every requested transfer.
pub fn background(seed: u64, hosts: &[String]) -> Vec<TransferSpec> {
    let mut r = Rng::new(mix(seed, TAG_BACKGROUND));
    (0..BACKGROUND_FLOWS)
        .map(|_| {
            let (s, d) = pair(&mut r, hosts);
            spec(&hosts[s], &hosts[d], (20 + r.below(81)) as f64 * 1e9)
        })
        .collect()
}

/// The 30-transfer query each fresh server answers first (the paper's
/// §IV-C.2 claim). Half-byte sizes keep it apart from every read.
pub fn claim_query(seed: u64, hosts: &[String]) -> Query {
    let mut r = Rng::new(mix(seed, TAG_CLAIM));
    predict_query(random_transfers(&mut r, hosts, SMALL_QUERY, 0.5))
}

/// The hot set of `churn_mixed`.
pub fn hot_set(seed: u64, hosts: &[String]) -> Vec<Arc<Query>> {
    let mut r = Rng::new(mix(seed, TAG_HOT));
    (0..HOT_QUERIES)
        .map(|k| {
            Arc::new(predict_query(random_transfers(
                &mut r,
                hosts,
                SMALL_QUERY,
                k as f64,
            )))
        })
        .collect()
}

/// A skewed rank in `0..n`: rank `k` is drawn with probability falling
/// off roughly as `1/sqrt(k)`.
fn skewed(r: &mut Rng, n: usize) -> usize {
    let u = r.unit();
    ((u * u * n as f64) as usize).min(n - 1)
}

/// The operation stream of a workload. `select_large` and
/// `predict_loaded` draw each read from `(seed, index)` alone;
/// `churn_mixed` keeps the set of degraded links it has issued, so its
/// writes are a function of the seed and every earlier operation.
pub struct Stream {
    workload: Workload,
    seed: u64,
    hosts: Arc<Vec<String>>,
    next: u64,
    churn: Option<Churn>,
}

struct Churn {
    rng: Rng,
    hot: Vec<Arc<Query>>,
    degraded: Vec<(String, LinkAction)>,
    rrd_updates: i64,
}

/// Degraded links `churn_mixed` keeps at most.
const MAX_DEGRADED: usize = 4;

impl Stream {
    pub fn new(workload: Workload, seed: u64, hosts: Arc<Vec<String>>) -> Stream {
        let churn = (workload == Workload::ChurnMixed).then(|| Churn {
            rng: Rng::new(mix(seed, TAG_CHURN)),
            hot: hot_set(seed, &hosts),
            degraded: Vec::new(),
            rrd_updates: 0,
        });
        Stream {
            workload,
            seed,
            hosts,
            next: 0,
            churn,
        }
    }

    /// The next operation and its index in the stream.
    pub fn next_op(&mut self) -> (u64, Op) {
        let i = self.next;
        self.next += 1;
        let op = match self.workload {
            Workload::SelectLarge => Op::Read(Arc::new(select_read(self.seed, i, &self.hosts))),
            Workload::PredictLoaded => Op::Read(Arc::new(predict_read(self.seed, i, &self.hosts))),
            Workload::ChurnMixed => self.churn.as_mut().expect("churn state").next_op(),
        };
        (i, op)
    }
}

impl Churn {
    /// About 1 operation in 200 is an RRD update, 1 in 8 a link event,
    /// the rest reads of the skewed hot set.
    fn next_op(&mut self) -> Op {
        let x = self.rng.below(200);
        if x == 0 {
            self.rrd_updates += 1;
            let value = 150.0 + self.rng.below(400) as f64 / 8.0;
            return Op::Rrd {
                ts: RRD_T0 + 15 * self.rrd_updates,
                value,
            };
        }
        if x % 8 == 1 {
            return self.link_event();
        }
        Op::Read(Arc::clone(&self.hot[skewed(&mut self.rng, self.hot.len())]))
    }

    /// Restores a degraded NIC, or degrades or downs a NIC that a hot
    /// query crosses, keeping at most [`MAX_DEGRADED`] degraded at once.
    fn link_event(&mut self) -> Op {
        let restore = !self.degraded.is_empty()
            && (self.degraded.len() >= MAX_DEGRADED || self.rng.below(2) == 0);
        if restore {
            let k = self.rng.below(self.degraded.len());
            let (link, was) = self.degraded.swap_remove(k);
            let action = match was {
                LinkAction::Down => LinkAction::Up,
                _ => LinkAction::Factor(1.0),
            };
            return Op::Link { link, action };
        }
        loop {
            let q = &self.hot[skewed(&mut self.rng, self.hot.len())];
            let QueryKind::Predict(specs) = &q.kind else {
                unreachable!("hot queries predict")
            };
            let t = &specs[self.rng.below(specs.len())];
            let host = if self.rng.below(2) == 0 {
                &t.src
            } else {
                &t.dst
            };
            let link = format!("{host}-nic");
            if self.degraded.iter().any(|(l, _)| *l == link) {
                continue;
            }
            let action = match self.rng.below(3) {
                0 => LinkAction::Down,
                k => LinkAction::Factor(0.25 * k as f64),
            };
            self.degraded.push((link.clone(), action));
            return Op::Link { link, action };
        }
    }
}

/// Write `j` of the tail issued after the timed reads of the two
/// read-only workloads: a metrology push (`rrd_update`), which bumps the
/// forecast epoch.
pub fn tail_op(seed: u64, j: u64) -> Op {
    let mut r = Rng::new(mix(mix(seed, TAG_TAIL), j));
    Op::Rrd {
        ts: RRD_T0 + 15 * (j as i64 + 1),
        value: 150.0 + r.below(400) as f64 / 8.0,
    }
}

/// Whether operation `i` is kept for the answer oracle: one in `every`,
/// chosen by the seed.
pub fn sampled(seed: u64, i: u64, every: u64) -> bool {
    mix(mix(seed, TAG_SAMPLE), i).is_multiple_of(every)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: usize) -> Arc<Vec<String>> {
        Arc::new((0..n).map(|i| format!("h{i}.site")).collect())
    }

    fn stream_bytes(w: Workload, seed: u64, n: usize) -> Vec<u8> {
        let mut s = Stream::new(w, seed, hosts(500));
        let mut out = Vec::new();
        for _ in 0..n {
            let (i, op) = s.next_op();
            out.extend_from_slice(format!("{i} {} {}\n", op.method(), op.uri()).as_bytes());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for w in [
            Workload::SelectLarge,
            Workload::PredictLoaded,
            Workload::ChurnMixed,
        ] {
            assert_eq!(stream_bytes(w, 7, 300), stream_bytes(w, 7, 300), "{w:?}");
            assert_ne!(stream_bytes(w, 7, 300), stream_bytes(w, 8, 300), "{w:?}");
        }
    }

    #[test]
    fn miss_only_reads_are_distinct() {
        for w in [Workload::SelectLarge, Workload::PredictLoaded] {
            let mut s = Stream::new(w, 3, hosts(500));
            let mut uris: Vec<String> = (0..500).map(|_| s.next_op().1.uri()).collect();
            uris.sort();
            uris.dedup();
            assert_eq!(uris.len(), 500, "{w:?}");
        }
    }

    #[test]
    fn predict_loaded_sizes_fit_the_request_line_cap() {
        let h = hosts(450);
        for i in 0..200 {
            let q = predict_read(11, i, &h);
            let QueryKind::Predict(specs) = &q.kind else {
                panic!("predict")
            };
            assert!((SMALL_QUERY..=250).contains(&specs.len()));
            assert!(q.uri.len() < 64 * 1024);
        }
    }

    #[test]
    fn churn_mixes_reads_links_and_rrd_updates() {
        let mut s = Stream::new(Workload::ChurnMixed, 5, hosts(450));
        let (mut reads, mut links, mut rrds) = (0, 0, 0);
        let mut degraded = 0i64;
        for _ in 0..20_000 {
            match s.next_op().1 {
                Op::Read(_) => reads += 1,
                Op::Link { action, .. } => {
                    links += 1;
                    degraded += match action {
                        LinkAction::Up | LinkAction::Factor(1.0) => -1,
                        _ => 1,
                    };
                    assert!((0..=MAX_DEGRADED as i64).contains(&degraded));
                }
                Op::Rrd { .. } => rrds += 1,
            }
        }
        assert!(
            reads > 16_000 && links > 2_000 && rrds > 50,
            "{reads} {links} {rrds}"
        );
    }

    #[test]
    fn claim_query_differs_from_every_hot_query() {
        let h = hosts(450);
        let claim = claim_query(9, &h);
        assert!(hot_set(9, &h).iter().all(|q| **q != claim));
    }
}
