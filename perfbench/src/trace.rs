//! In-memory spans for the traced run, written out when the run ends.
//! A span has a name, start, end and parent; the spans of one request
//! share its id. A span's self time is its duration minus the part of
//! it that its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span ids of the client and handler spans of run request `i`; replay
/// spans draw ids from [`SpanLog::next_id`], above this range.
pub fn client_span_id(request: u64) -> u64 {
    request << 1
}

pub fn handler_span_id(request: u64) -> u64 {
    (request << 1) | 1
}

const REPLAY_IDS: u64 = 1 << 48;

/// A thread-safe span recorder with one time origin.
pub struct SpanLog {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            next: AtomicU64::new(REPLAY_IDS),
            spans: Mutex::default(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f` inside a new span and returns its result and span id.
    pub fn time<R>(
        &self,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let r = f();
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: self.now_ns(),
        });
        (r, id)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps 2
            span(4, Some(1), 90, 120), // runs past the parent
            span(5, Some(3), 25, 35),
            span(6, None, 200, 210),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 30 - 10);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&6], 10);
    }

    #[test]
    fn nested_child_contained_in_sibling_counts_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 80),
            span(3, Some(1), 10, 20),
        ];
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn log_records_parent_and_request() {
        let log = SpanLog::new();
        let (v, outer) = log.time(None, 7, "outer", || log.time(None, 7, "inner", || 3).0);
        assert_eq!(v, 3);
        let spans = log.take();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].id, outer);
    }
}
