//! Execution traces: a timestamped record of every kernel state change.
//!
//! SimGrid ships a tracing subsystem whose output feeds visualization
//! tools; this is the equivalent hook for debugging forecasts — when a
//! prediction looks wrong, the trace shows exactly which flows shared
//! which rates at which instant. Traces are collected by running the
//! simulation through [`crate::kernel::Simulation::run_traced`].

use crate::kernel::WorkId;
use crate::units::SimTime;

/// One trace record.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// The work entered its latency phase (transfers) or started running.
    Started {
        /// The work.
        id: WorkId,
        /// When.
        at: SimTime,
    },
    /// The work's allocated rate changed (new sharing solution).
    RateChanged {
        /// The work.
        id: WorkId,
        /// When.
        at: SimTime,
        /// New rate in bytes/s (or flop/s).
        rate: f64,
    },
    /// The work completed.
    Finished {
        /// The work.
        id: WorkId,
        /// When.
        at: SimTime,
    },
    /// A platform event took effect on a resource (capacity change,
    /// failure, recovery — see [`crate::kernel::PlatformEventKind`]).
    PlatformChanged {
        /// Platform-wide resource id (links first, then host CPUs), as
        /// passed to [`crate::Simulation::add_platform_event`].
        resource: u32,
        /// When.
        at: SimTime,
        /// Effective capacity from this instant on (zero while down).
        capacity: f64,
    },
}

impl TraceEvent {
    /// The work this record concerns (`None` for platform events).
    pub fn work(&self) -> Option<WorkId> {
        match self {
            TraceEvent::Started { id, .. }
            | TraceEvent::RateChanged { id, .. }
            | TraceEvent::Finished { id, .. } => Some(*id),
            TraceEvent::PlatformChanged { .. } => None,
        }
    }

    /// The timestamp of the record.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Started { at, .. }
            | TraceEvent::RateChanged { at, .. }
            | TraceEvent::Finished { at, .. }
            | TraceEvent::PlatformChanged { at, .. } => *at,
        }
    }
}

/// A chronological trace of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Records in simulation order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Records of one work, in order.
    pub fn of(&self, id: WorkId) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.work() == Some(id)).collect()
    }

    /// The piecewise-constant rate profile of a work:
    /// `(start_of_segment, rate)` pairs up to its completion.
    pub fn rate_profile(&self, id: WorkId) -> Vec<(f64, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RateChanged { id: i, at, rate } if *i == id => {
                    Some((at.as_secs(), *rate))
                }
                _ => None,
            })
            .collect()
    }

    /// Integrates a work's rate profile until `finish` — the bytes the
    /// trace claims were transferred (conservation check in tests).
    pub fn transferred(&self, id: WorkId) -> Option<f64> {
        let profile = self.rate_profile(id);
        let finish = self.events.iter().find_map(|e| match e {
            TraceEvent::Finished { id: i, at } if *i == id => Some(at.as_secs()),
            _ => None,
        })?;
        let mut total = 0.0;
        for (k, (t, rate)) in profile.iter().enumerate() {
            let end = profile.get(k + 1).map(|(t2, _)| *t2).unwrap_or(finish);
            if rate.is_finite() {
                total += rate * (end - t);
            }
        }
        Some(total)
    }

    /// Renders the trace as a Chrome trace-event JSON array — load it
    /// in `about:tracing` (or any Perfetto-compatible viewer) for a
    /// zoomable kernel timeline.
    ///
    /// Mapping: each work is a thread (`tid` = work id) of process 1,
    /// its lifetime a `B`/`E` duration slice; rate changes are `C`
    /// counter tracks (one `rate_w<id>` series per work, so the viewer
    /// plots the piecewise-constant rate profile the solver computed);
    /// platform events are instant records (`i`, global scope) on
    /// `tid` 0 carrying the resource and new capacity in `args`.
    /// Timestamps are microseconds of simulated time — the viewer's
    /// timeline reads as seconds ×10⁻⁶ of the simulation clock.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&s);
        };
        for e in &self.events {
            let ts = e.at().as_secs() * 1e6;
            match e {
                TraceEvent::Started { id, at: _ } => emit(
                    format!(
                        r#"{{"name":"w{0}","cat":"flow","ph":"B","ts":{ts},"pid":1,"tid":{1}}}"#,
                        id.0,
                        id.0 + 1
                    ),
                    &mut out,
                ),
                TraceEvent::Finished { id, at: _ } => emit(
                    format!(
                        r#"{{"name":"w{0}","cat":"flow","ph":"E","ts":{ts},"pid":1,"tid":{1}}}"#,
                        id.0,
                        id.0 + 1
                    ),
                    &mut out,
                ),
                TraceEvent::RateChanged { id, at: _, rate } => {
                    // counter values must be finite JSON numbers; an
                    // unconstrained flow's ∞ rate plots as 0 (it
                    // completes at this very instant anyway)
                    let r = if rate.is_finite() { *rate } else { 0.0 };
                    emit(
                        format!(
                            r#"{{"name":"rate_w{0}","cat":"reshare","ph":"C","ts":{ts},"pid":1,"args":{{"rate":{r}}}}}"#,
                            id.0
                        ),
                        &mut out,
                    )
                }
                TraceEvent::PlatformChanged { resource, at: _, capacity } => emit(
                    format!(
                        r#"{{"name":"platform_r{resource}","cat":"platform","ph":"i","s":"g","ts":{ts},"pid":1,"tid":0,"args":{{"resource":{resource},"capacity":{capacity}}}}}"#
                    ),
                    &mut out,
                ),
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// Renders a compact textual log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e {
                TraceEvent::Started { id, at } => {
                    out.push_str(&format!("{:>12.6}  start   w{}\n", at.as_secs(), id.0));
                }
                TraceEvent::RateChanged { id, at, rate } => {
                    out.push_str(&format!(
                        "{:>12.6}  rate    w{} = {:.3e}\n",
                        at.as_secs(),
                        id.0,
                        rate
                    ));
                }
                TraceEvent::Finished { id, at } => {
                    out.push_str(&format!("{:>12.6}  finish  w{}\n", at.as_secs(), id.0));
                }
                TraceEvent::PlatformChanged { resource, at, capacity } => {
                    out.push_str(&format!(
                        "{:>12.6}  platform r{} cap = {:.3e}\n",
                        at.as_secs(),
                        resource,
                        capacity
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shape() {
        let t = Trace {
            events: vec![
                TraceEvent::Started { id: WorkId(0), at: SimTime::ZERO },
                TraceEvent::RateChanged { id: WorkId(0), at: SimTime::ZERO, rate: 1.25e8 },
                TraceEvent::PlatformChanged {
                    resource: 3,
                    at: SimTime::from_secs(0.5),
                    capacity: 0.0,
                },
                TraceEvent::RateChanged {
                    id: WorkId(0),
                    at: SimTime::from_secs(1.0),
                    rate: f64::INFINITY,
                },
                TraceEvent::Finished { id: WorkId(0), at: SimTime::from_secs(1.0) },
            ],
        };
        let json = t.to_chrome_json();
        // array shape, one record per event
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":").count(), t.events.len());
        // balanced duration slices on the work's track
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        // timestamps are microseconds of simulated time
        assert!(json.contains("\"ts\":500000"));
        assert!(json.contains("\"ts\":1000000"));
        // ∞ rates are flattened to a finite counter value
        assert!(!json.contains("inf"));
        assert!(json.contains("\"rate\":125000000"));
        // platform instant carries resource + capacity args
        assert!(json.contains("\"resource\":3"));
    }
}
