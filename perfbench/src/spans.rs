//! The benchmark's own spans, recorded around each call it makes into a
//! layer of the program.
//!
//! Spans are kept in memory with nanosecond timestamps (one [`Track`] per
//! harness thread, so recording never locks) and written once at the end as
//! a Chrome trace through `tracelog`'s exporter.  Every span carries its own
//! id, its parent's id and the id of the job or submission it belongs to.
//! A layer's self time is its span's duration minus the part of it covered
//! by its child spans.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use tracelog::{ArgValue, EventKind, ThreadLog, TraceEvent};

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One finished (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-call name, e.g. `trace.pull`.
    pub name: &'static str,
    /// Start, nanoseconds after the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the run's origin.
    pub end_ns: u64,
    /// Unique id within the run.
    pub id: u64,
    /// Id of the enclosing span, or [`ROOT`].
    pub parent: u64,
    /// Id shared by every span of one job or submission.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans.
#[derive(Debug)]
pub struct Track {
    label: String,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Track {
    /// A track whose span ids start above `number << 40`, so ids from
    /// different tracks never collide.
    pub fn new(label: &str, number: u64, origin: Instant) -> Track {
        Track {
            label: label.to_string(),
            origin,
            next_id: (number << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u64, op: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            id,
            parent,
            op,
        });
        id
    }

    /// Closes the span `id` and returns its duration in nanoseconds.
    ///
    /// # Panics
    ///
    /// If `id` was not opened on this track (a harness bug).
    pub fn close(&mut self, id: u64) -> u64 {
        let end_ns = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing a span this track opened");
        span.end_ns = end_ns.max(span.start_ns);
        span.dur_ns()
    }

    /// Runs `f` inside a span with no children and returns its result and
    /// duration in nanoseconds.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, op);
        let value = f();
        let dur = self.close(id);
        (value, dur)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, nanoseconds: each span's duration minus the
/// durations of its direct children.
pub fn self_times(tracks: &[Track]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for span in tracks.iter().flat_map(|t| t.spans.iter()) {
        if span.parent != ROOT {
            *child_ns.entry(span.parent).or_default() += span.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for span in tracks.iter().flat_map(|t| t.spans.iter()) {
        let children = child_ns.get(&span.id).copied().unwrap_or(0);
        *out.entry(span.name).or_default() += span.dur_ns().saturating_sub(children);
    }
    out
}

/// Renders the tracks as a Chrome trace-event document.
pub fn chrome_json(tracks: &[Track]) -> String {
    let logs: Vec<ThreadLog> = tracks
        .iter()
        .enumerate()
        .map(|(tid, track)| ThreadLog {
            label: track.label.clone(),
            tid: tid as u64 + 1,
            events: track
                .spans
                .iter()
                .map(|s| TraceEvent {
                    name: s.name,
                    kind: EventKind::Span {
                        start_us: s.start_ns / 1_000,
                        dur_us: s.dur_ns() / 1_000,
                    },
                    args: vec![
                        ("id", ArgValue::U64(s.id)),
                        ("parent", ArgValue::U64(s.parent)),
                        ("op", ArgValue::U64(s.op)),
                    ],
                })
                .collect(),
            dropped: 0,
        })
        .collect();
    serde_json::to_string(&tracelog::chrome::to_chrome_value(&logs))
        .expect("trace value serializes")
}
