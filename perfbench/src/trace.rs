//! Spans and counts recorded around calls into the program's public API.
//!
//! Spans are kept in memory and written as one JSON document when the run
//! ends; a span's self time is its duration minus the time its direct
//! children cover, computed from that document.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use st_core::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by the spans of one unit of work (a scenario, a job).
    pub unit: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for unit `unit`, nested under
    /// the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (e.g. between two callbacks),
    /// nested under the innermost open span.
    pub fn span_at(&mut self, name: &'static str, unit: u64, start: Instant, end: Instant) {
        let offset = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: offset(start),
            end_ns: offset(end),
            parent: self.open.last().copied(),
            unit,
        });
    }

    /// Adds `by` to the count `name`.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_default() += by;
    }

    /// Writes every span and count as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("unit", Json::U64(s.unit)),
            ])
        });
        let counts = Json::Obj(
            self.counts
                .iter()
                .map(|(k, v)| (k.to_string(), Json::U64(*v)))
                .collect(),
        );
        let doc = Json::obj([("spans", Json::arr(spans)), ("counts", counts)]);
        std::fs::write(path, doc.to_string() + "\n")
    }
}
