//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out once, when the run ends. A span
//! names the span that caused it (`parent`) and the request it belongs to;
//! a layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's index.
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one request (read, network
    /// request or build).
    pub request: u64,
    /// The layer boundary the span sits on.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Total and self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and never
/// reads the clock, so the same code runs traced and untraced.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    /// Nanoseconds since the tracer was created; 0 without reading the
    /// clock when disabled. Back-to-back spans share one reading as the end
    /// of one and the start of the next.
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Make room for `spans` more spans and touch it, so that recording
    /// them neither reallocates nor takes a page fault inside a span.
    pub fn reserve(&mut self, spans: usize) {
        if self.enabled {
            let len = self.spans.len();
            let filler = Span {
                id: 0,
                parent: None,
                request: 0,
                name: "",
                start_ns: 0,
                end_ns: 0,
            };
            self.spans.resize(len + spans, filler);
            self.spans.truncate(len);
        }
    }

    /// Open a span that started at `start_ns`. Returns `None` when disabled.
    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    /// Close a span at `end_ns`.
    pub fn end_at(&mut self, id: Option<SpanId>, end_ns: u64) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let id = self.begin_at(name, parent, request, start_ns);
        self.end_at(id, end_ns);
    }

    /// Open a span now.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        self.begin_at(name, parent, request, self.now())
    }

    /// Close a span now.
    pub fn end(&mut self, id: Option<SpanId>) {
        self.end_at(id, self.now());
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.self_ns += self_ns;
        }
        out
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns since tracer start\",\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span. Children may overlap each other or
/// stick out of their parent; neither is counted twice or beyond the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            let p = &spans[parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
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
    fn self_time_with_overlapping_children() {
        // Children [10,40) and [30,60) cover [10,60) of [0,100): 50 left.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn self_time_with_nested_children() {
        // A grandchild is subtracted from its parent only, not from the root.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 20, 80),
            span(2, Some(1), 30, 50),
            span(3, Some(1), 35, 45),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20, 10]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A child sticking out on both sides covers the parent exactly once;
        // a child entirely outside covers nothing.
        let spans = [
            span(0, None, 50, 100),
            span(1, Some(0), 0, 200),
            span(2, Some(0), 300, 400),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let spans = [span(0, None, 50, 100), span(1, Some(0), 90, 150)];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 1);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.begin("root", None, 7);
        let child = t.begin("child", root, 7);
        t.end(child);
        t.end(root);
        let totals = t.totals();
        assert_eq!(totals["root"].count, 1);
        assert_eq!(
            totals["root"].self_ns + totals["child"].total_ns,
            totals["root"].total_ns
        );
    }
}
