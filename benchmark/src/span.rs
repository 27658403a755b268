//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around the call into `Collector::process_batch`, `Server::start`,
//! `client::get`, ...), kept in a `Vec` for the whole run and written as
//! JSON lines only after the measurement has ended. A disabled recorder
//! records nothing, so the untraced run pays one branch per call site.

use hashflow_server::json::Obj;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `collector.seal`.
    pub name: &'static str,
    /// Start and end, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open on this thread at entry.
    pub parent: Option<u32>,
    /// Epoch or request number shared by the spans of one unit of work.
    pub id: u64,
}

/// An open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// A per-thread span log. Threads record into their own recorder (same
/// origin) and are merged with [`Recorder::absorb`] after joining.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(origin: Instant, on: bool) -> Self {
        Recorder {
            origin,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn sibling(&self) -> Self {
        Recorder::new(self.origin, self.on)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        Open(index)
    }

    /// Closes `span` (and anything left open inside it).
    #[inline]
    pub fn exit(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == span.0 {
                break;
            }
        }
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Per-span self time: the span's duration minus the part of it that
    /// its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Per-name totals `(name, count, total_ns, self_ns)`, in order of
    /// first appearance.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let selfs = self.self_times();
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let total = span.end_ns - span.start_ns;
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += self_ns;
                }
                None => rows.push((span.name, 1, total, self_ns)),
            }
        }
        rows
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let line = Obj::new()
                .u64("span", i as u64)
                .str("name", span.name)
                .u64("start_ns", span.start_ns)
                .u64("end_ns", span.end_ns)
                .opt_u64("parent", span.parent.map(u64::from))
                .u64("id", span.id)
                .u64("self_ns", self_ns)
                .build();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            // Sweep the children in start order, counting each covered
            // nanosecond of the parent once even if children overlap.
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(100, 200, None),
            span(90, 150, Some(0)),
            span(140, 180, Some(0)),
            span(190, 250, Some(0)),
        ];
        // Covered: [100,150) + [150,180) + [190,200) = 90.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_links_parents_and_merges_threads() {
        let mut main = Recorder::new(Instant::now(), true);
        let outer = main.enter("epoch", 7);
        let inner = main.enter("collector.seal", 7);
        main.exit(inner);
        main.exit(outer);
        let mut other = main.sibling();
        let a = other.enter("loadgen.send", 1);
        let b = other.enter("udp", 1);
        other.exit(b);
        other.exit(a);
        main.absorb(other);
        let parents: Vec<Option<u32>> = main.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(main.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let summary = main.summary();
        assert_eq!(summary.len(), 4);
        assert_eq!(summary[1], {
            let s = main.spans()[1];
            (
                "collector.seal",
                1,
                s.end_ns - s.start_ns,
                s.end_ns - s.start_ns,
            )
        });
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        let s = rec.enter("x", 0);
        rec.exit(s);
        assert!(rec.spans().is_empty());
    }
}
