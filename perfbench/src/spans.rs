//! The traced run's span log: spans the benchmark records around its own
//! calls into each layer, kept in memory and written out when the run
//! ends. Each span carries the allocations its thread made inside it
//! (zero unless the counting allocator is installed).

use std::io::Write;
use std::time::Instant;

use crate::alloc;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.connect`.
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Trace id: the index of the benchmark call the span belongs to.
    pub trace: u64,
    /// Start and end, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations and bytes requested by this thread inside the span.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of `parent`: its duration minus the part of its interval
/// that `children` cover. Overlapping children count once, and any part
/// of a child outside the parent's interval counts not at all.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    parent.duration_ns() - covered
}

/// One thread's spans. Ids are unique across threads because each log
/// owns the id lane `lane << 32`.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        SpanLog {
            epoch,
            next_id: (lane << 32) | 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve a span id before the span's children run, so they can
    /// name it as their parent.
    pub fn open(&mut self) -> (u64, u64) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.now_ns())
    }

    /// Close a span opened with [`SpanLog::open`].
    pub fn close(&mut self, name: &'static str, open: (u64, u64), parent: u64, trace: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: open.0,
            parent,
            trace,
            start_ns: open.1,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        });
    }

    /// Run `f` inside a leaf span, counting its allocations.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open();
        let before = alloc::thread_counts();
        let out = f();
        let after = alloc::thread_counts();
        self.close(name, open, parent, trace);
        let span = self.spans.last_mut().expect("span just pushed");
        span.allocs = after.0 - before.0;
        span.alloc_bytes = after.1 - before.1;
        out
    }
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"trace\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            s.name, s.id, s.parent, s.trace, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id: 0,
            parent: 0,
            trace: 0,
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let root = span(0, 100);
        let (a, b) = (span(10, 30), span(50, 60));
        assert_eq!(self_time_ns(&root, &[&a, &b]), 70);
        assert_eq!(self_time_ns(&root, &[]), 100);
    }

    #[test]
    fn self_time_counts_overlaps_once_and_clips_to_parent() {
        let root = span(100, 200);
        // Overlapping pair covers 120..170; nested child adds nothing.
        let (a, b, nested) = (span(120, 150), span(140, 170), span(125, 130));
        assert_eq!(self_time_ns(&root, &[&b, &a, &nested]), 50);
        // Children sticking out of either end are clipped.
        let (early, late) = (span(50, 110), span(190, 300));
        assert_eq!(self_time_ns(&root, &[&early, &late]), 80);
        // A child wholly outside covers nothing; one covering all leaves 0.
        assert_eq!(self_time_ns(&root, &[&span(300, 400)]), 100);
        assert_eq!(self_time_ns(&root, &[&span(0, 500)]), 0);
    }

    #[test]
    fn span_log_nests_children_under_an_open_root() {
        let mut log = SpanLog::new(Instant::now(), 3);
        let root = log.open();
        let v = log.time("leaf", root.0, 7, || 41 + 1);
        log.close("root", root, 0, 7);
        assert_eq!(v, 42);
        let (leaf, parent) = (&log.spans[0], &log.spans[1]);
        assert_eq!(leaf.parent, parent.id);
        assert_eq!(parent.id >> 32, 3);
        assert!(parent.start_ns <= leaf.start_ns && leaf.end_ns <= parent.end_ns);
        assert_eq!(durations_us(&log.spans, "leaf").len(), 1);
    }
}
