//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions. Each span has a name, start, end, parent span
//! and request id; all are kept in memory and written out when the run
//! ends. A span's self time is its duration minus the part of that interval
//! its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span id; 0 means "no parent".
pub type SpanId = u64;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: call [`Tracer::end`] with it to record the interval.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: SpanId,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Opens a span (allocates its id so children can name it as parent).
    pub fn begin(&self) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// Closes `open` now, recording it under `name`.
    pub fn end(&self, open: Open, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        self.record(open.id, name, parent, request, open.start, Instant::now());
        open.id
    }

    /// Records an interval measured elsewhere as a new span.
    pub fn interval(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.record(id, name, parent, request, start, end);
        id
    }

    fn record(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let open = self.begin();
        let out = f(open.id);
        self.end(open, name, parent, request);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals: `(spans, total ns, self ns)`.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, (u64, u64, u64)> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.duration_ns();
        entry.2 += s.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "batch", 0, 100),
            span(2, 1, "encode", 0, 10),
            span(3, 1, "simulate", 10, 80),
            // Overlaps simulate: counted once.
            span(4, 1, "decode", 70, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["batch"], (1, 100, 10));
        assert_eq!(t["simulate"], (1, 70, 70));
        assert_eq!(t["decode"], (1, 20, 20));
    }

    #[test]
    fn recorded_spans_nest_by_parent() {
        let tracer = Tracer::new();
        tracer.time("outer", 0, 7, |outer| {
            tracer.time("inner", outer, 7, |_| std::hint::black_box(3 + 4));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.request, 7);
    }
}
