//! In-memory spans for the traced run.
//!
//! A span has a name, start, end, parent and an optional request id (spans of
//! one served request share the envelope `id`). Spans are opened and closed
//! around the benchmark's own calls into each layer — nothing inside the
//! program is instrumented — and written out as NDJSON at the end. A layer's
//! self time is its spans' duration minus the time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: Option<u64>,
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStat {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_origin(Instant::now())
    }

    /// A tracer whose timestamps share `origin` with others (one per thread),
    /// so [`Tracer::merge`] keeps them on one time line.
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        self.enter_id(name, None)
    }

    pub fn enter_id(&mut self, name: &'static str, id: Option<u64>) -> Open {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        self.open.push(index);
        Open(index)
    }

    pub fn exit(&mut self, span: Open) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close in the order they open");
        self.spans[span.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let value = f();
        self.exit(open);
        value
    }

    /// Appends another tracer's spans (re-indexing their parents).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total duration and self time per span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut stats: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let stat = stats.entry(span.name).or_default();
            stat.count += 1;
            stat.total_ns += duration;
            stat.self_ns += duration.saturating_sub(children);
        }
        stats
    }

    /// Durations of every span named `name`, in ms, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total duration of the spans named `child` whose parent is named
    /// `parent`.
    pub fn child_total_ns(&self, parent: &str, child: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| {
                span.name == child && span.parent.is_some_and(|p| self.spans[p].name == parent)
            })
            .map(|span| span.end_ns - span.start_ns)
            .sum()
    }

    /// Writes the spans of `workload`'s traced job to
    /// `.bench_spans/<workload>.ndjson`, replacing the previous traced run's.
    pub fn write_out(&self, workload: &str) {
        let path = Path::new(".bench_spans").join(format!("{workload}.ndjson"));
        match self.write_ndjson(&path) {
            Ok(()) => eprintln!("perfbench: {} spans written to {}", self.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        eprintln!("perfbench: {workload} span            count     total_ms      self_ms");
        for (name, stat) in self.stats() {
            eprintln!(
                "perfbench:   {name:<30} {:>8} {:>12.3} {:>12.3}",
                stat.count,
                stat.total_ns as f64 / 1e6,
                stat.self_ns as f64 / 1e6
            );
        }
    }

    /// Writes every span as one NDJSON line.
    fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let id = span.id.map_or("null".to_string(), |id| id.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"id\": {id}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
