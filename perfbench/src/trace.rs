//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer boundary crossed by the benchmark: its name, the
//! host interval on the thread's CPU clock, the span that caused it and the strategy it ran under.
//! Spans stay in memory while the workload runs and are written as JSON
//! lines once it ends, so writing them never lands inside a timed interval.
//! With tracing off, `begin`/`end` record nothing.

use dlb_exec::Strategy;
use std::collections::BTreeMap;
use std::io::Write;

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    strategy: Option<String>,
}

/// Span recorder for one workload process.
#[derive(Debug)]
pub struct Tracer {
    /// Whether `begin` records spans.
    pub on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, strategy: Option<&Strategy>) -> SpanId {
        if !self.on {
            return None;
        }
        let strategy = strategy.map(Strategy::label);
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: crate::clock::thread_cpu_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            strategy,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            let end = crate::clock::thread_cpu_ns();
            self.spans[id].end_ns = end;
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Self time in seconds per span name: each span's duration minus the
    /// part of it its child spans cover.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let strategy = s
                .strategy
                .as_ref()
                .map_or("null".to_string(), |l| format!("\"{l}\""));
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"strategy\":{strategy}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
