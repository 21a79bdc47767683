//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A [`Tracer`] records `(name, parent, start, end)` for every span
//! opened while it is enabled; a disabled tracer records nothing and
//! costs one branch per call. Spans stay in memory until the run ends,
//! when [`summarize`] folds them into per-name totals with self time
//! (duration minus the part covered by child spans) and [`write_jsonl`]
//! writes them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `OnlineEngine::ingest`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Nanoseconds of this span covered by its direct children.
    pub child_ns: u64,
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
        let dur = end_ns - self.spans[idx].start_ns;
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].child_ns += dur;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Record an already-measured interval as a closed root span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let s = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let e = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: None,
            start_ns: s,
            end_ns: e.max(s),
            child_ns: 0,
        });
    }

    /// Move every span of `other` (another thread's tracer on the same
    /// epoch) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

impl SpanStats {
    /// Mean self time per span in microseconds (0 with no spans).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Fold spans into per-name totals.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(s.child_ns);
    }
    out
}

/// Write one JSON object per span to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            (s.end_ns - s.start_ns).saturating_sub(s.child_ns)
        )?;
    }
    w.flush()
}
