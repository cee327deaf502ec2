//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are recorded
//! by the benchmark around its own calls into the library; nothing inside
//! the library is instrumented. A layer's self time is its span's duration
//! minus the durations of its direct children (children never overlap:
//! each parent's children run on the parent's thread, one after another).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

/// Per-name aggregate: number of spans, total and self nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per span, in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 for earlier instants).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Close span `id` now and return its duration in nanoseconds.
    pub fn close(&self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let mut spans = self.spans();
        spans[id].end_ns = end;
        end - spans[id].start_ns
    }

    /// Record an already-measured interval.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        req: u64,
    ) -> SpanId {
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let r = f();
        self.close(id);
        r
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }

    /// Self-time aggregates by span name over the spans whose root
    /// ancestor is named `root`.
    pub fn aggregate_under(&self, root: &str) -> BTreeMap<&'static str, Agg> {
        let spans = self.snapshot();
        let root_of = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if spans[root_of(i)].name != root {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }
}
