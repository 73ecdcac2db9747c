//! In-memory spans and counters for the traced run.
//!
//! A span is recorded around each call the benchmark makes into one layer:
//! its name, start, end, the span that caused it, and the op it belongs
//! to. Spans stay in memory and are folded into per-layer self times when
//! the run ends. A disabled tracer records nothing and times nothing, so
//! the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Identifies an open span; closing it with [`Tracer::exit`] records it.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// The op this span belongs to (0 = set-up).
    op: u64,
    start: Instant,
    end: Option<Instant>,
    /// Measurement-only work (the churn twin): excluded from op time.
    shadow: bool,
}

#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

/// Per-layer totals folded from the recorded spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Summed self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Summed duration of the root (op) spans, minus shadow spans.
    pub op_ns: f64,
    /// Summed duration of shadow spans.
    pub shadow_ns: f64,
    /// Summed self time of every non-root span, minus shadow spans.
    pub attributed_ns: f64,
}

impl Summary {
    /// Busy time of a layer in milliseconds.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0.0) / 1e6
    }

    /// Summed self time of the traced layers over the traced op time.
    pub fn coverage(&self) -> f64 {
        if self.op_ns > 0.0 {
            self.attributed_ns / self.op_ns
        } else {
            0.0
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, ..Default::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn push(&mut self, name: &'static str, shadow: bool) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start: Instant::now(),
            end: None,
            shadow,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Open a span. Spans nest: the innermost open span is the parent.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        self.push(name, false)
    }

    /// Open the root span of op number `op` (numbered from 1).
    pub fn enter_op(&mut self, op: u64) -> SpanId {
        self.op = op;
        self.push("op", false)
    }

    /// Close `id` and return its duration (zero when disabled).
    pub fn exit(&mut self, id: SpanId) -> Duration {
        let Some(idx) = id.0 else { return Duration::ZERO };
        let end = Instant::now();
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
        self.spans[idx].end = Some(end);
        end - self.spans[idx].start
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Run measurement-only work `f` inside a shadow span: it counts as
    /// the layer `name` but not as op time.
    pub fn shadow<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.push(name, true);
        let out = f();
        self.exit(id);
        out
    }

    /// Add `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Fold the recorded spans into per-layer self times.
    pub fn summary(&self) -> Summary {
        let dur = |s: &Span| s.end.map_or(0.0, |e| (e - s.start).as_nanos() as f64);
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out = Summary::default();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = dur(s) - child_ns[i];
            *out.self_ns.entry(s.name).or_insert(0.0) += self_ns;
            if s.shadow {
                out.shadow_ns += dur(s);
            }
            if s.parent.is_none() && s.name == "op" {
                out.op_ns += dur(s);
            } else if s.op > 0 && !s.shadow {
                out.attributed_ns += self_ns;
            }
        }
        out.op_ns -= out.shadow_ns;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(ms) {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let op = tr.enter_op(1);
        let outer = tr.enter("outer");
        spin(4);
        tr.span("inner", || spin(6));
        tr.exit(outer);
        tr.exit(op);
        let s = tr.summary();
        assert!(s.busy_ms("inner") >= 6.0);
        assert!(s.busy_ms("outer") >= 4.0 && s.busy_ms("outer") < 6.0);
        assert!(s.coverage() > 0.95 && s.coverage() <= 1.0, "coverage {}", s.coverage());
    }

    #[test]
    fn shadow_spans_are_not_op_time() {
        let mut tr = Tracer::new(true);
        let op = tr.enter_op(1);
        tr.shadow("twin", || spin(5));
        tr.span("real", || spin(5));
        tr.exit(op);
        let s = tr.summary();
        assert!(s.busy_ms("twin") >= 5.0);
        assert!(s.op_ns < 7e6, "op time {} ns", s.op_ns);
        assert!(s.coverage() > 0.9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let op = tr.enter_op(1);
        tr.span("x", || ());
        tr.count("n", 1.0);
        assert_eq!(tr.exit(op), Duration::ZERO);
        assert!(tr.summary().self_ns.is_empty());
        assert_eq!(tr.counter("n"), 0.0);
    }
}
