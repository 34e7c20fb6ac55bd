//! Spans recorded from outside the library, around the calls into each layer.
//!
//! The tree of one run is `workload → {generate, setup → {partition, build},
//! solve → apply[i], verify, probes}`.  Spans stay in memory and are written
//! once, at exit, as Chrome trace-event JSON.  The tracer is always on (a
//! dozen spans per run); what the traced pass adds is [`Traced`], the wrapper
//! that records one span per preconditioner application.

use std::sync::Mutex;
use std::time::Instant;

use krylov::{FaultLog, Preconditioner};

use crate::json::{obj, Value};

/// One closed interval of work, with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records nested spans on one timeline.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), state: Mutex::default() }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic inside a span aborts the run; the state itself is always
        // consistent between the two short critical sections below.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span; returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = {
            let mut state = self.lock();
            let id = state.spans.len();
            let parent = state.open.last().copied();
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            state.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
            state.open.push(id);
            id
        };
        let result = f();
        let mut state = self.lock();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        state.spans[id].end_ns = end_ns;
        let closed = state.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must close innermost-first");
        let seconds = state.spans[id].seconds();
        (result, seconds)
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
}

/// Durations in seconds of the spans called `name` directly below a span
/// called `parent`.
pub fn durations_under(spans: &[Span], parent: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == parent))
        .map(Span::seconds)
        .collect()
}

/// Self time of every span in nanoseconds: its duration minus the part its
/// children cover.  Children of one span never overlap (one timeline), so
/// the part they cover is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// `|Σ self − root| / root` over the tree rooted at span 0: how far the self
/// times are from accounting for the whole run.
pub fn self_time_gap(spans: &[Span]) -> f64 {
    let Some(root) = spans.first() else { return 0.0 };
    let total: u64 = self_times_ns(spans).iter().sum();
    let root_ns = (root.end_ns - root.start_ns).max(1);
    (total as f64 - root_ns as f64).abs() / root_ns as f64
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"X"`) event per span, timestamps in microseconds.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Value {
    let own = self_times_ns(spans);
    let events: Vec<Value> = spans
        .iter()
        .map(|s| {
            obj([
                ("name", Value::from(s.name)),
                ("ph", Value::from("X")),
                ("ts", Value::from(s.start_ns as f64 / 1e3)),
                ("dur", Value::from((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Value::from(1usize)),
                ("tid", Value::from(1usize)),
                (
                    "args",
                    obj([
                        ("id", Value::from(s.id)),
                        ("parent", Value::from(s.parent)),
                        ("workload", Value::from(workload)),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                        ("self_ns", Value::from(own[s.id])),
                    ]),
                ),
            ])
        })
        .collect();
    obj([("displayTimeUnit", Value::from("ms")), ("traceEvents", Value::Arr(events))])
}

/// A preconditioner that records a span per application and otherwise
/// forwards to `inner` — two clock reads per apply is all the traced pass
/// adds to a solve.
pub struct Traced<'a> {
    pub inner: &'a dyn Preconditioner,
    pub tracer: &'a Tracer,
}

impl Preconditioner for Traced<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.tracer.span("apply", || self.inner.apply(r, z));
    }

    fn apply_batch(&self, rs: &[&[f64]], zs: &mut [&mut [f64]]) {
        self.tracer.span("apply_batch", || self.inner.apply_batch(rs, zs));
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn collect_faults(&self, into: &mut FaultLog) {
        self.inner.collect_faults(into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < micros as u128 {
            std::hint::spin_loop();
        }
    }

    fn sample_tree() -> Vec<Span> {
        let tracer = Tracer::default();
        tracer.span("workload", || {
            tracer.span("setup", || {
                tracer.span("partition", || spin(200));
                tracer.span("build", || spin(300));
            });
            tracer.span("solve", || {
                for _ in 0..5 {
                    spin(50);
                    tracer.span("apply", || spin(100));
                }
            });
            spin(100);
        });
        tracer.spans()
    }

    #[test]
    fn parents_follow_the_call_nesting() {
        let spans = sample_tree();
        let parent_name = |s: &Span| s.parent.map(|p| spans[p].name);
        assert_eq!(spans[0].parent, None);
        for s in &spans[1..] {
            let expected = match s.name {
                "setup" | "solve" => "workload",
                "partition" | "build" => "setup",
                "apply" => "solve",
                other => panic!("unexpected span {other}"),
            };
            assert_eq!(parent_name(s), Some(expected));
        }
        assert_eq!(durations(&spans, "apply").len(), 5);
        assert_eq!(durations_under(&spans, "solve", "apply").len(), 5);
        assert!(durations_under(&spans, "setup", "apply").is_empty());
    }

    #[test]
    fn children_sum_to_at_most_their_parent() {
        let spans = sample_tree();
        for parent in &spans {
            let children: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(parent.id))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            assert!(children <= parent.end_ns - parent.start_ns, "span {}", parent.name);
        }
    }

    #[test]
    fn self_times_of_one_tree_sum_to_the_root() {
        let spans = sample_tree();
        assert!(self_time_gap(&spans) < 0.01, "gap {}", self_time_gap(&spans));
        let own = self_times_ns(&spans);
        let solve = spans.iter().find(|s| s.name == "solve").unwrap();
        // The solve's own share is the 5 × 50 µs spun between applies.
        assert!(own[solve.id] >= 250_000 && own[solve.id] < solve.end_ns - solve.start_ns);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = sample_tree();
        let doc = chrome_trace(&spans, "unit");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), spans.len());
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[0].get("args").unwrap().get("parent"), Some(&Value::Null));
        assert_eq!(Value::parse(&doc.to_compact()).unwrap(), doc);
    }
}
