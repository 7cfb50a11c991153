//! Host-time spans, recorded by the harness around its calls into each
//! layer's public functions.
//!
//! A span is a name, a start, an end, the span that caused it, and a
//! root id shared by every span of one request (one sweep point, one
//! request batch). Spans stay in memory until the run ends; then they
//! are written as Chrome-trace JSON and folded into a self-time table
//! (a span's duration minus what its children cover). Nothing inside
//! `crates/` is instrumented: where a layer cannot be wrapped from
//! outside, the trace run measures it with a loop over its public entry
//! points instead (see `probes`).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `system.build`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (`start_ns` until the span is closed).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request id: the root span's argument (point index, batch number).
    pub root: u64,
}

/// Where a measured loop reports its layer boundaries: a [`Spans`]
/// recorder in a trace run, `()` otherwise. Loops are generic over the
/// tap, so the untraced build of a loop contains no trace of tracing.
pub trait Tap {
    /// Opens a root span for request `id`.
    fn root(&mut self, name: &'static str, id: u64);
    /// Opens a child span.
    fn enter(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn exit(&mut self);
}

impl Tap for () {
    #[inline(always)]
    fn root(&mut self, _: &'static str, _: u64) {}
    #[inline(always)]
    fn enter(&mut self, _: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

impl Tap for Spans {
    fn root(&mut self, name: &'static str, id: u64) {
        self.enter_root(name, id);
    }
    fn enter(&mut self, name: &'static str) {
        Spans::enter(self, name);
    }
    fn exit(&mut self) {
        Spans::exit(self);
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals of a recorded run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part child spans cover, ns.
    pub self_ns: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span: the start of one request, identified by `id`.
    pub fn enter_root(&mut self, name: &'static str, id: u64) {
        self.push(name, id);
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let root = self.open.last().map_or(0, |&i| self.spans[i as usize].root);
        self.push(name, root);
    }

    fn push(&mut self, name: &'static str, root: u64) {
        let now = self.now_ns();
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            root,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open — unbalanced calls are a harness bug.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, &children) in self.spans.iter().zip(&child_ns) {
            let duration = span.end_ns - span.start_ns;
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(children);
        }
        out
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The self-time table, one line per name, widest total first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<_> = self.totals().into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.total_ns));
        let mut out = format!(
            "{:<28} {:>9} {:>13} {:>13}\n",
            "span", "count", "total ms", "self ms"
        );
        for (name, t) in rows {
            out.push_str(&format!(
                "{:<28} {:>9} {:>13.3} {:>13.3}\n",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        out
    }

    /// Chrome `trace_event` JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph": "X"`) event per span, microsecond timestamps,
    /// the parent index and root id under `args`.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let cat = s.name.split('.').next().unwrap_or(s.name);
                let mut args = Value::obj().with("span", i).with("root", s.root);
                if let Some(p) = s.parent {
                    args.set("parent", u64::from(p));
                }
                Value::obj()
                    .with("name", s.name)
                    .with("cat", cat)
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with("args", args)
            })
            .collect();
        Value::obj()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", events)
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new();
        s.enter_root("a.root", 7);
        s.within("b.child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.within("b.child", || ());
        s.exit();
        let totals = s.totals();
        let root = totals["a.root"];
        let child = totals["b.child"];
        assert_eq!((root.count, child.count), (1, 2));
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
        assert!(s.all().iter().all(|sp| sp.root == 7));
        assert_eq!(s.all()[1].parent, Some(0));
        assert!(s.self_time_table().contains("b.child"));
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let mut s = Spans::new();
        s.enter_root("x.y", 1);
        s.within("x.z", || ());
        s.exit();
        let doc = crate::json::parse(&s.chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }
}
