//! The metrics registry: dense `Cell` counters and deterministic
//! log-bucketed histograms behind one export surface.
//!
//! Two layers with different disciplines:
//!
//! * **Recording** ([`Counter`], [`Histogram`]) is hot-path-safe: a
//!   `Cell` bump or a `leading_zeros` + `Cell` bump, no allocation, no
//!   `RefCell` borrow, never touches the virtual clock.
//! * **Export** ([`Registry`]) happens once per run: callers snapshot
//!   whatever counters the image kept (component stats, gate
//!   breakdowns, budget refusals, allocator stats) into one
//!   insertion-ordered registry and render it as JSON. Allocation is
//!   fine there — it is off every measured path.
//!
//! Histogram buckets are powers of two (bucket *i* holds values whose
//! bit length is *i*, bucket 0 holds zero), so the shape is a pure
//! function of the recorded values — deterministic across runs and
//! hosts, unlike wall-clock-calibrated schemes.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;

use crate::json::JsonStr;

/// Number of histogram buckets: one per possible `u64` bit length,
/// plus bucket 0 for the value zero.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing `Cell` counter.
#[derive(Debug, Default)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Counter(Cell::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.set(0);
    }
}

/// A deterministic log2-bucketed latency histogram over `Cell`s.
#[derive(Debug)]
pub struct Histogram {
    buckets: [Cell<u64>; HIST_BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket a value lands in: its bit length (0 for 0), i.e.
    /// bucket *i* spans `[2^(i-1), 2^i)`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one value — `Cell` traffic only, no allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].set(self.buckets[Self::bucket_of(value)].get() + 1);
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get() + value);
        if value < self.min.get() {
            self.min.set(value);
        }
        if value > self.max.get() {
            self.max.set(value);
        }
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Forgets everything recorded.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.set(0);
        }
        self.count.set(0);
        self.sum.set(0);
        self.min.set(u64::MAX);
        self.max.set(0);
    }

    /// An owned snapshot for the export layer.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.get(),
            sum: self.sum.get(),
            min: if self.count.get() == 0 {
                0
            } else {
                self.min.get()
            },
            max: self.max.get(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| b.get() > 0)
                .map(|(i, b)| (i as u8, b.get()))
                .collect(),
        }
    }
}

/// Owned histogram state at export time; only non-empty buckets are
/// kept, as `(bit_length, count)` pairs in ascending bucket order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty `(bucket, count)` pairs, ascending.
    pub buckets: Vec<(u8, u64)>,
}

/// What one registry entry holds.
#[derive(Debug, Clone, PartialEq)]
enum MetricValue {
    Counter(u64),
    Float(f64),
    Histogram(HistogramSnapshot),
}

/// The insertion-ordered export registry: `set`/`record` everything an
/// image kept, then render once with [`Registry::to_json`]. Insertion
/// order is the serialization order, so exports are byte-stable as
/// long as callers register in a fixed order.
#[derive(Debug, Default)]
pub struct Registry {
    entries: RefCell<Vec<(String, MetricValue)>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or overwrites) an integer counter/gauge.
    pub fn set_counter(&self, name: &str, value: u64) {
        self.put(name, MetricValue::Counter(value));
    }

    /// Registers (or overwrites) a float gauge (rendered with fixed
    /// precision so exports stay byte-stable).
    pub fn set_float(&self, name: &str, value: f64) {
        self.put(name, MetricValue::Float(value));
    }

    /// Registers (or overwrites) a histogram snapshot.
    pub fn set_histogram(&self, name: &str, snap: HistogramSnapshot) {
        self.put(name, MetricValue::Histogram(snap));
    }

    fn put(&self, name: &str, value: MetricValue) {
        let mut entries = self.entries.borrow_mut();
        if let Some(slot) = entries.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            entries.push((name.to_string(), value));
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// Renders the registry as one pretty-stable JSON object, metrics
    /// in registration order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let entries = self.entries.borrow();
        for (i, (name, value)) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            let name = JsonStr(name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "  {name}: {v}{comma}");
                }
                MetricValue::Float(v) => {
                    let _ = writeln!(out, "  {name}: {v:.3}{comma}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "  {name}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                        h.count, h.sum, h.min, h.max
                    );
                    for (j, (bucket, count)) in h.buckets.iter().enumerate() {
                        let sep = if j + 1 == h.buckets.len() { "" } else { ", " };
                        let _ = write!(out, "[{bucket}, {count}]{sep}");
                    }
                    let _ = writeln!(out, "]}}{comma}");
                }
            }
        }
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_bit_lengths() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0, 1, 3, 3, 100, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1131);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (7, 1), (11, 1)]);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn registry_renders_in_insertion_order() {
        let reg = Registry::new();
        reg.set_counter("b.second", 2);
        reg.set_counter("a.first", 1);
        reg.set_float("c.third", 0.5);
        let json = reg.to_json();
        let b = json.find("b.second").unwrap();
        let a = json.find("a.first").unwrap();
        let c = json.find("c.third").unwrap();
        assert!(b < a && a < c, "insertion order is serialization order");
        // Overwrite keeps the slot.
        reg.set_counter("b.second", 7);
        assert_eq!(reg.len(), 3);
        assert!(reg.to_json().contains("\"b.second\": 7"));
    }

    #[test]
    fn registry_json_shape() {
        let reg = Registry::new();
        reg.set_counter("x", 1);
        let h = Histogram::new();
        h.record(5);
        reg.set_histogram("lat", h.snapshot());
        let json = reg.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains(
            "\"lat\": {\"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5, \"buckets\": [[3, 1]]}"
        ));
    }
}
