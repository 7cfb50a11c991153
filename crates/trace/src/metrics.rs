//! The metrics registry: deterministic log-bucketed histograms and
//! the counters an image kept, behind one export surface.
//!
//! Two layers with different disciplines:
//!
//! * **Recording** ([`Histogram`]) is hot-path-safe: a
//!   `leading_zeros` + `Cell` bump, no allocation, no `RefCell`
//!   borrow, never touches the virtual clock.
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
pub(crate) const HIST_BUCKETS: usize = 65;

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
    /// The bucket a value lands in: its bit length (0 for 0), i.e.
    /// bucket *i* spans `[2^(i-1), 2^i)`.
    #[inline]
    pub(crate) fn bucket_of(value: u64) -> usize {
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
    pub(crate) count: u64,
    /// Sum of recorded values.
    pub(crate) sum: u64,
    /// Smallest recorded value (0 when empty).
    pub(crate) min: u64,
    /// Largest recorded value.
    pub(crate) max: u64,
    /// Non-empty `(bucket, count)` pairs, ascending.
    pub(crate) buckets: Vec<(u8, u64)>,
}

/// What one registry entry holds.
#[derive(Debug, Clone, PartialEq)]
enum MetricValue {
    Counter(u64),
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
        let h = Histogram::default();
        for v in [0, 1, 3, 3, 100, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1131);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (7, 1), (11, 1)]);
        assert_eq!(
            Histogram::default().snapshot(),
            HistogramSnapshot::default(),
            "an empty histogram reports min 0, not u64::MAX"
        );
    }

    #[test]
    fn registry_renders_in_insertion_order() {
        let reg = Registry::new();
        reg.set_counter("b.second", 2);
        reg.set_counter("a.first", 1);
        reg.set_counter("c.third", 3);
        let json = reg.to_json();
        let b = json.find("b.second").unwrap();
        let a = json.find("a.first").unwrap();
        let c = json.find("c.third").unwrap();
        assert!(b < a && a < c, "insertion order is serialization order");
        // Overwrite keeps the slot.
        reg.set_counter("b.second", 7);
        let json = reg.to_json();
        assert_eq!(json.lines().count(), 5, "three metrics between the braces");
        assert!(json.starts_with("{\n  \"b.second\": 7,\n"));
    }

    #[test]
    fn registry_json_shape() {
        let reg = Registry::new();
        reg.set_counter("x", 1);
        let h = Histogram::default();
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
