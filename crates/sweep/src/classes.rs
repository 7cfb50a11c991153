//! Hardening classes: one recorded run per class, every other point of
//! the class priced from it.
//!
//! In this simulator hardening only adds per-component instrumentation
//! charges to an event sequence it does not change (see
//! `flexos_core::env`'s recorder). Two one-core points that differ only
//! in hardening, and whose compartment heaps run KASan alike, drive the
//! same events: a heap's KASan state decides its layout, its allocation
//! costs and its faults, but a component's own flag only decides what
//! its instructions are charged. So their measured cycles differ by
//! exactly what their flags add, and one recorded run answers for all of
//! them:
//!
//! `cycles(point) = base + surcharge(point's flags)`, where
//! `base = cycles(recorded) − surcharge(recorded point's flags)`.
//!
//! A **class** is the configuration with every component's hardening
//! cleared, the per-compartment "heap has KASan" bits, the workload and
//! the request counts. Its first point is simulated with the recorder on;
//! when that run succeeds, is fit to price from (see
//! [`Env::record_hardening`](flexos_core::env::Env::record_hardening))
//! and the measured window never entered `uktime` (a clock read is the
//! one way a run's cycles could feed back into what it does), the class
//! keeps `base` and the recorded per-flag cycles. Otherwise it is
//! remembered as simulate-only and never recorded again. Multi-core
//! points never get here: at 2, 4 and 8 cores contention and IPI
//! timings make cycles non-additive in the masks.
//!
//! A class is keyed, and its points priced, from the point's *shape*
//! alone ([`PointShape`]: no config is built for a lookup). The only
//! part of a class that reads the image is which compartments' heaps
//! run KASan, and the shape answers it from the hardening mask,
//! [`Strategy::compartment_of`] and where the app's image registers the
//! four Figure 6 rows ([`RowMap`], learnt from the first image built for
//! the app): a hardened row's compartment runs a KASan heap. The
//! surcharge reads the same three. The image builder's own definition is
//! [`SafetyConfig::kasan_heaps`](flexos_core::config::SafetyConfig::kasan_heaps)
//! on the built config; a recording, which builds the config anyway,
//! asserts that the two give the same key, and `tests/pricing.rs` holds
//! them (and the two surcharges) equal over every point of `quick` and
//! `full` and a stride of `full-profiled`.
//!
//! The table is process-wide and stays small: a class is a 32-bit key and
//! two 32-bit words (a base that does not fit 32 bits leaves its class
//! simulate-only), and equal recordings — the per-flag cycles of every
//! component and the operation count — are kept once and shared.

use std::collections::HashMap;
use std::sync::{LazyLock, PoisonError, RwLock};

use flexos_apps::workloads::RunMetrics;
use flexos_explore::Strategy;
use flexos_system::FlexOs;

use crate::space::{PointShape, RowMap, SpaceSpec, SweepPoint, Workload};

/// What a recorded run says about every point of its class.
#[derive(Debug, PartialEq, Eq)]
struct Recording {
    ops: u64,
    freq_hz: u64,
    /// Per component, in registry order: the cycles each hardening flag
    /// adds, as `[cfi, kasan, ubsan, stack_protector]`.
    rows: Box<[[u64; 4]]>,
}

/// One class: its base cycles and the index of its recording, or
/// simulate-only (an index past every recording).
#[derive(Debug, Clone, Copy)]
struct Class {
    base: u32,
    recording: u32,
}

impl Class {
    const SIMULATE: Class = Class {
        base: 0,
        recording: u32::MAX,
    };
}

/// What the table says about one point.
pub(crate) enum Verdict {
    /// The point's measured `ops` and `cycles`, priced, and the clock
    /// frequency they are read at.
    Priced { ops: u64, cycles: u64, freq_hz: u64 },
    /// Simulate the point; its class cannot be priced.
    Simulate,
    /// Simulate the point with the recorder on and [`record`] the run.
    Record,
}

#[derive(Debug, Default)]
struct Classes {
    /// Where each app's image registers the four Figure 6 rows, learnt
    /// from the first image built for it.
    apps: Vec<(&'static str, RowMap)>,
    /// `(workload, warmup, measured)`, numbered in order of first sight.
    contexts: Vec<(Workload, u64, u64)>,
    classes: HashMap<u32, Class>,
    /// Distinct recordings: sweeps record a few dozen.
    recordings: Vec<Recording>,
}

static CLASSES: LazyLock<RwLock<Classes>> = LazyLock::new(RwLock::default);

/// Packs `(value, width)` fields into 32 bits, low bits first, or
/// `None` when a value does not fit its width or the widths overflow
/// (such points are simply simulated).
fn pack(fields: impl IntoIterator<Item = (usize, u32)>) -> Option<u32> {
    let mut key = 0u32;
    let mut at = 0;
    for (value, width) in fields {
        if value >= 1 << width || at + width > 32 {
            return None;
        }
        key |= (value as u32) << at;
        at += width;
    }
    Some(key)
}

impl Classes {
    fn rows(&self, app: &str) -> Option<RowMap> {
        self.apps
            .iter()
            .find(|(a, _)| *a == app)
            .map(|&(_, rows)| rows)
    }

    /// The class key of a one-core point, given the context's number and
    /// which compartments' heaps run KASan.
    fn key(shape: &PointShape, context: usize, kasan_heaps: u32) -> Option<u32> {
        let strategy = Strategy::ALL.iter().position(|s| *s == shape.strategy)?;
        let mut profiles = [0; 3];
        for (slot, &(sharing, allocator)) in profiles.iter_mut().zip(shape.profiles.iter()) {
            // One past each discriminant, so an absent slot reads 0.
            *slot = (sharing as usize) << 2 | (allocator as usize + 1);
        }
        pack([
            (context, 8),
            (strategy, 3),
            (shape.mechanism as usize, 3),
            (profiles[0], 4),
            (profiles[1], 4),
            (profiles[2], 4),
            (kasan_heaps as usize, 3),
        ])
    }

    fn context(&self, spec: &SpaceSpec, shape: &PointShape) -> Option<usize> {
        let context = (shape.workload, spec.warmup, spec.measured);
        self.contexts.iter().position(|c| *c == context)
    }

    fn lookup(&self, spec: &SpaceSpec, shape: &PointShape) -> Verdict {
        let (Some(rows), Some(context)) =
            (self.rows(shape.workload.app()), self.context(spec, shape))
        else {
            return Verdict::Record;
        };
        let Some(key) = Self::key(shape, context, shape.kasan_bits(rows)) else {
            return Verdict::Simulate;
        };
        let Some(class) = self.classes.get(&key) else {
            return Verdict::Record;
        };
        let Some(recording) = self.recordings.get(class.recording as usize) else {
            return Verdict::Simulate;
        };
        Verdict::Priced {
            ops: recording.ops,
            cycles: u64::from(class.base) + shape.row_surcharge(rows, &recording.rows),
            freq_hz: recording.freq_hz,
        }
    }

    fn insert(
        &mut self,
        spec: &SpaceSpec,
        point: &SweepPoint,
        os: &FlexOs,
        run: Option<(RunMetrics, Vec<[u64; 4]>)>,
    ) {
        let app = point.workload.app();
        let registered = || os.env.registry().iter().map(|(_, c)| &*c.name);
        if self.rows(app).is_none() {
            self.apps.push((app, RowMap::new(app, registered())));
        }
        let context = match self.context(spec, point) {
            Some(c) => c,
            None => {
                self.contexts
                    .push((point.workload, spec.warmup, spec.measured));
                self.contexts.len() - 1
            }
        };
        let rows = self.rows(app).expect("pushed above");
        let key = Self::key(point, context, point.kasan_bits(rows));
        // The shape's reading of the image is the only one lookups use;
        // here the built config is at hand to check it against.
        assert_eq!(
            key,
            Self::key(point, context, point.config.kasan_heaps(registered())),
            "point {}: the shape and the config disagree on its KASan heaps",
            point.index
        );
        let Some(key) = key else {
            return;
        };
        // A clock read in the window could have fed the cycles back into
        // what the run did.
        let uktime = os.component("uktime").map(|id| id.0 as usize);
        let priced = run
            .filter(|(_, rows)| uktime.is_none_or(|t| rows[t] == [0; 4]))
            .and_then(|(m, per_flag)| {
                let base = m.cycles.checked_sub(point.row_surcharge(rows, &per_flag))?;
                let recording = Recording {
                    ops: m.ops,
                    freq_hz: os.env.machine().cost().freq_hz,
                    rows: per_flag.into(),
                };
                Some((u32::try_from(base).ok()?, recording))
            });
        let class = priced.map_or(Class::SIMULATE, |(base, recording)| Class {
            base,
            recording: self.intern(recording),
        });
        // Two workers can record one class at once; both saw the same run.
        self.classes.entry(key).or_insert(class);
    }

    fn intern(&mut self, recording: Recording) -> u32 {
        let i = match self.recordings.iter().position(|r| *r == recording) {
            Some(i) => i,
            None => {
                self.recordings.push(recording);
                self.recordings.len() - 1
            }
        };
        i as u32
    }
}

/// What the process-wide table says about the one-core point of `spec`
/// with this `shape`.
pub(crate) fn lookup(spec: &SpaceSpec, shape: &PointShape) -> Verdict {
    CLASSES
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .lookup(spec, shape)
}

/// Enters the class of `point`, a one-core point of `spec`, from its run
/// on `os`: its metrics and the recorder's rows, or `None` when the run
/// faulted or was unfit to price from.
pub(crate) fn record(
    spec: &SpaceSpec,
    point: &SweepPoint,
    os: &FlexOs,
    run: Option<(RunMetrics, Vec<[u64; 4]>)>,
) {
    CLASSES
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(spec, point, os, run);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Host bytes of the table's own storage, as hashbrown lays it out:
    /// a power-of-two bucket array holding 7/8 of it in entries, one
    /// control byte per bucket.
    fn host_bytes(table: &Classes) -> usize {
        fn map<K, V>(m: &HashMap<K, V>) -> usize {
            let buckets = (m.capacity() * 8 / 7).next_power_of_two();
            buckets * (std::mem::size_of::<(K, V)>() + 1)
        }
        map(&table.classes)
            + table.recordings.capacity() * std::mem::size_of::<Recording>()
            + table
                .recordings
                .iter()
                .map(|r| std::mem::size_of_val(&*r.rows))
                .sum::<usize>()
            + table.contexts.capacity() * std::mem::size_of::<(Workload, u64, u64)>()
    }

    #[test]
    fn a_table_of_18144_classes_fits_half_a_mebibyte() {
        // `explore-lazy`'s space enumerates 18 144 (shape, KASan heaps)
        // pairs; its sweeps recorded 60 distinct recordings of 7
        // components each.
        let mut table = Classes::default();
        for r in 0..60u64 {
            table.intern(Recording {
                ops: 200,
                freq_hz: 2_100_000_000,
                rows: vec![[r; 4]; 7].into(),
            });
        }
        for key in 0..18_144u32 {
            table.classes.insert(
                key.wrapping_mul(0x9E37_79B9),
                Class {
                    base: key,
                    recording: key % 60,
                },
            );
        }
        assert_eq!(table.recordings.len(), 60);
        let bytes = host_bytes(&table);
        assert!(bytes <= 512 * 1024, "{bytes} bytes");
    }

    #[test]
    fn keys_refuse_fields_that_do_not_fit() {
        assert_eq!(pack([(3, 2), (1, 1)]), Some(0b111));
        assert_eq!(pack([(4, 2)]), None);
        assert_eq!(pack([(0, 30), (0, 3)]), None);
    }
}
