//! The generalized configuration space.
//!
//! Figure 6 varied two axes (compartmentalization strategy ×
//! per-component hardening) with everything else pinned. A
//! [`SpaceSpec`] opens the rest: the isolation mechanism behind the
//! compartment boundaries (MPK gates vs EPT RPC rings vs none), the
//! per-compartment isolation profile axes (data-sharing strategy and
//! heap allocator, swept image-uniformly), the application, and the
//! workload's own parameters — the axes OSmosis models as first-class
//! dimensions of the isolation design space and XOS exposes per
//! application. The old 80-point sweep is the named
//! [`SpaceSpec::fig6`] subset; [`SpaceSpec::full`] is the 8000-point
//! product the parallel engine exists for.
//!
//! Points are *generated on demand* ([`SpaceSpec::point`]): a spec is a
//! few vectors of axis values, never a materialized list of thousands
//! of configs, so worker threads can mint their own points from a
//! shared `&SpaceSpec` without cloning configuration trees around.

use std::fmt::{self, Write as _};
use std::ops::Deref;

use flexos_alloc::HeapKind;
use flexos_core::compartment::{DataSharing, Mechanism};
use flexos_core::config::SafetyConfig;
use flexos_core::hardening::Hardening;
use flexos_explore::{Strategy, FIG6_COMPONENTS};

/// One application workload, with its sweepable parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// redis-benchmark GET loop: `keyspace` preloaded keys, `pipeline`
    /// requests per batch (`-P`).
    RedisGet {
        /// Keys preloaded before the measured loop.
        keyspace: u32,
        /// Requests per pipelined batch.
        pipeline: u32,
    },
    /// wrk-style keep-alive GETs of the 612-byte welcome page.
    NginxGet,
    /// iPerf stream drained with `recv_buf`-byte buffers.
    IperfStream {
        /// Server receive-buffer size in bytes.
        recv_buf: u32,
    },
}

impl Workload {
    /// The application component this workload drives.
    pub fn app(&self) -> &'static str {
        match self {
            Workload::RedisGet { .. } => "redis",
            Workload::NginxGet => "nginx",
            Workload::IperfStream { .. } => "iperf",
        }
    }

    /// Short label fragment (`redis k3 P1`, `nginx`, `iperf b16384`).
    pub fn label(&self) -> String {
        match self {
            Workload::RedisGet { keyspace, pipeline } => {
                format!("redis k{keyspace} P{pipeline}")
            }
            Workload::NginxGet => "nginx".to_string(),
            Workload::IperfStream { recv_buf } => format!("iperf b{recv_buf}"),
        }
    }
}

/// A declarative configuration space: the cartesian product of its axis
/// vectors, minus the mechanism **and data-sharing** axes collapsing
/// for single-compartment strategies (an unsplit image has no boundary
/// for either to act on, exactly like the Figure 6 generator's
/// `Mechanism::None` special case — emitting one point per axis value
/// there would create indistinguishable duplicates and break the
/// poset's antisymmetry). The allocator axis never collapses: heap
/// behaviour is real even in a flat image.
///
/// Enumeration order is workload-major, then strategy, then mechanism,
/// then data sharing, then allocator, then hardening mask — chosen so
/// [`SpaceSpec::fig6`] (which pins the profile axes to one value each)
/// enumerates its 80 points strategy-major, mask-minor: the order of
/// the paper's Figure 6 sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSpec {
    /// Space name (reports, `BENCH_sweep.json`).
    pub name: String,
    /// Workload axis (also fixes the application per point).
    pub workloads: Vec<Workload>,
    /// Isolation mechanism guarding compartment boundaries.
    pub mechanisms: Vec<Mechanism>,
    /// Compartmentalization strategies (Figure 8's A..E shapes).
    pub strategies: Vec<Strategy>,
    /// Data-sharing profile applied to every compartment of a point
    /// (the per-compartment axis, swept image-uniformly).
    pub data_sharings: Vec<DataSharing>,
    /// Heap-allocator profile applied to every compartment of a point.
    pub allocators: Vec<HeapKind>,
    /// Per-component hardening masks over
    /// `flexos_explore::FIG6_COMPONENTS`.
    pub hardening_masks: Vec<u8>,
    /// Simulated core counts (the SMP axis). `vec![1]` — the default
    /// everywhere — leaves every point byte-identical to the pre-SMP
    /// enumeration; the axis is **outermost** (cores-major), so the
    /// historical index arithmetic of a `[1]` space is untouched.
    pub cores: Vec<u32>,
    /// When `true`, the data-sharing × allocator axes are assigned
    /// **per compartment slot** instead of image-uniformly: the space
    /// enumerates every `(data_sharing, allocator)` profile value for
    /// every compartment slot (slots = the max compartment count over
    /// the strategies), so genuinely mixed images — a shared-stack lwip
    /// next to a DSS scheduler, TLSF next to Lea heaps — become
    /// first-class points. Slots beyond a strategy's compartment count
    /// are don't-cares: distinct indices can then decode to the same
    /// canonical experiment, which the engine's measurement memo
    /// collapses (such a space must be explored lazily, never through
    /// the exhaustive star report — duplicates would break
    /// antisymmetry).
    pub per_compartment_profiles: bool,
    /// Operations (requests / KiB) driven before measurement, per point.
    pub warmup: u64,
    /// Operations measured, per point.
    pub measured: u64,
}

/// The decoded axes of one point — everything but its built
/// configuration. It is the cheap view the lazy engine orders and
/// deduplicates over 10⁵-point spaces and the one the hardening classes
/// price from ([`SpaceSpec::point`] builds a config; [`SpaceSpec::shape`]
/// is index arithmetic into a `Copy` value), and its
/// [`Display`](fmt::Display) is the point's label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointShape {
    /// Index within the spec's enumeration.
    pub index: usize,
    /// The workload driven against the built image.
    pub workload: Workload,
    /// Compartmentalization strategy.
    pub strategy: Strategy,
    /// *Effective* mechanism: the axis value, or [`Mechanism::None`]
    /// for single-compartment strategies (no boundary to guard).
    pub mechanism: Mechanism,
    /// Bit `i` hardens `FIG6_COMPONENTS[i]` with the Figure 6 bundle.
    pub hardening_mask: u8,
    /// Effective per-compartment `(data-sharing, allocator)` profiles:
    /// exactly `strategy.compartments()` entries, don't-care slots
    /// dropped and the single-compartment sharing collapsed to the
    /// default ([`DataSharing::Dss`]) — two shapes whose fields other
    /// than `index` are equal build byte-equal configs. Uniform spaces
    /// repeat the scalar axes.
    pub profiles: Profiles,
    /// Simulated cores the instance boots with.
    pub cores: u32,
}

/// The `(data-sharing, allocator)` profile of each compartment of a
/// point, held inline: no strategy has more than three compartments. It
/// derefs to the live entries, so `profiles[0]`, `.iter()` and `==` read
/// as on a slice; the slots past the live ones always hold the same
/// filler, so the derived equality and hash see only the live entries.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Profiles {
    len: u8,
    slots: [(DataSharing, HeapKind); 3],
}

impl Profiles {
    const FILLER: (DataSharing, HeapKind) = (DataSharing::Dss, HeapKind::Tlsf);

    /// `profile` for each of `n` compartments.
    fn uniform(profile: (DataSharing, HeapKind), n: usize) -> Profiles {
        let mut slots = [Profiles::FILLER; 3];
        slots[..n].fill(profile);
        Profiles {
            len: n as u8,
            slots,
        }
    }
}

/// # Panics
///
/// Panics on more than three profiles.
impl From<&[(DataSharing, HeapKind)]> for Profiles {
    fn from(profiles: &[(DataSharing, HeapKind)]) -> Profiles {
        let mut out = Profiles::uniform(Profiles::FILLER, profiles.len());
        out.slots[..profiles.len()].copy_from_slice(profiles);
        out
    }
}

impl Deref for Profiles {
    type Target = [(DataSharing, HeapKind)];

    fn deref(&self) -> &[(DataSharing, HeapKind)] {
        &self.slots[..usize::from(self.len)]
    }
}

impl fmt::Debug for Profiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Where an image registers the four Figure 6 rows of its app: each
/// row's position in the component registry, or `None` when the image
/// has no such component. With the hardening mask and the strategy it
/// is all a point's hardening classes read of the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowMap([Option<usize>; 4]);

impl RowMap {
    /// The rows of `app` among `registered`, the image's component names
    /// in registry order.
    pub(crate) fn new<'a>(app: &str, registered: impl IntoIterator<Item = &'a str>) -> RowMap {
        let mut rows = [None; 4];
        for (at, name) in registered.into_iter().enumerate() {
            let row = FIG6_COMPONENTS
                .iter()
                .position(|&row| name == if row == "app" { app } else { row });
            if let Some(row) = row {
                rows[row] = Some(at);
            }
        }
        RowMap(rows)
    }
}

impl PointShape {
    /// Which compartments' private heaps run KASan in this point's image,
    /// read from the shape alone: bit `c` is set when a Figure 6 row the
    /// image registers (`registered`: its component names in registry
    /// order) is hardened — the bundle includes KASan — and placed in
    /// compartment `c`. It equals [`SafetyConfig::kasan_heaps`] on the
    /// point's built config, the image builder's definition
    /// (`tests/pricing.rs` holds the two together).
    pub fn kasan_heaps<'a>(&self, registered: impl IntoIterator<Item = &'a str>) -> u32 {
        self.kasan_bits(RowMap::new(self.workload.app(), registered))
    }

    /// What this point's hardening adds to a window that recorded
    /// `per_flag[c]` = the cycles each flag `[cfi, kasan, ubsan,
    /// stack_protector]` of registered component `c` adds — read from the
    /// shape alone, as [`PointShape::kasan_heaps`] is.
    pub fn surcharge<'a>(
        &self,
        registered: impl IntoIterator<Item = &'a str>,
        per_flag: &[[u64; 4]],
    ) -> u64 {
        self.row_surcharge(RowMap::new(self.workload.app(), registered), per_flag)
    }

    /// `(registry position, compartment)` of each hardened row the image
    /// registers.
    fn hardened(&self, rows: RowMap) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..4)
            .filter(|row| self.hardening_mask & (1 << row) != 0)
            .filter_map(move |row| Some((rows.0[row]?, self.strategy.compartment_of(row))))
    }

    /// [`PointShape::kasan_heaps`] over an app's rows.
    pub(crate) fn kasan_bits(&self, rows: RowMap) -> u32 {
        self.hardened(rows).fold(0, |bits, (_, c)| bits | 1 << c)
    }

    /// [`PointShape::surcharge`] over an app's rows.
    pub(crate) fn row_surcharge(&self, rows: RowMap, per_flag: &[[u64; 4]]) -> u64 {
        let h = Hardening::FIG6_BUNDLE;
        let on = [h.cfi, h.kasan, h.ubsan, h.stack_protector].map(u64::from);
        let cost = |at: usize| {
            on.iter()
                .zip(&per_flag[at])
                .map(|(on, c)| on * c)
                .sum::<u64>()
        };
        self.hardened(rows).map(|(at, _)| cost(at)).sum()
    }
}

/// One generated point of a [`SpaceSpec`]: its shape plus the built
/// configuration. It derefs to the shape, so `point.workload` reads the
/// shape's field, and displays as the shape's label.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The decoded axes.
    pub shape: PointShape,
    /// The buildable configuration.
    pub config: SafetyConfig,
}

impl Deref for SweepPoint {
    type Target = PointShape;

    fn deref(&self) -> &PointShape {
        &self.shape
    }
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.shape.fmt(f)
    }
}

impl SpaceSpec {
    /// The original Figure 6 space for `app` ("redis" or "nginx"):
    /// MPK + DSS + TLSF, 5 strategies × 16 hardening masks = 80 points,
    /// in the historical order, driving the historical workload (3-key
    /// keyspace, no pipelining / plain nginx GETs). The profile axes
    /// are pinned to one value each, so the enumeration is
    /// config-equal to the pre-profile space.
    pub fn fig6(app: &str, warmup: u64, measured: u64) -> SpaceSpec {
        SpaceSpec {
            name: format!("fig6-{app}"),
            workloads: vec![match app {
                "nginx" => Workload::NginxGet,
                _ => Workload::RedisGet {
                    keyspace: 3,
                    pipeline: 1,
                },
            }],
            mechanisms: vec![Mechanism::IntelMpk],
            strategies: Strategy::ALL.to_vec(),
            data_sharings: vec![DataSharing::Dss],
            allocators: vec![HeapKind::Tlsf],
            hardening_masks: (0u8..16).collect(),
            cores: vec![1],
            per_compartment_profiles: false,
            warmup,
            measured,
        }
    }

    /// The full product space: 10 workloads (redis keyspace × pipeline,
    /// nginx, three iPerf buffer sizes) × {MPK, EPT} × 5 strategies ×
    /// 3 data-sharing profiles × 2 allocators × 16 hardening masks =
    /// **8000 points** (the mechanism and data-sharing axes collapse
    /// for the single-compartment strategy: 1 + 4×2×3 = 25 shape
    /// combos per workload).
    pub fn full(warmup: u64, measured: u64) -> SpaceSpec {
        let mut workloads = Vec::new();
        for keyspace in [3u32, 1024] {
            for pipeline in [1u32, 4, 16] {
                workloads.push(Workload::RedisGet { keyspace, pipeline });
            }
        }
        workloads.push(Workload::NginxGet);
        for recv_buf in [4096u32, 16384, 65536] {
            workloads.push(Workload::IperfStream { recv_buf });
        }
        SpaceSpec {
            name: "full".to_string(),
            workloads,
            mechanisms: vec![Mechanism::IntelMpk, Mechanism::VmEpt],
            strategies: Strategy::ALL.to_vec(),
            data_sharings: vec![
                DataSharing::Dss,
                DataSharing::HeapConversion,
                DataSharing::SharedStack,
            ],
            allocators: vec![HeapKind::Tlsf, HeapKind::Lea],
            hardening_masks: (0u8..16).collect(),
            cores: vec![1],
            per_compartment_profiles: false,
            warmup,
            measured,
        }
    }

    /// [`SpaceSpec::full`] with the profile axes assigned **per
    /// compartment slot**: 10 workloads × 9 `(strategy, mechanism)`
    /// shapes × 6³ profile assignments (3 data-sharing × 2 allocator
    /// values over 3 slots) × 16 hardening masks = **311,040 points**,
    /// of which 104,000 are canonical experiments (don't-care slots of
    /// 1- and 2-compartment strategies collapse; the measurement memo
    /// deduplicates). Exhaustive measurement is off the table at this
    /// size — the space exists to be explored lazily.
    pub fn full_profiled(warmup: u64, measured: u64) -> SpaceSpec {
        SpaceSpec {
            name: "full-profiled".to_string(),
            per_compartment_profiles: true,
            ..SpaceSpec::full(warmup, measured)
        }
    }

    /// A small space for CI and determinism tests that still covers
    /// every axis *kind*: 4 workloads × {MPK, EPT} × 5 strategies ×
    /// {DSS, shared-stack} × {TLSF, Lea} × 2 masks = 272 points
    /// (1 + 4×2×2 = 17 shape combos per workload).
    pub fn quick(warmup: u64, measured: u64) -> SpaceSpec {
        SpaceSpec {
            name: "quick".to_string(),
            workloads: vec![
                Workload::RedisGet {
                    keyspace: 3,
                    pipeline: 1,
                },
                Workload::RedisGet {
                    keyspace: 64,
                    pipeline: 8,
                },
                Workload::NginxGet,
                Workload::IperfStream { recv_buf: 16384 },
            ],
            mechanisms: vec![Mechanism::IntelMpk, Mechanism::VmEpt],
            strategies: Strategy::ALL.to_vec(),
            data_sharings: vec![DataSharing::Dss, DataSharing::SharedStack],
            allocators: vec![HeapKind::Tlsf, HeapKind::Lea],
            hardening_masks: vec![0b0000, 0b1111],
            cores: vec![1],
            per_compartment_profiles: false,
            warmup,
            measured,
        }
    }

    /// The SMP space: the §5 order extended core-count-monotonically.
    /// 3 workloads × {MPK, EPT} × 5 strategies × {DSS, shared-stack} ×
    /// TLSF × 2 masks × cores ∈ {1, 2, 4, 8} = **408 points** (1 + 4×2×2
    /// = 17 shape combos per workload). iPerf is left out: its
    /// single-stream driver has no shardable event loop, so the cores
    /// axis would be degenerate for it.
    pub fn full_smp(warmup: u64, measured: u64) -> SpaceSpec {
        SpaceSpec {
            name: "full-smp".to_string(),
            workloads: vec![
                Workload::RedisGet {
                    keyspace: 3,
                    pipeline: 1,
                },
                Workload::RedisGet {
                    keyspace: 64,
                    pipeline: 8,
                },
                Workload::NginxGet,
            ],
            mechanisms: vec![Mechanism::IntelMpk, Mechanism::VmEpt],
            strategies: Strategy::ALL.to_vec(),
            data_sharings: vec![DataSharing::Dss, DataSharing::SharedStack],
            allocators: vec![HeapKind::Tlsf],
            hardening_masks: vec![0b0000, 0b1111],
            cores: vec![1, 2, 4, 8],
            per_compartment_profiles: false,
            warmup,
            measured,
        }
    }

    /// Resolves a named space (`fig6-redis`, `fig6-nginx`, `quick`,
    /// `full`, `full-profiled`, `full-smp`).
    pub fn named(name: &str, warmup: u64, measured: u64) -> Option<SpaceSpec> {
        match name {
            "fig6-redis" => Some(SpaceSpec::fig6("redis", warmup, measured)),
            "fig6-nginx" => Some(SpaceSpec::fig6("nginx", warmup, measured)),
            "quick" => Some(SpaceSpec::quick(warmup, measured)),
            "full" => Some(SpaceSpec::full(warmup, measured)),
            "full-profiled" => Some(SpaceSpec::full_profiled(warmup, measured)),
            "full-smp" => Some(SpaceSpec::full_smp(warmup, measured)),
            _ => None,
        }
    }

    /// Shape combos `strategy` contributes to a workload's block: one
    /// for an unsplit image (its boundary axes collapse), else one per
    /// mechanism — times one per data sharing in uniform mode, where
    /// data sharing is a boundary axis rather than a profile slot.
    fn combos_of(&self, strategy: Strategy) -> usize {
        if strategy.compartments() == 1 {
            1
        } else if self.per_compartment_profiles {
            self.mechanisms.len()
        } else {
            self.mechanisms.len() * self.data_sharings.len()
        }
    }

    /// The strategy whose block holds `combo` of a workload's shape
    /// combos, and the combo's position within that block.
    fn strategy_at(&self, mut combo: usize) -> (Strategy, usize) {
        for &s in &self.strategies {
            let n = self.combos_of(s);
            if combo < n {
                return (s, combo);
            }
            combo -= n;
        }
        unreachable!("a combo index below `combos_per_workload()` lies in some strategy's block")
    }

    /// Shape combos per workload, over every strategy.
    fn combos_per_workload(&self) -> usize {
        self.strategies.iter().map(|&s| self.combos_of(s)).sum()
    }

    /// Profile slots enumerated per point in per-compartment mode: the
    /// largest compartment count any strategy needs.
    fn profile_slots(&self) -> usize {
        self.strategies
            .iter()
            .map(flexos_explore::Strategy::compartments)
            .max()
            .unwrap_or(0)
    }

    /// Profile assignments per shape combo: one allocator value each in
    /// uniform mode, one `(data_sharing, allocator)` value per slot in
    /// per-compartment mode.
    fn assignments(&self) -> usize {
        if self.per_compartment_profiles {
            let values = self.data_sharings.len() * self.allocators.len();
            values.pow(u32::try_from(self.profile_slots()).expect("tiny slot count"))
        } else {
            self.allocators.len()
        }
    }

    /// Points per core-count value (the historical pre-SMP space size).
    fn len_per_core(&self) -> usize {
        self.workloads.len()
            * self.combos_per_workload()
            * self.assignments()
            * self.hardening_masks.len()
    }

    /// Number of points in the space.
    pub fn len(&self) -> usize {
        self.len_per_core() * self.cores.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the axes of point `index` without building its
    /// configuration — index arithmetic into a `Copy` value, no
    /// allocation, cheap enough to call 10⁵ times for ordering,
    /// deduplication and pricing. Uniform spaces decode workload-major,
    /// then strategy, then mechanism, then data sharing, then allocator,
    /// then hardening mask; per-compartment-profile spaces replace the
    /// two profile axes with slot-0-major profile assignment digits,
    /// each digit sharing-major over `data_sharings × allocators`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn shape(&self, index: usize) -> PointShape {
        // Cores-major: strip the (outermost) SMP axis first, then decode
        // the historical per-core block innermost axis first.
        let per_core = self.len_per_core();
        let cores = self.cores[index / per_core];
        let inner = index % per_core;
        let masks = self.hardening_masks.len();
        let hardening_mask = self.hardening_masks[inner % masks];
        let assignments = self.assignments();
        let assignment = inner / masks % assignments;
        let rest = inner / masks / assignments;
        let combos = self.combos_per_workload();
        let workload = self.workloads[rest / combos];
        let (strategy, combo) = self.strategy_at(rest % combos);
        let n = strategy.compartments();
        let (mechanism, profiles) = if self.per_compartment_profiles {
            let mechanism = if n == 1 {
                Mechanism::None
            } else {
                self.mechanisms[combo]
            };
            let allocs = self.allocators.len();
            let values = self.data_sharings.len() * allocs;
            let slots = self.profile_slots();
            let mut profiles = Profiles::uniform(Profiles::FILLER, n);
            // Slot 0 is the most significant digit; slots past `n` are
            // don't-cares and are dropped.
            let mut digits = assignment / values.pow((slots - n) as u32);
            for slot in (0..n).rev() {
                let v = digits % values;
                profiles.slots[slot] =
                    (self.data_sharings[v / allocs], self.allocators[v % allocs]);
                digits /= values;
            }
            if n == 1 {
                // No boundary: the sharing slot is a don't-care; pin it
                // to the same collapsed default as the uniform axes so
                // equal order keys mean equal configs.
                profiles.slots[0].0 = DataSharing::default();
            }
            (mechanism, profiles)
        } else {
            let (mechanism, sharing) = if n == 1 {
                (Mechanism::None, DataSharing::default())
            } else {
                let sharings = self.data_sharings.len();
                (
                    self.mechanisms[combo / sharings],
                    self.data_sharings[combo % sharings],
                )
            };
            (
                mechanism,
                Profiles::uniform((sharing, self.allocators[assignment]), n),
            )
        };
        PointShape {
            index,
            workload,
            strategy,
            mechanism,
            hardening_mask,
            profiles,
            cores,
        }
    }

    /// Derives point `index`'s human-readable label from its shape
    /// alone — no config build, no per-point allocation held anywhere
    /// (reports call this on demand instead of storing 10⁵ strings).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn label_of(&self, index: usize) -> String {
        self.shape(index).to_string()
    }

    /// Generates point `index` (see [`SpaceSpec::shape`] for the
    /// enumeration order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn point(&self, index: usize) -> SweepPoint {
        let shape = self.shape(index);
        let config = flexos_explore::assigned_config(
            shape.workload.app(),
            shape.strategy,
            shape.mechanism,
            shape.hardening_mask,
            &shape.profiles,
        );
        SweepPoint { shape, config }
    }

    /// Iterates every point (allocates each lazily).
    pub fn points(&self) -> impl Iterator<Item = SweepPoint> + '_ {
        (0..self.len()).map(|i| self.point(i))
    }
}

/// The point's label. Points with one profile across every compartment
/// print the historical scalar form (`dss · tlsf`); genuinely mixed
/// assignments join per-compartment entries (`dss/tlsf+shared-stack/lea`).
impl fmt::Display for PointShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('[')?;
        for i in 0..4 {
            f.write_char(if self.hardening_mask & (1 << i) != 0 {
                '•'
            } else {
                '◦'
            })?;
        }
        let mech = match self.mechanism {
            Mechanism::None => "none",
            Mechanism::IntelMpk => "mpk",
            Mechanism::VmEpt => "ept",
            Mechanism::PageTable => "pt",
            _ => "cubicle",
        };
        write!(
            f,
            "] {} · {mech} · ",
            self.strategy.label(self.workload.app())
        )?;
        let (ds0, al0) = self.profiles[0];
        if self.profiles.iter().all(|&p| p == (ds0, al0)) {
            write!(f, "{ds0} · {al0}")?;
        } else {
            for (slot, (ds, al)) in self.profiles.iter().enumerate() {
                let sep = if slot == 0 { "" } else { "+" };
                write!(f, "{sep}{ds}/{al}")?;
            }
        }
        write!(f, " · {}", self.workload.label())?;
        if self.cores != 1 {
            write!(f, " · c{}", self.cores)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_is_the_80_point_mpk_dss_tlsf_sweep() {
        // §6.1: "a total of 2x80 configurations" (80 per application),
        // strategy-major then mask, every split guarded by MPK + DSS.
        use flexos_core::hardening::Hardening;
        for app in ["redis", "nginx"] {
            let spec = SpaceSpec::fig6(app, 5, 20);
            assert_eq!(spec.len(), 80);
            for (i, p) in spec.points().enumerate() {
                assert_eq!(p.strategy, Strategy::ALL[i / 16], "{app} point {i}");
                assert_eq!(usize::from(p.hardening_mask), i % 16, "{app} point {i}");
                let split = p.strategy.compartments() > 1;
                let mechanism = if split {
                    Mechanism::IntelMpk
                } else {
                    Mechanism::None
                };
                assert_eq!(p.config.dominant_mechanism(), mechanism);
                assert_eq!(p.profiles[0], (DataSharing::Dss, HeapKind::Tlsf));
                let rows = [app, "newlib", "uksched", "lwip"];
                for (row, name) in rows.iter().enumerate() {
                    assert_eq!(p.config.placement(name), p.strategy.compartment_of(row));
                    let want = if p.hardening_mask & (1 << row) != 0 {
                        Hardening::FIG6_BUNDLE
                    } else {
                        Hardening::NONE
                    };
                    assert_eq!(p.config.hardening_of(name), want, "{p}");
                }
            }
        }
    }

    #[test]
    fn full_space_covers_the_profile_axes() {
        // ISSUE 5 acceptance: the full space enumerates >= 4320 points
        // including the data-sharing x allocator axes.
        let spec = SpaceSpec::full(5, 20);
        assert!(spec.len() >= 4320, "got {}", spec.len());
        assert_eq!(spec.len(), 8000);
        assert!(spec.data_sharings.len() >= 3);
        assert!(spec.allocators.len() >= 2);
    }

    #[test]
    fn single_compartment_strategies_collapse_boundary_axes() {
        let spec = SpaceSpec::quick(5, 20);
        let mut seen = std::collections::HashSet::new();
        for p in spec.points() {
            assert!(
                seen.insert((
                    p.workload,
                    p.strategy,
                    p.mechanism,
                    p.profiles[0],
                    p.hardening_mask
                )),
                "duplicate point {p}"
            );
            if p.strategy.compartments() == 1 {
                assert_eq!(p.mechanism, Mechanism::None);
                assert_eq!(p.profiles[0].0, DataSharing::Dss);
            }
        }
        assert_eq!(seen.len(), spec.len());
    }

    #[test]
    fn profile_axes_reach_the_generated_configs() {
        let spec = SpaceSpec::quick(5, 20);
        let light = spec
            .points()
            .find(|p| p.profiles[0] == (DataSharing::SharedStack, HeapKind::Lea))
            .expect("quick space has a shared-stack + Lea point");
        assert_eq!(
            light.config.data_sharing(),
            DataSharing::SharedStack,
            "{light}"
        );
        assert_eq!(light.config.default_allocator, Some(HeapKind::Lea));
        for c in 0..light.config.compartment_count() {
            assert_eq!(light.config.data_sharing_of(c), DataSharing::SharedStack);
            assert_eq!(light.config.profile_of(c).allocator, HeapKind::Lea);
        }
    }

    #[test]
    fn ept_points_build_vm_configs() {
        let spec = SpaceSpec::quick(5, 20);
        let ept = spec
            .points()
            .find(|p| p.mechanism == Mechanism::VmEpt)
            .expect("quick space has EPT points");
        assert_eq!(ept.config.dominant_mechanism(), Mechanism::VmEpt);
    }

    #[test]
    fn indexing_is_total_and_in_range() {
        let spec = SpaceSpec::quick(5, 20);
        assert!(!spec.is_empty());
        assert_eq!(spec.points().count(), spec.len());
        for (i, p) in spec.points().enumerate() {
            assert_eq!(p.index, i);
        }
    }

    #[test]
    fn shapes_agree_with_points_and_labels() {
        let mut profiled = SpaceSpec::quick(5, 20);
        profiled.per_compartment_profiles = true;
        for spec in [SpaceSpec::quick(5, 20), profiled] {
            for i in (0..spec.len()).step_by(7) {
                let p = spec.point(i);
                assert_eq!(p.index, i);
                assert_eq!(p.profiles.len(), p.strategy.compartments());
                assert_eq!(spec.label_of(i), p.to_string());
            }
        }
    }

    #[test]
    fn cores_axis_is_outermost_and_labelled() {
        // The SMP axis multiplies the space cores-major: index
        // `c * per_core + i` decodes to the same shape as index `i` of
        // the one-core spec, plus the core count — so `[1]` spaces keep
        // their historical index arithmetic bit for bit.
        let base = SpaceSpec::quick(5, 20);
        let mut smp = base.clone();
        smp.cores = vec![1, 2, 8];
        assert_eq!(smp.len(), 3 * base.len());
        for i in (0..base.len()).step_by(11) {
            let one = base.shape(i);
            for (c, &cores) in smp.cores.iter().enumerate() {
                let s = smp.shape(c * base.len() + i);
                assert_eq!(s.workload, one.workload);
                assert_eq!(s.strategy, one.strategy);
                assert_eq!(s.mechanism, one.mechanism);
                assert_eq!(s.hardening_mask, one.hardening_mask);
                assert_eq!(s.profiles, one.profiles);
                assert_eq!(s.cores, cores);
            }
        }
        // cores=1 labels are untouched; multi-core labels get a suffix.
        assert_eq!(smp.label_of(3), base.label_of(3));
        assert!(smp.label_of(base.len() + 3).ends_with(" · c2"));
        assert!(smp.label_of(2 * base.len() + 3).ends_with(" · c8"));
    }

    #[test]
    fn full_smp_space_extends_quick_shapes_with_cores() {
        let spec = SpaceSpec::full_smp(5, 20);
        // 3 workloads x 17 shape combos x 1 allocator x 2 masks x 4
        // core counts.
        assert_eq!(spec.len(), 408);
        let mut seen_cores = std::collections::HashSet::new();
        for p in spec.points() {
            seen_cores.insert(p.cores);
            assert!(
                !matches!(p.workload, Workload::IperfStream { .. }),
                "iPerf has no shardable event loop"
            );
        }
        assert_eq!(seen_cores, [1, 2, 4, 8].into_iter().collect());
        assert_eq!(
            SpaceSpec::named("full-smp", 5, 20).map(|s| s.len()),
            Some(408)
        );
    }

    #[test]
    fn full_profiled_space_exceeds_1e5_points() {
        let spec = SpaceSpec::full_profiled(5, 20);
        // 10 workloads x 9 (strategy, mech) shapes x 6^3 assignments x
        // 16 masks.
        assert_eq!(spec.len(), 311_040);
        assert!(spec.len() >= 100_000);
    }

    #[test]
    fn profiled_duplicates_share_canonical_key_and_config() {
        // The order key is the lazy memo's identity: two shapes share a
        // key iff they build the same config for the same workload. Over
        // every point of profiled `quick` and a stride of
        // `full-profiled`, equal keys must mean equal experiments, and
        // there must be as many keys as distinct experiments.
        use crate::report::OrderKey;
        use std::collections::hash_map::Entry;
        use std::collections::{HashMap, HashSet};
        let mut quick = SpaceSpec::quick(5, 20);
        quick.per_compartment_profiles = true;
        assert_eq!(quick.len(), 4608);
        let full = SpaceSpec::full_profiled(5, 20);
        let slices = [
            (&quick, (0..quick.len()).collect::<Vec<_>>()),
            (&full, (0..full.len()).step_by(97).collect()),
        ];
        for (spec, indices) in slices {
            let mut by_key: HashMap<OrderKey, SweepPoint> = HashMap::new();
            let mut experiments = HashSet::new();
            for i in indices {
                let p = spec.point(i);
                experiments.insert(format!("{:?} {:?}", p.workload, p.config));
                match by_key.entry(OrderKey::from(&p.shape)) {
                    Entry::Occupied(seen) => {
                        let seen = seen.get();
                        assert_eq!(seen.workload, p.workload, "{} vs {}", seen.index, i);
                        assert_eq!(seen.config, p.config, "{} vs {}", seen.index, i);
                        assert_eq!(seen.to_string(), p.to_string());
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(p);
                    }
                }
            }
            assert_eq!(by_key.len(), experiments.len(), "{}", spec.name);
            if spec.name == "quick" {
                // Per workload x mask: Together keeps only its slot-0
                // allocator (2), each 2-compartment strategy 4^2
                // assignments x 2 mechs, the 3-way strategy 4^3 x 2
                // mechs.
                let canonical_per_group = 2 + 3 * 2 * 16 + 2 * 64;
                assert_eq!(by_key.len(), 4 * 2 * canonical_per_group);
            }
        }
    }

    #[test]
    fn mixed_profiles_reach_the_built_config() {
        let mut spec = SpaceSpec::quick(5, 20);
        spec.per_compartment_profiles = true;
        let mixed = spec
            .points()
            .find(|p| {
                p.strategy.compartments() == 3
                    && p.profiles[0] == (DataSharing::Dss, HeapKind::Tlsf)
                    && p.profiles[1] == (DataSharing::SharedStack, HeapKind::Lea)
            })
            .expect("profiled quick space has mixed three-way points");
        assert_eq!(mixed.config.data_sharing_of(0), DataSharing::Dss);
        assert_eq!(mixed.config.profile_of(0).allocator, HeapKind::Tlsf);
        assert_eq!(mixed.config.data_sharing_of(1), DataSharing::SharedStack);
        assert_eq!(mixed.config.profile_of(1).allocator, HeapKind::Lea);
    }
}
