//! Abstract call gates and their build-time instantiation (§3.1).
//!
//! In FlexOS source code, cross-library calls are abstract
//! (`flexos_gate(libc, fprintf, ...)`); the toolchain replaces each with a
//! mechanism-specific implementation at build time. When caller and callee
//! share a compartment the gate *is* a plain function call (zero overhead,
//! Figure 3 step 3'); across compartments it becomes an MPK PKRU switch
//! (light or full/DSS flavour), an EPT shared-memory RPC, or — for the
//! baseline systems of Figure 10 — a syscall, microkernel IPC, or
//! CubicleOS `pkey_mprotect` transition.
//!
//! The [`GateTable`] mirrors that build-time story in its memory layout:
//! one flattened `n×n` row of [`GateDesc`]s (gate kind + **pre-computed**
//! round-trip cost, frozen when the image is built) and one dense `n×n`
//! matrix of [`Cell`]-based crossing counters. The per-call hot path is
//! index arithmetic over those two arrays — no hashing, no `RefCell`
//! borrow, no allocation. Per-[`GateKind`] crossing totals are maintained
//! alongside (the [`CrossingBreakdown`] the fig10/table1 harnesses print).

use std::cell::Cell;
use std::fmt;

use flexos_machine::cost::CostModel;

use crate::compartment::{CompartmentId, DataSharing, Mechanism};

/// The concrete implementation a gate was instantiated to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GateKind {
    /// Same compartment: a plain (inlined) function call.
    DirectCall,
    /// MPK gate sharing stack and register set (ERIM-style "light").
    MpkLight,
    /// Full MPK gate: register isolation + per-compartment stacks (+DSS).
    MpkDss,
    /// EPT/VM shared-memory RPC with busy-waiting server (§4.2).
    EptRpc,
    /// Linux syscall with KPTI (Figure 10/11b baseline).
    SyscallKpti,
    /// Linux syscall without KPTI.
    SyscallNoKpti,
    /// seL4/Genode cross-component IPC (Figure 10 baseline).
    MicrokernelIpc,
    /// CubicleOS `pkey_mprotect`-based domain transition (Figure 10).
    CubicleTrap,
}

/// Number of gate kinds (the dense per-kind counter row).
pub const GATE_KIND_COUNT: usize = 8;

impl GateKind {
    /// Every gate kind, in [`GateKind::index`] order.
    pub const ALL: [GateKind; GATE_KIND_COUNT] = [
        GateKind::DirectCall,
        GateKind::MpkLight,
        GateKind::MpkDss,
        GateKind::EptRpc,
        GateKind::SyscallKpti,
        GateKind::SyscallNoKpti,
        GateKind::MicrokernelIpc,
        GateKind::CubicleTrap,
    ];

    /// Dense index of this kind (for per-kind counter rows).
    pub fn index(self) -> usize {
        match self {
            GateKind::DirectCall => 0,
            GateKind::MpkLight => 1,
            GateKind::MpkDss => 2,
            GateKind::EptRpc => 3,
            GateKind::SyscallKpti => 4,
            GateKind::SyscallNoKpti => 5,
            GateKind::MicrokernelIpc => 6,
            GateKind::CubicleTrap => 7,
        }
    }

    /// Round-trip latency of this gate per the calibrated cost model
    /// (Figure 11b).
    pub(crate) fn cost(&self, model: &CostModel) -> u64 {
        match self {
            GateKind::DirectCall => model.function_call,
            GateKind::MpkLight => model.mpk_light_gate,
            GateKind::MpkDss => model.mpk_dss_gate,
            GateKind::EptRpc => model.ept_rpc_gate,
            GateKind::SyscallKpti => model.syscall_kpti,
            GateKind::SyscallNoKpti => model.syscall_nokpti,
            GateKind::MicrokernelIpc => model.sel4_genode_ipc,
            GateKind::CubicleTrap => model.cubicleos_transition,
        }
    }

    /// `true` if this gate crosses a protection-domain boundary (and must
    /// therefore switch PKRU/AS and be CFI-checked).
    pub(crate) fn crosses_domain(&self) -> bool {
        !matches!(self, GateKind::DirectCall)
    }

    /// Selects the gate the toolchain instantiates between two
    /// compartments, given their mechanisms and the image's data-sharing
    /// strategy. Mixed-mechanism pairs take the *stronger* (costlier)
    /// mechanism's gate, since both domains must be protected.
    pub(crate) fn between(from: Mechanism, to: Mechanism, sharing: DataSharing) -> GateKind {
        match from.stronger(to) {
            Mechanism::None => GateKind::DirectCall,
            Mechanism::IntelMpk => match sharing {
                DataSharing::SharedStack => GateKind::MpkLight,
                DataSharing::Dss | DataSharing::HeapConversion => GateKind::MpkDss,
            },
            Mechanism::VmEpt => GateKind::EptRpc,
            Mechanism::PageTable => GateKind::MicrokernelIpc,
            Mechanism::CubicleOs => GateKind::CubicleTrap,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::DirectCall => "call",
            GateKind::MpkLight => "mpk-light",
            GateKind::MpkDss => "mpk-dss",
            GateKind::EptRpc => "ept-rpc",
            GateKind::SyscallKpti => "syscall",
            GateKind::SyscallNoKpti => "syscall-nokpti",
            GateKind::MicrokernelIpc => "microkernel-ipc",
            GateKind::CubicleTrap => "cubicle-trap",
        };
        f.write_str(s)
    }
}

/// One flattened gate-descriptor entry: the instantiated kind plus its
/// pre-computed round-trip cost. Everything `Env::call_resolved` needs per crossing
/// in one indexed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateDesc {
    /// The instantiated gate.
    pub kind: GateKind,
    /// Round-trip cost in cycles, pre-computed from the image's cost
    /// model at build time.
    pub cost: u64,
}

/// Per-kind crossing totals (the breakdown the fig10/table1 harnesses
/// report), snapshotted from the dense counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossingBreakdown {
    /// `(kind, crossings)` for every kind with at least one traversal,
    /// in [`GateKind::index`] order. Direct calls are excluded (they are
    /// not crossings).
    pub by_kind: Vec<(GateKind, u64)>,
    /// Total cross-domain traversals.
    pub total_crossings: u64,
    /// Total same-compartment calls.
    pub direct_calls: u64,
    /// Calls rejected by the gates' CFI entry-point check.
    pub cfi_violations: u64,
}

/// The instantiated gate matrix of an image plus crossing counters.
///
/// The counters are the quantity every figure of the evaluation keys on:
/// cycles = Σ crossings(kind) × gate cost. All counters are [`Cell`]s,
/// so recording a traversal needs only `&self` — the runtime keeps the
/// table outside any `RefCell`.
#[derive(Debug)]
pub struct GateTable {
    /// Compartment count (`kinds`/`costs` are `n×n`, row = caller).
    n: usize,
    /// `kinds[from*n + to]` — gate used when `from` calls into `to`.
    kinds: Vec<GateKind>,
    /// Pre-computed round-trip cost per pair (same layout as `kinds`).
    costs: Vec<u64>,
    /// Cost model the costs were computed from (re-applied on `set`).
    model: CostModel,
    /// Crossings observed at runtime, per gate kind.
    by_kind: [Cell<u64>; GATE_KIND_COUNT],
    /// Total domain-crossing gate traversals.
    total_crossings: Cell<u64>,
    /// Total same-compartment (direct) calls.
    direct_calls: Cell<u64>,
    /// Calls refused by the CFI entry-point check (never charged).
    cfi_violations: Cell<u64>,
}

impl Default for GateTable {
    fn default() -> Self {
        GateTable::new(0)
    }
}

impl GateTable {
    /// Builds the gate matrix for `n` compartments, all-direct by
    /// default, costed with the calibrated default model (use
    /// [`GateTable::with_model`] for a custom machine).
    pub(crate) fn new(n: usize) -> Self {
        GateTable::with_model(n, CostModel::default())
    }

    /// Builds the gate matrix for `n` compartments with an explicit cost
    /// model for the pre-computed per-pair costs.
    pub(crate) fn with_model(n: usize, model: CostModel) -> Self {
        let direct_cost = GateKind::DirectCall.cost(&model);
        GateTable {
            n,
            kinds: vec![GateKind::DirectCall; n * n],
            costs: vec![direct_cost; n * n],
            model,
            by_kind: Default::default(),
            total_crossings: Cell::new(0),
            direct_calls: Cell::new(0),
            cfi_violations: Cell::new(0),
        }
    }

    #[inline]
    fn idx(&self, from: CompartmentId, to: CompartmentId) -> usize {
        from.0 as usize * self.n + to.0 as usize
    }

    /// Sets the gate between two compartments (toolchain instantiation);
    /// its cost is pre-computed immediately.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub(crate) fn set(&mut self, from: CompartmentId, to: CompartmentId, kind: GateKind) {
        let idx = self.idx(from, to);
        self.kinds[idx] = kind;
        self.costs[idx] = kind.cost(&self.model);
    }

    /// The gate used when `from` calls into `to`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn kind(&self, from: CompartmentId, to: CompartmentId) -> GateKind {
        self.kinds[self.idx(from, to)]
    }

    /// The flattened descriptor (kind + pre-computed cost) for a pair —
    /// the single read the call hot path performs.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn desc(&self, from: CompartmentId, to: CompartmentId) -> GateDesc {
        let idx = self.idx(from, to);
        GateDesc {
            kind: self.kinds[idx],
            cost: self.costs[idx],
        }
    }

    /// Records a same-domain direct call — one counter bump, no
    /// descriptor lookup (the caller already holds the [`GateDesc`]).
    #[inline]
    pub(crate) fn record_direct(&self) {
        self.direct_calls.set(self.direct_calls.get() + 1);
    }

    /// Records a cross-domain traversal of a gate the caller has already
    /// resolved to `kind` (skips re-reading the descriptor).
    #[inline]
    pub(crate) fn record_crossing(&self, kind: GateKind) {
        debug_assert!(kind.crosses_domain());
        let per_kind = &self.by_kind[kind.index()];
        per_kind.set(per_kind.get() + 1);
        self.total_crossings.set(self.total_crossings.get() + 1);
    }

    /// Records a call refused by the CFI entry-point check. Rejected
    /// calls are *not* crossings: they charge no cycles and do not count
    /// toward [`GateTable::total_crossings`].
    #[inline]
    pub(crate) fn record_cfi_violation(&self) {
        self.cfi_violations.set(self.cfi_violations.get() + 1);
    }

    /// Crossings observed through gates of `kind`.
    pub fn crossings_of_kind(&self, kind: GateKind) -> u64 {
        self.by_kind[kind.index()].get()
    }

    /// Total cross-domain traversals.
    pub fn total_crossings(&self) -> u64 {
        self.total_crossings.get()
    }

    /// Total same-compartment calls.
    pub fn direct_calls(&self) -> u64 {
        self.direct_calls.get()
    }

    /// Calls rejected by the CFI entry-point check.
    pub fn cfi_violations(&self) -> u64 {
        self.cfi_violations.get()
    }

    /// Snapshots the per-kind crossing totals (what fig10/table1 print).
    pub fn breakdown(&self) -> CrossingBreakdown {
        CrossingBreakdown {
            by_kind: GateKind::ALL
                .iter()
                .filter(|k| k.crosses_domain())
                .map(|&k| (k, self.crossings_of_kind(k)))
                .filter(|&(_, c)| c > 0)
                .collect(),
            total_crossings: self.total_crossings(),
            direct_calls: self.direct_calls(),
            cfi_violations: self.cfi_violations(),
        }
    }

    /// Resets the runtime counters (between benchmark phases).
    pub(crate) fn reset_counters(&self) {
        for c in &self.by_kind {
            c.set(0);
        }
        self.total_crossings.set(0);
        self.direct_calls.set(0);
        self.cfi_violations.set(0);
    }

    /// Iterates the instantiated non-direct gates (for the transform
    /// report).
    pub(crate) fn instantiated(
        &self,
    ) -> impl Iterator<Item = (CompartmentId, CompartmentId, GateKind)> + '_ {
        self.kinds.iter().enumerate().filter_map(move |(idx, &k)| {
            k.crosses_domain().then_some((
                CompartmentId((idx / self.n) as u8),
                CompartmentId((idx % self.n) as u8),
                k,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_match_figure_11b() {
        let m = CostModel::default();
        assert_eq!(GateKind::DirectCall.cost(&m), 2);
        assert_eq!(GateKind::MpkLight.cost(&m), 62);
        assert_eq!(GateKind::MpkDss.cost(&m), 108);
        assert_eq!(GateKind::EptRpc.cost(&m), 462);
        assert_eq!(GateKind::SyscallKpti.cost(&m), 470);
        assert_eq!(GateKind::SyscallNoKpti.cost(&m), 146);
    }

    #[test]
    fn gate_selection_by_mechanism() {
        use DataSharing as DS;
        use Mechanism as M;
        assert_eq!(
            GateKind::between(M::None, M::None, DS::Dss),
            GateKind::DirectCall
        );
        assert_eq!(
            GateKind::between(M::IntelMpk, M::IntelMpk, DS::Dss),
            GateKind::MpkDss
        );
        assert_eq!(
            GateKind::between(M::IntelMpk, M::IntelMpk, DS::SharedStack),
            GateKind::MpkLight
        );
        assert_eq!(
            GateKind::between(M::VmEpt, M::VmEpt, DS::Dss),
            GateKind::EptRpc
        );
        // Mixed MPK/EPT: the stronger mechanism's gate wins.
        assert_eq!(
            GateKind::between(M::IntelMpk, M::VmEpt, DS::Dss),
            GateKind::EptRpc
        );
    }

    #[test]
    fn table_records_crossings() {
        let mut t = GateTable::new(2);
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        t.set(a, b, GateKind::MpkDss);
        t.set(b, a, GateKind::MpkDss);
        for _ in 0..3 {
            t.record_crossing(t.desc(a, b).kind);
        }
        t.record_direct();
        assert_eq!(t.total_crossings(), 3);
        assert_eq!(t.direct_calls(), 1);
        assert_eq!(t.crossings_of_kind(GateKind::MpkDss), 3);
        t.reset_counters();
        assert_eq!(t.total_crossings(), 0);
        assert_eq!(t.crossings_of_kind(GateKind::MpkDss), 0);
    }

    #[test]
    fn descriptors_carry_precomputed_costs() {
        let m = CostModel::default();
        let mut t = GateTable::new(2);
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        t.set(a, b, GateKind::EptRpc);
        assert_eq!(
            t.desc(a, b),
            GateDesc {
                kind: GateKind::EptRpc,
                cost: m.ept_rpc_gate
            }
        );
        // The untouched diagonal stays a pre-costed direct call.
        assert_eq!(t.desc(a, a).kind, GateKind::DirectCall);
        assert_eq!(t.desc(a, a).cost, m.function_call);
    }

    #[test]
    fn custom_model_costs_flow_into_descriptors() {
        let custom = CostModel {
            mpk_light_gate: 999,
            function_call: 7,
            ..CostModel::default()
        };
        let mut t = GateTable::with_model(2, custom);
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        t.set(a, b, GateKind::MpkLight);
        assert_eq!(t.desc(a, b).cost, 999);
        assert_eq!(t.desc(b, a).cost, 7);
    }

    #[test]
    fn breakdown_reports_only_traversed_kinds() {
        let mut t = GateTable::new(3);
        let (a, b, c) = (CompartmentId(0), CompartmentId(1), CompartmentId(2));
        t.set(a, b, GateKind::MpkDss);
        t.set(a, c, GateKind::EptRpc);
        t.record_crossing(t.desc(a, b).kind);
        t.record_crossing(t.desc(a, b).kind);
        t.record_crossing(t.desc(a, c).kind);
        t.record_direct();
        t.record_cfi_violation();
        let bd = t.breakdown();
        assert_eq!(
            bd.by_kind,
            vec![(GateKind::MpkDss, 2), (GateKind::EptRpc, 1)]
        );
        assert_eq!(bd.total_crossings, 3);
        assert_eq!(bd.direct_calls, 1);
        assert_eq!(bd.cfi_violations, 1);
    }

    #[test]
    fn instantiated_lists_cross_domain_gates_only() {
        let mut t = GateTable::new(3);
        t.set(CompartmentId(0), CompartmentId(1), GateKind::MpkLight);
        t.set(CompartmentId(1), CompartmentId(0), GateKind::MpkLight);
        let gates: Vec<_> = t.instantiated().collect();
        assert_eq!(gates.len(), 2);
        assert!(gates.iter().all(|&(_, _, k)| k == GateKind::MpkLight));
    }

    #[test]
    fn kind_index_is_dense_and_total() {
        for (i, k) in GateKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
