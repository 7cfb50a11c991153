//! The aggregate simulated machine.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::rc::Rc;

use crate::clock::CycleClock;
use crate::cost::{ByteCostTable, CostModel};
use crate::fault::Fault;
use crate::key::ProtKey;
use crate::layout::{Region, RegionKind, RegionMap, RegionName};
use crate::mem::Memory;
use crate::smp::{self, Contention, VCpu};
use flexos_trace::{EventKind, Tracer};

/// The simulated machine: memory + layout + vCPUs + cost model.
///
/// `Machine` is the single piece of mutable world state the whole
/// simulation shares; it is held behind [`Rc`] and uses interior mutability
/// because the simulation is strictly single-(host-)threaded — virtual
/// threads *and* virtual cores are multiplexed cooperatively in virtual
/// time (see [`crate::smp`] for the multiplexing contract). Every cycle
/// charge lands on the **current** core's clock; with the default single
/// core this is indistinguishable from the pre-SMP machine.
///
/// ```
/// use flexos_machine::{Machine, key::{Pkru, ProtKey}};
///
/// # fn main() -> Result<(), flexos_machine::fault::Fault> {
/// let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
/// let heap = machine.map_region("heap", 16, ProtKey::new(1)?)?;
/// machine.clock().advance(machine.cost().mpk_dss_gate);
/// machine.memory_mut().write(heap.base(), &[1, 2, 3], &Pkru::ALL_ACCESS)?;
/// assert_eq!(machine.clock().now(), 108);
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct Machine {
    memory: RefCell<Memory>,
    layout: RefCell<RegionMap>,
    cores: Vec<VCpu>,
    current: Cell<usize>,
    contention: Contention,
    ipi_cycles: Cell<u64>,
    contention_cycles: Cell<u64>,
    cost: CostModel,
    mem_costs: ByteCostTable,
    tracer: Tracer,
}

impl Machine {
    /// Default simulated memory size (256 MiB), enough for every experiment
    /// in the paper's evaluation.
    pub const DEFAULT_MEM_BYTES: u64 = 256 * 1024 * 1024;

    /// Creates a machine with `mem_bytes` of simulated memory and the
    /// paper-calibrated [`CostModel`].
    pub fn new(mem_bytes: u64) -> Rc<Self> {
        Self::with_cost_model(mem_bytes, CostModel::default())
    }

    /// Creates a machine with an explicit cost model (used by ablation
    /// benches that perturb individual constants).
    pub(crate) fn with_cost_model(mem_bytes: u64, cost: CostModel) -> Rc<Self> {
        Self::with_cores(mem_bytes, cost, 1)
    }

    /// Creates a machine with `num_cores` vCPUs (each with its own clock,
    /// PKRU, and register file) and an explicit cost model. Core 0 is
    /// current at boot.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds 32 (the contention
    /// tracker's core-mask width).
    pub fn with_cores(mem_bytes: u64, cost: CostModel, num_cores: usize) -> Rc<Self> {
        assert!(
            (1..=32).contains(&num_cores),
            "num_cores must be in 1..=32, got {num_cores}"
        );
        Rc::new(Machine {
            memory: RefCell::new(Memory::new(mem_bytes)),
            layout: RefCell::new(RegionMap::new(mem_bytes)),
            cores: (0..num_cores).map(|_| VCpu::new()).collect(),
            current: Cell::new(0),
            contention: Contention::new(),
            ipi_cycles: Cell::new(0),
            contention_cycles: Cell::new(0),
            mem_costs: cost.mem_cost_table(),
            cost,
            tracer: Tracer::new(),
        })
    }

    /// The machine's event tracer (starts disabled; see
    /// [`flexos_trace::Tracer::enable`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The **current core's** virtual cycle clock — the clock every
    /// charge in the simulation lands on.
    #[inline]
    pub fn clock(&self) -> &CycleClock {
        &self.cores[self.current.get()].clock
    }

    // --- simulated SMP ----------------------------------------------------

    /// Number of simulated cores.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Index of the core currently executing.
    #[inline]
    pub fn current_core(&self) -> usize {
        self.current.get()
    }

    /// One vCPU's parked state (clock always live, PKRU/registers parked
    /// while the core is switched out — see [`crate::smp::VCpu`]).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn vcpu(&self, core: usize) -> &VCpu {
        &self.cores[core]
    }

    /// One core's clock, current or not (drivers read these to pick the
    /// min-clock core to advance next).
    #[inline]
    pub fn core_clock(&self, core: usize) -> &CycleClock {
        &self.cores[core].clock
    }

    /// Makes `core` the current core. This only moves the machine's
    /// notion of "where charges land" — parking and restoring the
    /// executing context (PKRU, registers, current component) is the
    /// runtime's job (`flexos_core::Env::switch_core`). The tracer is
    /// retargeted so subsequent events carry the new core id.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_current_core(&self, core: usize) {
        assert!(core < self.cores.len(), "core {core} out of range");
        self.current.set(core);
        self.tracer.set_core(core as u8);
    }

    /// Cross-core gate surcharge: charges the doorbell/IPI cost of
    /// entering a compartment homed on another core to the current
    /// core's clock and returns it. The caller decides *whether* the
    /// crossing is remote (the machine knows cores, not compartments).
    pub fn charge_remote_gate(&self) -> u64 {
        let cost = self.cost.remote_gate_ipi;
        self.clock().advance(cost);
        self.ipi_cycles.set(self.ipi_cycles.get() + cost);
        let tracer = &self.tracer;
        if tracer.is_enabled() {
            tracer.record(
                self.clock().now(),
                EventKind::SmpCharge {
                    kind: smp::charge::IPI,
                    cost: cost as u32,
                },
            );
        }
        cost
    }

    /// Contention surcharge on a shared region (`slot` is
    /// [`smp::SHARED_HEAP`] or [`smp::NIC_RING`]): records the touch and
    /// charges [`CostModel::contention_per_core`] per *other* core that
    /// touched the same region in the current window. Free on
    /// single-core machines (one predictable branch) and for the first
    /// toucher of a window.
    #[inline]
    pub fn charge_contention(&self, slot: usize) -> u64 {
        if self.cores.len() == 1 {
            return 0;
        }
        self.charge_contention_slow(slot)
    }

    #[cold]
    fn charge_contention_slow(&self, slot: usize) -> u64 {
        let core = self.current.get();
        let others = self.contention.touch(slot, core, self.clock().now());
        if others == 0 {
            return 0;
        }
        let cost = self.cost.contention_per_core * u64::from(others);
        self.clock().advance(cost);
        self.contention_cycles
            .set(self.contention_cycles.get() + cost);
        if self.tracer.is_enabled() {
            let kind = if slot == smp::SHARED_HEAP {
                smp::charge::HEAP
            } else {
                smp::charge::RING
            };
            self.tracer.record(
                self.clock().now(),
                EventKind::SmpCharge {
                    kind,
                    cost: cost as u32,
                },
            );
        }
        cost
    }

    /// Total cross-core doorbell/IPI cycles charged so far.
    pub fn ipi_cycles(&self) -> u64 {
        self.ipi_cycles.get()
    }

    /// Total shared-region contention cycles charged so far.
    pub fn contention_cycles(&self) -> u64 {
        self.contention_cycles.get()
    }

    /// Forgets contention sharer state and zeroes the SMP cycle counters
    /// (between benchmark phases).
    pub fn reset_smp_counters(&self) {
        self.contention.reset();
        self.ipi_cycles.set(0);
        self.contention_cycles.set(0);
    }

    /// Charges the per-byte cost of touching `len` bytes of simulated
    /// memory (one side of a copy) — the integer fast path that replaced
    /// the per-access float multiply; see [`ByteCostTable`].
    #[inline]
    pub fn charge_mem_bytes(&self, len: u64) {
        self.clock().advance(self.mem_costs.cycles(len));
    }

    /// The calibrated cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Borrows the simulated memory immutably.
    ///
    /// # Panics
    ///
    /// Panics if the memory is currently mutably borrowed (a simulation bug).
    #[inline]
    pub fn memory(&self) -> Ref<'_, Memory> {
        self.memory.borrow()
    }

    /// Borrows the simulated memory mutably.
    ///
    /// # Panics
    ///
    /// Panics if the memory is currently borrowed (a simulation bug).
    #[inline]
    pub fn memory_mut(&self) -> RefMut<'_, Memory> {
        self.memory.borrow_mut()
    }

    /// Borrows the region map.
    pub fn layout(&self) -> Ref<'_, RegionMap> {
        self.layout.borrow()
    }

    /// Reserves and maps a new region of `pages` pages tagged `key`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::ResourceExhausted`] if the address space is full.
    pub fn map_region(
        &self,
        name: impl Into<RegionName>,
        pages: u64,
        key: ProtKey,
    ) -> Result<Region, Fault> {
        self.map_region_kind(name, pages, key, RegionKind::Other)
    }

    /// Like [`Machine::map_region`] with an explicit [`RegionKind`] for the
    /// generated linker script.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::ResourceExhausted`] if the address space is full.
    pub fn map_region_kind(
        &self,
        name: impl Into<RegionName>,
        pages: u64,
        key: ProtKey,
        kind: RegionKind,
    ) -> Result<Region, Fault> {
        let region = self.layout.borrow_mut().reserve(name, pages, key, kind)?;
        self.memory
            .borrow_mut()
            .map(region.base(), region.pages(), key)?;
        Ok(region)
    }

    /// Total simulated memory in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.memory.borrow().size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;
    use crate::key::Pkru;
    use crate::layout::linker_script;

    #[test]
    fn map_region_is_usable() {
        let m = Machine::new(4 * 1024 * 1024);
        let r = m.map_region("r", 2, ProtKey::new(5).unwrap()).unwrap();
        let pkru = Pkru::permit_only(&[ProtKey::new(5).unwrap()]);
        m.memory_mut().write(r.base(), b"ok", &pkru).unwrap();
        assert_eq!(m.memory().read_vec(r.base(), 2, &pkru).unwrap(), b"ok");
    }

    #[test]
    fn regions_recorded_in_layout() {
        let m = Machine::new(4 * 1024 * 1024);
        m.map_region_kind("comp1/heap", 1, ProtKey::DEFAULT, RegionKind::Heap)
            .unwrap();
        assert_eq!(m.layout().regions().len(), 1);
        assert!(linker_script(m.layout().regions()).contains("comp1/heap"));
    }

    #[test]
    fn a_failed_map_region_leaves_the_layout_unchanged() {
        let m = Machine::new(4 * 1024 * 1024);
        m.map_region("r", 2, ProtKey::DEFAULT).unwrap();
        for pages in [1024, u64::MAX / PAGE_SIZE as u64 + 2, u64::MAX] {
            assert!(matches!(
                m.map_region("huge", pages, ProtKey::DEFAULT),
                Err(Fault::ResourceExhausted { .. })
            ));
        }
        assert_eq!(m.layout().regions().len(), 1);
        assert!(format!("{:?}", m.memory()).contains("mapped_pages: 2"));
    }

    #[test]
    fn clock_and_cost_are_shared() {
        let m = Machine::new(1024 * 1024);
        m.clock().advance(m.cost().ept_rpc_gate);
        assert_eq!(m.clock().now(), 462);
    }

    #[test]
    fn per_core_clocks_advance_independently() {
        let m = Machine::with_cores(1024 * 1024, CostModel::default(), 3);
        assert_eq!(m.num_cores(), 3);
        m.clock().advance(100); // core 0
        m.set_current_core(2);
        m.clock().advance(30); // core 2
        assert_eq!(m.core_clock(0).now(), 100);
        assert_eq!(m.core_clock(1).now(), 0);
        assert_eq!(m.core_clock(2).now(), 30);
    }

    #[test]
    fn single_core_charges_are_free() {
        let m = Machine::new(1024 * 1024);
        assert_eq!(m.num_cores(), 1);
        assert_eq!(m.charge_contention(crate::smp::SHARED_HEAP), 0);
        assert_eq!(m.clock().now(), 0);
        assert_eq!(m.contention_cycles(), 0);
    }

    #[test]
    fn contention_scales_with_other_cores() {
        let m = Machine::with_cores(1024 * 1024, CostModel::default(), 4);
        let per = m.cost().contention_per_core;
        // First toucher of the window is free.
        assert_eq!(m.charge_contention(crate::smp::SHARED_HEAP), 0);
        m.set_current_core(1);
        assert_eq!(m.charge_contention(crate::smp::SHARED_HEAP), per);
        m.set_current_core(2);
        assert_eq!(m.charge_contention(crate::smp::SHARED_HEAP), 2 * per);
        assert_eq!(m.contention_cycles(), 3 * per);
        // The charge landed on the toucher's own clock.
        assert_eq!(m.core_clock(2).now(), 2 * per);
        assert_eq!(m.core_clock(0).now(), 0);
    }

    #[test]
    fn remote_gate_charges_the_current_core() {
        let m = Machine::with_cores(1024 * 1024, CostModel::default(), 2);
        m.set_current_core(1);
        let cost = m.charge_remote_gate();
        assert_eq!(cost, m.cost().remote_gate_ipi);
        assert_eq!(m.core_clock(1).now(), cost);
        assert_eq!(m.core_clock(0).now(), 0);
        assert_eq!(m.ipi_cycles(), cost);
        m.reset_smp_counters();
        assert_eq!(m.ipi_cycles(), 0);
    }

    #[test]
    fn charge_mem_bytes_matches_the_float_charge() {
        let m = Machine::new(1024 * 1024);
        for len in [0u64, 1, 5, 32, 45, 1460, 4096, 16384, 100_000] {
            let before = m.clock().now();
            m.charge_mem_bytes(len);
            assert_eq!(
                m.clock().now() - before,
                (len as f64 * m.cost().mem_per_byte).round() as u64,
                "len {len}"
            );
        }
    }
}
