//! The calibrated cycle-cost model.
//!
//! Every constant in [`CostModel`] is anchored to a number the paper reports
//! for its Intel Xeon Silver 4114 @ 2.2 GHz testbed, primarily the gate and
//! syscall latency microbenchmarks of **Figure 11b** and the allocation
//! latencies of **Figure 11a**. Baseline-platform constants (seL4/Genode
//! IPC, Unikraft's `linuxu` tax, CubicleOS `pkey_mprotect` transitions) are
//! derived from **Figure 10** as documented per field; see DESIGN.md §4.

use std::cell::RefCell;
use std::rc::Rc;

/// Cycle costs for every primitive the simulation charges.
///
/// `CostModel::default()` is the paper-calibrated instance (Xeon Silver
/// 4114); benchmarks convert cycles to wall-clock using
/// [`CostModel::freq_hz`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Core frequency used to convert cycles to seconds (2.2 GHz).
    pub freq_hz: u64,

    // --- Figure 11b: gate latencies -------------------------------------
    /// Plain same-compartment function call (Fig 11b: 2 cycles).
    pub function_call: u64,
    /// MPK gate sharing stack + register set, ERIM-style: raw cost of the
    /// two `wrpkru` instructions (Fig 11b "MPK-light": 62 cycles).
    pub mpk_light_gate: u64,
    /// Full MPK gate: register save/zero/restore, stack-registry lookup,
    /// stack switch, PKRU switches (Fig 11b "MPK-dss": 108 cycles).
    pub mpk_dss_gate: u64,
    /// EPT/VM RPC round trip over shared memory with busy-wait (Fig 11b
    /// "EPT": 462 cycles).
    pub ept_rpc_gate: u64,
    /// Linux syscall with KPTI enabled (Fig 11b "syscall": 470 cycles).
    pub syscall_kpti: u64,
    /// Linux syscall without KPTI (Fig 11b "syscall-nokpti": 146 cycles).
    pub syscall_nokpti: u64,
    /// One `wrpkru` instruction; the light gate is two of these plus call
    /// overhead (62 ≈ 2×30 + 2).
    pub wrpkru: u64,

    // --- Figure 11a: allocation latencies --------------------------------
    /// Stack bump allocation (Fig 11a: constant 2 cycles); also the DSS
    /// cost, since shadow slots reuse the compiler's stack bookkeeping.
    pub stack_alloc: u64,
    /// General-purpose heap `malloc` fast path (Fig 11a: ~100 cycles per
    /// buffer for the first; §4.1 cites 30-60 cycles fast path — the
    /// measured number includes the call and metadata touch).
    pub malloc_fast: u64,
    /// Heap `free` fast path.
    pub free_fast: u64,
    /// Heap slow path (block split/coalesce, mapping search).
    pub malloc_slow: u64,

    // --- Data movement ----------------------------------------------------
    /// Per-byte cost of touching payload bytes through the network stack or
    /// memcpy-heavy paths. Calibrated so iPerf saturates at ≈4.2 Gb/s with
    /// 16 KiB buffers on one core (Figure 9).
    pub copy_per_byte: f64,
    /// Per-byte cost of a single simulated-memory load or store (one side
    /// of a copy); the end-to-end `copy_per_byte` emerges from the ~6
    /// per-byte touches a payload takes through the stack.
    pub mem_per_byte: f64,
    /// Per-access overhead KASan adds on an instrumented load/store
    /// (shadow check).
    pub kasan_check: u64,
    /// Per-arithmetic-op overhead of UBSan instrumentation.
    pub ubsan_check: u64,
    /// Stack-protector prologue+epilogue (canary store + compare).
    pub stack_protector_frame: u64,
    /// Per-indirect-call CFI target check.
    pub cfi_check: u64,

    // --- Baseline platforms (Figure 10 derivations) ----------------------
    /// One seL4/Genode cross-component IPC round trip. Derived from the
    /// SQLite experiment: (.333 s − .054 s) × 2.2 GHz / 5000 txns / 226
    /// crossings ≈ 543 cycles (Genode layers over the raw seL4 fastpath).
    pub sel4_genode_ipc: u64,
    /// Per-privileged-operation tax of Unikraft's `linuxu` platform, which
    /// executes privileged work as ring-3 Linux syscalls: (.702 s − .052 s)
    /// × 2.2 GHz / 5000 txns / 113 vfs ops ≈ 2530 cycles.
    pub linuxu_op_tax: u64,
    /// One CubicleOS domain transition (`pkey_mprotect` syscall plus
    /// trap-and-map page faults): (1.557 s − .657 s) × 2.2 GHz / 5000 /
    /// 452 crossings ≈ 1750 cycles. "Orders of magnitude more expensive"
    /// than inlined `wrpkru` gates (§6.4).
    pub cubicleos_transition: u64,
    /// Extra per-allocator-op cost of TLSF's slow path relative to the Lea
    /// allocator in fragmentation-heavy runs; reproduces the CubicleOS-NONE
    /// vs Unikraft-linuxu inversion in Figure 10 (§6.4).
    pub tlsf_linuxu_slow_delta: u64,
    /// Hypervisor/KVM fixed overhead FlexOS images pay relative to bare
    /// Unikraft in Fig 10 (.054 s vs .052 s over 5000 txns ≈ 176 cycles).
    pub flexos_image_tax: u64,

    // --- Simulated SMP (cross-core charges) -------------------------------
    /// Surcharge on a cross-compartment gate whose callee compartment is
    /// homed on a *different* core than the caller: a cross-core doorbell
    /// plus the cache-line handoff of the call frame. Calibrated between
    /// the paper's single-core gates and a full IPI round trip — a
    /// same-socket cache-line transfer plus monitor/mwait-style wakeup
    /// lands near 400-450 cycles on Skylake-SP, ~7× the MPK-light gate
    /// but well under the ~1.3k-cycle interrupt-delivery path (the remote
    /// core is polling its doorbell line, not taking an interrupt).
    pub remote_gate_ipi: u64,
    /// Per-*other*-core surcharge on shared-heap and shared-NIC-ring
    /// access, scaled by how many other cores touched the same region in
    /// the current accounting window: each additional sharer costs
    /// roughly one more cross-core cache-line transfer (~72 cycles
    /// core-to-core on the 4114's mesh).
    pub contention_per_core: u64,
}

impl CostModel {
    /// The paper's testbed: Intel Xeon Silver 4114 @ 2.2 GHz (§6).
    pub(crate) fn xeon_silver_4114() -> Self {
        CostModel {
            freq_hz: 2_200_000_000,
            function_call: 2,
            mpk_light_gate: 62,
            mpk_dss_gate: 108,
            ept_rpc_gate: 462,
            syscall_kpti: 470,
            syscall_nokpti: 146,
            wrpkru: 30,
            stack_alloc: 2,
            malloc_fast: 55,
            free_fast: 45,
            malloc_slow: 210,
            copy_per_byte: 4.2,
            mem_per_byte: 0.7,
            kasan_check: 6,
            ubsan_check: 2,
            stack_protector_frame: 4,
            cfi_check: 5,
            sel4_genode_ipc: 543,
            linuxu_op_tax: 2530,
            cubicleos_transition: 1750,
            tlsf_linuxu_slow_delta: 140,
            flexos_image_tax: 176,
            remote_gate_ipi: 420,
            contention_per_core: 72,
        }
    }

    /// Converts a cycle count to seconds at this model's frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }

    /// Throughput in Gb/s when `bytes` bytes move in `cycles` cycles.
    pub fn gbps(&self, bytes: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        bytes as f64 * 8.0 / self.cycles_to_seconds(cycles) / 1e9
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::xeon_silver_4114()
    }
}

/// Lengths covered by a [`ByteCostTable`]'s precomputed entries (16 KiB —
/// the largest per-op transfer any workload performs; rarer longer
/// transfers fall back to the float formula, which is what the table was
/// built from, so results are identical either way).
pub const BYTE_COST_TABLE_LEN: usize = 16 * 1024 + 1;

/// Precomputed integer cycle charges for a fractional per-byte cost.
///
/// Per-byte costs like [`CostModel::mem_per_byte`] are fractional, and
/// the pre-PR data path charged them with a floating-point multiply and
/// round **per access** — measurable host-side overhead on a path that
/// runs hundreds of times per simulated request. The table fixes the
/// charge for every transfer length once, at [`CostModel`] construction
/// time, so the hot path pays one bounds check and one array load.
///
/// Entries are the *exact* values `(len as f64 * per_byte).round()`
/// produced before, bit for bit — a pure fixed-point recomputation
/// cannot reproduce IEEE double rounding at exact-half boundaries (e.g.
/// `5 × 0.7`), and the figure outputs are required to stay
/// byte-identical. `tests/datapath_diff.rs` asserts the equivalence over
/// the whole table and beyond.
///
/// The entries are a pure function of `per_byte`, and a sweep builds
/// thousands of machines from the same [`CostModel`], so the table is
/// computed once per distinct `per_byte` bit pattern and thread and
/// shared by reference count; an ablation run that perturbs the model
/// gets a table of its own. The memo is a `thread_local!` because a
/// [`crate::Machine`] never leaves the thread that built it. Sharing
/// costs the charge path nothing: an `Rc<[u32]>` is read through one
/// pointer, as the `Box<[u32]>` it replaced was.
#[derive(Debug, Clone, PartialEq)]
pub struct ByteCostTable {
    per_byte: f64,
    table: Rc<[u32]>,
}

thread_local! {
    /// Every table built on this thread, by `per_byte.to_bits()`. One
    /// entry per distinct cost model in use — a handful.
    static TABLES: RefCell<Vec<(u64, Rc<[u32]>)>> = const { RefCell::new(Vec::new()) };
}

impl ByteCostTable {
    /// The charge table for `per_byte` cycles per byte: computed on the
    /// thread's first request for this `per_byte`, shared afterwards.
    pub fn new(per_byte: f64) -> Self {
        let bits = per_byte.to_bits();
        let table = TABLES.with_borrow_mut(|tables| {
            if let Some((_, table)) = tables.iter().find(|(b, _)| *b == bits) {
                return Rc::clone(table);
            }
            let table: Rc<[u32]> = (0..BYTE_COST_TABLE_LEN)
                .map(|len| (len as f64 * per_byte).round() as u32)
                .collect();
            tables.push((bits, Rc::clone(&table)));
            table
        });
        ByteCostTable { per_byte, table }
    }

    /// The cycle charge for moving `len` bytes.
    #[inline]
    pub fn cycles(&self, len: u64) -> u64 {
        match self.table.get(len as usize) {
            Some(&cycles) => u64::from(cycles),
            None => (len as f64 * self.per_byte).round() as u64,
        }
    }
}

impl CostModel {
    /// The precomputed charge table for [`CostModel::mem_per_byte`] (one
    /// side of a simulated-memory access). [`crate::Machine`] takes one
    /// at construction and charges every data-path byte through it.
    pub(crate) fn mem_cost_table(&self) -> ByteCostTable {
        ByteCostTable::new(self.mem_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_11b_anchors() {
        // The gate-latency microbenchmark values the whole evaluation keys on.
        let m = CostModel::xeon_silver_4114();
        assert_eq!(m.function_call, 2);
        assert_eq!(m.mpk_light_gate, 62);
        assert_eq!(m.mpk_dss_gate, 108);
        assert_eq!(m.ept_rpc_gate, 462);
        assert_eq!(m.syscall_kpti, 470);
        assert_eq!(m.syscall_nokpti, 146);
    }

    #[test]
    fn light_gate_is_about_two_wrpkru() {
        // §6.5: light gates "correspond to the cost of raw wrpkru
        // instructions" — two of them plus the call itself.
        let m = CostModel::default();
        let two_wrpkru = 2 * m.wrpkru + m.function_call;
        assert!((m.mpk_light_gate as i64 - two_wrpkru as i64).abs() <= 2);
    }

    #[test]
    fn unit_conversions() {
        let m = CostModel::default();
        assert!((m.cycles_to_seconds(2_200_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gbps_conversion() {
        let m = CostModel::default();
        // 16384 bytes in 69,013 cycles ≈ 4.18 Gb/s (iPerf saturation point).
        let g = m.gbps(16384, 69_013);
        assert!((g - 4.18).abs() < 0.01, "got {g}");
    }

    #[test]
    fn byte_cost_table_matches_the_float_formula() {
        for per_byte in [0.7f64, 4.2, 1.15, 0.35] {
            let table = ByteCostTable::new(per_byte);
            for len in 0..(2 * BYTE_COST_TABLE_LEN as u64) {
                assert_eq!(
                    table.cycles(len),
                    (len as f64 * per_byte).round() as u64,
                    "per_byte {per_byte} len {len}"
                );
            }
        }
    }

    #[test]
    fn byte_cost_tables_are_shared_per_distinct_per_byte() {
        let model = CostModel::default();
        let (a, b) = (model.mem_cost_table(), model.mem_cost_table());
        assert!(Rc::ptr_eq(&a.table, &b.table));

        let perturbed = CostModel {
            mem_per_byte: 0.9,
            ..CostModel::default()
        };
        let (c, d) = (perturbed.mem_cost_table(), perturbed.mem_cost_table());
        assert!(!Rc::ptr_eq(&a.table, &c.table));
        assert!(Rc::ptr_eq(&c.table, &d.table));

        for (costs, per_byte) in [(a, model.mem_per_byte), (c, 0.9)] {
            assert_eq!(costs.table.len(), BYTE_COST_TABLE_LEN);
            for (len, &cycles) in costs.table.iter().enumerate() {
                assert_eq!(
                    u64::from(cycles),
                    (len as f64 * per_byte).round() as u64,
                    "per_byte {per_byte} len {len}"
                );
            }
        }
    }

    #[test]
    fn default_matches_fig11b_calibration() {
        let m = CostModel::default();
        assert_eq!(m.function_call, 2);
        assert_eq!(m.mpk_light_gate, 62);
        assert_eq!(m.mpk_dss_gate, 108);
        assert_eq!(m.ept_rpc_gate, 462);
        assert_eq!(m.syscall_kpti, 470);
        assert_eq!(m.syscall_nokpti, 146);
    }
}
