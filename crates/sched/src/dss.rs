//! Data Shadow Stacks (§4.1, Figure 4).
//!
//! Stack allocations are fast because the compiler does the bookkeeping at
//! compile time; heap conversion of shared stack variables costs 100-300+
//! cycles each (Figure 11a). The DSS keeps stack speed: every thread stack
//! is doubled, the upper half (the DSS) is placed in the shared domain,
//! and each stack variable `x` owns a *shadow* at `&x + STACK_SIZE`.
//! The toolchain rewrites references to shared stack variables into their
//! shadows, so allocating the variable transparently allocates the shared
//! slot — zero extra bookkeeping, constant 2-cycle cost.

use flexos_machine::addr::{Addr, PAGE_SIZE};

/// Pages per (private) thread stack; the paper notes FlexOS uses small
/// 8-page stacks, making the DSS memory overhead modest (§6.5: a Redis
/// instance with 8 threads pays 288 KiB).
pub(crate) const STACK_PAGES: u64 = 8;

/// Bytes per private stack half; the DSS doubles this.
pub const STACK_SIZE: u64 = STACK_PAGES * PAGE_SIZE as u64;

/// The shadow of a stack variable: `&x + STACK_SIZE` (Figure 4).
///
/// ```
/// use flexos_machine::addr::Addr;
/// use flexos_sched::dss::{shadow_of, STACK_SIZE};
///
/// let var = Addr::new(0x8000);
/// assert_eq!(shadow_of(var), Addr::new(0x8000 + STACK_SIZE));
/// ```
pub fn shadow_of(stack_var: Addr) -> Addr {
    stack_var + STACK_SIZE
}

/// The DSS (upper, shared) half of a doubled stack as a `[start, end)`
/// span — shared by design; the adversarial suite probes both halves and
/// asserts the boundary falls exactly between them.
pub fn dss_span(stack_base: Addr) -> (Addr, Addr) {
    (stack_base + STACK_SIZE, stack_base + 2 * STACK_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_lands_in_dss_half() {
        let base = Addr::new(0x40000);
        let (dss_start, dss_end) = dss_span(base);
        assert_eq!(dss_start, base + STACK_SIZE, "halves abut exactly");
        assert_eq!(dss_end, base + 2 * STACK_SIZE);
        for off in [0u64, 8, 4096, STACK_SIZE - 1] {
            let var = base + off;
            let shadow = shadow_of(var);
            assert!(dss_start <= shadow && shadow < dss_end, "offset {off}");
            // The shadow preserves the variable's offset within the stack,
            // so the compiler's frame layout carries over 1:1.
            assert_eq!(shadow.offset_from(base) - STACK_SIZE, off);
        }
    }

    #[test]
    fn stack_size_matches_paper() {
        // 8 pages × 4 KiB = 32 KiB private stack; doubled for the DSS.
        assert_eq!(STACK_SIZE, 32 * 1024);
    }
}
