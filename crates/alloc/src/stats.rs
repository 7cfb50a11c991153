//! Allocation statistics.
//!
//! The Figure 10 analysis hinges on *how many* allocator operations a
//! workload performs and how often each allocator's slow path fires
//! (TLSF vs Lea, §6.4); benches read these counters after a run.

use std::fmt;

/// Counters maintained by [`crate::heap::Heap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful `malloc` calls.
    pub mallocs: u64,
    /// Successful `free` calls.
    pub frees: u64,
    /// `malloc` calls that took the allocator's slow path.
    pub slow_hits: u64,
    /// Cumulative bytes handed out.
    pub bytes_allocated: u64,
    /// Cumulative bytes returned.
    pub bytes_freed: u64,
    /// Peak live bytes.
    pub peak_live: u64,
    /// KASan redzone/use-after-free reports, when hardening is on.
    pub kasan_reports: u64,
    /// `malloc` calls refused because the heap could not satisfy them —
    /// the observable of an allocator-exhaustion DoS (the refusal charges
    /// no cycles, so counting it never perturbs costed paths).
    pub exhaustions: u64,
}

impl AllocStats {
    /// Total malloc+free operations.
    pub fn total_ops(&self) -> u64 {
        self.mallocs + self.frees
    }

    /// Live bytes right now.
    pub(crate) fn live_bytes(&self) -> u64 {
        self.bytes_allocated.saturating_sub(self.bytes_freed)
    }
}

impl fmt::Display for AllocStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} mallocs ({} slow), {} frees, {} B live (peak {} B)",
            self.mallocs,
            self.slow_hits,
            self.frees,
            self.live_bytes(),
            self.peak_live
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let s = AllocStats {
            mallocs: 10,
            frees: 4,
            slow_hits: 2,
            bytes_allocated: 1000,
            bytes_freed: 300,
            peak_live: 900,
            kasan_reports: 0,
            exhaustions: 0,
        };
        assert_eq!(s.total_ops(), 14);
        assert_eq!(s.live_bytes(), 700);
    }

    #[test]
    fn display_nonempty() {
        assert!(!AllocStats::default().to_string().is_empty());
    }
}
