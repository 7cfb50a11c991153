//! The trusted computing base (§3.3).
//!
//! Regardless of mechanism, five things can defeat isolation if
//! compromised: early boot code, the memory manager, the scheduler's
//! context-switch core, the first-level interrupt handler, and the
//! isolation backend itself. FlexOS keeps this set small (~3000 LoC with
//! MPK, less with EPT) and assumes it error-free; the paper notes the
//! scheduler has been formally verified with Dafny in prior work.

use std::fmt;

/// The five TCB member categories of §3.3.
pub const TCB_MEMBERS: [&str; 5] = [
    "early-boot",
    "memory-manager",
    "scheduler-core",
    "irq-first-level",
    "isolation-backend",
];

/// Core-library lines in the TCB independent of backend (§4: "850 for core
/// libraries" of the 3250 LoC prototype patch).
pub(crate) const CORE_TCB_LOC: u32 = 850;

/// Per-image TCB accounting, included in the transform report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcbReport {
    /// Member categories present in the image.
    pub members: &'static [&'static str],
    /// Backend-contributed lines of code.
    pub backend_loc: u32,
    /// Core-library lines of code.
    pub core_loc: u32,
    /// `true` when the TCB is cloned into every compartment (EPT/VM
    /// backends: each VM needs a self-contained kernel, §4.2).
    pub duplicated_per_compartment: bool,
    /// Number of compartments (for duplication accounting).
    pub compartments: u32,
}

impl TcbReport {
    /// Builds a report for an image.
    pub(crate) fn new(backend_loc: u32, duplicated: bool, compartments: u32) -> Self {
        TcbReport {
            members: &TCB_MEMBERS,
            backend_loc,
            core_loc: CORE_TCB_LOC,
            duplicated_per_compartment: duplicated,
            compartments,
        }
    }

    /// Unique trusted lines (what must be verified once).
    pub fn unique_loc(&self) -> u32 {
        self.core_loc + self.backend_loc
    }

    /// Total instantiated trusted lines across the image (duplication
    /// included).
    pub fn total_loc(&self) -> u32 {
        if self.duplicated_per_compartment {
            self.unique_loc() * self.compartments.max(1)
        } else {
            self.unique_loc()
        }
    }
}

impl fmt::Display for TcbReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TCB: {} LoC ({}{}), members: {}",
            self.total_loc(),
            self.unique_loc(),
            if self.duplicated_per_compartment {
                format!(" × {} compartments", self.compartments)
            } else {
                String::new()
            },
            self.members.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpk_tcb_is_about_3000_loc() {
        // §3.3: "around 3000 LoC in the case of Intel MPK".
        let report = TcbReport::new(1400, false, 3);
        assert!(report.unique_loc() >= 2000 && report.unique_loc() <= 3500);
        assert_eq!(report.total_loc(), report.unique_loc());
    }

    #[test]
    fn ept_duplicates_per_vm() {
        let report = TcbReport::new(1000, true, 2);
        assert_eq!(report.total_loc(), 2 * report.unique_loc());
    }

    #[test]
    fn member_set_matches_paper() {
        assert_eq!(TCB_MEMBERS.len(), 5);
        assert!(TCB_MEMBERS.contains(&"scheduler-core"));
        assert!(!TCB_MEMBERS.contains(&"lwip"));
    }

    #[test]
    fn display_mentions_loc() {
        let report = TcbReport::new(1400, false, 1);
        assert!(report.to_string().contains("2250"));
    }
}
