//! Compartments: isolation domains and their mechanisms.
//!
//! A compartment is an isolation domain holding one or more components
//! (§3). Each compartment names the hardware mechanism that encloses it;
//! the toolchain instantiates the matching gates between compartments at
//! build time (P1/P2).

use std::borrow::Cow;
use std::fmt;

use flexos_alloc::HeapKind;

use crate::hardening::Hardening;

/// Index of a compartment within an image (compartment 0 is the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompartmentId(pub u8);

impl fmt::Display for CompartmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

/// The isolation mechanism protecting a compartment boundary.
///
/// `None` merges the compartment into a flat address space (vanilla
/// Unikraft); the baseline mechanisms (`PageTable`, `Syscall`,
/// `CubicleOs`) exist so the Figure 10 comparison systems can be expressed
/// in the same configuration language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Mechanism {
    /// No hardware isolation (single flat domain).
    None,
    /// Intel memory protection keys (§4.1).
    IntelMpk,
    /// EPT/VM: one virtual machine per compartment (§4.2).
    VmEpt,
    /// Classic page-table isolation (processes / microkernel servers);
    /// used to model Linux, seL4/Genode in Figure 10.
    PageTable,
    /// CubicleOS-style MPK-via-`pkey_mprotect`-syscalls (Figure 10).
    CubicleOs,
}

impl Mechanism {
    /// Parses the configuration-file spelling (`intel-mpk`, `vm-ept`, ...).
    pub(crate) fn parse(name: &str) -> Option<Mechanism> {
        match name.trim().to_ascii_lowercase().as_str() {
            "none" => Some(Mechanism::None),
            "intel-mpk" | "mpk" => Some(Mechanism::IntelMpk),
            "vm-ept" | "ept" | "vm" => Some(Mechanism::VmEpt),
            "page-table" | "pt" => Some(Mechanism::PageTable),
            "cubicleos" => Some(Mechanism::CubicleOs),
            _ => None,
        }
    }

    /// Relative isolation strength used by partial safety ordering
    /// (§5, assumption 4): higher is probabilistically safer. The order
    /// is total and injective. The modeling choices: Cubicle's
    /// trap-based MPK beats nothing-at-all but not inline MPK gates' W^X
    /// guarantees; page tables (separate address spaces) beat
    /// intra-address-space keys; EPT (separate address spaces *and*
    /// separate EPT roots per VM) tops the scale.
    pub fn strength(&self) -> u8 {
        match self {
            Mechanism::None => 0,
            Mechanism::CubicleOs => 1,
            Mechanism::IntelMpk => 2,
            Mechanism::PageTable => 3,
            Mechanism::VmEpt => 4,
        }
    }

    /// The stronger of two mechanisms (ties keep `self`) — the rule the
    /// toolchain uses to pick which side's backend guards a
    /// mixed-mechanism boundary, since both domains must be protected.
    pub(crate) fn stronger(self, other: Mechanism) -> Mechanism {
        if self.strength() >= other.strength() {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mechanism::None => "none",
            Mechanism::IntelMpk => "intel-mpk",
            Mechanism::VmEpt => "vm-ept",
            Mechanism::PageTable => "page-table",
            Mechanism::CubicleOs => "cubicleos",
        };
        f.write_str(s)
    }
}

/// How shared *stack* data crosses compartments (§4.1 "Data Ownership" and
/// the Data Shadow Stack design of Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataSharing {
    /// Doubled stacks with a shared upper half; references to shared stack
    /// variables are rewritten to `*(&var + STACK_SIZE)`. The paper's
    /// recommended point: isolation safety at stack-allocation speed.
    #[default]
    Dss,
    /// Convert shared stack allocations to shared-heap allocations
    /// (the approach of Hodor/Cali/ERIM-derived systems; 100-300+ cycles
    /// per variable, Figure 11a).
    HeapConversion,
    /// Share the whole call stack between compartments (the "-light" MPK
    /// flavour; fastest, weakest).
    SharedStack,
}

impl DataSharing {
    /// Relative data-isolation strength for partial safety ordering
    /// (§5, assumption 2). The order is **total and injective** so that
    /// configurations differing only in their data-sharing strategy
    /// never tie (a tie would break the poset's antisymmetry once
    /// data sharing varies per compartment):
    ///
    /// * `SharedStack` (0) exposes the *entire* call stack to every
    ///   compartment — the weakest point, as §6.3 states outright.
    /// * `HeapConversion` (1) narrows exposure to the converted
    ///   variables, but parks them on the long-lived global shared heap
    ///   where stale allocations outlive their call frame.
    /// * `Dss` (2) keeps the same narrow exposure *and* stack
    ///   discipline: shadow slots die with the frame (Figure 4), so
    ///   shared data has no dangling-lifetime window. This is the §5
    ///   modeling choice behind ranking DSS above heap conversion; the
    ///   paper itself only fixes `Dss > SharedStack`.
    pub fn strength(&self) -> u8 {
        match self {
            DataSharing::SharedStack => 0,
            DataSharing::HeapConversion => 1,
            DataSharing::Dss => 2,
        }
    }

    /// Parses the configuration-file spelling (`dss`, `heap-conversion`,
    /// `shared-stack`).
    pub(crate) fn parse(name: &str) -> Option<DataSharing> {
        match name.trim().to_ascii_lowercase().as_str() {
            "dss" => Some(DataSharing::Dss),
            "heap-conversion" => Some(DataSharing::HeapConversion),
            "shared-stack" => Some(DataSharing::SharedStack),
            _ => None,
        }
    }
}

impl fmt::Display for DataSharing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataSharing::Dss => "dss",
            DataSharing::HeapConversion => "heap-conversion",
            DataSharing::SharedStack => "shared-stack",
        };
        f.write_str(s)
    }
}

/// Per-compartment resource quotas — the "resource sharing" isolation
/// dimension (OSmosis) and the fourth category of Gate's threat model:
/// a compromised compartment must not be able to starve the rest of
/// the image of memory, CPU time, or gate bandwidth. Each axis is an
/// independent cap; `None` leaves that resource unmetered.
///
/// Budgets are *policy*, enforced at the runtime's charge points
/// ([`crate::env::Env::malloc`], [`crate::env::Env::compute_checked`],
/// and the gate path): exceeding one raises
/// [`flexos_machine::fault::Fault::BudgetExceeded`], which the
/// supervisor treats as a quarantine-and-microreboot trigger rather
/// than an image-fatal error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResourceBudget {
    /// Cap on *live* private-heap payload bytes (a quota, not a rate:
    /// frees give the budget back).
    pub heap_bytes: Option<u64>,
    /// Cap on virtual cycles of modeled compute + initiated-gate cost
    /// charged to this compartment since the last accounting-window
    /// reset.
    pub cycles: Option<u64>,
    /// Cap on cross-compartment calls *initiated* by this compartment
    /// since the last accounting-window reset.
    pub crossings: Option<u64>,
}

impl ResourceBudget {
    /// The no-limits budget (identical to `Default`).
    pub const UNLIMITED: ResourceBudget = ResourceBudget {
        heap_bytes: None,
        cycles: None,
        crossings: None,
    };

    /// `true` when no axis is capped — the zero-cost fast path: images
    /// where every compartment resolves to this never touch a budget
    /// counter.
    pub(crate) fn is_unlimited(&self) -> bool {
        self.heap_bytes.is_none() && self.cycles.is_none() && self.crossings.is_none()
    }

    /// Parses the configuration-file spelling: comma-separated
    /// `heap=N`/`cycles=N`/`crossings=N` terms (plain byte/cycle/call
    /// counts), or the literal `unlimited`.
    pub(crate) fn parse(s: &str) -> Option<ResourceBudget> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("unlimited") {
            return Some(ResourceBudget::UNLIMITED);
        }
        let mut out = ResourceBudget::UNLIMITED;
        for term in s.split(',') {
            let (key, value) = term.split_once('=')?;
            let value: u64 = value.trim().parse().ok()?;
            match key.trim().to_ascii_lowercase().as_str() {
                "heap" | "heap_bytes" => out.heap_bytes = Some(value),
                "cycles" => out.cycles = Some(value),
                "crossings" => out.crossings = Some(value),
                _ => return None,
            }
        }
        Some(out)
    }
}

impl fmt::Display for ResourceBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unlimited() {
            return f.write_str("unlimited");
        }
        let mut first = true;
        let mut term = |f: &mut fmt::Formatter<'_>, key, v: Option<u64>| -> fmt::Result {
            if let Some(v) = v {
                if !first {
                    f.write_str(",")?;
                }
                first = false;
                write!(f, "{key}={v}")?;
            }
            Ok(())
        };
        term(f, "heap", self.heap_bytes)?;
        term(f, "cycles", self.cycles)?;
        term(f, "crossings", self.crossings)
    }
}

/// The *resolved* per-compartment isolation profile (§3, P2): every
/// boundary-local decision the toolchain makes for one compartment, in
/// one value. Where [`CompartmentSpec`] carries *requested* axes (with
/// `None` meaning "inherit the image default"), an `IsolationProfile`
/// is what the resolution produced — the form the runtime
/// ([`crate::env::Env::profile_of`]) and reports consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsolationProfile {
    /// How shared stack data crosses *into* this compartment (selects
    /// the gate flavour of every boundary whose callee this is).
    pub data_sharing: DataSharing,
    /// Allocator policy of this compartment's private heap.
    pub allocator: HeapKind,
    /// Compartment-wide hardening (components may override).
    pub hardening: Hardening,
    /// Resource quotas enforced on this compartment.
    pub budget: ResourceBudget,
}

impl Default for IsolationProfile {
    fn default() -> Self {
        IsolationProfile {
            data_sharing: DataSharing::default(),
            allocator: HeapKind::Tlsf,
            hardening: Hardening::NONE,
            budget: ResourceBudget::UNLIMITED,
        }
    }
}

/// Build-time description of one compartment.
///
/// The data-sharing and allocator axes are per-compartment *overrides*:
/// `None` inherits the image-wide default
/// ([`crate::config::SafetyConfig::default_data_sharing`] /
/// [`crate::config::SafetyConfig::default_allocator`]), so a
/// configuration that never mentions them behaves exactly like the old
/// global-knob API.
#[derive(Debug, Clone, PartialEq)]
pub struct CompartmentSpec {
    /// Compartment name from the configuration file (e.g. `comp1`):
    /// borrowed when static, owned when parsed.
    pub name: Cow<'static, str>,
    /// Isolation mechanism enclosing this compartment.
    pub mechanism: Mechanism,
    /// Hardening applied to every component in the compartment (individual
    /// components may override via the configuration).
    pub hardening: Hardening,
    /// `true` for the default compartment, which receives components the
    /// configuration does not place explicitly.
    pub default: bool,
    /// Data-sharing strategy for boundaries into this compartment
    /// (`None`: image default).
    pub data_sharing: Option<DataSharing>,
    /// Allocator policy for this compartment's private heap
    /// (`None`: image default).
    pub allocator: Option<HeapKind>,
    /// Resource quotas for this compartment (`None`: image default,
    /// which itself defaults to unlimited).
    pub budget: Option<ResourceBudget>,
}

impl CompartmentSpec {
    /// Creates a compartment spec with no hardening and inherited
    /// data-sharing/allocator axes.
    pub fn new(name: impl Into<Cow<'static, str>>, mechanism: Mechanism) -> Self {
        CompartmentSpec {
            name: name.into(),
            mechanism,
            hardening: Hardening::NONE,
            default: false,
            data_sharing: None,
            allocator: None,
            budget: None,
        }
    }

    /// Marks this compartment as the default one.
    pub fn default_compartment(mut self) -> Self {
        self.default = true;
        self
    }

    /// Sets compartment-wide hardening.
    pub fn with_hardening(mut self, hardening: Hardening) -> Self {
        self.hardening = hardening;
        self
    }

    /// Overrides the data-sharing strategy for this compartment's
    /// boundaries (callee side).
    pub fn with_data_sharing(mut self, sharing: DataSharing) -> Self {
        self.data_sharing = Some(sharing);
        self
    }

    /// Overrides the allocator policy of this compartment's private heap.
    pub fn with_allocator(mut self, allocator: HeapKind) -> Self {
        self.allocator = Some(allocator);
        self
    }

    /// Sets all profile axes at once.
    pub fn with_profile(mut self, profile: IsolationProfile) -> Self {
        self.data_sharing = Some(profile.data_sharing);
        self.allocator = Some(profile.allocator);
        self.hardening = profile.hardening;
        self.budget = Some(profile.budget);
        self
    }

    /// Sets this compartment's resource quotas.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Resolves this spec's profile against image-wide defaults.
    pub(crate) fn profile_with(
        &self,
        default_sharing: DataSharing,
        default_allocator: HeapKind,
        default_budget: ResourceBudget,
    ) -> IsolationProfile {
        IsolationProfile {
            data_sharing: self.data_sharing.unwrap_or(default_sharing),
            allocator: self.allocator.unwrap_or(default_allocator),
            hardening: self.hardening,
            budget: self.budget.unwrap_or(default_budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_parse_roundtrip() {
        for m in [
            Mechanism::None,
            Mechanism::IntelMpk,
            Mechanism::VmEpt,
            Mechanism::PageTable,
            Mechanism::CubicleOs,
        ] {
            assert_eq!(Mechanism::parse(&m.to_string()), Some(m));
        }
        assert_eq!(Mechanism::parse("intel-mpk"), Some(Mechanism::IntelMpk));
        assert_eq!(Mechanism::parse("sgx"), None);
    }

    #[test]
    fn strength_ordering_matches_paper_assumptions() {
        // EPT provides "strong safety guarantees compared to MPK" (§4.2).
        assert!(Mechanism::VmEpt.strength() > Mechanism::IntelMpk.strength());
        assert!(Mechanism::IntelMpk.strength() > Mechanism::None.strength());
        // DSS is "more secure than fully sharing the stack" (§6.3).
        assert!(DataSharing::Dss.strength() > DataSharing::SharedStack.strength());
    }

    #[test]
    fn data_sharing_strengths_are_injective() {
        // HeapConversion and Dss must not tie (poset antisymmetry once
        // data sharing varies per compartment); the documented §5
        // modeling choice ranks DSS above heap conversion.
        let all = [
            DataSharing::SharedStack,
            DataSharing::HeapConversion,
            DataSharing::Dss,
        ];
        for a in all {
            for b in all {
                assert_eq!(a.strength() == b.strength(), a == b, "{a} vs {b}");
            }
        }
        assert!(DataSharing::Dss.strength() > DataSharing::HeapConversion.strength());
        assert!(DataSharing::HeapConversion.strength() > DataSharing::SharedStack.strength());
    }

    #[test]
    fn data_sharing_parse_roundtrip() {
        for s in [
            DataSharing::Dss,
            DataSharing::HeapConversion,
            DataSharing::SharedStack,
        ] {
            assert_eq!(DataSharing::parse(&s.to_string()), Some(s));
        }
        assert_eq!(DataSharing::parse("mmap"), None);
    }

    #[test]
    fn profiles_resolve_against_defaults() {
        let spec = CompartmentSpec::new("c", Mechanism::IntelMpk);
        let p = spec.profile_with(DataSharing::Dss, HeapKind::Tlsf, ResourceBudget::UNLIMITED);
        assert_eq!(p, IsolationProfile::default());

        let spec = CompartmentSpec::new("c", Mechanism::IntelMpk)
            .with_data_sharing(DataSharing::SharedStack)
            .with_allocator(HeapKind::Lea);
        let p = spec.profile_with(DataSharing::Dss, HeapKind::Tlsf, ResourceBudget::UNLIMITED);
        assert_eq!(p.data_sharing, DataSharing::SharedStack);
        assert_eq!(p.allocator, HeapKind::Lea);
        assert!(p.budget.is_unlimited());

        let full = IsolationProfile {
            data_sharing: DataSharing::HeapConversion,
            allocator: HeapKind::Bump,
            hardening: Hardening::FIG6_BUNDLE,
            budget: ResourceBudget {
                heap_bytes: Some(1 << 20),
                cycles: None,
                crossings: Some(512),
            },
        };
        let spec = CompartmentSpec::new("c", Mechanism::IntelMpk).with_profile(full);
        assert_eq!(
            spec.profile_with(DataSharing::Dss, HeapKind::Tlsf, ResourceBudget::UNLIMITED),
            full
        );
    }

    #[test]
    fn budgets_resolve_against_the_image_default() {
        let default_budget = ResourceBudget {
            heap_bytes: Some(2 << 20),
            cycles: Some(1_000_000),
            crossings: None,
        };
        // No override: inherit the image default.
        let spec = CompartmentSpec::new("c", Mechanism::IntelMpk);
        let p = spec.profile_with(DataSharing::Dss, HeapKind::Tlsf, default_budget);
        assert_eq!(p.budget, default_budget);
        // Explicit unlimited overrides a limiting default.
        let spec = spec.with_budget(ResourceBudget::UNLIMITED);
        let p = spec.profile_with(DataSharing::Dss, HeapKind::Tlsf, default_budget);
        assert!(p.budget.is_unlimited());
    }

    #[test]
    fn budget_parse_roundtrips_the_display_spelling() {
        let budgets = [
            ResourceBudget::UNLIMITED,
            ResourceBudget {
                heap_bytes: Some(2_097_152),
                cycles: None,
                crossings: None,
            },
            ResourceBudget {
                heap_bytes: Some(1 << 20),
                cycles: Some(5_000_000),
                crossings: Some(4096),
            },
        ];
        for b in budgets {
            assert_eq!(ResourceBudget::parse(&b.to_string()), Some(b), "{b}");
        }
        assert_eq!(
            ResourceBudget::parse("cycles=10"),
            Some(ResourceBudget {
                heap_bytes: None,
                cycles: Some(10),
                crossings: None,
            })
        );
        assert_eq!(ResourceBudget::parse("heap=abc"), None);
        assert_eq!(ResourceBudget::parse("disk=5"), None);
    }

    #[test]
    fn spec_builder() {
        let spec = CompartmentSpec::new("comp2", Mechanism::IntelMpk)
            .with_hardening(Hardening::FIG6_BUNDLE);
        assert_eq!(spec.name, "comp2");
        assert!(!spec.default);
        assert_eq!(spec.hardening, Hardening::FIG6_BUNDLE);
        let d = CompartmentSpec::new("comp1", Mechanism::IntelMpk).default_compartment();
        assert!(d.default);
    }
}
