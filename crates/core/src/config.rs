//! Safety configuration: the build-time file that picks an isolation
//! strategy (§3).
//!
//! A [`SafetyConfig`] is the Rust form of the paper's YAML-ish
//! configuration snippet: a list of compartments (mechanism, hardening,
//! default flag) plus the library → compartment placement map. It can be
//! built programmatically ([`SafetyConfigBuilder`]) or parsed from the
//! paper's textual format with [`SafetyConfig::parse_str`]:
//!
//! ```text
//! compartments:
//! - comp1:
//!     mechanism: intel-mpk
//!     default: True
//! - comp2:
//!     mechanism: intel-mpk
//!     hardening: [cfi, asan]
//! libraries:
//! - libredis: comp1
//! - libopenjpg: comp2
//! - lwip: comp2
//! ```

use std::collections::BTreeMap;
use std::fmt;

use flexos_alloc::HeapKind;
use flexos_machine::fault::Fault;

use crate::compartment::{
    CompartmentSpec, DataSharing, IsolationProfile, Mechanism, ResourceBudget,
};
use crate::hardening::Hardening;

/// Maximum compartments in one configuration: compartment sets (a
/// sharing group's members, the quarantine set) are `u32` bitmasks.
pub(crate) const MAX_COMPARTMENTS: usize = 32;

/// A complete build-time safety configuration.
///
/// Data sharing and allocator are **per-compartment axes** resolved
/// through [`IsolationProfile`]s: each [`CompartmentSpec`] may override
/// them, and the image-wide defaults below cover the compartments that
/// don't — so the paper's verbatim snippet (which never mentions
/// either) still parses and behaves exactly like the old global knob.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyConfig {
    /// Compartments in declaration order; index = [`CompartmentId`] value.
    ///
    /// [`CompartmentId`]: crate::compartment::CompartmentId
    pub compartments: Vec<CompartmentSpec>,
    /// Component name → compartment name placements.
    pub libraries: Vec<(String, String)>,
    /// Per-component hardening overrides (Figure 6 varies hardening per
    /// component; compartment-wide hardening is the default).
    pub component_hardening: BTreeMap<String, Hardening>,
    /// Default data-sharing strategy for compartments without their own
    /// (the old image-global knob, kept as the inherited default).
    pub default_data_sharing: DataSharing,
    /// Default allocator policy for compartments without their own;
    /// `None` defers to the toolchain ([`HeapKind::Tlsf`], overridable
    /// via `ImageBuilder::heap_kind`).
    pub default_allocator: Option<HeapKind>,
    /// Default resource quotas for compartments without their own
    /// [`CompartmentSpec::budget`]; `None` leaves them unmetered.
    pub default_budget: Option<ResourceBudget>,
}

impl SafetyConfig {
    /// Starts building a configuration.
    pub fn builder() -> SafetyConfigBuilder {
        SafetyConfigBuilder::default()
    }

    /// The single-compartment, no-isolation configuration (vanilla
    /// Unikraft behaviour; the Figure 6 "NONE" point).
    pub fn none() -> SafetyConfig {
        SafetyConfig::builder()
            .compartment(CompartmentSpec::new("comp1", Mechanism::None).default_compartment())
            .build()
            .expect("static config is valid")
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] when: no compartment is declared or more
    /// than [`MAX_COMPARTMENTS`], no (or more than one) default
    /// compartment exists, compartment names collide, or a library
    /// references an unknown compartment.
    pub(crate) fn validate(&self) -> Result<(), Fault> {
        let invalid = |reason: String| Fault::InvalidConfig { reason };
        if self.compartments.is_empty() {
            return Err(invalid("no compartments declared".into()));
        }
        if self.compartments.len() > MAX_COMPARTMENTS {
            return Err(invalid(format!(
                "at most {MAX_COMPARTMENTS} compartments supported, got {}",
                self.compartments.len()
            )));
        }
        let defaults = self.compartments.iter().filter(|c| c.default).count();
        if defaults != 1 {
            return Err(invalid(format!(
                "exactly one default compartment required, found {defaults}"
            )));
        }
        for (i, a) in self.compartments.iter().enumerate() {
            if self.compartments[..i].iter().any(|b| b.name == a.name) {
                return Err(invalid(format!("duplicate compartment `{}`", a.name)));
            }
        }
        for (lib, comp) in &self.libraries {
            if !self.compartments.iter().any(|c| &c.name == comp) {
                return Err(invalid(format!(
                    "library `{lib}` placed in unknown compartment `{comp}`"
                )));
            }
        }
        for (i, (lib, _)) in self.libraries.iter().enumerate() {
            if self.libraries[..i].iter().any(|(l, _)| l == lib) {
                return Err(invalid(format!("library `{lib}` placed twice")));
            }
        }
        Ok(())
    }

    /// Index of the default compartment.
    ///
    /// # Panics
    ///
    /// Panics on an unvalidated configuration with no default compartment.
    pub fn default_compartment(&self) -> usize {
        self.compartments
            .iter()
            .position(|c| c.default)
            .expect("validated config has a default compartment")
    }

    /// The compartment (by index) a component is placed in.
    pub fn placement(&self, component: &str) -> usize {
        self.libraries
            .iter()
            .find(|(lib, _)| lib == component)
            .and_then(|(_, comp)| self.compartments.iter().position(|c| &c.name == comp))
            .unwrap_or_else(|| self.default_compartment())
    }

    /// Effective hardening for a component: per-component override if
    /// present, else its compartment's hardening.
    pub fn hardening_of(&self, component: &str) -> Hardening {
        if let Some(h) = self.component_hardening.get(component) {
            return *h;
        }
        self.compartments[self.placement(component)].hardening
    }

    /// Which compartments' private heaps run KASan (redzones, quarantine,
    /// shadow): bit `i` is set when one of `components` placed in
    /// compartment `i` is KASan-hardened. The image builder enables KASan
    /// on exactly these heaps, and a heap's KASan state decides its layout
    /// and its allocation costs whatever the hardening of the component
    /// running on it — so the sweep engine keys its hardening classes on
    /// the same bits.
    pub fn kasan_heaps<'a>(&self, components: impl IntoIterator<Item = &'a str>) -> u32 {
        components
            .into_iter()
            .filter(|name| self.hardening_of(name).kasan)
            .fold(0, |bits, name| bits | 1 << self.placement(name))
    }

    /// Number of compartments.
    pub fn compartment_count(&self) -> usize {
        self.compartments.len()
    }

    /// The resolved [`IsolationProfile`] of compartment `comp` (by
    /// index): per-compartment overrides where present, image defaults
    /// otherwise (allocator falling back to the toolchain's
    /// [`HeapKind::Tlsf`]).
    ///
    /// # Panics
    ///
    /// Panics if `comp` is out of range.
    pub fn profile_of(&self, comp: usize) -> IsolationProfile {
        self.compartments[comp].profile_with(
            self.default_data_sharing,
            self.default_allocator.unwrap_or(HeapKind::Tlsf),
            self.default_budget.unwrap_or(ResourceBudget::UNLIMITED),
        )
    }

    /// Resource quotas of compartment `comp`, after default resolution.
    ///
    /// # Panics
    ///
    /// Panics if `comp` is out of range.
    pub fn budget_of(&self, comp: usize) -> ResourceBudget {
        self.compartments[comp]
            .budget
            .or(self.default_budget)
            .unwrap_or(ResourceBudget::UNLIMITED)
    }

    /// `true` when any compartment resolves to a limiting budget — the
    /// one check the runtime's hot paths make before touching budget
    /// state, and the one the sweep order makes before comparing the
    /// budget dimension.
    pub fn any_budget(&self) -> bool {
        (0..self.compartments.len()).any(|c| !self.budget_of(c).is_unlimited())
    }

    /// Data-sharing strategy of compartment `comp`'s boundaries
    /// (callee side), after default resolution.
    ///
    /// # Panics
    ///
    /// Panics if `comp` is out of range.
    pub fn data_sharing_of(&self, comp: usize) -> DataSharing {
        self.compartments[comp]
            .data_sharing
            .unwrap_or(self.default_data_sharing)
    }

    /// Allocator of compartment `comp`'s private heap, when the
    /// configuration pins one (`None` defers to the toolchain).
    ///
    /// # Panics
    ///
    /// Panics if `comp` is out of range.
    pub fn allocator_of(&self, comp: usize) -> Option<HeapKind> {
        self.compartments[comp].allocator.or(self.default_allocator)
    }

    /// Derived image-wide data-sharing view: the *default compartment's*
    /// resolved strategy. On configurations that never override the axis
    /// per compartment this is exactly the old global knob; mixed images
    /// should ask [`SafetyConfig::data_sharing_of`] per boundary.
    ///
    /// # Panics
    ///
    /// Panics on an unvalidated configuration with no default compartment.
    pub fn data_sharing(&self) -> DataSharing {
        self.data_sharing_of(self.default_compartment())
    }

    /// Strongest mechanism used by any compartment (for reporting).
    pub fn dominant_mechanism(&self) -> Mechanism {
        self.compartments
            .iter()
            .map(|c| c.mechanism)
            .max_by_key(|m| m.strength())
            .unwrap_or(Mechanism::None)
    }

    /// Parses the paper's textual configuration format.
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidConfig`] on syntax errors, unknown mechanisms or
    /// hardening names, and any `SafetyConfig::validate` failure.
    pub fn parse_str(text: &str) -> Result<SafetyConfig, Fault> {
        parse(text)
    }
}

impl fmt::Display for SafetyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Top-level (unindented) keys are the image-wide defaults;
        // the same keys indented under a compartment are its overrides.
        if self.default_data_sharing != DataSharing::default() {
            writeln!(f, "data_sharing: {}", self.default_data_sharing)?;
        }
        if let Some(kind) = self.default_allocator {
            writeln!(f, "allocator: {kind}")?;
        }
        if let Some(budget) = self.default_budget {
            writeln!(f, "budget: {budget}")?;
        }
        writeln!(f, "compartments:")?;
        for c in &self.compartments {
            writeln!(f, "- {}:", c.name)?;
            writeln!(f, "    mechanism: {}", c.mechanism)?;
            if c.default {
                writeln!(f, "    default: True")?;
            }
            if !c.hardening.is_none() {
                writeln!(
                    f,
                    "    hardening: [{}]",
                    c.hardening.to_string().replace('+', ", ")
                )?;
            }
            if let Some(sharing) = c.data_sharing {
                writeln!(f, "    data_sharing: {sharing}")?;
            }
            if let Some(kind) = c.allocator {
                writeln!(f, "    allocator: {kind}")?;
            }
            if let Some(budget) = c.budget {
                writeln!(f, "    budget: {budget}")?;
            }
        }
        writeln!(f, "libraries:")?;
        for (lib, comp) in &self.libraries {
            writeln!(f, "- {lib}: {comp}")?;
        }
        Ok(())
    }
}

/// Incremental [`SafetyConfig`] constructor.
#[derive(Debug, Default)]
pub struct SafetyConfigBuilder {
    compartments: Vec<CompartmentSpec>,
    libraries: Vec<(String, String)>,
    component_hardening: BTreeMap<String, Hardening>,
    data_sharing: DataSharing,
    default_allocator: Option<HeapKind>,
    default_budget: Option<ResourceBudget>,
}

impl SafetyConfigBuilder {
    /// Adds a compartment.
    pub fn compartment(mut self, spec: CompartmentSpec) -> Self {
        self.compartments.push(spec);
        self
    }

    /// Places a component into a compartment by name.
    pub fn place(mut self, component: &str, compartment: &str) -> Self {
        self.libraries
            .push((component.to_string(), compartment.to_string()));
        self
    }

    /// Overrides hardening for one component.
    pub fn harden_component(mut self, component: &str, hardening: Hardening) -> Self {
        self.component_hardening
            .insert(component.to_string(), hardening);
        self
    }

    /// Chooses the *default* shared-stack-data strategy — compartments
    /// that carry their own [`CompartmentSpec::data_sharing`] override
    /// keep it (order-independent with respect to `compartment` calls).
    pub fn data_sharing(mut self, sharing: DataSharing) -> Self {
        self.data_sharing = sharing;
        self
    }

    /// Chooses the default allocator policy for per-compartment heaps
    /// without their own [`CompartmentSpec::allocator`] override.
    pub fn default_allocator(mut self, kind: HeapKind) -> Self {
        self.default_allocator = Some(kind);
        self
    }

    /// Finalizes and validates the configuration.
    ///
    /// # Errors
    ///
    /// Propagates `SafetyConfig::validate` failures.
    pub fn build(self) -> Result<SafetyConfig, Fault> {
        let config = SafetyConfig {
            compartments: self.compartments,
            libraries: self.libraries,
            component_hardening: self.component_hardening,
            default_data_sharing: self.data_sharing,
            default_allocator: self.default_allocator,
            default_budget: self.default_budget,
        };
        config.validate()?;
        Ok(config)
    }
}

/// Hand-rolled parser for the paper's YAML-subset configuration format.
fn parse(text: &str) -> Result<SafetyConfig, Fault> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Compartments,
        Libraries,
    }
    let invalid = |reason: String| Fault::InvalidConfig { reason };

    let mut section = Section::None;
    let mut compartments: Vec<CompartmentSpec> = Vec::new();
    let mut libraries = Vec::new();
    let mut data_sharing = DataSharing::default();
    let mut default_allocator = None;
    let mut default_budget = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        let trimmed = line.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        let err_at = |msg: &str| invalid(format!("line {}: {msg}: `{raw}`", lineno + 1));

        if trimmed == "compartments:" {
            section = Section::Compartments;
            continue;
        }
        if trimmed == "libraries:" {
            section = Section::Libraries;
            continue;
        }
        // Unindented `data_sharing:` / `allocator:` lines are image-wide
        // defaults; indented under a compartment they are that
        // compartment's profile overrides (handled in the section match).
        let top_level = line.len() == trimmed.len();
        if top_level {
            if let Some(value) = trimmed.strip_prefix("data_sharing:") {
                data_sharing = DataSharing::parse(value)
                    .ok_or_else(|| err_at(&format!("unknown data sharing `{}`", value.trim())))?;
                continue;
            }
            if let Some(value) = trimmed.strip_prefix("allocator:") {
                default_allocator = Some(
                    HeapKind::parse(value)
                        .ok_or_else(|| err_at(&format!("unknown allocator `{}`", value.trim())))?,
                );
                continue;
            }
            if let Some(value) = trimmed.strip_prefix("budget:") {
                default_budget = Some(
                    ResourceBudget::parse(value)
                        .ok_or_else(|| err_at(&format!("malformed budget `{}`", value.trim())))?,
                );
                continue;
            }
        }

        match section {
            Section::Compartments => {
                if let Some(rest) = trimmed.strip_prefix("- ") {
                    let name = rest.trim_end_matches(':').trim();
                    if name.is_empty() {
                        return Err(err_at("empty compartment name"));
                    }
                    compartments.push(CompartmentSpec::new(name, Mechanism::None));
                } else {
                    let comp = compartments
                        .last_mut()
                        .ok_or_else(|| err_at("attribute before any compartment"))?;
                    let (key, value) = trimmed
                        .split_once(':')
                        .ok_or_else(|| err_at("expected `key: value`"))?;
                    let value = value.trim();
                    match key.trim() {
                        "mechanism" => {
                            comp.mechanism = Mechanism::parse(value)
                                .ok_or_else(|| err_at(&format!("unknown mechanism `{value}`")))?;
                        }
                        "default" => {
                            comp.default = value.eq_ignore_ascii_case("true");
                        }
                        "hardening" => {
                            let list = value
                                .trim_start_matches('[')
                                .trim_end_matches(']')
                                .split(',')
                                .map(str::trim)
                                .filter(|s| !s.is_empty());
                            for item in list {
                                let h = Hardening::parse_mechanism(item).ok_or_else(|| {
                                    err_at(&format!("unknown hardening `{item}`"))
                                })?;
                                comp.hardening = comp.hardening.union(&h);
                            }
                        }
                        "data_sharing" => {
                            comp.data_sharing =
                                Some(DataSharing::parse(value).ok_or_else(|| {
                                    err_at(&format!("unknown data sharing `{value}`"))
                                })?);
                        }
                        "allocator" => {
                            comp.allocator =
                                Some(HeapKind::parse(value).ok_or_else(|| {
                                    err_at(&format!("unknown allocator `{value}`"))
                                })?);
                        }
                        "budget" => {
                            comp.budget =
                                Some(ResourceBudget::parse(value).ok_or_else(|| {
                                    err_at(&format!("malformed budget `{value}`"))
                                })?);
                        }
                        other => return Err(err_at(&format!("unknown key `{other}`"))),
                    }
                }
            }
            Section::Libraries => {
                let entry = trimmed
                    .strip_prefix("- ")
                    .ok_or_else(|| err_at("expected `- library: compartment`"))?;
                let (lib, comp) = entry
                    .split_once(':')
                    .ok_or_else(|| err_at("expected `library: compartment`"))?;
                libraries.push((lib.trim().to_string(), comp.trim().to_string()));
            }
            Section::None => return Err(err_at("content outside any section")),
        }
    }

    let config = SafetyConfig {
        compartments,
        libraries,
        component_hardening: BTreeMap::new(),
        default_data_sharing: data_sharing,
        default_allocator,
        default_budget,
    };
    config.validate()?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_SNIPPET: &str = "\
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
    hardening: [cfi, asan]
libraries:
- libredis: comp1
- libopenjpg: comp2
- lwip: comp2
";

    #[test]
    fn parses_the_papers_example() {
        let cfg = SafetyConfig::parse_str(PAPER_SNIPPET).unwrap();
        assert_eq!(cfg.compartment_count(), 2);
        assert_eq!(cfg.compartments[0].name, "comp1");
        assert!(cfg.compartments[0].default);
        assert_eq!(cfg.compartments[0].mechanism, Mechanism::IntelMpk);
        assert!(cfg.compartments[1].hardening.cfi);
        assert!(cfg.compartments[1].hardening.kasan);
        assert_eq!(cfg.libraries.len(), 3);
        assert_eq!(cfg.placement("lwip"), 1);
        assert_eq!(cfg.placement("libredis"), 0);
        // Unplaced components land in the default compartment.
        assert_eq!(cfg.placement("uksched"), 0);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let cfg = SafetyConfig::parse_str(PAPER_SNIPPET).unwrap();
        let reparsed = SafetyConfig::parse_str(&cfg.to_string()).unwrap();
        assert_eq!(cfg.compartments, reparsed.compartments);
        assert_eq!(cfg.libraries, reparsed.libraries);
    }

    #[test]
    fn rejects_unknown_mechanism() {
        let bad = "compartments:\n- c1:\n    mechanism: sgx2\n";
        assert!(matches!(
            SafetyConfig::parse_str(bad),
            Err(Fault::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rejects_missing_default() {
        let bad = "compartments:\n- c1:\n    mechanism: intel-mpk\n";
        let err = SafetyConfig::parse_str(bad).unwrap_err();
        assert!(err.to_string().contains("default"));
    }

    #[test]
    fn rejects_two_defaults() {
        let bad = "compartments:\n- c1:\n    default: True\n- c2:\n    default: True\n";
        assert!(SafetyConfig::parse_str(bad).is_err());
    }

    #[test]
    fn rejects_a_33rd_compartment_whatever_the_mechanism() {
        let with = |n: usize| {
            let mut b = SafetyConfig::builder()
                .compartment(CompartmentSpec::new("c0", Mechanism::None).default_compartment());
            for i in 1..n {
                b = b.compartment(CompartmentSpec::new(format!("c{i}"), Mechanism::None));
            }
            b.build()
        };
        assert!(with(MAX_COMPARTMENTS).is_ok());
        let err = with(MAX_COMPARTMENTS + 1).unwrap_err();
        assert!(matches!(err, Fault::InvalidConfig { .. }));
        assert!(err.to_string().contains("at most 32"));
    }

    #[test]
    fn rejects_unknown_compartment_placement() {
        let bad = "compartments:\n- c1:\n    default: True\nlibraries:\n- lwip: ghost\n";
        assert!(SafetyConfig::parse_str(bad).is_err());
    }

    #[test]
    fn rejects_duplicate_placement() {
        let bad = "compartments:\n- c1:\n    default: True\nlibraries:\n- lwip: c1\n- lwip: c1\n";
        assert!(SafetyConfig::parse_str(bad).is_err());
    }

    #[test]
    fn builder_and_overrides() {
        let cfg = SafetyConfig::builder()
            .compartment(CompartmentSpec::new("main", Mechanism::IntelMpk).default_compartment())
            .compartment(CompartmentSpec::new("net", Mechanism::IntelMpk))
            .place("lwip", "net")
            .harden_component("lwip", Hardening::FIG6_BUNDLE)
            .data_sharing(DataSharing::SharedStack)
            .build()
            .unwrap();
        assert_eq!(cfg.hardening_of("lwip"), Hardening::FIG6_BUNDLE);
        assert_eq!(cfg.hardening_of("uksched"), Hardening::NONE);
        assert_eq!(cfg.data_sharing(), DataSharing::SharedStack);
        assert_eq!(cfg.data_sharing_of(0), DataSharing::SharedStack);
        assert_eq!(cfg.data_sharing_of(1), DataSharing::SharedStack);
        assert_eq!(cfg.dominant_mechanism(), Mechanism::IntelMpk);
    }

    #[test]
    fn per_compartment_profiles_parse_and_display() {
        let text = "\
data_sharing: heap-conversion
allocator: lea
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
    data_sharing: shared-stack
    allocator: bump
libraries:
- lwip: comp2
";
        let cfg = SafetyConfig::parse_str(text).unwrap();
        assert_eq!(cfg.default_data_sharing, DataSharing::HeapConversion);
        assert_eq!(cfg.default_allocator, Some(HeapKind::Lea));
        assert_eq!(cfg.data_sharing_of(0), DataSharing::HeapConversion);
        assert_eq!(cfg.data_sharing_of(1), DataSharing::SharedStack);
        assert_eq!(cfg.allocator_of(0), Some(HeapKind::Lea));
        assert_eq!(cfg.allocator_of(1), Some(HeapKind::Bump));
        assert_eq!(cfg.data_sharing(), DataSharing::HeapConversion);
        let p1 = cfg.profile_of(1);
        assert_eq!(p1.data_sharing, DataSharing::SharedStack);
        assert_eq!(p1.allocator, HeapKind::Bump);
        // Display emits the profile keys and reparses to the same config.
        let back = SafetyConfig::parse_str(&cfg.to_string()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn budgets_parse_resolve_and_roundtrip() {
        let text = "\
budget: cycles=1000000
compartments:
- comp1:
    mechanism: intel-mpk
    default: True
- comp2:
    mechanism: intel-mpk
    budget: heap=2097152,crossings=4096
libraries:
- lwip: comp2
";
        let cfg = SafetyConfig::parse_str(text).unwrap();
        assert_eq!(
            cfg.default_budget,
            Some(ResourceBudget {
                heap_bytes: None,
                cycles: Some(1_000_000),
                crossings: None,
            })
        );
        // comp1 inherits the image default; comp2 overrides it whole.
        assert_eq!(cfg.budget_of(0).cycles, Some(1_000_000));
        assert_eq!(cfg.budget_of(1).heap_bytes, Some(2_097_152));
        assert_eq!(cfg.budget_of(1).cycles, None);
        assert_eq!(cfg.budget_of(1).crossings, Some(4096));
        assert!(cfg.any_budget());
        assert_eq!(cfg.profile_of(1).budget, cfg.budget_of(1));
        let back = SafetyConfig::parse_str(&cfg.to_string()).unwrap();
        assert_eq!(cfg, back);
        // Budget-free configs report so (the hot-path fast check).
        assert!(!SafetyConfig::none().any_budget());
        // Malformed budgets are rejected.
        let bad = "compartments:\n- c1:\n    default: True\n    budget: heap=lots\n";
        assert!(SafetyConfig::parse_str(bad).is_err());
    }

    #[test]
    fn rejects_unknown_profile_values() {
        let bad = "compartments:\n- c1:\n    default: True\n    data_sharing: mmap\n";
        assert!(SafetyConfig::parse_str(bad).is_err());
        let bad = "compartments:\n- c1:\n    default: True\n    allocator: slab\n";
        assert!(SafetyConfig::parse_str(bad).is_err());
        let bad = "allocator: slab\ncompartments:\n- c1:\n    default: True\n";
        assert!(SafetyConfig::parse_str(bad).is_err());
    }

    #[test]
    fn global_defaults_resolve_into_unset_compartments() {
        let cfg = SafetyConfig::builder()
            .compartment(CompartmentSpec::new("c1", Mechanism::IntelMpk).default_compartment())
            .compartment(
                CompartmentSpec::new("c2", Mechanism::IntelMpk)
                    .with_data_sharing(DataSharing::SharedStack),
            )
            .data_sharing(DataSharing::HeapConversion)
            .build()
            .unwrap();
        assert_eq!(cfg.data_sharing_of(0), DataSharing::HeapConversion);
        assert_eq!(cfg.data_sharing_of(1), DataSharing::SharedStack);
        // No allocator anywhere: the toolchain decides.
        assert_eq!(cfg.allocator_of(0), None);
        assert_eq!(cfg.profile_of(0).allocator, HeapKind::Tlsf);
    }

    #[test]
    fn none_config_is_single_flat_domain() {
        let cfg = SafetyConfig::none();
        assert_eq!(cfg.compartment_count(), 1);
        assert_eq!(cfg.dominant_mechanism(), Mechanism::None);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\ncompartments:\n- c1:   # inline comment\n    default: True\n\n";
        assert!(SafetyConfig::parse_str(text).is_ok());
    }

    #[test]
    fn display_parse_roundtrip() {
        let cfg = SafetyConfig::parse_str(PAPER_SNIPPET).unwrap();
        let back = SafetyConfig::parse_str(&cfg.to_string()).unwrap();
        assert_eq!(cfg, back);
    }
}
