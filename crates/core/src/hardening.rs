//! Per-component software hardening (§4.5).
//!
//! FlexOS can enable or disable software hardening mechanisms per
//! component: CFI, address sanitization (KASan), undefined-behaviour
//! sanitization (UBSan), and stack protector. Isolating an unhardened
//! component from hardened ones preserves the hardened components'
//! guarantees — that interplay is the whole point of the Figure 6
//! configuration sweep.

use std::fmt;

/// A set of software hardening mechanisms applied to one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Hardening {
    /// Control-flow integrity (indirect-call target checks).
    pub cfi: bool,
    /// Kernel address sanitizer (redzones, quarantine, shadow checks).
    pub kasan: bool,
    /// Undefined-behaviour sanitizer (trapping arithmetic).
    pub ubsan: bool,
    /// Stack-smashing protector (canaries).
    pub stack_protector: bool,
}

impl Hardening {
    /// No hardening at all.
    pub const NONE: Hardening = Hardening {
        cfi: false,
        kasan: false,
        ubsan: false,
        stack_protector: false,
    };

    /// The paper's Figure 6 hardening bundle: stack protector + UBSan +
    /// KASan toggled together per component (§6.1).
    pub const FIG6_BUNDLE: Hardening = Hardening {
        cfi: false,
        kasan: true,
        ubsan: true,
        stack_protector: true,
    };

    /// `true` if no mechanism is enabled.
    pub(crate) fn is_none(&self) -> bool {
        *self == Self::NONE
    }

    /// Union of two hardening sets.
    pub(crate) fn union(&self, other: &Hardening) -> Hardening {
        Hardening {
            cfi: self.cfi || other.cfi,
            kasan: self.kasan || other.kasan,
            ubsan: self.ubsan || other.ubsan,
            stack_protector: self.stack_protector || other.stack_protector,
        }
    }

    /// Parses one mechanism name as used in configuration files
    /// (`cfi`, `asan`/`kasan`, `ubsan`, `stack-protector`/`sp`).
    pub(crate) fn parse_mechanism(name: &str) -> Option<Hardening> {
        let mut h = Hardening::NONE;
        match name.trim().to_ascii_lowercase().as_str() {
            "cfi" => h.cfi = true,
            "asan" | "kasan" => h.kasan = true,
            "ubsan" => h.ubsan = true,
            "stack-protector" | "stack_protector" | "sp" => h.stack_protector = true,
            _ => return None,
        }
        Some(h)
    }
}

impl fmt::Display for Hardening {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        let mut parts = Vec::new();
        if self.cfi {
            parts.push("cfi");
        }
        if self.kasan {
            parts.push("kasan");
        }
        if self.ubsan {
            parts.push("ubsan");
        }
        if self.stack_protector {
            parts.push("stack-protector");
        }
        f.write_str(&parts.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_enables_both_sides() {
        let cfi = Hardening {
            cfi: true,
            ..Hardening::NONE
        };
        let kasan = Hardening {
            kasan: true,
            ..Hardening::NONE
        };
        assert_eq!(
            cfi.union(&kasan),
            Hardening {
                cfi: true,
                kasan: true,
                ..Hardening::NONE
            }
        );
    }

    #[test]
    fn parse_mechanisms() {
        assert!(Hardening::parse_mechanism("cfi").unwrap().cfi);
        assert!(Hardening::parse_mechanism("asan").unwrap().kasan);
        assert!(Hardening::parse_mechanism("KASAN").unwrap().kasan);
        assert!(Hardening::parse_mechanism("ubsan").unwrap().ubsan);
        assert!(
            Hardening::parse_mechanism("stack-protector")
                .unwrap()
                .stack_protector
        );
        assert!(Hardening::parse_mechanism("rust").is_none());
    }

    #[test]
    fn display_lists_mechanisms() {
        assert_eq!(Hardening::NONE.to_string(), "none");
        assert_eq!(
            Hardening {
                cfi: true,
                ..Hardening::FIG6_BUNDLE
            }
            .to_string(),
            "cfi+kasan+ubsan+stack-protector"
        );
        assert_eq!(
            Hardening::FIG6_BUNDLE.to_string(),
            "kasan+ubsan+stack-protector"
        );
    }
}
