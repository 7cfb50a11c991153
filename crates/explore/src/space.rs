//! The Figure 6 axes and the one configuration builder.
//!
//! Figure 6 varies the compartmentalization strategy (5 shapes over
//! {app, newlib, uksched, lwip}: Figure 8's A..E) × per-component
//! hardening (the stack-protector+UBSan+KASan bundle, on/off per
//! component) = 5 × 2⁴ = **80 configurations** per application, with
//! MPK + DSS + TLSF fixed. The space itself is
//! `flexos_sweep::SpaceSpec::fig6`; this module owns the axis types and
//! [`assigned_config`], the builder every sweep point goes through.

use flexos_alloc::HeapKind;
use flexos_core::compartment::{CompartmentSpec, DataSharing, Mechanism};
use flexos_core::config::SafetyConfig;
use flexos_core::hardening::Hardening;

/// The four Figure 6 components, in row order (the application slot is
/// filled with the concrete app name): bit `i` of a hardening mask
/// hardens row `i`.
pub const FIG6_COMPONENTS: [&str; 4] = ["app", "newlib", "uksched", "lwip"];

/// Compartment names of a generated configuration, by compartment index
/// (no strategy has more than three).
const COMPARTMENT_NAMES: [&str; 3] = ["comp1", "comp2", "comp3"];

/// The five compartmentalization strategies of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// A: everything in one compartment.
    Together,
    /// B: lwip alone (`app+newlib+sched / lwip`).
    SplitLwip,
    /// C: the scheduler alone (`app+newlib+lwip / sched`).
    SplitSched,
    /// D: app+newlib vs kernel (`app+newlib / sched+lwip`).
    SplitApp,
    /// E: three compartments (`app+newlib / sched / lwip`).
    ThreeWay,
}

impl Strategy {
    /// All five strategies, Figure 8 order.
    pub const ALL: [Strategy; 5] = [
        Strategy::Together,
        Strategy::SplitLwip,
        Strategy::SplitSched,
        Strategy::SplitApp,
        Strategy::ThreeWay,
    ];

    /// Compartment index of `FIG6_COMPONENTS[component]` under this
    /// strategy — the partition over `{app, newlib, uksched, lwip}`
    /// this strategy induces.
    ///
    /// # Panics
    ///
    /// Panics if `component >= 4`.
    pub const fn compartment_of(&self, component: usize) -> usize {
        match self {
            Strategy::Together => [0, 0, 0, 0][component],
            Strategy::SplitLwip => [0, 0, 0, 1][component],
            Strategy::SplitSched => [0, 0, 1, 0][component],
            Strategy::SplitApp => [0, 0, 1, 1][component],
            Strategy::ThreeWay => [0, 0, 1, 2][component],
        }
    }

    /// Number of compartments.
    pub fn compartments(&self) -> usize {
        match self {
            Strategy::Together => 1,
            Strategy::SplitLwip | Strategy::SplitSched | Strategy::SplitApp => 2,
            Strategy::ThreeWay => 3,
        }
    }

    /// Figure 8 label.
    pub fn label(&self, app: &str) -> String {
        match self {
            Strategy::Together => format!("{app}+newlib+sched+lwip"),
            Strategy::SplitLwip => format!("{app}+newlib+sched / lwip"),
            Strategy::SplitSched => format!("{app}+newlib+lwip / sched"),
            Strategy::SplitApp => format!("{app}+newlib / sched+lwip"),
            Strategy::ThreeWay => format!("{app}+newlib / sched / lwip"),
        }
    }

    /// `true` if `other`'s partition refines this one (same or more
    /// compartment cuts) — the safety assumption 1 of §5: every pair of
    /// components `other` keeps together, `self` keeps together too.
    /// One bit of a 5×5 table computed at compile time from
    /// [`Strategy::compartment_of`], so the partitions stay the one
    /// definition.
    #[inline]
    pub fn refined_by(&self, other: &Strategy) -> bool {
        COARSENINGS[*other as usize] >> (*self as usize) & 1 == 1
    }
}

/// The refinement relation over [`Strategy::ALL`] (declaration order):
/// bit `a` of `COARSENINGS[b]` is set when strategy `b`'s partition
/// refines strategy `a`'s — every pair of components `b` keeps together,
/// `a` keeps together too. Computed from [`Strategy::compartment_of`] at
/// compile time, so the partitions stay the one definition.
const COARSENINGS: [u8; 5] = {
    let mut table = [0u8; 5];
    let mut a = 0;
    while a < 5 {
        let mut b = 0;
        while b < 5 {
            let (coarse, fine) = (Strategy::ALL[a], Strategy::ALL[b]);
            let mut refines = true;
            let mut i = 1;
            while i < 4 {
                let mut j = 0;
                while j < i {
                    if fine.compartment_of(i) == fine.compartment_of(j)
                        && coarse.compartment_of(i) != coarse.compartment_of(j)
                    {
                        refines = false;
                    }
                    j += 1;
                }
                i += 1;
            }
            if refines {
                table[b] |= 1 << a;
            }
            b += 1;
        }
        a += 1;
    }
    table
};

/// Builds the configuration of one point of the (generalized)
/// Figure 6 space: `strategy`'s partition over compartments guarded by
/// `mechanism`, hardening mask `mask` over `FIG6_COMPONENTS` (the
/// application row resolving to `app`), and `profiles[c]` the
/// `(data-sharing, allocator)` profile of compartment `c`. Entries
/// beyond `strategy.compartments()` are ignored (they are the
/// don't-care slots a product-enumerated assignment space carries for
/// strategies with fewer compartments — the lazy engine's measurement
/// memo collapses such duplicates before anything is built).
///
/// Compartment 0's profile becomes the image default; another
/// compartment carries an explicit override only for an axis on which
/// it differs from compartment 0 — so a uniform assignment builds the
/// plain image-default config (the historical Figure 6 points are the
/// `(Dss, Tlsf)` case), and truly mixed images (shared-stack lwip next
/// to a DSS scheduler, TLSF next to Lea heaps) come out of the same
/// call. Every name is `'static` (the app's, the rows' and
/// `comp1`..`comp3`), so the config holds no string of its own.
///
/// Single-compartment strategies collapse the *mechanism* **and**
/// *data-sharing* axes to their defaults — an unsplit image has no
/// boundary for either to act on, so distinct axis values would mint
/// behaviourally near-identical points that tie in every §5 safety
/// dimension and break the poset's antisymmetry. The allocator axis
/// never collapses: heap behaviour is real even in a flat image
/// (Figure 10's baseline inversion is an allocator effect).
///
/// # Panics
///
/// Panics if `profiles` has fewer entries than the strategy has
/// compartments.
pub fn assigned_config(
    app: &'static str,
    strategy: Strategy,
    mechanism: Mechanism,
    mask: u8,
    profiles: &[(DataSharing, HeapKind)],
) -> SafetyConfig {
    let n = strategy.compartments();
    assert!(profiles.len() >= n, "one profile per compartment");
    let (sharing0, allocator0) = profiles[0];
    let (mechanism, default_sharing) = if n == 1 {
        (Mechanism::None, DataSharing::default())
    } else {
        (mechanism, sharing0)
    };
    let mut builder = SafetyConfig::builder()
        .data_sharing(default_sharing)
        .default_allocator(allocator0);
    for (c, &(sharing, allocator)) in profiles.iter().enumerate().take(n) {
        let mut spec = CompartmentSpec::new(COMPARTMENT_NAMES[c], mechanism);
        if c == 0 {
            spec = spec.default_compartment();
        }
        if sharing != sharing0 {
            spec = spec.with_data_sharing(sharing);
        }
        if allocator != allocator0 {
            spec = spec.with_allocator(allocator);
        }
        builder = builder.compartment(spec);
    }
    for (i, row) in FIG6_COMPONENTS.iter().enumerate() {
        let name = if *row == "app" { app } else { row };
        let comp = strategy.compartment_of(i);
        if comp > 0 {
            builder = builder.place(name, COMPARTMENT_NAMES[comp]);
        }
        if mask & (1 << i) != 0 {
            builder = builder.harden_component(name, Hardening::FIG6_BUNDLE);
        }
    }
    builder.build().expect("generated config is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_order_matches_figure_8_arrows() {
        use Strategy::*;
        // A is refined by everything.
        for s in Strategy::ALL {
            assert!(Together.refined_by(&s), "{s:?}");
            assert!((0..4).all(|i| s.compartment_of(i) < s.compartments()));
        }
        // E refines B, C, D.
        assert!(SplitLwip.refined_by(&ThreeWay));
        assert!(SplitSched.refined_by(&ThreeWay));
        assert!(SplitApp.refined_by(&ThreeWay));
        // B, C, D are pairwise incomparable.
        assert!(!SplitLwip.refined_by(&SplitSched));
        assert!(!SplitSched.refined_by(&SplitLwip));
        assert!(!SplitApp.refined_by(&SplitLwip));
        assert!(!SplitLwip.refined_by(&SplitApp));
        // Nothing (but E) refines E.
        assert!(!ThreeWay.refined_by(&SplitApp));
        assert!(ThreeWay.refined_by(&ThreeWay));
    }

    #[test]
    fn uniform_assignments_build_the_image_default_config() {
        // The `Display` text the former uniform-profile builder
        // produced for these three shapes, recorded before it was folded
        // into `assigned_config`: a uniform `profiles` slice carries no
        // per-compartment override, and an unsplit image collapses its
        // mechanism and data sharing (not its allocator) to the defaults.
        let cases: [(&str, Strategy, Mechanism, u8, DataSharing, HeapKind, &str); 3] = [
            (
                "redis",
                Strategy::Together,
                Mechanism::IntelMpk,
                0b0011,
                DataSharing::SharedStack,
                HeapKind::Lea,
                "allocator: lea\ncompartments:\n- comp1:\n    mechanism: none\n    \
                 default: True\nlibraries:\nhardening:\n- newlib: [kasan, ubsan, stack-protector]\n\
                 - redis: [kasan, ubsan, stack-protector]\n",
            ),
            (
                "nginx",
                Strategy::SplitApp,
                Mechanism::IntelMpk,
                0b0110,
                DataSharing::Dss,
                HeapKind::Tlsf,
                "allocator: tlsf\ncompartments:\n- comp1:\n    mechanism: intel-mpk\n    \
                 default: True\n- comp2:\n    mechanism: intel-mpk\nlibraries:\n\
                 - uksched: comp2\n- lwip: comp2\nhardening:\n- newlib: [kasan, ubsan, stack-protector]\n\
                 - uksched: [kasan, ubsan, stack-protector]\n",
            ),
            (
                "redis",
                Strategy::ThreeWay,
                Mechanism::VmEpt,
                0b1111,
                DataSharing::SharedStack,
                HeapKind::Lea,
                "data_sharing: shared-stack\nallocator: lea\ncompartments:\n- comp1:\n    \
                 mechanism: vm-ept\n    default: True\n- comp2:\n    mechanism: vm-ept\n\
                 - comp3:\n    mechanism: vm-ept\nlibraries:\n- uksched: comp2\n\
                 - lwip: comp3\nhardening:\n- lwip: [kasan, ubsan, stack-protector]\n- newlib: [kasan, ubsan, stack-protector]\n\
                 - redis: [kasan, ubsan, stack-protector]\n- uksched: [kasan, ubsan, stack-protector]\n",
            ),
        ];
        for (app, strategy, mechanism, mask, sharing, allocator, recorded) in cases {
            let cfg = assigned_config(app, strategy, mechanism, mask, &[(sharing, allocator); 3]);
            assert_eq!(cfg.to_string(), recorded, "{app} {strategy:?}");
        }
    }

    #[test]
    fn mixed_assignments_override_only_the_differing_axes() {
        let cfg = assigned_config(
            "redis",
            Strategy::ThreeWay,
            Mechanism::IntelMpk,
            0,
            &[
                (DataSharing::Dss, HeapKind::Tlsf),
                (DataSharing::SharedStack, HeapKind::Tlsf),
                (DataSharing::Dss, HeapKind::Lea),
            ],
        );
        assert_eq!(cfg.data_sharing_of(0), DataSharing::Dss);
        assert_eq!(cfg.data_sharing_of(1), DataSharing::SharedStack);
        assert_eq!(cfg.data_sharing_of(2), DataSharing::Dss);
        assert_eq!(cfg.profile_of(1).allocator, HeapKind::Tlsf);
        assert_eq!(cfg.profile_of(2).allocator, HeapKind::Lea);
        let text = cfg.to_string();
        assert_eq!(text.matches("    data_sharing:").count(), 1, "{text}");
        assert_eq!(text.matches("    allocator:").count(), 1, "{text}");
    }
}
