//! The MPK backend's [`IsolationBackend`] implementation.
//!
//! [`MpkBackend::validate`] is the build-time half of §4.1's PKRU
//! protection: the key-count limit, and the W⊕X scan of every linked
//! component's text. The scan's verdict belongs to the text, and a
//! component's text does not depend on the configuration it is linked
//! into, so exploring thousands of configurations of one component set
//! scans each text once per thread (the memo and its purity argument are
//! in [`crate::wxorx`]). Before that, the scan was three quarters of an
//! MPK image's build: 747 of 1004 µs for the seven-component Redis image.

use flexos_core::backend::IsolationBackend;
use flexos_core::compartment::{CompartmentId, DataSharing, Mechanism};
use flexos_core::component::ComponentRegistry;
use flexos_core::config::SafetyConfig;
use flexos_core::env::Env;
use flexos_core::gate::GateKind;
use flexos_core::image::MPK_MAX_COMPARTMENTS;
use flexos_machine::fault::Fault;

use crate::wxorx::{scan_component, scan_text};

/// Synthetic text bytes scanned per component (stand-in for its real
/// `.text` section; see [`crate::wxorx::synthesize_text`]). Together with
/// the component's name, this is the scan memo's key.
const TEXT_BYTES_PER_COMPONENT: usize = 64 * 1024;

/// The Intel MPK backend (§4.1): 1400 LoC of the prototype's 3250-LoC
/// kernel patch.
#[derive(Debug, Default)]
pub struct MpkBackend {
    /// Extra text blobs to scan, pushed by this module's tests ("what if
    /// a component smuggled a wrpkru?"). Scanned on every build: they
    /// come from outside, so no earlier verdict covers them.
    extra_text: Vec<(String, Vec<u8>)>,
}

impl MpkBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IsolationBackend for MpkBackend {
    fn name(&self) -> &str {
        "intel-mpk"
    }

    fn mechanism(&self) -> Mechanism {
        Mechanism::IntelMpk
    }

    fn gate_kind(&self, sharing: DataSharing) -> GateKind {
        // `sharing` is the *callee* compartment's profile axis: the
        // light gate is only safe when the callee shares its whole
        // stack; DSS and heap conversion both need the full gate's
        // stack switch + register scrub.
        match sharing {
            DataSharing::SharedStack => GateKind::MpkLight,
            DataSharing::Dss | DataSharing::HeapConversion => GateKind::MpkDss,
        }
    }

    fn validate(&self, config: &SafetyConfig, registry: &ComponentRegistry) -> Result<(), Fault> {
        // Architectural limit: 16 keys minus shared minus default (§4.1).
        if config.compartment_count() > MPK_MAX_COMPARTMENTS {
            return Err(Fault::InvalidConfig {
                reason: format!(
                    "MPK offers 16 protection keys; at most {MPK_MAX_COMPARTMENTS} \
                     compartments are supported"
                ),
            });
        }
        // W^X static scan: no component text may write PKRU (§4.1). A
        // component's text is the same in every image that links it, so
        // its scan runs once per thread (`scan_component`); injected
        // blobs come from outside and are scanned on every build.
        for (_, component) in registry.iter() {
            scan_component(&component.name, TEXT_BYTES_PER_COMPONENT)?;
        }
        for (name, text) in &self.extra_text {
            scan_text(name, text)?;
        }
        Ok(())
    }

    fn tcb_loc(&self) -> u32 {
        1400
    }

    fn on_thread_create(&self, env: &Env, _compartment: CompartmentId) {
        // §3.2: "the MPK backend leverages the thread creation hook offered
        // by the scheduler to switch a newly created thread to the right
        // protection domain" — one wrpkru.
        env.machine().clock().advance(env.machine().cost().wrpkru);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wxorx::{forge_gadget, remembered, WRPKRU_OPCODE};
    use flexos_core::compartment::CompartmentSpec;
    use flexos_core::component::{Component, ComponentKind};

    fn config(n: usize) -> SafetyConfig {
        let mut b = SafetyConfig::builder();
        for i in 0..n {
            let mut spec = CompartmentSpec::new(format!("c{i}"), Mechanism::IntelMpk);
            if i == 0 {
                spec = spec.default_compartment();
            }
            b = b.compartment(spec);
        }
        b.build().unwrap()
    }

    #[test]
    fn accepts_up_to_14_compartments() {
        let backend = MpkBackend::new();
        let registry = ComponentRegistry::new();
        assert!(backend.validate(&config(14), &registry).is_ok());
        assert!(backend.validate(&config(15), &registry).is_err());
    }

    #[test]
    fn wx_scan_covers_registered_components() {
        let backend = MpkBackend::new();
        let mut registry = ComponentRegistry::new();
        registry
            .register(Component::new("lwip", ComponentKind::Kernel))
            .unwrap();
        assert!(backend.validate(&config(2), &registry).is_ok());
    }

    #[test]
    fn rogue_wrpkru_vetoes_the_build() {
        let mut backend = MpkBackend::new();
        let mut evil = vec![0u8; 128];
        evil[10..13].copy_from_slice(&WRPKRU_OPCODE);
        backend.extra_text.push(("libevil".to_string(), evil));
        let err = backend
            .validate(&config(2), &ComponentRegistry::new())
            .unwrap_err();
        assert!(matches!(err, Fault::WxViolation { .. }));
    }

    fn registry(names: &[&'static str]) -> ComponentRegistry {
        let mut registry = ComponentRegistry::new();
        for name in names {
            registry
                .register(Component::new(*name, ComponentKind::Kernel))
                .unwrap();
        }
        registry
    }

    #[test]
    fn injected_gadget_vetoes_every_build_whatever_the_memo_holds() {
        // A clean build leaves ("lwip", 64 KiB) in this thread's memo.
        let lwip = registry(&["lwip"]);
        assert!(MpkBackend::new().validate(&config(2), &lwip).is_ok());
        assert!(remembered("lwip", TEXT_BYTES_PER_COMPONENT));

        // The worst case for a memo: an injected blob with a remembered
        // name and length, and a gadget inside.
        let mut backend = MpkBackend::new();
        backend.extra_text.push((
            "lwip".to_string(),
            forge_gadget("lwip", TEXT_BYTES_PER_COMPONENT),
        ));
        backend
            .extra_text
            .push(("libevil".to_string(), forge_gadget("libevil", 4096)));
        for _ in 0..3 {
            let err = backend.validate(&config(2), &lwip).unwrap_err();
            assert!(
                matches!(&err, Fault::WxViolation { component } if component == "lwip"),
                "got {err}"
            );
        }
        // Failing builds left nothing behind, and a backend without the
        // blobs still builds.
        assert!(!remembered("libevil", 4096));
        assert!(MpkBackend::new().validate(&config(2), &lwip).is_ok());
    }

    #[test]
    fn a_component_with_a_new_name_is_scanned() {
        let backend = MpkBackend::new();
        backend.validate(&config(2), &registry(&["lwip"])).unwrap();
        assert!(remembered("lwip", TEXT_BYTES_PER_COMPONENT));
        assert!(!remembered("uksched", TEXT_BYTES_PER_COMPONENT));
        backend
            .validate(&config(2), &registry(&["lwip", "uksched"]))
            .unwrap();
        assert!(remembered("uksched", TEXT_BYTES_PER_COMPONENT));
        // The verdict is for that text only: same name, other length.
        assert!(!remembered("uksched", TEXT_BYTES_PER_COMPONENT / 2));
    }

    #[test]
    fn gate_flavour_follows_data_sharing() {
        let b = MpkBackend::new();
        assert_eq!(b.gate_kind(DataSharing::Dss), GateKind::MpkDss);
        assert_eq!(b.gate_kind(DataSharing::SharedStack), GateKind::MpkLight);
        assert_eq!(b.gate_kind(DataSharing::HeapConversion), GateKind::MpkDss);
    }

    #[test]
    fn tcb_contribution_matches_prototype() {
        // §4: "1400 for the MPK backend".
        assert_eq!(MpkBackend::new().tcb_loc(), 1400);
    }
}
