//! Per-compartment VM images (§4.2).
//!
//! "FlexOS' EPT backend generates one VM image per compartment, each
//! containing the TCB (boot code, scheduler, memory manager, backend
//! runtime) and the compartment's libraries." This module describes those
//! images for the build report and tests.

use flexos_core::compartment::CompartmentId;
use flexos_core::config::SafetyConfig;
use flexos_core::tcb::TCB_MEMBERS;

/// Description of one generated VM image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmImage {
    /// The compartment this VM hosts.
    pub compartment: CompartmentId,
    /// Compartment name.
    pub name: String,
    /// The duplicated TCB members every VM carries (§4.2).
    pub tcb_members: Vec<String>,
    /// Libraries placed in this VM by the configuration.
    pub libraries: Vec<String>,
    /// The vCPU the VM runs on (one per compartment, §4.2).
    pub vcpu: u32,
}

impl VmImage {
    /// Generates the VM image set for a configuration: one per
    /// compartment, each with a self-contained TCB.
    pub fn generate(config: &SafetyConfig) -> Vec<VmImage> {
        config
            .compartments
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let libraries = config
                    .libraries
                    .iter()
                    .filter(|(_, comp)| comp == &spec.name)
                    .map(|(lib, _)| lib.to_string())
                    .collect();
                VmImage {
                    compartment: CompartmentId(i as u8),
                    name: spec.name.to_string(),
                    tcb_members: TCB_MEMBERS.iter().map(|s| s.to_string()).collect(),
                    libraries,
                    vcpu: i as u32,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_core::compartment::{CompartmentSpec, Mechanism};

    #[test]
    fn one_vm_per_compartment_each_with_tcb() {
        let config = SafetyConfig::builder()
            .compartment(CompartmentSpec::new("main", Mechanism::VmEpt).default_compartment())
            .compartment(CompartmentSpec::new("fs", Mechanism::VmEpt))
            .place("ramfs", "fs")
            .place("vfscore", "fs")
            .build()
            .unwrap();
        let vms = VmImage::generate(&config);
        assert_eq!(vms.len(), 2);
        for vm in &vms {
            assert_eq!(vm.tcb_members.len(), 5, "every VM carries the full TCB");
        }
        assert_eq!(vms[1].libraries, vec!["ramfs", "vfscore"]);
        assert_eq!(vms[0].vcpu, 0);
        assert_eq!(vms[1].vcpu, 1);
    }
}
