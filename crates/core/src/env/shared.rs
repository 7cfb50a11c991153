//! Shared data: `__shared` annotated variables, checked against their
//! whitelists (§3.1), and stack variables shared across compartments
//! under the current compartment's data-sharing strategy (Figure 11a).

use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;

use super::Env;
use crate::compartment::DataSharing;
use crate::component::{ComponentId, SharedVar};

/// Placement of one `__shared` annotated variable after build: where it
/// landed and which annotation it is. Name, whitelist and region text are
/// read through the annotation (`Env::shared_var_decl`) and the layout
/// ([`Env::shared_var_region`]) when asked for, not copied per image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedVarPlacement {
    /// Simulated address of the variable.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Component that owns (declared) the variable.
    pub owner: ComponentId,
    /// Index of the annotation among the owner's `shared_vars`.
    pub var: u16,
    /// For a stack variable shared across compartments: the owner's
    /// data-sharing strategy, under which its shared-heap slot is used.
    pub shadow: Option<DataSharing>,
}

/// Token for one shared stack variable (see [`Env::stack_share_alloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackShare {
    /// Backed by the DSS or a shared stack — nothing to release.
    Stack,
    /// Converted to a shared-heap allocation at this address.
    Heap(Addr),
}

impl Env {
    /// Resolves a `__shared` variable by its `component::variable` name,
    /// enforcing its whitelist: only the owner and whitelisted components
    /// may touch it (§3.1). The name is resolved through the registry
    /// here, on lookup; the image keeps no name-keyed table.
    ///
    /// # Errors
    ///
    /// [`Fault::NotWhitelisted`] when the current component is not allowed;
    /// [`Fault::InvalidConfig`] for unknown variable names.
    pub fn shared_var(&self, name: &str) -> Result<&SharedVarPlacement, Fault> {
        let placement = name
            .split_once("::")
            .and_then(|(component, var)| {
                let owner = self.registry.lookup(component)?;
                let decls = &self.registry.get(owner).shared_vars;
                let index = decls.iter().position(|decl| decl.name == var)?;
                Some(&self.shared_vars[self.shared_var_base[owner.0 as usize] + index])
            })
            .ok_or_else(|| Fault::InvalidConfig {
                reason: format!("unknown shared variable `{name}`"),
            })?;
        let me = self.cur.get();
        let my_name = &self.registry.get(me).name;
        let whitelist = self.shared_var_decl(placement).whitelist;
        if placement.owner == me || whitelist.contains(&my_name.as_ref()) {
            Ok(placement)
        } else {
            Err(Fault::NotWhitelisted {
                variable: name.to_string(),
                compartment: my_name.to_string(),
            })
        }
    }

    /// Shared-variable placements as `(component, variable, region)`
    /// names, in registration order.
    pub fn shared_var_names(&self) -> Vec<(String, String, String)> {
        self.shared_vars
            .iter()
            .map(|placement| {
                (
                    self.registry.get(placement.owner).name.to_string(),
                    self.shared_var_decl(placement).name.to_string(),
                    self.shared_var_region(placement),
                )
            })
            .collect()
    }

    /// The annotation a placement belongs to (name, storage, whitelist).
    pub(crate) fn shared_var_decl(&self, placement: &SharedVarPlacement) -> &SharedVar {
        &self.registry.get(placement.owner).shared_vars[placement.var as usize]
    }

    /// Name of the region a variable was placed in, as the transform
    /// report spells it: the mapped region holding its address, with the
    /// data-sharing label for a cross-compartment stack variable.
    pub fn shared_var_region(&self, placement: &SharedVarPlacement) -> String {
        let layout = self.machine.layout();
        let region = layout
            .find(placement.addr)
            .expect("a placed variable lies in a mapped region");
        let label = match placement.shadow {
            None => return region.name().to_string(),
            Some(DataSharing::Dss) => "dss-shadow",
            Some(DataSharing::HeapConversion) => "heap-conversion",
            Some(DataSharing::SharedStack) => "stack-window",
        };
        format!("{} ({label})", region.name())
    }

    /// Models allocating one shared stack variable under the *current
    /// compartment's* data-sharing strategy, returning the cycles it
    /// cost: DSS and shared
    /// stacks are compiler bookkeeping (stack speed); heap conversion pays
    /// a full shared-heap malloc (§4.1 "Data Shadow Stacks", Figure 11a).
    ///
    /// # Errors
    ///
    /// [`Fault::ResourceExhausted`] if heap conversion exhausts the shared
    /// heap.
    pub fn stack_share_alloc(&self, size: u64) -> Result<StackShare, Fault> {
        let cost = self.machine.cost();
        let dom = self.compartment_of(self.cur.get());
        match self.profiles[dom.0 as usize].data_sharing {
            DataSharing::Dss | DataSharing::SharedStack => {
                self.machine.clock().advance(cost.stack_alloc);
                Ok(StackShare::Stack)
            }
            DataSharing::HeapConversion => {
                let addr = self.malloc_shared(size)?;
                Ok(StackShare::Heap(addr))
            }
        }
    }

    /// Releases a [`StackShare`] (frees the heap conversion, no-op for
    /// stack-backed sharing).
    ///
    /// # Errors
    ///
    /// [`Fault::BadFree`] if a heap-converted variable is released twice.
    pub fn stack_share_release(&self, share: StackShare) -> Result<(), Fault> {
        match share {
            StackShare::Stack => Ok(()),
            StackShare::Heap(addr) => self.free_shared(addr),
        }
    }
}
