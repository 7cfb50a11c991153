//! Per-compartment thread stacks and the stack registry (§4.1).
//!
//! The full MPK gate uses one call stack per thread per compartment; each
//! compartment's *stack registry* maps threads to their local stack so the
//! gate can switch stacks fast. With the DSS strategy the stack region is
//! doubled and the upper half is re-keyed into the shared domain at
//! creation time.

use std::collections::BTreeMap;
use std::rc::Rc;

use flexos_core::compartment::{CompartmentId, DataSharing};
use flexos_core::env::Env;
use flexos_core::image::SHARED_KEY_INDEX;
use flexos_machine::addr::Addr;
use flexos_machine::fault::Fault;
use flexos_machine::key::ProtKey;
use flexos_machine::layout::{RegionKind, RegionName};

use crate::dss::{STACK_PAGES, STACK_SIZE};
use crate::thread::ThreadId;

/// One thread stack inside one compartment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadStack {
    /// Base of the (possibly doubled) stack region.
    pub base: Addr,
    /// `true` if the region is doubled with a DSS upper half.
    pub has_dss: bool,
}

/// Maps `(compartment, thread)` to that thread's local stack (§4.1).
#[derive(Debug, Default)]
pub(crate) struct StackRegistry {
    stacks: BTreeMap<(CompartmentId, ThreadId), ThreadStack>,
    /// Microreboot generation per compartment: bumped by
    /// [`StackRegistry::reset_compartment`], suffixed onto region names
    /// so replacement stacks are distinguishable in the memory map.
    /// Empty (and names unchanged) on images that never reboot.
    epochs: BTreeMap<CompartmentId, u32>,
}

impl StackRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Allocates (maps) a stack for `thread` in `compartment`, applying
    /// **that compartment's** data-sharing profile (stack placement is a
    /// boundary-local decision since the per-compartment profile
    /// redesign): under [`DataSharing::Dss`] the region is doubled and
    /// its upper half re-keyed to the shared domain; under
    /// [`DataSharing::SharedStack`] the whole stack is placed in the
    /// shared domain (the "-light" configuration). A single image may
    /// mix all three layouts, one per compartment.
    ///
    /// # Errors
    ///
    /// Address-space exhaustion faults from the machine.
    pub(crate) fn allocate(
        &mut self,
        env: &Env,
        compartment: CompartmentId,
        thread: ThreadId,
    ) -> Result<ThreadStack, Fault> {
        if let Some(stack) = self.stacks.get(&(compartment, thread)) {
            return Ok(*stack);
        }
        let machine = env.machine();
        let dom = env.domain(compartment);
        let sharing = env.profile_of(compartment).data_sharing;
        let isolated = env.compartment_count() > 1;
        let shared_key = if isolated {
            ProtKey::new(SHARED_KEY_INDEX)?
        } else {
            ProtKey::DEFAULT
        };
        // Rebooted compartments re-map replacement stacks under an
        // epoch-suffixed name; epoch 0 (the common case) keeps the
        // original spelling so undisturbed images are byte-identical.
        let name = |layout| RegionName::Stack {
            owner: Rc::clone(&dom.name),
            thread: thread.0,
            layout,
            epoch: self.epochs.get(&compartment).copied().unwrap_or(0),
        };
        let stack = match sharing {
            DataSharing::Dss => {
                // Doubled stack: private lower half, shared DSS upper half
                // (Figure 4's layout).
                let region = machine.map_region_kind(
                    name("stack+dss"),
                    2 * STACK_PAGES,
                    dom.key,
                    RegionKind::Stack,
                )?;
                machine.memory_mut().set_key(
                    region.base() + STACK_SIZE,
                    STACK_PAGES,
                    shared_key,
                )?;
                ThreadStack {
                    base: region.base(),
                    has_dss: true,
                }
            }
            DataSharing::SharedStack => {
                let region = machine.map_region_kind(
                    name("stack-shared"),
                    STACK_PAGES,
                    shared_key,
                    RegionKind::Stack,
                )?;
                ThreadStack {
                    base: region.base(),
                    has_dss: false,
                }
            }
            DataSharing::HeapConversion => {
                let region = machine.map_region_kind(
                    name("stack"),
                    STACK_PAGES,
                    dom.key,
                    RegionKind::Stack,
                )?;
                ThreadStack {
                    base: region.base(),
                    has_dss: false,
                }
            }
        };
        self.stacks.insert((compartment, thread), stack);
        Ok(stack)
    }

    /// Number of stacks registered.
    pub(crate) fn len(&self) -> usize {
        self.stacks.len()
    }

    /// Drops every stack registered for `compartment` and bumps its
    /// microreboot epoch: the next [`StackRegistry::allocate`] maps
    /// fresh, epoch-suffixed regions — the "reinitialized stacks" step
    /// of a microreboot. The superseded regions stay reserved in the
    /// machine layout (a microreboot remaps rather than reclaims
    /// simulated address space). Returns how many stacks were dropped.
    pub(crate) fn reset_compartment(&mut self, compartment: CompartmentId) -> usize {
        let before = self.stacks.len();
        self.stacks.retain(|(c, _), _| *c != compartment);
        *self.epochs.entry(compartment).or_insert(0) += 1;
        before - self.stacks.len()
    }
}
