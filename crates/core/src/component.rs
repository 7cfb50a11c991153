//! Components (micro-libraries) and their porting annotations.
//!
//! FlexOS treats Unikraft's micro-libraries as the minimal isolation
//! granularity (§2.2): each *component* — the scheduler, the TCP/IP stack,
//! the filesystem, an application — can be placed in any compartment.
//! Porting a component means (1) letting the toolchain rewrite its
//! cross-library calls into abstract gates and (2) manually annotating the
//! data it shares with other components (`__shared(lib)` in the paper's C
//! prototype, [`SharedVar`] here). Table 1 of the paper reports exactly
//! these annotation counts; [`PortingPatch`] carries the patch-size
//! metadata so the Table 1 bench can regenerate the numbers.

use std::borrow::Cow;
use std::fmt;

/// Index of a registered component within an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u16);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// Storage class of an annotated shared variable; each class gets a
/// different data-sharing strategy at build time (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarStorage {
    /// Statically allocated (placed in a shared section).
    Static,
    /// Dynamically allocated on a heap (placed on the shared heap).
    Heap,
    /// Stack-allocated (DSS, stack-to-heap conversion, or shared stack).
    Stack,
}

/// One `__shared(...)` annotation: a variable shared with a whitelist of
/// other components (§3.1 "Data Ownership Approach"). Annotations are
/// source text, so a descriptor borrows its names from the program:
/// describing a component allocates no string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedVar {
    /// Symbol name, e.g. `errmsg`.
    pub name: &'static str,
    /// Size in bytes.
    pub size: u64,
    /// Storage class, which picks the sharing strategy.
    pub storage: VarStorage,
    /// Names of components allowed to access the variable (ACL-style
    /// whitelist); the owner is implicitly allowed.
    pub whitelist: &'static [&'static str],
}

impl SharedVar {
    /// Convenience constructor for a static shared variable.
    pub fn stat(name: &'static str, size: u64, whitelist: &'static [&'static str]) -> Self {
        SharedVar {
            name,
            size,
            storage: VarStorage::Static,
            whitelist,
        }
    }

    /// Convenience constructor for a heap-allocated shared variable.
    pub fn heap(name: &'static str, size: u64, whitelist: &'static [&'static str]) -> Self {
        SharedVar {
            storage: VarStorage::Heap,
            ..Self::stat(name, size, whitelist)
        }
    }

    /// Convenience constructor for a stack-allocated shared variable.
    pub fn stack(name: &'static str, size: u64, whitelist: &'static [&'static str]) -> Self {
        SharedVar {
            storage: VarStorage::Stack,
            ..Self::stat(name, size, whitelist)
        }
    }
}

/// Patch-size metadata from porting a component (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortingPatch {
    /// Lines added by the port (including automatic gate replacements).
    pub added: u32,
    /// Lines removed.
    pub removed: u32,
}

impl fmt::Display for PortingPatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{} / -{}", self.added, self.removed)
    }
}

/// Broad classification of a component, used by the TCB analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Core kernel library that is part of the trusted computing base
    /// (boot, memory manager, scheduler, interrupt handling, backend).
    CoreTcb,
    /// Ordinary kernel library (network stack, filesystem, time, ...).
    Kernel,
    /// User-level library (libc, TLS, ...).
    UserLib,
    /// Application code.
    App,
}

/// A ported component: name, annotations, entry points, patch metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component (micro-library) name, e.g. `"lwip"`.
    pub name: Cow<'static, str>,
    /// Classification for TCB accounting.
    pub kind: ComponentKind,
    /// Manually annotated shared variables (Table 1 "Shared vars").
    pub shared_vars: Vec<SharedVar>,
    /// Legal gate entry points: functions other components may call.
    pub entry_points: Vec<&'static str>,
    /// Patch-size metadata (Table 1 "Patch size").
    pub patch: PortingPatch,
}

impl Component {
    /// Creates a component with no annotations yet.
    pub fn new(name: impl Into<Cow<'static, str>>, kind: ComponentKind) -> Self {
        Component {
            name: name.into(),
            kind,
            shared_vars: Vec::new(),
            entry_points: Vec::new(),
            patch: PortingPatch::default(),
        }
    }

    /// Adds several shared-variable annotations.
    pub fn with_shared_vars(mut self, vars: impl IntoIterator<Item = SharedVar>) -> Self {
        self.shared_vars.extend(vars);
        self
    }

    /// Declares legal entry points.
    pub fn with_entry_points(mut self, entries: &[&'static str]) -> Self {
        self.entry_points.extend_from_slice(entries);
        self
    }

    /// Sets the porting patch metadata.
    pub fn with_patch(mut self, added: u32, removed: u32) -> Self {
        self.patch = PortingPatch { added, removed };
        self
    }

    /// Number of shared-variable annotations (the Table 1 column).
    pub fn shared_var_count(&self) -> usize {
        self.shared_vars.len()
    }
}

/// Ordered registry of the components linked into an image.
#[derive(Debug, Default, Clone)]
pub struct ComponentRegistry {
    components: Vec<Component>,
}

impl ComponentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component, returning its id.
    ///
    /// # Errors
    ///
    /// Returns the duplicate name if a component with the same name exists.
    pub fn register(&mut self, component: Component) -> Result<ComponentId, String> {
        if self.lookup(&component.name).is_some() {
            return Err(component.name.into_owned());
        }
        let id = ComponentId(self.components.len() as u16);
        self.components.push(component);
        Ok(id)
    }

    /// Finds a component id by name.
    pub(crate) fn lookup(&self, name: &str) -> Option<ComponentId> {
        self.components
            .iter()
            .position(|c| c.name == name)
            .map(|i| ComponentId(i as u16))
    }

    /// Returns the component for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn get(&self, id: ComponentId) -> &Component {
        &self.components[id.0 as usize]
    }

    /// Iterates `(id, component)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.components
            .iter()
            .enumerate()
            .map(|(i, c)| (ComponentId(i as u16), c))
    }

    /// Number of registered components.
    pub(crate) fn len(&self) -> usize {
        self.components.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lwip() -> Component {
        Component::new("lwip", ComponentKind::Kernel)
            .with_shared_vars([
                SharedVar::stat("netif_list", 64, &["uksched"]),
                SharedVar::heap("pbuf_pool", 4096, &["libc", "redis"]),
            ])
            .with_entry_points(&["lwip_recv", "lwip_send"])
            .with_patch(542, 275)
    }

    #[test]
    fn component_builder_collects_annotations() {
        let c = lwip();
        assert_eq!(c.shared_var_count(), 2);
        assert_eq!(c.patch.to_string(), "+542 / -275");
        assert_eq!(c.entry_points.len(), 2);
    }

    #[test]
    fn registry_assigns_sequential_ids() {
        let mut r = ComponentRegistry::new();
        let a = r.register(Component::new("a", ComponentKind::App)).unwrap();
        let b = r
            .register(Component::new("b", ComponentKind::Kernel))
            .unwrap();
        assert_eq!(a, ComponentId(0));
        assert_eq!(b, ComponentId(1));
        assert_eq!(r.lookup("b"), Some(b));
        assert_eq!(r.get(a).name, "a");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = ComponentRegistry::new();
        r.register(Component::new("x", ComponentKind::App)).unwrap();
        assert_eq!(
            r.register(Component::new("x", ComponentKind::App)),
            Err("x".to_string())
        );
    }

    #[test]
    fn shared_var_constructors_set_storage() {
        assert_eq!(SharedVar::stat("s", 1, &[]).storage, VarStorage::Static);
        assert_eq!(SharedVar::heap("h", 1, &[]).storage, VarStorage::Heap);
        assert_eq!(SharedVar::stack("k", 1, &[]).storage, VarStorage::Stack);
    }
}
