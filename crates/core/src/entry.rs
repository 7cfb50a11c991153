//! Interned entry points and resolved call targets.
//!
//! FlexOS specializes every abstract gate at image-build time (§3.1); the
//! runtime analogue is that everything *string-shaped* about a gate is
//! resolved when [`crate::image::ImageBuilder::build`] runs, never per
//! call. This module provides the pieces:
//!
//! * [`EntryId`] — a dense interned handle for an entry-point name. The
//!   toolchain interns every registered entry point while building the
//!   image; unknown names encountered later (illegal-call attempts) are
//!   interned on first sight so faults can still name them.
//! * [`EntryTable`] — the image-wide intern table plus one dense bitset
//!   per compartment recording which entries are legal there (the gates'
//!   CFI property). The legality check on the call hot path is two index
//!   operations and a bit test — no hashing, no allocation. Registered
//!   names are borrowed from the component descriptors and the name → id
//!   map is ordered, so building the table copies no string and takes the
//!   same steps in every process.
//! * [`CallTarget`] — a fully resolved `(component, compartment, entry)`
//!   triple. Produced once by [`crate::env::Env::resolve`]; cross-
//!   compartment calls through a `CallTarget` are pure index arithmetic.

use std::borrow::Cow;
use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;

use crate::compartment::CompartmentId;
use crate::component::ComponentId;

/// Cap on names interned after build (illegal-call probes). Beyond it,
/// unknown names share one overflow id so hostile or fuzzed inputs cannot
/// grow the table without bound.
pub(crate) const RUNTIME_INTERN_CAP: usize = 1024;

/// Name reported for entries resolved past [`RUNTIME_INTERN_CAP`].
pub(crate) const OVERFLOW_ENTRY_NAME: &str = "<unregistered-entry>";

/// Interned handle for an entry-point name (an index into the image's
/// [`EntryTable`]). Entry points registered at build time get dense ids
/// starting at 0; names first seen at runtime (always illegal) extend the
/// table past [`EntryTable::built_len`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u32);

/// A fully resolved cross-compartment call target: the §3.1 abstract gate
/// after build-time specialization, as a value.
///
/// Obtain one from [`crate::env::Env::resolve`] and keep it: calls through
/// [`crate::env::Env::call_resolved`] perform no string hashing, no heap
/// allocation, and no table borrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallTarget {
    /// The callee component.
    pub component: ComponentId,
    /// The compartment the callee lives in (resolved from the placement).
    pub compartment: CompartmentId,
    /// The interned entry point being invoked.
    pub entry: EntryId,
}

/// Declares a component's gate entry points once, as a struct of resolved
/// [`CallTarget`]s with one field per entry:
///
/// * `NAMES` lists the entry names in the order written — the list a
///   component registers through
///   [`Component::with_entry_points`](crate::component::Component::with_entry_points),
///   so the order fixes the interned [`EntryId`]s;
/// * `resolve(env, id)` resolves every one of them against component `id`
///   through [`Env::resolve`](crate::env::Env::resolve), once, when the
///   component is wired up.
///
/// ```
/// flexos_core::entry_points! {
///     /// A clock component's gate entry points.
///     pub struct ClockEntries {
///         now: "clock_now",
///         sleep: "clock_sleep",
///     }
/// }
/// assert_eq!(ClockEntries::NAMES, ["clock_now", "clock_sleep"]);
/// ```
#[macro_export]
macro_rules! entry_points {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident { $($field:ident: $entry:literal,)* }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy)]
        $vis struct $name {
            $(#[doc = concat!("`", $entry, "`.")] $vis $field: $crate::entry::CallTarget,)*
        }

        impl $name {
            /// The entry-point names, in registration order.
            $vis const NAMES: &'static [&'static str] = &[$($entry),*];

            /// Resolves every entry point against component `id`.
            $vis fn resolve(env: &$crate::env::Env, id: $crate::component::ComponentId) -> Self {
                $name { $($field: env.resolve(id, $entry),)* }
            }
        }
    };
}

/// Per-compartment legality bitsets over interned entry ids, plus the
/// intern table itself.
///
/// The bitsets are frozen at build time: entries interned later (via
/// `EntryTable::resolve` on an unknown name) have ids beyond every
/// bitset and are therefore never legal anywhere — exactly the CFI
/// semantics of toolchain-known gate entry points.
#[derive(Debug)]
pub struct EntryTable {
    names: RefCell<Vec<Cow<'static, str>>>,
    ids: RefCell<BTreeMap<Cow<'static, str>, EntryId>>,
    /// `legal[compartment]` — bit `i` set ⇔ entry `i` is a registered
    /// entry point of that compartment.
    legal: Vec<Vec<u64>>,
    /// Number of entries interned by the toolchain (the legal universe).
    built: usize,
}

impl EntryTable {
    /// Starts building a table for `n_compartments` compartments.
    pub(crate) fn builder(n_compartments: usize) -> EntryTableBuilder {
        EntryTableBuilder {
            names: Vec::new(),
            ids: BTreeMap::new(),
            legal: vec![Vec::new(); n_compartments],
        }
    }

    /// Resolves a name to its interned id, interning it on first sight.
    /// Runtime-interned names are never legal in any compartment, and at
    /// most [`RUNTIME_INTERN_CAP`] of them are retained (so faults can
    /// name the offending entry) — further unknown names collapse onto a
    /// shared [`OVERFLOW_ENTRY_NAME`] id, keeping memory bounded under
    /// illegal-call fuzzing.
    pub(crate) fn resolve(&self, name: &str) -> EntryId {
        if let Some(&id) = self.ids.borrow().get(name) {
            return id;
        }
        let mut names = self.names.borrow_mut();
        if names.len() - self.built >= RUNTIME_INTERN_CAP {
            if let Some(&id) = self.ids.borrow().get(OVERFLOW_ENTRY_NAME) {
                return id;
            }
        }
        let id = EntryId(names.len() as u32);
        let retained: Cow<'static, str> = if names.len() - self.built >= RUNTIME_INTERN_CAP {
            Cow::Borrowed(OVERFLOW_ENTRY_NAME)
        } else {
            Cow::Owned(name.to_string())
        };
        names.push(retained.clone());
        self.ids.borrow_mut().insert(retained, id);
        id
    }

    /// The name behind an interned id, borrowed from the table (drop it
    /// before resolving another name).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub(crate) fn name(&self, id: EntryId) -> Ref<'_, str> {
        Ref::map(self.names.borrow(), |names| names[id.0 as usize].as_ref())
    }

    /// `true` if `entry` is a registered entry point of `compartment` —
    /// the CFI check of every cross-compartment gate. Two index ops and a
    /// bit test; never allocates.
    #[inline]
    pub fn is_legal(&self, compartment: CompartmentId, entry: EntryId) -> bool {
        let words = &self.legal[compartment.0 as usize];
        let i = entry.0 as usize;
        (i / 64) < words.len() && (words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of entries interned so far (build-time + runtime).
    pub fn len(&self) -> usize {
        self.names.borrow().len()
    }

    /// `true` if no entry has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.borrow().is_empty()
    }

    /// Number of entries interned at build time (ids below this bound are
    /// the only candidates for legality).
    pub fn built_len(&self) -> usize {
        self.built
    }
}

/// Build-time constructor for [`EntryTable`] (used by the toolchain while
/// registering components' entry points).
pub(crate) struct EntryTableBuilder {
    names: Vec<Cow<'static, str>>,
    ids: BTreeMap<Cow<'static, str>, EntryId>,
    legal: Vec<Vec<u64>>,
}

impl EntryTableBuilder {
    /// Interns `name` (idempotent) and returns its id.
    pub(crate) fn intern(&mut self, name: &'static str) -> EntryId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = EntryId(self.names.len() as u32);
        self.names.push(Cow::Borrowed(name));
        self.ids.insert(Cow::Borrowed(name), id);
        id
    }

    /// Marks `entry` as a legal entry point of `compartment`.
    ///
    /// # Panics
    ///
    /// Panics if `compartment` is out of range for this image.
    pub(crate) fn permit(&mut self, compartment: CompartmentId, entry: EntryId) {
        let words = &mut self.legal[compartment.0 as usize];
        let i = entry.0 as usize;
        if words.len() <= i / 64 {
            words.resize(i / 64 + 1, 0);
        }
        words[i / 64] |= 1 << (i % 64);
    }

    /// Freezes the legality bitsets and produces the runtime table.
    pub(crate) fn build(self) -> EntryTable {
        EntryTable {
            built: self.names.len(),
            names: RefCell::new(self.names),
            ids: RefCell::new(self.ids),
            legal: self.legal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut b = EntryTable::builder(2);
        let a = b.intern("vfs_read");
        let a2 = b.intern("vfs_read");
        let c = b.intern("vfs_write");
        assert_eq!(a, a2);
        assert_eq!(a, EntryId(0));
        assert_eq!(c, EntryId(1));
        let t = b.build();
        assert_eq!(t.len(), 2);
        assert_eq!(t.built_len(), 2);
        assert_eq!(&*t.name(a), "vfs_read");
    }

    #[test]
    fn legality_is_per_compartment() {
        let mut b = EntryTable::builder(2);
        let read = b.intern("vfs_read");
        let send = b.intern("lwip_send");
        b.permit(CompartmentId(0), read);
        b.permit(CompartmentId(1), send);
        let t = b.build();
        assert!(t.is_legal(CompartmentId(0), read));
        assert!(!t.is_legal(CompartmentId(1), read));
        assert!(t.is_legal(CompartmentId(1), send));
        assert!(!t.is_legal(CompartmentId(0), send));
    }

    #[test]
    fn runtime_interned_names_are_never_legal() {
        let mut b = EntryTable::builder(1);
        let read = b.intern("vfs_read");
        b.permit(CompartmentId(0), read);
        let t = b.build();
        let rogue = t.resolve("vfs_backdoor");
        assert_eq!(rogue, EntryId(1));
        assert_eq!(t.built_len(), 1);
        assert_eq!(t.len(), 2);
        assert!(!t.is_legal(CompartmentId(0), rogue));
        // Re-resolving returns the same id, and the name survives for
        // fault reporting.
        assert_eq!(t.resolve("vfs_backdoor"), rogue);
        assert_eq!(&*t.name(rogue), "vfs_backdoor");
    }

    #[test]
    fn runtime_interning_is_bounded() {
        let mut b = EntryTable::builder(1);
        let legal = b.intern("vfs_read");
        b.permit(CompartmentId(0), legal);
        let t = b.build();
        for i in 0..(RUNTIME_INTERN_CAP + 50) {
            let id = t.resolve(&format!("probe_{i}"));
            assert!(!t.is_legal(CompartmentId(0), id));
        }
        // Table growth stops at built + cap + 1 (the shared overflow id).
        assert_eq!(t.len(), 1 + RUNTIME_INTERN_CAP + 1);
        let over = t.resolve("another-unseen-name");
        assert_eq!(&*t.name(over), OVERFLOW_ENTRY_NAME);
        // Names interned before the cap keep reporting exactly.
        assert_eq!(&*t.name(t.resolve("probe_0")), "probe_0");
    }

    #[test]
    fn bitsets_grow_past_64_entries() {
        let mut b = EntryTable::builder(1);
        let ids: Vec<EntryId> = (0..130)
            .map(|i| b.intern(String::leak(format!("fn_{i}"))))
            .collect();
        b.permit(CompartmentId(0), ids[129]);
        b.permit(CompartmentId(0), ids[64]);
        let t = b.build();
        assert!(t.is_legal(CompartmentId(0), ids[129]));
        assert!(t.is_legal(CompartmentId(0), ids[64]));
        assert!(!t.is_legal(CompartmentId(0), ids[128]));
        assert!(!t.is_legal(CompartmentId(0), ids[0]));
    }
}
