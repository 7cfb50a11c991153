//! # flexos-core — the FlexOS flexible-isolation core
//!
//! This crate is the paper's primary contribution in library form: an OS
//! whose compartmentalization and protection profile is chosen at **build
//! time** rather than design time (§1). It provides:
//!
//! * the **compartmentalization API** — [`component::Component`]
//!   descriptors with `__shared` annotations ([`component::SharedVar`])
//!   and legal entry points, abstract call gates resolved once at build
//!   time ([`env::Env::resolve`] → [`entry::CallTarget`] →
//!   [`env::Env::call_resolved`], the image's one gate entry), and
//!   whitelist-checked shared data (§3.1);
//! * the **safety configuration** — [`config::SafetyConfig`], buildable
//!   programmatically or parsed from the paper's configuration-file format
//!   (§3);
//! * the **backend API** — [`backend::IsolationBackend`], the contract
//!   (§3.2) that lets new isolation mechanisms plug in without redesign
//!   (the MPK and EPT backends live in `flexos-mpk` / `flexos-ept`);
//! * the **build-time toolchain** — [`image::ImageBuilder`], which
//!   instantiates gates, lays out keyed sections and heaps, places shared
//!   variables, and emits a linker script + [`image::TransformReport`]
//!   (§3.1 "Build-time Source Transformations");
//! * the **TCB accounting** of §3.3 ([`tcb::TcbReport`]).
//!
//! ```
//! use flexos_core::prelude::*;
//! use flexos_machine::Machine;
//!
//! # fn main() -> Result<(), flexos_machine::fault::Fault> {
//! // The paper's configuration snippet, parsed directly:
//! let config = SafetyConfig::parse_str(
//!     "compartments:\n\
//!      - comp1:\n    mechanism: none\n    default: True\n",
//! )?;
//! let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
//! let mut builder = ImageBuilder::new(machine, config);
//! builder.register(Component::new("app", ComponentKind::App))?;
//! let image = builder.build(&[&NoneBackend])?;
//! assert_eq!(image.env.compartment_count(), 1);
//! # Ok(()) }
//! ```

pub mod backend;
pub mod compartment;
pub mod component;
pub mod config;
pub mod entry;
pub mod env;
pub mod gate;
pub mod hardening;
pub mod image;
pub mod tcb;

/// Convenient re-exports of the types almost every user needs.
pub mod prelude {
    pub use crate::backend::NoneBackend;
    pub use crate::compartment::{CompartmentId, CompartmentSpec, Mechanism};
    pub use crate::component::{Component, ComponentKind, SharedVar};
    pub use crate::config::SafetyConfig;
    pub use crate::gate::GateKind;
    pub use crate::hardening::Hardening;
    pub use crate::image::ImageBuilder;
}

pub use prelude::*;
