//! # flexos-system — image assembly and the booted OS instance
//!
//! This crate is FlexOS' `make`: it takes a [`SafetyConfig`], registers
//! the standard component set (uksched, uktime, vfscore+ramfs, lwip,
//! newlib) plus the application components, runs the core toolchain with
//! the MPK/EPT backends registered, wires the backend hooks into the
//! scheduler, boots the image (main thread in the application's
//! compartment), and hands back a [`FlexOs`] instance whose substrates
//! are live and gate-connected.
//!
//! [`SafetyConfig`]: flexos_core::config::SafetyConfig
//!
//! ```
//! use flexos_core::prelude::*;
//! use flexos_system::SystemBuilder;
//!
//! # fn main() -> Result<(), flexos_machine::fault::Fault> {
//! // Vanilla-Unikraft behaviour: one flat compartment.
//! let os = SystemBuilder::new(SafetyConfig::none())
//!     .app(Component::new("hello", ComponentKind::App))
//!     .build()?;
//! assert_eq!(os.env.compartment_count(), 1);
//! # Ok(()) }
//! ```

mod builder;
pub mod configs;
pub mod observe;
mod supervisor;
#[cfg(test)]
mod tests;

pub use builder::{FlexOs, SystemBuilder};
pub use supervisor::Supervisor;
