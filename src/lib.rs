//! # FlexOS in Rust — a flexible-isolation library OS
//!
//! A from-scratch Rust reproduction of *FlexOS: Towards Flexible OS
//! Isolation* (Lefeuvre et al., ASPLOS 2022): a library OS whose
//! compartmentalization and protection strategy — how many compartments,
//! which components go where, MPK vs EPT gates, data-sharing strategy,
//! per-component software hardening — is decided at **build time**, not
//! design time.
//!
//! This umbrella crate re-exports the whole workspace; see `DESIGN.md`
//! for the system inventory and `EXPERIMENTS.md` for paper-vs-measured
//! results of every table and figure.
//!
//! ```
//! use flexos::prelude::*;
//!
//! # fn main() -> Result<(), Fault> {
//! // The paper's configuration snippet, verbatim:
//! let config = SafetyConfig::parse_str(
//!     "compartments:\n\
//!      - comp1:\n    mechanism: intel-mpk\n    default: True\n\
//!      - comp2:\n    mechanism: intel-mpk\n    hardening: [cfi, asan]\n\
//!      libraries:\n\
//!      - lwip: comp2\n",
//! )?;
//! let os = SystemBuilder::new(config)
//!     .app(flexos_apps::redis_component())
//!     .build()?;
//! assert_eq!(os.env.compartment_count(), 2);
//! // Cross-compartment calls now traverse MPK gates; same-compartment
//! // calls are plain function calls.
//! # Ok(()) }
//! ```

pub use flexos_alloc as alloc;
pub use flexos_apps as apps;
pub use flexos_attacks as attacks;
pub use flexos_core as core;
pub use flexos_ept as ept;
pub use flexos_explore as explore;
pub use flexos_fs as fs;
pub use flexos_libc as libc;
pub use flexos_machine as machine;
pub use flexos_mpk as mpk;
pub use flexos_net as net;
pub use flexos_sched as sched;
pub use flexos_sweep as sweep;
pub use flexos_system as system;
pub use flexos_time as time;
pub use flexos_trace as trace;

/// The types most programs need.
pub mod prelude {
    pub use flexos_core::prelude::*;
    pub use flexos_machine::{fault::Fault, Machine};
    pub use flexos_system::{configs, FlexOs, Supervisor, SystemBuilder};
}
