//! # flexos-sched — uksched, the cooperative scheduler component
//!
//! Unikraft's scheduler ported to FlexOS (§4, Table 1: +48/-8, 5 shared
//! variables). It provides cooperative threads, the per-compartment
//! **stack registry** that makes the full MPK gate's stack switch fast and
//! safe (§4.1 "MPK Gates"), and **Data Shadow Stacks** (§4.1, Figure 4):
//! thread stacks are doubled, the upper half lives in the shared domain,
//! and a shared stack variable `x` is transparently reachable at
//! `&x + STACK_SIZE` from any compartment — stack-allocation speed with
//! isolation-grade sharing.
//!
//! The scheduler core (run queue and context-switch primitive) is TCB
//! (§3.3); the component wrapper around it is isolatable like any other
//! library, which is exactly what the Figure 6 "uksched" row exercises.

pub mod dss;
pub(crate) mod scheduler;
pub mod stack;
pub(crate) mod thread;

pub use scheduler::{SchedEntries, Scheduler};
pub use thread::ThreadId;

use flexos_core::prelude::*;

/// The component descriptor for uksched, with the paper's Table 1 porting
/// metadata: 5 shared variables, +48/-8 patch.
pub fn component() -> Component {
    Component::new("uksched", ComponentKind::Kernel)
        .with_shared_vars([
            SharedVar::stat("sched_ready_queue", 64, &["lwip", "vfscore", "newlib"]),
            SharedVar::stat("sched_current_tid", 8, &["lwip", "vfscore", "newlib"]),
            SharedVar::stat("sched_idle_flag", 1, &["lwip"]),
            SharedVar::heap("sched_wait_entries", 256, &["lwip", "vfscore"]),
            SharedVar::stat("sched_tick_hz", 8, &["uktime"]),
        ])
        .with_entry_points(SchedEntries::NAMES)
        .with_patch(48, 8)
}
