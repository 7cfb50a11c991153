//! # flexos-time — uktime, the time subsystem component
//!
//! The smallest ported component of the paper's Table 1: +10/-9 patch,
//! **zero** shared variables — which is why porting it took "10 minutes"
//! (§4.4): nothing it owns needs to cross compartments; everything is
//! returned by value through gates.
//!
//! Isolating the filesystem *from the time subsystem* from the rest of
//! the system is exactly the MPK3 scenario of the SQLite evaluation
//! (Figure 10): the filesystem timestamps every operation, so each vfs op
//! costs one additional `uktime` gate crossing.

use std::cell::Cell;
use std::rc::Rc;

use flexos_core::env::{Env, Work};
use flexos_core::prelude::{Component, ComponentKind};

/// Nanoseconds of wall-clock epoch at boot (an arbitrary but fixed date;
/// the simulation is deterministic).
pub(crate) const BOOT_EPOCH_NS: u64 = 1_700_000_000_000_000_000;

/// Cycles charged per time query (TSC read + scaling).
const QUERY_CYCLES: u64 = 18;

flexos_core::entry_points! {
    /// uktime's gate entry points, resolved by each caller when it is
    /// wired up (the vfs timestamps through `wall`).
    pub struct TimeEntries {
        monotonic: "uktime_monotonic",
        wall: "uktime_wall",
        sleep: "uktime_sleep",
    }
}

/// The uktime component.
#[derive(Debug)]
pub struct TimeSubsystem {
    env: Rc<Env>,
    queries: Cell<u64>,
}

impl TimeSubsystem {
    /// Creates the component. Callers gate into it through their own
    /// resolved [`TimeEntries`]; the subsystem itself holds no gate
    /// state.
    pub fn new(env: Rc<Env>) -> Self {
        TimeSubsystem {
            env,
            queries: Cell::new(0),
        }
    }

    /// Monotonic nanoseconds since boot, derived from the cycle clock.
    pub fn monotonic_ns(&self) -> u64 {
        self.charge();
        let cost = self.env.machine().cost();
        let cycles = self.env.machine().clock().now();
        (cycles as u128 * 1_000_000_000u128 / cost.freq_hz as u128) as u64
    }

    /// Wall-clock nanoseconds (epoch + monotonic).
    pub fn wall_ns(&self) -> u64 {
        BOOT_EPOCH_NS + self.monotonic_ns()
    }

    /// Number of time queries served (the Figure 10 MPK3 crossing-count
    /// driver).
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    fn charge(&self) {
        self.env.compute(Work {
            cycles: QUERY_CYCLES,
            alu_ops: 3,
            frames: 1,
            ..Work::default()
        });
        self.queries.set(self.queries.get() + 1);
    }
}

/// The component descriptor for uktime, with the paper's Table 1 porting
/// metadata: 0 shared variables, +10/-9 patch.
pub fn component() -> Component {
    Component::new("uktime", ComponentKind::Kernel)
        .with_entry_points(TimeEntries::NAMES)
        .with_patch(10, 9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_core::backend::NoneBackend;
    use flexos_core::config::SafetyConfig;
    use flexos_core::image::ImageBuilder;
    use flexos_machine::Machine;

    fn time_env() -> (Rc<Env>, flexos_core::component::ComponentId, TimeSubsystem) {
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let mut builder = ImageBuilder::new(machine, SafetyConfig::none());
        let id = builder.register(component()).unwrap();
        let image = builder.build(&[&NoneBackend]).unwrap();
        let time = TimeSubsystem::new(Rc::clone(&image.env));
        (image.env, id, time)
    }

    #[test]
    fn table_1_porting_metadata() {
        let c = component();
        assert_eq!(c.shared_var_count(), 0, "uktime shares nothing (Table 1)");
        assert_eq!(c.patch.added, 10);
        assert_eq!(c.patch.removed, 9);
    }

    #[test]
    fn monotonic_follows_the_cycle_clock() {
        let (env, id, time) = time_env();
        env.run_as(id, || {
            let t0 = time.monotonic_ns();
            env.machine().clock().advance(2_200_000_000); // one second
            let t1 = time.monotonic_ns();
            let delta = t1 - t0;
            assert!((999_000_000..=1_001_000_000).contains(&delta), "{delta}");
        });
    }

    #[test]
    fn wall_clock_has_epoch() {
        let (env, id, time) = time_env();
        env.run_as(id, || {
            assert!(time.wall_ns() >= BOOT_EPOCH_NS);
        });
    }

    #[test]
    fn queries_are_counted_and_charged() {
        let (env, id, time) = time_env();
        env.run_as(id, || {
            let before = env.machine().clock().now();
            time.wall_ns();
            time.monotonic_ns();
            assert_eq!(time.queries(), 2);
            assert!(env.machine().clock().now() - before >= 2 * 18);
        });
    }
}
