//! The virtual cycle clock.
//!
//! All FlexOS performance results are expressed in CPU cycles on the paper's
//! 2.2 GHz Xeon Silver 4114. The simulation keeps one global cycle counter;
//! substrates and gates charge it as they execute, and benchmark harnesses
//! convert cycle deltas into the paper's units (requests/s, Gb/s, seconds).

use std::cell::Cell;
use std::fmt;

/// A monotonically increasing virtual cycle counter.
///
/// The simulation is single-threaded (virtual threads are scheduled
/// cooperatively in virtual time), so interior mutability via [`Cell`] is
/// sufficient and keeps charging on the hot path allocation-free.
///
/// ```
/// use flexos_machine::clock::CycleClock;
///
/// let clock = CycleClock::new();
/// let t0 = clock.now();
/// clock.advance(108); // one MPK-DSS gate crossing
/// assert_eq!(clock.now() - t0, 108);
/// ```
#[derive(Debug, Default)]
pub struct CycleClock {
    cycles: Cell<u64>,
}

impl CycleClock {
    /// Creates a clock at cycle zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current cycle count.
    #[inline]
    pub fn now(&self) -> u64 {
        self.cycles.get()
    }

    /// Advances the clock by `cycles`.
    #[inline]
    pub fn advance(&self, cycles: u64) {
        self.cycles.set(self.cycles.get() + cycles);
    }
}

impl fmt::Display for CycleClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = CycleClock::new();
        assert_eq!(c.now(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now(), 12);
    }
}
