//! Thread objects.

use std::fmt;

/// Identifier of a scheduler thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

/// Lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ThreadState {
    /// Runnable, waiting in the ready queue.
    Ready,
    /// Currently executing.
    Running,
}

/// One cooperative thread: bookkeeping only — its id is its index in the
/// scheduler's table and it stays in the ready queue of the core it was
/// spawned on.
#[derive(Debug, Clone)]
pub(crate) struct Thread {
    /// Current lifecycle state.
    pub state: ThreadState,
    /// Number of times the thread has been context-switched in.
    pub switches: u64,
}

impl Thread {
    /// Creates a ready thread.
    pub(crate) fn new() -> Self {
        Thread {
            state: ThreadState::Ready,
            switches: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_thread_is_ready() {
        let t = Thread::new();
        assert_eq!(t.state, ThreadState::Ready);
        assert_eq!(ThreadId(3).to_string(), "thread3");
        assert_eq!(t.switches, 0);
    }
}
