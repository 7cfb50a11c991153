//! The cooperative scheduler.
//!
//! Deterministic, cooperative, virtual-time scheduling: threads are
//! bookkeeping objects (the simulation multiplexes them explicitly), the
//! ready queue is round-robin, and every operation charges calibrated
//! work. Crucially, the component exposes the **thread-creation hook** of
//! the backend API (§3.2): the MPK backend registers a hook that switches
//! each new thread to the right protection domain.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use flexos_core::compartment::CompartmentId;
use flexos_core::component::ComponentId;
use flexos_core::env::{Env, Work};
use flexos_machine::fault::Fault;
use flexos_machine::trace::{event as trace_event, EventKind};

use crate::stack::{StackRegistry, ThreadStack};
use crate::thread::{Thread, ThreadId, ThreadState};

/// Hook invoked when a thread is created (backend API, §3.2).
pub(crate) type ThreadCreateHook = Box<dyn Fn(&Env, CompartmentId)>;

/// Scheduler statistics for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Threads created.
    pub spawned: u64,
    /// Voluntary yields served.
    pub yields: u64,
    /// Context switches performed.
    pub switches: u64,
}

/// Per-field interior-mutable counters behind [`SchedStats`] (the yield
/// path bumps one `Cell<u64>` instead of copying the whole struct).
#[derive(Debug, Default)]
struct SchedStatsCells {
    spawned: Cell<u64>,
    yields: Cell<u64>,
    switches: Cell<u64>,
}

impl SchedStatsCells {
    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    fn snapshot(&self) -> SchedStats {
        SchedStats {
            spawned: self.spawned.get(),
            yields: self.yields.get(),
            switches: self.switches.get(),
        }
    }
}

flexos_core::entry_points! {
    /// uksched's gate entry points, resolved once when the scheduler is
    /// wired up. The blocking-socket paths in the libc and the app event
    /// loops gate through these handles on every iteration — the hottest
    /// edges of Figure 6 — so nothing string-shaped survives there.
    pub struct SchedEntries {
        spawn: "uksched_spawn",
        yield_now: "uksched_yield",
        block: "uksched_block",
        wake: "uksched_wake",
        current: "uksched_current",
        exit: "uksched_exit",
    }
}

/// The uksched component.
pub struct Scheduler {
    env: Rc<Env>,
    entries: SchedEntries,
    threads: RefCell<Vec<Thread>>,
    /// One ready queue per simulated core; threads have hard affinity to
    /// the core they were spawned on, so each queue is an independent
    /// round-robin. Length is fixed at `machine.num_cores()`.
    ready: RefCell<Vec<VecDeque<ThreadId>>>,
    /// The running thread on each core.
    current: Vec<Cell<Option<ThreadId>>>,
    registry: RefCell<StackRegistry>,
    hooks: RefCell<Vec<ThreadCreateHook>>,
    stats: SchedStatsCells,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.threads.borrow().len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// Cycles charged per scheduler operation (run-queue manipulation and the
/// context-switch primitive); calibrated alongside the Figure 6 profiles.
const SPAWN_CYCLES: u64 = 180;
const YIELD_CYCLES: u64 = 72;
const CURRENT_CYCLES: u64 = 18;

impl Scheduler {
    /// Creates the scheduler component (`id` must be uksched's id in the
    /// image).
    pub fn new(env: Rc<Env>, id: ComponentId) -> Self {
        let cores = env.machine().num_cores();
        Scheduler {
            entries: SchedEntries::resolve(&env, id),
            env,
            threads: RefCell::new(Vec::new()),
            ready: RefCell::new(vec![VecDeque::new(); cores]),
            current: (0..cores).map(|_| Cell::new(None)).collect(),
            registry: RefCell::new(StackRegistry::new()),
            hooks: RefCell::new(Vec::new()),
            stats: SchedStatsCells::default(),
        }
    }

    /// The core the machine is currently executing on — the queue every
    /// dispatch operation below acts against.
    #[inline]
    fn core(&self) -> usize {
        self.env.machine().current_core()
    }

    /// The scheduler's gate entry points, resolved at construction time.
    pub fn entries(&self) -> &SchedEntries {
        &self.entries
    }

    /// Registers a thread-creation hook (backends call this at boot).
    pub fn add_thread_create_hook(&self, hook: ThreadCreateHook) {
        self.hooks.borrow_mut().push(hook);
    }

    /// Spawns a thread homed in `compartment`, pinned to the current
    /// core; allocates its stack there (per the image's data-sharing
    /// strategy) and fires backend hooks.
    ///
    /// # Errors
    ///
    /// Stack-allocation faults from the machine.
    pub fn spawn(&self, compartment: CompartmentId) -> Result<(ThreadId, ThreadStack), Fault> {
        let id = ThreadId(self.threads.borrow().len() as u32);
        let core = self.core();
        let stack = self
            .registry
            .borrow_mut()
            .allocate(&self.env, compartment, id)?;
        self.threads.borrow_mut().push(Thread::new());
        self.ready.borrow_mut()[core].push_back(id);
        self.env.compute(Work {
            cycles: SPAWN_CYCLES,
            frames: 3,
            alu_ops: 12,
            mem_accesses: 10,
            ..Work::default()
        });
        for hook in self.hooks.borrow().iter() {
            hook(&self.env, compartment);
        }
        SchedStatsCells::bump(&self.stats.spawned);
        Ok((id, stack))
    }

    /// Drops every stack registered in `compartment` so subsequent
    /// crossings re-map fresh ones — the supervisor's microreboot step.
    /// Returns how many stacks were dropped.
    pub fn reset_compartment_stacks(&self, compartment: CompartmentId) -> usize {
        self.registry.borrow_mut().reset_compartment(compartment)
    }

    /// Voluntarily yields: the current thread goes to the back of the
    /// ready queue and the next ready thread runs.
    pub fn yield_now(&self) -> Option<ThreadId> {
        self.env.compute(Work {
            cycles: YIELD_CYCLES,
            frames: 3,
            alu_ops: 14,
            mem_accesses: 12,
            ..Work::default()
        });
        SchedStatsCells::bump(&self.stats.yields);
        // One borrow of each structure for the whole operation (requeue
        // current + dispatch next) — this runs twice per Redis request.
        let core = self.core();
        let mut threads = self.threads.borrow_mut();
        let mut all_ready = self.ready.borrow_mut();
        let ready = &mut all_ready[core];
        let current = &self.current[core];
        if let Some(cur) = current.get() {
            if let Some(t) = threads.get_mut(cur.0 as usize) {
                if t.state == ThreadState::Running {
                    t.state = ThreadState::Ready;
                    ready.push_back(cur);
                }
            }
        }
        let next = ready.pop_front();
        if let Some(tid) = next {
            if let Some(t) = threads.get_mut(tid.0 as usize) {
                t.state = ThreadState::Running;
                t.switches += 1;
            }
            let prev = current.get();
            current.set(Some(tid));
            SchedStatsCells::bump(&self.stats.switches);
            self.record_switch(prev, tid);
        }
        next
    }

    /// The running thread, if any.
    pub fn current(&self) -> Option<ThreadId> {
        self.env.compute(Work {
            cycles: CURRENT_CYCLES,
            alu_ops: 4,
            frames: 1,
            mem_accesses: 3,
            ..Work::default()
        });
        self.current[self.core()].get()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SchedStats {
        self.stats.snapshot()
    }

    /// Number of stacks in the registry (one per thread per compartment
    /// that thread has entered).
    pub fn registered_stacks(&self) -> usize {
        self.registry.borrow().len()
    }

    /// Traces a dispatch (disabled tracer: one `Cell` read and out).
    fn record_switch(&self, prev: Option<ThreadId>, next: ThreadId) {
        let machine = self.env.machine();
        machine.tracer().record(
            machine.clock().now(),
            EventKind::CtxSwitch {
                from: prev.map(|t| t.0).unwrap_or(trace_event::NO_THREAD),
                to: next.0,
            },
        );
    }
}
