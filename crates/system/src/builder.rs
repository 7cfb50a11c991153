//! The system builder and the booted instance.

use std::rc::Rc;

use flexos_alloc::HeapKind;
use flexos_core::backend::{CubicleBackend, IsolationBackend, NoneBackend, PageTableBackend};
use flexos_core::compartment::Mechanism;
use flexos_core::component::{Component, ComponentId};
use flexos_core::config::SafetyConfig;
use flexos_core::env::Env;
use flexos_core::image::{ImageBuilder, TransformReport};
use flexos_ept::{EptBackend, VmImage};
use flexos_fs::Vfs;
use flexos_libc::Newlib;
use flexos_machine::cost::CostModel;
use flexos_machine::fault::Fault;
use flexos_machine::Machine;
use flexos_mpk::MpkBackend;
use flexos_net::NetStack;
use flexos_sched::Scheduler;
use flexos_time::TimeSubsystem;

/// Pages per compartment-private heap (per simulated core).
const HEAP_PAGES: u64 = 4096;

/// Incremental FlexOS system constructor.
pub struct SystemBuilder {
    config: SafetyConfig,
    heap_kind: HeapKind,
    apps: Vec<Component>,
    cores: usize,
}

impl SystemBuilder {
    /// Starts a build for `config`.
    pub fn new(config: SafetyConfig) -> Self {
        SystemBuilder {
            config,
            heap_kind: HeapKind::Tlsf,
            apps: Vec::new(),
            cores: 1,
        }
    }

    /// Number of simulated vCPUs (default 1). Multi-core instances pin
    /// the network stack's compartment to core 0 (its home core), so
    /// gate crossings into it from other cores pay the remote-gate IPI
    /// charge; a 1-core build is byte-identical to the pre-SMP system.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Adds an application component (registered after the kernel set).
    pub fn app(mut self, component: Component) -> Self {
        self.apps.push(component);
        self
    }

    /// Allocator policy for every heap (TLSF by default; CubicleOS uses
    /// Lea, §6.4).
    pub fn heap_kind(mut self, kind: HeapKind) -> Self {
        self.heap_kind = kind;
        self
    }

    /// Builds and boots the instance.
    ///
    /// # Errors
    ///
    /// Configuration and toolchain faults from the core image builder.
    pub fn build(self) -> Result<FlexOs, Fault> {
        // SMP images carry proportionally more memory: every core runs
        // its own server shard and connection set out of the same
        // compartment heaps, so the per-compartment heap, the shared
        // heap, and the physical region all scale with the core count.
        // The multiplier is 1 on single-core builds, so their layout
        // stays byte-identical to the pre-SMP system.
        let scale = self.cores as u64;
        let machine = Machine::with_cores(
            Machine::DEFAULT_MEM_BYTES * scale,
            CostModel::default(),
            self.cores,
        );
        let mut builder = ImageBuilder::new(Rc::clone(&machine), self.config.clone());
        builder.heap_pages(HEAP_PAGES * scale);
        if scale > 1 {
            builder.shared_heap_pages(1024 * scale);
        }
        builder.heap_kind(self.heap_kind);

        // The standard component set, in fixed registration order.
        let sched_id = builder.register(flexos_sched::component())?;
        let time_id = builder.register(flexos_time::component())?;
        let vfs_id = builder.register(flexos_fs::vfscore_component())?;
        let ramfs_id = builder.register(flexos_fs::ramfs_component())?;
        let lwip_id = builder.register(flexos_net::component())?;
        let libc_id = builder.register(flexos_libc::component())?;
        let mut app_ids = Vec::new();
        for app in self.apps {
            app_ids.push(builder.register(app)?);
        }

        let mpk = Rc::new(MpkBackend::new());
        let ept = Rc::new(EptBackend::new());
        let backends: Vec<&dyn IsolationBackend> = vec![
            mpk.as_ref(),
            ept.as_ref(),
            &NoneBackend,
            &PageTableBackend,
            &CubicleBackend,
        ];
        let image = builder.build(&backends)?;
        let env = Rc::clone(&image.env);

        // Live substrates over the built environment.
        let sched = Rc::new(Scheduler::new(Rc::clone(&env), sched_id));
        let time = Rc::new(TimeSubsystem::new(Rc::clone(&env)));
        let vfs = Rc::new(Vfs::new(
            Rc::clone(&env),
            vfs_id,
            ramfs_id,
            time_id,
            Rc::clone(&time),
        ));
        let net = Rc::new(NetStack::new(Rc::clone(&env), lwip_id));
        let libc = Rc::new(Newlib::new(
            Rc::clone(&env),
            libc_id,
            Rc::clone(&net),
            Rc::clone(&vfs),
            Rc::clone(&sched),
        ));

        // Backend hooks into the scheduler (§3.2's worked example).
        let uses_mpk = self
            .config
            .compartments
            .iter()
            .any(|c| c.mechanism == Mechanism::IntelMpk);
        if uses_mpk {
            let mpk_hook = Rc::clone(&mpk);
            sched.add_thread_create_hook(Box::new(move |env, comp| {
                mpk_hook.on_thread_create(env, comp);
            }));
        }

        // VM inventory for EPT images (§4.2).
        let vm_images = if self
            .config
            .compartments
            .iter()
            .any(|c| c.mechanism == Mechanism::VmEpt)
        {
            VmImage::generate(&self.config)
        } else {
            Vec::new()
        };

        // Boot: spawn the main thread homed where the first app lives.
        let home = app_ids.first().map(|&id| env.compartment_of(id)).unwrap_or(
            flexos_core::compartment::CompartmentId(self.config.default_compartment() as u8),
        );
        env.run_as(sched_id, || sched.spawn(home))?;

        // Multi-core topology: the NIC driver/stack is serviced on its
        // home core 0, so shards on other cores pay the remote-gate IPI
        // on every lwip crossing. Single-core builds leave every
        // compartment unpinned (no SMP charges anywhere).
        if self.cores > 1 {
            env.set_home_core(env.compartment_of(lwip_id), 0);
        }

        Ok(FlexOs {
            env,
            report: image.report,
            sched,
            time,
            vfs,
            net,
            libc,
            app_ids,
            vm_images,
            _mpk: mpk,
            ept,
        })
    }
}

/// A booted FlexOS instance: live substrates plus the transform report.
pub struct FlexOs {
    /// The runtime environment.
    pub env: Rc<Env>,
    /// What the toolchain generated (linker script, gates, placements).
    pub report: TransformReport,
    /// uksched.
    pub sched: Rc<Scheduler>,
    /// uktime.
    pub time: Rc<TimeSubsystem>,
    /// vfscore (+ramfs behind it).
    pub vfs: Rc<Vfs>,
    /// lwip.
    pub net: Rc<NetStack>,
    /// newlib.
    pub libc: Rc<Newlib>,
    /// Application component ids, in registration order.
    pub app_ids: Vec<ComponentId>,
    /// Per-compartment VM images (EPT configurations only).
    pub vm_images: Vec<VmImage>,
    _mpk: Rc<MpkBackend>,
    /// The EPT backend (RPC-server counters; inert on non-EPT images).
    /// The adversarial suite reads its refusal totals to show forged
    /// entries are stopped by caller-side CFI before reaching a ring.
    pub ept: Rc<EptBackend>,
}

impl std::fmt::Debug for FlexOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlexOs")
            .field("compartments", &self.env.compartment_count())
            .field("apps", &self.app_ids)
            .finish()
    }
}

impl FlexOs {
    /// Looks up a component id by name.
    pub fn component(&self, name: &str) -> Option<ComponentId> {
        self.env.component_id(name)
    }

    /// Runs `f` in the context of the (first) application component.
    ///
    /// # Panics
    ///
    /// Panics if no application component was registered.
    pub fn run_app<R>(&self, f: impl FnOnce() -> R) -> R {
        let app = *self
            .app_ids
            .first()
            .expect("an app component is registered");
        self.env.run_as(app, f)
    }

    /// Cycles elapsed on the virtual clock so far.
    pub fn cycles(&self) -> u64 {
        self.env.machine().clock().now()
    }
}
