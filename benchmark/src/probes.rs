//! Layer probes: loops over each crate's public entry points.
//!
//! A span can only be put around what the harness calls itself. What
//! happens *inside* one request — a gate crossing, a simulated memory
//! access, an allocation, a scheduler yield — is reached here instead,
//! by calling the same public function the applications call, in a loop
//! long enough to time. Probes do not depend on the workload or the
//! seed: every trace run carries all of them, so two result files can be
//! compared layer by layer whatever workloads they hold. Counts are
//! constants.

use std::rc::Rc;
use std::time::Instant;

use flexos_alloc::HeapKind;
use flexos_apps::dict::Dict;
use flexos_apps::workloads::{
    install_iperf, install_nginx, install_redis, install_sqlite, run_redis_gets,
};
use flexos_core::backend::NoneBackend;
use flexos_core::compartment::{CompartmentSpec, DataSharing, Mechanism};
use flexos_core::component::{Component, ComponentKind};
use flexos_core::config::SafetyConfig;
use flexos_core::gate::GateKind;
use flexos_core::image::ImageBuilder;
use flexos_explore::chain_cover;
use flexos_fs::OpenFlags;
use flexos_machine::fault::Fault;
use flexos_machine::trace::TraceConfig;
use flexos_machine::Machine;
use flexos_sweep::{sweep_leq, sweep_poset, PointResult, SpaceSpec, SweepPoint};
use flexos_system::observe::{metrics_json, trace_artifacts};
use flexos_system::{configs, FlexOs, Supervisor, SystemBuilder};

use crate::host;
use crate::json::Value;
use crate::stats::median;
use crate::workloads::images::{steady_image, LiveImage};
use crate::workloads::Plan;

/// One row of the paper reference table.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// What the paper reports.
    pub what: &'static str,
    /// The paper's value.
    pub paper: f64,
}

/// The six paper facts the simulator is held to (Figure 11b gate
/// latencies in cycles; Figure 6's Redis baseline; §6.1's cost of
/// isolating lwip). `fidelity.paper_err_max_pct` is the largest relative
/// error of the simulated value against these.
pub const PAPER: [PaperRow; 6] = [
    PaperRow {
        what: "fig11b function call, cycles",
        paper: 2.0,
    },
    PaperRow {
        what: "fig11b MPK-light gate, cycles",
        paper: 62.0,
    },
    PaperRow {
        what: "fig11b MPK-DSS gate, cycles",
        paper: 108.0,
    },
    PaperRow {
        what: "fig11b EPT gate, cycles",
        paper: 462.0,
    },
    PaperRow {
        what: "fig6 Redis flat, GET/s",
        paper: 1_200_000.0,
    },
    PaperRow {
        what: "sec6.1 Redis slowdown isolating lwip, ratio",
        paper: 0.11,
    },
];

fn two_compartments(mechanism: Mechanism) -> Result<SafetyConfig, Fault> {
    SafetyConfig::builder()
        .compartment(CompartmentSpec::new("comp1", mechanism).default_compartment())
        .compartment(CompartmentSpec::new("comp2", mechanism))
        .place("lwip", "comp2")
        .data_sharing(DataSharing::Dss)
        .build()
}

fn redis_image(config: SafetyConfig) -> Result<FlexOs, Fault> {
    SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
}

/// Nanoseconds per iteration of `f`, run `iters` times.
fn ns_per_iter(iters: u64, mut f: impl FnMut() -> Result<(), Fault>) -> Result<f64, Fault> {
    let start = Instant::now();
    for _ in 0..iters {
        f()?;
    }
    Ok(start.elapsed().as_nanos() as f64 / iters as f64)
}

/// Median host microseconds of `f` over `repeats` calls; `f` returns
/// what it built, which is dropped outside the timing.
fn median_us<R>(repeats: u64, mut f: impl FnMut() -> Result<R, Fault>) -> Result<f64, Fault> {
    let mut us = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let start = Instant::now();
        let built = f()?;
        us.push(start.elapsed().as_secs_f64() * 1e6);
        drop(built);
    }
    Ok(median(&us))
}

struct Probes<'a> {
    plan: &'a Plan,
    out: Vec<(String, f64)>,
    /// The metrics that are virtual-clock results: exact, and pinned.
    exact: Value,
    /// Simulated values of the [`PAPER`] rows, in order.
    simulated: [f64; 6],
}

impl Probes<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), value));
    }

    fn put_exact(&mut self, name: &str, value: f64) {
        self.put(name, value);
        self.exact.set(name, value);
    }

    fn n(&self, count: u64) -> u64 {
        self.plan.scaled(count, 16)
    }

    fn host(&mut self) {
        self.put("host.calib_cpu_ns", host::calib_cpu_ns());
        self.put("host.calib_fault_ns", host::calib_fault_ns());
    }

    fn machine(&mut self) -> Result<(), Fault> {
        let new_us = median_us(self.n(200), || Ok(Machine::new(Machine::DEFAULT_MEM_BYTES)))?;
        self.put("machine.new_us", new_us);

        let os = redis_image(configs::none())?;
        let env = &os.env;
        let iters = self.n(1_000_000);
        let (read, write, copy) = os.run_app(|| -> Result<(f64, f64, f64), Fault> {
            let a = env.malloc(8192)?;
            let b = env.malloc(8192)?;
            let mut line = [0x5au8; 64];
            let write = ns_per_iter(iters, || env.mem_write(a, &line))?;
            let read = ns_per_iter(iters, || env.mem_read(a, &mut line))?;
            let copy = ns_per_iter(iters / 8, || env.mem_copy(a, b, 4096))?;
            std::hint::black_box(line);
            Ok((read, write, copy))
        })?;
        self.put("machine.mem_read_ns", read);
        self.put("machine.mem_write_ns", write);
        self.put("machine.mem_copy_ns", copy);
        Ok(())
    }

    fn system(&mut self) -> Result<(), Fault> {
        let mpk = || configs::mpk2(&["lwip"], DataSharing::Dss);
        let repeats = self.n(100);
        for (name, config) in [
            ("none", Ok(configs::none())),
            ("mpk", mpk()),
            ("ept", configs::ept2(&["lwip"])),
        ] {
            let config = config?;
            let us = median_us(repeats, || redis_image(config.clone()))?;
            self.put(&format!("system.build_us.{name}"), us);
        }

        // One build, counted: allocator calls and bytes of this thread,
        // minor faults of the process (nothing else runs meanwhile).
        let config = mpk()?;
        let (allocs0, bytes0) = host::thread_allocs();
        let faults0 = host::minor_faults();
        let os = redis_image(config.clone())?;
        let (allocs1, bytes1) = host::thread_allocs();
        self.put("system.build_allocs", (allocs1 - allocs0) as f64);
        self.put("system.build_bytes", (bytes1 - bytes0) as f64);
        self.put(
            "system.build_minflt",
            (host::minor_faults() - faults0) as f64,
        );
        drop(os);

        let mut drop_us = Vec::new();
        for _ in 0..repeats {
            let os = redis_image(config.clone())?;
            let start = Instant::now();
            drop(os);
            drop_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        self.put("system.drop_us", median(&drop_us));

        let os = redis_image(config)?;
        let lwip = os.component("lwip").expect("every image has lwip");
        let supervisor = Supervisor::new(Rc::clone(&os.env), Rc::clone(&os.sched));
        let compartment = os.env.compartment_of(lwip);
        let reboot_us = median_us(
            self.n(200),
            || Ok(supervisor.microreboot(compartment, None)),
        )?;
        self.put("system.microreboot_us", reboot_us);
        Ok(())
    }

    /// One loop of empty resolved calls per gate kind (about 0.2 s each
    /// on the reference host): host ns and virtual cycles per call.
    /// Fills the four Figure 11b paper rows.
    fn gates(&mut self) -> Result<(), Fault> {
        let kinds: [(&str, GateKind, SafetyConfig, u64); 6] = [
            ("call", GateKind::DirectCall, configs::none(), 40_000_000),
            (
                "mpk-light",
                GateKind::MpkLight,
                configs::mpk2(&["lwip"], DataSharing::SharedStack)?,
                25_000_000,
            ),
            (
                "mpk-dss",
                GateKind::MpkDss,
                configs::mpk2(&["lwip"], DataSharing::Dss)?,
                20_000_000,
            ),
            (
                "ept-rpc",
                GateKind::EptRpc,
                configs::ept2(&["lwip"])?,
                1_500_000,
            ),
            (
                "microkernel-ipc",
                GateKind::MicrokernelIpc,
                two_compartments(Mechanism::PageTable)?,
                20_000_000,
            ),
            (
                "cubicle-trap",
                GateKind::CubicleTrap,
                two_compartments(Mechanism::CubicleOs)?,
                8_000_000,
            ),
        ];
        for (k, (name, kind, config, calls)) in kinds.into_iter().enumerate() {
            let os = redis_image(config)?;
            let env = &os.env;
            let app = os.app_ids[0];
            let lwip = os.component("lwip").expect("every image has lwip");
            let target = env.resolve(lwip, "lwip_poll");
            let calls = self.n(calls);
            let (ns, cycles) = env.run_as(app, || -> Result<(f64, f64), Fault> {
                env.call_resolved(target, || Ok(()))?; // EPT ring set-up
                let cycles0 = env.machine().clock().now();
                let ns = ns_per_iter(calls, || env.call_resolved(target, || Ok(())))?;
                let cycles = env.machine().clock().now() - cycles0;
                Ok((ns, cycles as f64 / calls as f64))
            })?;
            let instantiated = env
                .gates()
                .desc(env.compartment_of(app), env.compartment_of(lwip))
                .kind;
            assert_eq!(instantiated, kind, "{name}: the config builds another gate");
            self.put(&format!("core.gate_ns.{name}"), ns);
            self.put_exact(&format!("core.gate_cycles.{name}"), cycles);
            if k < 4 {
                self.simulated[k] = cycles;
            }
        }
        Ok(())
    }

    fn apps(&mut self) -> Result<(), Fault> {
        let repeats = self.n(30);
        let mut install = |name: &str,
                           component: fn() -> Component,
                           f: &dyn Fn(&FlexOs) -> Result<(), Fault>|
         -> Result<(), Fault> {
            let mut us = Vec::new();
            for _ in 0..repeats {
                let os = SystemBuilder::new(configs::none())
                    .app(component())
                    .build()?;
                let start = Instant::now();
                f(&os)?;
                us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            self.out
                .push((format!("apps.install_us.{name}"), median(&us)));
            Ok(())
        };
        install("redis", flexos_apps::redis_component, &|os| {
            install_redis(os).map(drop)
        })?;
        install("nginx", flexos_apps::nginx_component, &|os| {
            install_nginx(os).map(drop)
        })?;
        install("iperf", flexos_apps::iperf_component, &|os| {
            install_iperf(os).map(drop)
        })?;
        install("sqlite", flexos_apps::sqlite_component, &|os| {
            install_sqlite(os).map(drop)
        })?;

        // One `Dict::get_into` hit against 4096 keys in simulated memory:
        // the innermost loop of every Redis GET.
        let machine = Machine::new(Machine::DEFAULT_MEM_BYTES);
        let mut builder = ImageBuilder::new(machine, SafetyConfig::none());
        builder.register(Component::new("redis", ComponentKind::App))?;
        let env = builder.build(&[&NoneBackend])?.env;
        let redis = env.component_id("redis").expect("just registered");
        let probes = self.n(400_000);
        let ns = env.run_as(redis, || -> Result<f64, Fault> {
            let mut dict = Dict::with_capacity(Rc::clone(&env), 8192)?;
            let keys: Vec<Vec<u8>> = (0..4096u32)
                .map(|i| format!("key:{i:06}").into_bytes())
                .collect();
            for key in &keys {
                dict.set(key, b"value-payload-xyz")?;
            }
            let mut value = Vec::new();
            let mut i = 0u64;
            ns_per_iter(probes, || {
                i += 1;
                value.clear();
                let key = &keys[(i.wrapping_mul(2_654_435_761) % 4096) as usize];
                dict.get_into(key, &mut value).map(|hit| {
                    assert!(hit.is_some(), "every probed key was set");
                })
            })
        })?;
        self.put("apps.dict_probe_ns", ns);
        Ok(())
    }

    fn substrates(&mut self) -> Result<(), Fault> {
        for (name, kind) in [("tlsf", HeapKind::Tlsf), ("lea", HeapKind::Lea)] {
            let os = SystemBuilder::new(configs::none())
                .app(flexos_apps::redis_component())
                .heap_kind(kind)
                .build()?;
            let env = &os.env;
            let pairs = self.n(400_000);
            let ns = os.run_app(|| {
                ns_per_iter(pairs, || {
                    let small = env.malloc(64)?;
                    let large = env.malloc(1024)?;
                    env.free(small)?;
                    env.free(large)
                })
            })?;
            // Two malloc + two free per iteration.
            self.put(&format!("alloc.churn_ns.{name}"), ns / 4.0);
        }

        let os = redis_image(configs::none())?;
        let sched = os.component("uksched").expect("every image has uksched");
        let yields = self.n(2_000_000);
        let ns = os.env.run_as(sched, || {
            ns_per_iter(yields, || {
                os.sched.yield_now();
                Ok(())
            })
        })?;
        self.put("sched.yield_ns", ns);

        let queries = self.n(4_000_000);
        let ns = ns_per_iter(queries, || {
            std::hint::black_box(os.time.monotonic_ns());
            Ok(())
        })?;
        self.put("time.query_ns", ns);

        // 4 KiB through newlib → vfscore → ramfs, rewinding each time so
        // the file stays one block long.
        let block = vec![0xa5u8; 4096];
        let rounds = self.n(100_000);
        let (write, read) = os.run_app(|| -> Result<(f64, f64), Fault> {
            let fd = os.libc.open("/probe.dat", OpenFlags::CREATE)?;
            let write = ns_per_iter(rounds, || {
                os.libc.lseek(fd, 0)?;
                os.libc.write(fd, &block).map(drop)
            })?;
            let read = ns_per_iter(rounds, || {
                os.libc.lseek(fd, 0)?;
                os.libc.read(fd, 4096).map(|got| {
                    assert_eq!(got.len(), 4096, "the block just written reads back");
                })
            })?;
            os.libc.close(fd)?;
            Ok((write, read))
        })?;
        self.put("fs.write_ns", write);
        self.put("fs.read_ns", read);
        Ok(())
    }

    /// The repository's own virtual-clock tracer: what turning it on
    /// costs a request, and what exporting a full ring costs.
    fn tracer(&mut self) -> Result<(), Fault> {
        let mut image = LiveImage::bring_up(steady_image("redis-mpk2"), self.plan.seed, &mut ())?;
        let ops = self.n(128 * 1024);
        image.drive(ops / 8, &mut ())?;
        let off = image.drive(ops, &mut ())?;
        image
            .os
            .env
            .machine()
            .tracer()
            .enable(TraceConfig::default());
        let on = image.drive(ops, &mut ())?;
        assert_eq!(off.failed + on.failed, 0, "tracing must not change a reply");
        self.put(
            "trace.on_ratio.redis-mpk2",
            (on.secs / on.ops as f64) / (off.secs / off.ops as f64),
        );
        let start = Instant::now();
        let artifacts = trace_artifacts(&image.os.env);
        self.put("trace.export_ms", start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(artifacts.chrome_digest);
        let us = median_us(self.n(20), || Ok(metrics_json(&image.os)))?;
        self.put("trace.metrics_json_us", us);
        Ok(())
    }

    /// The order machinery on a 2000-point slice of `full` with made-up
    /// results (performance falling with index): no image is built.
    fn explore(&mut self) {
        let spec = SpaceSpec::full(20, 200);
        let n = self.n(2000) as usize;
        let points: Vec<SweepPoint> = (0..n).map(|i| spec.point(i)).collect();
        let results: Vec<PointResult> = (0..n)
            .map(|i| PointResult {
                index: i,
                ops: 200,
                cycles: 200_000 + i as u64,
                ops_per_sec: 1e6 - i as f64,
            })
            .collect();
        let start = Instant::now();
        let chains = chain_cover(n, |a, b| sweep_leq(&points[a], &points[b]));
        self.put(
            "explore.chain_cover_ms",
            start.elapsed().as_secs_f64() * 1e3,
        );
        std::hint::black_box(chains);
        let start = Instant::now();
        let poset = sweep_poset(&points, &results);
        self.put("explore.poset_ms", start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(poset.len());
    }

    /// The two request-level paper rows, measured the way
    /// `tests/experiments.rs` measures them, and the table's worst error.
    fn fidelity(&mut self) -> Result<(), Fault> {
        let throughput = |config: SafetyConfig| -> Result<f64, Fault> {
            Ok(run_redis_gets(&redis_image(config)?, 10, 60)?.ops_per_sec)
        };
        let flat = throughput(configs::none())?;
        let isolated = throughput(configs::mpk2(&["lwip"], DataSharing::Dss)?)?;
        self.simulated[4] = flat;
        self.simulated[5] = flat / isolated - 1.0;
        let worst = PAPER
            .iter()
            .zip(self.simulated)
            .map(|(row, sim)| (sim - row.paper).abs() / row.paper * 100.0)
            .fold(0.0, f64::max);
        self.put_exact("fidelity.paper_err_max_pct", worst);
        Ok(())
    }
}

/// What the probes measured.
#[derive(Debug, Clone)]
pub struct Probed {
    /// The probe metrics, by name.
    pub metrics: Vec<(String, f64)>,
    /// [`PAPER`] with the simulated value beside each row, for the
    /// result file.
    pub paper_table: Value,
    /// The metrics that are virtual-clock results (cycles per gate kind,
    /// the paper-error figure): what `expected.json` pins of a trace run.
    pub exact: Value,
}

/// Runs every probe.
///
/// # Errors
///
/// Configuration or substrate faults.
pub fn run(plan: &Plan) -> Result<Probed, Fault> {
    let mut probes = Probes {
        plan,
        out: Vec::new(),
        exact: Value::obj(),
        simulated: [0.0; 6],
    };
    probes.host();
    probes.machine()?;
    probes.system()?;
    probes.gates()?;
    probes.apps()?;
    probes.substrates()?;
    probes.tracer()?;
    probes.explore();
    probes.fidelity()?;
    Ok(Probed {
        metrics: probes.out,
        paper_table: PAPER
            .iter()
            .zip(probes.simulated)
            .map(|(row, simulated)| {
                Value::obj()
                    .with("what", row.what)
                    .with("paper", row.paper)
                    .with("simulated", simulated)
            })
            .collect::<Vec<_>>()
            .into(),
        exact: probes.exact,
    })
}
