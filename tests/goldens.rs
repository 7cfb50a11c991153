//! Byte-identity gates: the user-facing text of every figure and the
//! `sweep` binary's JSON summary lines must equal the files under
//! `tests/data/`, recorded from the binaries at the commit *before* the
//! §5 stack was unified (one order, one space model, one executor) —
//! the summary lines with their wall-clock and host-core fields zeroed.
//! Reduced request counts keep this in tier-1. To re-record after an
//! intended change: `FIG6_WARMUP=15 FIG6_MEASURED=60 fig06 redis|nginx`,
//! `fig07`, `fig08`; `SWEEP_WARMUP=20 SWEEP_MEASURED=200 sweep
//! --threads 2 --quiet` with `--space quick --verify`, `--space quick
//! --lazy --verify-inference --budget "nginx=0.9"`, `--space fig6-redis`.
//!
//! `fig09.out`, `fig10_n250.out`, `fig11a.out`, `fig11b.out` and
//! `table1.out` are the stdout of `fig09`, `fig10 250`, `fig11a`,
//! `fig11b` and `table1` at the commit *before* those binaries became
//! rows of `flexos_bench::cli::FIGURES`; they are rendered through the
//! table, at full counts. Re-record by running the binary.
//!
//! The per-point file (`sweep_quick_points_w20_m200.txt`, one `index ops
//! cycles` line per point of the quick space) was recorded at the commit
//! *before* the allocator's host-side metadata was rewritten, so a
//! change that moves one virtual cycle of one point fails here and names
//! the point. Re-record with the same counts: `sweep --space quick
//! --quiet --csv q.csv`, then `awk -F, 'NR>1{print $1, $10, $11}' q.csv`.
//! CI runs this file in release as well as debug: the two must agree.
//!
//! `sweep_quick_points_c4_w20_m200.txt` is the same file with every
//! point at 4 simulated cores (`sweep --space quick --cores 4 --quiet
//! --csv`), and `redis_uniform_p16_c1_c2.txt` one `RunMetrics` line for
//! the uniform-key, pipeline-16 Redis loop at 1 and at 2 cores; both
//! were recorded at the commit *before* the single-core and sharded
//! client loops became one driver, so they hold the SMP path by value.
//!
//! The three `report_*.txt` files hold everything a `TransformReport`
//! and `Env::shared_var` said about a Redis image (all-hardened `mpk3`,
//! `ept2`, flat), recorded at the commit *before* that text stopped
//! being composed at build time: the on-demand accessors must render
//! the same bytes. There is no binary to re-record them with; after an
//! intended change, write `report_text`'s output over the file.
//!
//! `attack_matrix_quick.json` and `attack_matrix_quick_budget.json` are
//! the stdout of `flexos_attack_matrix --space quick` and `--space quick
//! --budget`, recorded at the commit *before* a point's label became a
//! rendering of its shape (the budgeted rows append `+budget`).
//! Re-record by running the binary.
//!
//! `sweep_quick_lazy_pareto_w20_m200.json` is everything `SWEEP_WARMUP=20
//! SWEEP_MEASURED=200 sweep --space quick --lazy --threads 2 --quiet
//! --pareto PATH` writes: the stdout line, then the `PATH` document, with
//! `wall_s` and every `host_cores` zeroed. It was recorded at the commit
//! *before* the engine began pricing hardening instead of simulating it,
//! so it holds every lazy classification and Pareto level by value.
//!
//! `faultinject_default.log` is the stdout of `flexos_faultinject` (the
//! default campaign; its digest is the one CI prints). The
//! `trace_*.txt` files hold the Chrome-trace digest, the profile digest
//! and the `metrics_json` text of a traced run: the default campaign
//! under `flexos_faultinject --trace PATH --metrics PATH`, and the
//! binaries' canonical run (`flexos_bench::cli::run_traced_canonical`)
//! at the 50/200 counts of `tests/common/traced.rs` and at the 15/60 of
//! `FIG6_WARMUP=15 FIG6_MEASURED=60 fig06 redis --trace PATH --metrics
//! PATH`. They pin every budget charge, refusal and window-reset event
//! those runs record. The log and the first two were recorded at the
//! commit *before* the budget ledger became one module, the 15/60 file
//! from `fig06`'s stderr digests and metrics file at the commit before
//! its test was added; after an intended change, write `trace_text`'s
//! output over the file.

use std::fmt::Write as _;

use flexos::prelude::*;
use flexos::sweep::{emit, engine, lazy, report, SpaceSpec, Workload};
use flexos_apps::workloads::{run_redis_bench, KeyPattern, RedisBench};
use flexos_attacks::campaign::{build_campaign_image, run_campaign, run_campaign_on, CampaignSpec};
use flexos_bench::cli::FIGURES;
use flexos_bench::{fig06_text, fig07_text, fig08_text};
use flexos_core::compartment::{CompartmentId, DataSharing};
use flexos_system::observe::{metrics_json, trace_artifacts};

#[path = "common/traced.rs"]
mod traced;

const FIG_COUNTS: (u64, u64) = (15, 60);
const SWEEP_COUNTS: (u64, u64) = (20, 200);
const SWEEP_THREADS: usize = 2;

/// Fails naming the first differing line, not with two 4 KiB blobs.
fn assert_same(name: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let (mut g, mut w) = (got.lines(), want.lines());
    for line in 1.. {
        match (g.next(), w.next()) {
            (a, b) if a == b && a.is_some() => {}
            (a, b) => panic!("{name}: line {line} differs\n  got:  {a:?}\n  want: {b:?}"),
        }
    }
}

#[test]
fn figure_6_redis_and_nginx_match_the_recorded_output() {
    assert_same(
        "fig06 redis",
        &fig06_text("redis", FIG_COUNTS, SWEEP_THREADS).unwrap(),
        include_str!("data/fig06_redis_w15_m60.out"),
    );
    assert_same(
        "fig06 nginx",
        &fig06_text("nginx", FIG_COUNTS, SWEEP_THREADS).unwrap(),
        include_str!("data/fig06_nginx_w15_m60.out"),
    );
}

#[test]
fn figures_7_and_8_match_the_recorded_output() {
    assert_same(
        "fig07",
        &fig07_text(FIG_COUNTS, SWEEP_THREADS).unwrap(),
        include_str!("data/fig07_w15_m60.out"),
    );
    assert_same(
        "fig08",
        &fig08_text(500_000.0, FIG_COUNTS, SWEEP_THREADS).unwrap(),
        include_str!("data/fig08_w15_m60.out"),
    );
}

/// The figures whose text depends on no environment variable: binary
/// name, positional arguments, recorded stdout.
const TABLE_GOLDENS: [(&str, &[&str], &str); 5] = [
    ("fig09", &[], include_str!("data/fig09.out")),
    ("fig10", &["250"], include_str!("data/fig10_n250.out")),
    ("fig11a", &[], include_str!("data/fig11a.out")),
    ("fig11b", &[], include_str!("data/fig11b.out")),
    ("table1", &[], include_str!("data/table1.out")),
];

#[test]
fn every_other_figure_rendered_through_the_table_matches_its_recorded_output() {
    for (name, args, want) in TABLE_GOLDENS {
        let figure = FIGURES.iter().find(|f| f.name == name).unwrap();
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        assert_same(name, &(figure.render)(&args).unwrap(), want);
    }
}

/// Every figure binary is a row of the table and has a golden here:
/// the five above, or one of the `fig06`–`fig08` files (those rows read
/// `FIG6_*` from the environment, so their text functions are called
/// with explicit counts instead).
#[test]
fn every_figure_binary_has_a_row_and_a_golden() {
    let mut bins: Vec<String> = std::fs::read_dir("crates/bench/src/bin")
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|file| file.strip_suffix(".rs").map(str::to_string))
        .filter(|bin| bin != "sweep")
        .collect();
    bins.sort();
    let rows: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(bins, rows, "src/bin/*.rs (but sweep) and FIGURES differ");
    for row in rows {
        assert!(
            matches!(row, "fig06" | "fig07" | "fig08")
                || TABLE_GOLDENS.iter().any(|(name, ..)| *name == row),
            "{row} has no golden"
        );
    }
}

/// `sweep --space NAME [--verify]`: the exhaustive summary line.
fn exhaustive_summary(space: &str, verify: bool) -> String {
    let spec = SpaceSpec::named(space, SWEEP_COUNTS.0, SWEEP_COUNTS.1).unwrap();
    let results = engine::run_parallel(&spec, SWEEP_THREADS).unwrap();
    let verified = verify
        .then(|| (0..spec.len()).all(|i| engine::simulate_point(&spec, i).unwrap() == results[i]));
    let points: Vec<_> = spec.points().collect();
    let (_, stars) =
        report::star_report_vec(&points, &results, &report::BudgetVector::uniform(0.8));
    let timing = emit::RunTiming {
        threads: SWEEP_THREADS,
        parallel_s: 0.0,
        serial_s: verify.then_some(0.0),
        verified,
    };
    let mut summary = emit::summary(&spec, &results, timing, 0.8, &stars);
    summary.cores = 0;
    summary.to_json() + "\n"
}

#[test]
fn exhaustive_sweep_summaries_match_the_recorded_lines() {
    assert_same(
        "sweep --space quick --verify",
        &exhaustive_summary("quick", true),
        include_str!("data/sweep_quick_verify_w20_m200.json"),
    );
    assert_same(
        "sweep --space fig6-redis",
        &exhaustive_summary("fig6-redis", false),
        include_str!("data/sweep_fig6_redis_w20_m200.json"),
    );
}

/// One `index ops cycles` line per point of the quick space, every
/// point booted with `cores` simulated cores.
fn quick_space_points(cores: u32) -> String {
    let mut spec = SpaceSpec::quick(SWEEP_COUNTS.0, SWEEP_COUNTS.1);
    spec.cores = vec![cores];
    engine::run_parallel(&spec, SWEEP_THREADS)
        .unwrap()
        .iter()
        .map(|r| format!("{} {} {}\n", r.index, r.ops, r.cycles))
        .collect()
}

#[test]
fn every_quick_space_point_matches_its_recorded_ops_and_cycles() {
    assert_same(
        "sweep --space quick, per point",
        &quick_space_points(1),
        include_str!("data/sweep_quick_points_w20_m200.txt"),
    );
}

#[test]
fn every_quick_space_point_at_four_cores_matches_its_recorded_ops_and_cycles() {
    assert_same(
        "sweep --space quick --cores 4, per point",
        &quick_space_points(4),
        include_str!("data/sweep_quick_points_c4_w20_m200.txt"),
    );
}

#[test]
fn uniform_pipelined_redis_matches_the_recorded_metrics_at_one_and_two_cores() {
    let mut got = String::new();
    for cores in [1, 2] {
        let os = SystemBuilder::new(configs::mpk2(&["lwip"], DataSharing::Dss).unwrap())
            .app(flexos_apps::redis_component())
            .cores(cores)
            .build()
            .unwrap();
        let bench = RedisBench {
            keyspace: 8,
            pipeline: 16,
            pattern: KeyPattern::Uniform { space: 8, seed: 42 },
            warmup: 32,
            measured: 320,
        };
        let m = run_redis_bench(&os, bench).unwrap();
        writeln!(
            got,
            "cores={cores} ops={} cycles={} cycles_per_op={:?} ops_per_sec={:?}",
            m.ops, m.cycles, m.cycles_per_op, m.ops_per_sec
        )
        .unwrap();
    }
    assert_same(
        "run_redis_bench uniform P16",
        &got,
        include_str!("data/redis_uniform_p16_c1_c2.txt"),
    );
}

#[test]
fn lazy_sweep_summary_matches_the_recorded_line() {
    // sweep --space quick --lazy --verify-inference --budget "nginx=0.9"
    let spec = SpaceSpec::quick(SWEEP_COUNTS.0, SWEEP_COUNTS.1);
    let cfg = lazy::LazyConfig {
        threads: SWEEP_THREADS,
        budgets: report::BudgetVector::uniform(0.8).with(Workload::NginxGet, 0.9),
        verify_inference: true,
        pareto_fracs: Vec::new(),
    };
    let outcome = lazy::lazy_sweep_all(&spec, &cfg, None).unwrap();
    let mut summary =
        emit::LazySummary::from_outcome(&spec, &outcome, SWEEP_THREADS, 0.0, 0.8, true);
    summary.host_cores = 0;
    assert_same(
        "sweep --space quick --lazy --verify-inference",
        &(summary.to_json() + "\n"),
        include_str!("data/sweep_quick_lazy_w20_m200.json"),
    );
}

/// `"host_cores":N` with `N` zeroed, wherever it appears.
fn zero_host_cores(json: &str) -> String {
    let key = "\"host_cores\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(key) {
        let digits = rest[at + key.len()..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len() - at - key.len());
        out.push_str(&rest[..at + key.len()]);
        out.push('0');
        rest = &rest[at + key.len() + digits..];
    }
    out + rest
}

#[test]
fn lazy_sweep_stdout_and_pareto_payload_match_the_recorded_json() {
    // sweep --space quick --lazy --pareto PATH: the stdout line, then
    // the PATH document.
    let spec = SpaceSpec::quick(SWEEP_COUNTS.0, SWEEP_COUNTS.1);
    let cfg = lazy::LazyConfig {
        threads: SWEEP_THREADS,
        budgets: report::BudgetVector::uniform(0.8),
        verify_inference: false,
        pareto_fracs: vec![0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
    };
    let outcome = lazy::lazy_sweep_all(&spec, &cfg, None).unwrap();
    let summary = emit::LazySummary::from_outcome(&spec, &outcome, SWEEP_THREADS, 0.0, 0.8, false);
    let got = format!(
        "{}\n{}\n",
        summary.to_json(),
        emit::pareto_json(&spec, &outcome.pareto, SWEEP_THREADS)
    );
    assert_same(
        "sweep --space quick --lazy --pareto",
        &zero_host_cores(&got),
        include_str!("data/sweep_quick_lazy_pareto_w20_m200.json"),
    );
}

#[test]
fn quick_attack_matrix_matches_the_recorded_json_with_and_without_budgets() {
    use flexos::attacks::{attack_space_quick, run_matrix, run_matrix_budgeted};
    let spec = attack_space_quick();
    assert_same(
        "flexos_attack_matrix --space quick",
        &(run_matrix(&spec).unwrap().to_json() + "\n"),
        include_str!("data/attack_matrix_quick.json"),
    );
    assert_same(
        "flexos_attack_matrix --space quick --budget",
        &(run_matrix_budgeted(&spec).unwrap().to_json() + "\n"),
        include_str!("data/attack_matrix_quick_budget.json"),
    );
}

/// Linker script, placements, gate list and TCB lines of the transform
/// report, then every registered `__shared` variable as its owner
/// resolves it.
fn report_text(config: SafetyConfig) -> String {
    let os = SystemBuilder::new(config)
        .app(flexos_apps::redis_component())
        .build()
        .unwrap();
    let (env, r) = (&os.env, &os.report);
    let mut out = String::from("== linker script ==\n");
    out.push_str(&r.linker_script(env));
    out.push_str("== placements ==\n");
    for (component, variable, region) in env.shared_var_names() {
        writeln!(out, "{component} {variable} {region}").unwrap();
    }
    out.push_str("== gates ==\n");
    for (from, to, kind) in env.gate_names() {
        writeln!(out, "{from} -> {to}: {kind}").unwrap();
    }
    out.push_str("== tcb ==\n");
    writeln!(out, "{}", r.tcb).unwrap();
    writeln!(out, "generated_loc: {}", r.generated_loc).unwrap();
    let compartments: Vec<&str> = (0..env.compartment_count())
        .map(|i| &*env.domain(CompartmentId(i as u8)).name)
        .collect();
    writeln!(out, "compartments: {}", compartments.join(", ")).unwrap();
    out.push_str("== shared vars ==\n");
    for (owner, component) in env.registry().iter() {
        for var in &component.shared_vars {
            let name = format!("{}::{}", component.name, var.name);
            let p = *env.run_as(owner, || env.shared_var(&name)).unwrap();
            let whitelist: Vec<&str> = var
                .whitelist
                .iter()
                .copied()
                .filter(|name| env.component_id(name).is_some())
                .collect();
            writeln!(
                out,
                "{name} addr={:#x} size={} owner={} whitelist=[{}] region={}",
                p.addr.raw(),
                p.size,
                env.registry().get(p.owner).name,
                whitelist.join(", "),
                env.shared_var_region(&p)
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn transform_reports_render_the_recorded_text_on_demand() {
    let mut hardened = configs::mpk3(&["lwip"], &["vfscore"], DataSharing::Dss).unwrap();
    for compartment in &mut hardened.compartments {
        compartment.hardening = Hardening::FIG6_BUNDLE;
    }
    for (name, config, want) in [
        (
            "report mpk3_hard",
            hardened,
            include_str!("data/report_mpk3_hard.txt"),
        ),
        (
            "report ept2",
            configs::ept2(&["lwip"]).unwrap(),
            include_str!("data/report_ept2.txt"),
        ),
        (
            "report none",
            configs::none(),
            include_str!("data/report_none.txt"),
        ),
    ] {
        assert_same(name, &report_text(config), want);
    }
}

/// The per-point fingerprints `benchmark/expected.json` pins for
/// `SpaceSpec::full(20, 200)`: sixteen bits of an FNV-1a digest of each
/// point's `(index, ops, cycles)`, four hex digits per point in index
/// order. Read, never written: only the benchmark re-blesses that file.
fn full_space_fingerprints() -> Vec<u16> {
    let json = include_str!("../benchmark/expected.json");
    let (_, rest) = json
        .split_once("\"fingerprints\": \"")
        .expect("expected.json pins fingerprints");
    let hex = &rest[..rest.find('"').expect("the table is one string")];
    (0..hex.len() / 4)
        .map(|i| u16::from_str_radix(&hex[4 * i..4 * i + 4], 16).unwrap())
        .collect()
}

/// The benchmark's fingerprint of one point's virtual result.
fn fingerprint(r: &engine::PointResult) -> u16 {
    let digest = [r.index as u64, r.ops, r.cycles]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
    digest as u16
}

#[test]
fn every_redis_point_of_the_full_space_matches_its_pinned_fingerprint() {
    // 4 800 Redis points, keyspaces 3 and 1024, on one thread: the first
    // point of each hardening class simulated, keyspace preload and all,
    // the others priced from it, every one held to the result the
    // benchmark pinned. A debug build takes a stride of them.
    let spec = SpaceSpec::full(SWEEP_COUNTS.0, SWEEP_COUNTS.1);
    let pinned = full_space_fingerprints();
    assert_eq!(pinned.len(), spec.len(), "one fingerprint per point");
    let redis: Vec<usize> = (0..spec.len())
        .filter(|&i| matches!(spec.shape(i).workload, Workload::RedisGet { .. }))
        .collect();
    assert_eq!(redis.len(), 4_800);
    let stride = if cfg!(debug_assertions) { 59 } else { 1 };
    let run: Vec<usize> = redis.into_iter().step_by(stride).collect();
    for r in engine::run_indices(&spec, &run, 1).unwrap() {
        assert_eq!(
            fingerprint(&r),
            pinned[r.index],
            "point {} ({}): ops {} cycles {}",
            r.index,
            spec.label_of(r.index),
            r.ops,
            r.cycles
        );
    }
}

/// The two trace digests and the metrics JSON of a traced image.
fn trace_text(os: &FlexOs) -> String {
    let a = trace_artifacts(&os.env);
    format!(
        "chrome-digest={:016x}\nprofile-digest={:016x}\n{}\n",
        a.chrome_digest,
        a.profile_digest,
        metrics_json(os)
    )
}

#[test]
fn default_fault_injection_campaign_matches_the_recorded_log_and_trace() {
    let spec = CampaignSpec::default();
    let log = run_campaign(&spec).unwrap();
    let text: String = log.lines().iter().map(|line| format!("{line}\n")).collect();
    assert_same(
        "flexos_faultinject",
        &text,
        include_str!("data/faultinject_default.log"),
    );
    assert_eq!(log.digest(), 0xb2b1_2012_ba72_eb87, "the digest CI prints");

    let os = build_campaign_image().unwrap();
    os.env
        .machine()
        .tracer()
        .enable(flexos::trace::TraceConfig::default());
    assert_eq!(
        run_campaign_on(&os, &spec).unwrap(),
        log,
        "tracing moved the campaign"
    );
    assert_same(
        "flexos_faultinject --trace --metrics",
        &trace_text(&os),
        include_str!("data/trace_faultinject.txt"),
    );
}

#[test]
fn canonical_traced_run_matches_the_recorded_digests_and_metrics() {
    let (os, _, _) = traced::traced_run();
    assert_same(
        "traced_run",
        &trace_text(&os),
        include_str!("data/trace_redis_mpk2.txt"),
    );
    // The same run at the counts CI's trace-determinism step gives
    // `fig06 redis --trace --metrics`.
    let (os, _) = flexos_bench::cli::run_traced_canonical(FIG_COUNTS).unwrap();
    assert_same(
        "fig06 redis --trace --metrics",
        &trace_text(&os),
        include_str!("data/trace_fig06_w15_m60.txt"),
    );
}
