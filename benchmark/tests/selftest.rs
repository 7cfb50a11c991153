//! Harness self-tests, at 1/50 of the real op counts (a constant here,
//! not a knob of the binary).

use flexos_benchmark::json::Value;
use flexos_benchmark::manifest;
use flexos_benchmark::report::{execute, finish};
use flexos_benchmark::rng::Rng;
use flexos_benchmark::spans::Spans;
use flexos_benchmark::workloads::images::{steady_image, LiveImage};
use flexos_benchmark::workloads::{explore_exhaustive, steady_1core, Plan};

fn plan(seed: u64) -> Plan {
    Plan {
        seed,
        seconds: 0.0, // one unit
        divisor: 50,
    }
}

fn deterministic(workload: &str, seed: u64) -> Value {
    let (outcome, _) = execute(workload, &plan(seed), false, None).expect("workload runs");
    assert!(
        outcome.correct(),
        "{workload}: {:?}",
        outcome.check_failures
    );
    outcome.deterministic
}

#[test]
fn same_seed_same_deterministic_section_other_seed_other_inputs() {
    for workload in manifest::names() {
        let first = deterministic(workload, 3);
        assert_eq!(
            first,
            deterministic(workload, 3),
            "{workload}: seed 3 twice"
        );
        let other = deterministic(workload, 4);
        assert_ne!(
            first.get("this_seed"),
            other.get("this_seed"),
            "{workload}: seeds 3 and 4 must draw different inputs"
        );
        // What no seed changes must not change.
        assert_eq!(first.get("any_seed"), other.get("any_seed"), "{workload}");
    }
}

#[test]
fn replayed_point_path_returns_what_the_engine_returns() {
    let spec = explore_exhaustive::space(&plan(1));
    let mut rng = Rng::new(11, "replay-test");
    let mut spans = Spans::new();
    for _ in 0..32 {
        let index = rng.below(spec.len() as u64) as usize;
        let engine = flexos_sweep::run_point(&spec, index).expect("point runs");
        let replayed =
            explore_exhaustive::replay_point(&spec, index, &mut spans).expect("point replays");
        assert_eq!(
            replayed.result,
            engine,
            "point {index} ({})",
            spec.label_of(index)
        );
    }
    let totals = spans.totals();
    for name in [
        "sweep.point",
        "sweep.point_gen",
        "system.build",
        "apps.install",
        "apps.drive",
        "system.drop",
    ] {
        assert_eq!(totals[name].count, 32, "{name}");
    }
}

#[test]
fn a_corrupted_expected_reply_fails_the_run() {
    // At the image: exactly the corrupted batch is counted.
    let mut image = LiveImage::bring_up(steady_image("redis-mpk2"), 1, &mut ()).unwrap();
    assert_eq!(image.drive(64, &mut ()).unwrap().failed, 0);
    image.stream.corrupt_expected(70);
    let drive = image.drive(64, &mut ()).unwrap();
    assert_eq!((drive.ops, drive.failed), (64, 1));

    // Through the whole run: fail_ratio > 0, correct false, exit status 1.
    let plan = plan(1);
    let outcome = steady_1core::run_with(&plan, |image| {
        // iPerf and SQLite are checked by counts, not reply bytes.
        if image.spec.name.starts_with("redis") {
            image.stream.corrupt_expected(0);
        }
    })
    .expect("a wrong reply is counted, not a fault");
    assert!(outcome.failed > 0);
    let finished = finish("steady-1core", &plan, false, outcome, None, false);
    assert_eq!(finished.exit_code, 1);
    assert!(finished.record.get("fail_ratio").unwrap().as_f64().unwrap() > 0.0);
    assert!(
        finished.last_line.starts_with("{\"correct\": false"),
        "{}",
        finished.last_line
    );

    let clean = steady_1core::run(&plan).unwrap();
    assert_eq!(
        finish("steady-1core", &plan, false, clean, None, false).exit_code,
        0
    );
}

#[test]
fn emitted_metrics_are_exactly_the_declared_ones() {
    for workload in manifest::names() {
        for trace in [false, true] {
            let plan = plan(2);
            let (outcome, spans) = execute(workload, &plan, trace, None).expect("runs");
            assert_eq!(spans.is_some(), trace);
            for (name, value) in &outcome.metrics {
                assert!(manifest::valid_name(name), "`{name}`");
                assert!(
                    value.is_finite(),
                    "{workload} trace {trace}: {name} = {value}"
                );
            }
            assert_eq!(
                manifest::check_emitted(
                    &outcome.metrics,
                    &if trace {
                        manifest::per_layer()
                    } else {
                        manifest::end_to_end()
                    }
                ),
                Vec::<String>::new(),
                "{workload} trace {trace}"
            );
            let finished = finish(workload, &plan, trace, outcome, None, false);
            assert_eq!(
                finished.exit_code, 0,
                "{workload} trace {trace}: {}",
                finished.human
            );
            // The last line: exactly the contract's four keys.
            let line = flexos_benchmark::json::parse(&finished.last_line).unwrap();
            let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 1);
            for key in ["seed", "details", "deterministic", "host", "malloc_pinned"] {
                assert!(finished.record.get(key).is_some(), "record lacks `{key}`");
            }
            if let Some(spans) = spans {
                let doc = flexos_benchmark::json::parse(&spans.chrome_trace()).unwrap();
                assert!(!doc.get("traceEvents").unwrap().items().is_empty());
            }
        }
    }
}

#[test]
fn benchmark_json_is_the_manifest_printed_and_within_the_contract() {
    let committed = flexos_benchmark::json::parse(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(
        committed,
        manifest::benchmark_json(),
        "run `-- manifest > BENCHMARK.json`"
    );
    assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);

    let mut names: Vec<String> = Vec::new();
    for (section, cap) in [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)] {
        let items = committed.get(section).unwrap().items();
        assert!(
            (1..=cap).contains(&items.len()),
            "{section}: {}",
            items.len()
        );
        for item in items {
            names.push(item.get("name").unwrap().as_str().unwrap().to_string());
            if let Some(why) = item.get("why") {
                let why = why.as_str().unwrap();
                assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            }
            if let Some(unit) = item.get("unit") {
                let unit = unit.as_str().unwrap();
                assert!(
                    (1..=16).contains(&unit.len())
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "unit `{unit}`"
                );
            }
        }
    }
    assert!(names.iter().all(|n| manifest::valid_name(n)));
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used once");

    let end_to_end = manifest::end_to_end();
    assert!(end_to_end
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    let setup_bound = end_to_end
        .iter()
        .find(|d| d.name == "setup_s")
        .unwrap()
        .bound;
    for d in &end_to_end {
        let bound = d.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25 && Some(bound) <= setup_bound);
    }
    assert!((1..=60).contains(&manifest::RUN_SECONDS));
}
