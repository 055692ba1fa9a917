//! The benchmark's own tests: pure seeded generators, exact metrics that
//! repeat, units on every metric, and a traced toolflow replay that
//! matches `run_toolflow` byte for byte.

use std::collections::{HashMap, HashSet};

use scq_e2ebench::gen::{self, REPEAT_BLOCK, REPEAT_RETRIES};
use scq_e2ebench::metrics::{percentile, Metric, Outcome};
use scq_e2ebench::run::{run, Args, Workload};
use scq_e2ebench::span::Tracer;

fn one_pass(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
        trace_dir: None,
        passes: Some(1),
    })
}

const EXACT: [&str; 3] = ["error_rate", "sim_braid_cycles", "sim_planar_cycles"];

fn exact(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome
        .end_to_end
        .iter()
        .filter(|m| EXACT.contains(&m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

fn counts(metrics: &[Metric]) -> Vec<(&'static str, f64)> {
    metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "cycles")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    assert_eq!(gen::toolflow_points(7), gen::toolflow_points(7));
    assert_ne!(gen::toolflow_points(7), gen::toolflow_points(8));
    assert_eq!(gen::sweep_batches(7, 2), gen::sweep_batches(7, 2));
    assert_ne!(gen::sweep_batches(7, 2), gen::sweep_batches(8, 2));
    assert_ne!(gen::sweep_batches(7, 2), gen::sweep_batches(7, 3));
    assert_eq!(gen::repeat_stream(7), gen::repeat_stream(7));
    assert_ne!(gen::repeat_stream(7), gen::repeat_stream(8));
}

#[test]
fn workload_composition_is_fixed_across_seeds() {
    for seed in [1, 2, 3] {
        let points = gen::toolflow_points(seed);
        assert_eq!(
            points.iter().filter(|p| p.refused).count(),
            gen::REFUSED_POINTS
        );
        assert_eq!(points.len(), 70 + gen::REFUSED_POINTS);

        // Every sweep pass holds the same requests, and no key twice in
        // one batch, so cache counters do not depend on the pool's
        // interleaving.
        let sorted = |batches: Vec<Vec<_>>| {
            let mut all: Vec<String> = batches.iter().flatten().map(|r| format!("{r:?}")).collect();
            all.sort();
            all
        };
        assert_eq!(
            sorted(gen::sweep_batches(seed, 0)),
            sorted(gen::sweep_batches(seed, 1))
        );
        // The requests of a group that share a sweep batch, member k and
        // member k + SWEEP_BATCHES, are never both certified.
        let u = gen::universe(&mut scq_e2ebench::rng::Rng::new(seed));
        for (bench, scale) in gen::groups() {
            let members: Vec<_> = u
                .iter()
                .filter(|r| {
                    matches!(r.source, scq_serve::RequestSource::Named { bench: b, scale: s }
                        if (b, s) == (bench, scale))
                })
                .collect();
            assert_eq!(members.len(), 2 * gen::SWEEP_BATCHES);
            for k in 0..gen::SWEEP_BATCHES {
                assert!(!(members[k].verify && members[k + gen::SWEEP_BATCHES].verify));
            }
        }

        // Every batch holds a request of every (app, scale) group.
        for batch in gen::sweep_batches(seed, 0) {
            let mut keys = HashSet::new();
            let mut groups = HashSet::new();
            for r in &batch {
                assert!(
                    keys.insert(r.normalize().unwrap().key),
                    "duplicate key in a batch"
                );
                if let scq_serve::RequestSource::Named { bench, scale } = &r.source {
                    groups.insert((*bench, *scale));
                }
            }
            assert_eq!(groups.len(), gen::groups().len());
        }

        let stream = gen::repeat_stream(seed);
        let universe = 260;
        assert_eq!(stream.len(), universe * REPEAT_BLOCK);
        let mut defect_copies: HashMap<String, usize> = HashMap::new();
        for r in stream.iter().filter(|r| gen::is_defect(r)) {
            *defect_copies.entry(format!("{r:?}")).or_default() += 1;
        }
        assert_eq!(defect_copies.len(), 20);
        assert!(defect_copies.values().all(|&n| n == 1 + REPEAT_RETRIES));
    }
}

#[test]
fn exact_metrics_repeat_across_runs_of_a_seed() {
    for workload in [Workload::Sweep, Workload::Repeat] {
        let a = one_pass(workload, 3, false);
        let b = one_pass(workload, 3, false);
        assert!(
            a.correct && b.correct,
            "{workload:?}: {:?} {:?}",
            a.problems,
            b.problems
        );
        assert_eq!(exact(&a), exact(&b), "{workload:?}");
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    }
    // Per-layer counts are interleaving-free too, except, in repeat, the
    // cache counters that depend on how the two clients interleave.
    let a = one_pass(Workload::Sweep, 4, true);
    let b = one_pass(Workload::Sweep, 4, true);
    assert!(a.correct && b.correct, "{:?} {:?}", a.problems, b.problems);
    assert_eq!(counts(&a.per_layer), counts(&b.per_layer));
    let a = one_pass(Workload::Repeat, 4, true);
    let b = one_pass(Workload::Repeat, 4, true);
    assert!(a.correct && b.correct, "{:?} {:?}", a.problems, b.problems);
    let engine_counts = |o: &Outcome| {
        let mut c = counts(&o.per_layer);
        c.retain(|(name, _)| !name.starts_with("serve.") || name.starts_with("serve.err_"));
        c
    };
    assert_eq!(engine_counts(&a), engine_counts(&b));
}

#[test]
fn traced_toolflow_replay_matches_run_toolflow_and_repeats_exactly() {
    // The traced run asserts the replayed report's Debug equals
    // `run_toolflow`'s for every point, and the traced and untraced
    // exact metrics agree; any mismatch is a reported problem.
    let traced = one_pass(Workload::Toolflow, 5, true);
    assert!(traced.correct, "{:?}", traced.problems);
    let untraced = one_pass(Workload::Toolflow, 5, false);
    assert!(untraced.correct, "{:?}", untraced.problems);
    assert_eq!(exact(&traced), exact(&untraced));
    let calls = |name: &str| {
        traced
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    assert_eq!(calls("estimate.calibrate_calls"), Some(70.0));
    assert_eq!(calls("apps.generate_calls"), Some(72.0));
}

#[test]
fn every_metric_is_declared_with_its_unit() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let outcome = one_pass(Workload::Sweep, 1, true);
    let all: Vec<&Metric> = outcome
        .end_to_end
        .iter()
        .chain(&outcome.per_layer)
        .collect();
    assert_eq!(outcome.end_to_end.len(), 8);
    assert_eq!(
        declared.matches("\"better\"").count(),
        outcome.end_to_end.len() + outcome.per_layer.len(),
        "every declared metric is printed"
    );
    for m in all {
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(
            declared.contains(&entry),
            "{} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    let line = outcome.json_line(true);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(line.contains("\"serve.normalize_s\": {\"value\": "));
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 90.0), 90.0);
    assert_eq!(percentile(&v, 99.9), 100.0);
    assert_eq!(percentile(&[3.0], 95.0), 3.0);
}

#[test]
fn spans_nest_and_children_fall_inside_their_parent() {
    let mut tr = Tracer::new(std::time::Instant::now(), 0);
    tr.span("core.toolflow", 0, |tr| {
        tr.span("braid.schedule", 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
    });
    assert_eq!(tr.spans[1].parent, Some(0));
    let total = tr.totals()["core.toolflow"];
    let child = tr.child_secs("core.toolflow");
    assert_eq!(total.1, 1);
    assert!(child >= 0.002 && child <= total.0);
    assert!(tr.chrome_json().contains("\"name\": \"braid.schedule\""));
}
