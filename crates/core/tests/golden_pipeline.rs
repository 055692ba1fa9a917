//! Golden pins for the pass-pipeline toolflow.
//!
//! Every fig6 app × policy point (plus a pinned distance and two
//! scaled instances) is pinned by two values:
//!
//! * the pipeline's [`ArtifactHash`](scq_core::ArtifactHash) chain —
//!   the eight per-artifact content hashes in deposit order, so a
//!   divergence names the first pass whose output moved;
//! * a [`KeyHasher`] digest of the whole report's `Debug` + `Display`
//!   rendering, which covers every field of every artifact.
//!
//! The table was generated while the pre-pipeline call chain still
//! existed and a differential suite proved both paths byte-identical on
//! these points, so the pins carry that certification forward. A
//! deliberate behaviour change must regenerate the table; the failure
//! message prints each diverged row's new value.
//!
//! Random circuits are covered by a direct-engine oracle instead: the
//! report's braid and planar schedules must equal what
//! `scq_braid::schedule` / `scq_teleport::schedule_planar` return for the
//! same DAG, layout and distance.

use proptest::prelude::*;
use scq_apps::Benchmark;
use scq_braid::{BraidConfig, Policy};
use scq_core::{
    run_toolflow, run_toolflow_on, run_toolflow_timed, KeyHasher, ToolflowConfig, ToolflowError,
    ToolflowReport,
};
use scq_ir::{Circuit, DependencyDag, Gate, InteractionGraph};
use scq_layout::place;
use scq_surface::Technology;
use scq_teleport::{schedule_planar, PlanarConfig};

/// The four fig6 applications.
const FIG6: [Benchmark; 4] = [
    Benchmark::Gse,
    Benchmark::SquareRoot,
    Benchmark::Sha1,
    Benchmark::IsingFull,
];

/// One row per point: label, the eight artifact hashes, ` | `, then the
/// report digest (all hex).
const GOLDEN: &str = "\
GSE/P0 24b91a63655b1195 99c638e4e8184b41 5a1423eb8196f42f 658b6e6688d55fbb d9db41ec0293cfe2 78702fee15ffa012 6608265c9dbdf3c6 9df0efa1e678a711 | 6d01e127af3127a4
GSE/P1 24b91a63655b1195 99c638e4e8184b41 5a1423eb8196f42f 658b6e6688d55fbb d9db41ec0293cfe2 78702fee15ffa012 6608265c9dbdf3c6 9df0efa1e678a711 | 6d01e127af3127a4
GSE/P2 24b91a63655b1195 99c638e4e8184b41 5a1423eb8196f42f 658b6e6688d55fbb a0663595bffa6983 15864bf668de0159 6608265c9dbdf3c6 9df0efa1e678a711 | 941605bf88daa968
GSE/P3 24b91a63655b1195 99c638e4e8184b41 5a1423eb8196f42f 658b6e6688d55fbb a0663595bffa6983 7a94a9eb70f347fa 6608265c9dbdf3c6 9df0efa1e678a711 | dd7e0e125ad3891a
GSE/P4 24b91a63655b1195 99c638e4e8184b41 5a1423eb8196f42f 658b6e6688d55fbb a0663595bffa6983 7a94a9eb70f347fa 6608265c9dbdf3c6 9df0efa1e678a711 | dd7e0e125ad3891a
GSE/P5 24b91a63655b1195 99c638e4e8184b41 5a1423eb8196f42f 658b6e6688d55fbb a0663595bffa6983 7a94a9eb70f347fa 6608265c9dbdf3c6 9df0efa1e678a711 | dd7e0e125ad3891a
GSE/P6 24b91a63655b1195 99c638e4e8184b41 5a1423eb8196f42f 658b6e6688d55fbb a0663595bffa6983 7a94a9eb70f347fa 6608265c9dbdf3c6 9df0efa1e678a711 | dd7e0e125ad3891a
SQ/P0 c11dc75140599b81 88524f34c4694237 5a1423eb8196f42f 9fb6faa9c7d4ea87 f419727aed9c3467 5f7dcafab31a0d8c 8205e1f14284ef47 03c340bbb9bffa4b | 44f0d329b811b06f
SQ/P1 c11dc75140599b81 88524f34c4694237 5a1423eb8196f42f 9fb6faa9c7d4ea87 f419727aed9c3467 bffeb78607bfdaa8 8205e1f14284ef47 03c340bbb9bffa4b | 06d35db3081d5263
SQ/P2 c11dc75140599b81 88524f34c4694237 5a1423eb8196f42f 9fb6faa9c7d4ea87 e5d025f14868e8d3 82e08b29d4f46fce 8205e1f14284ef47 03c340bbb9bffa4b | 57bcb9bf25eb53ef
SQ/P3 c11dc75140599b81 88524f34c4694237 5a1423eb8196f42f 9fb6faa9c7d4ea87 e5d025f14868e8d3 0721e4e3646022f5 8205e1f14284ef47 03c340bbb9bffa4b | 9db0c90ac6e8b2b4
SQ/P4 c11dc75140599b81 88524f34c4694237 5a1423eb8196f42f 9fb6faa9c7d4ea87 e5d025f14868e8d3 0886a6522bea78da 8205e1f14284ef47 03c340bbb9bffa4b | 7c7bb50e6d7fe83f
SQ/P5 c11dc75140599b81 88524f34c4694237 5a1423eb8196f42f 9fb6faa9c7d4ea87 e5d025f14868e8d3 41e42b95304597a0 8205e1f14284ef47 03c340bbb9bffa4b | 0c53279ec942a21b
SQ/P6 c11dc75140599b81 88524f34c4694237 5a1423eb8196f42f 9fb6faa9c7d4ea87 e5d025f14868e8d3 d08eee5e52a843f0 8205e1f14284ef47 03c340bbb9bffa4b | 2ab84e64e8c16b4b
SHA-1/P0 e4b4f50e609564cd 2d818106c066ee82 5a1423eb8196f42f ab7eaaee68af585b b4b0bb3f2dde50f0 380151bc11e83e89 7ccfb43828795095 b914030091a9e4de | 57b18fd6872d5747
SHA-1/P1 e4b4f50e609564cd 2d818106c066ee82 5a1423eb8196f42f ab7eaaee68af585b b4b0bb3f2dde50f0 358eb86c6ec882b6 7ccfb43828795095 b914030091a9e4de | 9dbd77eaa0c78ed0
SHA-1/P2 e4b4f50e609564cd 2d818106c066ee82 5a1423eb8196f42f ab7eaaee68af585b 400c6eeb1dde0e3e c5ad87f470c2b538 7ccfb43828795095 b914030091a9e4de | b5d2ef3c834e48c6
SHA-1/P3 e4b4f50e609564cd 2d818106c066ee82 5a1423eb8196f42f ab7eaaee68af585b 400c6eeb1dde0e3e a1f6e64d516ef12d 7ccfb43828795095 b914030091a9e4de | 615da160d8d2252c
SHA-1/P4 e4b4f50e609564cd 2d818106c066ee82 5a1423eb8196f42f ab7eaaee68af585b 400c6eeb1dde0e3e 816a6db72443b6c3 7ccfb43828795095 b914030091a9e4de | 74fc7bf097f18862
SHA-1/P5 e4b4f50e609564cd 2d818106c066ee82 5a1423eb8196f42f ab7eaaee68af585b 400c6eeb1dde0e3e 288f740c40d471b8 7ccfb43828795095 b914030091a9e4de | 8d9d5703d65e0794
SHA-1/P6 e4b4f50e609564cd 2d818106c066ee82 5a1423eb8196f42f ab7eaaee68af585b 400c6eeb1dde0e3e e35422f57a886074 7ccfb43828795095 b914030091a9e4de | d7263f0377f718fb
IM_fully_inlined/P0 0481ef85cba8bbad 4a636e7615e8b78d 5a1423eb8196f42f 2074114304342da0 f7c9cb7e1bd3ccef b0c2621808fb0346 5e3148cdcb68ff91 cb767b2704aece77 | 04d65f4a2ac42bac
IM_fully_inlined/P1 0481ef85cba8bbad 4a636e7615e8b78d 5a1423eb8196f42f 2074114304342da0 f7c9cb7e1bd3ccef 96b42ff62d27a078 5e3148cdcb68ff91 cb767b2704aece77 | e60c355419362028
IM_fully_inlined/P2 0481ef85cba8bbad 4a636e7615e8b78d 5a1423eb8196f42f 2074114304342da0 5a9ee3c65783f70f ac59a9cda1abdc21 5e3148cdcb68ff91 cb767b2704aece77 | 66b5931b5564d694
IM_fully_inlined/P3 0481ef85cba8bbad 4a636e7615e8b78d 5a1423eb8196f42f 2074114304342da0 5a9ee3c65783f70f 12760620bee0da90 5e3148cdcb68ff91 cb767b2704aece77 | 3efbd72061a12e66
IM_fully_inlined/P4 0481ef85cba8bbad 4a636e7615e8b78d 5a1423eb8196f42f 2074114304342da0 5a9ee3c65783f70f d8abb595b41cfdb7 5e3148cdcb68ff91 cb767b2704aece77 | a5d1b9b8efe3c06e
IM_fully_inlined/P5 0481ef85cba8bbad 4a636e7615e8b78d 5a1423eb8196f42f 2074114304342da0 5a9ee3c65783f70f f95267b2a6c16d0f 5e3148cdcb68ff91 cb767b2704aece77 | 1ca1fef6520aa752
IM_fully_inlined/P6 0481ef85cba8bbad 4a636e7615e8b78d 5a1423eb8196f42f 2074114304342da0 5a9ee3c65783f70f 26ddb75f36dc682c 5e3148cdcb68ff91 cb767b2704aece77 | adb971c023e9057b
GSE/d=7 24b91a63655b1195 99c638e4e8184b41 da2973ca28c001eb 658b6e6688d55fbb a0663595bffa6983 37719e7517f7c5e6 d47290e8ea801204 9df0efa1e678a711 | 6580ea31d9b23823
GSE/scale=0 24b91a63655b1195 99c638e4e8184b41 5a1423eb8196f42f 658b6e6688d55fbb a0663595bffa6983 7a94a9eb70f347fa 6608265c9dbdf3c6 9df0efa1e678a711 | dd7e0e125ad3891a
GSE/scale=1 b427cdab10b7cb74 7db1043c600434ef 5a1423eb8196f42f 4660ba891adc06f9 0f6a190d8fcd01db aed9fd811956b570 6ade23c7cbb9f26a 1eb9d247636fbca2 | 3b00e509ff3c83af
";

/// The pinned points, in table order.
fn points() -> Vec<(String, Benchmark, ToolflowConfig)> {
    let mut points = Vec::new();
    for app in FIG6 {
        for policy in Policy::ALL {
            let config = ToolflowConfig {
                policy,
                ..Default::default()
            };
            points.push((format!("{app}/{policy:?}"), app, config));
        }
    }
    let pinned = ToolflowConfig {
        code_distance: Some(7),
        ..Default::default()
    };
    points.push(("GSE/d=7".to_string(), Benchmark::Gse, pinned));
    for scale in [0, 1] {
        let config = ToolflowConfig {
            scale: Some(scale),
            ..Default::default()
        };
        points.push((format!("GSE/scale={scale}"), Benchmark::Gse, config));
    }
    points
}

fn report_digest(report: &ToolflowReport) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str(&format!("{report:?}"));
    h.write_str(&report.to_string());
    h.finish()
}

fn golden_row(label: &str, app: Benchmark, config: &ToolflowConfig) -> String {
    let (report, trace) =
        run_toolflow_timed(app, config).unwrap_or_else(|e| panic!("{label}: toolflow failed: {e}"));
    let chain: Vec<String> = trace
        .hashes
        .iter()
        .map(|h| format!("{:016x}", h.hash))
        .collect();
    format!(
        "{label} {} | {:016x}",
        chain.join(" "),
        report_digest(&report)
    )
}

#[test]
fn pipeline_reports_match_the_golden_table() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let points = points();
    let mut diverged = Vec::new();
    for (i, (label, app, config)) in points.iter().enumerate() {
        let actual = golden_row(label, *app, config);
        let want = expected.get(i).copied().unwrap_or("<missing>");
        if actual != want {
            let (chain, digest) = actual.split_once(" | ").expect("row has a digest");
            let what = match want.split_once(" | ") {
                Some((c, _)) if c == chain => "report digest",
                Some(_) => "artifact hash chain",
                None => "whole row",
            };
            diverged.push(format!(
                "{label}: {what} diverged (digest now {digest})\n  want {want}\n  got  {actual}"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "{} of {} golden rows diverged:\n{}",
        diverged.len(),
        points.len(),
        diverged.join("\n")
    );
    assert_eq!(expected.len(), points.len(), "golden table size");
}

#[test]
fn threshold_errors_stop_every_app_before_scheduling() {
    // A technology above threshold fails in `code-distance` — before
    // any placement or scheduling — with the distance model's own error.
    let config = ToolflowConfig {
        technology: Technology::default().with_error_rate(0.02),
        ..Default::default()
    };
    for app in FIG6 {
        let ops = app.small_circuit().len().max(1) as f64;
        let direct = config
            .distance_model
            .required_distance_for_ops(config.technology.p_physical, ops)
            .expect_err("0.02 is above threshold");
        let err = run_toolflow(app, &config).unwrap_err();
        assert_eq!(err, ToolflowError::Threshold(direct), "{app}");
    }
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3u32..9)
        .prop_flat_map(|n| {
            let inst = (0usize..5, 0..n, 0..n.saturating_sub(1).max(1));
            (Just(n), proptest::collection::vec(inst, 1..40))
        })
        .prop_map(|(n, raw)| {
            let mut b = Circuit::builder("prop", n);
            for (kind, a, off) in raw {
                match kind {
                    0 => {
                        b.h(a);
                    }
                    1 => {
                        b.t(a);
                    }
                    2 => {
                        b.s(a);
                    }
                    _ => {
                        let second = (a + 1 + off) % n;
                        if second != a {
                            b.try_push(Gate::Cnot, &[a, second]).unwrap();
                        }
                    }
                }
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_schedules_equal_direct_engine_calls(c in arb_circuit()) {
        let dag = DependencyDag::from_circuit(&c);
        let graph = InteractionGraph::from_circuit(&c);
        for policy in [Policy::P0, Policy::P1, Policy::P3, Policy::P6] {
            let config = ToolflowConfig { policy, ..Default::default() };
            let report = run_toolflow_on(Benchmark::Gse, &c, &config).unwrap();
            let layout = place(&graph, policy.layout_strategy(), None);
            let braid = scq_braid::schedule(&c, &dag, &layout, &BraidConfig {
                policy,
                code_distance: report.code_distance,
                ..Default::default()
            })
            .unwrap();
            let planar = schedule_planar(&c, &dag, &PlanarConfig {
                code_distance: report.code_distance,
                ..Default::default()
            });
            assert_eq!(format!("{:?}", report.layout), format!("{layout:?}"), "{policy:?} layout");
            assert_eq!(format!("{:?}", report.braid), format!("{braid:?}"), "{policy:?} braid");
            assert_eq!(format!("{:?}", report.planar), format!("{planar:?}"), "{policy:?} planar");
        }
    }
}
