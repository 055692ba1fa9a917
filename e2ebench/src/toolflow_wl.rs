//! The `toolflow` workload's traced replay and output checks.

use std::collections::BTreeMap;

use scq_apps::Benchmark;
use scq_braid::BraidConfig;
use scq_core::{ToolflowError, ToolflowReport};
use scq_estimate::{estimate_both, AppProfile, EstimateConfig};
use scq_ir::{analysis, Circuit, DependencyDag, InteractionGraph};
use scq_layout::place;
use scq_teleport::PlanarConfig;
use scq_verify::Severity;

use crate::gen::ToolflowPoint;
use crate::layers::LayerCounts;
use crate::span::Tracer;

/// Replays one `run_toolflow` call as its separate public calls, in
/// `PipelineRunner::standard()` order, one span each, and assembles the
/// same report.
pub fn replay(
    tr: &mut Tracer,
    id: u64,
    point: &ToolflowPoint,
    counts: &mut LayerCounts,
) -> Result<ToolflowReport, ToolflowError> {
    let config = point.config();
    let circuit = tr.span("apps.generate", id, |_| {
        point.bench.scaled_circuit(point.scale)
    });
    let dag = tr.span("ir.dag", id, |_| DependencyDag::from_circuit(&circuit));
    let stats = tr.span("ir.analyze", id, |_| {
        analysis::analyze_with_dag(&circuit, &dag)
    });
    let total_ops = stats.total_ops.max(1) as f64;
    let code_distance = tr.span("surface.required_distance", id, |_| {
        config
            .distance_model
            .required_distance_for_ops(config.technology.p_physical, total_ops)
    })?;
    let graph = tr.span("ir.interaction_graph", id, |_| {
        InteractionGraph::from_circuit(&circuit)
    });
    let layout = tr.span("layout.place", id, |_| {
        place(&graph, config.policy.layout_strategy(), None)
    });
    let braid_config = BraidConfig {
        policy: config.policy,
        code_distance,
        ..Default::default()
    };
    let braid = tr.span("braid.schedule", id, |_| {
        scq_braid::schedule(&circuit, &dag, &layout, &braid_config)
    })?;
    let planar_config = PlanarConfig {
        code_distance,
        ..Default::default()
    };
    let planar = tr.span("teleport.schedule_planar", id, |_| {
        scq_teleport::schedule_planar(&circuit, &dag, &planar_config)
    });
    let profile = tr.span("estimate.calibrate", id, |_| {
        AppProfile::calibrate(point.bench)
    });
    counts.calibrated_apps.insert(point.bench);
    let est_config = EstimateConfig {
        technology: config.technology,
        distance_model: config.distance_model,
        ..config.estimate
    };
    let estimates = tr.span("estimate.estimate_both", id, |_| {
        estimate_both(&profile, total_ops, &est_config)
    })?;
    counts.add_braid(&braid);
    counts.add_planar(&planar);
    Ok(ToolflowReport {
        benchmark: point.bench,
        stats,
        code_distance,
        layout,
        braid,
        planar,
        profile,
        estimates,
    })
}

/// The output checks of one distinct point's report: its braid
/// schedule equals `schedule_reference` on the report's layout, and
/// traced re-runs of both schedules certify clean with identical
/// cycles. `planar_checked` holds the (app, scale) pairs whose planar
/// schedule (policy-independent) was already checked.
pub fn check_report(
    point: &ToolflowPoint,
    report: &ToolflowReport,
    circuits: &BTreeMap<(Benchmark, u32), Circuit>,
    planar_checked: &mut Vec<(Benchmark, u32)>,
    problems: &mut Vec<String>,
) {
    let what = format!("{}@{} {:?}", point.bench, point.scale, point.policy);
    let Some(circuit) = circuits.get(&(point.bench, point.scale)) else {
        problems.push(format!("{what}: no input circuit"));
        return;
    };
    let dag = DependencyDag::from_circuit(circuit);
    let config = BraidConfig {
        policy: point.policy,
        code_distance: report.code_distance,
        ..Default::default()
    };
    match scq_braid::schedule_reference(circuit, &dag, &report.layout, &config) {
        Ok(reference) if reference == report.braid => {}
        other => problems.push(format!(
            "{what}: braid schedule differs from the reference engine: {other:?}"
        )),
    }
    match scq_braid::schedule_traced(circuit, &dag, &report.layout, &config) {
        Ok((s, trace)) => {
            if s.cycles != report.braid.cycles {
                problems.push(format!(
                    "{what}: traced braid re-run cycles {} != {}",
                    s.cycles, report.braid.cycles
                ));
            }
            let findings = scq_verify::certify_braid_trace(&trace, circuit, &dag, None);
            if findings.iter().any(|f| f.severity == Severity::Error) {
                problems.push(format!("{what}: braid schedule fails certification"));
            }
        }
        Err(e) => problems.push(format!("{what}: traced braid re-run failed: {e}")),
    }
    if planar_checked.contains(&(point.bench, point.scale)) {
        return;
    }
    planar_checked.push((point.bench, point.scale));
    let planar_config = PlanarConfig {
        code_distance: report.code_distance,
        ..Default::default()
    };
    let (s, transcript) = scq_teleport::schedule_planar_traced(circuit, &dag, &planar_config);
    if s.cycles != report.planar.cycles {
        problems.push(format!(
            "{what}: traced planar re-run cycles {} != {}",
            s.cycles, report.planar.cycles
        ));
    }
    let findings = scq_verify::certify_planar_schedule(&s, &transcript, circuit, &dag, None);
    if findings.iter().any(|f| f.severity == Severity::Error) {
        problems.push(format!("{what}: planar schedule fails certification"));
    }
}
