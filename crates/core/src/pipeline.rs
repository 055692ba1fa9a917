//! The explicit pass pipeline behind the toolflow.
//!
//! Historically `run_toolflow` was a hard-wired call chain; this module
//! restructures it into named, individually timeable passes over a
//! shared [`ArtifactContext`] (modeled on `scq-verify`'s `PassRunner`):
//!
//! ```text
//! normalize-ir ──► code-distance ──► interaction-analysis ──► layout
//!      │                                                        │
//!      ▼                                                        ▼
//!  dag + stats                                          braid-schedule
//!                                                               │
//!                                                               ▼
//!                                                      planar-schedule
//!                                                               │
//!                                                               ▼
//!                                                           estimate
//! ```
//!
//! Each pass deposits its artifact in the context together with a
//! stable 64-bit content hash (via [`KeyHasher`]), so downstream layers
//! — most importantly the `scq-serve` cache — can memoize individual
//! artifacts (e.g. a placement) separately from whole schedules. The
//! [`PipelineRunner`] times every pass and can interleave the
//! independent `scq-verify` check passes between stages
//! ([`PipelineRunner::with_invariant_checks`]).
//!
//! The backend schedulers themselves are reached through the
//! [`braid_stage`]/[`planar_stage`] functions, which the
//! [`crate::CommBackend`] implementations share — every scheduling
//! path in the workspace funnels through the same stage layer.
//!
//! `run_toolflow` is a thin wrapper over
//! `PipelineRunner::standard().run(..)`; the pre-pipeline call chain is
//! retained for one PR as [`crate::run_toolflow_legacy`], the
//! differential oracle proving this refactor is a pure re-plumbing.

use std::time::Instant;

use scq_apps::Benchmark;
use scq_braid::{BraidConfig, BraidSchedule};
use scq_estimate::{estimate_both, AppProfile, EstimateConfig, ResourceEstimate};
use scq_ir::{analysis::CircuitStats, Circuit, DependencyDag, InteractionGraph};
use scq_layout::{place, Layout};
use scq_teleport::{
    schedule_planar, schedule_planar_with, CongestionAwarePlacement, PlanarConfig, PlanarSchedule,
};
use scq_verify::{CheckContext, FabricView, Finding, PassRunner, PassTiming};

use crate::cachekey::{CacheKeyed, KeyHasher};
use crate::{ToolflowConfig, ToolflowError, ToolflowReport};

/// The provenance record of one artifact: which pass produced it and
/// the stable content hash it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArtifactHash {
    /// The artifact's stable name (e.g. `layout`).
    pub artifact: &'static str,
    /// The pass that deposited it.
    pub pass: &'static str,
    /// FNV-1a fingerprint of the artifact's schedule-relevant content.
    pub hash: u64,
}

/// The shared context a pipeline run accumulates artifacts into.
///
/// Inputs (benchmark, circuit, config) are fixed at construction; each
/// pass reads the artifacts of its predecessors and deposits its own,
/// together with an [`ArtifactHash`] provenance record.
#[derive(Clone, Debug)]
pub struct ArtifactContext<'a> {
    benchmark: Benchmark,
    circuit: &'a Circuit,
    config: ToolflowConfig,
    dag: Option<DependencyDag>,
    stats: Option<CircuitStats>,
    code_distance: Option<u32>,
    graph: Option<InteractionGraph>,
    layout: Option<Layout>,
    braid: Option<BraidSchedule>,
    planar: Option<PlanarSchedule>,
    profile: Option<AppProfile>,
    estimates: Option<(ResourceEstimate, ResourceEstimate)>,
    hashes: Vec<ArtifactHash>,
}

impl<'a> ArtifactContext<'a> {
    /// A context for a standalone circuit with no benchmark identity —
    /// QASM input to the `scq` CLI, for example.
    ///
    /// Only the `estimate` pass reads the benchmark: it looks up the
    /// scale-free [`AppProfile`] for it, calibrated on first use and
    /// memoized per process. So this constructor is meant for runners
    /// that stop before it, like [`PipelineRunner::analysis`]; a full
    /// standard run would attribute the circuit to the default GSE
    /// profile.
    pub fn for_circuit(circuit: &'a Circuit, config: ToolflowConfig) -> Self {
        Self::new(Benchmark::Gse, circuit, config)
    }

    /// A fresh context over one circuit with no artifacts yet.
    pub fn new(benchmark: Benchmark, circuit: &'a Circuit, config: ToolflowConfig) -> Self {
        ArtifactContext {
            benchmark,
            circuit,
            config,
            dag: None,
            stats: None,
            code_distance: None,
            graph: None,
            layout: None,
            braid: None,
            planar: None,
            profile: None,
            estimates: None,
            hashes: Vec::new(),
        }
    }

    /// The input circuit.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The run configuration.
    pub fn config(&self) -> &ToolflowConfig {
        &self.config
    }

    /// The dependency DAG, once `normalize-ir` has run.
    pub fn dag(&self) -> Option<&DependencyDag> {
        self.dag.as_ref()
    }

    /// The logical circuit statistics, once `normalize-ir` has run.
    pub fn stats(&self) -> Option<&CircuitStats> {
        self.stats.as_ref()
    }

    /// The chosen code distance, once `code-distance` has run.
    pub fn code_distance(&self) -> Option<u32> {
        self.code_distance
    }

    /// The interaction graph, once `interaction-analysis` has run.
    pub fn graph(&self) -> Option<&InteractionGraph> {
        self.graph.as_ref()
    }

    /// The qubit layout, once `layout` has run.
    pub fn layout(&self) -> Option<&Layout> {
        self.layout.as_ref()
    }

    /// The braid schedule, once `braid-schedule` has run.
    pub fn braid(&self) -> Option<&BraidSchedule> {
        self.braid.as_ref()
    }

    /// The planar schedule, once `planar-schedule` has run.
    pub fn planar(&self) -> Option<&PlanarSchedule> {
        self.planar.as_ref()
    }

    /// Artifact provenance records, in deposit order.
    pub fn hashes(&self) -> &[ArtifactHash] {
        &self.hashes
    }

    fn record(&mut self, artifact: &'static str, pass: &'static str, hash: u64) {
        self.hashes.push(ArtifactHash {
            artifact,
            pass,
            hash,
        });
    }

    /// Assembles the final [`ToolflowReport`] from a completed run.
    ///
    /// # Panics
    ///
    /// Panics if a standard pipeline did not run to completion (a
    /// missing artifact is a pipeline-ordering bug, not a user error).
    pub fn into_report(self) -> ToolflowReport {
        ToolflowReport {
            benchmark: self.benchmark,
            stats: self.stats.expect("normalize-ir pass ran"),
            code_distance: self.code_distance.expect("code-distance pass ran"),
            layout: self.layout.expect("layout pass ran"),
            braid: self.braid.expect("braid-schedule pass ran"),
            planar: self.planar.expect("planar-schedule pass ran"),
            profile: self.profile.expect("estimate pass ran"),
            estimates: self.estimates.expect("estimate pass ran"),
        }
    }
}

/// One stage of the toolflow pipeline.
pub trait ToolflowPass {
    /// Stable display name of the pass (also used in `pass_secs`
    /// bench breakdowns and `scq schedule --timings` output).
    fn name(&self) -> &'static str;
    /// Runs the stage, reading predecessor artifacts from `cx` and
    /// depositing its own.
    ///
    /// # Errors
    ///
    /// Stage-specific [`ToolflowError`]s, identical to the ones the
    /// legacy call chain surfaced at the same point.
    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError>;
}

/// Frontend: dependency DAG + logical analysis.
pub struct NormalizeIrPass;

impl ToolflowPass for NormalizeIrPass {
    fn name(&self) -> &'static str {
        "normalize-ir"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let dag = DependencyDag::from_circuit(cx.circuit);
        let stats = scq_ir::analysis::analyze_with_dag(cx.circuit, &dag);
        cx.record("normalized-ir", self.name(), cx.circuit.cache_key());
        cx.record("circuit-stats", self.name(), stats_key(&stats));
        cx.dag = Some(dag);
        cx.stats = Some(stats);
        Ok(())
    }
}

/// Code distance from computation size and technology.
pub struct CodeDistancePass;

impl ToolflowPass for CodeDistancePass {
    fn name(&self) -> &'static str {
        "code-distance"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let total_ops = cx.stats.as_ref().map_or(1, |s| s.total_ops.max(1));
        let d = match cx.config.code_distance {
            Some(d) => d,
            None => cx
                .config
                .distance_model
                .required_distance_for_ops(cx.config.technology.p_physical, total_ops as f64)?,
        };
        let mut h = KeyHasher::new();
        h.write_str("code-distance/v1");
        h.write_u32(d);
        cx.record("code-distance", self.name(), h.finish());
        cx.code_distance = Some(d);
        Ok(())
    }
}

/// Mapping-level analysis: the weighted interaction graph.
pub struct InteractionAnalysisPass;

impl ToolflowPass for InteractionAnalysisPass {
    fn name(&self) -> &'static str {
        "interaction-analysis"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let graph = InteractionGraph::from_circuit(cx.circuit);
        let mut h = KeyHasher::new();
        h.write_str("interaction-graph/v1");
        h.write_u32(graph.num_qubits());
        for (a, b, w) in graph.iter() {
            h.write_u32(a);
            h.write_u32(b);
            h.write_u64(w);
        }
        cx.record("interaction-graph", self.name(), h.finish());
        cx.graph = Some(graph);
        Ok(())
    }
}

/// Mapping-level optimization: qubit placement for the policy's
/// strategy. This is the artifact `scq-serve` memoizes separately from
/// schedules — its hash moves with the circuit and strategy but *not*
/// with the policy index or code distance.
pub struct LayoutPass;

impl ToolflowPass for LayoutPass {
    fn name(&self) -> &'static str {
        "layout"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let graph = cx
            .graph
            .as_ref()
            .expect("interaction-analysis runs before layout");
        let layout = place(graph, cx.config.policy.layout_strategy(), None);
        cx.record("layout", self.name(), layout.cache_key());
        cx.layout = Some(layout);
        Ok(())
    }
}

/// Network-level: the double-defect braid schedule.
pub struct BraidSchedulePass;

impl ToolflowPass for BraidSchedulePass {
    fn name(&self) -> &'static str {
        "braid-schedule"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let dag = cx.dag.as_ref().expect("normalize-ir runs first");
        let layout = cx.layout.as_ref().expect("layout runs first");
        let config = BraidConfig {
            policy: cx.config.policy,
            code_distance: cx.code_distance.expect("code-distance runs first"),
            ..Default::default()
        };
        let braid = braid_stage(cx.circuit, dag, layout, &config)?;
        cx.record("braid-schedule", self.name(), braid_key(&braid));
        cx.braid = Some(braid);
        Ok(())
    }
}

/// Network-level: the planar Multi-SIMD + EPR-pipeline schedule.
pub struct PlanarSchedulePass;

impl ToolflowPass for PlanarSchedulePass {
    fn name(&self) -> &'static str {
        "planar-schedule"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let dag = cx.dag.as_ref().expect("normalize-ir runs first");
        let config = PlanarConfig {
            code_distance: cx.code_distance.expect("code-distance runs first"),
            ..Default::default()
        };
        let planar = planar_stage(cx.circuit, dag, &config, false);
        cx.record("planar-schedule", self.name(), planar_key(&planar));
        cx.planar = Some(planar);
        Ok(())
    }
}

/// Design-space verdict: calibrated profile + space-time estimates.
pub struct EstimatePass;

impl ToolflowPass for EstimatePass {
    fn name(&self) -> &'static str {
        "estimate"
    }

    fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<(), ToolflowError> {
        let total_ops = cx.stats.as_ref().map_or(1, |s| s.total_ops.max(1));
        let profile = AppProfile::calibrate(cx.benchmark);
        let est_config = EstimateConfig {
            technology: cx.config.technology,
            distance_model: cx.config.distance_model,
            ..cx.config.estimate
        };
        let estimates = estimate_both(&profile, total_ops as f64, &est_config)?;
        let mut h = KeyHasher::new();
        h.write_str("estimates/v1");
        h.write_f64(estimates.0.space_time());
        h.write_f64(estimates.1.space_time());
        cx.record("estimates", self.name(), h.finish());
        cx.profile = Some(profile);
        cx.estimates = Some(estimates);
        Ok(())
    }
}

/// The wall-clock and provenance record of one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineTrace {
    /// Per-pass wall time, in execution order (shares `scq-verify`'s
    /// [`PassTiming`] shape).
    pub timings: Vec<PassTiming>,
    /// Per-check-pass wall time, when invariant checks were enabled.
    pub check_timings: Vec<PassTiming>,
    /// Warning-severity findings from the interleaved invariant checks
    /// (error findings abort the run instead).
    pub check_findings: Vec<Finding>,
    /// Artifact provenance records, in deposit order.
    pub hashes: Vec<ArtifactHash>,
}

/// Runs a sequence of [`ToolflowPass`]es over one [`ArtifactContext`],
/// timing each pass, recording artifact hashes, and (optionally)
/// interleaving the independent `scq-verify` check passes between
/// stages.
pub struct PipelineRunner {
    passes: Vec<Box<dyn ToolflowPass>>,
    invariant_checks: bool,
}

impl Default for PipelineRunner {
    fn default() -> Self {
        PipelineRunner::standard()
    }
}

impl PipelineRunner {
    /// The standard toolflow pipeline, in dependency order — exactly
    /// the stages the legacy `run_toolflow` chain hard-wired.
    pub fn standard() -> Self {
        PipelineRunner {
            passes: vec![
                Box::new(NormalizeIrPass),
                Box::new(CodeDistancePass),
                Box::new(InteractionAnalysisPass),
                Box::new(LayoutPass),
                Box::new(BraidSchedulePass),
                Box::new(PlanarSchedulePass),
                Box::new(EstimatePass),
            ],
            invariant_checks: false,
        }
    }

    /// The frontend-and-mapping half of the standard pipeline —
    /// `normalize-ir` through `layout` — for callers (like the `scq`
    /// CLI `schedule`/`check` commands) that need the analysis
    /// artifacts but drive the backend schedulers themselves, e.g.
    /// with tracing enabled or on a defective fabric.
    pub fn analysis() -> Self {
        PipelineRunner {
            passes: vec![
                Box::new(NormalizeIrPass),
                Box::new(CodeDistancePass),
                Box::new(InteractionAnalysisPass),
                Box::new(LayoutPass),
            ],
            invariant_checks: false,
        }
    }

    /// Stable names of the registered passes, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Enables the interleaved `scq-verify` invariant checks: the IR
    /// check passes run after `normalize-ir`, and again with the braid
    /// fabric view after `layout`. Error-severity findings abort the
    /// run with [`ToolflowError::Invariant`]; warnings are collected in
    /// the trace.
    pub fn with_invariant_checks(mut self) -> Self {
        self.invariant_checks = true;
        self
    }

    /// Runs every pass in order over `cx`, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Whatever the failing pass returns — the same [`ToolflowError`]
    /// the legacy chain surfaced at the same stage — plus
    /// [`ToolflowError::Invariant`] when enabled checks find an
    /// error-severity violation.
    pub fn run(&self, cx: &mut ArtifactContext<'_>) -> Result<PipelineTrace, ToolflowError> {
        let mut trace = PipelineTrace::default();
        for pass in &self.passes {
            let t0 = Instant::now();
            pass.run(cx)?;
            trace.timings.push(PassTiming {
                pass: pass.name(),
                duration: t0.elapsed(),
            });
            if self.invariant_checks {
                run_invariant_checks(pass.name(), cx, &mut trace)?;
            }
        }
        trace.hashes = cx.hashes.clone();
        Ok(trace)
    }
}

/// Interleaves the independent `scq-verify` check passes after the
/// stages whose artifacts they can audit: pure IR checks once the DAG
/// exists, and fabric admission once the layout exists.
fn run_invariant_checks(
    stage: &'static str,
    cx: &ArtifactContext<'_>,
    trace: &mut PipelineTrace,
) -> Result<(), ToolflowError> {
    let fabrics = match stage {
        "normalize-ir" => Vec::new(),
        "layout" => {
            let layout = cx.layout.as_ref().expect("layout stage just ran");
            vec![FabricView::braid(layout, cx.circuit, None, None)]
        }
        _ => return Ok(()),
    };
    let dag = cx.dag.as_ref().expect("normalize-ir runs first");
    let check_cx = CheckContext {
        circuit: cx.circuit,
        dag,
        fabrics,
    };
    let report = PassRunner::standard().run(&check_cx);
    trace.check_timings.extend(report.timings.iter().copied());
    if !report.is_clean() {
        let first = report
            .findings
            .iter()
            .find(|f| f.severity == scq_verify::Severity::Error)
            .expect("is_clean was false");
        return Err(ToolflowError::Invariant(format!(
            "{} error finding(s) after pass `{stage}`; first: {}",
            report.error_count(),
            first.message
        )));
    }
    trace.check_findings.extend(report.findings);
    Ok(())
}

/// The braid scheduling stage. [`crate::BraidBackend`] and the
/// [`BraidSchedulePass`] both funnel through here, so there is exactly
/// one call path into the braid engine.
///
/// # Errors
///
/// [`ToolflowError::Braid`] when the engine exceeds its cycle budget.
pub fn braid_stage(
    circuit: &Circuit,
    dag: &DependencyDag,
    layout: &Layout,
    config: &BraidConfig,
) -> Result<BraidSchedule, ToolflowError> {
    Ok(scq_braid::schedule(circuit, dag, layout, config)?)
}

/// The planar scheduling stage. [`crate::TeleportBackend`] and the
/// [`PlanarSchedulePass`] both funnel through here; `optimized` selects
/// the congestion-aware profile-then-place floorplan over the baseline.
pub fn planar_stage(
    circuit: &Circuit,
    dag: &DependencyDag,
    config: &PlanarConfig,
    optimized: bool,
) -> PlanarSchedule {
    if optimized {
        schedule_planar_with(circuit, dag, config, &CongestionAwarePlacement::default())
    } else {
        schedule_planar(circuit, dag, config)
    }
}

/// Content hash of the logical analysis (name excluded, like the
/// circuit key: it never influences scheduling).
fn stats_key(stats: &CircuitStats) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("circuit-stats/v1");
    h.write_u32(stats.num_qubits);
    h.write_usize(stats.total_ops);
    h.write_usize(stats.t_count);
    h.write_usize(stats.two_qubit_ops);
    h.write_usize(stats.depth);
    h.write_f64(stats.parallelism_factor);
    h.write_usize(stats.max_width);
    h.write_usize(stats.gate_histogram.len());
    for (gate, count) in &stats.gate_histogram {
        h.write_str(gate.mnemonic());
        h.write_usize(*count);
    }
    h.finish()
}

/// Content hash of a braid schedule's headline metrics.
fn braid_key(s: &BraidSchedule) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("braid-schedule/v1");
    h.write_u64(s.cycles);
    h.write_u64(s.critical_path_cycles);
    h.write_u64(s.braids_placed);
    h.write_u64(s.total_braid_hops);
    h.write_u64(s.adaptive_routes);
    h.write_u64(s.drops);
    h.write_f64(s.mesh_utilization);
    h.finish()
}

/// Content hash of a planar schedule's headline metrics.
fn planar_key(s: &PlanarSchedule) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str("planar-schedule/v1");
    h.write_u64(s.cycles);
    h.write_u64(s.timesteps);
    h.write_u64(s.link_stall_cycles);
    h.write_u64(s.peak_in_flight_eprs as u64);
    h.write_u64(s.hottest_link_busy_cycles);
    h.write_u64(s.simd.total_teleports());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Circuit {
        let mut b = Circuit::builder("pipeline-test", 6);
        for i in 0..5u32 {
            b.h(i).cnot(i, i + 1).t(i + 1);
        }
        b.finish()
    }

    #[test]
    fn standard_pipeline_deposits_every_artifact_with_a_hash() {
        let c = small();
        let mut cx = ArtifactContext::new(Benchmark::Gse, &c, ToolflowConfig::default());
        let trace = PipelineRunner::standard().run(&mut cx).unwrap();
        assert_eq!(trace.timings.len(), 7);
        let artifacts: Vec<&str> = trace.hashes.iter().map(|h| h.artifact).collect();
        assert_eq!(
            artifacts,
            vec![
                "normalized-ir",
                "circuit-stats",
                "code-distance",
                "interaction-graph",
                "layout",
                "braid-schedule",
                "planar-schedule",
                "estimates",
            ]
        );
        assert!(cx.layout().is_some());
        let report = cx.into_report();
        assert!(report.braid.cycles >= report.braid.critical_path_cycles);
    }

    #[test]
    fn artifact_hashes_are_deterministic_across_runs() {
        let c = small();
        let run = || {
            let mut cx = ArtifactContext::new(Benchmark::Gse, &c, ToolflowConfig::default());
            PipelineRunner::standard().run(&mut cx).unwrap().hashes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn layout_hash_moves_with_strategy_but_not_policy_within_it() {
        use scq_braid::Policy;
        let c = small();
        let layout_hash = |policy| {
            let config = ToolflowConfig {
                policy,
                ..Default::default()
            };
            let mut cx = ArtifactContext::new(Benchmark::Gse, &c, config);
            let trace = PipelineRunner::standard().run(&mut cx).unwrap();
            trace
                .hashes
                .iter()
                .find(|h| h.artifact == "layout")
                .unwrap()
                .hash
        };
        // P2..P6 share the interaction-aware strategy: same placement.
        assert_eq!(layout_hash(Policy::P3), layout_hash(Policy::P6));
        // P0 uses the linear strategy: different placement artifact.
        assert_ne!(layout_hash(Policy::P0), layout_hash(Policy::P6));
    }

    #[test]
    fn invariant_checks_pass_on_a_clean_run() {
        let c = small();
        let mut cx = ArtifactContext::new(Benchmark::Gse, &c, ToolflowConfig::default());
        let trace = PipelineRunner::standard()
            .with_invariant_checks()
            .run(&mut cx)
            .unwrap();
        // The scq-verify passes ran after normalize-ir and layout.
        assert!(trace.check_timings.len() >= 8);
        assert!(trace
            .check_findings
            .iter()
            .all(|f| f.severity != scq_verify::Severity::Error));
    }

    #[test]
    fn threshold_error_stops_the_pipeline_at_code_distance() {
        use scq_surface::Technology;
        let c = small();
        let config = ToolflowConfig {
            technology: Technology::default().with_error_rate(0.02),
            ..Default::default()
        };
        let mut cx = ArtifactContext::new(Benchmark::Gse, &c, config);
        let err = PipelineRunner::standard().run(&mut cx).unwrap_err();
        assert!(matches!(err, ToolflowError::Threshold(_)));
        assert!(cx.layout().is_none(), "no pass after the failure ran");
    }
}
