//! The batch driver: normalized requests in, cached responses out.
//!
//! [`BatchRunner`] owns one [`ScheduleCache`] and fans request batches
//! out with the atomic-cursor [`parallel_map`]. Every compute path —
//! braid or planar, clean or defected, certified or not — funnels
//! through [`ScheduleCache::get_or_compute`], so identical requests
//! anywhere in a batch (or across batches on the same runner) schedule
//! exactly once.
//!
//! The memoized value is a [`ScheduleOutcome`]: the headline schedule
//! metrics, the optimized qubit placement, and a canonical `summary`
//! string. The summary is the differential-testing contract — a cache
//! hit must be *byte-identical* to what a cold run of the same request
//! would have produced (wall-clock fields live outside the summary for
//! exactly this reason).
//!
//! Since the pass-pipeline refactor the runner also memoizes the
//! *placement artifact* separately from whole schedules, under the
//! coarser [`ScheduleRequest::placement_key`]: braid requests differing
//! only in policy (within one layout strategy) or code distance miss
//! the schedule cache but reuse the cached [`Layout`], skipping the
//! placement compute entirely ([`BatchRunner::placement_stats`] counts
//! the savings).

use std::sync::Arc;
use std::time::Instant;

use scq_braid::{schedule, schedule_on_defects, schedule_traced, schedule_traced_on_defects};
use scq_ir::{Circuit, DependencyDag, InteractionGraph};
use scq_layout::{place, Layout};
use scq_teleport::{
    schedule_planar, schedule_planar_on_defects, schedule_planar_traced,
    schedule_planar_traced_on_defects, PlanarMachine, PlanarSchedule,
};
use scq_verify::{certify_braid_trace, certify_planar_schedule, Finding, Severity};

use crate::cache::{CacheStats, Provenance, ScheduleCache};
use crate::error::ServeError;
use crate::pool::parallel_map;
use crate::request::{BackendKind, ScheduleRequest};

/// The memoized result of scheduling one normalized request.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleOutcome {
    /// Backend that produced the schedule.
    pub backend: BackendKind,
    /// Total schedule length in error-correction cycles.
    pub cycles: u64,
    /// The dependency-limited lower bound (braid critical path, or
    /// planar SIMD timesteps).
    pub lower_bound_cycles: u64,
    /// Communication events served (braid legs placed, or teleports).
    pub comm_events: u64,
    /// The optimized placement the schedule ran on: per-qubit tile
    /// coordinates for the planar backend (empty for braid, whose
    /// layout is a dense grid keyed by the policy's strategy).
    pub placement: Vec<(u32, u32)>,
    /// Whether the schedule passed independent certification
    /// (`false` means certification was not requested — a requested
    /// certification that *fails* is a [`ServeError::Certification`],
    /// never a cached outcome).
    pub verified: bool,
    /// Canonical one-line summary. Cache hits return this byte-for-byte
    /// identical to a cold run; anything nondeterministic (timing) is
    /// excluded by construction.
    pub summary: String,
    /// Wall-clock seconds the *cold* compute took. Cached with the
    /// outcome, so a warm response can report its cold cost — the
    /// warm/cold latency ratio in `BENCH_serve.json` comes from here.
    pub compute_secs: f64,
}

/// The served result of one request in a batch.
#[derive(Clone, Debug)]
pub struct ScheduleResponse {
    /// Position of the request in the submitted batch.
    pub index: usize,
    /// Display label of the request's source (e.g. `GSE@0`).
    pub label: String,
    /// The content-addressed cache key the request normalized to.
    pub key: u64,
    /// How the cache served this request (hit / miss / in-flight dedup).
    pub provenance: Provenance,
    /// The schedule outcome, shared with every other requester of the
    /// same key — or the error, likewise shared.
    pub outcome: Result<Arc<ScheduleOutcome>, ServeError>,
    /// Wall-clock seconds this request took end to end *as served*
    /// (normalization + cache path; near-zero on a hit).
    pub total_secs: f64,
}

impl ScheduleResponse {
    /// Warm-over-cold speedup for this response: the memoized cold
    /// compute time over the served time. Meaningful on hits (large
    /// when the cache is earning its keep); ~1.0 on the miss that paid
    /// the compute.
    pub fn warm_speedup(&self) -> Option<f64> {
        let outcome = self.outcome.as_ref().ok()?;
        if self.total_secs <= 0.0 {
            return None;
        }
        Some(outcome.compute_secs / self.total_secs)
    }
}

/// A batch scheduling service: one content-addressed cache plus the
/// order-preserving [`parallel_map`].
///
/// ```
/// use scq_serve::{BatchRunner, ScheduleRequest};
/// use std::sync::Arc;
///
/// let mut b = scq_ir::Circuit::builder("pair", 2);
/// b.cnot(0, 1);
/// let req = ScheduleRequest::for_circuit(Arc::new(b.finish()));
///
/// let runner = BatchRunner::new(64);
/// let out = runner.run(&[req.clone(), req]);
/// assert_eq!(out.len(), 2);
/// assert!(out.iter().all(|r| r.outcome.is_ok()));
/// // The duplicate was served from cache, one way or another.
/// assert_eq!(runner.cache_stats().computes, 1);
/// ```
pub struct BatchRunner {
    cache: ScheduleCache<ScheduleOutcome>,
    placements: ScheduleCache<Layout>,
}

impl BatchRunner {
    /// A runner whose cache holds at most `capacity` schedules
    /// (clamped to at least 1); the placement-artifact cache gets the
    /// same capacity (placements are far smaller than schedules).
    pub fn new(capacity: usize) -> Self {
        BatchRunner {
            cache: ScheduleCache::new(capacity),
            placements: ScheduleCache::new(capacity),
        }
    }

    /// Serves a whole batch with [`parallel_map`], preserving
    /// request order in the responses. Duplicate requests — common in
    /// sweep workloads — are deduplicated by the cache whether they run
    /// sequentially (hit) or concurrently (single-flight).
    pub fn run(&self, requests: &[ScheduleRequest]) -> Vec<ScheduleResponse> {
        let indexed: Vec<(usize, &ScheduleRequest)> = requests.iter().enumerate().collect();
        parallel_map(&indexed, |&(i, req)| self.serve(i, req))
    }

    /// Serves one request against the shared cache.
    pub fn run_one(&self, request: &ScheduleRequest) -> ScheduleResponse {
        self.serve(0, request)
    }

    /// Cache counters accumulated over this runner's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Placement-artifact cache counters: a hit here is a braid request
    /// that skipped its placement compute because another request with
    /// the same circuit, layout strategy, and defect spec already paid
    /// for it (policy-within-strategy and code-distance changes hit).
    pub fn placement_stats(&self) -> CacheStats {
        self.placements.stats()
    }

    fn serve(&self, index: usize, request: &ScheduleRequest) -> ScheduleResponse {
        let start = Instant::now();
        let normalized = match request.normalize() {
            Ok(n) => n,
            Err(e) => {
                return ScheduleResponse {
                    index,
                    label: "<invalid>".to_string(),
                    key: 0,
                    provenance: Provenance::Miss,
                    outcome: Err(e),
                    total_secs: start.elapsed().as_secs_f64(),
                }
            }
        };
        let (outcome, provenance) = self.cache.get_or_compute(normalized.key, || {
            let t0 = Instant::now();
            let mut outcome = compute(&normalized.request, &normalized.circuit, &self.placements)?;
            outcome.compute_secs = t0.elapsed().as_secs_f64();
            Ok(outcome)
        });
        ScheduleResponse {
            index,
            label: normalized.label,
            key: normalized.key,
            provenance,
            outcome,
            total_secs: start.elapsed().as_secs_f64(),
        }
    }
}

/// Runs the actual scheduling pipeline for one normalized request.
/// `compute_secs` is left at 0 for the caller to stamp.
fn compute(
    request: &ScheduleRequest,
    circuit: &Circuit,
    placements: &ScheduleCache<Layout>,
) -> Result<ScheduleOutcome, ServeError> {
    match request.backend {
        BackendKind::Braid => compute_braid(request, circuit, placements),
        BackendKind::Planar => compute_planar(request, circuit),
    }
}

fn compute_braid(
    request: &ScheduleRequest,
    circuit: &Circuit,
    placements: &ScheduleCache<Layout>,
) -> Result<ScheduleOutcome, ServeError> {
    let dag = DependencyDag::from_circuit(circuit);
    // The placement artifact is memoized separately from the schedule:
    // its key is coarser (no policy index, no code distance), so e.g. a
    // P3@d5 request warms the placement for a later P6@d9 one.
    let (placed, _placement_provenance) =
        placements.get_or_compute(request.placement_key(circuit), || {
            let graph = InteractionGraph::from_circuit(circuit);
            Ok(place(&graph, request.policy.layout_strategy(), None))
        });
    let layout = placed?;
    let config = request.braid_config();
    let dims = scq_braid::braid_mesh_dims(&layout, circuit);
    let map = request.defects.materialize(dims)?;

    let schedule = if request.verify {
        let (sched, trace) = match &map {
            Some(m) => schedule_traced_on_defects(circuit, &dag, &layout, &config, m),
            None => schedule_traced(circuit, &dag, &layout, &config),
        }
        .map_err(ServeError::schedule)?;
        certified(certify_braid_trace(&trace, circuit, &dag, map.as_ref()))?;
        sched
    } else {
        match &map {
            Some(m) => schedule_on_defects(circuit, &dag, &layout, &config, m),
            None => schedule(circuit, &dag, &layout, &config),
        }
        .map_err(ServeError::schedule)?
    };

    let summary = format!(
        "braid policy={} d={} cycles={} cp={} util={:.6} ops={} braids={} adaptive={} drops={} hops={}",
        request.policy.index(),
        config.code_distance,
        schedule.cycles,
        schedule.critical_path_cycles,
        schedule.mesh_utilization,
        schedule.total_ops,
        schedule.braids_placed,
        schedule.adaptive_routes,
        schedule.drops,
        schedule.total_braid_hops,
    );
    Ok(ScheduleOutcome {
        backend: BackendKind::Braid,
        cycles: schedule.cycles,
        lower_bound_cycles: schedule.critical_path_cycles,
        comm_events: schedule.braids_placed,
        placement: Vec::new(),
        verified: request.verify,
        summary,
        compute_secs: 0.0,
    })
}

fn compute_planar(
    request: &ScheduleRequest,
    circuit: &Circuit,
) -> Result<ScheduleOutcome, ServeError> {
    let dag = DependencyDag::from_circuit(circuit);
    let config = request.planar_config();
    let dims = PlanarMachine::grid_dims(circuit.num_qubits());
    let map = request.defects.materialize(dims)?;
    let fault_seed = request.defects.fault_seed();

    let schedule: PlanarSchedule = if request.verify {
        let (sched, transcript) = match &map {
            Some(m) => schedule_planar_traced_on_defects(circuit, &dag, &config, m, fault_seed)
                .map_err(ServeError::schedule)?,
            None => schedule_planar_traced(circuit, &dag, &config),
        };
        certified(certify_planar_schedule(
            &sched,
            &transcript,
            circuit,
            &dag,
            map.as_ref(),
        ))?;
        sched
    } else {
        match &map {
            Some(m) => schedule_planar_on_defects(circuit, &dag, &config, m, fault_seed)
                .map_err(ServeError::schedule)?,
            None => schedule_planar(circuit, &dag, &config),
        }
    };

    let placement: Vec<(u32, u32)> = schedule.machine.tiles.iter().map(|c| (c.x, c.y)).collect();
    let summary = format!(
        "planar d={} cycles={} timesteps={} stalls={} peak={} hottest={} faults={} teleports={} tiles={:?}",
        config.code_distance,
        schedule.cycles,
        schedule.timesteps,
        schedule.link_stall_cycles,
        schedule.peak_in_flight_eprs,
        schedule.hottest_link_busy_cycles,
        schedule.transient_faults,
        schedule.epr.teleports,
        placement,
    );
    Ok(ScheduleOutcome {
        backend: BackendKind::Planar,
        cycles: schedule.cycles,
        lower_bound_cycles: schedule.timesteps,
        comm_events: schedule.epr.teleports as u64,
        placement,
        verified: request.verify,
        summary,
        compute_secs: 0.0,
    })
}

/// Folds certifier findings into the serve result: error-severity
/// findings fail the request (and are therefore never cached).
fn certified(findings: Vec<Finding>) -> Result<(), ServeError> {
    let errors: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    match errors.first() {
        None => Ok(()),
        Some(first) => Err(ServeError::certification(format!(
            "{} error finding(s); first: {}",
            errors.len(),
            first.message
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::DefectSpec;
    use crate::Policy;
    use scq_apps::Benchmark;
    use scq_ir::Circuit;

    fn tiny_request() -> ScheduleRequest {
        let mut b = Circuit::builder("tiny", 4);
        b.h(0).cnot(0, 1).t(2).cnot(2, 3).cnot(1, 2);
        ScheduleRequest::for_circuit(Arc::new(b.finish()))
    }

    #[test]
    fn cache_hit_is_byte_identical_to_a_cold_run() {
        let req = tiny_request();
        // Cold run on a fresh runner: the ground truth.
        let cold_runner = BatchRunner::new(8);
        let cold = cold_runner.run_one(&req).outcome.unwrap();
        // Separate runner: miss, then hit.
        let runner = BatchRunner::new(8);
        let miss = runner.run_one(&req);
        let hit = runner.run_one(&req);
        assert_eq!(miss.provenance, Provenance::Miss);
        assert_eq!(hit.provenance, Provenance::Hit);
        let hit_outcome = hit.outcome.unwrap();
        assert_eq!(
            hit_outcome.summary.as_bytes(),
            cold.summary.as_bytes(),
            "hit must serve exactly what a cold run computes"
        );
        assert_eq!(hit_outcome.cycles, cold.cycles);
        assert_eq!(runner.cache_stats().computes, 1);
    }

    #[test]
    fn duplicate_heavy_batch_computes_each_unique_request_once() {
        let braid = tiny_request();
        let planar = ScheduleRequest {
            backend: BackendKind::Planar,
            ..braid.clone()
        };
        let batch: Vec<ScheduleRequest> = [&braid, &planar, &braid, &planar, &braid, &braid]
            .into_iter()
            .cloned()
            .collect();
        let runner = BatchRunner::new(16);
        let out = runner.run(&batch);
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|r| r.outcome.is_ok()));
        // Order preserved.
        assert_eq!(
            out.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        let stats = runner.cache_stats();
        assert_eq!(stats.computes, 2, "two unique keys -> two computes");
        assert_eq!(stats.hits + stats.inflight_dedups, 4);
        assert!(stats.hit_rate() > 0.5);
        // Same key -> same Arc, same bytes.
        let b0 = out[0].outcome.as_ref().unwrap();
        let b2 = out[2].outcome.as_ref().unwrap();
        assert!(Arc::ptr_eq(b0, b2));
    }

    #[test]
    fn concurrent_identical_requests_single_flight_through_the_runner() {
        let req = tiny_request();
        let runner = BatchRunner::new(8);
        let responses: Vec<ScheduleResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| runner.run_one(&req)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runner.cache_stats().computes, 1);
        let summaries: Vec<&str> = responses
            .iter()
            .map(|r| r.outcome.as_ref().unwrap().summary.as_str())
            .collect();
        assert!(summaries.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn eviction_then_rerequest_recomputes_identically() {
        let a = tiny_request();
        let b = ScheduleRequest {
            policy: Policy::P0,
            ..a.clone()
        };
        let runner = BatchRunner::new(1); // room for exactly one schedule
        let first = runner.run_one(&a).outcome.unwrap();
        let _ = runner.run_one(&b); // evicts a
        let again = runner.run_one(&a);
        assert_eq!(again.provenance, Provenance::Miss, "a was evicted");
        assert_eq!(
            again.outcome.unwrap().summary,
            first.summary,
            "recompute after eviction must reproduce the evicted bytes"
        );
        let stats = runner.cache_stats();
        assert!(stats.evictions >= 2);
        assert_eq!(stats.computes, 3);
    }

    #[test]
    fn verified_braid_and_planar_requests_pass_certification() {
        let base = tiny_request();
        for backend in [BackendKind::Braid, BackendKind::Planar] {
            let req = ScheduleRequest {
                backend,
                verify: true,
                ..base.clone()
            };
            let out = BatchRunner::new(4).run_one(&req).outcome.unwrap();
            assert!(out.verified, "{backend}: expected a certified outcome");
        }
    }

    #[test]
    fn defected_requests_schedule_and_planar_reports_placement() {
        let req = ScheduleRequest {
            backend: BackendKind::Planar,
            defects: DefectSpec::Sampled {
                rate: 0.02,
                seed: 20702,
            },
            source: crate::request::RequestSource::Named {
                bench: Benchmark::Gse,
                scale: 0,
            },
            ..tiny_request()
        };
        let out = BatchRunner::new(4).run_one(&req).outcome.unwrap();
        assert!(
            !out.placement.is_empty(),
            "planar outcomes carry the placement"
        );
        assert!(out.summary.contains("planar"));
    }

    #[test]
    fn policy_and_distance_changes_reuse_the_cached_placement() {
        // P3 and P6 share the interaction-aware layout strategy, and
        // code distance never enters placement: the second request must
        // miss the schedule cache but skip the placement compute.
        let a = ScheduleRequest {
            policy: Policy::P3,
            ..tiny_request()
        };
        let b = ScheduleRequest {
            policy: Policy::P6,
            code_distance: 9,
            ..a.clone()
        };
        let runner = BatchRunner::new(8);
        let ra = runner.run_one(&a);
        let rb = runner.run_one(&b);
        assert_eq!(ra.provenance, Provenance::Miss);
        assert_eq!(
            rb.provenance,
            Provenance::Miss,
            "different policy/distance is a new schedule"
        );
        let p = runner.placement_stats();
        assert_eq!(p.computes, 1, "placement computed once for both");
        assert!(p.hits >= 1, "second request hit the placement cache");
        // The placement-cache path must serve exactly the bytes a cold
        // run (fresh runner, no warm placement) computes.
        let cold = BatchRunner::new(8).run_one(&b).outcome.unwrap();
        assert_eq!(
            rb.outcome.unwrap().summary.as_bytes(),
            cold.summary.as_bytes(),
            "placement reuse changed the schedule"
        );
    }

    #[test]
    fn distance_only_change_misses_schedule_cache_but_hits_placement() {
        let a = tiny_request();
        let b = ScheduleRequest {
            code_distance: 7,
            ..a.clone()
        };
        let runner = BatchRunner::new(8);
        let _ = runner.run_one(&a);
        let rb = runner.run_one(&b);
        assert_eq!(
            rb.provenance,
            Provenance::Miss,
            "distance changes the schedule key"
        );
        let p = runner.placement_stats();
        assert_eq!((p.computes, p.hits), (1, 1));
    }

    #[test]
    fn placement_cache_misses_on_defect_spec_and_circuit_changes() {
        let clean = tiny_request();
        let defected = ScheduleRequest {
            defects: DefectSpec::Sampled {
                rate: 0.01,
                seed: 7,
            },
            ..clean.clone()
        };
        let mut b = Circuit::builder("other", 4);
        b.h(0).cnot(0, 1).cnot(1, 2).cnot(2, 3);
        let other_circuit = ScheduleRequest::for_circuit(Arc::new(b.finish()));
        let runner = BatchRunner::new(8);
        let _ = runner.run_one(&clean);
        let _ = runner.run_one(&defected);
        let _ = runner.run_one(&other_circuit);
        let p = runner.placement_stats();
        assert_eq!(
            p.computes, 3,
            "defect-spec and circuit changes must each key a fresh placement"
        );
        assert_eq!(p.hits, 0);
    }

    #[test]
    fn planar_requests_never_touch_the_placement_cache() {
        let req = ScheduleRequest {
            backend: BackendKind::Planar,
            ..tiny_request()
        };
        let runner = BatchRunner::new(8);
        let _ = runner.run_one(&req).outcome.unwrap();
        let p = runner.placement_stats();
        assert_eq!((p.computes, p.hits, p.misses), (0, 0, 0));
    }

    #[test]
    fn schedule_errors_surface_identically_with_a_warm_placement_cache() {
        // A heavily defected braid request fails the same way whether
        // its placement was computed cold or served from the cache —
        // the placement cache must not perturb error surfacing.
        let req = ScheduleRequest {
            defects: DefectSpec::Sampled { rate: 0.9, seed: 3 },
            ..tiny_request()
        };
        let runner = BatchRunner::new(8);
        let cold = runner.run_one(&req);
        let warm = runner.run_one(&req);
        let cold_err = cold.outcome.expect_err("90% dead hardware schedules?");
        let warm_err = warm.outcome.expect_err("errors are never cached");
        assert_eq!(format!("{cold_err:?}"), format!("{warm_err:?}"));
        assert!(
            runner.placement_stats().hits >= 1,
            "the retry reused the placement artifact"
        );
    }

    #[test]
    fn unparsable_qasm_is_a_served_error_not_a_panic() {
        let req = ScheduleRequest {
            source: crate::request::RequestSource::Qasm {
                label: "bad.qasm".to_string(),
                text: "this is not qasm".to_string(),
            },
            ..tiny_request()
        };
        let resp = BatchRunner::new(4).run_one(&req);
        assert!(matches!(resp.outcome, Err(ServeError::Invalid(_))));
    }
}
