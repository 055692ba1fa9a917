//! Per-layer metrics of a traced run. Layers are named after the
//! program's crates; every workload reports every metric, with zeros
//! for layers its requests never reach.

use std::collections::BTreeSet;

use scq_apps::Benchmark;
use scq_braid::BraidSchedule;
use scq_serve::CacheStats;
use scq_teleport::PlanarSchedule;

use crate::metrics::{metric, Metric};
use crate::span::Tracer;

/// Exact work counts gathered from the traced run's engine results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerCounts {
    /// Braid legs placed.
    pub braids_placed: u64,
    /// Hops over all placed braid legs.
    pub total_braid_hops: u64,
    /// Braid legs routed adaptively after timeouts.
    pub adaptive_routes: u64,
    /// Braids dropped and re-injected.
    pub drops: u64,
    /// Teleports served by the EPR fabric.
    pub teleports: u64,
    /// Link stall cycles of the EPR fabric.
    pub link_stall_cycles: u64,
    /// Largest number of EPR halves in flight in any planar schedule.
    pub peak_in_flight_eprs: u64,
    /// Transient hop faults injected on flaky links.
    pub transient_faults: u64,
    /// Schedules certified clean.
    pub certified: u64,
    /// Applications `AppProfile::calibrate` ran for.
    pub calibrated_apps: BTreeSet<Benchmark>,
}

impl LayerCounts {
    /// Adds one braid schedule's counters.
    pub fn add_braid(&mut self, s: &BraidSchedule) {
        self.braids_placed += s.braids_placed;
        self.total_braid_hops += s.total_braid_hops;
        self.adaptive_routes += s.adaptive_routes;
        self.drops += s.drops;
    }

    /// Adds one planar schedule's counters.
    pub fn add_planar(&mut self, s: &PlanarSchedule) {
        self.teleports += s.epr.teleports as u64;
        self.link_stall_cycles += s.link_stall_cycles;
        self.peak_in_flight_eprs = self.peak_in_flight_eprs.max(s.peak_in_flight_eprs as u64);
        self.transient_faults += s.transient_faults;
    }
}

/// Serving-layer results of a traced `sweep` or `repeat` pass.
#[derive(Clone, Debug, Default)]
pub struct ServeCounts {
    /// Schedule-cache counters (`BatchRunner::cache_stats`).
    pub cache: CacheStats,
    /// Placement-cache counters (`BatchRunner::placement_stats`).
    pub placement: CacheStats,
    /// Refused requests that recomputed an already-failed key.
    pub error_recomputes: u64,
    /// Refusals naming a dead anchor or a cut route.
    pub err_unroutable: u64,
    /// Refusals naming too few live cells for the planar floorplan.
    pub err_unplaceable: u64,
    /// Refusals from failed certification.
    pub err_certification: u64,
}

/// Time not covered by the replayed calls inside each request.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTimes {
    /// Untraced `run_toolflow` time minus the replayed calls (toolflow).
    pub core_s: f64,
    /// The runner's own time on hits and computed schedules, from its
    /// response timings (sweep, repeat; see `serve_wl::serve_self_secs`).
    pub serve_s: f64,
    /// Traced `latency_p50_s` minus the untraced one.
    pub trace_overhead_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, from the traced run's spans and counts.
pub fn per_layer(
    tr: &Tracer,
    counts: &LayerCounts,
    serve: &ServeCounts,
    own: SelfTimes,
) -> Vec<Metric> {
    let totals = tr.totals();
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
    let c = &serve.cache;
    let p = &serve.placement;
    vec![
        metric("estimate.calibrate_s", secs("estimate.calibrate"), "s"),
        metric(
            "estimate.calibrate_calls",
            calls("estimate.calibrate"),
            "count",
        ),
        metric(
            "estimate.calibrate_repeat_ratio",
            ratio(
                calls("estimate.calibrate"),
                counts.calibrated_apps.len() as f64,
            ),
            "ratio",
        ),
        metric(
            "estimate.estimate_both_s",
            secs("estimate.estimate_both"),
            "s",
        ),
        metric("braid.schedule_s", secs("braid.schedule"), "s"),
        metric("braid.braids_placed", counts.braids_placed as f64, "count"),
        metric(
            "braid.total_braid_hops",
            counts.total_braid_hops as f64,
            "count",
        ),
        metric(
            "braid.adaptive_routes",
            counts.adaptive_routes as f64,
            "count",
        ),
        metric("braid.drops", counts.drops as f64, "count"),
        metric(
            "braid.adaptive_ratio",
            ratio(counts.adaptive_routes as f64, counts.braids_placed as f64),
            "ratio",
        ),
        metric(
            "teleport.schedule_planar_s",
            secs("teleport.schedule_planar"),
            "s",
        ),
        metric("teleport.teleports", counts.teleports as f64, "count"),
        metric(
            "teleport.link_stall_cycles",
            counts.link_stall_cycles as f64,
            "cycles",
        ),
        metric(
            "teleport.peak_in_flight_eprs",
            counts.peak_in_flight_eprs as f64,
            "count",
        ),
        metric(
            "teleport.transient_faults",
            counts.transient_faults as f64,
            "count",
        ),
        metric("verify.certify_braid_s", secs("verify.certify_braid"), "s"),
        metric(
            "verify.certify_planar_s",
            secs("verify.certify_planar"),
            "s",
        ),
        metric("verify.certified", counts.certified as f64, "count"),
        metric("layout.place_s", secs("layout.place"), "s"),
        metric("layout.place_calls", calls("layout.place"), "count"),
        metric("apps.generate_s", secs("apps.generate"), "s"),
        metric("apps.generate_calls", calls("apps.generate"), "count"),
        metric("ir.dag_s", secs("ir.dag"), "s"),
        metric("ir.analyze_s", secs("ir.analyze"), "s"),
        metric("ir.interaction_graph_s", secs("ir.interaction_graph"), "s"),
        metric("serve.normalize_s", secs("serve.normalize"), "s"),
        metric("serve.run_s", secs("serve.run"), "s"),
        metric("serve.self_s", own.serve_s, "s"),
        metric("serve.hits", c.hits as f64, "count"),
        metric("serve.misses", c.misses as f64, "count"),
        metric("serve.inflight_dedups", c.inflight_dedups as f64, "count"),
        metric("serve.computes", c.computes as f64, "count"),
        metric("serve.evictions", c.evictions as f64, "count"),
        metric("serve.hit_rate", c.hit_rate(), "ratio"),
        metric(
            "serve.placement_hits",
            (p.hits + p.inflight_dedups) as f64,
            "count",
        ),
        metric("serve.placement_computes", p.computes as f64, "count"),
        metric(
            "serve.error_recomputes",
            serve.error_recomputes as f64,
            "count",
        ),
        metric("serve.err_unroutable", serve.err_unroutable as f64, "count"),
        metric(
            "serve.err_unplaceable",
            serve.err_unplaceable as f64,
            "count",
        ),
        metric(
            "serve.err_certification",
            serve.err_certification as f64,
            "count",
        ),
        metric("core.self_s", own.core_s, "s"),
        metric("trace.overhead_s", own.trace_overhead_s, "s"),
    ]
}
