//! Route-aware EPR distribution: halves in flight on the real fabric.
//!
//! The flow-level pipeline ([`simulate_epr_distribution`]) prices an
//! EPR half's journey as `distance x hop_cycles` — links never
//! saturate, so congestion is invisible. This module replaces the
//! journey with a real one: each half is injected into the
//! [`scq_mesh::Fabric`] and traverses its dimension-ordered route hop
//! by hop, queueing FIFO at links whose swap lanes
//! ([`FabricEprConfig::link_capacity`]) are all busy.
//!
//! The split of responsibilities mirrors how the compiled machine
//! works:
//!
//! 1. **Planning** (compile time, flow level): launch times come from
//!    the same just-in-time recurrence as the legacy model — ideal use
//!    time, lookahead window, global swap-lane bandwidth — computed
//!    against *uncontended* travel estimates, because that is all a
//!    static scheduler can know.
//! 2. **Transit** (machine time, cycle level): every half physically
//!    traverses the fabric; saturated links delay it past its estimate.
//! 3. **Accounting**: teleports consume arrival *events*; each late
//!    arrival stalls its teleport and slips the schedule, exactly as in
//!    the legacy recurrence but with measured arrivals.
//!
//! Under unlimited link capacity measured arrivals equal the estimates,
//! so this simulator reproduces the legacy flow model *bit for bit* —
//! the differential oracle the proptest suite enforces. Under finite
//! capacity the gap between the two is precisely the contention the
//! paper's planar numbers were missing.

use scq_mesh::{
    CommError, Coord, DefectMap, EventQueue, Fabric, FabricConfig, HopRecord, LinkHeatmap, MsgId,
    Path, Topology,
};

use crate::pipeline::{
    account_arrivals, check_epr_inputs, plan_launches, DistributionPolicy, EprConfig,
    EprPipelineResult,
};

/// One teleport's communication demand, located on the machine: an EPR
/// half must travel from `src` (a factory tile) to `dst` (the consuming
/// data tile) by its ideal use time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EprRequest {
    /// Ideal timestep at which the teleport wants to fire.
    pub time: u64,
    /// Factory tile producing the pair.
    pub src: Coord,
    /// Data tile consuming it.
    pub dst: Coord,
}

/// Parameters of the route-aware EPR fabric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricEprConfig {
    /// Flow-level knobs (hop latency, global bandwidth, window slack).
    pub epr: EprConfig,
    /// Swap lanes per link — EPR halves concurrently crossing one tile
    /// boundary. [`scq_mesh::FabricConfig::UNLIMITED`] disables
    /// contention, collapsing the fabric onto the flow model.
    pub link_capacity: u32,
}

impl Default for FabricEprConfig {
    /// Flow defaults with four swap lanes per tile boundary.
    fn default() -> Self {
        FabricEprConfig {
            epr: EprConfig::default(),
            link_capacity: 4,
        }
    }
}

impl FabricEprConfig {
    /// A contention-free fabric over the given flow-level knobs — the
    /// differential-oracle configuration.
    pub fn unlimited(epr: EprConfig) -> Self {
        FabricEprConfig {
            epr,
            link_capacity: FabricConfig::UNLIMITED,
        }
    }
}

/// Result of one route-aware distribution run: the flow-comparable
/// pipeline metrics plus what only the fabric can measure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FabricEprResult {
    /// The §8.1 metrics, computed from *measured* arrivals.
    pub pipeline: EprPipelineResult,
    /// Total cycles EPR halves spent queued at saturated links.
    pub link_stall_cycles: u64,
    /// Peak simultaneously in-flight halves on the fabric.
    pub peak_in_flight: usize,
    /// Busy-cycles on the hottest link (congestion hot spot).
    pub hottest_link_busy_cycles: u64,
    /// Total route hops over all halves.
    pub total_route_hops: u64,
    /// Transient link faults absorbed by retry/backoff (0 on a clean
    /// fabric).
    pub transient_faults: u64,
    /// Per-link busy/stall snapshot of the whole run — the congestion
    /// signal the placement optimizer feeds on.
    pub heatmap: LinkHeatmap,
    /// Events the fabric processed (launches + hop completions +
    /// retries) — the denominator of `scale_report`'s events/sec.
    pub events_processed: u64,
    /// Peak pending events in the fabric's queue. Queue-implementation
    /// independent: a calendar-vs-heap A/B run must report the same
    /// depth.
    pub peak_event_queue: usize,
}

impl FabricEprResult {
    /// Fractional latency added by the schedule versus the ideal
    /// timeline (see [`EprPipelineResult::latency_overhead`]).
    pub fn latency_overhead(&self) -> f64 {
        self.pipeline.latency_overhead()
    }
}

/// A complete replayable record of one route-aware EPR run: the located
/// demand, the planned routes and launch cycles, the measured arrival
/// cycles, and every link traversal attempt on the fabric.
///
/// Produced by the `_traced` entry points (off the default hot path);
/// consumed by the independent certifier in `scq-verify`, which checks
/// lane-capacity conservation, hop timing, route conformance, and
/// defect avoidance from this transcript alone — sharing no claiming or
/// routing code with the simulation that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct EprTranscript {
    /// The fabric geometry the run used.
    pub topology: Topology,
    /// Swap lanes per link during the run.
    pub link_capacity: u32,
    /// Cycles per hop during the run.
    pub hop_cycles: u64,
    /// The located demand trace, in injection order.
    pub requests: Vec<EprRequest>,
    /// The planned route of each request (aligned with
    /// [`EprTranscript::requests`]).
    pub routes: Vec<Path>,
    /// The planned launch cycle of each request.
    pub launches: Vec<u64>,
    /// The measured arrival cycle of each request.
    pub arrivals: Vec<u64>,
    /// Every link traversal attempt, in completion order (message ids
    /// index [`EprTranscript::requests`]).
    pub hops: Vec<HopRecord>,
}

/// Simulates route-aware EPR distribution for a located demand trace on
/// a `topology`-shaped machine. See the module docs at the top of this file for the
/// three-phase model.
///
/// # Panics
///
/// Panics if demands are unsorted by time, any endpoint is off the
/// topology, the hop latency, bandwidth, or link capacity is zero, or
/// a `JustInTime` window is zero.
pub fn simulate_epr_on_fabric(
    requests: &[EprRequest],
    policy: DistributionPolicy,
    config: &FabricEprConfig,
    topology: Topology,
) -> FabricEprResult {
    let routes: Vec<Path> = requests
        .iter()
        .map(|r| topology.route_xy(r.src, r.dst))
        .collect();
    let fabric = Fabric::new(
        topology,
        FabricConfig {
            hop_cycles: config.epr.hop_cycles,
            link_capacity: config.link_capacity,
        },
    );
    run_epr_phases(requests, routes, policy, config, fabric)
}

/// [`simulate_epr_on_fabric`] on the `BinaryHeap`-backed event queue
/// instead of the default calendar queue. Produces a bit-identical
/// [`FabricEprResult`] (the ordering contract guarantees it; the scale
/// suite asserts it) — this entry point exists so `scale_report` can
/// race the two event cores on the same workload.
///
/// # Panics
///
/// As [`simulate_epr_on_fabric`].
pub fn simulate_epr_on_heap_fabric(
    requests: &[EprRequest],
    policy: DistributionPolicy,
    config: &FabricEprConfig,
    topology: Topology,
) -> FabricEprResult {
    let routes: Vec<Path> = requests
        .iter()
        .map(|r| topology.route_xy(r.src, r.dst))
        .collect();
    let fabric = Fabric::new_heap_backed(
        topology,
        FabricConfig {
            hop_cycles: config.epr.hop_cycles,
            link_capacity: config.link_capacity,
        },
    );
    run_epr_phases(requests, routes, policy, config, fabric)
}

/// Like [`simulate_epr_on_fabric`], additionally returning the full
/// [`EprTranscript`] of the run for independent certification. The
/// result is bit-identical to the untraced entry point; recording only
/// adds the transcript bookkeeping, so the default path stays hot.
///
/// # Panics
///
/// As [`simulate_epr_on_fabric`].
pub fn simulate_epr_on_fabric_traced(
    requests: &[EprRequest],
    policy: DistributionPolicy,
    config: &FabricEprConfig,
    topology: Topology,
) -> (FabricEprResult, EprTranscript) {
    let routes: Vec<Path> = requests
        .iter()
        .map(|r| topology.route_xy(r.src, r.dst))
        .collect();
    let fabric = Fabric::new(
        topology,
        FabricConfig {
            hop_cycles: config.epr.hop_cycles,
            link_capacity: config.link_capacity,
        },
    );
    let (result, transcript) = run_epr_phases_inner(requests, routes, policy, config, fabric, true);
    (result, transcript.expect("transcript was requested"))
}

/// Like [`simulate_epr_on_fabric_with_defects`], additionally returning
/// the full [`EprTranscript`] of the run for independent certification.
///
/// # Errors
///
/// As [`simulate_epr_on_fabric_with_defects`], plus
/// [`CommError::DefectMapMismatch`] when the map's topology differs
/// from `topology`.
pub fn simulate_epr_on_fabric_traced_with_defects(
    requests: &[EprRequest],
    policy: DistributionPolicy,
    config: &FabricEprConfig,
    topology: Topology,
    defects: &DefectMap,
    fault_seed: u64,
) -> Result<(FabricEprResult, EprTranscript), CommError> {
    if defects.is_empty() {
        return Ok(simulate_epr_on_fabric_traced(
            requests, policy, config, topology,
        ));
    }
    let routes = plan_defect_routes(requests, topology, defects)?;
    let fabric = Fabric::with_defects(
        topology,
        FabricConfig {
            hop_cycles: config.epr.hop_cycles,
            link_capacity: config.link_capacity,
        },
        defects,
        fault_seed,
    );
    let (result, transcript) = run_epr_phases_inner(requests, routes, policy, config, fabric, true);
    Ok((result, transcript.expect("transcript was requested")))
}

/// Defect-avoiding route planning shared by the traced and untraced
/// defect-aware entry points: checks the map's shape, then detours each
/// request around dead resources.
fn plan_defect_routes(
    requests: &[EprRequest],
    topology: Topology,
    defects: &DefectMap,
) -> Result<Vec<Path>, CommError> {
    if defects.topology() != topology {
        return Err(CommError::DefectMapMismatch {
            map: (defects.topology().width(), defects.topology().height()),
            expected: (topology.width(), topology.height()),
        });
    }
    let mut routes = Vec::with_capacity(requests.len());
    for r in requests {
        match defects.route_avoiding(r.src, r.dst) {
            Some(p) => routes.push(p),
            None => {
                return Err(CommError::Unroutable {
                    src: r.src,
                    dst: r.dst,
                })
            }
        }
    }
    Ok(routes)
}

/// Like [`simulate_epr_on_fabric`], but on a defect-laden machine:
/// routes detour around the map's dead tiles and links (falling back to
/// BFS when the dimension-ordered L-route is blocked), and flaky links
/// inject seeded transient faults — a failed hop re-establishes its
/// entanglement swap after a bounded backoff (see
/// [`Fabric::with_defects`]), counted in the stats and the heatmap.
///
/// With an empty map this is exactly [`simulate_epr_on_fabric`] —
/// bit-identical results.
///
/// # Errors
///
/// Returns [`CommError::Unroutable`] (naming the cut endpoints) when a
/// request has no defect-free route, or
/// [`CommError::DefectMapMismatch`] when the map's topology differs
/// from `topology`.
///
/// # Panics
///
/// As [`simulate_epr_on_fabric`].
pub fn simulate_epr_on_fabric_with_defects(
    requests: &[EprRequest],
    policy: DistributionPolicy,
    config: &FabricEprConfig,
    topology: Topology,
    defects: &DefectMap,
    fault_seed: u64,
) -> Result<FabricEprResult, CommError> {
    if defects.is_empty() {
        return Ok(simulate_epr_on_fabric(requests, policy, config, topology));
    }
    let routes = plan_defect_routes(requests, topology, defects)?;
    let fabric = Fabric::with_defects(
        topology,
        FabricConfig {
            hop_cycles: config.epr.hop_cycles,
            link_capacity: config.link_capacity,
        },
        defects,
        fault_seed,
    );
    Ok(run_epr_phases(requests, routes, policy, config, fabric))
}

/// The shared three-phase engine behind the pristine and defect-aware
/// entry points: plan launches from uncontended route estimates, fly
/// every half through the given fabric, account measured arrivals.
fn run_epr_phases<Q: EventQueue<MsgId>>(
    requests: &[EprRequest],
    routes: Vec<Path>,
    policy: DistributionPolicy,
    config: &FabricEprConfig,
    fabric: Fabric<Q>,
) -> FabricEprResult {
    run_epr_phases_inner(requests, routes, policy, config, fabric, false).0
}

/// [`run_epr_phases`] with optional transcript recording: `record`
/// keeps the planned routes/launches, measured arrivals, and the
/// fabric's hop log alongside the result.
fn run_epr_phases_inner<Q: EventQueue<MsgId>>(
    requests: &[EprRequest],
    routes: Vec<Path>,
    policy: DistributionPolicy,
    config: &FabricEprConfig,
    mut fabric: Fabric<Q>,
    record: bool,
) -> (FabricEprResult, Option<EprTranscript>) {
    let times: Vec<u64> = requests.iter().map(|r| r.time).collect();
    check_epr_inputs(&times, policy, config.epr.bandwidth);
    if record {
        fabric.record_hops();
    }
    let kept_routes = record.then(|| routes.clone());

    // Phase 1: plan launches at the flow level (uncontended estimates).
    let total_route_hops: u64 = routes.iter().map(|r| r.len_hops() as u64).sum();
    let timed: Vec<(u64, u64)> = requests
        .iter()
        .zip(&routes)
        .map(|(r, route)| (r.time, route.len_hops() as u64 * config.epr.hop_cycles))
        .collect();
    let plan = plan_launches(
        &timed,
        policy,
        config.epr.bandwidth,
        config.epr.lead_slack_cycles,
    );

    // Phase 2: fly every half through the fabric.
    let ids: Vec<_> = routes
        .into_iter()
        .zip(&plan)
        .map(|(route, &(launch, _))| fabric.inject(route, launch))
        .collect();
    fabric.run_to_completion();

    // Phase 3: teleports consume the measured arrival events.
    let measured: Vec<(u64, u64)> = ids
        .iter()
        .zip(&plan)
        .map(|(&id, &(launch, _))| {
            (
                launch,
                fabric
                    .arrival_time(id)
                    .expect("drained fabric delivered every half"),
            )
        })
        .collect();
    let pipeline = account_arrivals(&times, &measured, config.epr.teleport_cycles);

    let stats = fabric.stats();
    let transcript = kept_routes.map(|routes| EprTranscript {
        topology: fabric.topology(),
        link_capacity: config.link_capacity,
        hop_cycles: config.epr.hop_cycles,
        requests: requests.to_vec(),
        routes,
        launches: plan.iter().map(|&(launch, _)| launch).collect(),
        arrivals: measured.iter().map(|&(_, arrival)| arrival).collect(),
        hops: fabric.hop_records().to_vec(),
    });
    let result = FabricEprResult {
        pipeline,
        link_stall_cycles: stats.link_stall_cycles,
        peak_in_flight: stats.peak_in_flight,
        hottest_link_busy_cycles: fabric.hottest_link_busy_cycles(),
        total_route_hops,
        transient_faults: stats.transient_faults,
        heatmap: fabric.heatmap(),
        events_processed: stats.events_processed,
        peak_event_queue: stats.peak_event_queue,
    };
    (result, transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{simulate_epr_distribution, EprDemand};

    /// Requests along disjoint rows with the given hop distances.
    fn row_requests(times_distances: &[(u64, u32)], topo: Topology) -> Vec<EprRequest> {
        times_distances
            .iter()
            .enumerate()
            .map(|(i, &(time, d))| EprRequest {
                time,
                src: Coord::new(0, i as u32 % topo.height()),
                dst: Coord::new(d, i as u32 % topo.height()),
            })
            .collect()
    }

    #[test]
    fn unlimited_fabric_matches_flow_oracle() {
        let topo = Topology::new(16, 4);
        let trace: Vec<(u64, u32)> = (0..60).map(|i| (30 + i * 2, 3 + (i as u32 % 9))).collect();
        let requests = row_requests(&trace, topo);
        let demands: Vec<EprDemand> = trace
            .iter()
            .map(|&(time, distance)| EprDemand { time, distance })
            .collect();
        let epr = EprConfig::default();
        for policy in [
            DistributionPolicy::EagerPrefetch,
            DistributionPolicy::JustInTime { window: 1 },
            DistributionPolicy::JustInTime { window: 8 },
            DistributionPolicy::JustInTime { window: 64 },
        ] {
            let flow = simulate_epr_distribution(&demands, policy, &epr);
            let fabric =
                simulate_epr_on_fabric(&requests, policy, &FabricEprConfig::unlimited(epr), topo);
            assert_eq!(fabric.pipeline, flow, "{policy:?}");
            assert_eq!(fabric.link_stall_cycles, 0);
        }
    }

    #[test]
    fn saturated_link_adds_measurable_latency() {
        let topo = Topology::new(10, 1);
        // Every request crosses the same 9-link row at once.
        let requests: Vec<EprRequest> = (0..16)
            .map(|_| EprRequest {
                time: 40,
                src: Coord::new(0, 0),
                dst: Coord::new(9, 0),
            })
            .collect();
        let epr = EprConfig::default();
        let free = simulate_epr_on_fabric(
            &requests,
            DistributionPolicy::JustInTime { window: 64 },
            &FabricEprConfig::unlimited(epr),
            topo,
        );
        let tight = simulate_epr_on_fabric(
            &requests,
            DistributionPolicy::JustInTime { window: 64 },
            &FabricEprConfig {
                epr,
                link_capacity: 1,
            },
            topo,
        );
        assert_eq!(free.link_stall_cycles, 0);
        assert!(tight.link_stall_cycles > 0);
        assert!(tight.pipeline.total_stall_cycles >= free.pipeline.total_stall_cycles);
        assert!(tight.pipeline.makespan > free.pipeline.makespan);
        assert!(tight.hottest_link_busy_cycles >= free.hottest_link_busy_cycles);
        // The heatmap is the per-link decomposition of the aggregates.
        assert_eq!(tight.heatmap.total_stall_cycles(), tight.link_stall_cycles);
        assert_eq!(
            tight.heatmap.hottest_link_busy_cycles(),
            tight.hottest_link_busy_cycles
        );
        assert_eq!(free.heatmap.total_stall_cycles(), 0);
    }

    #[test]
    fn zero_hop_requests_are_legal() {
        let topo = Topology::new(4, 4);
        let requests = [EprRequest {
            time: 5,
            src: Coord::new(2, 2),
            dst: Coord::new(2, 2),
        }];
        let r = simulate_epr_on_fabric(
            &requests,
            DistributionPolicy::EagerPrefetch,
            &FabricEprConfig::default(),
            topo,
        );
        assert_eq!(r.total_route_hops, 0);
        assert_eq!(r.pipeline.total_stall_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_requests_rejected() {
        let topo = Topology::new(4, 4);
        let requests = [
            EprRequest {
                time: 9,
                src: Coord::new(0, 0),
                dst: Coord::new(1, 0),
            },
            EprRequest {
                time: 2,
                src: Coord::new(0, 1),
                dst: Coord::new(1, 1),
            },
        ];
        let _ = simulate_epr_on_fabric(
            &requests,
            DistributionPolicy::EagerPrefetch,
            &FabricEprConfig::default(),
            topo,
        );
    }
}
