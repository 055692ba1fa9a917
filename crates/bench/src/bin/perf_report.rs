//! Scheduler performance trajectory: times the event-driven engine
//! against the retained naive-stepping reference on the full Figure 6
//! (workload × policy) grid and writes `BENCH_sched.json`, then does
//! the same for the EPR side — route-aware fabric vs legacy flow model
//! — and writes `BENCH_epr.json`.
//!
//! Every braid point asserts bit-identical schedules before timing
//! counts, and every EPR point asserts the unlimited-capacity fabric
//! matches the flow oracle exactly, so the reported numbers are for
//! *the same answer*. Every timed engine point is the median of three
//! runs (`runs_per_point` in the JSON) so a one-off scheduler hiccup
//! cannot masquerade as a regression. The `adaptive_route` section
//! races the braid engine's adaptive-route BFS kernel against the
//! textbook oracle in `scq-bench` on one congested mesh, after
//! asserting identical routes. Fast-engine points are measured
//! sequentially (stable wall-clocks), then re-run in parallel once to
//! report the fan-out wall-clock of the whole grid.

#![warn(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

use scq_bench::{
    congested_mesh, fig6_workloads, parallel_map, route_adaptive_oracle, run_planar_on_defects,
    run_policy, run_policy_on_defects, run_policy_reference, timed_median3,
};
use scq_braid::{schedule_traced, BraidConfig, Policy};
use scq_core::{run_toolflow_timed, ToolflowConfig};
use scq_ir::{DependencyDag, InteractionGraph};
use scq_layout::place;
use scq_mesh::{ClaimId, Coord, Path, RouteScratch};
use scq_teleport::{
    schedule_planar, schedule_planar_traced, schedule_simd, simulate_epr_distribution,
    simulate_epr_on_fabric, CongestionAwarePlacement, DistributionPolicy, EprConfig, EprDemand,
    FabricEprConfig, PlanarConfig, PlanarMachine, SimdConfig,
};
use scq_verify::{certify_braid_trace, certify_planar_schedule};

/// Writes a regenerated report, or exits nonzero with a diagnostic —
/// an unwritable working directory must not panic the toolflow.
fn write_report(path: &str, json: &str) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: {}", scq_ir::CliError::io(path, &e));
        std::process::exit(1);
    }
    println!("\nwrote {path}");
}

const CODE_DISTANCE: u32 = 5;
/// Timed runs per engine point; the median is reported.
const RUNS_PER_POINT: usize = 3;
/// Swap lanes per link for the constrained-fabric EPR points.
const EPR_LANES: u32 = 2;
/// Dead-resource rate for the degradation study (paper comparison on
/// non-ideal hardware).
const DEFECT_RATE: f64 = 0.02;
/// Seed for defect sampling and transient-fault draws — fixed so
/// `BENCH_epr.json` is machine-independent.
const DEFECT_SEED: u64 = 20702;
/// Committed ceiling on the makespan inflation any degradation row may
/// show at [`DEFECT_RATE`]; `bench_guard` fails when a regenerated row
/// exceeds it.
const DEGRADATION_ENVELOPE: f64 = 8.0;
/// The standard pipeline's stages, in execution order — the keys of the
/// cold `pass_secs` and warm `pass_secs_warm` sections (`bench_guard`
/// checks all of them).
const PASS_NAMES: [&str; 7] = [
    "normalize-ir",
    "code-distance",
    "interaction-analysis",
    "layout",
    "braid-schedule",
    "planar-schedule",
    "estimate",
];

/// Side of the congested mesh of the `adaptive_route` section, in
/// routers (the braid mesh of SHA-1 at scale 1).
const ROUTE_MESH_SIDE: u32 = 41;
/// Adaptive searches timed per side of the `adaptive_route` race.
const ROUTE_SEARCHES: usize = 2000;

/// The `adaptive_route` section: the same searches through the kernel
/// and through the oracle.
struct RouteRace {
    searches: usize,
    found: usize,
    kernel_secs: f64,
    naive_secs: f64,
}

impl RouteRace {
    fn speedup(&self) -> f64 {
        self.naive_secs / self.kernel_secs.max(1e-12)
    }
}

struct Point {
    app: &'static str,
    policy: usize,
    cycles: u64,
    fast_secs: f64,
    ref_secs: f64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.ref_secs / self.fast_secs.max(1e-12)
    }

    fn cycles_per_sec_fast(&self) -> f64 {
        self.cycles as f64 / self.fast_secs.max(1e-12)
    }
}

fn main() {
    let workloads = fig6_workloads();
    let mut points = Vec::new();
    for (bench, circuit) in &workloads {
        for &policy in &Policy::ALL {
            let (fast, fast_secs) = timed_median3(|| run_policy(circuit, policy, CODE_DISTANCE));
            let (naive, ref_secs) =
                timed_median3(|| run_policy_reference(circuit, policy, CODE_DISTANCE));
            assert_eq!(fast, naive, "{} {policy}: engines diverged", bench.name());
            points.push(Point {
                app: bench.name(),
                policy: policy.index(),
                cycles: fast.cycles,
                fast_secs,
                ref_secs,
            });
        }
    }

    // Grid wall-clock with the parallel driver (fast engine only).
    let grid: Vec<(usize, Policy)> = (0..workloads.len())
        .flat_map(|w| Policy::ALL.iter().map(move |&p| (w, p)))
        .collect();
    let t0 = Instant::now();
    let _ = parallel_map(&grid, |&(w, policy)| {
        run_policy(&workloads[w].1, policy, CODE_DISTANCE)
    });
    let parallel_grid_secs = t0.elapsed().as_secs_f64();

    // Certifier wall-time over the same grid: emit every traced braid
    // schedule first (untimed), then time only the independent replay,
    // so the figure is the cost of *verification*, not of scheduling
    // twice. Certification stays off the hot path — the guarded
    // fast/ref timings above never run it.
    let traced: Vec<_> = grid
        .iter()
        .map(|&(w, policy)| {
            let circuit = &workloads[w].1;
            let dag = DependencyDag::from_circuit(circuit);
            let graph = InteractionGraph::from_circuit(circuit);
            let layout = place(&graph, policy.layout_strategy(), None);
            let config = BraidConfig {
                policy,
                code_distance: CODE_DISTANCE,
                ..Default::default()
            };
            let (_, trace) = schedule_traced(circuit, &dag, &layout, &config).unwrap_or_else(|e| {
                eprintln!("error: fig6 workload failed to schedule: {e}");
                std::process::exit(1)
            });
            (w, dag, trace)
        })
        .collect();
    let t0 = Instant::now();
    for (w, dag, trace) in &traced {
        let findings = certify_braid_trace(trace, &workloads[*w].1, dag, None);
        assert!(
            findings.is_empty(),
            "{}: braid trace failed certification: {findings:?}",
            workloads[*w].0.name()
        );
    }
    let certify_secs = t0.elapsed().as_secs_f64();

    // Per-pass wall clock of the artifact pipeline. The first sweep is
    // cold: it pays each app's profile calibration. The second, in the
    // same process, runs on the memoized profiles. `bench_guard` asserts
    // every stage of both is present and non-negative, and that the
    // warm `estimate` stage costs at most a tenth of the cold one.
    let pass_secs = pass_breakdown(&workloads);
    let pass_secs_warm = pass_breakdown(&workloads);
    let race = route_race();

    let total_fast: f64 = points.iter().map(|p| p.fast_secs).sum();
    let total_ref: f64 = points.iter().map(|p| p.ref_secs).sum();
    let geomean_speedup =
        (points.iter().map(|p| p.speedup().ln()).sum::<f64>() / points.len() as f64).exp();

    println!(
        "Scheduler perf report (d = {CODE_DISTANCE}, fig6 grid, {} points, median of \
         {RUNS_PER_POINT} runs)",
        points.len()
    );
    println!();
    println!(
        "{:<10} {:>6} {:>10} {:>12} {:>12} {:>9} {:>14}",
        "app", "policy", "cycles", "fast", "reference", "speedup", "cycles/s fast"
    );
    for p in &points {
        println!(
            "{:<10} {:>6} {:>10} {:>11.3}ms {:>11.3}ms {:>8.1}x {:>14.2e}",
            p.app,
            format!("P{}", p.policy),
            p.cycles,
            p.fast_secs * 1e3,
            p.ref_secs * 1e3,
            p.speedup(),
            p.cycles_per_sec_fast(),
        );
    }
    println!();
    println!(
        "grid totals: fast {:.1}ms, reference {:.1}ms, aggregate speedup {:.1}x, geomean {:.1}x",
        total_fast * 1e3,
        total_ref * 1e3,
        total_ref / total_fast.max(1e-12),
        geomean_speedup
    );
    println!(
        "parallel grid wall-clock (fast engine): {:.1}ms",
        parallel_grid_secs * 1e3
    );
    println!(
        "grid certification wall-clock (scq-verify replay): {:.1}ms",
        certify_secs * 1e3
    );
    println!(
        "adaptive-route BFS ({ROUTE_MESH_SIDE}x{ROUTE_MESH_SIDE} congested mesh, {} searches, \
         {} found): kernel {:.3}ms, textbook oracle {:.3}ms, speedup {:.1}x",
        race.searches,
        race.found,
        race.kernel_secs * 1e3,
        race.naive_secs * 1e3,
        race.speedup()
    );
    println!("\npipeline pass breakdown (summed over the fig6 apps):");
    println!("  {:<20} {:>11} {:>11}", "pass", "cold", "warm");
    for ((name, cold), warm) in PASS_NAMES.iter().zip(&pass_secs).zip(&pass_secs_warm) {
        println!("  {name:<20} {:>9.3}ms {:>9.3}ms", cold * 1e3, warm * 1e3);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"code_distance\": {CODE_DISTANCE},");
    let _ = writeln!(json, "  \"runs_per_point\": {RUNS_PER_POINT},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"policy\": {}, \"cycles\": {}, \"fast_secs\": {:.6}, \"ref_secs\": {:.6}, \"speedup\": {:.2}, \"cycles_per_sec_fast\": {:.3e}}}{comma}",
            p.app, p.policy, p.cycles, p.fast_secs, p.ref_secs, p.speedup(), p.cycles_per_sec_fast()
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"total_fast_secs\": {total_fast:.6},");
    let _ = writeln!(json, "  \"total_ref_secs\": {total_ref:.6},");
    let _ = writeln!(
        json,
        "  \"aggregate_speedup\": {:.2},",
        total_ref / total_fast.max(1e-12)
    );
    let _ = writeln!(json, "  \"geomean_speedup\": {geomean_speedup:.2},");
    let _ = writeln!(json, "  \"parallel_grid_secs\": {parallel_grid_secs:.6},");
    for (key, secs) in [
        ("pass_secs", &pass_secs),
        ("pass_secs_warm", &pass_secs_warm),
    ] {
        let _ = writeln!(json, "  \"{key}\": {{");
        for (i, (name, s)) in PASS_NAMES.iter().zip(secs).enumerate() {
            let comma = if i + 1 < PASS_NAMES.len() { "," } else { "" };
            let _ = writeln!(json, "    \"{name}\": {s:.6}{comma}");
        }
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(
        json,
        "  \"adaptive_route\": {{\"mesh_side\": {ROUTE_MESH_SIDE}, \"searches\": {}, \"found\": {}, \"kernel_secs\": {:.6}, \"naive_secs\": {:.6}, \"speedup\": {:.2}}},",
        race.searches,
        race.found,
        race.kernel_secs,
        race.naive_secs,
        race.speedup()
    );
    let _ = writeln!(json, "  \"certify_secs\": {certify_secs:.6}");
    json.push('}');
    json.push('\n');
    write_report("BENCH_sched.json", &json);

    epr_report(&workloads);
}

/// Races [`scq_mesh::Mesh::route_adaptive_into`] against the textbook
/// oracle on a fixed congested mesh: [`ROUTE_SEARCHES`] searches between routers
/// free for the searching owner (one of the three claim owners, or an
/// owner holding nothing), so every search floods; some reach `dst`
/// and some are walled in. Asserts both sides return the same route
/// for every search before timing either, median of three per side.
fn route_race() -> RouteRace {
    let side = ROUTE_MESH_SIDE;
    let mesh = congested_mesh(side, side, 700, 10, 3, 0.0, 41);
    // Fibonacci hashing of a counter: a fixed, well-spread router
    // sequence.
    let mut draw = 0u64;
    let mut pick = |owner: ClaimId| loop {
        draw += 1;
        let v = draw.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let c = Coord::new(
            (v % u64::from(side)) as u32,
            (v / u64::from(side) % u64::from(side)) as u32,
        );
        if mesh.is_path_free(&Path::new(vec![c]), owner) {
            return c;
        }
    };
    let searches: Vec<(Coord, Coord, ClaimId)> = (0..ROUTE_SEARCHES)
        .map(|i| {
            let owner = (i % 4) as ClaimId;
            (pick(owner), pick(owner), owner)
        })
        .collect();
    let mut scratch = RouteScratch::new();
    let mut out = Path::empty();
    let mut found = 0;
    for &(src, dst, owner) in &searches {
        let hit = mesh.route_adaptive_into(src, dst, owner, &mut scratch, &mut out);
        let oracle = route_adaptive_oracle(&mesh, src, dst, owner);
        assert_eq!(
            hit.then(|| out.nodes().to_vec()),
            oracle.map(|p| p.nodes().to_vec()),
            "adaptive-route kernel diverged from the oracle on {src} -> {dst} for owner {owner}"
        );
        found += usize::from(hit);
    }
    let (_, kernel_secs) = timed_median3(|| {
        searches
            .iter()
            .filter(|&&(src, dst, owner)| {
                mesh.route_adaptive_into(src, dst, owner, &mut scratch, &mut out)
            })
            .count()
    });
    let (_, naive_secs) = timed_median3(|| {
        searches
            .iter()
            .filter(|&&(src, dst, owner)| route_adaptive_oracle(&mesh, src, dst, owner).is_some())
            .count()
    });
    RouteRace {
        searches: searches.len(),
        found,
        kernel_secs,
        naive_secs,
    }
}

/// Per-pass wall clock of one timed toolflow run per fig6 app at the
/// report's pinned distance, summed per stage in [`PASS_NAMES`] order.
fn pass_breakdown(workloads: &[(scq_apps::Benchmark, scq_ir::Circuit)]) -> Vec<f64> {
    let mut pass_secs = vec![0.0f64; PASS_NAMES.len()];
    for (bench, _) in workloads {
        let config = ToolflowConfig {
            code_distance: Some(CODE_DISTANCE),
            ..Default::default()
        };
        let (_, trace) = run_toolflow_timed(*bench, &config).unwrap_or_else(|e| {
            eprintln!("error: {}: timed toolflow failed: {e}", bench.name());
            std::process::exit(1)
        });
        for t in &trace.timings {
            match PASS_NAMES.iter().position(|n| *n == t.pass) {
                Some(slot) => pass_secs[slot] += t.duration.as_secs_f64(),
                None => {
                    eprintln!("error: pipeline emitted unknown pass `{}`", t.pass);
                    std::process::exit(1)
                }
            }
        }
    }
    pass_secs
}

/// One EPR point: an application's Multi-SIMD demand trace run through
/// the legacy flow model, the unlimited-capacity fabric (asserted equal
/// — the differential oracle), and the constrained fabric (the
/// contention the flow model cannot see).
struct EprPoint {
    app: &'static str,
    teleports: usize,
    flow_secs: f64,
    fabric_secs: f64,
    makespan_free: u64,
    makespan_constrained: u64,
    link_stall_cycles: u64,
    peak_in_flight: usize,
}

/// One placement-ablation point: the constrained fabric scheduled on
/// the baseline row-major floorplan versus the congestion-aware
/// profile-then-place floorplan (same demand trace, same lanes).
struct PlacementPoint {
    app: &'static str,
    baseline_makespan: u64,
    optimized_makespan: u64,
    baseline_lane_stalls: u64,
    optimized_lane_stalls: u64,
    moves_accepted: usize,
    evaluations: usize,
    place_secs: f64,
}

impl EprPoint {
    /// Fractional latency added purely by link contention.
    fn contention_added(&self) -> f64 {
        self.makespan_constrained as f64 / self.makespan_free.max(1) as f64 - 1.0
    }
}

/// One degradation row: a fig6 application on one backend, clean versus
/// 2%-defective hardware (same seed for sampling and transient faults).
struct DegradationPoint {
    app: &'static str,
    backend: &'static str,
    clean_makespan: u64,
    /// Degraded makespan, or the structured diagnostic when the
    /// defects cut the machine apart.
    outcome: Result<u64, String>,
}

impl DegradationPoint {
    fn multiplier(&self) -> Option<f64> {
        self.outcome
            .as_ref()
            .ok()
            .map(|&m| m as f64 / self.clean_makespan.max(1) as f64)
    }
}

/// Runs the (defect-rate x app) degradation study on both backends.
/// Every row either completes with a bounded multiplier or reports a
/// structured unroutable diagnostic — a panic or hang here is a bug.
fn degradation_report(
    workloads: &[(scq_apps::Benchmark, scq_ir::Circuit)],
) -> Vec<DegradationPoint> {
    let grid: Vec<(usize, &'static str)> = (0..workloads.len())
        .flat_map(|w| ["braid", "teleport"].into_iter().map(move |b| (w, b)))
        .collect();
    parallel_map(&grid, |&(w, backend)| {
        let (bench, circuit) = &workloads[w];
        match backend {
            "braid" => {
                let clean = run_policy(circuit, Policy::P6, CODE_DISTANCE).cycles;
                let outcome = run_policy_on_defects(
                    circuit,
                    Policy::P6,
                    CODE_DISTANCE,
                    DEFECT_RATE,
                    DEFECT_SEED,
                )
                .map(|s| s.cycles)
                .map_err(|e| e.to_string());
                DegradationPoint {
                    app: bench.name(),
                    backend,
                    clean_makespan: clean,
                    outcome,
                }
            }
            _ => {
                let dag = DependencyDag::from_circuit(circuit);
                let clean = schedule_planar(
                    circuit,
                    &dag,
                    &PlanarConfig {
                        code_distance: CODE_DISTANCE,
                        ..Default::default()
                    },
                )
                .cycles;
                let outcome =
                    run_planar_on_defects(circuit, CODE_DISTANCE, DEFECT_RATE, DEFECT_SEED)
                        .map(|s| s.cycles)
                        .map_err(|e| e.to_string());
                DegradationPoint {
                    app: bench.name(),
                    backend,
                    clean_makespan: clean,
                    outcome,
                }
            }
        }
    })
}

fn epr_report(workloads: &[(scq_apps::Benchmark, scq_ir::Circuit)]) {
    let epr = EprConfig::default();
    let policy = DistributionPolicy::JustInTime { window: 64 };
    let mut points = Vec::new();
    let mut placement_points = Vec::new();
    for (bench, circuit) in workloads {
        let dag = DependencyDag::from_circuit(circuit);
        let simd = schedule_simd(circuit, &dag, &SimdConfig::default());
        let machine = PlanarMachine::new(circuit.num_qubits(), None);
        let requests = machine.requests_for(&simd);
        let demands: Vec<EprDemand> = requests
            .iter()
            .map(|r| EprDemand {
                time: r.time,
                distance: r.src.manhattan(r.dst),
            })
            .collect();

        let t0 = Instant::now();
        let flow = simulate_epr_distribution(&demands, policy, &epr);
        let flow_secs = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let free = simulate_epr_on_fabric(
            &requests,
            policy,
            &FabricEprConfig::unlimited(epr),
            machine.topology,
        );
        let fabric_secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            free.pipeline,
            flow,
            "{}: fabric diverged from the flow oracle",
            bench.name()
        );

        let tight = simulate_epr_on_fabric(
            &requests,
            policy,
            &FabricEprConfig {
                epr,
                link_capacity: EPR_LANES,
            },
            machine.topology,
        );
        points.push(EprPoint {
            app: bench.name(),
            teleports: requests.len(),
            flow_secs,
            fabric_secs,
            makespan_free: free.pipeline.makespan,
            makespan_constrained: tight.pipeline.makespan,
            link_stall_cycles: tight.link_stall_cycles,
            peak_in_flight: tight.peak_in_flight,
        });

        // Placement ablation on the same constrained point: feed the
        // fabric heatmap back into data-tile positions and re-measure.
        // code_distance 1 keeps fabric_config() at the same raw
        // hop_cycles the rows above were measured with.
        let planar = PlanarConfig {
            epr,
            policy,
            code_distance: 1,
            link_capacity: EPR_LANES,
            epr_factories: None,
            ..Default::default()
        };
        let t0 = Instant::now();
        let (_, outcome) =
            CongestionAwarePlacement::default().place_traced(circuit.num_qubits(), &planar, &simd);
        let place_secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            outcome.baseline.makespan,
            tight.pipeline.makespan,
            "{}: placement baseline diverged from the constrained fabric row",
            bench.name()
        );
        placement_points.push(PlacementPoint {
            app: bench.name(),
            baseline_makespan: outcome.baseline.makespan,
            optimized_makespan: outcome.optimized.makespan,
            baseline_lane_stalls: outcome.baseline.lane_stalls,
            optimized_lane_stalls: outcome.optimized.lane_stalls,
            moves_accepted: outcome.moves_accepted,
            evaluations: outcome.evaluations,
            place_secs,
        });
    }

    println!("\nEPR fabric report (JIT window 64, {EPR_LANES} lanes/link vs unlimited)");
    println!();
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>11} {:>11} {:>12} {:>12}",
        "app",
        "teleports",
        "flow",
        "fabric",
        "free span",
        "tight span",
        "contention+",
        "lane stalls"
    );
    for p in &points {
        println!(
            "{:<10} {:>9} {:>9.3}ms {:>9.3}ms {:>11} {:>11} {:>11.2}% {:>12}",
            p.app,
            p.teleports,
            p.flow_secs * 1e3,
            p.fabric_secs * 1e3,
            p.makespan_free,
            p.makespan_constrained,
            p.contention_added() * 100.0,
            p.link_stall_cycles,
        );
    }
    assert!(
        points.iter().any(|p| p.contention_added() > 0.0),
        "constrained fabric showed no contention anywhere"
    );

    println!("\nPlacement ablation (congestion-aware vs baseline, {EPR_LANES} lanes/link)");
    println!();
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>6} {:>6} {:>9}",
        "app", "base span", "opt span", "base stalls", "opt stalls", "moves", "evals", "place"
    );
    for p in &placement_points {
        println!(
            "{:<10} {:>10} {:>10} {:>12} {:>12} {:>6} {:>6} {:>8.1}ms",
            p.app,
            p.baseline_makespan,
            p.optimized_makespan,
            p.baseline_lane_stalls,
            p.optimized_lane_stalls,
            p.moves_accepted,
            p.evaluations,
            p.place_secs * 1e3,
        );
    }
    // The optimizer only accepts strictly improving moves, so these are
    // invariants of the algorithm, not of this machine's timing.
    for p in &placement_points {
        assert!(
            p.optimized_makespan <= p.baseline_makespan
                && p.optimized_lane_stalls <= p.baseline_lane_stalls,
            "{}: congestion-aware placement regressed the baseline",
            p.app
        );
    }
    assert!(
        placement_points
            .iter()
            .any(|p| p.optimized_makespan <= p.baseline_makespan
                && p.optimized_lane_stalls < p.baseline_lane_stalls),
        "congestion-aware placement improved no contended point"
    );

    // Planar certifier wall-time: schedule every workload traced
    // (untimed), then time only the independent transcript replay.
    let traced: Vec<_> = workloads
        .iter()
        .map(|(_, circuit)| {
            let dag = DependencyDag::from_circuit(circuit);
            let config = PlanarConfig {
                code_distance: CODE_DISTANCE,
                ..Default::default()
            };
            let (schedule, transcript) = schedule_planar_traced(circuit, &dag, &config);
            (dag, schedule, transcript)
        })
        .collect();
    let t0 = Instant::now();
    for ((bench, circuit), (dag, schedule, transcript)) in workloads.iter().zip(&traced) {
        let findings = certify_planar_schedule(schedule, transcript, circuit, dag, None);
        assert!(
            findings.is_empty(),
            "{}: planar schedule failed certification: {findings:?}",
            bench.name()
        );
    }
    let certify_secs = t0.elapsed().as_secs_f64();
    println!(
        "\nplanar certification wall-clock (scq-verify replay): {:.1}ms",
        certify_secs * 1e3
    );

    let degradation = degradation_report(workloads);
    println!(
        "\nDegradation study ({:.0}% sampled defects, seed {DEFECT_SEED}, envelope {DEGRADATION_ENVELOPE}x)",
        DEFECT_RATE * 100.0
    );
    println!();
    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>11}",
        "app", "backend", "clean span", "degraded", "multiplier"
    );
    for p in &degradation {
        match &p.outcome {
            Ok(m) => println!(
                "{:<10} {:>9} {:>12} {:>12} {:>10.2}x",
                p.app,
                p.backend,
                p.clean_makespan,
                m,
                p.multiplier().unwrap_or(0.0),
            ),
            Err(e) => println!(
                "{:<10} {:>9} {:>12} {:>12}  unroutable: {e}",
                p.app, p.backend, p.clean_makespan, "-",
            ),
        }
    }
    for p in &degradation {
        if let Some(m) = p.multiplier() {
            assert!(
                m <= DEGRADATION_ENVELOPE,
                "{} ({}): degradation multiplier {m:.2}x exceeds the committed envelope \
                 {DEGRADATION_ENVELOPE}x",
                p.app,
                p.backend
            );
        }
    }
    assert!(
        degradation.iter().any(|p| p.outcome.is_ok()),
        "every degradation row came back unroutable at {DEFECT_RATE}"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"policy\": \"jit_window_64\",");
    let _ = writeln!(json, "  \"constrained_link_capacity\": {EPR_LANES},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"teleports\": {}, \"flow_secs\": {:.6}, \"fabric_secs\": {:.6}, \"makespan_free\": {}, \"makespan_constrained\": {}, \"contention_added_latency\": {:.4}, \"link_stall_cycles\": {}, \"peak_in_flight\": {}}}{comma}",
            p.app,
            p.teleports,
            p.flow_secs,
            p.fabric_secs,
            p.makespan_free,
            p.makespan_constrained,
            p.contention_added(),
            p.link_stall_cycles,
            p.peak_in_flight,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"placement\": [");
    for (i, p) in placement_points.iter().enumerate() {
        let comma = if i + 1 < placement_points.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}\", \"baseline_makespan\": {}, \"optimized_makespan\": {}, \"baseline_lane_stalls\": {}, \"optimized_lane_stalls\": {}, \"moves_accepted\": {}, \"evaluations\": {}, \"place_secs\": {:.6}}}{comma}",
            p.app,
            p.baseline_makespan,
            p.optimized_makespan,
            p.baseline_lane_stalls,
            p.optimized_lane_stalls,
            p.moves_accepted,
            p.evaluations,
            p.place_secs,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"certify_secs\": {certify_secs:.6},");
    let _ = writeln!(json, "  \"defect_rate\": {DEFECT_RATE},");
    let _ = writeln!(json, "  \"defect_seed\": {DEFECT_SEED},");
    let _ = writeln!(json, "  \"degradation_envelope\": {DEGRADATION_ENVELOPE},");
    let _ = writeln!(json, "  \"degradation\": [");
    for (i, p) in degradation.iter().enumerate() {
        let comma = if i + 1 < degradation.len() { "," } else { "" };
        match &p.outcome {
            Ok(m) => {
                let _ = writeln!(
                    json,
                    "    {{\"app\": \"{}\", \"backend\": \"{}\", \"clean_makespan\": {}, \"degraded_makespan\": {}, \"degradation_multiplier\": {:.4}, \"status\": \"ok\"}}{comma}",
                    p.app,
                    p.backend,
                    p.clean_makespan,
                    m,
                    p.multiplier().unwrap_or(0.0),
                );
            }
            Err(e) => {
                let _ = writeln!(
                    json,
                    "    {{\"app\": \"{}\", \"backend\": \"{}\", \"clean_makespan\": {}, \"status\": \"unroutable\", \"error\": \"{}\"}}{comma}",
                    p.app,
                    p.backend,
                    p.clean_makespan,
                    e.replace('"', "'"),
                );
            }
        }
    }
    let _ = writeln!(json, "  ]");
    json.push('}');
    json.push('\n');
    write_report("BENCH_epr.json", &json);
}
