//! Criterion microbenchmarks of the toolflow's hot kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scq_apps::{ising, Benchmark, IsingParams};
use scq_braid::{BraidConfig, Policy};
use scq_ir::{DependencyDag, InteractionGraph};
use scq_layout::{place, LayoutStrategy};
use scq_partition::{bisect, Graph, PartitionConfig};

fn bench_dag_construction(c: &mut Criterion) {
    let circuit = Benchmark::IsingFull.default_circuit();
    c.bench_function("dag/ising-default", |b| {
        b.iter(|| DependencyDag::from_circuit(std::hint::black_box(&circuit)))
    });
}

fn bench_partitioner(c: &mut Criterion) {
    let mut edges = Vec::new();
    let (w, h) = (24u32, 24u32);
    for y in 0..h {
        for x in 0..w {
            let id = y * w + x;
            if x + 1 < w {
                edges.push((id, id + 1, 1));
            }
            if y + 1 < h {
                edges.push((id, id + w, 1));
            }
        }
    }
    let graph = Graph::from_edges(w * h, &edges).unwrap();
    c.bench_function("partition/bisect-grid-576", |b| {
        b.iter(|| bisect(std::hint::black_box(&graph), &PartitionConfig::default()))
    });
}

fn bench_layout(c: &mut Criterion) {
    let circuit = ising(&IsingParams {
        spins: 64,
        trotter_steps: 2,
        ..Default::default()
    });
    let graph = InteractionGraph::from_circuit(&circuit);
    c.bench_function("layout/interaction-aware-64", |b| {
        b.iter(|| {
            place(
                std::hint::black_box(&graph),
                LayoutStrategy::InteractionAware,
                None,
            )
        })
    });
}

fn bench_braid_scheduler(c: &mut Criterion) {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 3,
        ..Default::default()
    };
    c.bench_function("braid/p6-ising-32x2", |b| {
        b.iter_batched(
            || circuit.clone(),
            |circ| scq_braid::schedule_circuit(&circ, &config).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

/// Fused claim walk vs the two-step route-then-claim it replaced, on a
/// half-congested mesh (the scheduler's common case under contention:
/// most claims fail).
fn bench_claim_route(c: &mut Criterion) {
    use scq_mesh::{Coord, Mesh, Path};
    let mut base = Mesh::new(41, 41);
    // Claim every fourth row to create realistic partial congestion.
    for y in (0..41u32).step_by(4) {
        let wall = base.route_xy(Coord::new(4, y), Coord::new(36, y));
        assert!(base.try_claim(&wall, 100_000 + y));
    }
    let endpoints: Vec<(Coord, Coord)> = (0..64u32)
        .map(|i| {
            (
                Coord::new(i % 41, (i * 7) % 41),
                Coord::new((i * 13) % 41, (i * 3) % 41),
            )
        })
        .collect();
    c.bench_function("mesh/route-then-claim-64", |b| {
        b.iter_batched(
            || base.clone(),
            |mut mesh| {
                let mut placed = 0u32;
                for (i, &(src, dst)) in endpoints.iter().enumerate() {
                    let p = mesh.route_xy(src, dst);
                    if mesh.try_claim(&p, i as u32) {
                        placed += 1;
                    }
                }
                placed
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("mesh/claim-route-fused-64", |b| {
        b.iter_batched(
            || (base.clone(), Path::empty()),
            |(mut mesh, mut out)| {
                let mut placed = 0u32;
                for (i, &(src, dst)) in endpoints.iter().enumerate() {
                    if mesh.claim_route_xy_into(src, dst, i as u32, &mut out) {
                        placed += 1;
                    }
                }
                placed
            },
            BatchSize::SmallInput,
        )
    });
}

/// Conflict-free claim/release churn with the occupancy index dormant
/// (the lazy default — no claim has failed) vs live: the difference is
/// exactly the per-node summary upkeep the lazy index spares
/// uncontended scheduling runs.
fn bench_lazy_occupancy_index(c: &mut Criterion) {
    use scq_mesh::{Coord, Mesh, Path};
    let base = Mesh::new(41, 41);
    // Disjoint rows: every claim succeeds, so a dormant index stays
    // dormant for the whole run.
    let routes: Vec<Path> = (0..41u32)
        .map(|y| base.route_xy(Coord::new(0, y), Coord::new(40, y)))
        .collect();
    let churn = |mesh: &mut Mesh| {
        for _ in 0..8 {
            for (i, r) in routes.iter().enumerate() {
                assert!(mesh.try_claim(r, i as u32 + 1));
            }
            for (i, r) in routes.iter().enumerate() {
                mesh.release(r, i as u32 + 1);
            }
        }
        mesh.busy_links()
    };
    c.bench_function("mesh/claim-release-dormant-index", |b| {
        b.iter_batched(
            || base.clone(),
            |mut mesh| churn(&mut mesh),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("mesh/claim-release-live-index", |b| {
        b.iter_batched(
            || {
                let mut mesh = base.clone();
                mesh.ensure_occupancy_index();
                mesh
            },
            |mut mesh| churn(&mut mesh),
            BatchSize::SmallInput,
        )
    });
}

/// Event-driven engine (incremental ready-sets + time jumps) vs the
/// naive cycle-stepping full-rescan reference, same workload, same
/// bit-identical schedule.
fn bench_ready_sets_vs_rescan(c: &mut Criterion) {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    let layout = place(&graph, LayoutStrategy::InteractionAware, None);
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 3,
        ..Default::default()
    };
    c.bench_function("braid/event-driven-ising-32x2", |b| {
        b.iter(|| scq_braid::schedule(&circuit, &dag, &layout, &config).unwrap())
    });
    c.bench_function("braid/naive-rescan-ising-32x2", |b| {
        b.iter(|| scq_braid::schedule_reference(&circuit, &dag, &layout, &config).unwrap())
    });
}

/// Untraced scheduling (NoTrace sink: zero event pushes, pooled route
/// buffers) vs traced scheduling (full event collection).
fn bench_traced_vs_untraced(c: &mut Criterion) {
    let circuit = ising(&IsingParams {
        spins: 32,
        trotter_steps: 2,
        ..Default::default()
    });
    let dag = DependencyDag::from_circuit(&circuit);
    let graph = InteractionGraph::from_circuit(&circuit);
    let layout = place(&graph, LayoutStrategy::InteractionAware, None);
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance: 3,
        ..Default::default()
    };
    c.bench_function("braid/untraced-ising-32x2", |b| {
        b.iter(|| scq_braid::schedule(&circuit, &dag, &layout, &config).unwrap())
    });
    c.bench_function("braid/traced-ising-32x2", |b| {
        b.iter(|| scq_braid::schedule_traced(&circuit, &dag, &layout, &config).unwrap())
    });
}

fn bench_epr_pipeline(c: &mut Criterion) {
    use scq_teleport::{simulate_epr_distribution, DistributionPolicy, EprConfig, EprDemand};
    let demands: Vec<EprDemand> = (0..20_000)
        .map(|i| EprDemand {
            time: 10 + i / 4,
            distance: 6,
        })
        .collect();
    c.bench_function("epr/jit-20k-teleports", |b| {
        b.iter(|| {
            simulate_epr_distribution(
                std::hint::black_box(&demands),
                DistributionPolicy::JustInTime { window: 256 },
                &EprConfig::default(),
            )
        })
    });
}

/// The shared event core head to head: calendar queue vs the
/// `BinaryHeap` twin on identical streams at 1k/100k/1M events, under
/// near-uniform inter-arrival gaps (the fabric's hop/release pattern —
/// where the calendar's O(1) buckets should win) and under bursty
/// same-timestamp clumps separated by long gaps (the worst case for a
/// naive bucket scan — covered by the activation heap).
fn bench_event_queue(c: &mut Criterion) {
    use scq_mesh::{CalendarQueue, EventQueue, HeapQueue};

    fn stream(n: usize, bursty: bool) -> Vec<u64> {
        let mut t = 0u64;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if bursty {
                    // 64-event bursts on one timestamp, then a long gap.
                    if i % 64 == 0 {
                        t += 500 + (state >> 58);
                    }
                } else {
                    t += state % 8;
                }
                t
            })
            .collect()
    }

    // Push/pop interleaved 2:1 so the queue stays about half as deep as
    // the stream, then drain — the fabric's inject/run shape.
    fn drive<Q: EventQueue<u32>>(mut q: Q, times: &[u64]) -> u64 {
        let mut acc = 0u64;
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i as u32);
            if i % 2 == 1 {
                if let Some((popped, _)) = q.pop() {
                    acc ^= popped;
                }
            }
        }
        while let Some((popped, _)) = q.pop() {
            acc ^= popped;
        }
        acc
    }

    for &n in &[1_000usize, 100_000, 1_000_000] {
        for &(tag, bursty) in &[("uniform", false), ("bursty", true)] {
            let times = stream(n, bursty);
            c.bench_function(&format!("event_queue/calendar-{tag}-{n}"), |b| {
                b.iter(|| drive(CalendarQueue::new(), std::hint::black_box(&times)))
            });
            c.bench_function(&format!("event_queue/heap-{tag}-{n}"), |b| {
                b.iter(|| drive(HeapQueue::new(), std::hint::black_box(&times)))
            });
        }
    }
}

/// Fabric inject + event-driven advance throughput as the in-flight
/// population grows: the packet layer's hot loop is the event heap and
/// the per-link load/waiter bookkeeping.
fn bench_fabric_throughput(c: &mut Criterion) {
    use scq_mesh::{Coord, Fabric, FabricConfig, Topology};
    let topo = Topology::new(32, 32);
    for &msgs in &[256usize, 2_048, 16_384] {
        let routes: Vec<_> = (0..msgs)
            .map(|i| {
                let y = (i as u32) % 32;
                topo.route_xy(Coord::new(0, y), Coord::new(31, (y + 7) % 32))
            })
            .collect();
        c.bench_function(&format!("fabric/inject-run-{msgs}"), |b| {
            b.iter_batched(
                || routes.clone(),
                |routes| {
                    let mut f = Fabric::new(
                        topo,
                        FabricConfig {
                            hop_cycles: 1,
                            link_capacity: 4,
                        },
                    );
                    for (i, route) in routes.into_iter().enumerate() {
                        f.inject(route, (i / 8) as u64);
                    }
                    f.run_to_completion();
                    f.stats().delivered
                },
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(
    benches,
    bench_dag_construction,
    bench_partitioner,
    bench_layout,
    bench_braid_scheduler,
    bench_claim_route,
    bench_lazy_occupancy_index,
    bench_ready_sets_vs_rescan,
    bench_traced_vs_untraced,
    bench_event_queue,
    bench_epr_pipeline,
    bench_fabric_throughput
);
criterion_main!(benches);
