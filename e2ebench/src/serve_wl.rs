//! The `sweep` and `repeat` workloads: the write and read sides of the
//! batch scheduling service (`scq_serve::BatchRunner`).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use scq_ir::{Circuit, DependencyDag, InteractionGraph};
use scq_layout::{place, Layout};
use scq_serve::{
    BackendKind, BatchRunner, NormalizedRequest, Provenance, RequestSource, ScheduleOutcome,
    ScheduleRequest, ScheduleResponse, ServeError,
};
use scq_verify::Severity;

use crate::layers::LayerCounts;
use crate::span::Tracer;

/// Refusal kinds the benchmark expects, by the cause the error names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// Braid admission: a dead anchor or a cut pair ("no defect-free
    /// route between (x, y) and (x, y)").
    Unroutable,
    /// Planar floorplan: "cannot place N data tiles on M live cells".
    Unplaceable,
    /// A produced schedule failed independent certification.
    Certification,
    /// Anything else: not a structured refusal this workload expects.
    Other,
}

/// Classifies a served error.
pub fn classify(e: &ServeError) -> Refusal {
    match e {
        ServeError::Certification(_) => Refusal::Certification,
        ServeError::Schedule(m) if m.contains("no defect-free route") => Refusal::Unroutable,
        ServeError::Schedule(m) if m.contains("cannot place") => Refusal::Unplaceable,
        _ => Refusal::Other,
    }
}

/// The exact, interleaving-free results of one pass over a workload's
/// requests: equal on every pass of a run and on the traced pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassTotals {
    /// Requests submitted.
    pub attempted: u64,
    /// Requests refused.
    pub failed: u64,
    /// Refusals by kind.
    pub unroutable: u64,
    /// Refusals by kind.
    pub unplaceable: u64,
    /// Refusals by kind.
    pub certification: u64,
    /// Sum of cycles over the distinct clean braid schedules served
    /// (defect requests are left out, so a fix that lets a refused
    /// request through does not read as a longer schedule).
    pub braid_cycles: u64,
    /// The same sum for planar schedules.
    pub planar_cycles: u64,
}

/// Bookkeeping and output checks over served responses.
#[derive(Default)]
pub struct Ledger {
    /// First serve of every key in the run: summary or error text.
    first: HashMap<u64, Result<String, String>>,
    pass: PassTotals,
    pass_ok: HashMap<u64, (BackendKind, u64)>,
    pass_failed: HashSet<u64>,
    /// Refused requests that recomputed a key that had already failed
    /// in the same pass (errors are never cached).
    pub error_recomputes: u64,
    /// Output-check failures, described.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Starts a pass.
    pub fn begin_pass(&mut self) {
        self.pass = PassTotals::default();
        self.pass_ok.clear();
        self.pass_failed.clear();
        self.error_recomputes = 0;
    }

    /// Records one served response and checks it.
    pub fn record(&mut self, req: &ScheduleRequest, resp: &ScheduleResponse) {
        self.pass.attempted += 1;
        let served = match &resp.outcome {
            Ok(o) => {
                if req.verify && !o.verified {
                    self.problems
                        .push(format!("{}: verify request served uncertified", resp.label));
                }
                if !crate::gen::is_defect(req) {
                    self.pass_ok.insert(resp.key, (o.backend, o.cycles));
                }
                Ok(o.summary.clone())
            }
            Err(e) => {
                self.pass.failed += 1;
                match classify(e) {
                    Refusal::Unroutable => self.pass.unroutable += 1,
                    Refusal::Unplaceable => self.pass.unplaceable += 1,
                    Refusal::Certification => {
                        self.pass.certification += 1;
                        self.problems
                            .push(format!("{}: certification failed: {e}", resp.label));
                    }
                    Refusal::Other => self
                        .problems
                        .push(format!("{}: unexpected error: {e}", resp.label)),
                }
                if !self.pass_failed.insert(resp.key) && resp.provenance == Provenance::Miss {
                    self.error_recomputes += 1;
                }
                Err(e.to_string())
            }
        };
        match self.first.get(&resp.key) {
            None => {
                self.first.insert(resp.key, served);
            }
            Some(first) if *first != served => self.problems.push(format!(
                "{}: key {:016x} served {:?}, first served {:?}",
                resp.label, resp.key, served, first
            )),
            Some(_) => {}
        }
    }

    /// Ends a pass, returning its exact totals.
    pub fn end_pass(&mut self) -> PassTotals {
        let mut totals = self.pass.clone();
        for (backend, cycles) in self.pass_ok.values() {
            match backend {
                BackendKind::Braid => totals.braid_cycles += cycles,
                BackendKind::Planar => totals.planar_cycles += cycles,
            }
        }
        totals
    }
}

/// How one pass was served: per-operation latencies and the wall time
/// spent inside the program.
pub struct Served {
    /// Per-operation latency (one batch for `sweep`, one request for
    /// `repeat`), seconds.
    pub latencies: Vec<f64>,
    /// Wall time inside runner calls, seconds.
    pub busy_secs: f64,
    /// Responses in request order.
    pub responses: Vec<ScheduleResponse>,
}

/// Serves a sweep pass: each batch through one `BatchRunner::run`,
/// the next submitted when the previous returns.
pub fn serve_sweep(runner: &BatchRunner, batches: &[Vec<ScheduleRequest>]) -> Served {
    let mut latencies = Vec::with_capacity(batches.len());
    let mut responses = Vec::new();
    for batch in batches {
        let t0 = Instant::now();
        let out = runner.run(batch);
        latencies.push(t0.elapsed().as_secs_f64());
        responses.extend(out);
    }
    let busy_secs = latencies.iter().sum();
    Served {
        latencies,
        busy_secs,
        responses,
    }
}

/// Client threads of the repeat workload: one per core.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serves a repeat pass: `clients` threads each call `run_one` in a
/// closed loop on the shared runner, taking the stream's next request
/// when their previous one returns.
pub fn serve_repeat(runner: &BatchRunner, stream: &[ScheduleRequest], clients: usize) -> Served {
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<Vec<(usize, f64, ScheduleResponse)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::with_capacity(stream.len() / clients + 1);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = stream.get(i) else { break };
                        let t = Instant::now();
                        let resp = runner.run_one(req);
                        out.push((i, t.elapsed().as_secs_f64(), resp));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let busy_secs = t0.elapsed().as_secs_f64();
    let mut all: Vec<(usize, f64, ScheduleResponse)> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|(i, _, _)| *i);
    let latencies = all.iter().map(|(_, l, _)| *l).collect();
    let responses = all.into_iter().map(|(_, _, r)| r).collect();
    Served {
        latencies,
        busy_secs,
        responses,
    }
}

/// A traced pass: the served responses and the harness's own
/// normalization of the requests, which the replay of computed ones uses.
pub struct TracedPass {
    /// Per-operation latency of the runner calls, seconds.
    pub latencies: Vec<f64>,
    /// Responses in request order.
    pub responses: Vec<ScheduleResponse>,
    /// Harness normalization per request, in request order (`repeat`
    /// keeps only those the runner computed).
    pub normalized: Vec<Option<NormalizedRequest>>,
}

/// Records `apps.generate` (a replay of the generation `normalize()`
/// performs) and `serve.normalize` for one request.
fn traced_normalize(
    tr: &mut Tracer,
    req_id: u64,
    req: &ScheduleRequest,
) -> Option<NormalizedRequest> {
    if let RequestSource::Named { bench, scale } = &req.source {
        tr.span("apps.generate", req_id, |_| bench.scaled_circuit(*scale));
    }
    tr.span("serve.normalize", req_id, |_| req.normalize()).ok()
}

/// The traced sweep pass: spans around each request's normalization
/// and each `run` call.
pub fn traced_sweep(
    tr: &mut Tracer,
    runner: &BatchRunner,
    batches: &[Vec<ScheduleRequest>],
) -> TracedPass {
    let mut pass = TracedPass {
        latencies: Vec::new(),
        responses: Vec::new(),
        normalized: Vec::new(),
    };
    let mut next_id = 0u64;
    for (b, batch) in batches.iter().enumerate() {
        tr.span("serve.batch", b as u64, |tr| {
            for req in batch {
                pass.normalized.push(traced_normalize(tr, next_id, req));
                next_id += 1;
            }
            let out = tr.span("serve.run", b as u64, |_| runner.run(batch));
            pass.responses.extend(out);
        });
        // `serve.run` is the batch's last span to start.
        pass.latencies
            .push(tr.spans.last().map_or(0.0, |s| s.secs()));
    }
    pass
}

/// The traced repeat pass: the same closed loop as [`serve_repeat`],
/// each client recording spans around normalization and `run_one`.
pub fn traced_repeat(
    tr: &mut Tracer,
    runner: &BatchRunner,
    stream: &[ScheduleRequest],
    clients: usize,
) -> TracedPass {
    let cursor = AtomicUsize::new(0);
    let epoch = tr.epoch();
    type Row = (usize, f64, ScheduleResponse, Option<NormalizedRequest>);
    let per_client: Vec<(Tracer, Vec<Row>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut ctr = Tracer::new(epoch, c as u32 + 1);
                    let mut rows = Vec::with_capacity(stream.len() / clients + 1);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = stream.get(i) else { break };
                        let id = i as u64;
                        let (norm, resp, secs) = ctr.span("serve.request", id, |ctr| {
                            let norm = traced_normalize(ctr, id, req);
                            let resp = ctr.span("serve.run", id, |_| runner.run_one(req));
                            (norm, resp, ctr.spans.last().map_or(0.0, |s| s.secs()))
                        });
                        let keep = (resp.provenance == Provenance::Miss)
                            .then_some(norm)
                            .flatten();
                        rows.push((i, secs, resp, keep));
                    }
                    (ctr, rows)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut rows = Vec::new();
    for (ctr, r) in per_client {
        tr.absorb(ctr);
        rows.extend(r);
    }
    rows.sort_by_key(|(i, ..)| *i);
    let mut pass = TracedPass {
        latencies: Vec::with_capacity(rows.len()),
        responses: Vec::with_capacity(rows.len()),
        normalized: Vec::with_capacity(rows.len()),
    };
    for (_, secs, resp, norm) in rows {
        pass.latencies.push(secs);
        pass.responses.push(resp);
        pass.normalized.push(norm);
    }
    pass
}

/// The serving layer's own time over a pass, from the runner's own
/// timings: `total_secs` of every hit, and `total_secs` less the cold
/// `compute_secs` of every computed schedule. In-flight waits and
/// refusals are left out: their time is mostly another request's or an
/// engine's compute, which the runner does not report apart.
pub fn serve_self_secs(responses: &[ScheduleResponse]) -> f64 {
    responses
        .iter()
        .map(|r| match (r.provenance, &r.outcome) {
            (Provenance::Hit, _) => r.total_secs,
            (Provenance::Miss, Ok(o)) => r.total_secs - o.compute_secs,
            _ => 0.0,
        })
        .sum()
}

/// Replays, outside the runner and one span each, the engine calls the
/// runner made for every key it computed, once per key (a refused key
/// the runner recomputed is replayed once, so the counts do not depend
/// on how often it recomputed), and checks that the replay serves what
/// the runner served (same cycles, same error).
pub fn replay_computes(
    tr: &mut Tracer,
    requests: &[ScheduleRequest],
    pass: &TracedPass,
    counts: &mut LayerCounts,
    problems: &mut Vec<String>,
) {
    let mut layouts: HashMap<u64, Layout> = HashMap::new();
    let mut replayed_keys = HashSet::new();
    for (i, (resp, norm)) in pass.responses.iter().zip(&pass.normalized).enumerate() {
        if resp.provenance != Provenance::Miss || !replayed_keys.insert(resp.key) {
            continue;
        }
        let Some(norm) = norm else { continue };
        let req = &requests[i];
        let replayed = tr.span("serve.replay", i as u64, |tr| {
            replay_one(tr, i as u64, req, &norm.circuit, &mut layouts, counts)
        });
        let same = match (&replayed, &resp.outcome) {
            (Ok(cycles), Ok(o)) => *cycles == o.cycles,
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        if !same {
            problems.push(format!(
                "{}: replay {:?} differs from served {:?}",
                resp.label,
                replayed,
                resp.outcome
                    .as_ref()
                    .map(|o: &Arc<ScheduleOutcome>| o.cycles)
            ));
        }
    }
}

fn certify(findings: &[scq_verify::Finding], counts: &mut LayerCounts) -> Result<(), ServeError> {
    match findings.iter().find(|f| f.severity == Severity::Error) {
        None => {
            counts.certified += 1;
            Ok(())
        }
        Some(f) => Err(ServeError::certification(f.message.clone())),
    }
}

fn replay_one(
    tr: &mut Tracer,
    id: u64,
    req: &ScheduleRequest,
    circuit: &Circuit,
    layouts: &mut HashMap<u64, Layout>,
    counts: &mut LayerCounts,
) -> Result<u64, ServeError> {
    let dag = tr.span("ir.dag", id, |_| DependencyDag::from_circuit(circuit));
    match req.backend {
        BackendKind::Braid => {
            // The runner caches placements under the same key, so the
            // replay places once per key too.
            let layout = layouts
                .entry(req.placement_key(circuit))
                .or_insert_with(|| {
                    let graph = tr.span("ir.interaction_graph", id, |_| {
                        InteractionGraph::from_circuit(circuit)
                    });
                    tr.span("layout.place", id, |_| {
                        place(&graph, req.policy.layout_strategy(), None)
                    })
                });
            let layout = &*layout;
            let config = req.braid_config();
            let dims = scq_braid::braid_mesh_dims(layout, circuit);
            let map = tr.span("serve.materialize", id, |_| req.defects.materialize(dims))?;
            let schedule = if req.verify {
                let (s, trace) = tr
                    .span("braid.schedule", id, |_| match &map {
                        Some(m) => {
                            scq_braid::schedule_traced_on_defects(circuit, &dag, layout, &config, m)
                        }
                        None => scq_braid::schedule_traced(circuit, &dag, layout, &config),
                    })
                    .map_err(ServeError::schedule)?;
                let findings = tr.span("verify.certify_braid", id, |_| {
                    scq_verify::certify_braid_trace(&trace, circuit, &dag, map.as_ref())
                });
                certify(&findings, counts)?;
                s
            } else {
                tr.span("braid.schedule", id, |_| match &map {
                    Some(m) => scq_braid::schedule_on_defects(circuit, &dag, layout, &config, m),
                    None => scq_braid::schedule(circuit, &dag, layout, &config),
                })
                .map_err(ServeError::schedule)?
            };
            counts.add_braid(&schedule);
            Ok(schedule.cycles)
        }
        BackendKind::Planar => {
            let config = req.planar_config();
            let dims = scq_teleport::PlanarMachine::grid_dims(circuit.num_qubits());
            let map = tr.span("serve.materialize", id, |_| req.defects.materialize(dims))?;
            let seed = req.defects.fault_seed();
            let schedule = if req.verify {
                let (s, transcript) = tr
                    .span("teleport.schedule_planar", id, |_| match &map {
                        Some(m) => scq_teleport::schedule_planar_traced_on_defects(
                            circuit, &dag, &config, m, seed,
                        ),
                        None => Ok(scq_teleport::schedule_planar_traced(circuit, &dag, &config)),
                    })
                    .map_err(ServeError::schedule)?;
                let findings = tr.span("verify.certify_planar", id, |_| {
                    scq_verify::certify_planar_schedule(
                        &s,
                        &transcript,
                        circuit,
                        &dag,
                        map.as_ref(),
                    )
                });
                certify(&findings, counts)?;
                s
            } else {
                tr.span("teleport.schedule_planar", id, |_| match &map {
                    Some(m) => {
                        scq_teleport::schedule_planar_on_defects(circuit, &dag, &config, m, seed)
                    }
                    None => Ok(scq_teleport::schedule_planar(circuit, &dag, &config)),
                })
                .map_err(ServeError::schedule)?
            };
            counts.add_planar(&schedule);
            Ok(schedule.cycles)
        }
    }
}
