//! Independent replay certification of braid schedules.
//!
//! [`certify_braid_trace`] takes the static schedule artifact a braid
//! run emits (a [`BraidTrace`]) and verifies, from the trace alone,
//! every invariant the machine's replay depends on. It shares *no* code
//! with the engine that produced the trace: where the engine's own
//! `BraidTrace::validate` replays claims through [`scq_mesh::Mesh`]
//! (the same claiming code the scheduler used), this certifier keys an
//! interval race detector on raw coordinates — a scheduler bug that
//! corrupted the mesh's occupancy bookkeeping would fool the replay
//! validator but not this check.

use std::collections::HashMap;

use scq_braid::BraidTrace;
use scq_ir::{Circuit, DependencyDag};
use scq_mesh::{Coord, DefectMap};

use crate::finding::{Finding, Invariant};

/// A spatial resource a braid can hold: a router, or the link between
/// two adjacent routers (normalized so either traversal direction maps
/// to the same key). Ordered so findings can be reported in resource
/// order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Resource {
    Node(Coord),
    Link(Coord, Coord),
}

fn link_key(a: Coord, b: Coord) -> Resource {
    if a <= b {
        Resource::Link(a, b)
    } else {
        Resource::Link(b, a)
    }
}

/// Certifies a braid schedule trace against the circuit and DAG it was
/// scheduled from, reporting every invariant violation as a located
/// [`Finding`] (empty = certified clean).
///
/// Checks, per the invariants in [`Invariant`]:
///
/// - **route-well-formed**: every event's path is non-empty, on the
///   trace's mesh, stepwise-adjacent, and simple (no repeated router);
/// - **time-monotonicity**: opens strictly precede closes and nothing
///   closes after the schedule's total cycle count;
/// - **demand-consistency**: event op indices address the circuit, leg
///   numbers are 1 or 2, and leg 2 appears only on two-qubit gates;
/// - **spatial-exclusivity**: no two events hold the same router or
///   link at the same cycle (holds are half-open `[open, close)`
///   intervals — a release and a claim may share a cycle);
/// - **dependency-order**: for every DAG edge `a -> b` with both ops
///   traced, `b`'s first claim opens no earlier than `a`'s last
///   release, and within an op leg 2 opens no earlier than leg 1
///   closes;
/// - **defect-avoidance** (when `defects` is given): no path touches a
///   dead router or dead link.
pub fn certify_braid_trace(
    trace: &BraidTrace,
    circuit: &Circuit,
    dag: &DependencyDag,
    defects: Option<&DefectMap>,
) -> Vec<Finding> {
    let mut out = Vec::new();

    // Per-event structural checks.
    for ev in &trace.events {
        if (ev.op as usize) >= circuit.len() {
            out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!(
                        "event references op {} of a {}-op circuit",
                        ev.op,
                        circuit.len()
                    ),
                )
                .with_op(ev.op),
            );
            continue;
        }
        let gate = circuit.instructions()[ev.op as usize].gate();
        if ev.leg == 0 || ev.leg > 2 {
            out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!("braid leg {} is not 1 or 2", ev.leg),
                )
                .with_op(ev.op),
            );
        } else if ev.leg == 2 && !gate.is_two_qubit() {
            out.push(
                Finding::error(
                    Invariant::DemandConsistency,
                    format!("single-qubit {} traced a second braid leg", gate.mnemonic()),
                )
                .with_op(ev.op),
            );
        }
        if ev.open_cycle >= ev.close_cycle {
            out.push(
                Finding::error(
                    Invariant::TimeMonotonicity,
                    format!(
                        "braid opens at {} but closes at {}",
                        ev.open_cycle, ev.close_cycle
                    ),
                )
                .with_op(ev.op)
                .with_cycle(ev.open_cycle),
            );
        }
        if ev.close_cycle > trace.cycles {
            out.push(
                Finding::error(
                    Invariant::TimeMonotonicity,
                    format!(
                        "braid closes at {} past the schedule's {} cycles",
                        ev.close_cycle, trace.cycles
                    ),
                )
                .with_op(ev.op)
                .with_cycle(ev.close_cycle),
            );
        }
        check_path(trace, ev, &mut out);
        if let Some(map) = defects {
            check_defects(ev, map, &mut out);
        }
    }

    check_exclusivity(trace, &mut out);
    check_dependencies(trace, circuit, dag, &mut out);
    out
}

fn check_path(trace: &BraidTrace, ev: &scq_braid::BraidEvent, out: &mut Vec<Finding>) {
    let on_mesh = |c: Coord| c.x < trace.mesh_width && c.y < trace.mesh_height;
    let nodes = ev.path.nodes();
    if nodes.is_empty() {
        out.push(
            Finding::error(Invariant::RouteWellFormed, "braid event has an empty path")
                .with_op(ev.op),
        );
        return;
    }
    let mut seen = std::collections::HashSet::with_capacity(nodes.len());
    for &n in nodes {
        if !on_mesh(n) {
            out.push(
                Finding::error(
                    Invariant::RouteWellFormed,
                    format!(
                        "path leaves the {}x{} mesh",
                        trace.mesh_width, trace.mesh_height
                    ),
                )
                .with_op(ev.op)
                .with_node(n),
            );
        }
        if !seen.insert(n) {
            out.push(
                Finding::error(Invariant::RouteWellFormed, "path revisits a router")
                    .with_op(ev.op)
                    .with_node(n),
            );
        }
    }
    for w in nodes.windows(2) {
        if !w[0].is_adjacent(w[1]) {
            out.push(
                Finding::error(
                    Invariant::RouteWellFormed,
                    format!("path jumps from {} to {}", w[0], w[1]),
                )
                .with_op(ev.op)
                .with_node(w[1]),
            );
        }
    }
}

fn check_defects(ev: &scq_braid::BraidEvent, map: &DefectMap, out: &mut Vec<Finding>) {
    for &n in ev.path.nodes() {
        if map.topology().contains(n) && map.node_dead(n) {
            out.push(
                Finding::error(
                    Invariant::DefectAvoidance,
                    "braid routed through a dead router",
                )
                .with_op(ev.op)
                .with_cycle(ev.open_cycle)
                .with_node(n),
            );
        }
    }
    for (a, b) in ev.path.links() {
        if map.topology().contains(a) && map.topology().contains(b) && map.link_dead(a, b) {
            out.push(
                Finding::error(
                    Invariant::DefectAvoidance,
                    "braid routed through a dead link",
                )
                .with_op(ev.op)
                .with_cycle(ev.open_cycle)
                .with_link(a, b),
            );
        }
    }
}

/// The interval race detector: every event holds each router and link
/// of its path for `[open, close)`; for each resource, sort the holds
/// by open cycle and flag any hold that begins before the previous
/// maximum close. Findings come out in resource order, then in hold
/// order, whatever order the hash map yields the resources in.
fn check_exclusivity(trace: &BraidTrace, out: &mut Vec<Finding>) {
    // (open, close, op) per resource.
    let mut holds: HashMap<Resource, Vec<(u64, u64, u32)>> = HashMap::new();
    for ev in &trace.events {
        for &n in ev.path.nodes() {
            holds.entry(Resource::Node(n)).or_default().push((
                ev.open_cycle,
                ev.close_cycle,
                ev.op,
            ));
        }
        for (a, b) in ev.path.links() {
            holds
                .entry(link_key(a, b))
                .or_default()
                .push((ev.open_cycle, ev.close_cycle, ev.op));
        }
    }
    let mut found: Vec<(Resource, Finding)> = Vec::new();
    for (resource, mut intervals) in holds {
        if intervals.len() < 2 {
            continue;
        }
        intervals.sort_unstable();
        let (mut max_close, mut owner) = (intervals[0].1, intervals[0].2);
        for &(open, close, op) in &intervals[1..] {
            if open < max_close {
                let mut f = Finding::error(
                    Invariant::SpatialExclusivity,
                    format!("ops {owner} and {op} hold the same resource at cycle {open}"),
                )
                .with_op(op)
                .with_cycle(open);
                f = match resource {
                    Resource::Node(n) => f.with_node(n),
                    Resource::Link(a, b) => f.with_link(a, b),
                };
                found.push((resource, f));
            }
            if close > max_close {
                max_close = close;
                owner = op;
            }
        }
    }
    // Stable: one resource's findings keep their hold order. A clean
    // trace sorts nothing.
    found.sort_by_key(|&(resource, _)| resource);
    out.extend(found.into_iter().map(|(_, f)| f));
}

/// Dependency-order preservation: with braids released before new ones
/// are issued within a cycle, a dependent op may open exactly at its
/// predecessor's close but never before it.
fn check_dependencies(
    trace: &BraidTrace,
    circuit: &Circuit,
    dag: &DependencyDag,
    out: &mut Vec<Finding>,
) {
    if dag.len() != circuit.len() {
        // Reported by the acyclicity pass; nothing sound to check here.
        return;
    }
    // Per op, over its events: first open, last close, and the first
    // open of leg 2 and last close of leg 1. Untraced ops and legs keep
    // the sentinels (open `u64::MAX`, close 0), which no comparison
    // below flags. Indexed by op, so findings come out in op order.
    let n = circuit.len();
    let (mut first_open, mut last_close) = (vec![u64::MAX; n], vec![0u64; n]);
    let (mut leg2_open, mut leg1_close) = (vec![u64::MAX; n], vec![0u64; n]);
    for ev in &trace.events {
        // Phantom ops are already a demand-consistency finding; keep
        // them out of the DAG lookups below.
        let op = ev.op as usize;
        if op >= n {
            continue;
        }
        first_open[op] = first_open[op].min(ev.open_cycle);
        last_close[op] = last_close[op].max(ev.close_cycle);
        match ev.leg {
            1 => leg1_close[op] = leg1_close[op].max(ev.close_cycle),
            2 => leg2_open[op] = leg2_open[op].min(ev.open_cycle),
            _ => {}
        }
    }
    for (op, &open) in first_open.iter().enumerate() {
        for &p in dag.preds(op) {
            let close = last_close[p as usize];
            if open < close {
                out.push(
                    Finding::error(
                        Invariant::DependencyOrder,
                        format!(
                            "op {op} opens its braid at {open} before its dependency {p} releases at {close}"
                        ),
                    )
                    .with_op(op as u32)
                    .with_cycle(open),
                );
            }
        }
    }
    for (op, (&open, &close1)) in leg2_open.iter().zip(&leg1_close).enumerate() {
        if open < close1 {
            out.push(
                Finding::error(
                    Invariant::DependencyOrder,
                    format!("op {op} opens leg 2 at {open} before leg 1 closes at {close1}"),
                )
                .with_op(op as u32)
                .with_cycle(open),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_braid::{schedule_traced, BraidConfig};

    fn traced(n: u32) -> (Circuit, DependencyDag, BraidTrace) {
        let mut b = Circuit::builder("cert", n);
        for q in 0..n {
            b.t(q);
        }
        for q in 0..n - 1 {
            b.cnot(q, q + 1);
        }
        let c = b.finish();
        let dag = DependencyDag::from_circuit(&c);
        let graph = scq_ir::InteractionGraph::from_circuit(&c);
        let layout = scq_layout::place(&graph, scq_layout::LayoutStrategy::InteractionAware, None);
        let (_, trace) =
            schedule_traced(&c, &dag, &layout, &BraidConfig::default()).expect("schedules");
        (c, dag, trace)
    }

    #[test]
    fn engine_trace_certifies_clean() {
        let (c, dag, trace) = traced(8);
        assert!(!trace.events.is_empty());
        let findings = certify_braid_trace(&trace, &c, &dag, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn overlap_mutation_is_caught_as_exclusivity() {
        let (c, dag, mut trace) = traced(8);
        // Clone an event onto a different op so the same route is held
        // twice over an overlapping window.
        let mut dup = trace.events[0].clone();
        dup.op = trace.events[1].op;
        dup.open_cycle = trace.events[0].open_cycle;
        dup.close_cycle = trace.events[0].close_cycle + 1;
        trace.events.push(dup);
        let findings = certify_braid_trace(&trace, &c, &dag, None);
        assert!(findings
            .iter()
            .any(|f| f.invariant == Invariant::SpatialExclusivity));
    }

    #[test]
    fn reversed_interval_is_caught_as_monotonicity() {
        let (c, dag, mut trace) = traced(6);
        let ev = &mut trace.events[0];
        std::mem::swap(&mut ev.open_cycle, &mut ev.close_cycle);
        let findings = certify_braid_trace(&trace, &c, &dag, None);
        assert!(findings
            .iter()
            .any(|f| f.invariant == Invariant::TimeMonotonicity));
    }
}
