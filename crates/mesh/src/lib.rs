//! The communication-fabric substrate shared by both surface-code
//! encodings: one geometry, two occupancy disciplines.
//!
//! ```text
//!                    Topology (geometry + deterministic routes)
//!                    /                                    \
//!         Mesh (circuit-switched)              Fabric (packet-style)
//!         braids claim whole routes            EPR halves hop link by
//!         atomically; no buffering             link; per-link lanes,
//!         (double-defect backend)              FIFO queueing
//!                    \                                    /
//!              scq-braid scheduler            scq-teleport EPR pipeline
//! ```
//!
//! The paper maps double-defect braiding onto "simulating a mesh network,
//! with braids as messages in this network" (Section 6.1). [`Mesh`] is
//! that network: routers sit at tile corners, braids atomically claim
//! whole routes (nodes and links) because defects can neither cross nor
//! be buffered, and the mesh tracks the utilization statistic Figure 6
//! reports. [`Fabric`] is the planar machine's counterpart (Section
//! 8.1): EPR halves are in-flight messages with a route cursor and a
//! per-hop countdown, links have a finite number of swap lanes, and
//! saturated links queue messages in FIFO order — the congestion the
//! flow-level model cannot express. Both layers share the [`Topology`]
//! index spaces, and both advance event-driven (no per-cycle stepping).
//!
//! Three routing policies are provided, matching the braid scheduler's
//! escalation ladder: dimension-ordered [`Mesh::route_xy`] /
//! [`Mesh::route_yx`], and congestion-aware [`Mesh::route_adaptive`]
//! (BFS over currently-free resources).
//!
//! # The fault layer
//!
//! Real devices ship with dead qubits and marginal couplers. A
//! [`DefectMap`] records dead tiles, dead links, and flaky links
//! (per-hop transient failure probabilities), loaded from a text format
//! or sampled reproducibly from a seed. [`Mesh::with_defects`] models
//! dead resources as permanent claims (every claim path and probe
//! avoids them for free), [`Fabric::with_defects`] injects seeded
//! transient faults on flaky links (bounded retry with exponential
//! backoff, counted in [`FabricStats`] and the [`LinkHeatmap`]), and
//! [`DefectMap::route_avoiding`] finds defect-free detours.
//! Structurally impossible communication is reported as a [`CommError`]
//! value — never a panic. An empty map leaves every consumer
//! bit-identical to the defect-free code paths.
//!
//! # Hot-path APIs
//!
//! The braid scheduler's inner loop uses the allocation-free variants:
//! the fused [`Mesh::claim_route_xy_into`] / [`Mesh::claim_route_yx_into`]
//! walks check router/link occupancy in place and only materialize a
//! route (into a caller-provided [`Path`] buffer) when the claim
//! succeeds — under contention most claims fail, so the failure path
//! allocates nothing; [`Mesh::route_adaptive_into`] reuses one
//! [`RouteScratch`] across BFS searches; and [`Mesh::tick_n`] advances
//! the utilization clock over an idle stretch in one step so an
//! event-driven scheduler can jump between wake times.
//!
//! The adaptive BFS is the hot loop of congested braid runs, and its
//! result is part of every braid schedule. It therefore keeps a fixed
//! visit order, whatever its implementation: first in, first out from
//! `src`; neighbours offered east, west, south, north; and each router's
//! first discoverer kept as its predecessor. Both braid engines route
//! through it, so their equivalence suite cannot see a change of that
//! order; `scq-bench` checks it against an independent textbook BFS
//! instead (see [`Mesh::route_adaptive_into`]).
//!
//! # Examples
//!
//! ```
//! use scq_mesh::{Coord, Mesh};
//!
//! let mut mesh = Mesh::new(8, 8);
//! let a = mesh.route_xy(Coord::new(0, 0), Coord::new(7, 0));
//! let b = mesh.route_xy(Coord::new(0, 1), Coord::new(7, 1));
//! assert!(mesh.try_claim(&a, 1));
//! assert!(mesh.try_claim(&b, 2)); // parallel rows don't conflict
//! mesh.tick();
//! assert!(mesh.utilization() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coord;
mod defect;
pub mod event_queue;
mod fabric;
mod heatmap;
#[allow(clippy::module_inception)]
mod mesh;
mod topology;

pub use coord::{Coord, Path};
pub use defect::{CommError, DefectMap, DefectParseError, FLAKY_FAILURE_PROB};
pub use event_queue::{CalendarQueue, EventQueue, HeapQueue};
pub use fabric::{Fabric, FabricConfig, FabricStats, HopRecord, MsgId};
pub use heatmap::LinkHeatmap;
pub use mesh::{ClaimId, Mesh, RouteScratch};
pub use topology::Topology;
