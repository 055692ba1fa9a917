//! scq-serve — the batch scheduling service.
//!
//! The toolflow crates answer "schedule *this* circuit"; this crate
//! answers "schedule *these ten thousand* requests, most of which
//! you've seen before". Three layers (see ARCHITECTURE.md, "Serving
//! layer"):
//!
//! 1. **Request model** ([`request`]): [`ScheduleRequest`] names a
//!    circuit source, backend, policy/distance, defect spec, and verify
//!    flag; normalization resolves the source and derives a
//!    content-addressed key over the *meaning* of the request
//!    ([`ENGINE_VERSION`] + normalized IR + effective config + defects
//!    + verify), never over names or paths.
//! 2. **Content-addressed cache** ([`cache`]): [`ScheduleCache`]
//!    memoizes schedule outcomes under single-flight discipline — N
//!    concurrent requesters of one key cost one compute — with LRU
//!    eviction and full hit/miss/dedup/eviction counters.
//! 3. **Parallel map** ([`pool`]): [`parallel_map`] fans batches out
//!    over scoped threads that claim one request at a time from a
//!    shared atomic cursor, so heterogeneous request costs don't
//!    convoy. `scq_bench::parallel_map` is this same function.
//!
//! [`BatchRunner`] composes the three: requests in, order-preserved
//! [`ScheduleResponse`]s (with cache provenance and timing) out. The
//! `scq batch <requests.txt>` subcommand and the `serve_throughput`
//! bench bin are thin shells over it.

pub mod batch;
pub mod cache;
pub mod error;
pub mod pool;
pub mod request;

pub use batch::{BatchRunner, ScheduleOutcome, ScheduleResponse};
pub use cache::{CacheStats, Provenance, ScheduleCache};
pub use error::ServeError;
pub use pool::parallel_map;
pub use request::{
    load_request_file, parse_request_line, parse_request_text, BackendKind, DefectSpec,
    NormalizedRequest, RequestSource, ScheduleRequest, ENGINE_VERSION,
};

/// Re-exported braid priority policy — the one knob request files spell
/// numerically (`policy=0..6`).
pub use scq_braid::Policy;
