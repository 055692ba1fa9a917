//! End-to-end and per-layer benchmark of the scq toolflow and batch
//! scheduling service.
//!
//! `e2ebench --workload <toolflow|sweep|repeat> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload and prints every metric by name with
//! its unit, then a one-line JSON result. It drives the program only
//! through its public entry points (`scq_core::run_toolflow`,
//! `scq_serve::BatchRunner::{run, run_one}`); the traced run records
//! spans around calls into each crate's public functions from this
//! crate's own code and instruments nothing inside the program.

pub mod gen;
pub mod layers;
pub mod metrics;
pub mod rng;
pub mod run;
pub mod serve_wl;
pub mod span;
pub mod toolflow_wl;
