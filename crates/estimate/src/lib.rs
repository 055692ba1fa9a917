//! Space-time resource estimation for surface-code quantum machines.
//!
//! Converts a *logical* application profile into *physical* qubit counts
//! and wall-clock time for both surface-code encodings (paper Section 7:
//! "concrete values for the number of qubits and amount of time needed
//! to execute a fully-error-corrected application").
//!
//! The estimator is calibrated, not guessed: [`AppProfile::calibrate`]
//! measures parallelism, operation mix, braid congestion (from the
//! `scq-braid` simulator) and layout distances (from `scq-layout`) on
//! feasible instances, then [`estimate`] extrapolates along each
//! application's analytic scaling law to the paper's 10^24-operation
//! design points.
//!
//! A profile is a pure function of its benchmark, so
//! [`AppProfile::calibrate`] memoizes it per process: the first call for
//! a benchmark pays for the simulations, later calls return a clone.
//!
//! # Examples
//!
//! ```
//! use scq_apps::Benchmark;
//! use scq_estimate::{estimate, AppProfile, EstimateConfig};
//! use scq_surface::Encoding;
//!
//! let profile = AppProfile::calibrate(Benchmark::Gse);
//! let e = estimate(&profile, 1e9, Encoding::Planar, &EstimateConfig::default()).unwrap();
//! assert!(e.physical_qubits > 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod profile;

pub use model::{estimate, estimate_both, EstimateConfig, ResourceEstimate};
pub use profile::{AppProfile, LogicalScaling};
