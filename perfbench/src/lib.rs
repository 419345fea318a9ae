//! End-to-end and per-layer benchmark of the vrdf workspace.
//!
//! Three workloads drive the public API of `vrdf-core`, `vrdf-sim`,
//! `vrdf-sdf` and `vrdf-apps` from outside: `casestudy` (what
//! `minimize` and `baseline --minimize` do on the bundled case
//! studies), `fleet-validate` (`run_fleet` validating a synthetic
//! corpus) and `analysis-sweep` (`run_fleet` computing the VRDF-vs-SDF
//! table over large graphs).  See `README.md` for the metrics and how
//! to run it.

#![forbid(unsafe_code)]

pub mod env;
pub mod json;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
