//! Client-side and per-layer benchmark of the served rank store.
//!
//! `run.py` builds `lfpr` and this package, then runs the `lfpr-perfbench`
//! binary for one workload. See `README.md` for the workloads, the
//! metrics and the layer map.

pub mod client;
pub mod e2e;
pub mod gen;
pub mod pin;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
