//! # usipc-bench — the experiment harness
//!
//! Regenerates every table and figure of Unrau & Krieger (ICPP 1998) on the
//! scheduler simulator, and measures the native backend's counted
//! operations on real threads and processes.
//!
//! ```text
//! cargo run -p usipc-bench --release --bin figures -- all
//! cargo run -p usipc-bench --release --bin figures -- fig2 fig11 --msgs 5000
//! ```
//!
//! Each experiment prints paper-style tables, appends notes comparing the
//! measured shape against the paper's reported numbers, writes
//! `results/<id>.csv`, and panics if an exact invariant it measured (a
//! sem-op budget, a conservation ledger, a deadlock count) does not hold.
//! Time is gated once, by the repo benchmark (`bench/`).

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod top;

pub use experiments::{all_ids, describe, run_experiment, ExperimentOutput, RunOpts};
pub use table::Table;
