//! # mf-bench — the paper-reproduction experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §3
//! for the index). All binaries accept the environment variables:
//!
//! * `MF_SCALE` — linear scale factor of the matrix suite (default 0.5;
//!   1.0 = the full stand-in sizes of `mf-matgen::paper`),
//! * `MF_QUICK` — set to `1` for a fast smoke configuration,
//! * `MF_OUT` — report output directory (default `reports/`).
//!
//! Experiments report *simulated* time on the calibrated Tesla-T10/Xeon-5160
//! machine model, read from rehearsals (`FactorOptions::rehearse`: a run's
//! clock and per-call records without its data); only `exp_table7`'s measured
//! wall-clock section factors numerically. See EXPERIMENTS.md for the
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]

pub mod config;
pub mod experiments;
pub mod maps;
pub mod report;
pub mod suite;

pub use config::ExpConfig;
pub use report::Report;
pub use suite::{MatrixRuns, SuiteData};
