//! # lion-bench
//!
//! The experiment harness that regenerates **every table and figure** of the
//! paper's evaluation (§VI). `src/figures.rs` holds one experiment per
//! table/figure and the [`figures::EXPERIMENTS`] registry the `lion-bench`
//! binary dispatches from. How fast the simulator itself runs is not
//! measured here: that is the benchmark of record (`BENCHMARK.json`,
//! `benchmark/`).
//!
//! Absolute throughputs differ from the paper (the substrate is a calibrated
//! simulator, not the authors' 10-node testbed); the *shapes* — who wins, by
//! roughly what factor, where crossovers fall — are the reproduction target.
//! EXPERIMENTS.md records paper-vs-measured for each experiment.

pub mod export;
pub mod figures;
pub mod harness;
pub mod obsgate;

pub use harness::{
    base_sim, run_all, run_job, run_job_with_obs, Job, ProtoKind, Scale, WorkloadSpec,
};
