//! # lcc-core — the learnability-of-congestion-control study
//!
//! The experiment layer of the reproduction of *An Experimental Study of
//! the Learnability of Congestion Control* (SIGCOMM 2014). It combines:
//!
//! * the [`netsim`] simulator (testing substrate),
//! * the [`remy`] protocol-design tool (training substrate),
//! * the [`protocols`] zoo (the Tao executor, Cubic, NewReno, Vegas and a
//!   PCC-style online learner — the five [`Scheme`] families),
//! * the analytic [`omniscient()`] reference protocol, and
//! * one [`experiments`] module per paper figure/table, all behind the
//!   declarative [`Experiment`] trait and written on one
//!   [`experiments::scaffold`].
//!
//! Everything is driven by the `learnability` CLI (`src/bin/learnability.rs`):
//! `learnability list` enumerates the [`experiments::registry()`],
//! `learnability run <id|all>` executes an experiment's sweep on the
//! parallel engine ([`runner::execute_sweep`]) and emits a structured
//! [`FigureData`] JSON artifact per figure under `assets/figures/`, and
//! `learnability train <id|all>` builds any missing protocol assets under
//! `assets/` (`--force` retrains from scratch), mirroring the paper's
//! published Remy-produced protocols.

pub mod cli;
pub mod experiments;
pub mod omniscient;
pub mod report;
pub mod runner;
pub mod search;

pub use experiments::{run_train_job, Experiment, Fidelity, RunOptions, TrainJob};
pub use omniscient::{omniscient, proportional_fair, OmniscientFlow};
pub use report::{render_figure, FigureData, TableData};
pub use runner::{
    execute_sweep, flow_points, run_homogeneous, run_mix, summarize, PointOutcome, Scheme,
    SummaryStat, SweepPoint,
};
pub use search::{
    adversarial_space, find_worst_case, replay, scheme_for_certificate, Certificate, SearchConfig,
    SearchResult,
};
