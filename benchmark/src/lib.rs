//! The repo's benchmark: four workloads, their end-to-end metrics and a
//! ledger of per-layer metrics for the simulator (`netsim`), the protocol
//! zoo (`protocols`), the trainer (`remy`) and the figure harness
//! (`core`). Everything is timed from outside, through the public
//! functions the `learnability` CLI itself calls. See `README.md`.

pub mod drive;
pub mod figures_quick;
pub mod metrics;
pub mod path_zoo;
pub mod probes;
pub mod report;
pub mod scale_10k;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod trace;
pub mod train_calibration;
pub mod workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;
