//! # remy — the automatic protocol-design tool
//!
//! A reimplementation of the Remy optimizer (Winstein & Balakrishnan,
//! *TCP ex Machina*, SIGCOMM 2013) as used by *An Experimental Study of
//! the Learnability of Congestion Control* (SIGCOMM 2014) to produce
//! "tractable attempts at optimal" (Tao) congestion-control protocols.
//!
//! The pipeline:
//!
//! 1. Describe the designer's network model as [`scenario::ScenarioSpec`]s
//!    — distributions over link speeds, RTTs, multiplexing, buffers, and
//!    cross-traffic (§3.1).
//! 2. Pick an [`objective::Objective`]: `log(throughput) − δ·log(delay)`
//!    (§3.2).
//! 3. Run the [`optimizer::Optimizer`]: hill-climb whisker actions and
//!    split busy whiskers until the budget is exhausted (§3.3). The
//!    budget is one [`OptimizerConfig`] (`OptimizerConfig::standard` holds
//!    the presets the committed assets were trained under).
//! 4. Save the resulting protocol with [`serialize`], and execute it as a
//!    [`protocols::Scheme`] (`Scheme::tao` compiles the tree once; every
//!    sender `Scheme::build` makes runs it as a [`protocols::TaoCc`]).
//!
//! ```no_run
//! use remy::prelude::*;
//!
//! let specs = vec![ScenarioSpec::link_speed_range(22.0, 44.0)];
//! let opt = Optimizer::new(specs, OptimizerConfig::default());
//! let trained = opt.optimize("tao-2x");
//! println!("score {:.3}\n{}", trained.score, trained.tree);
//! ```
//!
//! # Performance architecture
//!
//! Training cost = (candidate evaluations) × (scenario simulations per
//! evaluation) × (per-simulation cost); `improve_leaf` multiplies the
//! first factor into the thousands, so the evaluation path is built for
//! throughput (see [`eval`] for the full design):
//!
//! * **Compiled whisker trees.** Each evaluation compiles the candidate
//!   [`WhiskerTree`](protocols::WhiskerTree) once into an immutable
//!   [`protocols::CompiledTree`] arena shared (`Arc`) by every sender in
//!   every scenario (one [`protocols::Scheme`] per slot, which
//!   [`scenario::ConcreteScenario::protocols`] maps roles onto). Per-ack
//!   lookups walk contiguous nodes, and usage statistics accumulate in flat
//!   per-executor [`protocols::UsageCounts`] buffers, the one record of
//!   whisker usage: an evaluation returns them merged per slot, and the
//!   optimizer orders and splits whiskers from them without cloning a
//!   tree.
//! * **One work-stealing map.** An [`eval::EvalPool`] is a thread count
//!   (`OptimizerConfig::threads`); each evaluation claims its scenarios
//!   from an atomic cursor on scoped threads through
//!   [`eval::try_map_indexed`], the map the figure sweeps run on too, so
//!   skewed scenario costs don't idle cores. At one thread it runs inline.
//!   Results are bit-identical for any thread count.
//!
//! Measured by the repo's benchmark (`benchmark/run.sh`: the
//! `train_calibration` workload and the `remy.*` rows of its per-layer
//! ledger), which `scripts/bench_gate.sh BASE` runs on a change and its
//! parent.

pub mod eval;
pub mod objective;
pub mod optimizer;
pub mod scenario;
pub mod serialize;
pub mod space;

pub use eval::{draw_scenarios, EvalConfig, EvalPool, EvalResult};
pub use objective::Objective;
pub use optimizer::{Optimizer, OptimizerConfig, TrainCost, TrainedProtocol};
pub use scenario::{
    BufferSpec, ConcreteScenario, CountSpec, Role, RoleSpec, Sample, ScenarioSpec, SenderClassSpec,
    TopologySpec,
};
pub use space::{Axis, AxisKind, ScenarioSpace};

/// Common imports for optimizer users.
pub mod prelude {
    pub use crate::eval::{EvalConfig, EvalResult};
    pub use crate::objective::Objective;
    pub use crate::optimizer::{Optimizer, OptimizerConfig, TrainCost, TrainedProtocol};
    pub use crate::scenario::{
        BufferSpec, ConcreteScenario, CountSpec, Role, RoleSpec, Sample, ScenarioSpec,
        SenderClassSpec, TopologySpec,
    };
    pub use crate::space::{Axis, AxisKind, ScenarioSpace};
}
