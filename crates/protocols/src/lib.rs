//! # protocols — congestion-control algorithms for the learnability study
//!
//! Implementations of every end-to-end protocol the paper evaluates:
//!
//! * [`tao::TaoCc`] — the executor for Remy-designed "tractable attempt at
//!   optimal" protocols: a 4-signal congestion [`memory::Memory`] driving a
//!   piecewise-constant [`whisker::WhiskerTree`] of window/pacing
//!   [`action::Action`]s (§3.3–3.5 of the paper).
//! * [`newreno::NewReno`] — AIMD / TCP NewReno, also the model of
//!   incumbent TCP cross-traffic in the TCP-awareness experiments (§4.5).
//! * [`cubic::Cubic`] — TCP Cubic per RFC 8312, the paper's main
//!   human-designed baseline.
//! * [`vegas::Vegas`] — the delay-based protocol §4.5 cites as the
//!   canonical "squeezed out by TCP" cautionary tale.
//! * [`pcc::Pcc`] — a PCC-style *online* learner (randomized rate
//!   micro-experiments scored by a throughput/loss/delay-gradient
//!   utility): the no-offline-training counterpoint to Tao protocols.
//!
//! All protocols implement [`netsim::transport::CongestionControl`] and
//! plug into the simulator's reliability layer.
//! A [`Scheme`] names which of them runs on a flow; [`Scheme::build`] is
//! the one place a scheme becomes a controller.

pub mod action;
pub mod compiled;
pub mod cubic;
pub mod memory;
pub mod newreno;
pub mod pcc;
pub mod scheme;
pub mod tao;
pub mod vegas;
pub mod whisker;

pub use action::Action;
pub use compiled::{CompiledLeaf, CompiledTree, UsageCounts};
pub use cubic::Cubic;
pub use memory::{Memory, MemoryPoint, Signal, SignalMask, NUM_SIGNALS};
pub use newreno::NewReno;
pub use pcc::Pcc;
pub use scheme::Scheme;
pub use tao::{NoUsage, TaoCc, UsageRecorder};
pub use vegas::Vegas;
pub use whisker::{LeafId, MemoryRange, Whisker, WhiskerTree};

/// Every sender of a 10⁴-flow cell holds one controller, so each word of
/// one costs 80 kB there (`netsim.sim.kb_per_flow`): these stay within
/// their sizes, a Tao sender outside training with no usage record.
const _CONTROLLERS_STAY_SMALL: () = assert!(
    std::mem::size_of::<Memory>() <= 64
        && std::mem::size_of::<NoUsage>() == 0
        && std::mem::size_of::<TaoCc<NoUsage>>() <= 88
        && std::mem::size_of::<Cubic>() <= 72
        && std::mem::size_of::<NewReno>() <= 32
        && std::mem::size_of::<Vegas>() <= 56
        && std::mem::size_of::<Pcc>() <= 128
);
