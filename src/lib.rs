//! # learnability — umbrella crate
//!
//! Reproduction of Sivaraman, Winstein, Thaker & Balakrishnan, *An
//! Experimental Study of the Learnability of Congestion Control*
//! (SIGCOMM 2014). Re-exports the four library crates:
//!
//! * [`netsim`] — deterministic packet-level network simulator.
//! * [`protocols`] — the five scheme families: the Tao (RemyCC) executor,
//!   TCP Cubic, TCP NewReno, TCP Vegas and a PCC-style online learner.
//! * [`remy`] — the automatic protocol-design tool (whisker-tree
//!   optimizer).
//! * [`lcc_core`] — the study itself: objectives, the omniscient
//!   reference, and one experiment module per paper figure/table.
//!
//! See `examples/` for runnable walkthroughs and the `bench` crate for
//! the `learnability` CLI that regenerates every figure.

pub use lcc_core;
pub use netsim;
pub use protocols;
pub use remy;

/// Crate version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile() {
        let _ = crate::VERSION;
        let _ = netsim::time::SimDuration::from_millis(1);
        let _ = protocols::Action::default();
        let _ = remy::Objective::default();
    }
}
