//! The protocol designer's figure of merit (§3.2 of the paper).
//!
//! The study uses objectives of the form
//!
//! ```text
//! U = log(throughput) − δ · log(delay)
//! ```
//!
//! summed over all connections. Throughput is bytes delivered over ON
//! time; delay is the mean per-packet delay including propagation and
//! queueing. The log expresses proportional fairness; δ trades throughput
//! against delay (δ = 1 in most experiments; the sender-diversity
//! experiment uses δ = 0.1 and δ = 10).

use netsim::flow::FlowOutcome;
use serde::{Deserialize, Serialize};

/// Floor on throughput entering the log (a sender that was ON but
/// delivered nothing gets a harsh but finite utility).
pub const MIN_THROUGHPUT_BPS: f64 = 100.0;
/// Floor on delay entering the log.
pub const MIN_DELAY_S: f64 = 1e-6;

/// A throughput/delay objective with relative delay preference δ.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    pub delta: f64,
}

impl Default for Objective {
    fn default() -> Self {
        Objective { delta: 1.0 }
    }
}

impl Objective {
    pub fn new(delta: f64) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative");
        Objective { delta }
    }

    /// The throughput-sensitive sender of §4.6 (δ = 0.1).
    pub fn throughput_sensitive() -> Self {
        Objective { delta: 0.1 }
    }

    /// The delay-sensitive sender of §4.6 (δ = 10).
    pub fn delay_sensitive() -> Self {
        Objective { delta: 10.0 }
    }

    /// Utility of raw throughput (bits/s) and delay (seconds).
    pub fn utility(&self, throughput_bps: f64, delay_s: f64) -> f64 {
        let tpt = throughput_bps.max(MIN_THROUGHPUT_BPS);
        let delay = delay_s.max(MIN_DELAY_S);
        tpt.log2() - self.delta * delay.log2()
    }

    /// Utility of a simulated flow; `None` if the sender never turned on
    /// (such flows are excluded from the average, as in the paper's
    /// definition where throughput is normalized by ON time).
    pub fn flow_utility(&self, out: &FlowOutcome) -> Option<f64> {
        if out.on_time_s <= 0.0 {
            return None;
        }
        // A flow that was ON but delivered nothing has no measured delay;
        // charge it its propagation delay so the objective stays finite.
        let delay = if out.packets_delivered == 0 {
            out.min_one_way_s.max(MIN_DELAY_S)
        } else {
            out.avg_delay_s
        };
        Some(self.utility(out.throughput_bps, delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tpt: f64, delay: f64, on: f64) -> FlowOutcome {
        FlowOutcome {
            flow: 0,
            throughput_bps: tpt,
            avg_delay_s: delay,
            avg_queueing_delay_s: 0.0,
            min_one_way_s: 0.075,
            bytes_delivered: (tpt * on / 8.0) as u64,
            packets_delivered: if tpt > 0.0 { 100 } else { 0 },
            on_time_s: on,
            drops: netsim::flow::DropStats::default(),
            timeouts: 0,
            losses: 0,
            transmissions: 0,
            retransmissions: 0,
        }
    }

    #[test]
    fn doubling_throughput_adds_one_bit() {
        let obj = Objective::default();
        let u1 = obj.utility(1e6, 0.1);
        let u2 = obj.utility(2e6, 0.1);
        assert!((u2 - u1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn doubling_delay_costs_delta_bits() {
        let obj = Objective::new(2.0);
        let u1 = obj.utility(1e6, 0.1);
        let u2 = obj.utility(1e6, 0.2);
        assert!((u1 - u2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn proportional_fairness_tradeoff() {
        // Halving one connection to more-than-double another is worthwhile
        // (§3.2): u(0.5) + u(2.5) > u(1) + u(1) in Mbps units.
        let obj = Objective::default();
        let before = obj.utility(1e6, 0.1) + obj.utility(1e6, 0.1);
        let after = obj.utility(0.5e6, 0.1) + obj.utility(2.5e6, 0.1);
        assert!(after > before);
    }

    #[test]
    fn never_on_flow_excluded() {
        let obj = Objective::default();
        assert!(obj.flow_utility(&outcome(0.0, 0.0, 0.0)).is_none());
        assert!(obj.flow_utility(&outcome(1e6, 0.1, 5.0)).is_some());
    }

    #[test]
    fn starved_flow_gets_floor_not_infinity() {
        let obj = Objective::default();
        let mut o = outcome(0.0, 0.0, 5.0);
        o.packets_delivered = 0;
        let u = obj.flow_utility(&o).unwrap();
        assert!(u.is_finite());
        assert!(u < obj.utility(1e6, 0.1), "starvation is penalized");
    }

    #[test]
    fn normalized_zero_at_ideal_point() {
        // The normalized objective of Figs 2–4 is the utility gap to the
        // omniscient operating point (fair share at base delay).
        let obj = Objective::default();
        let ideal = obj.utility(5e6, 0.075);
        assert!((obj.utility(5e6, 0.075) - ideal).abs() < 1e-12);
        let worse = obj.utility(2.5e6, 0.150) - ideal;
        assert!((worse + 2.0).abs() < 1e-12, "half tpt, double delay = -2");
    }

    #[test]
    fn delta_presets() {
        assert_eq!(Objective::throughput_sensitive().delta, 0.1);
        assert_eq!(Objective::delay_sensitive().delta, 10.0);
    }
}
