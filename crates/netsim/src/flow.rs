//! Per-flow accounting.
//!
//! The study's objective (§3.2) is computed from two per-flow quantities:
//! *throughput* — bytes successfully delivered divided by the time the
//! sender was ON — and *delay* — the average per-packet one-way delay
//! including propagation and queueing.

use crate::packet::DATA_PACKET_BYTES;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Per-flow drop accounting, split by *why* the packet died.
///
/// The split matters because only `forward` is congestive signal: `ack`
/// drops starve the sender of feedback without signalling congestion, and
/// `fault` drops are exogenous loss that must never masquerade as
/// congestion in a figure. AQM dequeue-time drops (CoDel sojourn drops)
/// are internal to the discipline and appear in the link's
/// [`crate::queue::QueueStats`] instead of here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropStats {
    /// Packets tail-dropped on the forward path (queue overflow).
    pub forward: u64,
    /// Acknowledgments tail-dropped at a reverse-link queue (only
    /// possible when a link declares a [`crate::topology::ReverseSpec`]
    /// with a finite reverse buffer).
    pub ack: u64,
    /// Packets destroyed by a [`crate::topology::FaultSpec`] process
    /// (bursty loss, outage blackout, corruption) rather than a queue
    /// overflowing.
    pub fault: u64,
}

impl DropStats {
    /// Every packet this flow lost to a queue or a fault, regardless of
    /// direction or cause.
    pub fn total(&self) -> u64 {
        self.forward + self.ack + self.fault
    }
}

/// Running statistics for one flow.
#[derive(Clone, Debug, Default)]
pub struct FlowStats {
    /// Unique packets delivered (duplicates from retransmission are not
    /// double-counted); each carries [`DATA_PACKET_BYTES`].
    pub packets_delivered: u64,
    /// Sum of per-packet one-way delays (only for counted packets).
    pub delay_sum: SimDuration,
    /// Total time the workload was ON.
    pub on_time: SimDuration,
    /// Drop counters, split by cause (see [`DropStats`]).
    pub drops: DropStats,
    /// Retransmission timeouts experienced.
    pub timeouts: u64,
    /// Packets declared lost by the reordering detector.
    pub losses: u64,
    /// Total transmissions (including retransmissions) — Fig 3's
    /// "more retransmissions than transmissions" regime shows up here.
    pub transmissions: u64,
    /// Retransmissions alone (`transmissions - first sends`).
    pub retransmissions: u64,
}

impl FlowStats {
    /// Account one in-order delivery with one-way `delay`.
    pub fn record_delivery(&mut self, delay: SimDuration) {
        self.packets_delivered += 1;
        self.delay_sum += delay;
    }

    /// Unique payload bytes delivered.
    pub fn bytes_delivered(&self) -> u64 {
        self.packets_delivered * u64::from(DATA_PACKET_BYTES)
    }

    /// Average throughput in bits/second over ON time. Returns 0 when the
    /// sender never turned on.
    pub fn throughput_bps(&self) -> f64 {
        let on = self.on_time.as_secs_f64();
        if on <= 0.0 {
            0.0
        } else {
            self.bytes_delivered() as f64 * 8.0 / on
        }
    }

    /// Mean per-packet one-way delay in seconds (propagation + queueing).
    pub fn avg_delay_s(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.delay_sum.as_secs_f64() / self.packets_delivered as f64
        }
    }
}

/// Final per-flow results handed back by [`crate::sim::Simulation::run`].
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// Flow index within the topology.
    pub flow: usize,
    /// Bits per second over ON time.
    pub throughput_bps: f64,
    /// Mean one-way packet delay, seconds.
    pub avg_delay_s: f64,
    /// Mean queueing delay: `avg_delay - minimum one-way propagation`.
    pub avg_queueing_delay_s: f64,
    /// Minimum possible one-way delay for this flow (propagation only).
    pub min_one_way_s: f64,
    /// Application bytes delivered in order.
    pub bytes_delivered: u64,
    /// Data packets delivered in order.
    pub packets_delivered: u64,
    /// Total seconds the flow’s workload was ON.
    pub on_time_s: f64,
    /// Drop counters, split by cause (see [`DropStats`]).
    pub drops: DropStats,
    /// Retransmission timeouts experienced.
    pub timeouts: u64,
    /// Packets declared lost by the reordering detector.
    pub losses: u64,
    /// Total transmissions, retransmissions included.
    pub transmissions: u64,
    /// Retransmissions alone.
    pub retransmissions: u64,
}

impl FlowOutcome {
    /// Fold accumulated [`FlowStats`] into the final outcome record.
    pub fn from_stats(flow: usize, stats: &FlowStats, min_one_way: SimDuration) -> Self {
        let avg_delay = stats.avg_delay_s();
        FlowOutcome {
            flow,
            throughput_bps: stats.throughput_bps(),
            avg_delay_s: avg_delay,
            avg_queueing_delay_s: (avg_delay - min_one_way.as_secs_f64()).max(0.0),
            min_one_way_s: min_one_way.as_secs_f64(),
            bytes_delivered: stats.bytes_delivered(),
            packets_delivered: stats.packets_delivered,
            on_time_s: stats.on_time.as_secs_f64(),
            drops: stats.drops,
            timeouts: stats.timeouts,
            losses: stats.losses,
            transmissions: stats.transmissions,
            retransmissions: stats.retransmissions,
        }
    }
}

/// Tracks ON intervals so `on_time` is exact even when the simulation ends
/// mid-burst.
#[derive(Clone, Copy, Debug)]
pub struct OnTimeTracker {
    /// Start of the open interval (`SimTime::MAX`: none open).
    on_since: SimTime,
}

impl Default for OnTimeTracker {
    fn default() -> Self {
        OnTimeTracker {
            on_since: SimTime::MAX,
        }
    }
}

impl OnTimeTracker {
    /// Mark the flow ON starting at `now`.
    pub fn turn_on(&mut self, now: SimTime) {
        debug_assert!(!self.is_on(), "double turn_on");
        self.on_since = now;
    }

    /// Returns the completed interval length.
    pub fn turn_off(&mut self, now: SimTime) -> SimDuration {
        let since = std::mem::replace(&mut self.on_since, SimTime::MAX);
        now - since
    }

    /// Close out a dangling interval at simulation end.
    pub fn finish(&mut self, end: SimTime) -> SimDuration {
        self.turn_off(end)
    }

    /// Whether an interval is currently open.
    pub fn is_on(&self) -> bool {
        self.on_since != SimTime::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_over_on_time() {
        let mut s = FlowStats::default();
        s.record_delivery(SimDuration::from_millis(80));
        s.record_delivery(SimDuration::from_millis(120));
        s.on_time = SimDuration::from_secs(2);
        // 3000 bytes over 2 s of ON time = 12 kbit/s
        assert!((s.throughput_bps() - 12_000.0).abs() < 1e-9);
        assert!((s.avg_delay_s() - 0.100).abs() < 1e-12);
    }

    #[test]
    fn zero_on_time_gives_zero_throughput() {
        let s = FlowStats::default();
        assert_eq!(s.throughput_bps(), 0.0);
        assert_eq!(s.avg_delay_s(), 0.0);
    }

    #[test]
    fn outcome_queueing_delay() {
        let mut s = FlowStats::default();
        s.record_delivery(SimDuration::from_millis(100));
        s.on_time = SimDuration::from_secs(1);
        let o = FlowOutcome::from_stats(0, &s, SimDuration::from_millis(75));
        assert!((o.avg_queueing_delay_s - 0.025).abs() < 1e-12);
        assert!((o.min_one_way_s - 0.075).abs() < 1e-12);
    }

    #[test]
    fn on_time_tracker_intervals() {
        let mut t = OnTimeTracker::default();
        assert!(!t.is_on());
        t.turn_on(SimTime::from_secs_f64(1.0));
        assert!(t.is_on());
        let d = t.turn_off(SimTime::from_secs_f64(3.5));
        assert_eq!(d, SimDuration::from_millis(2500));
        // finish with nothing on returns zero
        assert_eq!(t.finish(SimTime::from_secs_f64(9.0)), SimDuration::ZERO);
        // dangling interval closed by finish
        t.turn_on(SimTime::from_secs_f64(5.0));
        assert_eq!(
            t.finish(SimTime::from_secs_f64(6.0)),
            SimDuration::from_secs(1)
        );
    }
}
