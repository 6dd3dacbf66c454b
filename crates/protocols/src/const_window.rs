//! Fixed-window (and optionally fixed-rate) protocols.
//!
//! Not part of the paper's protocol zoo, but indispensable for calibrating
//! the simulator (a window of one BDP should exactly fill a link with no
//! queueing) and for tests that need a protocol with no feedback dynamics.

use netsim::packet::Ack;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::{AckInfo, CongestionControl};

/// A protocol that keeps a constant window and constant pacing interval.
pub struct ConstWindow {
    window: f64,
    intersend: SimDuration,
}

impl ConstWindow {
    pub fn new(window: f64) -> Self {
        ConstWindow {
            window,
            intersend: SimDuration::ZERO,
        }
    }

    pub fn with_pacing(window: f64, intersend: SimDuration) -> Self {
        ConstWindow { window, intersend }
    }

    /// Window sized to `multiple` bandwidth-delay products of the path.
    pub fn bdp_multiple(rate_bps: f64, min_rtt_s: f64, multiple: f64) -> Self {
        let bdp_packets = rate_bps * min_rtt_s / 8.0 / 1500.0;
        ConstWindow::new((bdp_packets * multiple).max(1.0))
    }
}

impl CongestionControl for ConstWindow {
    fn reset(&mut self, _now: SimTime) {}
    fn on_ack(&mut self, _now: SimTime, _ack: &Ack, _info: &AckInfo) {}
    fn on_loss(&mut self, _now: SimTime) {}
    fn on_timeout(&mut self, _now: SimTime) {}

    fn window(&self) -> f64 {
        self.window
    }

    fn intersend(&self) -> SimDuration {
        self.intersend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdp_sizing() {
        // 12 Mbps * 0.1 s = 1.2 Mbit = 150 kB = 100 packets
        let cc = ConstWindow::bdp_multiple(12e6, 0.100, 1.0);
        assert!((cc.window() - 100.0).abs() < 1e-9);
        let half = ConstWindow::bdp_multiple(12e6, 0.100, 0.5);
        assert!((half.window() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_bdp_floors_at_one() {
        let cc = ConstWindow::bdp_multiple(1e3, 0.001, 1.0);
        assert_eq!(cc.window(), 1.0);
    }

    #[test]
    fn pacing_passthrough() {
        let cc = ConstWindow::with_pacing(10.0, SimDuration::from_millis(3));
        assert_eq!(cc.intersend(), SimDuration::from_millis(3));
        assert_eq!(cc.window(), 10.0);
    }
}
