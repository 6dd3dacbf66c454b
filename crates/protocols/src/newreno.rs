//! TCP NewReno-style AIMD congestion control.
//!
//! This is both a baseline in its own right and the paper's model of
//! incumbent cross-traffic: "Remy uses an AIMD protocol similar to TCP
//! NewReno to simulate TCP cross-traffic" (§4.5). Standard behaviour:
//! slow start to `ssthresh`, additive increase of one packet per RTT in
//! congestion avoidance, multiplicative decrease of one half on a loss
//! event (at most once per RTT), window collapse to one on timeout.

use netsim::packet::Ack;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::{AckInfo, CongestionControl};

const INITIAL_CWND: f64 = 2.0;
const INITIAL_SSTHRESH: f64 = 1e9;
const MIN_CWND: f64 = 1.0;

/// NewReno/AIMD congestion control.
pub struct NewReno {
    cwnd: f64,
    ssthresh: f64,
    /// Loss events inside the recovery window are one event (NewReno's
    /// once-per-RTT halving).
    recovery_until: SimTime,
    last_rtt: SimDuration,
}

impl NewReno {
    pub fn new() -> Self {
        NewReno {
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            recovery_until: SimTime::ZERO,
            last_rtt: SimDuration::from_millis(100),
        }
    }

    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl Default for NewReno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for NewReno {
    fn reset(&mut self, _now: SimTime) {
        self.cwnd = INITIAL_CWND;
        self.ssthresh = INITIAL_SSTHRESH;
        self.recovery_until = SimTime::ZERO;
    }

    fn on_ack(&mut self, _now: SimTime, _ack: &Ack, info: &AckInfo) {
        if let Some(rtt) = info.rtt {
            self.last_rtt = rtt;
        }
        if self.in_slow_start() {
            self.cwnd += 1.0;
        } else {
            // additive increase: one packet per window per RTT
            self.cwnd += 1.0 / self.cwnd.max(1.0);
        }
    }

    fn on_loss(&mut self, now: SimTime) {
        if now < self.recovery_until {
            return; // still recovering from the same loss event
        }
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        self.recovery_until = now + self.last_rtt;
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = MIN_CWND;
        self.recovery_until = now + self.last_rtt;
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn intersend(&self) -> SimDuration {
        SimDuration::ZERO // pure window-based, ack-clocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::FlowId;

    fn ack() -> Ack {
        Ack {
            flow: FlowId(0),
            seq: 0,
            epoch: 0,
            echo_sent_at: SimTime::ZERO,
            echo_tx_index: 0,
            recv_at: SimTime::ZERO,
            was_retx: false,
            batch: 1,
            rwnd: 0,
        }
    }

    fn info(rtt_ms: u64) -> AckInfo {
        AckInfo {
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            min_rtt: SimDuration::from_millis(rtt_ms),
            in_flight: 1,
            rwnd: None,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = NewReno::new();
        assert!(cc.in_slow_start());
        let w0 = cc.window();
        // one ack per outstanding packet: +1 each -> exponential growth
        for _ in 0..10 {
            cc.on_ack(t(100), &ack(), &info(100));
        }
        assert_eq!(cc.window(), w0 + 10.0);
    }

    #[test]
    fn congestion_avoidance_is_additive() {
        let mut cc = NewReno::new();
        cc.ssthresh = 10.0;
        cc.cwnd = 10.0;
        assert!(!cc.in_slow_start());
        // a window's worth of acks adds ~1 packet
        for _ in 0..10 {
            cc.on_ack(t(100), &ack(), &info(100));
        }
        assert!((cc.window() - 11.0).abs() < 0.06, "got {}", cc.window());
    }

    #[test]
    fn loss_halves_once_per_rtt() {
        let mut cc = NewReno::new();
        cc.cwnd = 64.0;
        cc.ssthresh = 64.0;
        cc.last_rtt = SimDuration::from_millis(100);
        cc.on_loss(t(1000));
        assert_eq!(cc.window(), 32.0);
        // burst of further losses within the same RTT: ignored
        cc.on_loss(t(1010));
        cc.on_loss(t(1050));
        assert_eq!(cc.window(), 32.0);
        // a loss after recovery window halves again
        cc.on_loss(t(1200));
        assert_eq!(cc.window(), 16.0);
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut cc = NewReno::new();
        cc.cwnd = 50.0;
        cc.ssthresh = 50.0;
        cc.on_timeout(t(1000));
        assert_eq!(cc.window(), 1.0);
        assert_eq!(cc.ssthresh, 25.0);
        // subsequent growth is slow-start until ssthresh
        assert!(cc.in_slow_start());
    }

    #[test]
    fn floor_of_two_on_ssthresh() {
        let mut cc = NewReno::new();
        cc.cwnd = 2.0;
        cc.on_loss(t(100));
        assert_eq!(cc.ssthresh, 2.0);
        assert_eq!(cc.window(), 2.0);
    }

    #[test]
    fn reset_restores_slow_start() {
        let mut cc = NewReno::new();
        cc.cwnd = 40.0;
        cc.ssthresh = 20.0;
        cc.reset(t(0));
        assert_eq!(cc.window(), INITIAL_CWND);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn unpaced() {
        assert_eq!(NewReno::new().intersend(), SimDuration::ZERO);
    }
}
