//! TCP Vegas (Brakmo, O'Malley & Peterson, SIGCOMM 1994).
//!
//! The paper's §4.5 uses Vegas as the cautionary tale for delay-based
//! congestion control: it "performs well when contending only against
//! other flows of their own kind, but \[is\] 'squeezed out' by the
//! more-aggressive cross-traffic produced by traditional TCP". We
//! implement it so that claim is testable here, too.
//!
//! Vegas estimates the backlog it keeps in the bottleneck queue as
//! `diff = (cwnd/base_rtt − cwnd/rtt) · base_rtt` packets and steers the
//! window to hold `diff` between `alpha` and `beta` packets (classically
//! 1 and 3), adjusting once per RTT.

use netsim::packet::Ack;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::{AckInfo, CongestionControl};

const INITIAL_CWND: f64 = 2.0;

/// Lower bound on the estimated backlog (packets).
pub const ALPHA: f64 = 1.0;
/// Upper bound on the estimated backlog (packets).
pub const BETA: f64 = 3.0;

/// TCP Vegas.
pub struct Vegas {
    cwnd: f64,
    ssthresh: f64,
    /// Minimum RTT observed (`SimDuration::MAX`: none yet).
    base_rtt: SimDuration,
    /// Minimum RTT observed within the current adjustment epoch
    /// (`SimDuration::MAX`: none yet).
    epoch_min_rtt: SimDuration,
    epoch_start: SimTime,
    last_rtt: SimDuration,
    recovery_until: SimTime,
}

impl Vegas {
    pub fn new() -> Self {
        Vegas {
            cwnd: INITIAL_CWND,
            ssthresh: 1e9,
            base_rtt: SimDuration::MAX,
            epoch_min_rtt: SimDuration::MAX,
            epoch_start: SimTime::ZERO,
            last_rtt: SimDuration::from_millis(100),
            recovery_until: SimTime::ZERO,
        }
    }

    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Estimated queue backlog in packets, from the Vegas diff equation.
    fn backlog(&self, rtt: SimDuration) -> Option<f64> {
        if self.base_rtt == SimDuration::MAX {
            return None;
        }
        let base = self.base_rtt.as_secs_f64();
        let cur = rtt.as_secs_f64();
        if base <= 0.0 || cur <= 0.0 {
            return None;
        }
        // expected = cwnd/base, actual = cwnd/cur; diff in packets:
        Some(self.cwnd * (1.0 - base / cur))
    }
}

impl Default for Vegas {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Vegas {
    fn reset(&mut self, now: SimTime) {
        *self = Vegas::new();
        self.epoch_start = now;
    }

    fn on_ack(&mut self, now: SimTime, _ack: &Ack, info: &AckInfo) {
        let Some(rtt) = info.rtt else {
            return;
        };
        self.last_rtt = rtt;
        self.base_rtt = self.base_rtt.min(rtt);
        self.epoch_min_rtt = self.epoch_min_rtt.min(rtt);

        if self.in_slow_start() {
            // Vegas slow start: grow every other RTT, checking backlog.
            if let Some(diff) = self.backlog(rtt) {
                if diff > BETA {
                    self.ssthresh = self.cwnd;
                    return;
                }
            }
            self.cwnd += 0.5; // half of Reno's growth, per Vegas
            return;
        }

        // Congestion avoidance: adjust once per RTT using the epoch's
        // cleanest (minimum) RTT sample.
        if now - self.epoch_start >= self.last_rtt {
            // The epoch's minimum includes this sample, so it is never
            // the sentinel here.
            let sample = self.epoch_min_rtt;
            if let Some(diff) = self.backlog(sample) {
                if diff < ALPHA {
                    self.cwnd += 1.0;
                } else if diff > BETA {
                    self.cwnd -= 1.0;
                }
            }
            self.cwnd = self.cwnd.max(2.0);
            self.epoch_start = now;
            self.epoch_min_rtt = SimDuration::MAX;
        }
    }

    fn on_loss(&mut self, now: SimTime) {
        if now < self.recovery_until {
            return;
        }
        // Vegas reduces by 1/4 on fast retransmit (gentler than Reno).
        self.cwnd = (self.cwnd * 0.75).max(2.0);
        self.ssthresh = self.cwnd;
        self.recovery_until = now + self.last_rtt;
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 2.0;
        self.recovery_until = now + self.last_rtt;
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn intersend(&self) -> SimDuration {
        SimDuration::ZERO
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
    fn grows_when_below_alpha() {
        let mut cc = Vegas::new();
        cc.reset(t(0));
        cc.ssthresh = 2.0; // force congestion avoidance
                           // constant RTT = base RTT: zero backlog -> grow 1/RTT
        let w0 = cc.window();
        let mut now = 0;
        for _ in 0..10 {
            now += 110;
            cc.on_ack(t(now), &ack(), &info(100));
        }
        assert!(cc.window() > w0, "should grow: {} -> {}", w0, cc.window());
    }

    #[test]
    fn shrinks_when_backlog_exceeds_beta() {
        let mut cc = Vegas::new();
        cc.reset(t(0));
        cc.ssthresh = 2.0;
        cc.cwnd = 40.0;
        cc.on_ack(t(10), &ack(), &info(100)); // base RTT = 100 ms
                                              // now RTT inflates 30%: backlog = 40*(1-100/130) = 9.2 > beta
        let mut now = 10;
        for _ in 0..5 {
            now += 150;
            cc.on_ack(t(now), &ack(), &info(130));
        }
        assert!(cc.window() < 40.0, "should back off: {}", cc.window());
    }

    #[test]
    fn holds_steady_inside_band() {
        let mut cc = Vegas::new();
        cc.reset(t(0));
        cc.ssthresh = 2.0;
        cc.cwnd = 20.0;
        cc.on_ack(t(5), &ack(), &info(100));
        // RTT such that backlog = 20*(1-100/111) ≈ 2.0 packets: in [1,3]
        let mut now = 5;
        for _ in 0..6 {
            now += 120;
            cc.on_ack(t(now), &ack(), &info(111));
        }
        assert!(
            (cc.window() - 20.0).abs() <= 1.0,
            "inside band, window should hold: {}",
            cc.window()
        );
    }

    #[test]
    fn slow_start_exits_on_backlog() {
        let mut cc = Vegas::new();
        cc.reset(t(0));
        assert!(cc.in_slow_start());
        cc.cwnd = 30.0;
        cc.on_ack(t(5), &ack(), &info(100)); // base
        cc.on_ack(t(120), &ack(), &info(150)); // backlog 30*(1/3)=10 > beta
        assert!(!cc.in_slow_start(), "ssthresh pinned at cwnd");
    }

    #[test]
    fn loss_reduces_gently() {
        let mut cc = Vegas::new();
        cc.cwnd = 40.0;
        cc.on_loss(t(1000));
        assert!((cc.window() - 30.0).abs() < 1e-9, "3/4 reduction");
        // second loss in the same RTT is one event
        cc.on_loss(t(1010));
        assert!((cc.window() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_collapses_to_two() {
        let mut cc = Vegas::new();
        cc.cwnd = 50.0;
        cc.on_timeout(t(500));
        assert_eq!(cc.window(), 2.0);
    }
}
