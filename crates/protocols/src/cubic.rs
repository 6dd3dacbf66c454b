//! TCP Cubic congestion control (RFC 8312).
//!
//! The paper's primary human-designed baseline: "TCP Cubic, the default
//! congestion-control protocol in Linux". Window growth in congestion
//! avoidance follows the cubic function `W(t) = C·(t−K)³ + W_max` anchored
//! at the last loss, with the TCP-friendly region ensuring Cubic is never
//! slower than an AIMD flow, fast convergence on consecutive losses, and
//! β = 0.7 multiplicative decrease.

use netsim::packet::Ack;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::{AckInfo, CongestionControl};

/// Cubic scaling constant (packets/s³), RFC 8312 §5.1.
pub const C: f64 = 0.4;
/// Multiplicative decrease factor, RFC 8312 §4.5.
pub const BETA: f64 = 0.7;

const INITIAL_CWND: f64 = 2.0;
const INITIAL_SSTHRESH: f64 = 1e9;

/// TCP Cubic.
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    /// Window size just before the last reduction.
    w_max: f64,
    /// Previous `w_max` for fast convergence.
    w_last_max: f64,
    /// Start of the current congestion-avoidance epoch (`SimTime::MAX`:
    /// none).
    epoch_start: SimTime,
    /// Time offset at which the cubic touches `w_max`.
    k: f64,
    /// AIMD-tracking estimate for the TCP-friendly region.
    w_est: f64,
    recovery_until: SimTime,
    last_rtt: SimDuration,
}

impl Cubic {
    pub fn new() -> Self {
        Cubic {
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
            w_max: 0.0,
            w_last_max: 0.0,
            epoch_start: SimTime::MAX,
            k: 0.0,
            w_est: 0.0,
            recovery_until: SimTime::ZERO,
            last_rtt: SimDuration::from_millis(100),
        }
    }

    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn enter_epoch(&mut self, now: SimTime) {
        self.epoch_start = now;
        self.k = if self.w_max > self.cwnd {
            ((self.w_max - self.cwnd) / C).cbrt()
        } else {
            0.0
        };
        self.w_est = self.cwnd;
    }

    /// The cubic window at elapsed epoch time `t` seconds.
    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn reset(&mut self, _now: SimTime) {
        *self = Cubic::new();
    }

    fn on_ack(&mut self, now: SimTime, _ack: &Ack, info: &AckInfo) {
        if let Some(rtt) = info.rtt {
            self.last_rtt = rtt;
        }
        if self.in_slow_start() {
            self.cwnd += 1.0;
            return;
        }
        if self.epoch_start == SimTime::MAX {
            self.enter_epoch(now);
        }
        let t = (now - self.epoch_start).as_secs_f64();
        let rtt = self.last_rtt.as_secs_f64();

        // TCP-friendly region (RFC 8312 §4.2): a NewReno flow would have
        // grown by 3(1-β)/(1+β) packets per RTT since the epoch began.
        let alpha = 3.0 * (1.0 - BETA) / (1.0 + BETA);
        self.w_est += alpha / self.cwnd.max(1.0);
        let w_tcp = self.w_est;

        let target = self.w_cubic(t + rtt);
        if w_tcp > target && w_tcp > self.cwnd {
            // friendly region: grow like AIMD
            self.cwnd = w_tcp;
        } else if target > self.cwnd {
            // concave/convex region: close a fraction of the gap per ack
            self.cwnd += (target - self.cwnd) / self.cwnd.max(1.0);
        }
        self.cwnd = self.cwnd.clamp(1.0, 1e9);
    }

    fn on_loss(&mut self, now: SimTime) {
        if now < self.recovery_until {
            return;
        }
        // Fast convergence (RFC 8312 §4.6): release bandwidth when the
        // saturation point is dropping.
        if self.cwnd < self.w_last_max {
            self.w_last_max = self.cwnd;
            self.w_max = self.cwnd * (1.0 + BETA) / 2.0;
        } else {
            self.w_last_max = self.cwnd;
            self.w_max = self.cwnd;
        }
        self.cwnd = (self.cwnd * BETA).max(1.0);
        self.ssthresh = self.cwnd.max(2.0);
        self.epoch_start = SimTime::MAX;
        self.recovery_until = now + self.last_rtt;
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.w_last_max = self.cwnd;
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * BETA).max(2.0);
        self.cwnd = 1.0;
        self.epoch_start = SimTime::MAX;
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
    fn slow_start_then_loss() {
        let mut cc = Cubic::new();
        for _ in 0..62 {
            cc.on_ack(t(100), &ack(), &info(100));
        }
        assert_eq!(cc.window(), 64.0);
        cc.on_loss(t(1000));
        assert!((cc.window() - 64.0 * BETA).abs() < 1e-9);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn k_anchors_cubic_at_wmax() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 100.0;
        cc.on_loss(t(0));
        cc.enter_epoch(t(0));
        // At t = K the cubic equals w_max.
        let at_k = cc.w_cubic(cc.k);
        assert!((at_k - cc.w_max).abs() < 1e-9);
        // before K: below w_max; after: above
        assert!(cc.w_cubic(cc.k - 1.0) < cc.w_max);
        assert!(cc.w_cubic(cc.k + 1.0) > cc.w_max);
    }

    #[test]
    fn concave_growth_approaches_wmax() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 100.0;
        cc.on_loss(t(0));
        let floor = cc.window();
        // stream of acks over simulated seconds
        let mut now = 100u64;
        for _ in 0..2000 {
            cc.on_ack(t(now), &ack(), &info(100));
            now += 10;
        }
        assert!(cc.window() > floor, "window recovers after loss");
        assert!(
            cc.window() > 95.0,
            "should approach old w_max within 20 s, got {}",
            cc.window()
        );
    }

    #[test]
    fn fast_convergence_lowers_wmax_on_consecutive_losses() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 100.0;
        cc.on_loss(t(0));
        let w_max_1 = cc.w_max;
        assert_eq!(w_max_1, 100.0);
        // second loss before recovering to 100
        cc.on_loss(t(5000));
        assert!(
            cc.w_max < cc.w_last_max.max(1.0) + 1e-9 && cc.w_max < w_max_1,
            "fast convergence reduces w_max: {}",
            cc.w_max
        );
    }

    #[test]
    fn loss_once_per_rtt() {
        let mut cc = Cubic::new();
        cc.cwnd = 100.0;
        cc.ssthresh = 100.0;
        cc.last_rtt = SimDuration::from_millis(100);
        cc.on_loss(t(1000));
        let after_first = cc.window();
        cc.on_loss(t(1050));
        assert_eq!(cc.window(), after_first, "second loss in same RTT ignored");
    }

    #[test]
    fn timeout_collapses() {
        let mut cc = Cubic::new();
        cc.cwnd = 80.0;
        cc.ssthresh = 80.0;
        cc.on_timeout(t(500));
        assert_eq!(cc.window(), 1.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn tcp_friendly_region_dominates_at_small_windows() {
        // With a tiny w_max the cubic term is flat; growth should at least
        // match AIMD's alpha per RTT.
        let mut cc = Cubic::new();
        cc.cwnd = 4.0;
        cc.ssthresh = 4.0;
        cc.w_max = 4.0;
        let start = cc.window();
        let mut now = 0u64;
        // ~25 RTTs of acks (4 acks per 100 ms RTT)
        for _ in 0..100 {
            cc.on_ack(t(now), &ack(), &info(100));
            now += 25;
        }
        // AIMD-paced growth: each ack adds alpha/cwnd, so 100 acks from a
        // window of 4 should gain several packets (the flat cubic alone
        // would gain almost nothing).
        assert!(
            cc.window() > start + 5.0,
            "TCP-friendly growth too slow: {}",
            cc.window()
        );
    }
}
