//! The Tao sender's congestion memory (§3.3 of the paper).
//!
//! Four signals, updated on every acknowledgment:
//!
//! 1. `rec_ewma` — EWMA of ack interarrival times, weight 1/8.
//! 2. `slow_rec_ewma` — the same with weight 1/256 (longer history).
//! 3. `send_ewma` — EWMA of intersend times between the sender timestamps
//!    echoed in the ACKs, weight 1/8.
//! 4. `rtt_ratio` — most recent RTT over the minimum RTT seen so far.
//!
//! §3.4's knockout study removes one signal at a time; [`SignalMask`]
//! implements that by pinning masked signals to zero.

use netsim::packet::Ack;
use netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Number of congestion signals.
pub const NUM_SIGNALS: usize = 4;

/// EWMA weight for the fast receive/send averages.
pub const FAST_ALPHA: f64 = 1.0 / 8.0;
/// EWMA weight for the slow receive average.
pub const SLOW_ALPHA: f64 = 1.0 / 256.0;

/// Index of each signal in a memory point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    RecEwma = 0,
    SlowRecEwma = 1,
    SendEwma = 2,
    RttRatio = 3,
}

impl Signal {
    pub const ALL: [Signal; NUM_SIGNALS] = [
        Signal::RecEwma,
        Signal::SlowRecEwma,
        Signal::SendEwma,
        Signal::RttRatio,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Signal::RecEwma => "rec_ewma",
            Signal::SlowRecEwma => "slow_rec_ewma",
            Signal::SendEwma => "send_ewma",
            Signal::RttRatio => "rtt_ratio",
        }
    }
}

/// A point in memory space: `[rec_ewma_ms, slow_rec_ewma_ms, send_ewma_ms,
/// rtt_ratio]`. EWMAs are in milliseconds; the ratio is dimensionless.
pub type MemoryPoint = [f64; NUM_SIGNALS];

/// Which signals a protocol is allowed to observe (§3.4 knockout).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalMask {
    pub enabled: [bool; NUM_SIGNALS],
}

impl Default for SignalMask {
    fn default() -> Self {
        SignalMask {
            enabled: [true; NUM_SIGNALS],
        }
    }
}

impl SignalMask {
    pub fn all() -> Self {
        Self::default()
    }

    /// Mask with one signal knocked out.
    pub fn without(signal: Signal) -> Self {
        let mut m = Self::default();
        m.enabled[signal as usize] = false;
        m
    }

    pub fn is_enabled(&self, signal: Signal) -> bool {
        self.enabled[signal as usize]
    }

    pub fn apply(&self, mut point: MemoryPoint) -> MemoryPoint {
        for (v, &on) in point.iter_mut().zip(&self.enabled) {
            if !on {
                *v = 0.0;
            }
        }
        point
    }
}

/// Running memory state for one Tao sender.
#[derive(Clone, Debug)]
pub struct Memory {
    rec_ewma_ms: f64,
    slow_rec_ewma_ms: f64,
    send_ewma_ms: f64,
    rtt_ratio: f64,
    /// Arrival of the previous acknowledgment (`SimTime::MAX`: none).
    last_ack_arrival: SimTime,
    /// Latest sender timestamp echoed in forward order (`SimTime::MAX`:
    /// none).
    last_echo_sent: SimTime,
    /// Smallest nonzero RTT seen (`SimDuration::MAX`: none).
    min_rtt: SimDuration,
    mask: SignalMask,
}

impl Memory {
    pub fn new(mask: SignalMask) -> Self {
        Memory {
            rec_ewma_ms: 0.0,
            slow_rec_ewma_ms: 0.0,
            send_ewma_ms: 0.0,
            rtt_ratio: 0.0,
            last_ack_arrival: SimTime::MAX,
            last_echo_sent: SimTime::MAX,
            min_rtt: SimDuration::MAX,
            mask,
        }
    }

    /// Clear all signals (flow epoch restart).
    pub fn reset(&mut self) {
        self.rec_ewma_ms = 0.0;
        self.slow_rec_ewma_ms = 0.0;
        self.send_ewma_ms = 0.0;
        self.rtt_ratio = 0.0;
        self.last_ack_arrival = SimTime::MAX;
        self.last_echo_sent = SimTime::MAX;
        self.min_rtt = SimDuration::MAX;
    }

    /// Update on an acknowledgment arriving at the sender at `now`.
    pub fn on_ack(&mut self, now: SimTime, ack: &Ack) {
        // Receive-side signal: interarrival of acks at the sender.
        let last = self.last_ack_arrival;
        if last != SimTime::MAX {
            let inter_ms = (now - last).as_millis_f64();
            if self.rec_ewma_ms == 0.0 && self.slow_rec_ewma_ms == 0.0 {
                self.rec_ewma_ms = inter_ms;
                self.slow_rec_ewma_ms = inter_ms;
            } else {
                self.rec_ewma_ms = (1.0 - FAST_ALPHA) * self.rec_ewma_ms + FAST_ALPHA * inter_ms;
                self.slow_rec_ewma_ms =
                    (1.0 - SLOW_ALPHA) * self.slow_rec_ewma_ms + SLOW_ALPHA * inter_ms;
            }
        }
        self.last_ack_arrival = now;

        // Send-side signal: intersend times between echoed sender stamps.
        let last = self.last_echo_sent;
        if last != SimTime::MAX {
            let inter_ms = (ack.echo_sent_at - last).as_millis_f64();
            // Echoes can arrive out of order after loss recovery; only
            // forward progress produces a sample.
            if ack.echo_sent_at > last {
                if self.send_ewma_ms == 0.0 {
                    self.send_ewma_ms = inter_ms;
                } else {
                    self.send_ewma_ms =
                        (1.0 - FAST_ALPHA) * self.send_ewma_ms + FAST_ALPHA * inter_ms;
                }
                self.last_echo_sent = ack.echo_sent_at;
            }
        } else {
            self.last_echo_sent = ack.echo_sent_at;
        }

        // RTT ratio.
        let rtt = now - ack.echo_sent_at;
        if !rtt.is_zero() {
            self.min_rtt = self.min_rtt.min(rtt);
            self.rtt_ratio = rtt.as_secs_f64() / self.min_rtt.as_secs_f64();
        }
    }

    /// The current memory point with the knockout mask applied.
    pub fn point(&self) -> MemoryPoint {
        self.mask.apply([
            self.rec_ewma_ms,
            self.slow_rec_ewma_ms,
            self.send_ewma_ms,
            self.rtt_ratio,
        ])
    }

    pub fn mask(&self) -> SignalMask {
        self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::FlowId;

    fn ack(sent_ms: u64) -> Ack {
        Ack {
            flow: FlowId(0),
            seq: 0,
            epoch: 0,
            echo_sent_at: SimTime::ZERO + SimDuration::from_millis(sent_ms),
            echo_tx_index: 0,
            recv_at: SimTime::ZERO,
            was_retx: false,
            batch: 1,
            rwnd: 0,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn starts_at_zero() {
        let m = Memory::new(SignalMask::all());
        assert_eq!(m.point(), [0.0; 4]);
    }

    #[test]
    fn rec_ewma_seeds_then_averages() {
        let mut m = Memory::new(SignalMask::all());
        m.on_ack(t(100), &ack(0));
        // one ack: no interarrival yet
        assert_eq!(m.point()[0], 0.0);
        m.on_ack(t(110), &ack(5));
        // first interarrival (10 ms) seeds both EWMAs
        assert!((m.point()[0] - 10.0).abs() < 1e-9);
        assert!((m.point()[1] - 10.0).abs() < 1e-9);
        m.on_ack(t(130), &ack(10));
        // second sample 20 ms: fast = 10*(7/8) + 20/8 = 11.25
        assert!((m.point()[0] - 11.25).abs() < 1e-9);
        // slow = 10*(255/256) + 20/256 = 10.0390625
        assert!((m.point()[1] - 10.0390625).abs() < 1e-9);
    }

    #[test]
    fn send_ewma_from_echoes_ignores_reordering() {
        let mut m = Memory::new(SignalMask::all());
        m.on_ack(t(100), &ack(0));
        m.on_ack(t(101), &ack(8));
        assert!((m.point()[2] - 8.0).abs() < 1e-9);
        // out-of-order echo (older sender stamp): no sample
        m.on_ack(t(102), &ack(4));
        assert!((m.point()[2] - 8.0).abs() < 1e-9);
        m.on_ack(t(103), &ack(16));
        // forward sample of 8 ms again: EWMA stays 8
        assert!((m.point()[2] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_ratio_tracks_inflation() {
        let mut m = Memory::new(SignalMask::all());
        m.on_ack(t(150), &ack(0)); // RTT 150 ms (becomes min)
        assert!((m.point()[3] - 1.0).abs() < 1e-9);
        m.on_ack(t(400), &ack(100)); // RTT 300 ms
        assert!((m.point()[3] - 2.0).abs() < 1e-9);
        // a new smaller RTT lowers the min, ratio back to 1
        m.on_ack(t(475), &ack(400)); // RTT 75 ms
        assert!((m.point()[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Memory::new(SignalMask::all());
        m.on_ack(t(100), &ack(0));
        m.on_ack(t(120), &ack(10));
        assert_ne!(m.point(), [0.0; 4]);
        m.reset();
        assert_eq!(m.point(), [0.0; 4]);
    }

    #[test]
    fn knockout_pins_signal_to_zero() {
        let mut m = Memory::new(SignalMask::without(Signal::RecEwma));
        m.on_ack(t(100), &ack(0));
        m.on_ack(t(120), &ack(10));
        m.on_ack(t(140), &ack(20));
        let p = m.point();
        assert_eq!(p[0], 0.0, "rec_ewma knocked out");
        assert!(p[2] > 0.0, "send_ewma still live");
        assert!(p[3] > 0.0, "rtt_ratio still live");
    }

    #[test]
    fn mask_without_each_signal() {
        for s in Signal::ALL {
            let mask = SignalMask::without(s);
            assert!(!mask.is_enabled(s));
            let others = Signal::ALL.iter().filter(|&&o| o as usize != s as usize);
            for &o in others {
                assert!(mask.is_enabled(o));
            }
        }
    }
}
