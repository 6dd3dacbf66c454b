//! A PCC-style online-learning sender (after Dong et al., *PCC:
//! Re-architecting Congestion Control for Consistent High Performance*,
//! NSDI 2015).
//!
//! Where Tao protocols are designed *offline* by simulating a scenario
//! model, PCC learns *online*: it runs randomized rate micro-experiments
//! against the live network and moves its rate along the empirical
//! utility gradient. That makes it the study's natural no-offline-training
//! learned baseline — no scenario model, no training budget, just the
//! same ack/loss/timeout transport hooks every other scheme gets.
//!
//! The control loop, simplified from PCC Allegro:
//!
//! * Time is sliced into **monitor intervals** (MIs) of one smoothed RTT.
//!   Per MI the sender records delivery rate, loss fraction, and the RTT
//!   gradient, then scores the interval with [`utility`]:
//!   `throughput · (1 − β·loss − γ·delay-gradient⁺)`.
//! * In the **starting** phase the rate doubles each MI while utility
//!   keeps improving (slow-start analogue); the first regression drops
//!   back and hands over to probing.
//! * In steady state each decision runs **two trial MIs** at
//!   `rate·(1±ε)` in an order chosen by a deterministic per-flow RNG
//!   (the randomized micro-experiment), then moves the base rate toward
//!   the trial with higher utility.
//! * Step size follows a **confidence-amplifying ladder**: consecutive
//!   moves in the same direction grow the multiplier (1, 2, 3, …, capped),
//!   and a direction flip resets it to 1 — fast convergence on a clean
//!   gradient, small oscillation around the optimum.

use netsim::packet::Ack;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::{AckInfo, CongestionControl};

/// Loss penalty β: one MI at 10% loss forfeits the whole interval.
pub const BETA: f64 = 10.0;
/// Delay-gradient penalty γ on the positive part of d(RTT)/dt.
pub const GAMMA: f64 = 2.0;
/// Trial amplitude ε of a rate micro-experiment.
pub const EPSILON: f64 = 0.05;
/// Cap of the confidence ladder (multiples of ε).
pub const MAX_CONFIDENCE: f64 = 8.0;

const INIT_RATE_PPS: f64 = 10.0;
const MIN_RATE_PPS: f64 = 0.2;
const MAX_RATE_PPS: f64 = 1e6;
const MIN_MI: SimDuration = SimDuration::from_millis(10);

/// Per-MI utility: `throughput − β·loss·throughput − γ·gradient⁺·throughput`.
///
/// `throughput_pps` is the delivery rate over the interval,
/// `loss_frac` the lost fraction of transmissions attributed to it, and
/// `delay_gradient` the dimensionless d(RTT)/dt across it. Only queue
/// *growth* is penalized (a draining queue is good news).
pub fn utility(throughput_pps: f64, loss_frac: f64, delay_gradient: f64) -> f64 {
    throughput_pps * (1.0 - BETA * loss_frac - GAMMA * delay_gradient.max(0.0))
}

/// Where the controller is in its experiment schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Double the rate each MI while utility improves.
    Starting,
    /// Running trial MI 1 of 2 of a micro-experiment.
    FirstTrial,
    /// Running trial MI 2 of 2 (opposite direction).
    SecondTrial,
}

/// Accumulated statistics of the monitor interval in flight.
#[derive(Clone, Copy, Debug, Default)]
struct MiStats {
    acks: u64,
    losses: u64,
    first_rtt_s: Option<f64>,
    last_rtt_s: f64,
}

/// The PCC-style online sender.
pub struct Pcc {
    /// Base (decision) rate in packets per second.
    rate_pps: f64,
    /// Rate in force for the current MI (base ± ε during trials).
    trial_rate_pps: f64,
    phase: Phase,
    /// +1.0 / −1.0: the direction of the *first* trial this experiment.
    first_dir: f64,
    /// Utility measured by the first trial MI.
    first_utility: f64,
    /// Signed confidence: magnitude is the ladder rung, sign the last
    /// move's direction.
    confidence: f64,
    /// Utility of the previous MI during `Starting`.
    last_utility: f64,
    mi: MiStats,
    mi_start: SimTime,
    mi_end: SimTime,
    srtt: SimDuration,
    /// Deterministic per-flow stream for trial-order randomization.
    rng_state: u64,
}

impl Pcc {
    pub fn new() -> Self {
        Pcc {
            rate_pps: INIT_RATE_PPS,
            trial_rate_pps: INIT_RATE_PPS,
            phase: Phase::Starting,
            first_dir: 1.0,
            first_utility: 0.0,
            confidence: 0.0,
            last_utility: f64::NEG_INFINITY,
            mi: MiStats::default(),
            mi_start: SimTime::ZERO,
            mi_end: SimTime::ZERO,
            srtt: SimDuration::from_millis(100),
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Current base rate (packets/s) — the quantity the gradient steps.
    pub fn rate_pps(&self) -> f64 {
        self.rate_pps
    }

    /// xorshift64: deterministic, independent of the simulation seed, so
    /// a run is a pure function of (config, seed) like every protocol.
    fn coin(&mut self) -> bool {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x & 1 == 1
    }

    fn mi_len(&self) -> SimDuration {
        self.srtt.max(MIN_MI)
    }

    fn begin_mi(&mut self, now: SimTime, rate: f64) {
        self.trial_rate_pps = rate.clamp(MIN_RATE_PPS, MAX_RATE_PPS);
        self.mi = MiStats::default();
        self.mi_start = now;
        self.mi_end = now + self.mi_len();
    }

    /// Score the MI that just ended.
    fn mi_utility(&self, now: SimTime) -> f64 {
        let dur = (now - self.mi_start).as_secs_f64().max(1e-9);
        let throughput = self.mi.acks as f64 / dur;
        let total = self.mi.acks + self.mi.losses;
        let loss = if total == 0 {
            0.0
        } else {
            self.mi.losses as f64 / total as f64
        };
        let gradient = match self.mi.first_rtt_s {
            Some(first) if self.mi.last_rtt_s > 0.0 => (self.mi.last_rtt_s - first) / dur,
            _ => 0.0,
        };
        utility(throughput, loss, gradient)
    }

    /// Launch a fresh two-MI micro-experiment around the base rate.
    fn start_experiment(&mut self, now: SimTime) {
        self.first_dir = if self.coin() { 1.0 } else { -1.0 };
        self.phase = Phase::FirstTrial;
        self.begin_mi(now, self.rate_pps * (1.0 + self.first_dir * EPSILON));
    }

    /// Move the base rate one ladder step in `dir` and restart probing.
    fn apply_decision(&mut self, now: SimTime, dir: f64) {
        self.confidence = if self.confidence * dir > 0.0 {
            (self.confidence.abs() + 1.0).min(MAX_CONFIDENCE) * dir
        } else {
            dir
        };
        let step = 1.0 + self.confidence.abs() * EPSILON * dir;
        self.rate_pps = (self.rate_pps * step).clamp(MIN_RATE_PPS, MAX_RATE_PPS);
        self.start_experiment(now);
    }

    /// Close the MI ending at `now` and advance the experiment schedule.
    fn finish_mi(&mut self, now: SimTime) {
        let u = self.mi_utility(now);
        match self.phase {
            Phase::Starting => {
                if u > self.last_utility {
                    self.last_utility = u;
                    self.rate_pps = (self.trial_rate_pps * 2.0).min(MAX_RATE_PPS);
                    self.begin_mi(now, self.rate_pps);
                } else {
                    // Overshot: fall back to the last good rate and start
                    // gradient probing.
                    self.rate_pps = (self.trial_rate_pps / 2.0).max(MIN_RATE_PPS);
                    self.start_experiment(now);
                }
            }
            Phase::FirstTrial => {
                self.first_utility = u;
                self.phase = Phase::SecondTrial;
                self.begin_mi(now, self.rate_pps * (1.0 - self.first_dir * EPSILON));
            }
            Phase::SecondTrial => {
                // The utility gradient's sign decides the move: toward
                // whichever trial scored higher (ties hold, resetting
                // confidence via the flip rule).
                let dir = if self.first_utility > u {
                    self.first_dir
                } else {
                    -self.first_dir
                };
                self.apply_decision(now, dir);
            }
        }
    }
}

impl Default for Pcc {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Pcc {
    fn reset(&mut self, now: SimTime) {
        *self = Pcc::new();
        self.begin_mi(now, self.rate_pps);
    }

    fn on_ack(&mut self, now: SimTime, _ack: &Ack, info: &AckInfo) {
        if let Some(rtt) = info.rtt {
            // EWMA smoothing keeps the MI length stable across jitter.
            let s = self.srtt.as_secs_f64() * 0.875 + rtt.as_secs_f64() * 0.125;
            self.srtt = SimDuration::from_secs_f64(s);
            let r = rtt.as_secs_f64();
            if self.mi.first_rtt_s.is_none() {
                self.mi.first_rtt_s = Some(r);
            }
            self.mi.last_rtt_s = r;
        }
        self.mi.acks += 1;
        if now >= self.mi_end {
            self.finish_mi(now);
        }
    }

    fn on_loss(&mut self, now: SimTime) {
        self.mi.losses += 1;
        if now >= self.mi_end {
            self.finish_mi(now);
        }
    }

    fn on_timeout(&mut self, now: SimTime) {
        // A timeout is evidence beyond any micro-experiment: collapse the
        // rate, drop accumulated confidence, and relearn from probing.
        self.rate_pps = (self.rate_pps * 0.5).max(MIN_RATE_PPS);
        self.confidence = 0.0;
        self.last_utility = f64::NEG_INFINITY;
        self.start_experiment(now);
    }

    fn window(&self) -> f64 {
        // Rate-based sender: the window only bounds in-flight so pacing
        // (intersend) is the binding control: 2×BDP at the trial rate.
        (self.trial_rate_pps * self.srtt.as_secs_f64() * 2.0 + 4.0).max(2.0)
    }

    fn intersend(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.trial_rate_pps)
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
    fn utility_sign_flips_under_loss_ramp() {
        // Same throughput: a clean interval scores positive, a ramping
        // loss rate drives the utility gradient negative — the sign flip
        // the controller steers by.
        let clean = utility(100.0, 0.0, 0.0);
        assert!(clean > 0.0);
        let lossy = utility(100.0, 0.2, 0.0);
        assert!(lossy < 0.0, "20% loss must dominate: {lossy}");
        // Monotone in loss: each injected increment lowers utility.
        let mut prev = clean;
        for pct in 1..=10 {
            let u = utility(100.0, pct as f64 / 100.0, 0.0);
            assert!(u < prev, "utility must fall as loss ramps: {u} !< {prev}");
            prev = u;
        }
    }

    #[test]
    fn utility_sign_flips_under_delay_ramp() {
        // A growing queue (positive RTT gradient) flips utility negative;
        // a draining queue is not penalized.
        let flat = utility(100.0, 0.0, 0.0);
        let ramping = utility(100.0, 0.0, 0.8);
        assert!(flat > 0.0 && ramping < 0.0, "flat={flat} ramping={ramping}");
        let mut prev = flat;
        for step in 1..=8 {
            let u = utility(100.0, 0.0, step as f64 * 0.1);
            assert!(u < prev, "utility must fall as delay ramps");
            prev = u;
        }
        let draining = utility(100.0, 0.0, -0.5);
        assert_eq!(draining, flat, "only queue growth is penalized");
    }

    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn starting_phase_doubles_until_utility_regresses() {
        let mut cc = Pcc::new();
        cc.reset(t(0));
        let r0 = cc.rate_pps();
        // Clean elastic path: acks come back at whatever pace the sender
        // chose, so each doubled MI measures doubled throughput and the
        // starting phase keeps doubling.
        let mut now = 0.0;
        for _ in 0..2000 {
            now += cc.intersend().as_secs_f64();
            cc.on_ack(at(now), &ack(), &info(100));
            if now > 5.0 {
                break;
            }
        }
        assert!(
            cc.rate_pps() >= r0 * 4.0,
            "clean path must grow the rate: {} -> {}",
            r0,
            cc.rate_pps()
        );
    }

    #[test]
    fn losses_drive_the_rate_back_down() {
        let mut cc = Pcc::new();
        cc.reset(t(0));
        cc.rate_pps = 1000.0;
        cc.phase = Phase::FirstTrial;
        cc.begin_mi(t(0), 1000.0);
        let before = cc.rate_pps();
        // 100 pps bottleneck: sends beyond capacity are losses, so the
        // higher-rate trial of every micro-experiment measures more loss
        // and lower utility — the gradient points down.
        let mut now = 0.0;
        let mut next_deliver = 0.0;
        for _ in 0..20_000 {
            now += cc.intersend().as_secs_f64();
            if now >= next_deliver {
                next_deliver = now + 0.01;
                cc.on_ack(at(now), &ack(), &info(100));
            } else {
                cc.on_loss(at(now));
            }
            if now > 30.0 {
                break;
            }
        }
        assert!(
            cc.rate_pps() < before / 2.0,
            "persistent loss must shrink the rate: {} -> {}",
            before,
            cc.rate_pps()
        );
    }

    #[test]
    fn confidence_ladder_amplifies_then_resets_on_flip() {
        let mut cc = Pcc::new();
        cc.reset(t(0));
        cc.rate_pps = 100.0;
        cc.confidence = 0.0;
        cc.apply_decision(t(0), 1.0);
        assert_eq!(cc.confidence, 1.0);
        cc.apply_decision(t(0), 1.0);
        assert_eq!(cc.confidence, 2.0, "same direction climbs the ladder");
        cc.apply_decision(t(0), 1.0);
        assert_eq!(cc.confidence, 3.0);
        cc.apply_decision(t(0), -1.0);
        assert_eq!(cc.confidence, -1.0, "direction flip resets to rung one");
        for _ in 0..20 {
            cc.apply_decision(t(0), -1.0);
        }
        assert_eq!(cc.confidence, -MAX_CONFIDENCE, "ladder is capped");
    }

    #[test]
    fn timeout_halves_rate_and_resets_confidence() {
        let mut cc = Pcc::new();
        cc.reset(t(0));
        cc.rate_pps = 800.0;
        cc.confidence = 5.0;
        cc.on_timeout(t(50));
        assert_eq!(cc.rate_pps(), 400.0);
        assert_eq!(cc.confidence, 0.0);
    }

    #[test]
    fn trial_order_is_deterministic() {
        let run = || {
            let mut cc = Pcc::new();
            cc.reset(t(0));
            (0..32).map(|_| cc.coin()).collect::<Vec<bool>>()
        };
        assert_eq!(run(), run(), "per-flow rng is a fixed stream");
        assert!(run().iter().any(|&b| b) && run().iter().any(|&b| !b));
    }

    #[test]
    fn pacing_follows_the_trial_rate() {
        let mut cc = Pcc::new();
        cc.reset(t(0));
        cc.begin_mi(t(0), 200.0);
        assert!((cc.intersend().as_secs_f64() - 0.005).abs() < 1e-12);
        assert!(cc.window() >= 2.0);
    }
}
