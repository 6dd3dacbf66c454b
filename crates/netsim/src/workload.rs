//! Application workload models.
//!
//! The paper's workload (§3.1, item 3) is an ON/OFF process: a sender is
//! "on" for an exponentially distributed duration, then "off" for another
//! exponential duration. Fig 8 additionally uses a deterministic schedule
//! (TCP cross-traffic switching on at exactly t = 5 s and off at t = 10 s).

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Declarative workload configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Sender always has offered load.
    AlwaysOn,
    /// Exponential ON/OFF process with the given mean durations (seconds).
    /// The process starts OFF and draws its first ON arrival from the OFF
    /// distribution, so contending senders come up at staggered times.
    OnOff {
        /// Mean ON (transmitting) duration, seconds.
        mean_on_s: f64,
        /// Mean OFF (silent) duration, seconds.
        mean_off_s: f64,
    },
    /// Deterministic state switchpoints: `(time_s, on)` pairs, sorted by
    /// time. State before the first switchpoint is OFF.
    Schedule(Vec<(f64, bool)>),
    /// Flow churn: this sender slot hosts a Poisson process of short-lived
    /// flows. Flows arrive at `arrival_rate_hz` and each transfers for an
    /// exponentially distributed duration with mean `mean_duration_s`.
    ///
    /// With `unblocked: false` (the serde default), arrivals while a flow
    /// is in progress are *blocked*: by memorylessness of the exponential,
    /// the slot behaves as an ON/OFF process with mean ON
    /// `mean_duration_s` and mean OFF `1 / arrival_rate_hz` (duty cycle
    /// `λ·d / (1 + λ·d)`). The spec is kept distinct so churn sweeps
    /// express the *arrival rate* as data.
    ///
    /// With `unblocked: true`, the slot is an M/G/∞ station: arrivals are
    /// never blocked, concurrent transfers overlap (the engine counts
    /// them per slot), and the slot offers load while *any* transfer is
    /// active — ON exactly during the M/G/∞ busy periods, with
    /// stationary ON probability `1 − e^(−λ·d)`.
    Churn {
        /// Poisson flow arrival rate, per second.
        arrival_rate_hz: f64,
        /// Mean transfer duration, seconds (exponential).
        mean_duration_s: f64,
        /// M/G/∞ semantics: arrivals overlap instead of being blocked.
        #[serde(default)]
        unblocked: bool,
    },
}

impl WorkloadSpec {
    /// The paper's most common workload: mean 1 s on, 1 s off.
    pub fn on_off_1s() -> Self {
        WorkloadSpec::OnOff {
            mean_on_s: 1.0,
            mean_off_s: 1.0,
        }
    }

    /// The near-continuous load of the TCP-awareness experiment
    /// (5 s ON, 10 ms OFF).
    pub fn almost_continuous() -> Self {
        WorkloadSpec::OnOff {
            mean_on_s: 5.0,
            mean_off_s: 0.010,
        }
    }

    /// Fig 8's contrived cross-traffic: ON exactly during `[on_s, off_s)`.
    pub fn pulse(on_s: f64, off_s: f64) -> Self {
        WorkloadSpec::Schedule(vec![(on_s, true), (off_s, false)])
    }

    /// Blocked flow churn with the given Poisson arrival rate and mean
    /// flow duration (see [`WorkloadSpec::Churn`]).
    pub fn churn(arrival_rate_hz: f64, mean_duration_s: f64) -> Self {
        assert!(
            arrival_rate_hz > 0.0 && mean_duration_s > 0.0,
            "churn needs positive arrival rate and duration"
        );
        WorkloadSpec::Churn {
            arrival_rate_hz,
            mean_duration_s,
            unblocked: false,
        }
    }

    /// Unblocked M/G/∞ flow churn: Poisson arrivals that overlap within
    /// the slot instead of blocking (see [`WorkloadSpec::Churn`]).
    pub fn churn_mginf(arrival_rate_hz: f64, mean_duration_s: f64) -> Self {
        assert!(
            arrival_rate_hz > 0.0 && mean_duration_s > 0.0,
            "churn needs positive arrival rate and duration"
        );
        WorkloadSpec::Churn {
            arrival_rate_hz,
            mean_duration_s,
            unblocked: true,
        }
    }

    /// Mean dwell times of this spec as `(mean_on_s, mean_off_s)`, when the
    /// spec is a stochastic alternating process.
    fn dwell_means(&self) -> Option<(f64, f64)> {
        match *self {
            WorkloadSpec::OnOff {
                mean_on_s,
                mean_off_s,
            } => Some((mean_on_s, mean_off_s)),
            WorkloadSpec::Churn {
                arrival_rate_hz,
                mean_duration_s,
                ..
            } => Some((mean_duration_s, 1.0 / arrival_rate_hz)),
            _ => None,
        }
    }

    /// `(arrival_rate_hz, mean_duration_s)` when this spec is unblocked
    /// M/G/∞ churn — the engine routes such slots through per-slot flow
    /// multiplexing ([`crate::event::Event::FlowArrival`] /
    /// [`FlowDeparture`](crate::event::Event::FlowDeparture)) instead of
    /// the single-chain toggle machinery.
    pub fn mginf_rates(&self) -> Option<(f64, f64)> {
        match *self {
            WorkloadSpec::Churn {
                arrival_rate_hz,
                mean_duration_s,
                unblocked: true,
            } => Some((arrival_rate_hz, mean_duration_s)),
            _ => None,
        }
    }
}

/// Runtime state of a workload process. Its spec lives in the
/// simulation's interned table ([`Workload::interned`]), so a slot holds
/// an index, not a clone: 10⁴ slots sharing one spec store it once.
#[derive(Debug)]
pub struct Workload {
    /// Index of this process's spec in its table.
    spec: u32,
    on: bool,
    /// Next switchpoint of a `Schedule` spec.
    schedule_pos: u32,
}

/// The instant of a `Schedule` switchpoint.
fn switch_at(&(secs, _): &(f64, bool)) -> SimTime {
    SimTime::from_secs_f64(secs)
}

impl Workload {
    /// A workload state machine in its initial state for `spec`, which is
    /// appended to `specs` unless it equals the table's last entry. Flows
    /// are interned in order, so a run of equal specs (every homogeneous
    /// cell) costs one entry, and interning `n` flows is `O(n)` however
    /// many of their specs differ.
    pub fn interned(specs: &mut Vec<WorkloadSpec>, spec: &WorkloadSpec) -> Self {
        if let WorkloadSpec::Schedule(points) = spec {
            debug_assert!(
                points.windows(2).all(|w| w[0].0 <= w[1].0),
                "schedule must be time-sorted"
            );
        }
        if specs.last() != Some(spec) {
            specs.push(spec.clone());
        }
        Workload {
            spec: specs.len() as u32 - 1,
            on: matches!(spec, WorkloadSpec::AlwaysOn),
            schedule_pos: 0,
        }
    }

    fn spec<'a>(&self, specs: &'a [WorkloadSpec]) -> &'a WorkloadSpec {
        &specs[self.spec as usize]
    }

    /// Whether the sender currently has offered load.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// See [`WorkloadSpec::mginf_rates`].
    pub fn mginf_rates(&self, specs: &[WorkloadSpec]) -> Option<(f64, f64)> {
        self.spec(specs).mginf_rates()
    }

    /// Time of the first toggle after simulation start, if any.
    pub fn first_toggle(&mut self, specs: &[WorkloadSpec], rng: &mut SimRng) -> Option<SimTime> {
        let spec = self.spec(specs);
        match spec {
            WorkloadSpec::AlwaysOn => None,
            WorkloadSpec::OnOff { .. } | WorkloadSpec::Churn { .. } => {
                let (_, mean_off_s) = spec.dwell_means().expect("stochastic spec");
                Some(SimTime::ZERO + rng.exp_duration(SimDuration::from_secs_f64(mean_off_s)))
            }
            WorkloadSpec::Schedule(points) => points.first().map(switch_at),
        }
    }

    /// Apply a toggle at time `now`; returns the new state and the time of
    /// the next toggle (if any).
    pub fn toggle(
        &mut self,
        specs: &[WorkloadSpec],
        now: SimTime,
        rng: &mut SimRng,
    ) -> (bool, Option<SimTime>) {
        let spec = self.spec(specs);
        match spec {
            WorkloadSpec::AlwaysOn => (true, None),
            WorkloadSpec::OnOff { .. } | WorkloadSpec::Churn { .. } => {
                let (mean_on_s, mean_off_s) = spec.dwell_means().expect("stochastic spec");
                self.on = !self.on;
                let mean = if self.on {
                    SimDuration::from_secs_f64(mean_on_s)
                } else {
                    SimDuration::from_secs_f64(mean_off_s)
                };
                let mut dwell = rng.exp_duration(mean);
                // Zero-length dwell times would schedule a same-instant
                // re-toggle; clamp to 1 us to keep the event loop sane.
                if dwell.is_zero() {
                    dwell = SimDuration::from_micros(1);
                }
                (self.on, Some(now + dwell))
            }
            WorkloadSpec::Schedule(points) => {
                if let Some(&(_, on)) = points.get(self.schedule_pos as usize) {
                    self.on = on;
                    self.schedule_pos += 1;
                }
                let next = points.get(self.schedule_pos as usize).map(switch_at);
                (self.on, next)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload alone in its own spec table.
    fn single(spec: WorkloadSpec) -> (Workload, Vec<WorkloadSpec>) {
        let mut specs = Vec::new();
        (Workload::interned(&mut specs, &spec), specs)
    }

    #[test]
    fn always_on_never_toggles() {
        let (mut w, specs) = single(WorkloadSpec::AlwaysOn);
        let mut rng = SimRng::from_seed(1);
        assert!(w.is_on());
        assert_eq!(w.first_toggle(&specs, &mut rng), None);
    }

    #[test]
    fn on_off_alternates() {
        let (mut w, specs) = single(WorkloadSpec::on_off_1s());
        let mut rng = SimRng::from_seed(2);
        assert!(!w.is_on(), "starts off");
        let t0 = w.first_toggle(&specs, &mut rng).unwrap();
        let (on, next) = w.toggle(&specs, t0, &mut rng);
        assert!(on, "first toggle turns on");
        let t1 = next.unwrap();
        assert!(t1 > t0);
        let (on, next) = w.toggle(&specs, t1, &mut rng);
        assert!(!on, "second toggle turns off");
        assert!(next.unwrap() > t1);
    }

    #[test]
    fn on_off_duty_cycle_statistics() {
        // mean 1s on / 1s off: fraction of time on should approach 1/2
        let (mut w, specs) = single(WorkloadSpec::on_off_1s());
        let mut rng = SimRng::from_seed(3);
        let mut now = w.first_toggle(&specs, &mut rng).unwrap();
        let mut on_time = 0.0;
        let mut last = now;
        let mut state = false;
        for _ in 0..20_000 {
            let (on, next) = w.toggle(&specs, now, &mut rng);
            if state {
                on_time += (now - last).as_secs_f64();
            }
            last = now;
            state = on;
            now = next.unwrap();
        }
        let frac = on_time / last.as_secs_f64();
        assert!((frac - 0.5).abs() < 0.03, "duty cycle {frac} != 0.5");
    }

    #[test]
    fn churn_duty_cycle_tracks_offered_load() {
        // λ = 0.25 arrivals/s, mean duration 1 s: duty = λd/(1+λd) = 0.2.
        let (mut w, specs) = single(WorkloadSpec::churn(0.25, 1.0));
        let mut rng = SimRng::from_seed(5);
        assert!(!w.is_on(), "slot starts idle");
        let mut now = w.first_toggle(&specs, &mut rng).unwrap();
        let mut on_time = 0.0;
        let mut last = now;
        let mut state = false;
        for _ in 0..20_000 {
            let (on, next) = w.toggle(&specs, now, &mut rng);
            if state {
                on_time += (now - last).as_secs_f64();
            }
            last = now;
            state = on;
            now = next.unwrap();
        }
        let frac = on_time / last.as_secs_f64();
        assert!((frac - 0.2).abs() < 0.02, "duty cycle {frac} != 0.2");
    }

    #[test]
    #[should_panic(expected = "churn needs positive arrival rate")]
    fn churn_rejects_zero_rate() {
        WorkloadSpec::churn(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "churn needs positive arrival rate")]
    fn churn_mginf_rejects_zero_duration() {
        WorkloadSpec::churn_mginf(1.0, 0.0);
    }

    #[test]
    fn mginf_rates_only_for_unblocked_churn() {
        assert_eq!(WorkloadSpec::churn(2.0, 0.5).mginf_rates(), None);
        assert_eq!(
            WorkloadSpec::churn_mginf(2.0, 0.5).mginf_rates(),
            Some((2.0, 0.5))
        );
        assert_eq!(WorkloadSpec::on_off_1s().mginf_rates(), None);
        let (w, specs) = single(WorkloadSpec::churn_mginf(2.0, 0.5));
        assert!(!w.is_on(), "M/G/inf slot starts idle");
        assert_eq!(w.mginf_rates(&specs), Some((2.0, 0.5)));
    }

    #[test]
    fn mginf_first_arrival_matches_blocked_draw() {
        // The first arrival of the unblocked variant is the same exp(1/λ)
        // draw as the blocked one, so sweeps share their burn-in phase.
        let (mut blocked, specs_blocked) = single(WorkloadSpec::churn(0.5, 1.0));
        let (mut mginf, specs_mginf) = single(WorkloadSpec::churn_mginf(0.5, 1.0));
        let t_b = blocked
            .first_toggle(&specs_blocked, &mut SimRng::from_seed(11))
            .unwrap();
        let t_u = mginf
            .first_toggle(&specs_mginf, &mut SimRng::from_seed(11))
            .unwrap();
        assert_eq!(t_b, t_u);
    }

    #[test]
    fn pre_unblocked_churn_specs_still_parse() {
        // JSON from before the `unblocked` field existed.
        let json = r#"{"Churn": {"arrival_rate_hz": 2.0, "mean_duration_s": 0.5}}"#;
        let spec: WorkloadSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec, WorkloadSpec::churn(2.0, 0.5));
        // and the new field round-trips
        let mginf = WorkloadSpec::churn_mginf(2.0, 0.5);
        let back: WorkloadSpec =
            serde_json::from_str(&serde_json::to_string(&mginf).unwrap()).unwrap();
        assert_eq!(back, mginf);
    }

    #[test]
    fn interning_keeps_one_entry_per_run_of_equal_specs() {
        let mut specs = Vec::new();
        let on_off = WorkloadSpec::on_off_1s();
        let idx: Vec<u32> = [&on_off, &on_off, &WorkloadSpec::AlwaysOn, &on_off]
            .into_iter()
            .map(|s| Workload::interned(&mut specs, s).spec)
            .collect();
        assert_eq!(idx, [0, 0, 1, 2]);
        assert_eq!(specs.len(), 3);
        // 10⁴ distinct schedules: one entry each, each compared once.
        let mut specs = Vec::new();
        for i in 0..10_000 {
            let w = Workload::interned(&mut specs, &WorkloadSpec::pulse(i as f64, 1e5));
            assert_eq!(w.spec, i);
        }
        assert_eq!(specs.len(), 10_000);
    }

    #[test]
    fn pulse_schedule() {
        let (mut w, specs) = single(WorkloadSpec::pulse(5.0, 10.0));
        let mut rng = SimRng::from_seed(4);
        assert!(!w.is_on());
        let t0 = w.first_toggle(&specs, &mut rng).unwrap();
        assert_eq!(t0, SimTime::from_secs_f64(5.0));
        let (on, next) = w.toggle(&specs, t0, &mut rng);
        assert!(on);
        assert_eq!(next, Some(SimTime::from_secs_f64(10.0)));
        let (on, next) = w.toggle(&specs, next.unwrap(), &mut rng);
        assert!(!on);
        assert_eq!(next, None);
    }
}
