//! Training-scenario specifications (§3.1 of the paper).
//!
//! A [`ScenarioSpec`] is the designer's (possibly imperfect) model of the
//! target network: distributions over link speeds, propagation delays,
//! degrees of multiplexing, buffer sizes, and the mix of sender behaviours
//! (including incumbent AIMD cross-traffic for the TCP-awareness
//! experiments, and multiple Tao classes with different objectives for the
//! sender-diversity experiment). Sampling a spec yields a
//! [`ConcreteScenario`]: a fully specified network plus sender roles,
//! ready to simulate.

use crate::objective::Objective;
use crate::space::ScenarioSpace;
use netsim::prelude::*;
use netsim::queue::QueueSpec;
use netsim::rng::SimRng;
use netsim::transport::CongestionControl;
use netsim::workload::WorkloadSpec;
use protocols::{Scheme, UsageCounts};
use serde::{Deserialize, Serialize};

/// A scalar drawn per scenario sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Sample {
    Fixed(f64),
    /// Uniform in `[lo, hi]`.
    Uniform {
        lo: f64,
        hi: f64,
    },
    /// Log-uniform in `[lo, hi]` — how the paper samples link speeds.
    LogUniform {
        lo: f64,
        hi: f64,
    },
}

impl Sample {
    pub fn draw(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Sample::Fixed(v) => v,
            Sample::Uniform { lo, hi } => rng.uniform(lo, hi),
            Sample::LogUniform { lo, hi } => rng.log_uniform(lo, hi),
        }
    }

    /// Midpoint of the range (geometric for log-uniform); used for
    /// deterministic "center of the training range" probes.
    pub fn center(&self) -> f64 {
        match *self {
            Sample::Fixed(v) => v,
            Sample::Uniform { lo, hi } => (lo + hi) / 2.0,
            Sample::LogUniform { lo, hi } => (lo * hi).sqrt(),
        }
    }

    /// Closed range `[lo, hi]` of values this sample can take.
    pub fn bounds(&self) -> (f64, f64) {
        match *self {
            Sample::Fixed(v) => (v, v),
            Sample::Uniform { lo, hi } | Sample::LogUniform { lo, hi } => (lo, hi),
        }
    }

    /// Clamp `v` into this sample's bounds (non-finite values collapse to
    /// the lower bound), so mutated values can never escape the range.
    pub fn clamp(&self, v: f64) -> f64 {
        let (lo, hi) = self.bounds();
        if !v.is_finite() {
            return lo;
        }
        v.clamp(lo, hi)
    }
}

/// How many senders of a class appear in one sampled scenario.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CountSpec {
    Fixed(u32),
    /// Uniform integer in `[lo, hi]`.
    UniformInt {
        lo: u32,
        hi: u32,
    },
}

impl CountSpec {
    pub fn draw(&self, rng: &mut SimRng) -> u32 {
        match *self {
            CountSpec::Fixed(n) => n,
            CountSpec::UniformInt { lo, hi } => rng.uniform_u32(lo, hi),
        }
    }

    pub fn max(&self) -> u32 {
        match *self {
            CountSpec::Fixed(n) => n,
            CountSpec::UniformInt { hi, .. } => hi,
        }
    }
}

/// What protocol a sender of a class runs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum RoleSpec {
    /// A Tao sender running the tree in the given optimizer slot.
    Tao { slot: usize },
    /// Incumbent AIMD (NewReno-like) cross-traffic.
    Aimd,
    /// TCP-awareness training: with probability `p_aimd` this sender is
    /// AIMD; otherwise it runs the Tao tree in `slot` (Table 6a trains
    /// against TCP "half the time").
    TaoOrAimd { slot: usize, p_aimd: f64 },
}

/// Resolved role of one sender in a concrete scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    Tao { slot: usize },
    Aimd,
}

/// A class of senders sharing role, workload, and objective.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SenderClassSpec {
    pub role: RoleSpec,
    pub count: CountSpec,
    pub workload: WorkloadSpec,
    /// δ of the objective this class is scored under.
    pub delta: f64,
}

impl SenderClassSpec {
    /// The common case: `count` Tao senders with 1 s ON/OFF and δ = 1.
    pub fn tao(slot: usize, count: CountSpec) -> Self {
        SenderClassSpec {
            role: RoleSpec::Tao { slot },
            count,
            workload: WorkloadSpec::on_off_1s(),
            delta: 1.0,
        }
    }
}

/// Bottleneck buffer model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum BufferSpec {
    /// Drop-tail sized to a multiple of the bandwidth-delay product.
    BdpMultiple(f64),
    /// Infinite FIFO ("no drop").
    Infinite,
    /// Drop-tail with a fixed byte capacity (Fig 7 uses 250 kB).
    Bytes(u64),
}

impl BufferSpec {
    pub fn to_queue(&self, rate_bps: f64, min_rtt_s: f64) -> QueueSpec {
        match *self {
            BufferSpec::BdpMultiple(m) => QueueSpec::drop_tail_bdp(rate_bps, min_rtt_s, m),
            BufferSpec::Infinite => QueueSpec::infinite(),
            BufferSpec::Bytes(b) => QueueSpec::DropTail {
                capacity_bytes: Some(b),
            },
        }
    }
}

/// Network structure of the scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Single bottleneck shared by all senders.
    Dumbbell { link_mbps: Sample, rtt_ms: Sample },
    /// The two-bottleneck parking lot of Fig 5; sender classes are laid
    /// out per [`netsim::topology::parking_lot`]: the first sender crosses
    /// both links, the second contends on link 1, the third on link 2.
    ParkingLot {
        link1_mbps: Sample,
        link2_mbps: Sample,
        per_link_delay_ms: f64,
    },
}

impl TopologySpec {
    /// The [`ScenarioSpace`] over this topology's sampled axes, in the
    /// exact order [`ScenarioSpec::sample`] draws them. This is what makes
    /// a Remy training-distribution draw one instance of the general
    /// scenario-space machinery: the spec's topology ranges *are* a
    /// (small) `ScenarioSpace`, and `sample` routes its draws through it.
    pub fn space(&self) -> ScenarioSpace {
        match *self {
            TopologySpec::Dumbbell { link_mbps, rtt_ms } => ScenarioSpace::new("dumbbell")
                .with_continuous("link_mbps", link_mbps)
                .with_continuous("rtt_ms", rtt_ms),
            TopologySpec::ParkingLot {
                link1_mbps,
                link2_mbps,
                ..
            } => ScenarioSpace::new("parking-lot")
                .with_continuous("link1_mbps", link1_mbps)
                .with_continuous("link2_mbps", link2_mbps),
        }
    }
}

/// A complete training-scenario specification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    pub topology: TopologySpec,
    pub classes: Vec<SenderClassSpec>,
    pub buffer: BufferSpec,
}

impl ScenarioSpec {
    /// The calibration scenario of Table 1: 32 Mbps, 150 ms, 2 senders,
    /// 1 s ON/OFF, 5 BDP of buffer.
    pub fn calibration() -> Self {
        ScenarioSpec {
            topology: TopologySpec::Dumbbell {
                link_mbps: Sample::Fixed(32.0),
                rtt_ms: Sample::Fixed(150.0),
            },
            classes: vec![SenderClassSpec::tao(0, CountSpec::Fixed(2))],
            buffer: BufferSpec::BdpMultiple(5.0),
        }
    }

    /// Table 2a: link-speed range training, 2 senders, 150 ms.
    pub fn link_speed_range(lo_mbps: f64, hi_mbps: f64) -> Self {
        ScenarioSpec {
            topology: TopologySpec::Dumbbell {
                link_mbps: Sample::LogUniform {
                    lo: lo_mbps,
                    hi: hi_mbps,
                },
                rtt_ms: Sample::Fixed(150.0),
            },
            classes: vec![SenderClassSpec::tao(0, CountSpec::Fixed(2))],
            buffer: BufferSpec::BdpMultiple(5.0),
        }
    }

    /// Table 3a: multiplexing training at 15 Mbps, `n` senders.
    pub fn multiplexing(n_senders: u32, buffer: BufferSpec) -> Self {
        ScenarioSpec {
            topology: TopologySpec::Dumbbell {
                link_mbps: Sample::Fixed(15.0),
                rtt_ms: Sample::Fixed(150.0),
            },
            classes: vec![SenderClassSpec::tao(
                0,
                CountSpec::UniformInt {
                    lo: 1,
                    hi: n_senders.max(1),
                },
            )],
            buffer,
        }
    }

    /// Table 4a: propagation-delay training at 33 Mbps, 2 senders.
    pub fn rtt_range(lo_ms: f64, hi_ms: f64) -> Self {
        let rtt = if (hi_ms - lo_ms).abs() < 1e-9 {
            Sample::Fixed(lo_ms)
        } else {
            Sample::Uniform {
                lo: lo_ms,
                hi: hi_ms,
            }
        };
        ScenarioSpec {
            topology: TopologySpec::Dumbbell {
                link_mbps: Sample::Fixed(33.0),
                rtt_ms: rtt,
            },
            classes: vec![SenderClassSpec::tao(0, CountSpec::Fixed(2))],
            buffer: BufferSpec::BdpMultiple(5.0),
        }
    }

    /// Table 5: simplified one-bottleneck model of the parking lot
    /// (10–100 Mbps, 150 ms, 2 senders).
    pub fn one_bottleneck_model() -> Self {
        ScenarioSpec {
            topology: TopologySpec::Dumbbell {
                link_mbps: Sample::LogUniform {
                    lo: 10.0,
                    hi: 100.0,
                },
                rtt_ms: Sample::Fixed(150.0),
            },
            classes: vec![SenderClassSpec::tao(0, CountSpec::Fixed(2))],
            buffer: BufferSpec::BdpMultiple(5.0),
        }
    }

    /// Table 5: the full two-bottleneck parking-lot model.
    pub fn two_bottleneck_model() -> Self {
        ScenarioSpec {
            topology: TopologySpec::ParkingLot {
                link1_mbps: Sample::LogUniform {
                    lo: 10.0,
                    hi: 100.0,
                },
                link2_mbps: Sample::LogUniform {
                    lo: 10.0,
                    hi: 100.0,
                },
                per_link_delay_ms: 75.0,
            },
            classes: vec![SenderClassSpec {
                role: RoleSpec::Tao { slot: 0 },
                count: CountSpec::Fixed(3),
                workload: WorkloadSpec::on_off_1s(),
                delta: 1.0,
            }],
            buffer: BufferSpec::BdpMultiple(5.0),
        }
    }

    /// Table 6a TCP-naive: 2 Tao senders, 9–11 Mbps, 100 ms, 2 BDP buffer.
    /// Workload is drawn between 5 s ON/OFF and nearly-continuous load.
    pub fn tcp_naive() -> Self {
        ScenarioSpec {
            topology: TopologySpec::Dumbbell {
                link_mbps: Sample::Uniform { lo: 9.0, hi: 11.0 },
                rtt_ms: Sample::Fixed(100.0),
            },
            classes: vec![SenderClassSpec {
                role: RoleSpec::Tao { slot: 0 },
                count: CountSpec::Fixed(2),
                workload: WorkloadSpec::OnOff {
                    mean_on_s: 5.0,
                    mean_off_s: 1.0,
                },
                delta: 1.0,
            }],
            buffer: BufferSpec::BdpMultiple(2.0),
        }
    }

    /// Table 6a TCP-aware: one sender is always Tao; the other is AIMD
    /// half the time.
    pub fn tcp_aware() -> Self {
        let mut spec = Self::tcp_naive();
        spec.classes = vec![
            SenderClassSpec {
                role: RoleSpec::Tao { slot: 0 },
                count: CountSpec::Fixed(1),
                workload: WorkloadSpec::OnOff {
                    mean_on_s: 5.0,
                    mean_off_s: 1.0,
                },
                delta: 1.0,
            },
            SenderClassSpec {
                role: RoleSpec::TaoOrAimd {
                    slot: 0,
                    p_aimd: 0.5,
                },
                count: CountSpec::Fixed(1),
                workload: WorkloadSpec::OnOff {
                    mean_on_s: 5.0,
                    mean_off_s: 1.0,
                },
                delta: 1.0,
            },
        ];
        spec
    }

    /// Table 7a: sender diversity. Two Tao classes (slots 0 and 1) with
    /// δ = 0.1 (throughput-sensitive) and δ = 10 (delay-sensitive); 0–2
    /// senders of each type on a 10 Mbps, 100 ms, no-drop dumbbell.
    pub fn diversity() -> Self {
        ScenarioSpec {
            topology: TopologySpec::Dumbbell {
                link_mbps: Sample::Fixed(10.0),
                rtt_ms: Sample::Fixed(100.0),
            },
            classes: vec![
                SenderClassSpec {
                    role: RoleSpec::Tao { slot: 0 },
                    count: CountSpec::UniformInt { lo: 0, hi: 2 },
                    workload: WorkloadSpec::on_off_1s(),
                    delta: Objective::throughput_sensitive().delta,
                },
                SenderClassSpec {
                    role: RoleSpec::Tao { slot: 1 },
                    count: CountSpec::UniformInt { lo: 0, hi: 2 },
                    workload: WorkloadSpec::on_off_1s(),
                    delta: Objective::delay_sensitive().delta,
                },
            ],
            buffer: BufferSpec::Infinite,
        }
    }

    /// Number of Tao tree slots this spec references (1 + highest slot).
    pub fn num_slots(&self) -> usize {
        self.classes
            .iter()
            .map(|c| match c.role {
                RoleSpec::Tao { slot } | RoleSpec::TaoOrAimd { slot, .. } => slot + 1,
                RoleSpec::Aimd => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// The [`ScenarioSpace`] this spec samples its topology from.
    pub fn space(&self) -> ScenarioSpace {
        self.topology.space()
    }

    /// Draw a concrete scenario. Deterministic in `seed`.
    pub fn sample(&self, seed: u64) -> ConcreteScenario {
        let mut rng = SimRng::from_seed(seed);
        // Topology axes are drawn through the spec's ScenarioSpace, in
        // declared order, from the same rng — the general sampler and the
        // historical inline draws produce bit-identical streams.
        let point = self.space().sample_with(&mut rng);
        match &self.topology {
            TopologySpec::Dumbbell { .. } => {
                let rate = point[0] * 1e6;
                let rtt_s = point[1] / 1e3;
                let mut roles = Vec::new();
                let mut deltas = Vec::new();
                let mut workloads = Vec::new();
                for class in &self.classes {
                    let n = class.count.draw(&mut rng);
                    for _ in 0..n {
                        let role = match class.role {
                            RoleSpec::Tao { slot } => Role::Tao { slot },
                            RoleSpec::Aimd => Role::Aimd,
                            RoleSpec::TaoOrAimd { slot, p_aimd } => {
                                if rng.chance(p_aimd) {
                                    Role::Aimd
                                } else {
                                    Role::Tao { slot }
                                }
                            }
                        };
                        roles.push(role);
                        deltas.push(class.delta);
                        workloads.push(class.workload.clone());
                    }
                }
                // A scenario with zero senders is degenerate; re-draw the
                // first class with one sender so every sample is usable
                // (matters for the diversity spec's 0..2 counts).
                if roles.is_empty() {
                    let class = &self.classes[0];
                    let role = match class.role {
                        RoleSpec::Tao { slot } | RoleSpec::TaoOrAimd { slot, .. } => {
                            Role::Tao { slot }
                        }
                        RoleSpec::Aimd => Role::Aimd,
                    };
                    roles.push(role);
                    deltas.push(class.delta);
                    workloads.push(class.workload.clone());
                }
                let queue = self.buffer.to_queue(rate, rtt_s);
                let net = netsim::topology::dumbbell_mixed(rate, rtt_s, queue, workloads);
                ConcreteScenario {
                    net,
                    roles,
                    deltas,
                    seed: rng.gen_u64(),
                }
            }
            TopologySpec::ParkingLot {
                per_link_delay_ms, ..
            } => {
                let r1 = point[0] * 1e6;
                let r2 = point[1] * 1e6;
                let delay_s = per_link_delay_ms / 1e3;
                let class = &self.classes[0];
                let (q1, q2) = (
                    self.buffer.to_queue(r1, 2.0 * delay_s),
                    self.buffer.to_queue(r2, 2.0 * delay_s),
                );
                let net =
                    netsim::topology::parking_lot(r1, r2, delay_s, q1, q2, class.workload.clone());
                let role = match class.role {
                    RoleSpec::Tao { slot } | RoleSpec::TaoOrAimd { slot, .. } => Role::Tao { slot },
                    RoleSpec::Aimd => Role::Aimd,
                };
                ConcreteScenario {
                    net,
                    roles: vec![role; 3],
                    deltas: vec![class.delta; 3],
                    seed: rng.gen_u64(),
                }
            }
        }
    }
}

/// A fully specified, simulatable scenario.
#[derive(Clone, Debug)]
pub struct ConcreteScenario {
    pub net: NetworkConfig,
    /// Per-flow protocol role (parallel to `net.flows`).
    pub roles: Vec<Role>,
    /// Per-flow objective δ.
    pub deltas: Vec<f64>,
    /// Seed for the simulation run itself.
    pub seed: u64,
}

impl ConcreteScenario {
    /// One controller per flow: a Tao role runs the scheme in its slot of
    /// `tao` and records its whisker uses in [`UsageCounts`], which
    /// training reads back; AIMD cross-traffic runs NewReno.
    pub fn protocols(&self, tao: &[Scheme]) -> Vec<Box<dyn CongestionControl>> {
        self.roles
            .iter()
            .map(|role| match *role {
                Role::Tao { slot } => tao[slot].build_with::<UsageCounts>(),
                Role::Aimd => Scheme::NewReno.build(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let spec = ScenarioSpec::link_speed_range(1.0, 1000.0);
        let a = spec.sample(7);
        let b = spec.sample(7);
        assert_eq!(a.net, b.net);
        assert_eq!(a.roles, b.roles);
        assert_eq!(a.seed, b.seed);
        let c = spec.sample(8);
        assert_ne!(
            a.net.links[0].rate_bps, c.net.links[0].rate_bps,
            "different seeds draw different speeds"
        );
    }

    #[test]
    fn link_speed_samples_stay_in_range() {
        let spec = ScenarioSpec::link_speed_range(10.0, 100.0);
        for seed in 0..200 {
            let s = spec.sample(seed);
            let mbps = s.net.links[0].rate_bps / 1e6;
            assert!((10.0..=100.0).contains(&mbps), "sampled {mbps}");
        }
    }

    #[test]
    fn calibration_matches_table_1() {
        let s = ScenarioSpec::calibration().sample(1);
        assert_eq!(s.net.links[0].rate_bps, 32e6);
        assert_eq!(
            s.net.min_rtt(0),
            netsim::time::SimDuration::from_millis(150)
        );
        assert_eq!(s.roles.len(), 2);
        // 5 BDP buffer = 3 MB
        match &s.net.links[0].queue {
            QueueSpec::DropTail {
                capacity_bytes: Some(c),
            } => assert_eq!(*c, 3_000_000),
            other => panic!("unexpected queue {other:?}"),
        }
    }

    #[test]
    fn multiplexing_counts_vary() {
        let spec = ScenarioSpec::multiplexing(100, BufferSpec::BdpMultiple(5.0));
        let mut seen = std::collections::HashSet::new();
        for seed in 0..100 {
            let n = spec.sample(seed).roles.len();
            assert!((1..=100).contains(&n));
            seen.insert(n);
        }
        assert!(seen.len() > 20, "counts should spread over the range");
    }

    #[test]
    fn tcp_aware_draws_aimd_half_the_time() {
        let spec = ScenarioSpec::tcp_aware();
        let mut aimd = 0;
        let total = 400;
        for seed in 0..total {
            let s = spec.sample(seed);
            assert_eq!(s.roles[0], Role::Tao { slot: 0 }, "first sender always Tao");
            if s.roles[1] == Role::Aimd {
                aimd += 1;
            }
        }
        let frac = aimd as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.1, "AIMD fraction {frac}");
    }

    #[test]
    fn diversity_always_has_a_sender() {
        let spec = ScenarioSpec::diversity();
        assert_eq!(spec.num_slots(), 2);
        for seed in 0..200 {
            let s = spec.sample(seed);
            assert!(!s.roles.is_empty(), "degenerate zero-sender draw");
            assert_eq!(s.roles.len(), s.deltas.len());
        }
    }

    #[test]
    fn parking_lot_spec_builds_three_flows() {
        let s = ScenarioSpec::two_bottleneck_model().sample(3);
        assert_eq!(s.net.flows.len(), 3);
        assert_eq!(s.net.links.len(), 2);
        assert_eq!(s.roles, vec![Role::Tao { slot: 0 }; 3]);
        // flow 0 sees 150 ms RTT
        assert_eq!(
            s.net.min_rtt(0),
            netsim::time::SimDuration::from_millis(150)
        );
    }

    #[test]
    fn rtt_range_degenerate_is_fixed() {
        let spec = ScenarioSpec::rtt_range(150.0, 150.0);
        match spec.topology {
            TopologySpec::Dumbbell { rtt_ms, .. } => assert_eq!(rtt_ms, Sample::Fixed(150.0)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn sample_center() {
        assert_eq!(Sample::Fixed(5.0).center(), 5.0);
        assert_eq!(Sample::Uniform { lo: 2.0, hi: 4.0 }.center(), 3.0);
        let c = Sample::LogUniform {
            lo: 1.0,
            hi: 1000.0,
        }
        .center();
        assert!((c - 31.6227766).abs() < 1e-6);
    }

    #[test]
    fn specs_serialize() {
        for spec in [
            ScenarioSpec::calibration(),
            ScenarioSpec::tcp_aware(),
            ScenarioSpec::diversity(),
            ScenarioSpec::two_bottleneck_model(),
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }
}
