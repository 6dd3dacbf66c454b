//! Mechanistic verification of trained protocols.
//!
//! The paper's conclusion asks: "While our experimental results suggest
//! qualitatively that Remy-generated protocols do not carry a substantial
//! risk of catastrophic congestion collapse, can a protocol optimizer
//! maintain and verify this requirement mechanistically, as part of the
//! design process?" This module is that check: it sweeps a trained
//! whisker tree over a grid of adversarial scenarios — far outside any
//! training range — and flags collapse indicators:
//!
//! * **goodput collapse** — bottleneck utilization with retransmission
//!   ratio above 1 (more retransmissions than deliveries, the classic
//!   collapse signature the paper's footnote 2 recalls);
//! * **starvation** — a sender that was ON but delivered (almost)
//!   nothing;
//! * **runaway queues** — standing queueing delay beyond a multiple of
//!   the path RTT on a no-drop buffer.

use crate::scenario::{BufferSpec, ConcreteScenario, ScenarioSpec};
use netsim::prelude::*;
use protocols::{Scheme, WhiskerTree};
use serde::{Deserialize, Serialize};

/// Verification thresholds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct VerifyConfig {
    /// Flag if retransmissions / deliveries exceeds this (collapse).
    pub max_retx_ratio: f64,
    /// Flag if an ON sender's goodput falls below
    /// `min(equal_share × min_share_fraction, starvation_floor_bps)` —
    /// the absolute floor keeps merely-conservative protocols on very
    /// fast links from being misread as collapsed.
    pub min_share_fraction: f64,
    pub starvation_floor_bps: f64,
    /// Flag if queueing delay exceeds this multiple of the minimum RTT
    /// (no-drop buffers only).
    pub max_queue_rtt_multiple: f64,
    /// Simulated seconds per probe.
    pub sim_duration_s: f64,
    /// Seeds per probe.
    pub seeds: u64,
    /// Event cap per probe simulation.
    pub event_budget: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            // Collapse means *sustained* waste, not a thrashed 2-packet
            // buffer: require retransmissions to double deliveries.
            max_retx_ratio: 2.0,
            min_share_fraction: 0.05,
            starvation_floor_bps: 100_000.0,
            max_queue_rtt_multiple: 20.0,
            sim_duration_s: 12.0,
            seeds: 2,
            event_budget: 10_000_000,
        }
    }
}

/// One flagged probe.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Violation {
    pub probe: String,
    pub kind: ViolationKind,
    pub detail: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    RetransmissionCollapse,
    Starvation,
    RunawayQueue,
}

/// Verification verdict for one protocol.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VerifyReport {
    pub protocol: String,
    pub probes_run: usize,
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The adversarial probe grid: deliberately *outside* typical training
/// ranges — slow and fast links, tiny buffers, no-drop buffers, and heavy
/// multiplexing.
pub fn adversarial_probes() -> Vec<(String, ScenarioSpec)> {
    let mut probes = Vec::new();
    for &(label, mbps, senders, buffer) in &[
        (
            "slow-link-tiny-buffer",
            0.5,
            2u32,
            BufferSpec::BdpMultiple(0.5),
        ),
        ("fast-link", 500.0, 2, BufferSpec::BdpMultiple(1.0)),
        ("heavy-mux-finite", 15.0, 64, BufferSpec::BdpMultiple(1.0)),
        ("heavy-mux-nodrop", 15.0, 64, BufferSpec::Infinite),
        ("lone-sender-nodrop", 10.0, 1, BufferSpec::Infinite),
    ] {
        probes.push((
            label.to_string(),
            ScenarioSpec {
                topology: crate::scenario::TopologySpec::Dumbbell {
                    link_mbps: crate::scenario::Sample::Fixed(mbps),
                    rtt_ms: crate::scenario::Sample::Fixed(100.0),
                },
                classes: vec![crate::scenario::SenderClassSpec {
                    role: crate::scenario::RoleSpec::Tao { slot: 0 },
                    count: crate::scenario::CountSpec::Fixed(senders),
                    workload: WorkloadSpec::almost_continuous(),
                    delta: 1.0,
                }],
                buffer,
            },
        ));
    }
    probes
}

fn is_no_drop(s: &ConcreteScenario) -> bool {
    s.net.links.iter().all(|l| {
        matches!(
            l.queue,
            netsim::queue::QueueSpec::DropTail {
                capacity_bytes: None
            }
        )
    })
}

/// Verify one trained tree against the probe grid.
pub fn verify(tree: &WhiskerTree, protocol: &str, cfg: &VerifyConfig) -> VerifyReport {
    let mut violations = Vec::new();
    let probes = adversarial_probes();
    let probes_run = probes.len() * cfg.seeds as usize;
    // Every probe puts its Tao senders in slot 0.
    let tao = [Scheme::tao(tree.clone(), protocol)];

    for (label, spec) in &probes {
        for seed in 0..cfg.seeds {
            let scenario = spec.sample(0xFEED_0000 + seed);
            let mut sim = Simulation::new(&scenario.net, scenario.protocols(&tao), scenario.seed);
            sim.set_event_budget(cfg.event_budget);
            let out = sim.run(SimDuration::from_secs_f64(cfg.sim_duration_s));

            let n = out.flows.len() as f64;
            let rate = scenario.net.links[0].rate_bps;
            let rtt = scenario.net.min_rtt(0).as_secs_f64();
            for f in &out.flows {
                if f.on_time_s <= rtt {
                    continue; // not enough airtime to judge
                }
                let retx_ratio = if f.packets_delivered > 0 {
                    f.retransmissions as f64 / f.packets_delivered as f64
                } else if f.retransmissions > 0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                if retx_ratio > cfg.max_retx_ratio {
                    violations.push(Violation {
                        probe: format!("{label}/seed{seed}"),
                        kind: ViolationKind::RetransmissionCollapse,
                        detail: format!(
                            "flow {}: retx/delivered = {:.2} ({} retx, {} delivered)",
                            f.flow, retx_ratio, f.retransmissions, f.packets_delivered
                        ),
                    });
                }
                let share = rate / n;
                let starve_below = (share * cfg.min_share_fraction).min(cfg.starvation_floor_bps);
                if f.throughput_bps < starve_below {
                    violations.push(Violation {
                        probe: format!("{label}/seed{seed}"),
                        kind: ViolationKind::Starvation,
                        detail: format!(
                            "flow {}: {:.0} bps below starvation line {:.0} bps (share {:.0})",
                            f.flow, f.throughput_bps, starve_below, share
                        ),
                    });
                }
                if is_no_drop(&scenario)
                    && f.avg_queueing_delay_s > cfg.max_queue_rtt_multiple * rtt
                {
                    violations.push(Violation {
                        probe: format!("{label}/seed{seed}"),
                        kind: ViolationKind::RunawayQueue,
                        detail: format!(
                            "flow {}: queueing delay {:.2}s > {}x RTT",
                            f.flow, f.avg_queueing_delay_s, cfg.max_queue_rtt_multiple
                        ),
                    });
                }
            }
        }
    }

    VerifyReport {
        protocol: protocol.to_string(),
        probes_run,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::Action;

    fn quick_cfg() -> VerifyConfig {
        VerifyConfig {
            sim_duration_s: 5.0,
            seeds: 1,
            event_budget: 400_000,
            ..Default::default()
        }
    }

    #[test]
    fn sane_protocol_passes() {
        // window <- 0.5w + 1, lightly paced: steady 2-packet window,
        // harmless even on the 2-packet adversarial buffer.
        let tree = WhiskerTree::uniform(Action::new(0.5, 1.0, 2.0));
        let report = verify(&tree, "sane", &quick_cfg());
        assert!(
            report.passed(),
            "sane protocol flagged: {:?}",
            report.violations
        );
        assert!(report.probes_run >= 5);
    }

    #[test]
    fn blaster_is_flagged() {
        // Maximal aggression with negligible pacing: floods every buffer.
        let tree = WhiskerTree::uniform(Action::new(2.0, 32.0, 0.002));
        let report = verify(&tree, "blaster", &quick_cfg());
        assert!(!report.passed(), "the blaster must trip the verifier");
        // It should specifically show queue or retransmission pathologies.
        assert!(report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::RetransmissionCollapse | ViolationKind::RunawayQueue
        )));
    }

    #[test]
    fn zombie_is_flagged_as_starved() {
        // A protocol that effectively never sends (maximal pacing).
        let tree = WhiskerTree::uniform(Action::new(0.0, 0.0, 1000.0));
        let report = verify(&tree, "zombie", &quick_cfg());
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::Starvation));
    }

    #[test]
    fn report_serializes() {
        let tree = WhiskerTree::uniform(Action::new(0.9, 1.0, 1.0));
        let report = verify(&tree, "sane", &quick_cfg());
        let json = serde_json::to_string(&report).unwrap();
        let back: VerifyReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.protocol, "sane");
        assert_eq!(back.probes_run, report.probes_run);
    }
}
