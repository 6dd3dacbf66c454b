//! Figs 7–8 / Table 6 — knowledge about incumbent endpoints.
//!
//! Two Tao protocols are trained on a 10 Mbps / 100 ms dumbbell with 2 BDP
//! (250 kB) of buffer and near-continuous offered load: **TCP-naive**
//! assumes all cross-traffic runs the same protocol; **TCP-aware** trains
//! against AIMD (NewReno-like) cross-traffic half the time. Fig 7 compares
//! them in homogeneous and mixed settings; Fig 8 inspects queue dynamics
//! in the time domain against a contrived TCP pulse (ON exactly during
//! t ∈ [5, 10) s).

use super::scaffold::prelude::*;
use netsim::probe::QueueTrace;
use remy::{OptimizerConfig, TrainCost};
use std::fmt;

pub const ASSET_NAIVE: &str = "tao-tcp-naive";
pub const ASSET_AWARE: &str = "tao-tcp-aware";

/// Fig 7's testing network: 10 Mbps, 100 ms RTT, 250 kB buffer
/// (2 BDP = 200 ms of maximum queueing delay), near-continuous load.
pub fn test_network() -> NetworkConfig {
    network(vec![WorkloadSpec::almost_continuous(); 2])
}

fn network(workloads: Vec<WorkloadSpec>) -> NetworkConfig {
    let queue = QueueSpec::DropTail {
        capacity_bytes: Some(250_000),
    };
    dumbbell_mixed(10e6, 0.100, queue, workloads)
}

/// The Fig 7 contention matrix: (group, row config, per-flow contender
/// labels) in table order.
const ROWS: [(&str, &str, [&str; 2]); 5] = [
    ("homogeneous", "2x tcp-naive", [ASSET_NAIVE, ASSET_NAIVE]),
    ("homogeneous", "2x tcp-aware", [ASSET_AWARE, ASSET_AWARE]),
    ("homogeneous", "2x newreno", ["newreno", "newreno"]),
    ("mixed", "tcp-naive vs newreno", [ASSET_NAIVE, "newreno"]),
    ("mixed", "tcp-aware vs newreno", [ASSET_AWARE, "newreno"]),
];

/// The incumbent-endpoint experiment (`learnability run tcp_aware`),
/// covering both the Fig 7 contention matrix and the Fig 8 time-domain
/// traces.
pub struct TcpAware;

impl Experiment for TcpAware {
    fn id(&self) -> &'static str {
        "tcp_aware"
    }

    fn paper_artifact(&self) -> &'static str {
        "Figs 7-8 / Table 6 — knowledge about incumbent endpoints"
    }

    fn roster(&self) -> Vec<Contender> {
        vec![
            Contender::asset(ASSET_NAIVE),
            Contender::asset(ASSET_AWARE),
            Contender::fixed(Scheme::NewReno),
        ]
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        vec![
            TrainJob::single(
                ASSET_NAIVE,
                vec![remy::ScenarioSpec::tcp_naive()],
                OptimizerConfig::standard(TrainCost::Normal),
            ),
            TrainJob::single(
                ASSET_AWARE,
                vec![remy::ScenarioSpec::tcp_aware()],
                OptimizerConfig::standard(TrainCost::Normal),
            ),
        ]
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for (group, config, flows) in ROWS {
            let schemes = flows.iter().map(|l| grid.scheme(l)).collect();
            grid.mix(group, config, 0.0, test_network(), schemes);
        }
        // Fig 8: illustrative single-seed traced runs (seed pinned at 1,
        // exempt from --seeds overrides).
        for (label, tao) in [("TCP-aware", ASSET_AWARE), ("TCP-naive", ASSET_NAIVE)] {
            let schemes = vec![grid.scheme(tao), Scheme::NewReno];
            let p = grid.mix("fig8", label, 0.0, time_domain_network(), schemes);
            p.seeds = 1..2;
            p.duration_s = 15.0;
            p.trace = Some(QueueTrace::new(LinkId(0), SimDuration::from_millis(100)));
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        // Fig 7: one table per group, sides split by per-flow scheme label.
        let mut rows = Vec::new();
        for (group, title) in [
            ("homogeneous", "Fig 7 (left) — homogeneous network"),
            ("mixed", "Fig 7 (right) — mixed network"),
        ] {
            let headers = ["configuration", "side", "throughput", "queueing delay"];
            rows.extend(sides_table(&mut fig, title, &headers, points, group));
        }

        let median_of = |config: &str, label: &str| {
            rows.iter()
                .find(|(c, l, _)| *c == config && l == label)
                .map(|(_, _, s)| (s.tpt.median, s.qd.median))
        };
        // Queueing-delay cost of TCP-awareness in the homogeneous setting
        // (paper: the naive protocol achieved 55% less queueing delay).
        if let (Some((_, naive_qd)), Some((_, aware_qd))) = (
            median_of("2x tcp-naive", ASSET_NAIVE),
            median_of("2x tcp-aware", ASSET_AWARE),
        ) {
            let r = naive_qd / aware_qd;
            fig.push_summary("homogeneous_delay_ratio", r);
            fig.notes.push(format!(
                "homogeneous: naive/aware queueing delay = {r:.2} (paper: ~0.45, i.e. 55% less)"
            ));
        }
        // Mixed-setting throughput advantage of awareness (paper: +36%).
        if let (Some((naive_tpt, _)), Some((aware_tpt, _))) = (
            median_of("tcp-naive vs newreno", ASSET_NAIVE),
            median_of("tcp-aware vs newreno", ASSET_AWARE),
        ) {
            let g = aware_tpt / naive_tpt - 1.0;
            fig.push_summary("mixed_throughput_gain", g);
            fig.notes.push(format!(
                "mixed vs TCP: awareness throughput gain = {:+.1}% (paper: +36%)",
                g * 100.0
            ));
        }

        // Fig 8: phase means + sparkline per traced variant.
        for p in points.iter().filter(|p| split_key(p.key()).0 == "fig8") {
            let label = split_key(p.key()).1;
            let Some(trace) = p.traces.first() else {
                continue;
            };
            let r = time_domain_from_trace(trace, label);
            fig.push_summary(
                format!("fig8_{label}_mean_queue_with_tcp"),
                r.phase_means[1],
            );
            let drops = trace.drop_times.len();
            fig.push_summary(format!("fig8_{label}_drops"), drops as f64);
            for line in r.to_string().lines() {
                fig.notes.push(line.to_string());
            }
        }
        fig
    }
}

// ---------------------------------------------------------------------------
// Fig 8: time-domain queue dynamics against a contrived TCP pulse.
// ---------------------------------------------------------------------------

/// Fig 8's network: Tao sender always on; TCP cross-traffic on exactly
/// [5, 10) s.
fn time_domain_network() -> NetworkConfig {
    network(vec![WorkloadSpec::AlwaysOn, WorkloadSpec::pulse(5.0, 10.0)])
}

/// One Tao variant's bottleneck trace against pulsed TCP, read for Fig 8.
#[derive(Debug)]
pub struct TimeDomainResult<'a> {
    pub label: &'a str,
    /// The bottleneck's queue samples and drop times.
    pub trace: &'a QueueTrace,
    /// Mean queue over [1,5) s (Tao alone), [6,10) s (both) and [11,15) s
    /// (after): each phase without its first second.
    pub phase_means: [f64; 3],
}

impl fmt::Display for TimeDomainResult<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 8 — {}: mean queue (pkts) alone={:.1}, with TCP={:.1}, after={:.1}; drops={}",
            self.label,
            self.phase_means[0],
            self.phase_means[1],
            self.phase_means[2],
            self.trace.drop_times.len()
        )?;
        // coarse sparkline, one char per 500 ms
        let samples = &self.trace.samples;
        let max = samples.iter().map(|s| s.packets).max().unwrap_or(1).max(1);
        let mut line = String::new();
        for q in samples.iter().step_by(5).map(|s| s.packets) {
            let lvl = (q * 8 / max).min(7);
            line.push(['_', '.', ':', '-', '=', '+', '*', '#'][lvl]);
        }
        writeln!(f, "  queue [{line}] peak={max} pkts")
    }
}

/// Fold a bottleneck [`QueueTrace`] into the Fig 8 summary.
pub fn time_domain_from_trace<'a>(trace: &'a QueueTrace, label: &'a str) -> TimeDomainResult<'a> {
    let t = |s: f64| netsim::time::SimTime::from_secs_f64(s);
    let phase_means = [
        trace.mean_packets_in(t(1.0), t(5.0)),
        trace.mean_packets_in(t(6.0), t(10.0)),
        trace.mean_packets_in(t(11.0), t(15.0)),
    ];
    TimeDomainResult {
        label,
        trace,
        phase_means,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_network_matches_fig_7_caption() {
        let net = test_network();
        assert_eq!(net.links[0].rate_bps, 10e6);
        assert_eq!(net.min_rtt(0), netsim::time::SimDuration::from_millis(100));
        match net.links[0].queue {
            QueueSpec::DropTail {
                capacity_bytes: Some(c),
            } => assert_eq!(c, 250_000),
            _ => panic!("drop-tail expected"),
        }
    }

    #[test]
    fn time_domain_tcp_pulse_builds_queue() {
        // A deliberately gentle tree (steady window ≈ 5 packets, well under
        // the BDP) leaves the queue empty when alone, so the TCP pulse's
        // queue buildup stands out.
        let tree = protocols::WhiskerTree::uniform(protocols::Action::new(0.8, 1.0, 1.0));
        let schemes = vec![Scheme::tao(tree, "demo"), Scheme::NewReno];
        let mut point = SweepPoint::mix("demo", 0.0, time_domain_network(), schemes, 3..4, 15.0);
        point.trace = Some(QueueTrace::new(LinkId(0), SimDuration::from_millis(100)));
        let out = crate::runner::execute_sweep(vec![point], 1);
        let r = time_domain_from_trace(&out[0].traces[0], "demo");
        assert!(
            r.phase_means[1] > r.phase_means[2],
            "queue with TCP ({:.1}) should exceed queue after ({:.1})",
            r.phase_means[1],
            r.phase_means[2]
        );
        assert!(!r.trace.samples.is_empty());
        // NewReno against a 250 kB buffer must overflow it eventually.
        let drops: Vec<f64> = r.trace.drop_times.iter().map(|d| d.as_secs_f64()).collect();
        assert!(!drops.is_empty(), "TCP pulse should cause drops");
        assert!(
            drops.iter().all(|&d| (5.0..10.5).contains(&d)),
            "drops happen while TCP active: {:?}",
            &drops[..drops.len().min(5)]
        );
    }

    #[test]
    fn contention_rows_cover_both_settings() {
        let homogeneous = ROWS.iter().filter(|r| r.0 == "homogeneous").count();
        let mixed = ROWS.iter().filter(|r| r.0 == "mixed").count();
        assert_eq!(homogeneous, 3);
        assert_eq!(mixed, 2);
        let jobs = TcpAware.train_specs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].assets[0], ASSET_NAIVE);
        assert_eq!(jobs[1].assets[0], ASSET_AWARE);
    }
}
