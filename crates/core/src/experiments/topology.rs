//! Figs 5–6 / Table 5 — structural knowledge.
//!
//! Two Tao protocols are trained for the two-bottleneck parking lot of
//! Fig 5: one with full knowledge of the topology (three flows, two links
//! of 75 ms each), and one designed for a simplified single-bottleneck
//! model (two senders, one 150 ms link). Both are then run on the real
//! parking lot while each link speed sweeps 10–100 Mbps, and Fig 6 plots
//! the throughput of Flow 1 (the flow crossing both bottlenecks) against
//! the slower link's speed, for the diagonal (faster = slower) and the
//! faster-link-pinned-at-100 edge of the locus.

use super::scaffold::prelude::*;
use crate::omniscient;
use remy::{OptimizerConfig, ScenarioSpec, TrainCost};

pub const ASSET_ONE: &str = "tao-onebottleneck";
pub const ASSET_TWO: &str = "tao-twobottleneck";

/// The two edges of Fig 6's locus: (key prefix, chart title).
const EDGES: [(&str, &str); 2] = [
    (
        "diagonal",
        "Fig 6 (diagonal: faster = slower) — Flow 1 throughput (Mbps)",
    ),
    (
        "faster100",
        "Fig 6 (faster link = 100 Mbps) — Flow 1 throughput (Mbps)",
    ),
];

/// The testing parking lot with given link speeds (Mbps).
pub fn test_network(link1_mbps: f64, link2_mbps: f64) -> NetworkConfig {
    let (r1, r2) = (link1_mbps * 1e6, link2_mbps * 1e6);
    parking_lot(
        r1,
        r2,
        0.075,
        QueueSpec::drop_tail_bdp(r1, 0.150, 5.0),
        QueueSpec::drop_tail_bdp(r2, 0.150, 5.0),
        WorkloadSpec::on_off_1s(),
    )
}

/// Omniscient Flow-1 throughput (Mbps) on the parking lot.
pub fn omniscient_flow1_mbps(link1_mbps: f64, link2_mbps: f64) -> f64 {
    let net = test_network(link1_mbps, link2_mbps);
    omniscient::omniscient(&net)[0].throughput_bps / 1e6
}

fn link_speeds(edge: &str, slower: f64) -> (f64, f64) {
    match edge {
        "diagonal" => (slower, slower),
        _ => (slower, 100.0),
    }
}

fn sweep_speeds(fidelity: Fidelity) -> Vec<f64> {
    match fidelity {
        Fidelity::Quick => vec![10.0, 30.0, 100.0],
        Fidelity::Full => vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 75.0, 100.0],
    }
}

/// The structural-knowledge experiment (`learnability run topology`).
pub struct Topology;

impl Experiment for Topology {
    fn id(&self) -> &'static str {
        "topology"
    }

    fn paper_artifact(&self) -> &'static str {
        "Figs 5-6 / Table 5 — one- vs two-bottleneck knowledge"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::with_cubic_pair([ASSET_ONE, ASSET_TWO].map(Contender::asset))
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        vec![
            TrainJob::single(
                ASSET_ONE,
                vec![ScenarioSpec::one_bottleneck_model()],
                OptimizerConfig::standard(TrainCost::Normal),
            ),
            TrainJob::single(
                ASSET_TWO,
                vec![ScenarioSpec::two_bottleneck_model()],
                OptimizerConfig::standard(TrainCost::Normal),
            ),
        ]
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for (edge, _) in EDGES {
            for &slower in &sweep_speeds(fidelity) {
                let (l1, l2) = link_speeds(edge, slower);
                grid.cells(edge, slower, &test_network(l1, l2));
            }
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let roster = self.roster();
        let mut edge_series: Vec<SeriesSet> = Vec::new();
        for (edge, title) in EDGES {
            let names = roster.iter().map(|c| c.label.as_str());
            let mut series = SeriesSet::new(self.id(), names.chain(["omniscient"]));
            for p in points {
                let (of_edge, name) = split_key(p.key());
                if of_edge != edge {
                    continue;
                }
                // Flow 0 is the two-hop flow ("Flow 1" in the paper).
                let tpts: Vec<f64> = p
                    .runs
                    .iter()
                    .filter(|o| o.flows[0].on_time_s > 0.0)
                    .map(|o| o.flows[0].throughput_bps / 1e6)
                    .collect();
                let mean = if tpts.is_empty() {
                    0.0
                } else {
                    tpts.iter().sum::<f64>() / tpts.len() as f64
                };
                series.push(name, p.x(), mean);
            }
            // Analytic omniscient reference per swept speed.
            let xs: Vec<f64> = series.all()[0].points.iter().map(|p| p.x).collect();
            for x in xs {
                let (l1, l2) = link_speeds(edge, x);
                series.push("omniscient", x, omniscient_flow1_mbps(l1, l2));
            }
            fig.charts
                .push(ChartData::from_series(title, "slower Mbps", series.all()));
            edge_series.push(series);
        }

        // Mean across both edges per scheme.
        let mut notes = vec!["mean Flow-1 throughput across sweep:".to_string()];
        let mut means = Vec::new();
        for (i, name) in roster.iter().map(|c| c.label.as_str()).enumerate() {
            let ys: Vec<f64> = edge_series
                .iter()
                .flat_map(|s| s.all()[i].points.iter().map(|p| p.y))
                .collect();
            let mean = ys.iter().sum::<f64>() / ys.len().max(1) as f64;
            notes.push(format!("  {name:<18} {mean:>7.2} Mbps"));
            fig.push_summary(format!("mean_flow1_tpt_mbps_{name}"), mean);
            means.push((name, mean));
        }
        fig.notes.extend(notes);

        let mean_of = |n: &str| means.iter().find(|(m, _)| *m == n).map(|&(_, v)| v);
        if let (Some(one), Some(two)) = (mean_of(ASSET_ONE), mean_of(ASSET_TWO)) {
            // The penalty of the simplified model: 1 − simplified/full
            // (paper: ~17%).
            let p = 1.0 - one / two;
            fig.push_summary("simplification_penalty", p);
            if p >= 0.0 {
                fig.notes.push(format!(
                    "simplified one-bottleneck model underperforms the full model by {:.1}% \
                     (paper: ~17%)",
                    p * 100.0
                ));
            } else {
                fig.notes.push(format!(
                    "simplified one-bottleneck model OUTPERFORMS the full model by {:.1}% \
                     (paper saw a ~17% penalty; at small training budgets the joint \
                     3-flow objective can under-serve the two-hop flow)",
                    -p * 100.0
                ));
            }
        }
        if let (Some(one), Some(cubic)) = (mean_of(ASSET_ONE), mean_of("cubic")) {
            fig.push_summary("simplified_vs_cubic_ratio", one / cubic);
            fig.notes.push(format!(
                "simplified Tao vs Cubic: {:.2}x (paper: ~7.2x)",
                one / cubic
            ));
        }
        if let (Some(one), Some(sfq)) = (mean_of(ASSET_ONE), mean_of("cubic-sfqcodel")) {
            fig.push_summary("simplified_vs_cubic_sfqcodel_ratio", one / sfq);
            fig.notes.push(format!(
                "simplified Tao vs Cubic-over-sfqCoDel: {:.2}x (paper: ~2.75x)",
                one / sfq
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omniscient_flow1_symmetric_case() {
        // Equal links, always considering ON/OFF p=1/2: alone flow 0 gets
        // min(C1,C2); the expectation sits between C/3 and C.
        let v = omniscient_flow1_mbps(30.0, 30.0);
        assert!(v > 10.0 && v < 30.0, "got {v}");
    }

    #[test]
    fn omniscient_flow1_bounded_by_slower_link() {
        let v = omniscient_flow1_mbps(10.0, 100.0);
        assert!(v <= 10.0, "flow 1 can never beat its bottleneck: {v}");
        assert!(v > 3.0);
    }

    #[test]
    fn test_network_shape() {
        let net = test_network(10.0, 100.0);
        assert_eq!(net.links.len(), 2);
        assert_eq!(net.flows.len(), 3);
        assert_eq!(net.flows[0].route, vec![0, 1]);
        assert_eq!(net.min_rtt(0), netsim::time::SimDuration::from_millis(150));
    }

    #[test]
    fn edges_pin_the_faster_link() {
        assert_eq!(link_speeds("diagonal", 30.0), (30.0, 30.0));
        assert_eq!(link_speeds("faster100", 30.0), (30.0, 100.0));
        assert_eq!(sweep_speeds(Fidelity::Quick).len(), 3);
        assert_eq!(sweep_speeds(Fidelity::Full).len(), 8);
    }

    #[test]
    fn train_specs_cover_both_models() {
        let jobs = Topology.train_specs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].assets[0], ASSET_ONE);
        assert_eq!(jobs[1].assets[0], ASSET_TWO);
    }
}
