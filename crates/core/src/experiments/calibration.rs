//! Fig 1 / Table 1 — the calibration experiment.
//!
//! A Tao protocol is designed for exactly the network it is tested on
//! (32 Mbps dumbbell, 150 ms RTT, 2 senders, 1 s ON/OFF, 5 BDP buffer) and
//! compared with Cubic, Cubic-over-sfqCoDel, and the omniscient protocol.
//! The paper finds the Tao within 5% of omniscient throughput and 10% on
//! delay, and considerably ahead of both human-designed baselines.

use super::scaffold::prelude::*;
use remy::{OptimizerConfig, ScenarioSpec, TrainCost};

pub const ASSET: &str = "tao-calibration";

/// The testing network of Table 1.
pub fn test_network() -> NetworkConfig {
    paper_dumbbell(2, 32e6, 0.150, WorkloadSpec::on_off_1s())
}

/// The calibration experiment (`learnability run calibration`).
pub struct Calibration;

impl Experiment for Calibration {
    fn id(&self) -> &'static str {
        "calibration"
    }

    fn paper_artifact(&self) -> &'static str {
        "Fig 1 / Table 1 — Tao vs Cubic vs Cubic-over-sfqCoDel vs omniscient"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::with_cubic_pair([Contender::tao("tao", ASSET)])
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        vec![TrainJob::single(
            ASSET,
            vec![ScenarioSpec::calibration()],
            OptimizerConfig::standard(TrainCost::Normal),
        )]
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        grid.cells("", 0.0, &test_network());
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let mut t = TableData::new(
            "Fig 1 — calibration: 32 Mbps, 150 ms RTT, 2 senders, 5 BDP",
            &["scheme", "throughput", "queueing delay"],
        );
        let mut tao_median_tpt = None;
        for p in points {
            let stats = TptQd::all(&p.runs);
            if p.key() == "tao" {
                tao_median_tpt = Some(stats.tpt.median);
            }
            let [tpt, qd] = stats.cells();
            t.row(vec![p.key().to_string(), tpt, qd]);
            fig.push_summary(format!("{}_tpt_mbps_median", p.key()), stats.tpt.median);
            fig.push_summary(format!("{}_qdelay_ms_median", p.key()), stats.qd.median);
        }

        // Omniscient operating point (closed form, no simulation).
        let omn_tpt = Norm::omniscient(&test_network()).fair_tpt_bps / 1e6;
        t.row(vec![
            "omniscient".into(),
            format!("{omn_tpt:.2} Mbps"),
            "0.00 ms".into(),
        ]);
        fig.push_summary("omniscient_tpt_mbps", omn_tpt);
        fig.tables.push(t);

        if let Some(tao_tpt) = tao_median_tpt {
            let frac = tao_tpt / omn_tpt;
            fig.push_summary("tao_fraction_of_omniscient", frac);
            fig.notes.push(format!(
                "tao throughput = {:.1}% of omniscient (paper: within 5%)",
                frac * 100.0
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omniscient;

    #[test]
    fn omniscient_point_matches_closed_form() {
        // p_on = 1/2, 2 senders: E[x | on] = C/2·(1 + 1/2)= 24 Mbps.
        let net = test_network();
        let o = omniscient::omniscient(&net);
        assert!((o[0].throughput_bps - 24e6).abs() / 24e6 < 1e-9);
    }

    #[test]
    fn test_network_matches_table_1() {
        let net = test_network();
        assert_eq!(net.flows.len(), 2);
        assert_eq!(net.links[0].rate_bps, 32e6);
        assert_eq!(net.min_rtt(0), netsim::time::SimDuration::from_millis(150));
    }

    #[test]
    fn train_specs_describe_the_calibration_asset() {
        let jobs = Calibration.train_specs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].assets, vec![ASSET.to_string()]);
        assert!(jobs[0].co_alternations.is_none());
    }
}
