//! Fig 4 / Table 4 — knowledge of propagation delay.
//!
//! Four Tao protocols are trained on a 33 Mbps dumbbell with minimum RTT
//! drawn from {150}, 145–155, 140–160, and 50–250 ms, then tested across
//! 1–300 ms. The paper's finding: training for exactly one RTT produces a
//! protocol that degrades badly below 50 ms, while adding even ±5 ms of
//! training diversity yields performance commensurate with the 50–250 ms
//! protocol over the whole sweep.

use super::scaffold::prelude::*;
use remy::{OptimizerConfig, ScenarioSpec, TrainCost};

/// Trained RTT ranges: (asset name, lo ms, hi ms).
pub const RANGES: [(&str, f64, f64); 4] = [
    ("tao-rtt-150", 150.0, 150.0),
    ("tao-rtt-145-155", 145.0, 155.0),
    ("tao-rtt-140-160", 140.0, 160.0),
    ("tao-rtt-50-250", 50.0, 250.0),
];

fn test_network(rtt_ms: f64) -> NetworkConfig {
    paper_dumbbell(2, 33e6, rtt_ms / 1e3, WorkloadSpec::on_off_1s())
}

fn rtts(fidelity: Fidelity) -> Vec<f64> {
    match fidelity {
        Fidelity::Quick => vec![1.0, 10.0, 50.0, 150.0, 300.0],
        Fidelity::Full => vec![
            1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0,
            275.0, 300.0,
        ],
    }
}

/// The propagation-delay experiment (`learnability run rtt`).
pub struct Rtt;

impl Experiment for Rtt {
    fn id(&self) -> &'static str {
        "rtt"
    }

    fn paper_artifact(&self) -> &'static str {
        "Fig 4 / Table 4 — knowledge of propagation delay"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::with_cubic_pair(RANGES.iter().map(|r| Contender::asset(r.0)))
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        RANGES
            .iter()
            .map(|&(name, lo, hi)| {
                TrainJob::single(
                    name,
                    vec![ScenarioSpec::rtt_range(lo, hi)],
                    OptimizerConfig::standard(TrainCost::Normal),
                )
            })
            .collect()
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for &rtt in &rtts(fidelity) {
            grid.cells("", rtt, &test_network(rtt));
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let mut series = SeriesSet::of(self);
        for p in points {
            let norm = Norm::omniscient(&test_network(p.x()));
            series.push(p.key(), p.x(), norm.objective(&p.runs));
        }
        fig.charts.push(ChartData::from_series(
            "Fig 4 — normalized objective vs minimum RTT (omniscient = 0)",
            "RTT ms",
            series.all(),
        ));

        // Headline: a little training diversity ≈ a lot.
        let mean_of = |name: &str| series.get(name)?.mean_in(1.0, 300.0);
        if let (Some(exact), Some(pm5), Some(broad)) = (
            mean_of("tao-rtt-150"),
            mean_of("tao-rtt-145-155"),
            mean_of("tao-rtt-50-250"),
        ) {
            fig.push_summary("mean_obj_exact_150", exact);
            fig.push_summary("mean_obj_145_155", pm5);
            fig.push_summary("mean_obj_50_250", broad);
            fig.notes.push(format!(
                "mean objective over 1-300 ms: exact-150 {exact:.3}, 145-155 {pm5:.3}, \
                 50-250 {broad:.3} (paper: ±5 ms of diversity ≈ the broad protocol)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_match_table_4a() {
        assert_eq!(
            RANGES[0].1, RANGES[0].2,
            "first protocol trains one exact RTT"
        );
        assert_eq!(RANGES[3], ("tao-rtt-50-250", 50.0, 250.0));
    }

    #[test]
    fn test_network_rtt_is_swept() {
        let n1 = test_network(1.0);
        let n300 = test_network(300.0);
        assert_eq!(n1.min_rtt(0), netsim::time::SimDuration::from_millis(1));
        assert_eq!(n300.min_rtt(0), netsim::time::SimDuration::from_millis(300));
        // buffer scales with BDP
        let cap = |n: &NetworkConfig| match n.links[0].queue {
            QueueSpec::DropTail {
                capacity_bytes: Some(c),
            } => c,
            _ => unreachable!(),
        };
        assert!(cap(&n300) > cap(&n1) * 100);
    }

    #[test]
    fn train_specs_cover_all_four_ranges() {
        let jobs = Rtt.train_specs();
        let names: Vec<&str> = jobs.iter().map(|j| j.assets[0].as_str()).collect();
        assert_eq!(
            names,
            vec![
                "tao-rtt-150",
                "tao-rtt-145-155",
                "tao-rtt-140-160",
                "tao-rtt-50-250"
            ]
        );
        assert_eq!(rtts(Fidelity::Quick).len(), 5);
        assert_eq!(rtts(Fidelity::Full).len(), 15);
    }
}
