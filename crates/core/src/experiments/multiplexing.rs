//! Fig 3 / Table 3 — knowledge of the degree of multiplexing.
//!
//! Five Tao protocols are trained on a 15 Mbps dumbbell with the number of
//! senders drawn from 1–2, 1–10, 1–20, 1–50 and 1–100, then all are tested
//! with 1 to 100 senders under two buffer models: 5 BDP drop-tail, and an
//! infinite "no drop" buffer. The paper finds a genuine tradeoff: training
//! for high multiplexing sacrifices performance with few senders, and
//! protocols trained for few senders collapse at 100 (large queues or
//! repeated drops).

use super::scaffold::prelude::*;
use remy::{BufferSpec, OptimizerConfig, ScenarioSpec, TrainCost};

/// Trained multiplexing ranges: (asset name, max senders in training).
pub const RANGES: [(&str, u32); 5] = [
    ("tao-mux-2", 2),
    ("tao-mux-10", 10),
    ("tao-mux-20", 20),
    ("tao-mux-50", 50),
    ("tao-mux-100", 100),
];

/// The two buffer models of Fig 3's panels: (panel label, infinite?).
const PANELS: [(&str, bool); 2] = [("buffer 5x BDP", false), ("no packet drops", true)];

fn test_network(n_senders: usize, infinite_buffer: bool) -> NetworkConfig {
    let queue = if infinite_buffer {
        QueueSpec::infinite()
    } else {
        QueueSpec::drop_tail_bdp(15e6, 0.150, 5.0)
    };
    dumbbell(n_senders, 15e6, 0.150, queue, WorkloadSpec::on_off_1s())
}

fn sender_counts(fidelity: Fidelity) -> Vec<usize> {
    match fidelity {
        Fidelity::Quick => vec![1, 2, 10, 50, 100],
        Fidelity::Full => vec![1, 2, 5, 10, 20, 35, 50, 75, 100],
    }
}

/// The degree-of-multiplexing experiment (`learnability run multiplexing`).
pub struct Multiplexing;

impl Experiment for Multiplexing {
    fn id(&self) -> &'static str {
        "multiplexing"
    }

    fn paper_artifact(&self) -> &'static str {
        "Fig 3 / Table 3 — degree of multiplexing"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::with_cubic_pair(RANGES.iter().map(|r| Contender::asset(r.0)))
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        RANGES
            .iter()
            .map(|&(name, n)| {
                let cost = if n >= 50 {
                    TrainCost::Heavy
                } else {
                    TrainCost::Normal
                };
                TrainJob::single(
                    name,
                    vec![ScenarioSpec::multiplexing(n, BufferSpec::BdpMultiple(5.0))],
                    OptimizerConfig::standard(cost),
                )
            })
            .collect()
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for (panel, infinite) in PANELS {
            for &n in &sender_counts(fidelity) {
                grid.cells(panel, n as f64, &test_network(n, infinite));
            }
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        for (panel, _) in PANELS {
            let mut series = SeriesSet::of(self);
            for p in points {
                let (of_panel, name) = split_key(p.key());
                if of_panel == panel {
                    // n exchangeable ON/OFF senders (p = 1/2) on 15 Mbps.
                    let norm = Norm::omniscient(&p.point.net);
                    series.push(name, p.x(), norm.objective(&p.runs));
                }
            }
            fig.charts.push(ChartData::from_series(
                format!("Fig 3 ({panel}) — normalized objective vs number of senders"),
                "senders",
                series.all(),
            ));
        }

        // Headline: the narrow protocol's collapse at the top of the range,
        // measured on the first (finite-buffer) panel.
        let at = |fig: &FigureData, name: &str, x: f64| {
            fig.chart_series(0, name).and_then(|s| s.value_at(x))
        };
        if let (Some(narrow), Some(broad)) =
            (at(&fig, "tao-mux-2", 100.0), at(&fig, "tao-mux-100", 100.0))
        {
            fig.push_summary("narrow_minus_broad_at_100_senders", narrow - broad);
            fig.notes.push(format!(
                "at 100 senders: tao-mux-2 objective {narrow:.3} vs tao-mux-100 {broad:.3} \
                 (paper: narrow training collapses at high multiplexing)"
            ));
        }
        if let (Some(narrow), Some(broad)) =
            (at(&fig, "tao-mux-2", 1.0), at(&fig, "tao-mux-100", 1.0))
        {
            fig.push_summary("narrow_minus_broad_at_1_sender", narrow - broad);
            fig.notes.push(format!(
                "at 1 sender:    tao-mux-2 objective {narrow:.3} vs tao-mux-100 {broad:.3} \
                 (paper: broad training costs throughput at low multiplexing)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_shrinks_with_senders() {
        let fair_share = |n| Norm::omniscient(&test_network(n, true)).fair_tpt_bps;
        let f1 = fair_share(1);
        let f10 = fair_share(10);
        let f100 = fair_share(100);
        assert!(f1 > f10 && f10 > f100);
        // Single ON/OFF sender alone gets the whole link when on.
        assert!((f1 - 15e6).abs() / 15e6 < 1e-9);
        // With 100 senders at p=1/2, a sender shares with ~49.5 others.
        assert!(f100 < 15e6 / 40.0 && f100 > 15e6 / 60.0, "f100={f100}");
    }

    #[test]
    fn test_networks_match_table_3b() {
        let finite = test_network(100, false);
        assert_eq!(finite.flows.len(), 100);
        assert_eq!(finite.links[0].rate_bps, 15e6);
        let infinite = test_network(3, true);
        assert_eq!(
            infinite.links[0].queue,
            QueueSpec::DropTail {
                capacity_bytes: None
            }
        );
    }

    #[test]
    fn train_specs_scale_cost_with_multiplexing() {
        let jobs = Multiplexing.train_specs();
        assert_eq!(jobs.len(), 5);
        // heavy budgets for the 50- and 100-way protocols
        assert!(jobs[3].cfg.sim_duration_s < jobs[0].cfg.sim_duration_s);
        assert!(jobs[4].cfg.sim_duration_s < jobs[0].cfg.sim_duration_s);
    }

    #[test]
    fn panel_keys_roundtrip() {
        // summarize splits keys back into (panel, series); the names must
        // cover both cubic baselines and all five taos.
        assert_eq!(Multiplexing.roster().len(), 7);
        for (panel, _) in PANELS {
            let key = super::super::scaffold::cell_key(panel, "tao-mux-2");
            assert_eq!(split_key(&key), (panel, "tao-mux-2"));
        }
        assert_eq!(sender_counts(Fidelity::Quick).len(), 5);
        assert_eq!(sender_counts(Fidelity::Full).len(), 9);
    }
}
