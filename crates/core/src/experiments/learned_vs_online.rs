//! Offline-learned vs online-learned congestion control (§6 discussion).
//!
//! The paper's Tao protocols bake the scenario model in at *design time*;
//! a PCC-style sender learns *at run time* from rate micro-experiments
//! and carries no model at all. This experiment puts the two learning
//! regimes side by side on the link-speed sweep the study uses everywhere
//! else: the broad-range `tao-1000x` protocol (offline, trained for
//! 1–1000 Mbps), the online [`Scheme::Pcc`] learner, and Cubic as the
//! human-designed yardstick — all normalized against the omniscient
//! reference, so 0 means "as good as knowing the network exactly".

use super::link_speed::{speed_sweep, test_network, LinkSpeed};
use super::scaffold::prelude::*;

/// The offline-learned contender: the broadest-range Tao from the
/// link-speed experiment (same asset name, so training is shared).
pub const ASSET: &str = "tao-1000x";

/// The offline-vs-online learning experiment
/// (`learnability run learned_vs_online`).
pub struct LearnedVsOnline;

impl Experiment for LearnedVsOnline {
    fn id(&self) -> &'static str {
        "learned_vs_online"
    }

    fn paper_artifact(&self) -> &'static str {
        "§6 discussion — offline-designed Tao vs online-learned (PCC-style) control"
    }

    fn roster(&self) -> Vec<Contender> {
        vec![
            Contender::asset(ASSET),
            Contender::fixed(Scheme::Pcc),
            Contender::fixed(Scheme::Cubic),
        ]
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        jobs_of(&LinkSpeed, &[ASSET])
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        // The link-speed sweep itself, high-speed event-count guard
        // included, over this roster.
        speed_sweep(Grid::new(self, fidelity), fidelity)
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let mut series = SeriesSet::of(self);
        for p in points {
            let norm = Norm::omniscient(&test_network(p.x()));
            series.push(p.key(), p.x(), norm.objective(&p.runs));
        }
        fig.charts.push(ChartData::from_series(
            "normalized objective vs link speed: offline Tao vs online PCC (omniscient = 0)",
            "Mbps",
            series.all(),
        ));

        // Headline: how much of the gap to the offline design does online
        // learning close relative to the human baseline, over the range
        // the Tao was actually trained for?
        let mean_of = |name: &str| series.get(name)?.mean_in(1.0, 1000.0);
        if let (Some(tao), Some(pcc), Some(cubic)) =
            (mean_of("tao-1000x"), mean_of("pcc"), mean_of("cubic"))
        {
            fig.push_summary("tao_minus_pcc_mean_objective", tao - pcc);
            fig.push_summary("pcc_minus_cubic_mean_objective", pcc - cubic);
            fig.notes.push(format!(
                "mean normalized objective over 1-1000 Mbps: tao-1000x {tao:.3}, \
                 pcc {pcc:.3}, cubic {cubic:.3} (offline design carries the \
                 scenario model; online learning carries none)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_specs_reuse_the_link_speed_asset() {
        let jobs = LearnedVsOnline.train_specs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].assets, vec![ASSET.to_string()]);
        // Same asset name as link_speed's broadest range: training once
        // serves both experiments.
        assert_eq!(super::super::link_speed::RANGES[0].0, ASSET);
    }

    #[test]
    fn quick_sweep_covers_the_grid() {
        // 7 (quick) / 13 (full) speeds x 3 contenders.
        assert_eq!(LearnedVsOnline.sweep(Fidelity::Quick).len(), 7 * 3);
        assert_eq!(LearnedVsOnline.sweep(Fidelity::Full).len(), 13 * 3);
    }
}
