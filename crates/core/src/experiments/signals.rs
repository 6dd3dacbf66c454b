//! §3.4 — the value of the congestion signals (knockout study).
//!
//! Each of the four memory signals (`rec_ewma`, `slow_rec_ewma`,
//! `send_ewma`, `rtt_ratio`) is knocked out in turn and a fresh protocol
//! is designed from scratch without it. Comparing each knockout's final
//! objective to the full four-signal protocol measures how much the signal
//! contributes. The paper found every signal carried independent value,
//! with `rec_ewma` (short-term ack interarrivals) the most valuable.

use super::scaffold::prelude::*;
use protocols::{Signal, SignalMask};
use remy::{Objective, OptimizerConfig, ScenarioSpec, TrainCost};

/// The knockout set, in table order: the full protocol, then one knockout
/// per signal.
pub const KNOCKOUTS: [Option<Signal>; 5] = [
    None,
    Some(Signal::RecEwma),
    Some(Signal::SlowRecEwma),
    Some(Signal::SendEwma),
    Some(Signal::RttRatio),
];

/// Asset name for a knockout variant.
pub fn asset_name(knocked_out: Option<Signal>) -> String {
    match knocked_out {
        None => "tao-sig-full".into(),
        Some(s) => format!("tao-sig-no-{}", s.name()),
    }
}

fn mask_for(knocked_out: Option<Signal>) -> SignalMask {
    match knocked_out {
        None => SignalMask::all(),
        Some(s) => SignalMask::without(s),
    }
}

/// Harm of each knockout given `(knocked_out, objective)` rows: full
/// objective − knockout objective, descending (the first entry is the most
/// valuable signal).
pub fn harms(rows: &[(Option<Signal>, f64)]) -> Vec<(Signal, f64)> {
    let full = rows
        .iter()
        .find(|(k, _)| k.is_none())
        .map(|&(_, o)| o)
        .expect("full protocol present");
    let mut out: Vec<(Signal, f64)> = rows
        .iter()
        .filter_map(|&(k, o)| k.map(|s| (s, full - o)))
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    out
}

/// The signal-knockout experiment (`learnability run signals`).
pub struct Signals;

impl Experiment for Signals {
    fn id(&self) -> &'static str {
        "signals"
    }

    fn paper_artifact(&self) -> &'static str {
        "§3.4 — value of the congestion signals (knockout study)"
    }

    fn roster(&self) -> Vec<Contender> {
        KNOCKOUTS
            .iter()
            .map(|&k| Contender::asset(&asset_name(k)).masked(mask_for(k)))
            .collect()
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        KNOCKOUTS
            .iter()
            .map(|&knocked| {
                let mut cfg = OptimizerConfig::standard(TrainCost::Normal);
                cfg.masks = vec![mask_for(knocked)];
                TrainJob::single(asset_name(knocked), vec![ScenarioSpec::calibration()], cfg)
            })
            .collect()
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        grid.cells("", 0.0, &super::calibration::test_network());
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let obj = Objective::default();
        // Mean objective (log2 units) on the calibration test network.
        let rows: Vec<(Option<Signal>, f64)> = points
            .iter()
            .map(|p| {
                let knocked = KNOCKOUTS
                    .iter()
                    .copied()
                    .find(|&k| asset_name(k) == p.key())
                    .expect("known knockout point");
                let utilities: Vec<f64> = p
                    .runs
                    .iter()
                    .flat_map(|o| o.flows.iter())
                    .filter_map(|fl| obj.flow_utility(fl))
                    .collect();
                let objective = utilities.iter().sum::<f64>() / utilities.len().max(1) as f64;
                (knocked, objective)
            })
            .collect();

        let full = rows
            .iter()
            .find(|(k, _)| k.is_none())
            .map(|&(_, o)| o)
            .expect("full protocol present");
        let mut t = TableData::new(
            "§3.4 — signal knockout on the calibration network",
            &["protocol", "objective", "harm vs full"],
        );
        for &(knocked, objective) in &rows {
            t.row(vec![
                asset_name(knocked),
                format!("{objective:.3}"),
                match knocked {
                    None => "-".into(),
                    Some(_) => format!("{:+.3}", full - objective),
                },
            ]);
            fig.push_summary(format!("objective_{}", asset_name(knocked)), objective);
        }
        fig.tables.push(t);

        let ranked = harms(&rows);
        for &(s, h) in &ranked {
            fig.push_summary(format!("harm_{}", s.name()), h);
        }
        fig.notes.push(format!(
            "most valuable signal: {} (paper: rec_ewma)",
            ranked[0].0.name()
        ));
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asset_names_cover_all_signals() {
        assert_eq!(asset_name(None), "tao-sig-full");
        assert_eq!(asset_name(Some(Signal::RecEwma)), "tao-sig-no-rec_ewma");
        assert_eq!(asset_name(Some(Signal::RttRatio)), "tao-sig-no-rtt_ratio");
        let names: std::collections::HashSet<String> =
            Signal::ALL.iter().map(|&s| asset_name(Some(s))).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn harms_ranking_math() {
        let rows = vec![
            (None, 10.0),
            (Some(Signal::RecEwma), 7.0),
            (Some(Signal::RttRatio), 9.0),
        ];
        let ranked = harms(&rows);
        assert_eq!(ranked[0], (Signal::RecEwma, 3.0));
        assert_eq!(ranked[1], (Signal::RttRatio, 1.0));
    }

    #[test]
    fn train_specs_mask_exactly_one_signal() {
        let jobs = Signals.train_specs();
        assert_eq!(jobs.len(), 5);
        assert_eq!(jobs[0].cfg.masks, vec![SignalMask::all()]);
        for (job, knocked) in jobs.iter().zip(KNOCKOUTS).skip(1) {
            assert_eq!(job.cfg.masks, vec![SignalMask::without(knocked.unwrap())]);
        }
    }
}
