//! Extension — asymmetric ACK paths: the reverse channel shrinks from the
//! forward rate down to 1/50× of it.
//!
//! The paper's reverse path is uncongested pure delay, so its protocols
//! never experienced a stretched or clumped ACK clock. This sweep pins the
//! forward direction to the calibration dumbbell and serializes every
//! acknowledgment over an explicit reverse channel whose rate is the
//! forward rate divided by the sweep variable (1× → 1/50×, the classic
//! ADSL/satellite uplink regime). Window-clocked senders can move at most
//! one data packet per ACK, so a starved reverse path caps goodput at
//! `reverse_rate / ack_size · packet_size` no matter what the forward
//! link allows — the question is how gracefully each scheme approaches
//! that ceiling, and whether the learned protocol's RTT-sensitive
//! whiskers misread ACK-queueing as forward congestion.

use super::scaffold::prelude::*;
use crate::experiments::calibration;

/// Reverse-path slowdown factors swept (reverse rate = forward / factor);
/// the shared-uplink experiment sweeps the same grid.
pub(super) fn slowdowns(fidelity: Fidelity) -> Vec<f64> {
    match fidelity {
        Fidelity::Quick => vec![1.0, 8.0, 50.0],
        Fidelity::Full => vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0],
    }
}

/// The ACK-path asymmetry experiment (`learnability run asymmetry`).
pub struct Asymmetry;

impl Experiment for Asymmetry {
    fn id(&self) -> &'static str {
        "asymmetry"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — asymmetric links: reverse (ACK) rate swept 1x -> 1/50x of forward"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(calibration::ASSET, [Scheme::Cubic, Scheme::NewReno])
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        // The calibration Tao again: trained with a symmetric, uncongested
        // reverse path, evaluated where that assumption breaks.
        calibration::Calibration.train_specs()
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let base = calibration::test_network();
        let mut grid = Grid::new(self, fidelity);
        for &factor in &slowdowns(fidelity) {
            grid.cells("", factor, &base.with_reverse_slowdown(factor));
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let norm = Norm::omniscient(&calibration::test_network());

        let mut t = Table::new(
            "ACK-path asymmetry — 32 Mbps forward, 150 ms RTT, 2 senders",
            &["reverse slowdown", "scheme", "throughput", "queueing delay"],
        );
        let mut series = SeriesSet::of(self);
        for p in points {
            let [tpt, qd] = TptQd::all(&p.runs).cells();
            t.row(vec![
                format!("1/{:.0}x", p.x()),
                p.key().to_string(),
                tpt,
                qd,
            ]);
            series.push(p.key(), p.x(), norm.objective(&p.runs));
        }
        fig.tables.push(TableData::from_table(&t));
        fig.charts.push(ChartData::from_series(
            "normalized objective vs reverse-path slowdown",
            "slowdown (forward rate / reverse rate)",
            series.all(),
        ));

        for s in series.all() {
            let name = &s.name;
            let at_1 = s.value_at(1.0).unwrap_or(f64::NEG_INFINITY);
            let at_50 = s.value_at(50.0).unwrap_or(f64::NEG_INFINITY);
            fig.push_summary(format!("{name}_objective_at_1x"), at_1);
            fig.push_summary(format!("{name}_objective_at_50x"), at_50);
            fig.push_summary(format!("{name}_degradation_1_to_50"), at_1 - at_50);
        }
        if let (Some(tao), Some(reno)) = (
            fig.summary_value("tao_degradation_1_to_50"),
            fig.summary_value("newreno_degradation_1_to_50"),
        ) {
            fig.notes.push(format!(
                "objective lost from 1x to 1/50x reverse rate: tao {tao:.3} vs \
                 newreno {reno:.3} (positive gap = the learned protocol degrades \
                 faster on ACK paths it never trained for)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    #[test]
    fn slowdown_grids_anchor_both_ends() {
        for f in [Fidelity::Quick, Fidelity::Full] {
            let g = slowdowns(f);
            assert_eq!(g[0], 1.0, "symmetric anchor");
            assert_eq!(*g.last().unwrap(), 50.0, "paper-motivated 1/50x end");
        }
    }

    #[test]
    fn swept_networks_keep_min_rtt() {
        let base = calibration::test_network();
        for &f in &slowdowns(Fidelity::Full) {
            let net = base.with_reverse_slowdown(f);
            net.validate().unwrap();
            assert_eq!(net.min_rtt(0), SimDuration::from_millis(150));
            assert_eq!(net.reverse_rate(0), Some(32e6 / f));
        }
    }
}
