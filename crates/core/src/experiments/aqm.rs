//! Extension — AQM generality: a Tao trained against drop-tail gateways
//! evaluated across queue disciplines it never saw.
//!
//! Every training scenario in the paper uses FIFO drop-tail queues (§3.1,
//! item 4); the only AQM the paper touches is sfqCoDel, and only under
//! Cubic. This experiment asks the learnability question along the
//! in-network axis instead: take the calibration Tao (designed for the
//! Table 1 drop-tail dumbbell) and run it — unchanged — behind RED, plain
//! CoDel and sfqCoDel gateways of the same buffer size, against Cubic and
//! NewReno under the identical substitution. An AQM reshapes the very
//! congestion signals the whiskers were fitted to (early random drops,
//! sojourn-time drops, per-flow fair queueing), so this probes whether the
//! learned protocol's assumptions about *loss semantics* generalize the
//! way its assumptions about link speed do.

use super::scaffold::prelude::*;
use crate::experiments::calibration;
use crate::runner::{with_aqm, AqmKind};

/// The AQM-generality experiment (`learnability run aqm`).
pub struct Aqm;

impl Experiment for Aqm {
    fn id(&self) -> &'static str {
        "aqm"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — AQM generality: drop-tail-trained Tao vs RED/CoDel/sfqCoDel gateways"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(calibration::ASSET, [Scheme::Cubic, Scheme::NewReno])
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let base = calibration::test_network();
        let mut grid = Grid::new(self, fidelity);
        for (ki, kind) in AqmKind::ALL.iter().enumerate() {
            grid.cells(kind.name(), ki as f64, &with_aqm(&base, *kind));
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let norm = Norm::omniscient(&calibration::test_network());

        let mut t = TableData::new(
            "AQM generality — 32 Mbps, 150 ms RTT, 2 senders, 5 BDP buffer",
            &[
                "gateway",
                "scheme",
                "throughput",
                "queueing delay",
                "norm. objective",
            ],
        );
        let mut series = SeriesSet::of(self);
        for p in points {
            let (kind, scheme) = split_key(p.key());
            let [tpt, qd] = TptQd::all(&p.runs).cells();
            let obj = norm.objective(&p.runs);
            t.row(vec![
                kind.to_string(),
                scheme.to_string(),
                tpt,
                qd,
                format!("{obj:.3}"),
            ]);
            series.push(scheme, p.x(), obj);
            fig.push_summary(format!("{scheme}_{kind}_objective"), obj);
        }
        fig.tables.push(t);
        fig.charts.push(ChartData::from_series(
            "normalized objective by gateway discipline \
             (0 = droptail, 1 = red, 2 = codel, 3 = sfqcodel)",
            "gateway",
            series.all(),
        ));

        // Headline: how much of the Tao's drop-tail operating point
        // survives the worst foreign discipline.
        if let Some(tao) = series.get("tao") {
            let home = tao.value_at(0.0).unwrap_or(f64::NEG_INFINITY);
            // Foreign disciplines only (x > 0): the home point must not
            // masquerade as its own worst case.
            let worst = tao
                .points
                .iter()
                .filter(|p| p.x > 0.0)
                .map(|p| p.y)
                .fold(f64::INFINITY, f64::min);
            fig.push_summary("tao_droptail_minus_worst_aqm", home - worst);
            fig.notes.push(format!(
                "tao objective on its training discipline (droptail) {home:.3}; \
                 worst across RED/CoDel/sfqCoDel {worst:.3} \
                 (gap {:.3} — the cost of foreign loss semantics)",
                home - worst
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
    fn sweep_covers_every_discipline_and_scheme() {
        // 4 gateways x 3 contenders, from the committed calibration asset.
        let points = Aqm.sweep(Fidelity::Quick);
        assert_eq!(points.len(), 12);
        for kind in AqmKind::ALL {
            let panel = points.iter().filter(|p| split_key(&p.key).0 == kind.name());
            assert_eq!(panel.count(), 3, "{}", kind.name());
        }
    }

    #[test]
    fn objective_normalization_matches_calibration_network() {
        let omn = omniscient::omniscient(&calibration::test_network());
        // p_on = 1/2, 2 senders on 32 Mbps: 24 Mbps expected share.
        assert!((omn[0].throughput_bps - 24e6).abs() / 24e6 < 1e-9);
    }
}
