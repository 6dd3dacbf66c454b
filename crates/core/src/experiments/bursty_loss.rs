//! Extension — bursty non-congestive loss: a drop-tail-trained Tao under
//! a Gilbert–Elliott loss process it never saw.
//!
//! Every training scenario in the paper loses packets only to queue
//! overflow, so a learned protocol's whiskers implicitly encode "loss ⇒
//! congestion". This experiment breaks that assumption the way wireless
//! links do: the calibration dumbbell's bottleneck gains a two-state
//! Gilbert–Elliott process (rare transitions into a lossy burst state)
//! and the burst severity is swept from clean to total. Cubic and NewReno
//! are the loss-based incumbents that must mistake every burst for
//! congestion; Vegas is the delay-based foil that should not. The question
//! is which side of that divide the Tao's learned responses land on.

use super::scaffold::prelude::*;
use crate::experiments::calibration;

/// Loss probability inside the bad state at each sweep level (level 0 is
/// the clean baseline and carries no fault at all — `fault: None`, the
/// bit-identical pre-fault configuration).
const LOSS_BAD: [f64; 5] = [0.0, 0.1, 0.25, 0.5, 1.0];

/// Burst shape: mean good dwell 1/0.005 = 200 packets, mean burst length
/// 1/0.1 = 10 packets, so the bad state occupies ~4.8% of packets and the
/// unconditional loss rate is ~0.048 × `loss_bad`.
const GOOD_TO_BAD: f64 = 0.005;
const BAD_TO_GOOD: f64 = 0.1;

/// The bursty-loss experiment (`learnability run bursty_loss`).
pub struct BurstyLoss;

impl Experiment for BurstyLoss {
    fn id(&self) -> &'static str {
        "bursty_loss"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — Gilbert–Elliott bursty loss: drop-tail-trained Tao vs loss- and delay-based TCPs"
    }

    fn roster(&self) -> Vec<Contender> {
        let fixed = [Scheme::Cubic, Scheme::NewReno, Scheme::Vegas];
        Contender::tao_vs(calibration::ASSET, fixed)
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let base = calibration::test_network();
        let mut grid = Grid::new(self, fidelity);
        for &loss_bad in &LOSS_BAD {
            let mut net = base.clone();
            if loss_bad > 0.0 {
                net.links[0].fault = Some(FaultSpec::GilbertElliott {
                    loss_good: 0.0,
                    loss_bad,
                    good_to_bad: GOOD_TO_BAD,
                    bad_to_good: BAD_TO_GOOD,
                });
            }
            grid.cells("", loss_bad, &net);
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        // Normalize against the clean network's omniscient point: the fault
        // is exogenous, so the ideal stays the ideal.
        let norm = Norm::omniscient(&calibration::test_network());

        let mut t = TableData::new(
            "bursty loss — calibration dumbbell, GE bursts (~10 pkt) at rising severity",
            &[
                "loss_bad",
                "scheme",
                "throughput",
                "queueing delay",
                "fault drops",
                "norm. objective",
            ],
        );
        let mut series = SeriesSet::of(self);
        for p in points {
            let (level, scheme) = (p.x().to_string(), p.key());
            let [tpt, qd] = TptQd::all(&p.runs).cells();
            let obj = norm.objective(&p.runs);
            let fault_drops = flow_sum(&p.runs, |f| f.drops.fault);
            t.row(vec![
                level.clone(),
                scheme.to_string(),
                tpt,
                qd,
                fault_drops.to_string(),
                format!("{obj:.3}"),
            ]);
            series.push(scheme, p.x(), obj);
            fig.push_summary(format!("{scheme}_loss{level}_objective"), obj);
        }
        fig.tables.push(t);
        fig.charts.push(ChartData::from_series(
            "normalized objective vs bad-state loss probability",
            "loss_bad",
            series.all(),
        ));

        // Headline: does the learned protocol degrade like a loss-based
        // TCP (mistaking bursts for congestion) or like the delay-based
        // foil? Compare each scheme's clean-vs-severe objective drop.
        let drop_of = |name: &str| {
            series.get(name).map(|s| {
                s.value_at(0.0).unwrap_or(f64::NEG_INFINITY)
                    - s.value_at(1.0).unwrap_or(f64::NEG_INFINITY)
            })
        };
        if let (Some(tao), Some(cubic), Some(vegas)) =
            (drop_of("tao"), drop_of("cubic"), drop_of("vegas"))
        {
            fig.push_summary("tao_clean_minus_full_burst", tao);
            fig.push_summary("cubic_clean_minus_full_burst", cubic);
            fig.push_summary("vegas_clean_minus_full_burst", vegas);
            fig.notes.push(format!(
                "objective drop from clean to loss_bad=1.0: tao {tao:.3}, \
                 cubic {cubic:.3}, vegas {vegas:.3} — whether the learned \
                 protocol reads bursty loss as congestion (cubic-like) or \
                 rides it out (vegas-like)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_and_clean_baseline() {
        // 5 levels × 4 contenders, level 0 fault-free.
        let points = BurstyLoss.sweep(Fidelity::Quick);
        assert_eq!(points.len(), 20);
        assert_eq!(LOSS_BAD[0], 0.0);
        assert!(points[..4].iter().all(|p| p.net.links[0].fault.is_none()));
        assert!(points[4..].iter().all(|p| p.net.links[0].fault.is_some()));
    }

    #[test]
    fn ge_parameters_are_valid() {
        // The swept fault specs must all pass NetworkConfig::validate.
        let mut net = calibration::test_network();
        for &loss_bad in &LOSS_BAD[1..] {
            net.links[0].fault = Some(FaultSpec::GilbertElliott {
                loss_good: 0.0,
                loss_bad,
                good_to_bad: GOOD_TO_BAD,
                bad_to_good: BAD_TO_GOOD,
            });
            net.validate().expect("swept GE spec validates");
        }
    }
}
