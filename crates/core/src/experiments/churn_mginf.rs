//! Extension — M/G/∞ flow churn: unblocked Poisson arrivals that overlap
//! within each sender slot.
//!
//! The churn experiment's arrival process is *blocked*: a slot ignores
//! arrivals while a transfer is in progress, so offered load saturates at
//! duty `λd/(1+λd)` no matter how fast flows arrive. Real links don't
//! block — new transfers start on top of old ones. This experiment runs
//! the same ten-slot dumbbell with `Churn { unblocked: true }`: each slot
//! is an M/G/∞ station whose busy periods are unions of overlapping
//! transfers (per-slot flow multiplexing in the engine), ON with
//! probability `1 − e^(−λd)`. At high arrival rates the unblocked slots
//! stay almost always on — near-saturation with none of the cold-start
//! churn the blocked variant shows — while at the λ = 1/s anchor both
//! processes offer similar load and the comparison isolates the burst
//! structure. Blocked points ride along as the in-sweep baseline.

use super::churn::{arrival_rates, Churn, ASSET, MEAN_DURATION_S, SLOTS};
use super::scaffold::prelude::*;

/// Arrival-process variants, in series order.
const MODES: [&str; 2] = ["mginf", "blocked"];

/// The ten-slot dumbbell under either churn variant.
fn churn_network(arrival_rate_hz: f64, unblocked: bool) -> NetworkConfig {
    let workload = if unblocked {
        WorkloadSpec::churn_mginf(arrival_rate_hz, MEAN_DURATION_S)
    } else {
        WorkloadSpec::churn(arrival_rate_hz, MEAN_DURATION_S)
    };
    paper_dumbbell(SLOTS, 15e6, 0.150, workload)
}

/// The M/G/∞ churn experiment (`learnability run churn_mginf`).
pub struct ChurnMginf;

impl Experiment for ChurnMginf {
    fn id(&self) -> &'static str {
        "churn_mginf"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — M/G/inf churn: unblocked overlapping flow arrivals vs the \
         blocked-arrival baseline"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(ASSET, [Scheme::Cubic, Scheme::NewReno])
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        // The multiplexing experiment's tao-mux-10 job, so one committed
        // asset serves all three churn-family sweeps.
        Churn.train_specs()
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for &rate in &arrival_rates(fidelity) {
            for mode in MODES {
                grid.cells(mode, rate, &churn_network(rate, mode == "mginf"));
            }
        }
        grid.into_points()
    }

    fn summarize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let roster = self.roster();

        let mut series = SeriesSet::new(self.id(), names_at(&MODES, &roster));
        let mut t = Table::new(
            "M/G/inf vs blocked churn — 15 Mbps, 150 ms RTT, 10 slots, mean \
             flow duration 1 s",
            &[
                "arrival rate",
                "arrivals",
                "scheme",
                "throughput",
                "queueing delay",
            ],
        );
        for p in points {
            let (mode, label) = split_key(p.key());
            let obj = Norm::omniscient(&p.point.net).objective(&p.runs);
            series.push(&format!("{label}@{mode}"), p.x(), obj);
            let [tpt, qd] = TptQd::all(&p.runs).cells();
            t.row(vec![
                format!("{:.1}/s", p.x()),
                mode.to_string(),
                label.to_string(),
                tpt,
                qd,
            ]);
        }
        fig.charts.push(ChartData::from_series(
            "normalized objective vs per-slot arrival rate (unblocked M/G/inf \
             vs blocked arrivals)",
            "arrivals per second",
            series.all(),
        ));
        fig.tables.push(TableData::from_table(&t));

        let max_rate = *arrival_rates(fidelity).last().unwrap();
        for s in roster.iter().map(|c| &c.label) {
            for m in MODES {
                if let Some(sr) = series.get(&format!("{s}@{m}")) {
                    if let Some(at_1) = sr.value_at(1.0) {
                        fig.push_summary(format!("{s}_{m}_objective_at_1hz"), at_1);
                    }
                    if let Some(at_max) = sr.value_at(max_rate) {
                        fig.push_summary(format!("{s}_{m}_objective_at_{max_rate:.0}hz"), at_max);
                    }
                }
            }
        }
        if let (Some(mg), Some(bl)) = (
            fig.summary_value(&format!("tao_mginf_objective_at_{max_rate:.0}hz")),
            fig.summary_value(&format!("tao_blocked_objective_at_{max_rate:.0}hz")),
        ) {
            fig.notes.push(format!(
                "tao at λ = {max_rate:.0}/s: objective {mg:.3} under M/G/inf arrivals \
                 (slots ~always on, duty 1 - e^(-λd) ≈ {:.3}) vs {bl:.3} blocked \
                 (duty λd/(1+λd) ≈ {:.3}) — the unblocked regime removes \
                 cold-start churn but deepens sustained multiplexing",
                1.0 - (-max_rate * MEAN_DURATION_S).exp(),
                max_rate * MEAN_DURATION_S / (1.0 + max_rate * MEAN_DURATION_S),
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_share_everything_but_blocking() {
        let mg = churn_network(1.0, true);
        let bl = churn_network(1.0, false);
        assert_eq!(mg.links, bl.links);
        assert_eq!(mg.flows.len(), bl.flows.len());
        mg.validate().unwrap();
        assert!(matches!(
            mg.flows[0].workload,
            WorkloadSpec::Churn {
                unblocked: true,
                ..
            }
        ));
    }

    #[test]
    fn mginf_offers_more_load_at_high_rates() {
        // duty 1 − e^{−5} ≈ 0.993 vs blocked 5/6 ≈ 0.833
        let on = |net: NetworkConfig| crate::omniscient::on_probability(&net.flows[0].workload);
        let (mg, bl) = (on(churn_network(5.0, true)), on(churn_network(5.0, false)));
        assert!((mg - 0.9933).abs() < 1e-3, "{mg}");
        assert!((bl - 5.0 / 6.0).abs() < 1e-9, "{bl}");
        assert!(mg > bl);
    }

    #[test]
    fn train_job_matches_multiplexing_asset() {
        let ours = ChurnMginf.train_specs().remove(0);
        let theirs = crate::experiments::multiplexing::Multiplexing
            .train_specs()
            .into_iter()
            .find(|j| j.assets == vec![ASSET.to_string()])
            .expect("multiplexing declares tao-mux-10");
        assert_eq!(ours.specs, theirs.specs, "one asset must serve both");
    }

    #[test]
    fn arrival_grids_bracket_the_anchor() {
        for f in [Fidelity::Quick, Fidelity::Full] {
            let g = arrival_rates(f);
            assert!(g.contains(&1.0));
            assert!(g.iter().any(|&r| r < 1.0) && g.iter().any(|&r| r > 1.0));
        }
    }
}
