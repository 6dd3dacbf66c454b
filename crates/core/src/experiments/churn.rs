//! Extension — flow churn: Poisson flow arrivals swept against the static
//! ON/OFF multiplexing the protocols were trained for.
//!
//! The paper varies the *degree* of multiplexing (Fig 3) but every sender
//! follows the same stationary 1 s ON / 1 s OFF process. Real links see
//! churn: flows arrive as a Poisson process and drain after an
//! exponentially distributed transfer. This experiment fixes ten sender
//! slots on the Fig 3 dumbbell and sweeps the per-slot arrival rate from
//! well below to well above the trained operating point, evaluating the
//! 1–10-way multiplexing Tao (`tao-mux-10`) against Cubic and NewReno. At
//! λ = 1/s with 1 s mean duration the churn process is distributionally
//! identical to the paper's workload (memorylessness), which gives the
//! sweep a built-in consistency anchor against the static baseline; away
//! from it, arrival bursts change how often a protocol must re-acquire the
//! link from a cold start. A parking-lot cross-traffic mix (a churning Tao
//! sharing two bottlenecks with near-continuous NewReno flows) adds the
//! multi-hop contention case.

use super::scaffold::prelude::*;

/// Asset shared with the multiplexing experiment: the 1–10-way Tao.
pub const ASSET: &str = "tao-mux-10";

/// Sender slots on the dumbbell (the trained multiplexing range's top).
pub(super) const SLOTS: usize = 10;

/// Mean flow duration (seconds); λ sweeps around the paper's 1/s point.
pub(super) const MEAN_DURATION_S: f64 = 1.0;

pub(super) fn arrival_rates(fidelity: Fidelity) -> Vec<f64> {
    match fidelity {
        Fidelity::Quick => vec![0.2, 1.0, 5.0],
        Fidelity::Full => vec![0.1, 0.2, 0.5, 1.0, 2.0, 5.0],
    }
}

/// The churn dumbbell: Fig 3's network with churning sender slots.
fn churn_network(arrival_rate_hz: f64) -> NetworkConfig {
    let churn = WorkloadSpec::churn(arrival_rate_hz, MEAN_DURATION_S);
    paper_dumbbell(SLOTS, 15e6, 0.150, churn)
}

/// The static-multiplexing baseline the protocols were trained against.
fn static_network() -> NetworkConfig {
    paper_dumbbell(SLOTS, 15e6, 0.150, WorkloadSpec::on_off_1s())
}

/// Parking-lot cross-traffic mix: flow 0 (the scheme under test) churns
/// across both bottlenecks; two near-continuous NewReno flows each pin one.
fn cross_traffic_network() -> NetworkConfig {
    let queue = QueueSpec::drop_tail_bdp(10e6, 0.150, 5.0);
    let pinned = WorkloadSpec::almost_continuous();
    let mut net = parking_lot(10e6, 10e6, 0.075, queue.clone(), queue, pinned);
    net.flows[0].workload = WorkloadSpec::churn(1.0, MEAN_DURATION_S);
    net
}

/// The flow-churn experiment (`learnability run churn`).
pub struct Churn;

impl Experiment for Churn {
    fn id(&self) -> &'static str {
        "churn"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — flow churn: Poisson arrival rate vs the static multiplexing baseline"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(ASSET, [Scheme::Cubic, Scheme::NewReno])
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for &rate in &arrival_rates(fidelity) {
            grid.cells("churn", rate, &churn_network(rate));
        }
        // Static ON/OFF baseline (distributionally = churn at λ = 1/s).
        grid.cells("static", 1.0, &static_network());
        // Parking-lot cross-traffic mix: scheme under test churns across
        // both hops against near-continuous NewReno.
        for label in grid.labels() {
            let schemes = vec![grid.scheme(&label), Scheme::NewReno, Scheme::NewReno];
            grid.mix("xtraffic", &label, 0.0, cross_traffic_network(), schemes);
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());

        let mut series = SeriesSet::of(self);
        let mut static_obj: Vec<(String, f64)> = Vec::new();
        for p in points {
            let (group, label) = split_key(p.key());
            let obj = || Norm::omniscient(&p.point.net).objective(&p.runs);
            match group {
                "churn" => series.push(label, p.x(), obj()),
                "static" => {
                    let obj = obj();
                    static_obj.push((label.to_string(), obj));
                    fig.push_summary(format!("{label}_static_objective"), obj);
                }
                "xtraffic" => {} // the cross-traffic mix is tabulated below
                other => panic!("unknown point group '{other}'"),
            }
        }
        sides_table(
            &mut fig,
            "parking-lot cross-traffic (flow 0 churns over both hops, \
             NewReno pins each hop)",
            &["scheme under test", "side", "throughput", "queueing delay"],
            points,
            "xtraffic",
        );
        fig.charts.push(ChartData::from_series(
            "normalized objective vs per-slot flow arrival rate \
             (10 slots, mean flow duration 1 s)",
            "arrivals per second",
            series.all(),
        ));

        for s in series.all() {
            let name = &s.name;
            if let Some(at_1) = s.value_at(1.0) {
                fig.push_summary(format!("{name}_churn_objective_at_1hz"), at_1);
            }
            if let Some(max) = s
                .points
                .iter()
                .max_by(|a, b| a.x.partial_cmp(&b.x).expect("no NaN x"))
            {
                let x_max = max.x;
                fig.push_summary(format!("{name}_churn_objective_at_{x_max:.0}hz"), max.y);
            }
        }
        // Consistency anchor: churn at λ = 1/s is the same process as the
        // static 1 s ON/OFF baseline, so the objectives should agree.
        for (label, s_obj) in &static_obj {
            if let Some(c_obj) = fig.summary_value(&format!("{label}_churn_objective_at_1hz")) {
                let gap = c_obj - *s_obj;
                fig.push_summary(format!("{label}_churn1hz_minus_static"), gap);
                if label == "tao" {
                    fig.notes.push(format!(
                        "consistency anchor: tao churn@1/s objective {c_obj:.3} vs static \
                         ON/OFF {s_obj:.3} (gap {gap:.3}; the processes are \
                         distributionally identical, residual gap is seed noise)"
                    ));
                }
            }
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_and_static_networks_share_everything_but_workload() {
        let c = churn_network(1.0);
        let s = static_network();
        assert_eq!(c.links, s.links);
        assert_eq!(c.flows.len(), s.flows.len());
        // λ = 1/s, d = 1 s: same stationary ON probability as 1s/1s ON/OFF
        assert_eq!(
            crate::omniscient::on_probability(&c.flows[0].workload),
            crate::omniscient::on_probability(&s.flows[0].workload),
        );
        c.validate().unwrap();
    }

    #[test]
    fn cross_traffic_topology_is_a_parking_lot() {
        let net = cross_traffic_network();
        net.validate().unwrap();
        assert_eq!(net.flows[0].route, vec![0, 1]);
        assert_eq!(net.min_rtt(0), SimDuration::from_millis(150));
        assert!(matches!(net.flows[0].workload, WorkloadSpec::Churn { .. }));
    }

    #[test]
    fn arrival_grids_bracket_the_trained_point() {
        for f in [Fidelity::Quick, Fidelity::Full] {
            let g = arrival_rates(f);
            assert!(g.contains(&1.0), "anchor at the static-equivalent rate");
            assert!(g.iter().any(|&r| r < 1.0) && g.iter().any(|&r| r > 1.0));
        }
    }
}
