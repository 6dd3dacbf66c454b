//! Extension — the conclusion's open question: "can we tractably
//! synthesize a single computer-generated protocol that outperforms
//! human-generated incumbents over a wide range of topologies, link
//! speeds, propagation delays, and degrees of multiplexing
//! simultaneously?"
//!
//! We train one **Tao-universal** on the *union* of the paper's training
//! models — broad link speeds, broad RTTs, broad multiplexing, and the
//! two-bottleneck parking lot — then score it on each experiment's
//! testing sweep against Cubic and the specialist protocol for that
//! sweep.

use super::scaffold::prelude::*;
use remy::{BufferSpec, OptimizerConfig, ScenarioSpec, TrainCost};

pub const ASSET: &str = "tao-universal";

/// The union training model.
pub fn training_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::link_speed_range(1.0, 1000.0),
        ScenarioSpec::rtt_range(50.0, 250.0),
        ScenarioSpec::multiplexing(50, BufferSpec::BdpMultiple(5.0)),
        ScenarioSpec::two_bottleneck_model(),
    ]
}

/// The universal optimizer budget: the union model costs more per
/// evaluation, so it gets the heavy budget — with one extra whisker of
/// headroom, since the union model is more varied.
fn universal_cfg() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::standard(TrainCost::Heavy);
    cfg.max_leaves = 10;
    cfg
}

/// The probe networks, each with the specialist Tao whose home turf it
/// is — an asset of the link_speed, rtt or multiplexing experiment:
/// (label, senders, link Mbps, RTT s, specialist asset).
const PROBES: [(&str, usize, f64, f64, &str); 4] = [
    // Probe 1: mid link speed (the 2x specialist's home turf).
    ("32 Mbps / 150 ms / 2 senders", 2, 32.0, 0.150, "tao-2x"),
    // Probe 2: extreme link speed (inside only the 1000x range).
    (
        "700 Mbps / 150 ms / 2 senders",
        2,
        700.0,
        0.150,
        "tao-1000x",
    ),
    // Probe 3: short RTT (the rtt-50-250 specialist's range edge).
    (
        "33 Mbps / 50 ms / 2 senders",
        2,
        33.0,
        0.050,
        "tao-rtt-50-250",
    ),
    // Probe 4: heavy multiplexing.
    (
        "15 Mbps / 150 ms / 40 senders",
        40,
        15.0,
        0.150,
        "tao-mux-50",
    ),
];

/// The one-protocol-for-everything experiment
/// (`learnability run universal`).
pub struct Universal;

impl Experiment for Universal {
    fn id(&self) -> &'static str {
        "universal"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — the conclusion's \"one protocol for everything\" question"
    }

    fn roster(&self) -> Vec<Contender> {
        std::iter::once(Contender::asset(ASSET))
            .chain(PROBES.iter().map(|p| Contender::asset(p.4)))
            .chain([Contender::fixed(Scheme::Cubic)])
            .collect()
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        vec![TrainJob::single(ASSET, training_specs(), universal_cfg())]
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for (label, senders, mbps, rtt_s, specialist) in PROBES {
            let net = paper_dumbbell(senders, mbps * 1e6, rtt_s, WorkloadSpec::on_off_1s());
            for contender in [ASSET, specialist, "cubic"] {
                grid.cell(label, 0.0, &net, contender);
            }
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let mut t = TableData::new(
            "Extension — one protocol for everything (normalized objective, omniscient = 0)",
            &["probe network", "tao-universal", "specialist", "cubic"],
        );
        // A cell's objective against the omniscient reference of its
        // probe's network.
        let obj = |probe: &str, label: &str| {
            let p = points.iter().find(|p| split_key(p.key()) == (probe, label));
            let p = p.unwrap_or_else(|| panic!("universal: no cell '{probe}|{label}'"));
            Norm::omniscient(&p.point.net).objective(&p.runs)
        };
        let mut rows: Vec<(f64, f64, f64)> = Vec::new();
        for (probe, .., specialist) in PROBES {
            let objs = [ASSET, specialist, "cubic"].map(|label| obj(probe, label));
            let cells = objs.map(|o| format!("{o:.3}"));
            t.row([vec![probe.to_string()], cells.to_vec()].concat());
            rows.push((objs[0], objs[1], objs[2]));
        }
        fig.tables.push(t);

        let wins = rows.iter().filter(|r| r.0 > r.2).count();
        let mean_gap = rows.iter().map(|r| r.1 - r.0).sum::<f64>() / rows.len().max(1) as f64;
        fig.push_summary("wins_vs_cubic", wins as f64);
        fig.push_summary("probes", rows.len() as f64);
        fig.push_summary("mean_gap_to_specialists", mean_gap);
        fig.notes.push(format!(
            "universal beats cubic on {}/{} probes; mean gap to specialists {:.3} \
             (the conclusion conjectured such a protocol may be feasible)",
            wins,
            rows.len(),
            mean_gap
        ));
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_model_covers_all_four_axes() {
        let specs = training_specs();
        assert_eq!(specs.len(), 4);
        // at least one spec is a parking lot
        assert!(specs
            .iter()
            .any(|s| matches!(s.topology, remy::TopologySpec::ParkingLot { .. })));
        // the link-speed spec spans the full thousand-fold range
        assert!(specs.iter().any(|s| matches!(
            s.topology,
            remy::TopologySpec::Dumbbell {
                link_mbps: remy::Sample::LogUniform { lo, hi },
                ..
            } if lo == 1.0 && hi == 1000.0
        )));
    }

    #[test]
    fn universal_budget_has_extra_headroom() {
        let cfg = universal_cfg();
        let heavy = OptimizerConfig::standard(TrainCost::Heavy);
        assert_eq!(cfg.max_leaves, 10);
        assert_eq!(cfg.sim_duration_s, heavy.sim_duration_s);
        let jobs = Universal.train_specs();
        assert_eq!(jobs[0].assets, vec![ASSET.to_string()]);
    }
}
