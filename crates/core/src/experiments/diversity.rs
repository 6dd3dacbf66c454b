//! Fig 9 / Table 7 — the price of sender diversity.
//!
//! Can two protocols with *different* objectives share a bottleneck? A
//! throughput-sensitive sender (δ = 0.1) and a delay-sensitive sender
//! (δ = 10) are designed two ways: **naive** — each optimized as if every
//! other sender were of its own type — and **co-optimized** — jointly
//! trained on a network carrying 0–2 senders of each type (Table 7a).
//! Testing (Table 7b) runs each pair on a 10 Mbps / 100 ms no-drop
//! dumbbell, homogeneously and mixed. The paper finds co-optimization lets
//! the delay-sensitive sender keep low delay in the mix, paid for by the
//! throughput-sensitive sender's "niceness".

use super::scaffold::prelude::*;
use remy::{
    BufferSpec, CountSpec, Objective, RoleSpec, Sample, ScenarioSpec, SenderClassSpec, TopologySpec,
};

pub const ASSET_TPT_NAIVE: &str = "tao-tpt-naive";
pub const ASSET_DEL_NAIVE: &str = "tao-del-naive";
pub const ASSET_TPT_COOPT: &str = "tao-tpt-coopt";
pub const ASSET_DEL_COOPT: &str = "tao-del-coopt";

/// Naive training spec: 1–2 senders, all of one δ (Table 7a with the other
/// type absent).
fn naive_spec(delta: f64) -> ScenarioSpec {
    ScenarioSpec {
        topology: TopologySpec::Dumbbell {
            link_mbps: Sample::Fixed(10.0),
            rtt_ms: Sample::Fixed(100.0),
        },
        classes: vec![SenderClassSpec {
            role: RoleSpec::Tao { slot: 0 },
            count: CountSpec::UniformInt { lo: 1, hi: 2 },
            workload: WorkloadSpec::on_off_1s(),
            delta,
        }],
        buffer: BufferSpec::Infinite,
    }
}

/// Table 7b's network: 10 Mbps, 100 ms, no-drop buffer, 1 s ON/OFF.
pub fn test_network(n_senders: usize) -> NetworkConfig {
    dumbbell(
        n_senders,
        10e6,
        0.100,
        QueueSpec::infinite(),
        WorkloadSpec::on_off_1s(),
    )
}

/// The sweep rows: (group, config, [flow labels]).
const ROWS: [(&str, &str, [&str; 2]); 6] = [
    (
        "homogeneous",
        "2x tpt-naive",
        [ASSET_TPT_NAIVE, ASSET_TPT_NAIVE],
    ),
    (
        "homogeneous",
        "2x del-naive",
        [ASSET_DEL_NAIVE, ASSET_DEL_NAIVE],
    ),
    (
        "homogeneous",
        "2x tpt-coopt",
        [ASSET_TPT_COOPT, ASSET_TPT_COOPT],
    ),
    (
        "homogeneous",
        "2x del-coopt",
        [ASSET_DEL_COOPT, ASSET_DEL_COOPT],
    ),
    ("mixed", "naive mix", [ASSET_TPT_NAIVE, ASSET_DEL_NAIVE]),
    (
        "mixed",
        "co-optimized mix",
        [ASSET_TPT_COOPT, ASSET_DEL_COOPT],
    ),
];

/// The sender-diversity experiment (`learnability run diversity`).
pub struct Diversity;

impl Experiment for Diversity {
    fn id(&self) -> &'static str {
        "diversity"
    }

    fn paper_artifact(&self) -> &'static str {
        "Fig 9 / Table 7 — the price of sender diversity"
    }

    fn roster(&self) -> Vec<Contender> {
        [
            ASSET_TPT_NAIVE,
            ASSET_DEL_NAIVE,
            ASSET_TPT_COOPT,
            ASSET_DEL_COOPT,
        ]
        .map(Contender::asset)
        .into()
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        vec![
            TrainJob::single(
                ASSET_TPT_NAIVE,
                vec![naive_spec(Objective::throughput_sensitive().delta)],
                train_cfg(TrainCost::Normal),
            ),
            TrainJob::single(
                ASSET_DEL_NAIVE,
                vec![naive_spec(Objective::delay_sensitive().delta)],
                train_cfg(TrainCost::Normal),
            ),
            // Co-optimization trains both slots together on the diversity
            // spec, producing the pair as two assets of one run.
            TrainJob::co_optimized(
                &[ASSET_TPT_COOPT, ASSET_DEL_COOPT],
                vec![ScenarioSpec::diversity()],
                train_cfg(TrainCost::Normal),
                2,
            ),
        ]
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for (group, config, flows) in ROWS {
            let schemes = flows.iter().map(|l| grid.scheme(l)).collect();
            grid.mix(group, config, 0.0, test_network(flows.len()), schemes);
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let mut rows = Vec::new();
        for (group, title) in [
            ("homogeneous", "Fig 9a — homogeneous (each pair by itself)"),
            (
                "mixed",
                "Fig 9b — mixed network (1 tpt-sender + 1 del-sender)",
            ),
        ] {
            let headers = ["configuration", "sender", "throughput", "queueing delay"];
            rows.extend(sides_table(&mut fig, title, &headers, points, group));
        }

        // In the co-optimized mix, the delay-sensitive sender should see
        // less queueing delay than the throughput-sensitive one.
        let qd_of = |config: &str, label: &str| {
            rows.iter()
                .find(|(c, l, _)| *c == config && l == label)
                .map(|(_, _, s)| s.qd.median)
        };
        if let (Some(tpt_qd), Some(del_qd)) = (
            qd_of("co-optimized mix", ASSET_TPT_COOPT),
            qd_of("co-optimized mix", ASSET_DEL_COOPT),
        ) {
            let gap = tpt_qd - del_qd;
            fig.push_summary("mixed_coopt_delay_gap_ms", gap);
            fig.notes.push(format!(
                "co-optimized mix: delay-sensitive sender sees {gap:.2} ms less queueing delay \
                 than the throughput-sensitive sender (paper: lower delay for Del. sender)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_specs_differ_only_in_delta() {
        let t = naive_spec(0.1);
        let d = naive_spec(10.0);
        assert_eq!(t.classes[0].delta, 0.1);
        assert_eq!(d.classes[0].delta, 10.0);
        assert_eq!(t.topology, d.topology);
        assert_eq!(t.buffer, BufferSpec::Infinite);
    }

    #[test]
    fn test_network_is_no_drop() {
        let net = test_network(2);
        assert_eq!(net.links[0].queue, QueueSpec::infinite());
        assert_eq!(net.links[0].rate_bps, 10e6);
    }

    #[test]
    fn train_specs_include_the_co_optimized_pair() {
        let jobs = Diversity.train_specs();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[2].co_alternations, Some(2));
        assert_eq!(
            jobs[2].assets,
            vec![ASSET_TPT_COOPT.to_string(), ASSET_DEL_COOPT.to_string()]
        );
        let all: Vec<String> = jobs.iter().flat_map(|j| j.assets.clone()).collect();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn rows_pair_the_right_senders() {
        assert_eq!(ROWS.iter().filter(|(g, _, _)| *g == "mixed").count(), 2);
        let coopt = ROWS.last().unwrap();
        assert_eq!(coopt.2, [ASSET_TPT_COOPT, ASSET_DEL_COOPT]);
    }
}
