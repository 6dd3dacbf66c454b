//! End-to-end pipeline tests: design a protocol with the optimizer, save
//! it, load it back, and verify it behaves sanely on its design network.

use learnability::lcc_core::{run_homogeneous, Scheme};
use learnability::netsim::prelude::*;
use learnability::remy::prelude::*;
use learnability::remy::serialize;

/// A very small budget so the test runs in seconds even in debug builds.
fn tiny_cfg() -> OptimizerConfig {
    OptimizerConfig {
        draws_per_eval: 2,
        sim_duration_s: 3.0,
        rounds: 1,
        max_leaves: 1,
        scales: vec![4.0],
        threads: 2,
        seed: 77,
        event_budget: 1_500_000,
        masks: Vec::new(),
        verbose: false,
    }
}

#[test]
fn train_save_load_run() {
    let specs = vec![ScenarioSpec::link_speed_range(8.0, 12.0)];
    let trained = Optimizer::new(specs, tiny_cfg()).optimize("e2e-test");
    assert!(trained.score.is_finite());

    // Round-trip through JSON.
    let json = serialize::to_json(&trained);
    let loaded = serialize::from_json(&json).expect("parses back");
    assert_eq!(loaded.tree, trained.tree);

    // The trained protocol must move data on its design network.
    let net = dumbbell(
        2,
        10e6,
        0.150,
        QueueSpec::drop_tail_bdp(10e6, 0.150, 5.0),
        WorkloadSpec::on_off_1s(),
    );
    let out = run_homogeneous(&net, &Scheme::tao(loaded.tree, "e2e"), 5, 12.0);
    let delivered: u64 = out.flows.iter().map(|f| f.bytes_delivered).sum();
    assert!(
        delivered > 100_000,
        "trained protocol delivered {delivered} bytes"
    );
}

#[test]
fn training_beats_pathological_start_on_fresh_draws() {
    use learnability::protocols::{Action, WhiskerTree};
    // Always-on senders give the objective a smooth gradient in the
    // pacing coordinate even at tiny simulation budgets (1 s ON/OFF
    // bursts quantize deliveries too coarsely for a 3 s simulation).
    let specs = vec![ScenarioSpec {
        topology: TopologySpec::Dumbbell {
            link_mbps: Sample::Fixed(10.0),
            rtt_ms: Sample::Fixed(100.0),
        },
        classes: vec![SenderClassSpec {
            role: RoleSpec::Tao { slot: 0 },
            count: CountSpec::Fixed(2),
            workload: netsim::workload::WorkloadSpec::AlwaysOn,
            delta: 1.0,
        }],
        buffer: BufferSpec::BdpMultiple(5.0),
    }];
    // Start from a pathologically slow protocol (~3 pkt/s pacing).
    let bad = WhiskerTree::uniform(Action::new(0.0, 0.0, 300.0));
    let trained = Optimizer::new(specs.clone(), tiny_cfg()).optimize_from(bad.clone(), "rescue");

    let scenarios = learnability::remy::draw_scenarios(&specs, 3, 4242);
    let cfg = EvalConfig {
        sim_duration_s: 3.0,
        event_budget: 1_500_000,
        threads: 2,
        ..Default::default()
    };
    let u_bad =
        learnability::remy::evaluate_scenarios(&scenarios, std::slice::from_ref(&bad), &cfg)
            .mean_utility;
    let u_new = learnability::remy::evaluate_scenarios(
        &scenarios,
        std::slice::from_ref(&trained.tree),
        &cfg,
    )
    .mean_utility;
    assert!(
        u_new > u_bad + 1.0,
        "optimizer must escape the pathological start: {u_bad:.2} -> {u_new:.2}"
    );
}

#[test]
fn knockout_mask_flows_through_training_and_execution() {
    use learnability::protocols::{Signal, SignalMask, TaoCc, WhiskerTree};
    let mut cfg = tiny_cfg();
    cfg.masks = vec![SignalMask::without(Signal::RttRatio)];
    let specs = vec![ScenarioSpec::calibration()];
    let trained = Optimizer::new(specs, cfg).optimize("masked");

    // Execute with the same mask: the rtt_ratio coordinate of the memory
    // point must always read zero.
    let cc = TaoCc::with_mask(
        trained.tree.clone(),
        SignalMask::without(Signal::RttRatio),
        "masked",
    );
    let _ = cc; // construction suffices; memory masking is unit-tested

    // And the tree itself is a valid WhiskerTree.
    assert!(trained.tree.num_leaves() >= 1);
    let _clone: WhiskerTree = trained.tree.clone();
}

#[test]
fn co_optimization_produces_two_distinct_protocols() {
    use learnability::protocols::WhiskerTree;
    let specs = vec![ScenarioSpec::diversity()];
    let mut cfg = tiny_cfg();
    cfg.rounds = 1;
    let out = Optimizer::new(specs, cfg).co_optimize(
        vec![WhiskerTree::default_tree(), WhiskerTree::default_tree()],
        1,
        &["tpt", "del"],
    );
    assert_eq!(out.len(), 2);
    // With δ = 0.1 vs δ = 10 the optimizer should usually move the two
    // slots differently; at minimum both must remain executable.
    for p in &out {
        assert!(p.tree.num_leaves() >= 1);
        assert!(p.score.is_finite());
    }
}
