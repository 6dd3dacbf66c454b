//! Benchmarks of the Remy protocol-design tool: scenario evaluation
//! throughput, parallel scaling, and ablations of the design choices
//! DESIGN.md calls out (hill-climb step scales; whisker-tree depth on the
//! execution hot path is covered in `simulator.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use protocols::WhiskerTree;
use remy::{
    draw_scenarios, evaluate_scenarios, EvalConfig, Optimizer, OptimizerConfig, ScenarioSpec,
};

fn eval_cfg(threads: usize) -> EvalConfig {
    EvalConfig {
        sim_duration_s: 4.0,
        event_budget: 5_000_000,
        threads,
        ..Default::default()
    }
}

fn bench_evaluation_scaling(c: &mut Criterion) {
    let specs = [ScenarioSpec::calibration()];
    let scenarios = draw_scenarios(&specs, 8, 42);
    let tree = WhiskerTree::default_tree();
    let mut g = c.benchmark_group("optimizer/eval-threads");
    g.sample_size(10);
    for threads in [1usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let cfg = eval_cfg(t);
            b.iter(|| evaluate_scenarios(&scenarios, std::slice::from_ref(&tree), &cfg));
        });
    }
    g.finish();
}

fn bench_evaluation_by_spec(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer/eval-spec");
    g.sample_size(10);
    for (label, spec) in [
        ("calibration", ScenarioSpec::calibration()),
        (
            "mux-100",
            ScenarioSpec::multiplexing(100, remy::BufferSpec::BdpMultiple(5.0)),
        ),
        ("parking-lot", ScenarioSpec::two_bottleneck_model()),
    ] {
        let scenarios = draw_scenarios(std::slice::from_ref(&spec), 4, 7);
        let tree = WhiskerTree::default_tree();
        g.bench_function(label, |b| {
            let cfg = eval_cfg(0);
            b.iter(|| evaluate_scenarios(&scenarios, std::slice::from_ref(&tree), &cfg));
        });
    }
    g.finish();
}

/// Ablation: coarse-to-fine step scales vs fine-only hill climbing.
/// Coarse steps should reach a comparable score in less wall time; this
/// bench records the cost side (the score side is asserted in tests).
fn bench_hill_climb_scales(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimizer/step-scales");
    g.sample_size(10);
    for (label, scales) in [("coarse-to-fine", vec![4.0, 1.0]), ("fine-only", vec![1.0])] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let cfg = OptimizerConfig {
                    draws_per_eval: 2,
                    sim_duration_s: 3.0,
                    rounds: 1,
                    max_leaves: 1,
                    scales: scales.clone(),
                    threads: 0,
                    seed: 9,
                    event_budget: 2_000_000,
                    masks: Vec::new(),
                    verbose: false,
                };
                Optimizer::new(vec![ScenarioSpec::calibration()], cfg).optimize("bench")
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_evaluation_scaling,
    bench_evaluation_by_spec,
    bench_hill_climb_scales
);
criterion_main!(benches);
