//! Property tests for the genetic trainer's determinism contract: it
//! must be a pure function of `(specs, cfg)` — in particular,
//! bit-identical for any `cfg.threads`. This is the same guarantee the
//! sweep engine makes, extended to protocol *design*. (Heap ≡ calendar
//! is proven one layer down, in netsim's digest proptests; the trainer
//! does not choose a scheduler backend.)

use proptest::prelude::*;
use remy::{GeneticTrainer, OptimizerConfig, ScenarioSpec, TrainedProtocol};

/// A budget small enough to train many times per property case.
fn tiny_config(seed: u64, threads: usize) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::smoke();
    cfg.rounds = 1; // one generation
    cfg.draws_per_eval = 1;
    cfg.sim_duration_s = 2.0;
    cfg.event_budget = 1_000_000;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg
}

fn train(seed: u64, threads: usize) -> TrainedProtocol {
    let mut t = GeneticTrainer::new(tiny_config(seed, threads));
    t.population = 4;
    t.elites = 1;
    t.train("prop", &[ScenarioSpec::calibration()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The genetic trainer's output must not depend on how many workers
    /// evaluate its population: `cfg.threads` of 1, 2 and 8 must produce
    /// the same genome and the same score, bit for bit.
    #[test]
    fn genetic_training_is_bit_identical_across_thread_counts(seed in 0u64..1_000) {
        let one = train(seed, 1);
        for threads in [2usize, 8] {
            let other = train(seed, threads);
            prop_assert_eq!(&one.tree, &other.tree, "genome drifted at {} threads", threads);
            prop_assert_eq!(one.score.to_bits(), other.score.to_bits());
        }
    }
}
