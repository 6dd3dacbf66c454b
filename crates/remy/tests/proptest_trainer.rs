//! Property tests for the trainer subsystem's determinism contract: a
//! [`Trainer`] must be a pure function of `(specs, budget, rng seed)` —
//! in particular, bit-identical for any evaluation-pool size. This is the
//! same guarantee the sweep engine makes, extended to protocol *design*.
//! (Heap ≡ calendar is proven one layer down, in netsim's digest
//! proptests; the trainer no longer chooses a scheduler backend.)

use netsim::rng::SimRng;
use proptest::prelude::*;
use remy::{EvalPool, GeneticTrainer, ScenarioSpec, TrainBudget, TrainedProtocol, Trainer};

/// A budget small enough to train many times per property case.
fn tiny_budget() -> TrainBudget {
    let mut b = TrainBudget::smoke();
    b.rounds = 1; // one generation
    b.draws_per_eval = 1;
    b.sim_duration_s = 2.0;
    b.event_budget = 1_000_000;
    b
}

fn tiny_trainer() -> GeneticTrainer {
    let mut t = GeneticTrainer::new(tiny_budget());
    t.population = 4;
    t.elites = 1;
    t
}

fn train(trainer: &GeneticTrainer, threads: usize, rng_seed: u64) -> TrainedProtocol {
    let specs = vec![ScenarioSpec::calibration()];
    let pool = EvalPool::new(threads);
    trainer.train("prop", &specs, &pool, &mut SimRng::from_seed(rng_seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The genetic trainer's output must not depend on how many workers
    /// the evaluation pool runs: 1, 2, and 8 threads must produce the
    /// same genome and the same score, bit for bit.
    #[test]
    fn genetic_training_is_bit_identical_across_thread_counts(seed in 0u64..1_000) {
        let trainer = tiny_trainer();
        let one = train(&trainer, 1, seed);
        for threads in [2usize, 8] {
            let other = train(&trainer, threads, seed);
            prop_assert_eq!(&one.tree, &other.tree, "genome drifted at {} threads", threads);
            prop_assert_eq!(one.score.to_bits(), other.score.to_bits());
        }
    }
}
