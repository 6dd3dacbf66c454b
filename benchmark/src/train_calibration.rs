//! `train_calibration`: the other half of the system — Remy designing the
//! calibration Tao from scratch at the budget the committed assets were
//! trained with.
//!
//! Same engine as the other workloads, but driven by `remy` (optimizer
//! bookkeeping, `EvalPool` hand-off, scenario draws, one `CompiledTree`
//! compile per candidate) and by Tao in training mode (usage counting).
//! A `remy` or `protocols::compiled` change shows here and should not
//! move `scale_10k`.
//!
//! `--seed` changes nothing here: the only input of a training run is
//! the optimizer's seed, the hill climb is chaotic in it (seeds 1, 2 and
//! 3 took 25, 33 and 29 s), and a workload whose size depends on its
//! seed cannot be compared between runs. The run uses the seed the
//! committed assets were trained with.

use crate::trace::Tracer;
use crate::workload::{Scale, Verdict, Workload};
use protocols::WhiskerTree;
use remy::{
    draw_scenarios, ConcreteScenario, EvalConfig, EvalPool, Optimizer, OptimizerConfig,
    ScenarioSpec, TrainedProtocol,
};

/// The seed of `TrainBudget::for_fidelity`, which trained every
/// committed asset.
const ASSET_SEED: u64 = 0x51C0_2014;

/// Offsets the check batch's seed from anything the optimizer drew.
const CHECK_BATCH_SALT: u64 = 0x5EED_C4EC;

pub struct TrainCalibration {
    pub cfg: OptimizerConfig,
}

impl TrainCalibration {
    pub fn new(scale: Scale) -> Self {
        // The budget of `TrainBudget::for_fidelity(Normal)`, spelled out so
        // no environment variable can change it.
        let full = OptimizerConfig {
            draws_per_eval: 6,
            sim_duration_s: 8.0,
            rounds: 8,
            max_leaves: 8,
            scales: vec![4.0, 1.0],
            threads: 1,
            seed: ASSET_SEED,
            event_budget: 8_000_000,
            verbose: false,
            ..Default::default()
        };
        let cfg = match scale {
            Scale::Full => full,
            Scale::Tiny => OptimizerConfig {
                draws_per_eval: 2,
                sim_duration_s: 2.0,
                rounds: 1,
                max_leaves: 2,
                scales: vec![4.0],
                ..full
            },
        };
        TrainCalibration { cfg }
    }

    pub fn specs() -> Vec<ScenarioSpec> {
        vec![ScenarioSpec::calibration()]
    }

    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            sim_duration_s: self.cfg.sim_duration_s,
            event_budget: self.cfg.event_budget,
            threads: 1,
            ..Default::default()
        }
    }

    /// A batch the optimizer never saw, to score trees on.
    pub fn check_batch(&self) -> Vec<ConcreteScenario> {
        draw_scenarios(
            &Self::specs(),
            self.cfg.draws_per_eval,
            self.cfg.seed ^ CHECK_BATCH_SALT,
        )
    }
}

impl Workload for TrainCalibration {
    type Prepared = (Optimizer, Vec<ConcreteScenario>);
    type Output = TrainedProtocol;

    fn name(&self) -> &'static str {
        "train_calibration"
    }

    fn preflight(&self) -> Result<(), String> {
        Ok(())
    }

    fn prepare(&self, _: &mut Tracer) -> Self::Prepared {
        let first_draw = draw_scenarios(&Self::specs(), self.cfg.draws_per_eval, self.cfg.seed);
        (Optimizer::new(Self::specs(), self.cfg.clone()), first_draw)
    }

    fn execute(&self, (optimizer, _): Self::Prepared, t: &mut Tracer) -> TrainedProtocol {
        t.span("remy.optimizer.optimize", |_| {
            optimizer.optimize("benchmark-calibration")
        })
    }

    /// One operation, the training run: its score is finite, the tree
    /// stays within the leaf budget, and on a fresh batch it does at
    /// least as well as the default tree it started from.
    fn check(&self, trained: &TrainedProtocol) -> Verdict {
        let mut problems = Vec::new();
        if !trained.score.is_finite() {
            problems.push(format!("score {} is not finite", trained.score));
        }
        let leaves = trained.tree.num_leaves();
        if leaves > self.cfg.max_leaves {
            problems.push(format!("{leaves} leaves exceed the budget"));
        }
        let pool = EvalPool::new(1);
        let batch = self.check_batch();
        let score = |tree: &WhiskerTree| {
            pool.evaluate(&batch, std::slice::from_ref(tree), &self.eval_config())
                .mean_utility
        };
        let (got, base) = (score(&trained.tree), score(&WhiskerTree::default_tree()));
        if !(got.is_finite() && got >= base) {
            problems.push(format!(
                "scores {got} on a fresh batch, the default tree {base}"
            ));
        }
        let mut v = Verdict {
            attempted: 1,
            ..Verdict::default()
        };
        if !problems.is_empty() {
            v.failures
                .push(format!("training: {}", problems.join("; ")));
        }
        v
    }
}
