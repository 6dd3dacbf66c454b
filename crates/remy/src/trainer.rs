//! Pluggable protocol trainers: one budget, several search strategies.
//!
//! The paper's learnability question is posed over one function class
//! (whisker trees) and one search strategy (the greedy improve-then-split
//! [`Optimizer`]). This module breaks the second hardcoding: a
//! [`Trainer`] is any procedure that turns training [`ScenarioSpec`]s
//! into a [`TrainedProtocol`] under a shared [`TrainBudget`], evaluating
//! candidates on a caller-chosen [`EvalPool`] (a thread count).
//!
//! Two implementations ship today:
//!
//! * [`TreeTrainer`] — the existing Remy hill-climb, unchanged: it wraps
//!   [`Optimizer`] around the caller's pool and produces **bit-identical**
//!   protocols for the same [`OptimizerConfig`] (the committed Tao assets
//!   and figure goldens do not move).
//! * [`GeneticTrainer`] — a population search over *serialized whisker
//!   genomes*: each genome is a whisker tree flattened into a point of a
//!   per-genome action [`ScenarioSpace`] (three axes per leaf), mutated
//!   with the same bounded [`ScenarioSpace::mutate_with`] step the
//!   adversarial search uses, selected by deterministic tournaments, and
//!   scored with the pool's claim-by-index parallel evaluation (the
//!   sweep engine's map) — so the result is bit-identical for any thread
//!   count.
//!
//! All trainer randomness flows through one caller-supplied [`SimRng`]
//! on the calling thread; workers only simulate. That is what makes the
//! genetic search a pure function of `(specs, budget, rng seed)`.

use crate::eval::{draw_scenarios, EvalConfig, EvalPool};
use crate::optimizer::{Optimizer, OptimizerConfig, TrainedProtocol};
use crate::scenario::{Sample, ScenarioSpec};
use crate::space::ScenarioSpace;
use netsim::rng::SimRng;
use protocols::action::{
    MAX_INTERSEND_MS, MAX_WINDOW_INCREMENT, MAX_WINDOW_MULTIPLE, MIN_INTERSEND_MS,
    MIN_WINDOW_INCREMENT, MIN_WINDOW_MULTIPLE,
};
use protocols::whisker::{LeafId, SIGNAL_MAX};
use protocols::{Action, SignalMask, WhiskerTree};

/// Cost class of a training spec: heavy specs (very fast links, 100-way
/// multiplexing) get shorter simulations so training budgets stay sane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainCost {
    Normal,
    Heavy,
}

/// The shared training budget every [`Trainer`] reads: evaluation batch
/// size, simulated time, outer rounds, structure cap, and determinism
/// knobs. [`TreeTrainer`] maps it 1:1 onto [`OptimizerConfig`];
/// [`GeneticTrainer`] reads `rounds` as generations and `max_leaves` as
/// the genome-size cap.
#[derive(Clone, Debug)]
pub struct TrainBudget {
    /// Scenario draws per spec per evaluation batch.
    pub draws_per_eval: usize,
    /// Simulated seconds per scenario.
    pub sim_duration_s: f64,
    /// Outer rounds (tree: improve-then-split cycles; genetic: generations).
    pub rounds: usize,
    /// Structure cap: maximum whiskers per tree / leaves per genome.
    pub max_leaves: usize,
    /// Hill-climb step scales, coarse to fine (tree trainer only).
    pub scales: Vec<f64>,
    /// Worker threads (0 = all cores). Never changes results.
    pub threads: usize,
    /// Root seed for scenario draws (and, via the caller's rng, trainer
    /// randomness).
    pub seed: u64,
    /// Per-simulation event cap.
    pub event_budget: u64,
    /// Per-slot signal-knockout masks (§3.4); empty = all signals.
    pub masks: Vec<SignalMask>,
    /// Print progress to stderr.
    pub verbose: bool,
}

impl Default for TrainBudget {
    fn default() -> Self {
        TrainBudget::from_config(OptimizerConfig::default())
    }
}

impl TrainBudget {
    /// View an existing optimizer config as a budget (field-for-field).
    pub fn from_config(cfg: OptimizerConfig) -> Self {
        TrainBudget {
            draws_per_eval: cfg.draws_per_eval,
            sim_duration_s: cfg.sim_duration_s,
            rounds: cfg.rounds,
            max_leaves: cfg.max_leaves,
            scales: cfg.scales,
            threads: cfg.threads,
            seed: cfg.seed,
            event_budget: cfg.event_budget,
            masks: cfg.masks,
            verbose: cfg.verbose,
        }
    }

    /// A small budget for unit tests and smoke runs (mirrors
    /// [`OptimizerConfig::smoke`]).
    pub fn smoke() -> Self {
        TrainBudget::from_config(OptimizerConfig::smoke())
    }

    /// The standard budget used for all committed protocol assets — the
    /// single source of the per-fidelity presets formerly copied around
    /// the experiment modules.
    ///
    /// The paper burned a CPU-year per protocol on an 80-core machine;
    /// these budgets train in minutes and reproduce the *orderings* the
    /// study is about. `LEARNABILITY_FAST_TRAIN=1` slashes budgets
    /// further for time-boxed retrains (the committed assets' source of
    /// truth in CI). Progress logs are off; `learnability train` turns
    /// them on for the jobs it runs.
    pub fn for_fidelity(cost: TrainCost) -> Self {
        let mut b = TrainBudget {
            draws_per_eval: 6,
            sim_duration_s: 8.0,
            rounds: 8,
            max_leaves: 8,
            scales: vec![4.0, 1.0],
            threads: 0,
            seed: 0x51C0_2014,
            event_budget: 8_000_000,
            masks: Vec::new(),
            verbose: false,
        };
        if cost == TrainCost::Heavy {
            b.sim_duration_s = 3.0;
            b.draws_per_eval = 5;
            b.rounds = 5;
            b.max_leaves = 5;
            b.event_budget = 4_000_000;
        }
        if std::env::var("LEARNABILITY_FAST_TRAIN").is_ok() {
            b.rounds = b.rounds.min(4);
            b.max_leaves = b.max_leaves.min(4);
            b.draws_per_eval = b.draws_per_eval.min(4);
            b.sim_duration_s = b.sim_duration_s.min(5.0);
            b.scales = vec![4.0];
            b.event_budget = b.event_budget.min(2_000_000);
        }
        b
    }

    /// The equivalent whisker-tree optimizer config (field-for-field, so
    /// tree training through the trait is bit-identical to calling
    /// [`Optimizer`] directly).
    pub fn tree_config(&self) -> OptimizerConfig {
        OptimizerConfig {
            draws_per_eval: self.draws_per_eval,
            sim_duration_s: self.sim_duration_s,
            rounds: self.rounds,
            max_leaves: self.max_leaves,
            scales: self.scales.clone(),
            threads: self.threads,
            seed: self.seed,
            event_budget: self.event_budget,
            masks: self.masks.clone(),
            verbose: self.verbose,
        }
    }

    /// The evaluation knobs shared by every trainer.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            sim_duration_s: self.sim_duration_s,
            event_budget: self.event_budget,
            threads: self.threads,
            masks: self.masks.clone(),
        }
    }
}

/// A protocol-design strategy: turn training scenario models into one
/// trained protocol, evaluating candidates on the caller's pool.
///
/// Contract: `train` must be a pure function of `(specs, the trainer's
/// own budget, rng state)` — in particular, bit-identical for any pool
/// size and `threads` setting. Trainer randomness
/// must be drawn from `rng` on the calling thread only.
pub trait Trainer {
    /// Short id, as spelled on the CLI (`--trainer tree|genetic`).
    fn id(&self) -> &'static str;

    /// Design a protocol named `name` for the training scenarios.
    fn train(
        &self,
        name: &str,
        specs: &[ScenarioSpec],
        pool: &EvalPool,
        rng: &mut SimRng,
    ) -> TrainedProtocol;
}

/// The Remy greedy hill-climb (improve each whisker, split the busiest)
/// behind the [`Trainer`] trait. Thin wrapper over [`Optimizer`]: same
/// config, same RNG stream, bit-identical protocols.
pub struct TreeTrainer {
    cfg: OptimizerConfig,
}

impl TreeTrainer {
    pub fn new(budget: &TrainBudget) -> Self {
        TreeTrainer {
            cfg: budget.tree_config(),
        }
    }

    /// Wrap an exact optimizer config (bit-identity with direct
    /// [`Optimizer`] use is per-field, so this is the no-surprises path
    /// for retraining committed assets).
    pub fn from_config(cfg: OptimizerConfig) -> Self {
        TreeTrainer { cfg }
    }
}

impl Trainer for TreeTrainer {
    fn id(&self) -> &'static str {
        "tree"
    }

    fn train(
        &self,
        name: &str,
        specs: &[ScenarioSpec],
        pool: &EvalPool,
        _rng: &mut SimRng,
    ) -> TrainedProtocol {
        // The tree search is fully determined by cfg.seed; the trait rng
        // is left untouched so tree output never depends on it.
        Optimizer::with_pool(specs.to_vec(), self.cfg.clone(), *pool).optimize(name)
    }
}

/// Genetic population search over serialized whisker genomes.
///
/// Each genome is a [`WhiskerTree`]; its leaf actions serialize into a
/// point of a per-genome action [`ScenarioSpace`] (window multiple and
/// increment on linear axes, intersend on a log axis — the same shape
/// the hill-climb explores geometrically). One generation is:
///
/// 1. score every genome on a fresh common-random-number scenario batch
///    (claim-by-index parallel on the caller's [`EvalPool`]);
/// 2. carry the `elites` best genomes over unchanged (deterministic
///    ranking: fitness, then input index);
/// 3. refill the population with tournament winners mutated by
///    [`ScenarioSpace::mutate_with`], occasionally splitting a leaf
///    (structural mutation) while under the budget's leaf cap.
pub struct GeneticTrainer {
    budget: TrainBudget,
    /// Genomes per generation.
    pub population: usize,
    /// Genomes drawn per tournament; the fittest becomes the parent.
    pub tournament: usize,
    /// Top genomes copied unchanged into the next generation.
    pub elites: usize,
    /// Bounded-mutation step as a fraction of each action axis range.
    pub strength: f64,
    /// Per-child probability of a structural split mutation.
    pub split_prob: f64,
}

impl GeneticTrainer {
    pub fn new(budget: TrainBudget) -> Self {
        GeneticTrainer {
            budget,
            population: 10,
            tournament: 3,
            elites: 2,
            strength: 0.15,
            split_prob: 0.2,
        }
    }

    pub fn budget(&self) -> &TrainBudget {
        &self.budget
    }

    /// The action box a genome of `leaves` leaves serializes into: three
    /// axes per leaf, intersend log-spaced like the optimizer's
    /// geometric τ steps.
    pub fn genome_space(leaves: usize) -> ScenarioSpace {
        let mut sp = ScenarioSpace::new("whisker-genome");
        for i in 0..leaves {
            sp = sp
                .with_continuous(
                    format!("m{i}"),
                    Sample::Uniform {
                        lo: MIN_WINDOW_MULTIPLE,
                        hi: MAX_WINDOW_MULTIPLE,
                    },
                )
                .with_continuous(
                    format!("b{i}"),
                    Sample::Uniform {
                        lo: MIN_WINDOW_INCREMENT,
                        hi: MAX_WINDOW_INCREMENT,
                    },
                )
                .with_continuous(
                    format!("tau{i}"),
                    Sample::LogUniform {
                        lo: MIN_INTERSEND_MS,
                        hi: MAX_INTERSEND_MS,
                    },
                );
        }
        sp
    }

    /// Serialize a genome: leaf actions in traversal order.
    pub fn genome_point(tree: &WhiskerTree) -> Vec<f64> {
        tree.leaves()
            .iter()
            .flat_map(|w| {
                [
                    w.action.window_multiple,
                    w.action.window_increment,
                    w.action.intersend_ms,
                ]
            })
            .collect()
    }

    /// Write a serialized point back into the genome's leaf actions.
    pub fn apply_point(tree: &mut WhiskerTree, point: &[f64]) {
        assert_eq!(point.len(), tree.num_leaves() * 3, "genome arity mismatch");
        for (i, chunk) in point.chunks_exact(3).enumerate() {
            tree.set_leaf_action(LeafId(i), Action::new(chunk[0], chunk[1], chunk[2]));
        }
    }

    /// One bounded mutation: maybe split a leaf (structural), then perturb
    /// the serialized action point with `mutate_with`.
    fn mutate_genome(&self, parent: &WhiskerTree, rng: &mut SimRng) -> WhiskerTree {
        let mut child = parent.clone();
        if child.num_leaves() < self.budget.max_leaves && rng.chance(self.split_prob) {
            let leaf = rng.uniform_u32(0, child.num_leaves() as u32 - 1) as usize;
            let dim = rng.uniform_u32(0, SIGNAL_MAX.len() as u32 - 1) as usize;
            child.split_leaf(LeafId(leaf), dim);
        }
        let space = Self::genome_space(child.num_leaves());
        let point = Self::genome_point(&child);
        let mutated = space.mutate_with(&point, rng, self.strength);
        Self::apply_point(&mut child, &mutated);
        child
    }

    /// Best of `tournament` uniform draws (ties go to the lower index, so
    /// selection is deterministic in the rng stream).
    fn tournament_pick(&self, fitness: &[f64], rng: &mut SimRng) -> usize {
        let n = fitness.len();
        let mut best = rng.uniform_u32(0, n as u32 - 1) as usize;
        for _ in 1..self.tournament.max(1) {
            let cand = rng.uniform_u32(0, n as u32 - 1) as usize;
            if fitness[cand] > fitness[best] || (fitness[cand] == fitness[best] && cand < best) {
                best = cand;
            }
        }
        best
    }
}

impl Trainer for GeneticTrainer {
    fn id(&self) -> &'static str {
        "genetic"
    }

    fn train(
        &self,
        name: &str,
        specs: &[ScenarioSpec],
        pool: &EvalPool,
        rng: &mut SimRng,
    ) -> TrainedProtocol {
        assert!(
            !specs.is_empty(),
            "trainer needs at least one training spec"
        );
        let cfg = self.budget.eval_config();
        let pop_n = self.population.max(2);
        let generations = self.budget.rounds.max(1);

        // Seeded population: the default whisker plus bounded mutants.
        let seed_tree = WhiskerTree::default_tree();
        let mut population = vec![seed_tree.clone()];
        while population.len() < pop_n {
            population.push(self.mutate_genome(&seed_tree, rng));
        }

        let mut champion = (population[0].clone(), f64::NEG_INFINITY);
        for generation in 0..generations {
            // Fresh common-random-number draws per generation, same seed
            // schedule as the tree optimizer's rounds.
            let scenarios = draw_scenarios(
                specs,
                self.budget.draws_per_eval,
                self.budget.seed ^ ((generation as u64 + 1) * 0x9E37),
            );
            let fitness = pool.evaluate_each(&scenarios, &population, &cfg);

            // Deterministic ranking: fitness descending, input index as
            // the tie-break (NaN sinks to the bottom).
            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|&a, &b| {
                fitness[b]
                    .partial_cmp(&fitness[a])
                    .unwrap_or_else(|| fitness[b].is_nan().cmp(&fitness[a].is_nan()))
                    .then(a.cmp(&b))
            });
            champion = (population[order[0]].clone(), fitness[order[0]]);
            if self.budget.verbose {
                eprintln!(
                    "[genetic] generation {generation}: best {:.4}, {} leaves",
                    fitness[order[0]],
                    population[order[0]].num_leaves()
                );
            }
            if generation + 1 == generations {
                break;
            }

            let mut next = Vec::with_capacity(pop_n);
            for &e in order.iter().take(self.elites.min(pop_n)) {
                next.push(population[e].clone());
            }
            while next.len() < pop_n {
                let parent = self.tournament_pick(&fitness, rng);
                next.push(self.mutate_genome(&population[parent], rng));
            }
            population = next;
        }

        TrainedProtocol {
            name: name.into(),
            tree: champion.0,
            score: champion.1,
            description: format!(
                "genetic trainer: population {pop_n}, {generations} generation(s), \
                 tournament {}, elites {}, {} training spec(s), budget={:?}",
                self.tournament,
                self.elites,
                specs.len(),
                self.budget
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_budget() -> TrainBudget {
        let mut b = TrainBudget::smoke();
        b.rounds = 2;
        b.sim_duration_s = 3.0;
        b.event_budget = 2_000_000;
        b
    }

    #[test]
    fn budget_round_trips_through_optimizer_config() {
        let cfg = OptimizerConfig::default();
        let back = TrainBudget::from_config(cfg.clone()).tree_config();
        assert_eq!(format!("{cfg:?}"), format!("{back:?}"));
        let smoke = TrainBudget::smoke().tree_config();
        assert_eq!(
            format!("{smoke:?}"),
            format!("{:?}", OptimizerConfig::smoke())
        );
    }

    #[test]
    fn tree_trainer_matches_direct_optimizer_exactly() {
        // The trait wrapper must not perturb the optimizer's RNG stream:
        // same config -> bit-identical protocol (this is what keeps the
        // committed assets and goldens frozen across the refactor).
        let specs = vec![ScenarioSpec::calibration()];
        let mut cfg = OptimizerConfig::smoke();
        cfg.seed = 9;
        let direct = Optimizer::new(specs.clone(), cfg.clone()).optimize("direct");
        let pool = EvalPool::new(2);
        let via_trait = TreeTrainer::from_config(cfg).train(
            "via-trait",
            &specs,
            &pool,
            &mut SimRng::from_seed(0),
        );
        assert_eq!(direct.tree, via_trait.tree);
        assert_eq!(direct.score, via_trait.score);
    }

    #[test]
    fn genome_serialization_round_trips() {
        let mut tree = WhiskerTree::default_tree();
        tree.split_leaf(LeafId(0), 0);
        tree.split_leaf(LeafId(1), 2);
        let point = GeneticTrainer::genome_point(&tree);
        assert_eq!(point.len(), 9);
        let mut back = tree.clone();
        GeneticTrainer::apply_point(&mut back, &point);
        assert_eq!(tree, back, "identity round trip");
        let space = GeneticTrainer::genome_space(tree.num_leaves());
        assert!(space.contains(&point), "genome points live inside the box");
    }

    #[test]
    fn genetic_training_is_deterministic_and_improves() {
        let specs = vec![ScenarioSpec::calibration()];
        let trainer = GeneticTrainer::new(quick_budget());
        let pool = EvalPool::new(2);
        let a = trainer.train("a", &specs, &pool, &mut SimRng::from_seed(7));
        let b = trainer.train("b", &specs, &pool, &mut SimRng::from_seed(7));
        assert_eq!(a.tree, b.tree, "same rng seed, same genome");
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert!(a.score.is_finite());
        assert!(a.tree.num_leaves() <= trainer.budget().max_leaves);
    }

    #[test]
    fn trainer_ids_are_the_cli_spellings() {
        assert_eq!(TreeTrainer::new(&TrainBudget::smoke()).id(), "tree");
        assert_eq!(GeneticTrainer::new(TrainBudget::smoke()).id(), "genetic");
    }
}
