//! The genetic protocol trainer: a second search strategy over the same
//! budget.
//!
//! The paper's learnability question is posed over one function class
//! (whisker trees) and one search strategy (the greedy improve-then-split
//! [`Optimizer`](crate::optimizer::Optimizer)). [`GeneticTrainer`] breaks
//! the second hardcoding: a population search over *serialized whisker
//! genomes* under the same [`OptimizerConfig`] budget. Each genome is a
//! whisker tree flattened into a point of a per-genome action
//! [`ScenarioSpace`] (three axes per leaf), mutated with the same bounded
//! [`ScenarioSpace::mutate_with`] step the adversarial search uses,
//! selected by deterministic tournaments, and scored with the
//! claim-by-index parallel evaluation of an [`EvalPool`] of
//! `cfg.threads` (the sweep engine's map).
//!
//! All trainer randomness flows through one [`SimRng`] seeded from
//! `cfg.seed` on the calling thread; workers only simulate. So the
//! genetic search is a pure function of `(specs, cfg)`, bit-identical
//! for any `cfg.threads`.

use crate::eval::{draw_scenarios, EvalPool};
use crate::optimizer::{OptimizerConfig, TrainedProtocol};
use crate::scenario::{Sample, ScenarioSpec};
use crate::space::ScenarioSpace;
use netsim::rng::SimRng;
use protocols::action::{
    MAX_INTERSEND_MS, MAX_WINDOW_INCREMENT, MAX_WINDOW_MULTIPLE, MIN_INTERSEND_MS,
    MIN_WINDOW_INCREMENT, MIN_WINDOW_MULTIPLE,
};
use protocols::whisker::{LeafId, SIGNAL_MAX};
use protocols::{Action, WhiskerTree};

/// Genetic population search over serialized whisker genomes.
///
/// Each genome is a [`WhiskerTree`]; its leaf actions serialize into a
/// point of a per-genome action [`ScenarioSpace`] (window multiple and
/// increment on linear axes, intersend on a log axis — the same shape
/// the hill-climb explores geometrically). One generation is:
///
/// 1. score every genome on a fresh common-random-number scenario batch
///    (claim-by-index parallel on an [`EvalPool`] of `cfg.threads`);
/// 2. carry the `elites` best genomes over unchanged (deterministic
///    ranking: fitness, then input index);
/// 3. refill the population with tournament winners mutated by
///    [`ScenarioSpace::mutate_with`], occasionally splitting a leaf
///    (structural mutation) while under the budget's leaf cap.
pub struct GeneticTrainer {
    cfg: OptimizerConfig,
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
    pub fn new(cfg: OptimizerConfig) -> Self {
        GeneticTrainer {
            cfg,
            population: 10,
            tournament: 3,
            elites: 2,
            strength: 0.15,
            split_prob: 0.2,
        }
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

    /// One bounded mutation: maybe split a leaf at its midpoint
    /// (structural), then perturb the serialized action point with
    /// `mutate_with`.
    fn mutate_genome(&self, parent: &WhiskerTree, rng: &mut SimRng) -> WhiskerTree {
        let mut child = parent.clone();
        if child.num_leaves() < self.cfg.max_leaves && rng.chance(self.split_prob) {
            let leaf = rng.uniform_u32(0, child.num_leaves() as u32 - 1) as usize;
            let dim = rng.uniform_u32(0, SIGNAL_MAX.len() as u32 - 1) as usize;
            child.split_leaf(LeafId(leaf), dim, None);
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

    /// Design a protocol named `name` for the training scenarios: a pure
    /// function of `(specs, cfg)`, bit-identical for any `cfg.threads`.
    pub fn train(&self, name: &str, specs: &[ScenarioSpec]) -> TrainedProtocol {
        assert!(
            !specs.is_empty(),
            "trainer needs at least one training spec"
        );
        let pool = EvalPool::new(self.cfg.threads);
        let rng = &mut SimRng::from_seed(self.cfg.seed);
        let eval = self.cfg.eval_config();
        let pop_n = self.population.max(2);
        let generations = self.cfg.rounds.max(1);

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
                self.cfg.draws_per_eval,
                self.cfg.seed ^ ((generation as u64 + 1) * 0x9E37),
            );
            let fitness = pool.evaluate_each(&scenarios, &population, &eval);

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
            if self.cfg.verbose {
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
                 tournament {}, elites {}, {} training spec(s), cfg={:?}",
                self.tournament,
                self.elites,
                specs.len(),
                self.cfg
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> OptimizerConfig {
        let mut cfg = OptimizerConfig::smoke();
        cfg.rounds = 2;
        cfg.sim_duration_s = 3.0;
        cfg.event_budget = 2_000_000;
        cfg.threads = 2;
        cfg
    }

    #[test]
    fn genome_serialization_round_trips() {
        let mut tree = WhiskerTree::default_tree();
        tree.split_leaf(LeafId(0), 0, None);
        tree.split_leaf(LeafId(1), 2, None);
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
        let cfg = quick_config();
        let trainer = GeneticTrainer::new(cfg.clone());
        let a = trainer.train("a", &specs);
        let b = trainer.train("b", &specs);
        assert_eq!(a.tree, b.tree, "same config, same genome");
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert!(a.score.is_finite());
        assert!(a.tree.num_leaves() <= cfg.max_leaves);
    }

    #[test]
    fn genetic_smoke_training_is_pinned() {
        // The smoke budget at seed 7 on the calibration network,
        // recorded before the trainer drew its pool and rng from the
        // config: one whisker, bit for bit. No benchmark workload runs
        // the genetic trainer, so this pin is what catches a change to it.
        let mut cfg = OptimizerConfig::smoke();
        cfg.seed = 7;
        let p = GeneticTrainer::new(cfg).train("pin", &[ScenarioSpec::calibration()]);
        let bits = |x: f64| x.to_bits();
        let leaves = p.tree.leaves();
        assert_eq!(leaves.len(), 1);
        let a = leaves[0].action;
        assert_eq!(
            [
                bits(a.window_multiple),
                bits(a.window_increment),
                bits(a.intersend_ms)
            ],
            [0x3fee0e44aa77f9ff, 0x402411382b781caf, 0x3fd0000000000000]
        );
        assert_eq!(p.tree, WhiskerTree::uniform(a));
        assert_eq!(bits(p.score), 0x403a9928a891af65);
    }
}
