//! The Remy protocol-design loop (§3.3 of the paper, following the
//! treatment of Winstein & Balakrishnan, *TCP ex Machina*, SIGCOMM 2013).
//!
//! Starting from a single whisker prescribing a default action, the
//! optimizer alternates two moves:
//!
//! 1. **Action improvement** — for each whisker (most-used first), hill
//!    climb the action's three coordinates against the mean objective on
//!    a fixed batch of sampled scenarios (common random numbers keep the
//!    comparison fair), with step sizes sweeping coarse → fine.
//! 2. **Structure refinement** — at the end of every round, split the
//!    most-used whisker at the mean observed memory point along its most
//!    informative dimension, letting the mapping specialize.
//!
//! Both moves read whisker usage from the evaluation's per-slot
//! [`UsageCounts`](protocols::UsageCounts), the one record of it: the use
//! counts order the whiskers and pick the one to split, and that
//! whisker's mean observation is the split point. The trees carry no
//! counts of their own.
//!
//! Fresh scenario draws between rounds keep the protocol from overfitting
//! one batch. [`Optimizer::co_optimize`] alternates optimization across
//! several tree slots for the sender-diversity experiment (§4.6).
//!
//! The budget is one [`OptimizerConfig`]. [`OptimizerConfig::standard`]
//! is the budget every committed asset was designed under; a trained
//! protocol's description records it, minus the knobs that never change
//! a result (`threads`, `verbose`), so a retrain reproduces the file.

use crate::eval::{draw_scenarios, EvalConfig, EvalPool, EvalResult};
use crate::scenario::{ConcreteScenario, ScenarioSpec};
use protocols::whisker::{LeafId, SIGNAL_MAX};
use protocols::{SignalMask, WhiskerTree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum utility gain for a candidate to be adopted.
const IMPROVEMENT_EPS: f64 = 1e-4;

/// Cost class of a training spec: heavy specs (very fast links, 100-way
/// multiplexing) get shorter simulations so training budgets stay sane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainCost {
    Normal,
    Heavy,
}

/// The [`Optimizer`]'s training budget and knobs, the one budget type.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Scenario draws per spec per evaluation batch.
    pub draws_per_eval: usize,
    /// Simulated seconds per scenario.
    pub sim_duration_s: f64,
    /// Outer rounds (each = improve all whiskers, then maybe split).
    pub rounds: usize,
    /// Stop splitting once the tree has this many whiskers.
    pub max_leaves: usize,
    /// Hill-climb step scales, coarse to fine.
    pub scales: Vec<f64>,
    /// Worker threads (0 = all cores). Never changes results.
    pub threads: usize,
    /// Root seed of the scenario draws.
    pub seed: u64,
    /// Per-simulation event cap.
    pub event_budget: u64,
    /// Per-slot signal-knockout masks (§3.4); empty = all signals.
    pub masks: Vec<SignalMask>,
    /// Print progress to stderr.
    pub verbose: bool,
}

impl Default for OptimizerConfig {
    /// The standard budget, [`OptimizerConfig::standard`]`(Normal)`.
    fn default() -> Self {
        OptimizerConfig::standard(TrainCost::Normal)
    }
}

impl OptimizerConfig {
    /// A small budget for unit tests and smoke runs.
    pub fn smoke() -> Self {
        OptimizerConfig {
            draws_per_eval: 3,
            sim_duration_s: 4.0,
            rounds: 2,
            max_leaves: 2,
            scales: vec![4.0],
            threads: 0,
            seed: 0xC0FFEE,
            event_budget: 3_000_000,
            masks: Vec::new(),
            verbose: false,
        }
    }

    /// The budget every committed protocol asset was designed under, and
    /// the one `learnability train` designs with. Heavy specs (very fast
    /// links, 100-way multiplexing) get shorter simulations; nothing else
    /// differs.
    ///
    /// The paper burned a CPU-year per protocol on an 80-core machine;
    /// this budget trains all 28 assets in under a minute and reproduces
    /// the *orderings* the study is about. Raising it means changing this
    /// function and retraining every asset once. Progress logs are off;
    /// `learnability train` turns them on for the jobs it runs.
    pub fn standard(cost: TrainCost) -> Self {
        OptimizerConfig {
            draws_per_eval: 4,
            sim_duration_s: match cost {
                TrainCost::Normal => 5.0,
                TrainCost::Heavy => 3.0,
            },
            rounds: 4,
            max_leaves: 4,
            scales: vec![4.0],
            threads: 0,
            seed: 0x51C0_2014,
            event_budget: 2_000_000,
            masks: Vec::new(),
            verbose: false,
        }
    }

    /// The budget as a trained protocol's description records it: every
    /// field that can move a result, so neither `threads` nor `verbose`.
    fn describe(&self) -> String {
        let OptimizerConfig {
            draws_per_eval,
            sim_duration_s,
            rounds,
            max_leaves,
            scales,
            threads: _,
            seed,
            event_budget,
            masks,
            verbose: _,
        } = self;
        format!(
            "{{ draws_per_eval: {draws_per_eval}, sim_duration_s: {sim_duration_s:?}, \
             rounds: {rounds}, max_leaves: {max_leaves}, scales: {scales:?}, seed: {seed:#x}, \
             event_budget: {event_budget}, masks: {masks:?} }}"
        )
    }

    /// The evaluation knobs every candidate evaluation runs with.
    pub(crate) fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            sim_duration_s: self.sim_duration_s,
            event_budget: self.event_budget,
            threads: self.threads,
            masks: self.masks.clone(),
        }
    }
}

/// A trained protocol, ready to save or execute.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainedProtocol {
    pub name: String,
    pub tree: WhiskerTree,
    /// Mean training utility at the end of optimization.
    pub score: f64,
    /// Human-readable description of the training model.
    pub description: String,
}

/// The protocol-design tool.
pub struct Optimizer {
    specs: Vec<ScenarioSpec>,
    cfg: OptimizerConfig,
    /// How many threads each candidate evaluation runs on.
    pool: EvalPool,
    /// See [`evaluations`](Self::evaluations).
    evaluations: AtomicU64,
}

impl Optimizer {
    pub fn new(specs: Vec<ScenarioSpec>, cfg: OptimizerConfig) -> Self {
        assert!(
            !specs.is_empty(),
            "optimizer needs at least one training spec"
        );
        Optimizer {
            specs,
            pool: EvalPool::new(cfg.threads),
            cfg,
            evaluations: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// The evaluation pool this optimizer feeds (sized from
    /// `OptimizerConfig::threads`).
    pub fn pool(&self) -> EvalPool {
        self.pool
    }

    /// Design a protocol from scratch for these training scenarios.
    pub fn optimize(&self, name: impl Into<String>) -> TrainedProtocol {
        let tree = WhiskerTree::default_tree();
        self.optimize_from(tree, name)
    }

    /// Continue optimizing an existing tree (warm start).
    pub fn optimize_from(&self, tree: WhiskerTree, name: impl Into<String>) -> TrainedProtocol {
        let mut trees = vec![tree];
        let score = self.optimize_slot(&mut trees, 0);
        TrainedProtocol {
            name: name.into(),
            tree: trees.pop().expect("one slot"),
            score,
            description: format!(
                "{} training spec(s), budget {}",
                self.specs.len(),
                self.cfg.describe()
            ),
        }
    }

    /// Co-optimize several protocols that will share networks (the
    /// sender-diversity experiment): alternately optimize each slot with
    /// the others frozen.
    pub fn co_optimize(
        &self,
        mut trees: Vec<WhiskerTree>,
        alternations: usize,
        names: &[&str],
    ) -> Vec<TrainedProtocol> {
        assert_eq!(trees.len(), names.len());
        let mut scores = vec![f64::NEG_INFINITY; trees.len()];
        for alt in 0..alternations {
            for (slot, score) in scores.iter_mut().enumerate() {
                if self.cfg.verbose {
                    eprintln!("[remy] co-optimize alternation {alt}, slot {slot}");
                }
                *score = self.optimize_slot(&mut trees, slot);
            }
        }
        trees
            .into_iter()
            .zip(names)
            .zip(scores)
            .map(|((tree, name), score)| TrainedProtocol {
                name: name.to_string(),
                tree,
                score,
                description: format!(
                    "co-optimized ({alternations} alternations), budget {}",
                    self.cfg.describe()
                ),
            })
            .collect()
    }

    /// Candidate evaluations this optimizer has simulated so far. A tree
    /// whose exact leaf set was already scored on a round's scenario
    /// batch takes that score instead of another simulation, so this
    /// counts distinct `(round, leaf set)` pairs.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// The core loop, improving `trees[slot]` in place. Returns the final
    /// training score.
    fn optimize_slot(&self, trees: &mut [WhiskerTree], slot: usize) -> f64 {
        let mut last_score = f64::NEG_INFINITY;
        for round in 0..self.cfg.rounds {
            // Fresh draws each round; candidates within the round share
            // them.
            let mut batch = RoundBatch {
                scenarios: draw_scenarios(
                    &self.specs,
                    self.cfg.draws_per_eval,
                    self.cfg.seed ^ ((round as u64 + 1) * 0x9E37),
                ),
                cfg: self.cfg.eval_config(),
                scored: HashMap::new(),
            };
            let base = batch.evaluate(self, trees);
            let (base_score, mut score) = (base.mean_utility, base.mean_utility);

            // Whiskers ordered by usage, busiest first.
            let mut order: Vec<(LeafId, u64)> = base.usage[slot]
                .iter()
                .map(|(leaf, uses, _)| (leaf, uses))
                .collect();
            order.sort_by_key(|&(_, uses)| std::cmp::Reverse(uses));

            for (leaf, uses) in order {
                if uses == 0 {
                    continue;
                }
                self.improve_leaf(trees, slot, leaf, &mut batch, &mut score);
            }

            if self.cfg.verbose {
                eprintln!(
                    "[remy] round {round}: score {base_score:.4} -> {score:.4}, {} leaves, \
                     {} evaluations simulated",
                    trees[slot].num_leaves(),
                    self.evaluations()
                );
            }
            last_score = score;

            // Structure refinement at the end of every improvement round
            // (Remy's improve-then-split cycle): split the busiest whisker
            // so the mapping can specialize, until the leaf budget is
            // spent. Fresh draws make round-over-round score deltas noisy,
            // so gating the split on "no improvement" would starve the
            // tree of structure.
            if trees[slot].num_leaves() < self.cfg.max_leaves && round + 1 < self.cfg.rounds {
                // Usage on the final actions of this round: the base tree
                // or the last candidate adopted, both scored already.
                let usage = &batch.evaluate(self, trees).usage[slot];
                let Some(target) = usage.most_used() else {
                    continue;
                };
                let dim = split_dimension(&trees[slot], target);
                let at = usage.mean_observation(target).map(|mean| mean[dim]);
                if !trees[slot].split_leaf(target, dim, at) {
                    continue;
                }
                if self.cfg.verbose {
                    eprintln!(
                        "[remy] split leaf {:?} on dim {dim}; now {} leaves",
                        target,
                        trees[slot].num_leaves()
                    );
                }
            }
        }
        last_score
    }

    /// Greedy coordinate hill-climb of one whisker's action. Returns true
    /// if the action changed.
    fn improve_leaf(
        &self,
        trees: &mut [WhiskerTree],
        slot: usize,
        leaf: LeafId,
        batch: &mut RoundBatch,
        score: &mut f64,
    ) -> bool {
        let mut changed = false;
        for &scale in &self.cfg.scales {
            loop {
                let current = match trees[slot].leaf_by_id(leaf) {
                    Some(w) => w.action,
                    None => return changed,
                };
                let mut best = *score;
                let mut best_action = None;
                for cand in current.neighbors(scale) {
                    trees[slot].set_leaf_action(leaf, cand);
                    let utility = batch.evaluate(self, trees).mean_utility;
                    if utility > best + IMPROVEMENT_EPS {
                        best = utility;
                        best_action = Some(cand);
                    }
                }
                match best_action {
                    Some(a) => {
                        trees[slot].set_leaf_action(leaf, a);
                        *score = best;
                        changed = true;
                    }
                    None => {
                        trees[slot].set_leaf_action(leaf, current);
                        break;
                    }
                }
            }
        }
        changed
    }
}

/// One round's scenario batch and every evaluation already made on it.
///
/// A simulation is a pure function of the batch and the leaf set, so a
/// tree whose exact leaf set was scored on this batch — the hill climb
/// stepping back onto the action it just left, or the round's final tree
/// re-evaluated for the split — takes the stored result, bit for bit the
/// one a fresh simulation would return.
struct RoundBatch {
    scenarios: Vec<ConcreteScenario>,
    cfg: EvalConfig,
    /// Results by [`leaf_set`].
    scored: HashMap<Vec<u64>, EvalResult>,
}

impl RoundBatch {
    fn evaluate(&mut self, opt: &Optimizer, trees: &[WhiskerTree]) -> &EvalResult {
        self.scored.entry(leaf_set(trees)).or_insert_with(|| {
            opt.evaluations.fetch_add(1, Ordering::Relaxed);
            opt.pool.evaluate(&self.scenarios, trees, &self.cfg)
        })
    }
}

/// The exact leaf set of every slot: per slot its leaf count, then each
/// whisker's domain bounds and action as bit patterns.
fn leaf_set(trees: &[WhiskerTree]) -> Vec<u64> {
    let mut key = Vec::new();
    for tree in trees {
        let leaves = tree.leaves();
        key.push(leaves.len() as u64);
        for w in leaves {
            let a = w.action;
            let bounds = w.domain.lower.iter().chain(&w.domain.upper);
            let action = [a.window_multiple, a.window_increment, a.intersend_ms];
            key.extend(bounds.chain(&action).map(|x| x.to_bits()));
        }
    }
    key
}

/// Choose the dimension to split a whisker along: the enabled signal with
/// the widest domain relative to its full scale (the memory axis where the
/// whisker is least specialized).
fn split_dimension(tree: &WhiskerTree, leaf: LeafId) -> usize {
    let Some(w) = tree.leaf_by_id(leaf) else {
        return 0;
    };
    let mut best_dim = 0;
    let mut best_width = -1.0;
    for (d, &max) in SIGNAL_MAX.iter().enumerate() {
        let rel = w.domain.width(d) / max;
        if rel > best_width {
            best_width = rel;
            best_dim = d;
        }
    }
    best_dim
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::Action;

    #[test]
    fn smoke_optimization_improves_over_bad_start() {
        // Start from a deliberately poor action; even a tiny budget must
        // find something better on the calibration network.
        let specs = vec![ScenarioSpec::calibration()];
        let mut cfg = OptimizerConfig::smoke();
        cfg.seed = 1;
        let opt = Optimizer::new(specs.clone(), cfg.clone());

        let bad = WhiskerTree::uniform(Action::new(1.0, 0.0, 500.0)); // ~3 pkt/s pacing
        let trained = opt.optimize_from(bad.clone(), "smoke");

        // Score the two trees on identical fresh scenarios.
        let scenarios = draw_scenarios(&specs, 4, 999);
        let ecfg = EvalConfig {
            sim_duration_s: 4.0,
            event_budget: 3_000_000,
            ..Default::default()
        };
        let score = |tree: &WhiskerTree| {
            EvalPool::new(0)
                .evaluate(&scenarios, std::slice::from_ref(tree), &ecfg)
                .mean_utility
        };
        let (u_bad, u_trained) = (score(&bad), score(&trained.tree));
        assert!(
            u_trained > u_bad,
            "training must help: bad={u_bad:.3} trained={u_trained:.3}"
        );
    }

    #[test]
    fn optimization_is_deterministic() {
        let specs = vec![ScenarioSpec::calibration()];
        let mut cfg = OptimizerConfig::smoke();
        cfg.threads = 2;
        let a = Optimizer::new(specs.clone(), cfg.clone()).optimize("a");
        let b = Optimizer::new(specs, cfg).optimize("b");
        assert_eq!(a.tree, b.tree, "same seed and budget, same protocol");
        assert_eq!(a.score, b.score);
    }

    #[test]
    fn threads_knob_is_honored_and_equivalent() {
        // Regression for the dead-knob bug: `OptimizerConfig::threads`
        // must size the optimizer's pool, and training with
        // threads: 1 vs threads: N must produce bit-identical protocols.
        let specs = vec![ScenarioSpec::calibration()];
        let mut cfg = OptimizerConfig::smoke();
        cfg.seed = 5;
        cfg.threads = 1;
        let serial_opt = Optimizer::new(specs.clone(), cfg.clone());
        assert_eq!(serial_opt.pool().size(), 1);
        let serial = serial_opt.optimize("serial");

        cfg.threads = 4;
        let parallel_opt = Optimizer::new(specs, cfg);
        assert_eq!(parallel_opt.pool().size(), 4);
        let parallel = parallel_opt.optimize("parallel");

        assert_eq!(
            serial.tree, parallel.tree,
            "thread count changed the protocol"
        );
        assert_eq!(serial.score, parallel.score);
    }

    #[test]
    fn threads_and_progress_logs_leave_the_saved_asset_alone() {
        // An asset is a build product: neither knob may reach its bytes,
        // description included.
        let save = |threads, verbose| {
            let cfg = OptimizerConfig {
                threads,
                verbose,
                ..OptimizerConfig::smoke()
            };
            let p = Optimizer::new(vec![ScenarioSpec::calibration()], cfg).optimize("same");
            crate::serialize::to_json(&p)
        };
        assert_eq!(save(1, false), save(2, true));
    }

    #[test]
    fn a_leaf_set_scored_on_the_batch_is_not_simulated_again() {
        let specs = vec![ScenarioSpec::calibration()];
        let mut cfg = OptimizerConfig::smoke();
        cfg.threads = 1;
        let opt = Optimizer::new(specs.clone(), cfg);
        let mut batch = RoundBatch {
            scenarios: draw_scenarios(&specs, 2, 3),
            cfg: opt.cfg.eval_config(),
            scored: HashMap::new(),
        };
        let mut trees = vec![WhiskerTree::default_tree()];
        let start = Action::default();
        let first = batch.evaluate(&opt, &trees).mean_utility;
        // A climb step out and back onto the action it left.
        trees[0].set_leaf_action(LeafId(0), start.neighbors(4.0)[0]);
        batch.evaluate(&opt, &trees);
        trees[0].set_leaf_action(LeafId(0), start);
        let again = batch.evaluate(&opt, &trees).mean_utility;
        assert_eq!(opt.evaluations(), 2, "the step back was simulated");
        let fresh = opt
            .pool
            .evaluate(&batch.scenarios, &trees, &batch.cfg)
            .mean_utility;
        assert_eq!(again.to_bits(), first.to_bits());
        assert_eq!(again.to_bits(), fresh.to_bits());
    }

    #[test]
    fn leaf_sets_tell_slots_apart() {
        let mut two = WhiskerTree::default_tree();
        two.split_leaf(LeafId(0), 0, None);
        let one = WhiskerTree::default_tree();
        assert_ne!(
            leaf_set(&[two.clone(), one.clone()]),
            leaf_set(&[one.clone(), two.clone()])
        );
        assert_eq!(leaf_set(&[one.clone(), two.clone()]), leaf_set(&[one, two]));
    }

    #[test]
    fn split_dimension_prefers_widest_axis() {
        let mut tree = WhiskerTree::default_tree();
        // Shrink dim 0 by splitting on it; the next split should prefer
        // another (still full-width) axis.
        tree.split_leaf(LeafId(0), 0, None);
        let d = split_dimension(&tree, LeafId(0));
        assert_ne!(d, 0, "dim 0 is now half-width, pick a full-width axis");
    }

    #[test]
    fn co_optimize_returns_one_protocol_per_slot() {
        let specs = vec![ScenarioSpec::diversity()];
        let mut cfg = OptimizerConfig::smoke();
        cfg.rounds = 1;
        cfg.draws_per_eval = 2;
        let opt = Optimizer::new(specs, cfg);
        let out = opt.co_optimize(
            vec![WhiskerTree::default_tree(), WhiskerTree::default_tree()],
            1,
            &["tpt", "del"],
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].name, "tpt");
        assert_eq!(out[1].name, "del");
        assert!(out.iter().all(|p| p.score.is_finite()));
    }
}
