//! Parallel evaluation of candidate protocols on training scenarios.
//!
//! The optimizer's inner loop: simulate a whisker tree (or several, for
//! co-optimization) on a batch of sampled scenarios and average the
//! objective. Candidate comparisons reuse the *same* scenario draws —
//! common random numbers — so action improvements are judged on identical
//! workloads.
//!
//! # Performance architecture
//!
//! This is the hottest code in the repo: `improve_leaf` evaluates every
//! candidate action × scale × hill-climb step on the full scenario batch,
//! thousands of evaluations per training run. Three design decisions keep
//! the constant factors down:
//!
//! 1. **Compile once, share everywhere.** Each call compiles the whisker
//!    trees into [`CompiledTree`] arenas behind `Arc`s; each scenario
//!    wraps them in one Tao [`Scheme`] per slot, so every sender in every
//!    scenario walks the same compilation and accumulates usage in its
//!    own flat [`UsageCounts`] buffer (a `TaoCc<UsageCounts>`: this is the
//!    one place senders record usage). The merged buffers are the
//!    result's usage as they stand: no tree is cloned, per scenario or
//!    per evaluation, and no recursive boxed-node walk runs on the
//!    per-ack path.
//! 2. **One work-stealing map.** [`EvalPool`] is only a thread count;
//!    each evaluation runs its batch through [`try_map_indexed`], the
//!    scoped claim-by-atomic-index map the figure sweeps run on too.
//!    Skewed scenario costs never idle a core, workers borrow the batch
//!    instead of copying it, and at one thread the map runs inline and
//!    spawns nothing. At more, each evaluation spawns and joins its
//!    helpers (tens of µs against the milliseconds a scenario costs).
//! 3. **Deterministic merge.** Per-scenario results land in index-order
//!    slots and are folded on the calling thread in input order, so the
//!    result is bit-identical for any worker count — `threads: 1` and
//!    `threads: N` produce the same utilities *and* the same usage counts.
//!    A panicking scenario panics the caller with its message.

use crate::objective::Objective;
use crate::scenario::{ConcreteScenario, Role, ScenarioSpec};
use netsim::prelude::*;
use protocols::{CompiledTree, Scheme, SignalMask, TaoCc, UsageCounts, WhiskerTree};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Evaluation knobs.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Simulated seconds per scenario.
    pub sim_duration_s: f64,
    /// Hard cap on events per simulation (protects against degenerate
    /// candidate actions with near-zero pacing).
    pub event_budget: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Per-slot signal-knockout masks (§3.4). Empty = all signals enabled
    /// for every slot.
    pub masks: Vec<SignalMask>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            sim_duration_s: 12.0,
            event_budget: 40_000_000,
            threads: 0,
            masks: Vec::new(),
        }
    }
}

impl EvalConfig {
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// Result of evaluating trees on a scenario batch.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Mean (over scenarios) of the mean per-Tao-flow utility.
    pub mean_utility: f64,
    /// Per-scenario utilities, in input order.
    pub per_scenario: Vec<f64>,
    /// Per-slot whisker usage merged over all runs, index-aligned with
    /// each slot's in-order leaves.
    pub usage: Vec<UsageCounts>,
}

/// Draw `draws` concrete scenarios from each spec, deterministically in
/// `seed`.
pub fn draw_scenarios(specs: &[ScenarioSpec], draws: usize, seed: u64) -> Vec<ConcreteScenario> {
    let mut out = Vec::with_capacity(specs.len() * draws);
    for (si, spec) in specs.iter().enumerate() {
        for d in 0..draws {
            out.push(spec.sample(seed ^ ((si as u64) << 32) ^ d as u64));
        }
    }
    out
}

/// Simulate one scenario against compiled trees; returns the mean utility
/// across Tao flows and the flat per-slot whisker-usage counters.
pub fn run_scenario_compiled(
    scenario: &ConcreteScenario,
    trees: &[Arc<CompiledTree>],
    cfg: &EvalConfig,
) -> (f64, Vec<UsageCounts>) {
    let tao: Vec<Scheme> = trees
        .iter()
        .enumerate()
        .map(|(slot, tree)| Scheme::Tao {
            tree: tree.clone(),
            mask: cfg.masks.get(slot).copied().unwrap_or_default(),
            label: format!("tao-slot{slot}").into(),
        })
        .collect();
    let mut sim = Simulation::new(&scenario.net, scenario.protocols(&tao), scenario.seed);
    sim.set_event_budget(cfg.event_budget);
    let outcome = sim.run(SimDuration::from_secs_f64(cfg.sim_duration_s));

    // Objective: mean utility of the Tao-role flows that had offered load
    // (AIMD cross-traffic is environment, not objective).
    let mut total = 0.0;
    let mut counted = 0usize;
    for (i, role) in scenario.roles.iter().enumerate() {
        if matches!(role, Role::Tao { .. }) {
            let obj = Objective::new(scenario.deltas[i]);
            if let Some(u) = obj.flow_utility(&outcome.flows[i]) {
                total += u;
                counted += 1;
            }
        }
    }
    let utility = if counted == 0 {
        // No Tao flow ever turned on in this draw: neutral evidence.
        0.0
    } else {
        total / counted as f64
    };

    // Pull whisker-usage counters back out of the Tao executors.
    let mut usage: Vec<UsageCounts> = trees
        .iter()
        .map(|t| UsageCounts::new(t.num_leaves()))
        .collect();
    for (i, cc) in sim.into_protocols().into_iter().enumerate() {
        if let Role::Tao { slot } = scenario.roles[i] {
            let tao = cc
                .as_any()
                .and_then(|any| any.downcast_ref::<TaoCc<UsageCounts>>());
            usage[slot].merge(tao.expect("a Tao role records usage").usage());
        }
    }
    (utility, usage)
}

/// Evaluation workers: a thread count, nothing else. Each
/// [`evaluate`](Self::evaluate) runs its batch on scoped threads through
/// [`try_map_indexed`] (the calling thread participates, so a pool of
/// one runs inline and spawns nothing) and folds the results in input
/// order, so the result is bit-identical for any pool size.
#[derive(Clone, Copy, Debug)]
pub struct EvalPool {
    size: usize,
}

impl EvalPool {
    /// Pool sized for `threads` concurrent evaluators (0 = all cores).
    pub fn new(threads: usize) -> Self {
        EvalPool {
            size: resolve_threads(threads),
        }
    }

    /// Concurrent evaluators (the calling thread included).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Evaluate `trees` (co-optimized slots) on a scenario batch: compile
    /// the trees once, simulate the scenarios on at most
    /// `min(cfg.effective_threads(), size)` threads, and fold the results
    /// in input order. A scenario that panics panics the caller with its
    /// message once the batch has drained.
    pub fn evaluate(
        &self,
        scenarios: &[ConcreteScenario],
        trees: &[WhiskerTree],
        cfg: &EvalConfig,
    ) -> EvalResult {
        assert!(!scenarios.is_empty(), "empty scenario batch");
        let compiled: Vec<Arc<CompiledTree>> =
            trees.iter().map(CompiledTree::compile_shared).collect();
        let threads = cfg.effective_threads().min(self.size);
        let runs = try_map_indexed(scenarios.len(), threads, |i| {
            run_scenario_compiled(&scenarios[i], &compiled, cfg)
        });

        let mut per_scenario = Vec::with_capacity(scenarios.len());
        let mut usage: Vec<UsageCounts> = compiled
            .iter()
            .map(|t| UsageCounts::new(t.num_leaves()))
            .collect();
        for run in runs {
            let (u, counts) =
                run.unwrap_or_else(|msg| panic!("scenario evaluation panicked: {msg}"));
            per_scenario.push(u);
            for (slot, c) in counts.iter().enumerate() {
                usage[slot].merge(c);
            }
        }

        let mean_utility = per_scenario.iter().sum::<f64>() / per_scenario.len() as f64;
        EvalResult {
            mean_utility,
            per_scenario,
            usage,
        }
    }
}

/// `threads`, with 0 meaning every available core.
fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Work-stealing indexed map, the one parallel primitive of the
/// workspace (training batches here, figure sweeps in
/// `lcc_core::runner::execute_sweep`): `threads` scoped threads (0 = all
/// cores; the calling thread participates, so `threads == 1` is pure
/// serial execution) claim indices `0..n` from an atomic cursor, and
/// results are returned **in index order** regardless of which worker
/// computed what. Skewed per-index costs never idle a core, and the
/// output is identical for any thread count.
///
/// Each `f(i)` runs under `catch_unwind`, so one panicking index yields
/// `Err(message)` in its slot while every other index completes
/// normally. The closure's result is computed *before* the slot lock is
/// taken — a panic can never poison the mutex, so the merge always
/// finishes.
pub fn try_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_threads(threads).min(n.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_message);
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index claimed")
        })
        .collect()
}

/// Extract a human-readable message from a panic payload (`&str` and
/// `String` payloads cover every `panic!`/`assert!` in the workspace).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::Action;

    /// Evaluate on a pool of all cores; `cfg.threads` caps it.
    fn evaluate(
        scenarios: &[ConcreteScenario],
        trees: &[WhiskerTree],
        cfg: &EvalConfig,
    ) -> EvalResult {
        EvalPool::new(0).evaluate(scenarios, trees, cfg)
    }

    fn quick_cfg() -> EvalConfig {
        EvalConfig {
            sim_duration_s: 4.0,
            event_budget: 2_000_000,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn draws_are_deterministic_and_distinct() {
        let specs = [ScenarioSpec::link_speed_range(1.0, 100.0)];
        let a = draw_scenarios(&specs, 5, 9);
        let b = draw_scenarios(&specs, 5, 9);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.net, y.net);
            assert_eq!(x.seed, y.seed);
        }
        let rates: std::collections::HashSet<u64> = a
            .iter()
            .map(|s| s.net.links[0].rate_bps.to_bits())
            .collect();
        assert!(rates.len() > 1, "draws explore the range");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let specs = [ScenarioSpec::calibration()];
        let scenarios = draw_scenarios(&specs, 3, 11);
        let tree = WhiskerTree::default_tree();
        let cfg = quick_cfg();
        let r1 = evaluate(&scenarios, std::slice::from_ref(&tree), &cfg);
        let r2 = evaluate(&scenarios, std::slice::from_ref(&tree), &cfg);
        assert_eq!(r1.per_scenario, r2.per_scenario);
        assert_eq!(r1.mean_utility, r2.mean_utility);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let specs = [ScenarioSpec::calibration()];
        let scenarios = draw_scenarios(&specs, 4, 3);
        let tree = WhiskerTree::default_tree();
        let serial = evaluate(
            &scenarios,
            std::slice::from_ref(&tree),
            &EvalConfig {
                threads: 1,
                ..quick_cfg()
            },
        );
        let parallel = evaluate(
            &scenarios,
            std::slice::from_ref(&tree),
            &EvalConfig {
                threads: 4,
                ..quick_cfg()
            },
        );
        assert_eq!(serial.per_scenario, parallel.per_scenario);
        assert_eq!(serial.usage, parallel.usage);
    }

    #[test]
    fn dedicated_pool_matches_global_pool() {
        // The threads knob flows into a per-optimizer pool; a pool of any
        // size must agree bit-for-bit with the all-cores default.
        let specs = [ScenarioSpec::calibration()];
        let scenarios = draw_scenarios(&specs, 3, 17);
        let tree = WhiskerTree::default_tree();
        let cfg = quick_cfg();
        let shared = evaluate(&scenarios, std::slice::from_ref(&tree), &cfg);
        for pool_threads in [1usize, 2, 8] {
            let pool = EvalPool::new(pool_threads);
            assert_eq!(pool.size(), pool_threads, "pool honors its sizing");
            let r = pool.evaluate(&scenarios, std::slice::from_ref(&tree), &cfg);
            assert_eq!(
                r.per_scenario, shared.per_scenario,
                "pool size {pool_threads}"
            );
            assert_eq!(r.usage, shared.usage);
        }
    }

    #[test]
    fn a_panicking_scenario_panics_the_caller_with_its_message() {
        // A network the validator rejects panics inside Simulation::new;
        // the pool must finish the batch and re-raise that message on
        // the calling thread, inline or with a helper.
        let mut scenarios = draw_scenarios(&[ScenarioSpec::calibration()], 3, 7);
        scenarios[1].net.flows[0].route = vec![];
        let tree = WhiskerTree::default_tree();
        for threads in [1usize, 2] {
            let pool = EvalPool::new(threads);
            let payload = std::panic::catch_unwind(|| {
                pool.evaluate(&scenarios, std::slice::from_ref(&tree), &quick_cfg())
            })
            .expect_err("the bad scenario panics the evaluation");
            let msg = panic_message(payload);
            assert!(
                msg.starts_with("scenario evaluation panicked: ")
                    && msg.contains("invalid network config"),
                "threads={threads}: {msg}"
            );
        }
    }

    #[test]
    fn usage_counts_accumulate() {
        let specs = [ScenarioSpec::calibration()];
        let scenarios = draw_scenarios(&specs, 2, 5);
        let tree = WhiskerTree::default_tree();
        let r = evaluate(&scenarios, std::slice::from_ref(&tree), &quick_cfg());
        assert!(
            r.usage[0].total_uses() > 0,
            "acks must hit the tree during evaluation"
        );
    }

    #[test]
    fn tao_flows_that_never_turn_on_report_zero_usage() {
        // Every flow's first ON comes after the run ends, so no Tao sender
        // records a use.
        let mut scenarios = draw_scenarios(&[ScenarioSpec::calibration()], 2, 5);
        for s in &mut scenarios {
            for f in &mut s.net.flows {
                f.workload = WorkloadSpec::Schedule(vec![(1e3, true)]);
            }
        }
        let mut tree = WhiskerTree::default_tree();
        tree.split_leaf(protocols::LeafId(0), 3, None);
        let zero = UsageCounts::new(tree.num_leaves());
        let compiled = [CompiledTree::compile_shared(&tree)];
        let (_, usage) = run_scenario_compiled(&scenarios[0], &compiled, &quick_cfg());
        assert_eq!(usage, std::slice::from_ref(&zero));
        let r = evaluate(&scenarios, std::slice::from_ref(&tree), &quick_cfg());
        assert_eq!(r.usage, [zero]);
    }

    #[test]
    fn better_action_scores_higher_on_same_draws() {
        // On the calibration network, a sane growth action must beat a
        // pathologically conservative one (tiny fixed window, huge pacing).
        let specs = [ScenarioSpec::calibration()];
        let scenarios = draw_scenarios(&specs, 4, 21);
        let cfg = quick_cfg();
        let sane = WhiskerTree::uniform(Action::new(1.0, 1.0, 0.25));
        let starved = WhiskerTree::uniform(Action::new(0.0, 0.0, 900.0));
        let r_sane = evaluate(&scenarios, &[sane], &cfg);
        let r_starved = evaluate(&scenarios, &[starved], &cfg);
        assert!(
            r_sane.mean_utility > r_starved.mean_utility,
            "sane={} starved={}",
            r_sane.mean_utility,
            r_starved.mean_utility
        );
    }

    #[test]
    fn aimd_roles_run_but_do_not_score() {
        let specs = [ScenarioSpec::tcp_aware()];
        let scenarios = draw_scenarios(&specs, 6, 2);
        // find a draw where the second sender is AIMD
        let mixed = scenarios
            .iter()
            .find(|s| s.roles.contains(&Role::Aimd))
            .expect("p=0.5 over 6 draws");
        let tree = WhiskerTree::default_tree();
        let compiled = [CompiledTree::compile_shared(&tree)];
        let (u, usage) = run_scenario_compiled(mixed, &compiled, &quick_cfg());
        assert!(u.is_finite());
        assert!(usage[0].total_uses() > 0, "the Tao sender used its tree");
    }
}
