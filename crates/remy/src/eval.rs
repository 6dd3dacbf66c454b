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
//!    trees into [`CompiledTree`] arenas behind `Arc`s; every sender in
//!    every scenario walks the same compilation and accumulates usage in
//!    its own flat [`UsageCounts`] buffer. No per-scenario tree clones,
//!    no recursive boxed-node walks on the per-ack path.
//! 2. **Persistent pool, work-stealing queue.** [`EvalPool`] spawns its
//!    workers once (per [`Optimizer`](crate::Optimizer) run, or once per
//!    process for the shared [`EvalPool::global`] pool) and feeds them
//!    through a channel; scenarios are claimed with an atomic index, so
//!    skewed scenario costs never idle a core and no threads are spawned
//!    or joined per candidate evaluation.
//! 3. **Deterministic merge.** Per-scenario results land in index-order
//!    slots and are folded on the calling thread in input order, so the
//!    result is bit-identical for any worker count — `threads: 1` and
//!    `threads: N` produce the same utilities *and* the same usage trees.

use crate::objective::Objective;
use crate::scenario::{ConcreteScenario, Role, ScenarioSpec};
use netsim::prelude::*;
use netsim::transport::CongestionControl;
use protocols::{CompiledTree, NewReno, SignalMask, TaoCc, UsageCounts, WhiskerTree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

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
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Result of evaluating trees on a scenario batch.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Mean (over scenarios) of the mean per-Tao-flow utility.
    pub mean_utility: f64,
    /// Per-scenario utilities, in input order.
    pub per_scenario: Vec<f64>,
    /// Trees carrying merged whisker-usage counts from all runs.
    pub usage: Vec<WhiskerTree>,
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

/// Instantiate the protocol stack for a scenario over pre-compiled trees.
pub fn build_protocols(
    scenario: &ConcreteScenario,
    trees: &[Arc<CompiledTree>],
    masks: &[SignalMask],
) -> Vec<Box<dyn CongestionControl>> {
    scenario
        .roles
        .iter()
        .map(|role| -> Box<dyn CongestionControl> {
            match *role {
                Role::Tao { slot } => {
                    let mask = masks.get(slot).copied().unwrap_or_default();
                    Box::new(TaoCc::from_compiled(
                        trees[slot].clone(),
                        mask,
                        format!("tao-slot{slot}"),
                    ))
                }
                Role::Aimd => Box::new(NewReno::new()),
            }
        })
        .collect()
}

/// Simulate one scenario against compiled trees; returns the mean utility
/// across Tao flows and the flat per-slot whisker-usage counters.
pub fn run_scenario_compiled(
    scenario: &ConcreteScenario,
    trees: &[Arc<CompiledTree>],
    cfg: &EvalConfig,
) -> (f64, Vec<UsageCounts>) {
    let protocols = build_protocols(scenario, trees, &cfg.masks);
    let mut sim = Simulation::new(&scenario.net, protocols, scenario.seed);
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
            if let Some(any) = cc.as_any() {
                if let Some(tao) = any.downcast_ref::<TaoCc>() {
                    usage[slot].merge(tao.usage());
                }
            }
        }
    }
    (utility, usage)
}

/// Simulate one scenario from editing-form trees (compiles them first);
/// returns the mean Tao utility and usage-annotated tree clones. Prefer
/// [`run_scenario_compiled`] in loops — this convenience recompiles per
/// call.
pub fn run_scenario(
    scenario: &ConcreteScenario,
    trees: &[WhiskerTree],
    cfg: &EvalConfig,
) -> (f64, Vec<WhiskerTree>) {
    let compiled: Vec<Arc<CompiledTree>> = trees.iter().map(CompiledTree::compile_shared).collect();
    let (utility, counts) = run_scenario_compiled(scenario, &compiled, cfg);
    let usage = trees
        .iter()
        .zip(&counts)
        .map(|(t, c)| {
            let mut annotated = t.clone();
            annotated.reset_counts();
            annotated.absorb_usage(c);
            annotated
        })
        .collect();
    (utility, usage)
}

/// Utility and per-slot usage counters from one scenario run.
type ScenarioOutput = (f64, Vec<UsageCounts>);

/// One evaluation batch shared with pool workers.
struct JobState {
    scenarios: Arc<[ConcreteScenario]>,
    trees: Vec<Arc<CompiledTree>>,
    cfg: EvalConfig,
    /// Work-stealing cursor: next unclaimed scenario index.
    next: AtomicUsize,
    /// Per-scenario result slots (index-aligned with `scenarios`).
    results: Vec<Mutex<Option<ScenarioOutput>>>,
    /// Count of scenarios still running, with completion signaling.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload from any thread's scenario run; re-raised on
    /// the calling thread so a crash can't deadlock the wait below.
    panic: Mutex<Option<String>>,
}

impl JobState {
    /// Claim-and-run loop shared by workers and the calling thread.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.scenarios.len() {
                return;
            }
            // A panicking scenario must still count down `remaining`
            // (and keep the worker alive), or `evaluate` would wait on
            // the condvar forever and the pool would leak capacity.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_scenario_compiled(&self.scenarios[i], &self.trees, &self.cfg)
            }));
            match outcome {
                Ok(res) => {
                    *self.results[i].lock().expect("result slot poisoned") = Some(res);
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "scenario evaluation panicked".to_string());
                    self.panic
                        .lock()
                        .expect("panic slot poisoned")
                        .get_or_insert(msg);
                }
            }
            let mut rem = self.remaining.lock().expect("remaining poisoned");
            *rem -= 1;
            if *rem == 0 {
                self.done.notify_all();
            }
        }
    }
}

type Job = Arc<JobState>;

/// Persistent evaluation worker pool.
///
/// Workers are spawned once and fed jobs through a channel; each job's
/// scenarios are claimed via an atomic cursor (work stealing), so skewed
/// scenario costs don't idle threads and nothing is spawned per
/// evaluation. The calling thread always participates, so a pool sized
/// `threads` uses `threads - 1` spawned workers, and `threads == 1` is
/// pure serial execution.
pub struct EvalPool {
    injector: Mutex<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl EvalPool {
    /// Pool sized for `threads` concurrent evaluators (0 = all cores).
    pub fn new(threads: usize) -> Self {
        let size = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..size.saturating_sub(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("remy-eval-{i}"))
                    .spawn(move || Self::worker_loop(rx))
                    .expect("spawn eval worker")
            })
            .collect();
        EvalPool {
            injector: Mutex::new(tx),
            handles,
            size,
        }
    }

    fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>) {
        loop {
            let job = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => return,
            };
            match job {
                Ok(job) => job.work(),
                Err(_) => return, // pool dropped
            }
        }
    }

    /// Total evaluator slots (spawned workers + the calling thread).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The process-wide shared pool (sized to all cores), used by the free
    /// [`evaluate_scenarios`] function.
    pub fn global() -> &'static EvalPool {
        static POOL: OnceLock<EvalPool> = OnceLock::new();
        POOL.get_or_init(|| EvalPool::new(0))
    }

    /// Evaluate `trees` on a borrowed scenario batch. Convenience over
    /// [`evaluate_shared`](Self::evaluate_shared): when helpers kick in,
    /// the batch is copied once into an `Arc`. Callers that reuse one
    /// batch across many evaluations (the optimizer's hill climb) should
    /// hold the `Arc` themselves and call `evaluate_shared`.
    pub fn evaluate(
        &self,
        scenarios: &[ConcreteScenario],
        trees: &[WhiskerTree],
        cfg: &EvalConfig,
    ) -> EvalResult {
        assert!(!scenarios.is_empty(), "empty scenario batch");
        if self.helpers_for(scenarios.len(), cfg) == 0 {
            return self.evaluate_inner(scenarios, None, trees, cfg);
        }
        let shared: Arc<[ConcreteScenario]> = scenarios.to_vec().into();
        self.evaluate_shared(&shared, trees, cfg)
    }

    /// Evaluate each tree *independently* (as a single-slot population
    /// member, not co-optimized slots) on one shared common-random-number
    /// batch; returns mean utilities in input order. The population
    /// trainer's fitness pass: each genome's scenarios are claimed by
    /// atomic index and folded deterministically, so the fitness vector
    /// is bit-identical for any thread count.
    pub fn evaluate_each(
        &self,
        scenarios: &Arc<[ConcreteScenario]>,
        trees: &[WhiskerTree],
        cfg: &EvalConfig,
    ) -> Vec<f64> {
        trees
            .iter()
            .map(|t| {
                self.evaluate_shared(scenarios, std::slice::from_ref(t), cfg)
                    .mean_utility
            })
            .collect()
    }

    /// Evaluate `trees` on a shared scenario batch without copying it. At
    /// most `cfg.effective_threads()` threads touch the batch regardless
    /// of pool size; results are bit-identical for any thread count.
    pub fn evaluate_shared(
        &self,
        scenarios: &Arc<[ConcreteScenario]>,
        trees: &[WhiskerTree],
        cfg: &EvalConfig,
    ) -> EvalResult {
        assert!(!scenarios.is_empty(), "empty scenario batch");
        self.evaluate_inner(scenarios, Some(scenarios), trees, cfg)
    }

    /// Helpers beyond the calling thread: capped by the config's thread
    /// knob, the pool size, and the batch length.
    fn helpers_for(&self, batch_len: usize, cfg: &EvalConfig) -> usize {
        cfg.effective_threads()
            .min(self.size)
            .min(batch_len)
            .saturating_sub(1)
    }

    fn evaluate_inner(
        &self,
        scenarios: &[ConcreteScenario],
        shared: Option<&Arc<[ConcreteScenario]>>,
        trees: &[WhiskerTree],
        cfg: &EvalConfig,
    ) -> EvalResult {
        let compiled: Vec<Arc<CompiledTree>> =
            trees.iter().map(CompiledTree::compile_shared).collect();
        let helpers = self.helpers_for(scenarios.len(), cfg);

        let (per_scenario, slot_usage) = if helpers == 0 {
            // Serial fast path: no job allocation, no scenario clones.
            let mut per_scenario = Vec::with_capacity(scenarios.len());
            let mut slot_usage: Vec<UsageCounts> = compiled
                .iter()
                .map(|t| UsageCounts::new(t.num_leaves()))
                .collect();
            for sc in scenarios {
                let (u, counts) = run_scenario_compiled(sc, &compiled, cfg);
                per_scenario.push(u);
                for (slot, c) in counts.iter().enumerate() {
                    slot_usage[slot].merge(c);
                }
            }
            (per_scenario, slot_usage)
        } else {
            let job: Job = Arc::new(JobState {
                scenarios: Arc::clone(shared.expect("parallel path requires a shared batch")),
                trees: compiled.clone(),
                cfg: cfg.clone(),
                next: AtomicUsize::new(0),
                results: (0..scenarios.len()).map(|_| Mutex::new(None)).collect(),
                remaining: Mutex::new(scenarios.len()),
                done: Condvar::new(),
                panic: Mutex::new(None),
            });
            {
                let tx = self.injector.lock().expect("injector poisoned");
                for _ in 0..helpers {
                    // A ticket per helper; idle workers pick them up. Stale
                    // tickets (job already drained) exit immediately.
                    tx.send(Arc::clone(&job)).expect("pool channel closed");
                }
            }
            job.work();
            let mut rem = job.remaining.lock().expect("remaining poisoned");
            while *rem > 0 {
                rem = job.done.wait(rem).expect("wait poisoned");
            }
            drop(rem);
            if let Some(msg) = job.panic.lock().expect("panic slot poisoned").take() {
                panic!("scenario evaluation panicked: {msg}");
            }

            // Deterministic fold in input order, independent of which
            // worker ran what.
            let mut per_scenario = Vec::with_capacity(scenarios.len());
            let mut slot_usage: Vec<UsageCounts> = compiled
                .iter()
                .map(|t| UsageCounts::new(t.num_leaves()))
                .collect();
            for slot in &job.results {
                let (u, counts) = slot
                    .lock()
                    .expect("result slot poisoned")
                    .take()
                    .expect("scenario result missing");
                per_scenario.push(u);
                for (s, c) in counts.iter().enumerate() {
                    slot_usage[s].merge(c);
                }
            }
            (per_scenario, slot_usage)
        };

        let usage: Vec<WhiskerTree> = trees
            .iter()
            .zip(&slot_usage)
            .map(|(t, c)| {
                let mut annotated = t.clone();
                annotated.reset_counts();
                annotated.absorb_usage(c);
                annotated
            })
            .collect();
        let mean_utility = per_scenario.iter().sum::<f64>() / per_scenario.len() as f64;
        EvalResult {
            mean_utility,
            per_scenario,
            usage,
        }
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        // Replacing the sender closes the channel; workers drain pending
        // jobs and exit on the recv error.
        {
            let (tx, _rx) = channel::<Job>();
            *self.injector.lock().expect("injector poisoned") = tx;
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Evaluate `trees` on a batch of scenarios using the process-wide shared
/// [`EvalPool`]. `cfg.threads` caps the concurrency; results are
/// bit-identical for any thread count.
pub fn evaluate_scenarios(
    scenarios: &[ConcreteScenario],
    trees: &[WhiskerTree],
    cfg: &EvalConfig,
) -> EvalResult {
    EvalPool::global().evaluate(scenarios, trees, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::Action;

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
        let r1 = evaluate_scenarios(&scenarios, std::slice::from_ref(&tree), &cfg);
        let r2 = evaluate_scenarios(&scenarios, std::slice::from_ref(&tree), &cfg);
        assert_eq!(r1.per_scenario, r2.per_scenario);
        assert_eq!(r1.mean_utility, r2.mean_utility);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let specs = [ScenarioSpec::calibration()];
        let scenarios = draw_scenarios(&specs, 4, 3);
        let tree = WhiskerTree::default_tree();
        let serial = evaluate_scenarios(
            &scenarios,
            std::slice::from_ref(&tree),
            &EvalConfig {
                threads: 1,
                ..quick_cfg()
            },
        );
        let parallel = evaluate_scenarios(
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
        // The threads knob flows into a per-optimizer pool; a dedicated
        // pool of any size must agree bit-for-bit with the shared one.
        let specs = [ScenarioSpec::calibration()];
        let scenarios = draw_scenarios(&specs, 3, 17);
        let tree = WhiskerTree::default_tree();
        let cfg = quick_cfg();
        let shared = evaluate_scenarios(&scenarios, std::slice::from_ref(&tree), &cfg);
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
    fn usage_counts_accumulate() {
        let specs = [ScenarioSpec::calibration()];
        let scenarios = draw_scenarios(&specs, 2, 5);
        let tree = WhiskerTree::default_tree();
        let r = evaluate_scenarios(&scenarios, std::slice::from_ref(&tree), &quick_cfg());
        assert!(
            r.usage[0].total_uses() > 0,
            "acks must hit the tree during evaluation"
        );
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
        let r_sane = evaluate_scenarios(&scenarios, &[sane], &cfg);
        let r_starved = evaluate_scenarios(&scenarios, &[starved], &cfg);
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
        let (u, usage) = run_scenario(mixed, std::slice::from_ref(&tree), &quick_cfg());
        assert!(u.is_finite());
        assert!(usage[0].total_uses() > 0, "the Tao sender used its tree");
    }
}
