//! The study's experiments: one module per paper figure/table, all behind
//! the declarative [`Experiment`] trait and runnable through the
//! `learnability` CLI (`learnability list`, `learnability run <id>`).
//!
//! | id | module | paper artifact |
//! |---|---|---|
//! | `calibration` | [`calibration`] | Fig 1 / Table 1 — Tao vs Cubic vs Cubic-over-sfqCoDel vs omniscient |
//! | `link_speed` | [`link_speed`] | Fig 2 / Table 2 — operating range in link speed |
//! | `multiplexing` | [`multiplexing`] | Fig 3 / Table 3 — degree of multiplexing |
//! | `rtt` | [`rtt`] | Fig 4 / Table 4 — propagation delay |
//! | `topology` | [`topology`] | Figs 5–6 / Table 5 — one- vs two-bottleneck knowledge |
//! | `tcp_aware` | [`tcp_aware`] | Figs 7–8 / Table 6 — knowledge about incumbent endpoints |
//! | `diversity` | [`diversity`] | Fig 9 / Table 7 — the price of sender diversity |
//! | `signals` | [`signals`] | §3.4 — value of the congestion signals (knockout study) |
//! | `universal` | [`universal`] | extension — the conclusion's "one protocol for everything" question |
//! | `aqm` | [`aqm`] | extension — drop-tail-trained Tao across RED/CoDel/sfqCoDel gateways |
//! | `asymmetry` | [`asymmetry`] | extension — asymmetric ACK paths (reverse rate 1× → 1/50×) |
//! | `churn` | [`churn`] | extension — Poisson flow churn vs the static multiplexing baseline |
//! | `shared_uplink` | [`shared_uplink`] | extension — all flows' ACKs through one shared reverse link, drop-tail vs CoDel ACK queue |
//! | `churn_mginf` | [`churn_mginf`] | extension — unblocked M/G/∞ churn (overlapping flows per slot) vs blocked arrivals |
//! | `bursty_loss` | [`bursty_loss`] | extension — Gilbert–Elliott bursty non-congestive loss vs loss- and delay-based schemes |
//! | `outage_recovery` | [`outage_recovery`] | extension — recovery time after link blackouts (the RTO-backoff axis) |
//! | `adversarial` | [`adversarial`] | extension — adversarial scenario search: per-scheme worst-case certificates |
//! | `learned_vs_online` | [`learned_vs_online`] | extension — offline-designed Tao vs online-learned (PCC-style) control |
//! | `delayed_ack` | [`delayed_ack`] | extension — delayed/stretch ACK receivers (ack-every-k) crossed with a shared ACK uplink |
//! | `many_flows` | [`many_flows`] | extension — Internet-scale multiplexing: 10²–10⁴ M/G/∞ churn flows, objective + per-decile fairness |
//!
//! An experiment is *data*, not code: [`Experiment::train_specs`] lists the
//! Tao protocols it needs (trained once, cached as JSON assets like the
//! protocols the paper published), [`Experiment::roster`] names its
//! contenders once, [`Experiment::sweep`] expands the testing side into
//! [`SweepPoint`] cells the shared engine executes in parallel
//! ([`crate::runner::execute_sweep`]), and [`Experiment::summarize`] folds
//! the outcomes into a serializable [`FigureData`] from which both the
//! JSON artifacts and the printed tables are rendered.
//!
//! Every module is written on the one [`scaffold`] (roster → grid of
//! cells → series and standard table cells); what is left in a module is
//! its scenario, its axis and its one custom sentence — see "Writing an
//! experiment" in the README.

pub mod adversarial;
pub mod aqm;
pub mod asymmetry;
pub mod bursty_loss;
pub mod calibration;
pub mod churn;
pub mod churn_mginf;
pub mod delayed_ack;
pub mod diversity;
pub mod learned_vs_online;
pub mod link_speed;
pub mod many_flows;
pub mod multiplexing;
pub mod outage_recovery;
pub mod rtt;
pub mod scaffold;
pub mod shared_uplink;
pub mod signals;
pub mod tcp_aware;
pub mod topology;
pub mod universal;

use crate::report::{FigureData, RunMeta};
use crate::runner::{PointOutcome, SweepPoint};
use netsim::queue::QueueSpec;
use netsim::topology::{dumbbell, NetworkConfig};
use netsim::workload::WorkloadSpec;
use protocols::WhiskerTree;
use remy::{OptimizerConfig, ScenarioSpec, TrainedProtocol};
use std::sync::OnceLock;

/// How much compute to spend. `Quick` regenerates every figure's *shape*
/// in minutes; `Full` uses longer simulations, more seeds and finer sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    Quick,
    Full,
}

/// The `--fidelity` flag's parser: `quick` or `full`, nothing else.
impl std::str::FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "quick" => Ok(Fidelity::Quick),
            "full" => Ok(Fidelity::Full),
            _ => Err(format!("unknown fidelity '{s}' (quick|full)")),
        }
    }
}

impl Fidelity {
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        }
    }

    /// Seeds per (scheme, test point).
    pub fn seeds(self) -> std::ops::Range<u64> {
        match self {
            Fidelity::Quick => 0..3,
            Fidelity::Full => 0..8,
        }
    }

    /// Simulated seconds per test run.
    pub fn test_duration_s(self) -> f64 {
        match self {
            Fidelity::Quick => 16.0,
            Fidelity::Full => 60.0,
        }
    }
}

// ---------------------------------------------------------------------------
// The Experiment trait and registry.
// ---------------------------------------------------------------------------

/// One protocol-design run an experiment depends on: the asset name(s) it
/// produces, the training scenario model, and the optimizer budget.
/// Describing a job is free — nothing trains until [`run_train_job`].
#[derive(Clone, Debug)]
pub struct TrainJob {
    /// Asset names this job produces (one, or several for co-optimized
    /// protocol sets — Table 7a trains a pair jointly).
    pub assets: Vec<String>,
    pub specs: Vec<ScenarioSpec>,
    pub cfg: OptimizerConfig,
    /// `Some(alternations)`: co-optimize `assets.len()` slots jointly.
    pub co_alternations: Option<usize>,
}

impl TrainJob {
    pub fn single(name: impl Into<String>, specs: Vec<ScenarioSpec>, cfg: OptimizerConfig) -> Self {
        TrainJob {
            assets: vec![name.into()],
            specs,
            cfg,
            co_alternations: None,
        }
    }

    pub fn co_optimized(
        names: &[&str],
        specs: Vec<ScenarioSpec>,
        cfg: OptimizerConfig,
        alternations: usize,
    ) -> Self {
        TrainJob {
            assets: names.iter().map(|n| n.to_string()).collect(),
            specs,
            cfg,
            co_alternations: Some(alternations),
        }
    }
}

/// A paper experiment as declarative data: what to train, what to sweep,
/// and how to fold sweep outcomes into a figure.
pub trait Experiment: Sync {
    /// Stable CLI id (`learnability run <id>`).
    fn id(&self) -> &'static str;

    /// Which paper figure/table this reproduces.
    fn paper_artifact(&self) -> &'static str;

    /// The contenders this experiment compares, in series order — the
    /// single source of its sweep cells ([`scaffold::Grid`]), its series
    /// ([`scaffold::SeriesSet`]) and its [`Experiment::scheme_families`].
    /// Description only: no asset is touched.
    fn roster(&self) -> Vec<scaffold::Contender>;

    /// The scheme families this experiment evaluates ("tao" covers every
    /// trained Tao variant). Shown by `learnability list` so users can
    /// see at a glance which protocols each figure compares.
    fn scheme_families(&self) -> Vec<&'static str> {
        scaffold::families(&self.roster())
    }

    /// The Tao protocols this experiment needs (description only; training
    /// happens lazily via [`run_train_job`] / `learnability train`).
    fn train_specs(&self) -> Vec<TrainJob>;

    /// The testing side as sweep cells. Loads (or trains) the protocol
    /// assets it references.
    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint>;

    /// Fold executed sweep points (in `sweep` order) into the figure's
    /// structured result. Must be a pure function of `points` so results
    /// are identical for any thread count.
    fn summarize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> FigureData;
}

/// Every experiment of the study: the paper's nine in paper order, then
/// the beyond-paper scenario axes (AQM, asymmetry, churn, shared uplink,
/// M/G/∞ churn, fault injection, adversarial search, offline-vs-online
/// learning, delayed-ACK receivers, Internet-scale multiplexing).
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 20] = [
        &calibration::Calibration,
        &link_speed::LinkSpeed,
        &multiplexing::Multiplexing,
        &rtt::Rtt,
        &topology::Topology,
        &tcp_aware::TcpAware,
        &diversity::Diversity,
        &signals::Signals,
        &universal::Universal,
        &aqm::Aqm,
        &asymmetry::Asymmetry,
        &churn::Churn,
        &shared_uplink::SharedUplink,
        &churn_mginf::ChurnMginf,
        &bursty_loss::BurstyLoss,
        &outage_recovery::OutageRecovery,
        &adversarial::Adversarial,
        &learned_vs_online::LearnedVsOnline,
        &delayed_ack::DelayedAck,
        &many_flows::ManyFlows,
    ];
    &REGISTRY
}

/// Look up an experiment by CLI id.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.id() == id)
}

/// Execution knobs for [`run_experiment_report`].
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    pub fidelity: Fidelity,
    /// Override the per-cell seed count (`--seeds N` → seeds `0..N`).
    /// Trace points (illustrative single runs) are exempt.
    pub seeds: Option<u64>,
    /// Worker threads for the sweep engine (0 = all cores).
    pub threads: usize,
}

impl RunOptions {
    pub fn new(fidelity: Fidelity) -> Self {
        RunOptions {
            fidelity,
            seeds: None,
            threads: 0,
        }
    }

    /// The seed set non-trace cells run over.
    pub fn seed_set(&self) -> Vec<u64> {
        match self.seeds {
            Some(n) => (0..n).collect(),
            None => self.fidelity.seeds().collect(),
        }
    }
}

/// `git describe --always --dirty` of the working tree (memoized;
/// `"unknown"` outside a git checkout).
pub fn git_describe() -> &'static str {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    })
}

/// Everything one experiment run produced: the figure plus the harness's
/// health report. `poisoned` lists cells whose simulation panicked (the
/// sweep engine degrades them into flagged holes — see
/// [`crate::runner::PointOutcome::poisoned`]); a run with a non-empty
/// `poisoned` must fail the CLI even though a figure was still rendered
/// from the surviving cells.
pub struct RunReport {
    pub fig: FigureData,
    /// `"cell '<key>' x=<x> seed <seed>: <panic message>"` per crashed
    /// cell ([`scaffold::cell_id`]).
    pub poisoned: Vec<String>,
}

/// Run one experiment end to end on the shared sweep engine: expand its
/// sweep, execute the cells in parallel, summarize, and stamp provenance
/// metadata. Poisoned cells and event-budget truncations are appended to
/// the figure's notes (and reported in [`RunReport::poisoned`]) so a
/// degraded figure can never silently pass for a clean one. The result is
/// bit-identical for any `opts.threads`.
pub fn run_experiment_report(exp: &dyn Experiment, opts: &RunOptions) -> RunReport {
    let mut points = exp.sweep(opts.fidelity);
    if let Some(n) = opts.seeds {
        for p in &mut points {
            if p.trace.is_none() {
                p.seeds = 0..n;
            }
        }
    }
    let outcomes = crate::runner::execute_sweep(points, opts.threads);
    let poisoned: Vec<String> = outcomes
        .iter()
        .flat_map(|p| {
            p.poisoned
                .iter()
                .map(|(seed, msg)| format!("{}: {msg}", scaffold::cell_id(p.key(), p.x(), *seed)))
        })
        .collect();
    let truncated: Vec<String> = outcomes
        .iter()
        .flat_map(|p| {
            p.runs
                .iter()
                .zip(p.point.seeds.clone())
                .filter(|(run, _)| run.truncated)
                .map(|(_, seed)| scaffold::cell_id(p.key(), p.x(), seed))
        })
        .collect();
    let mut fig = exp.summarize(opts.fidelity, &outcomes);
    for cell in &poisoned {
        fig.notes.push(format!("POISONED: {cell}"));
    }
    if !truncated.is_empty() {
        fig.notes.push(format!(
            "TRUNCATED: {} run(s) hit the event budget before simulated time \
             ran out and carry partial statistics: {}",
            truncated.len(),
            truncated.join(", ")
        ));
    }
    fig.meta = RunMeta {
        fidelity: opts.fidelity.name().into(),
        seeds: opts.seed_set(),
        git_describe: git_describe().into(),
    };
    RunReport { fig, poisoned }
}

/// Execute a training job, the one place a [`TrainJob`] becomes
/// protocols. Every asset the job names is loaded with
/// [`remy::serialize::load_if_present`]; when all are there they are
/// returned. Otherwise the job trains ([`remy::Optimizer::optimize`], or
/// [`remy::Optimizer::co_optimize`] when [`TrainJob::co_alternations`]
/// is set) and each protocol is saved under its asset name. Only a
/// missing asset trains: an unreadable one is an `Err` naming the file.
pub fn run_train_job(job: &TrainJob) -> Result<Vec<TrainedProtocol>, String> {
    let paths: Vec<_> = job
        .assets
        .iter()
        .map(|n| remy::serialize::asset_path(n))
        .collect();
    let loaded = paths
        .iter()
        .map(|p| remy::serialize::load_if_present(p))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(protos) = loaded.into_iter().collect() {
        return Ok(protos);
    }
    let t0 = std::time::Instant::now();
    let opt = remy::Optimizer::new(job.specs.clone(), job.cfg.clone());
    let protos = match job.co_alternations {
        None => job
            .assets
            .iter()
            .map(|name| {
                eprintln!("[learnability] training {name} (no committed asset found)...");
                opt.optimize(name)
            })
            .collect(),
        Some(alternations) => {
            eprintln!(
                "[learnability] co-optimizing {} (no committed assets found)...",
                job.assets.join(" + ")
            );
            let names: Vec<&str> = job.assets.iter().map(String::as_str).collect();
            opt.co_optimize(
                vec![WhiskerTree::default_tree(); names.len()],
                alternations,
                &names,
            )
        }
    };
    for (p, path) in protos.iter().zip(&paths) {
        eprintln!(
            "[learnability] trained {} in {:.1}s (score {:.3})",
            p.name,
            t0.elapsed().as_secs_f64(),
            p.score
        );
        if let Err(e) = remy::serialize::save(p, path) {
            eprintln!(
                "[learnability] warning: could not save asset {}: {e}",
                path.display()
            );
        }
    }
    Ok(protos)
}

// ---------------------------------------------------------------------------
// Shared test networks and sweep grids.
// ---------------------------------------------------------------------------

/// The paper's testing dumbbell (Tables 1b–4b): `senders` sharing one
/// `rate_bps` bottleneck at minimum RTT `rtt_s`, behind a 5-BDP drop-tail
/// buffer.
pub fn paper_dumbbell(
    senders: usize,
    rate_bps: f64,
    rtt_s: f64,
    workload: WorkloadSpec,
) -> NetworkConfig {
    let queue = QueueSpec::drop_tail_bdp(rate_bps, rtt_s, 5.0);
    dumbbell(senders, rate_bps, rtt_s, queue, workload)
}

/// Logarithmically spaced grid including both endpoints.
pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2);
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            (lo.ln() + t * (hi.ln() - lo.ln())).exp()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use remy::TrainCost;

    #[test]
    fn grids_have_correct_endpoints() {
        let g = log_grid(1.0, 1000.0, 4);
        assert!((g[0] - 1.0).abs() < 1e-9);
        assert!((g[3] - 1000.0).abs() < 1e-6);
        assert!((g[1] - 10.0).abs() < 1e-6, "log spacing: {g:?}");
    }

    #[test]
    fn fidelity_flag_parsing() {
        assert_eq!("quick".parse(), Ok(Fidelity::Quick));
        assert_eq!("full".parse(), Ok(Fidelity::Full));
        for bad in ["medium", "Full"] {
            assert!(bad.parse::<Fidelity>().is_err(), "'{bad}' must not parse");
        }
        assert_eq!(Fidelity::Quick.name(), "quick");
        assert_eq!(Fidelity::Full.name(), "full");
    }

    #[test]
    fn fidelity_from_str_covers_both_conventions() {
        // The flag convention (`quick`|`full`) is the only one that parses;
        // the boolean environment-variable spellings are all rejected.
        for f in [Fidelity::Quick, Fidelity::Full] {
            assert_eq!(f.name().parse(), Ok(f));
        }
        for bad in ["", "0", "1", "true", "false"] {
            assert!(bad.parse::<Fidelity>().is_err(), "'{bad}' must not parse");
        }
    }

    #[test]
    fn heavy_budget_is_cheaper() {
        let n = OptimizerConfig::standard(TrainCost::Normal);
        let h = OptimizerConfig::standard(TrainCost::Heavy);
        assert!(h.sim_duration_s < n.sim_duration_s);
    }

    #[test]
    fn registry_lists_all_twenty_experiments() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            vec![
                "calibration",
                "link_speed",
                "multiplexing",
                "rtt",
                "topology",
                "tcp_aware",
                "diversity",
                "signals",
                "universal",
                "aqm",
                "asymmetry",
                "churn",
                "shared_uplink",
                "churn_mginf",
                "bursty_loss",
                "outage_recovery",
                "adversarial",
                "learned_vs_online",
                "delayed_ack",
                "many_flows"
            ]
        );
        assert!(find("calibration").is_some());
        assert!(find("nope").is_none());
        for e in registry() {
            assert!(!e.paper_artifact().is_empty(), "{} has artifact", e.id());
        }
    }

    #[test]
    fn train_specs_are_descriptions_only() {
        // Describing training must never touch assets or train anything —
        // `learnability list` depends on this being cheap.
        for e in registry() {
            let jobs = e.train_specs();
            assert!(!jobs.is_empty(), "{} declares its protocols", e.id());
            for j in &jobs {
                assert!(!j.assets.is_empty());
                assert!(!j.specs.is_empty());
                if let Some(alt) = j.co_alternations {
                    assert!(alt > 0);
                    assert!(j.assets.len() > 1, "co-optimization needs several slots");
                }
            }
        }
    }

    #[test]
    fn every_sweep_is_well_formed_from_committed_assets() {
        // From committed assets only: a missing asset must fail here, not
        // silently start a training run.
        for e in registry() {
            let roster = e.roster();
            let jobs = e.train_specs();
            let declared = jobs
                .iter()
                .flat_map(|j| j.assets.iter().map(String::as_str));
            for asset in declared.chain(roster.iter().filter_map(|c| c.asset_name())) {
                let path = remy::serialize::asset_path(asset);
                assert!(
                    path.exists(),
                    "{}: {} is not committed",
                    e.id(),
                    path.display()
                );
            }
            let families = e.scheme_families();
            let points = e.sweep(Fidelity::Quick);
            assert!(!points.is_empty(), "{} sweeps something", e.id());
            for (i, p) in points.iter().enumerate() {
                assert!(
                    !points[..i].iter().any(|q| q.key == p.key && q.x == p.x),
                    "{}: cell ('{}', {}) appears twice",
                    e.id(),
                    p.key,
                    p.x
                );
                for scheme in &p.schemes {
                    assert!(
                        families.contains(&scheme.family()),
                        "{}: cell '{}' runs '{}', outside families {families:?}",
                        e.id(),
                        p.key,
                        scheme.label()
                    );
                }
            }
        }
    }

    #[test]
    fn run_options_seed_set() {
        let mut o = RunOptions::new(Fidelity::Quick);
        assert_eq!(o.seed_set(), vec![0, 1, 2]);
        o.seeds = Some(5);
        assert_eq!(o.seed_set(), vec![0, 1, 2, 3, 4]);
        let f = RunOptions::new(Fidelity::Full);
        assert_eq!(f.seed_set().len(), 8);
    }
}
