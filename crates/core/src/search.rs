//! Adversarial scenario search: let the machine find the breaking points.
//!
//! Hand-picked sweeps only probe scenarios someone thought of. Because
//! networks, workloads, and faults are pure validated data, "a scenario"
//! is a point in a [`ScenarioSpace`] and "find where a scheme breaks" is
//! an optimization problem: *minimize* the scheme's omniscient-normalized
//! score over the bounded box spanned by [`adversarial_space`] — link
//! rate/delay/buffer, AQM discipline, workload/churn, reverse-path
//! slowdown, and the [`netsim::topology::FaultSpec`] dimensions
//! (Gilbert–Elliott severity, outage cadence, corruption rate).
//! [`realize`] is total over the box and off it.
//!
//! The optimizer follows the whisker optimizer's coarse-to-fine pattern
//! one level up: a seeded random population first (global coverage), then
//! evolutionary refinement rounds that mutate the worst survivors with
//! [`ScenarioSpace::mutate_with`] (bounded steps, so candidates can never
//! leave the box). Every candidate population is executed through the
//! shared sweep engine ([`execute_sweep`] →
//! [`remy::eval::try_map_indexed`]), so one pathological candidate
//! becomes a poisoned-cell record, not a dead search.
//!
//! The product is a [`Certificate`]: the found config, its score gap
//! against the omniscient benchmark, and everything needed to replay the
//! exact measurement — seeds, duration, normalization constants, and the
//! IEEE-754 bits of the recorded score. `learnability replay` re-runs
//! committed certificates on both scheduler backends and fails on any
//! bit drift.

use crate::experiments::scaffold::Norm;
use crate::experiments::Fidelity;
use crate::runner::{execute_sweep, with_aqm, AqmKind, Scheme, SweepPoint, TEST_EVENT_BUDGET};
use netsim::event::SchedulerKind;
use netsim::prelude::*;
use netsim::queue::QueueSpec;
use netsim::rng::SimRng;
use netsim::topology::{dumbbell, FaultSpec};
use netsim::transport::CongestionControl;
use netsim::workload::WorkloadSpec;
use remy::{Sample, ScenarioSpace};
use serde::{Deserialize, Serialize};

/// Axis names of [`adversarial_space`], in declared (draw) order.
pub const AXES: [&str; 11] = [
    "link_mbps",
    "rtt_ms",
    "buffer_bdp",
    "aqm",
    "workload",
    "churn_rate_hz",
    "reverse_slowdown",
    "fault",
    "ge_loss_bad",
    "outage_down_s",
    "corrupt_prob",
];

/// The searchable box: every scenario axis the stack can express as pure
/// data, bounded to ranges where the simulation stays affordable and the
/// omniscient benchmark meaningful. Categorical axes: `aqm` indexes
/// [`AqmKind::ALL`]; `workload` is 0 = 1 s ON/OFF, 1 = always-on,
/// 2 = M/G/∞ churn; `fault` is 0 = none, 1 = Gilbert–Elliott, 2 =
/// scheduled outage, 3 = corruption (the severity axes `ge_loss_bad`,
/// `outage_down_s`, `corrupt_prob` apply to the matching mode and are
/// inert otherwise).
pub fn adversarial_space() -> ScenarioSpace {
    ScenarioSpace::new("adversarial-dumbbell")
        .with_continuous("link_mbps", Sample::LogUniform { lo: 4.0, hi: 64.0 })
        .with_continuous(
            "rtt_ms",
            Sample::Uniform {
                lo: 40.0,
                hi: 300.0,
            },
        )
        .with_continuous("buffer_bdp", Sample::LogUniform { lo: 0.5, hi: 8.0 })
        .with_choice("aqm", AqmKind::ALL.len() as u32)
        .with_choice("workload", 3)
        .with_continuous("churn_rate_hz", Sample::LogUniform { lo: 0.25, hi: 2.0 })
        .with_continuous("reverse_slowdown", Sample::LogUniform { lo: 1.0, hi: 50.0 })
        .with_choice("fault", 4)
        .with_continuous("ge_loss_bad", Sample::Uniform { lo: 0.05, hi: 0.75 })
        .with_continuous("outage_down_s", Sample::LogUniform { lo: 0.05, hi: 1.0 })
        .with_continuous("corrupt_prob", Sample::Uniform { lo: 0.0, hi: 0.05 })
}

/// Realize a point of [`adversarial_space`] as a concrete two-sender
/// dumbbell. Total by construction: the point is first projected into the
/// box ([`ScenarioSpace::clamp`]), the link axes are then written through
/// the range-respecting `NetworkConfig` setters, and the fault spec goes
/// through `try_set_fault` — so even a hand-edited certificate point
/// yields a config that passes `NetworkConfig::validate`.
pub fn realize(space: &ScenarioSpace, point: &[f64]) -> NetworkConfig {
    let p = space.clamp(point);
    let v = |name: &str| space.value(&p, name);
    let workload = match v("workload") as u32 {
        0 => WorkloadSpec::on_off_1s(),
        1 => WorkloadSpec::AlwaysOn,
        _ => WorkloadSpec::churn_mginf(v("churn_rate_hz"), 1.0),
    };
    let mut net = dumbbell(2, 32e6, 0.150, QueueSpec::infinite(), workload);
    let rate = net.set_rate_clamped(0, v("link_mbps") * 1e6, 4.0e6, 64.0e6);
    let rtt = net.set_delay_clamped(0, v("rtt_ms") / 1e3, 0.040, 0.300);
    net.links[0].queue = QueueSpec::drop_tail_bdp(rate, rtt, v("buffer_bdp"));
    let mut net = with_aqm(&net, AqmKind::ALL[v("aqm") as usize]);
    // Strictly-above-1 slowdowns get a real reverse path; at the bottom of
    // the range the paper's uncongested reverse model stays reachable.
    let slowdown = v("reverse_slowdown");
    if slowdown > 1.05 {
        net = net.with_reverse_slowdown(slowdown);
    }
    let fault = match v("fault") as u32 {
        1 => Some(FaultSpec::gilbert_elliott(v("ge_loss_bad"), 0.02, 0.25)),
        2 => Some(FaultSpec::outage_scheduled(3.0, v("outage_down_s"), true)),
        3 => Some(FaultSpec::corruption(v("corrupt_prob"))),
        _ => None,
    };
    if let Some(f) = fault {
        net.try_set_fault(0, f)
            .expect("adversarial_space ranges only produce valid fault specs");
    }
    net
}

/// Compact human-readable rendering of a point (table rows, notes).
pub fn describe(space: &ScenarioSpace, point: &[f64]) -> String {
    let p = space.clamp(point);
    let v = |name: &str| space.value(&p, name);
    let workload = match v("workload") as u32 {
        0 => "on/off 1s".to_string(),
        1 => "always-on".to_string(),
        _ => format!("M/G/inf {:.2}/s", v("churn_rate_hz")),
    };
    let fault = match v("fault") as u32 {
        1 => format!("GE loss {:.2}", v("ge_loss_bad")),
        2 => format!("outage {:.2}s", v("outage_down_s")),
        3 => format!("corrupt {:.3}", v("corrupt_prob")),
        _ => "no fault".to_string(),
    };
    format!(
        "{:.1} Mbps, {:.0} ms, {:.1} BDP, {}, {}, rev 1/{:.1}x, {}",
        v("link_mbps"),
        v("rtt_ms"),
        v("buffer_bdp"),
        AqmKind::ALL[v("aqm") as usize].name(),
        workload,
        v("reverse_slowdown"),
        fault
    )
}

/// A worst-case certificate: everything needed to state *and reproduce*
/// "this scheme scores `score` (omniscient-normalized) on this config".
/// Embedded verbatim (JSON) in the `adversarial` figure's notes and
/// consumed by `learnability replay`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Certificate {
    /// Scheme label (`tao`, `cubic`, ...).
    pub scheme: String,
    /// Tao asset name to reload the whisker tree from; `None` for the
    /// fixed TCP schemes.
    pub asset: Option<String>,
    /// The found point in [`adversarial_space`], axis order = [`AXES`].
    pub point: Vec<f64>,
    /// The realized network (self-contained: replay needs no sampler).
    pub net: NetworkConfig,
    /// Seeds the score averages over.
    pub seeds: Vec<u64>,
    /// Simulated seconds per run.
    pub duration_s: f64,
    /// Omniscient fair-share throughput used for normalization.
    pub fair_tpt_bps: f64,
    /// Omniscient base delay used for normalization.
    pub base_delay_s: f64,
    /// Mean normalized objective (omniscient = 0; lower is worse).
    pub score: f64,
    /// Exact IEEE-754 bits of `score`; replay compares against this, so
    /// "reproduces" means bit-identical, not approximately equal.
    pub score_bits: u64,
    /// How many candidate configs the search evaluated to find this one.
    pub candidates_evaluated: usize,
}

impl Certificate {
    /// Score gap to the omniscient benchmark (which sits at 0).
    pub fn gap(&self) -> f64 {
        -self.score
    }
}

/// Search budget knobs. Everything is deterministic in `seed`; `threads`
/// only changes wall-clock, never results.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Random candidates in the initial population.
    pub population: usize,
    /// Evolutionary refinement rounds after the random phase.
    pub generations: usize,
    /// Worst candidates kept as parents each round.
    pub survivors: usize,
    /// Mutants bred per parent per round.
    pub children_per_survivor: usize,
    /// Seeds each candidate is scored over.
    pub seeds: std::ops::Range<u64>,
    /// Simulated seconds per run.
    pub duration_s: f64,
    /// Root RNG seed of the search (sampling + mutation draws).
    pub seed: u64,
    /// Sweep-engine worker threads (0 = all cores).
    pub threads: usize,
    /// Mutation step size (fraction of each axis range).
    pub strength: f64,
}

impl SearchConfig {
    /// Budgets per fidelity: quick stays affordable on a 1-core CI box
    /// (14 candidate configs × 2 seeds × 8 s per scheme); full widens the
    /// population and refinement depth.
    pub fn for_fidelity(fidelity: Fidelity) -> Self {
        match fidelity {
            Fidelity::Quick => SearchConfig {
                population: 6,
                generations: 2,
                survivors: 2,
                children_per_survivor: 2,
                seeds: 0..2,
                duration_s: 8.0,
                seed: 0xAD5E_A12C,
                threads: 0,
                strength: 0.35,
            },
            Fidelity::Full => SearchConfig {
                population: 16,
                generations: 4,
                survivors: 3,
                children_per_survivor: 3,
                seeds: 0..4,
                duration_s: 16.0,
                seed: 0xAD5E_A12C,
                threads: 0,
                strength: 0.35,
            },
        }
    }
}

/// What one search produced: the worst case found (if any candidate
/// survived evaluation) plus the harness health trail.
pub struct SearchResult {
    pub certificate: Option<Certificate>,
    /// Candidate configs evaluated (including ones whose cells poisoned).
    pub evaluated: usize,
    /// `"candidate '<desc>' seed <seed>: <panic message>"` per poisoned
    /// cell — a crashing candidate is itself a finding worth surfacing.
    pub poisoned: Vec<String>,
}

/// One scored candidate in the search pool.
struct Scored {
    point: Vec<f64>,
    net: NetworkConfig,
    /// The omniscient point `score` is normalised against.
    norm: Norm,
    score: f64,
}

/// Score a batch of candidate points for one scheme through the sweep
/// engine. Candidates whose cells poisoned or whose score is non-finite
/// (no flow ever turned on) are dropped from the pool — a certificate
/// must replay cleanly over its full seed set.
fn evaluate_batch(
    space: &ScenarioSpace,
    batch: &[Vec<f64>],
    scheme: &Scheme,
    cfg: &SearchConfig,
    poisoned: &mut Vec<String>,
) -> Vec<Scored> {
    let points: Vec<SweepPoint> = batch
        .iter()
        .enumerate()
        .map(|(i, p)| {
            SweepPoint::homogeneous(
                format!("cand{i}"),
                i as f64,
                realize(space, p),
                scheme.clone(),
                cfg.seeds.clone(),
                cfg.duration_s,
            )
        })
        .collect();
    let outcomes = execute_sweep(points, cfg.threads);
    let mut scored = Vec::new();
    for (p, outcome) in batch.iter().zip(outcomes) {
        if !outcome.poisoned.is_empty() {
            for (seed, msg) in &outcome.poisoned {
                poisoned.push(format!(
                    "candidate '{}' seed {seed}: {msg}",
                    describe(space, p)
                ));
            }
            continue;
        }
        let norm = Norm::omniscient(&outcome.point.net);
        let score = norm.objective(&outcome.runs);
        if !score.is_finite() {
            continue;
        }
        scored.push(Scored {
            point: p.clone(),
            net: outcome.point.net,
            norm,
            score,
        });
    }
    scored
}

/// Find the worst case of `scheme` over [`adversarial_space`]: seeded
/// random search, then `cfg.generations` rounds of bounded mutation around
/// the worst survivors. Deterministic in `cfg.seed` for any thread count.
pub fn find_worst_case(scheme: &Scheme, asset: Option<&str>, cfg: &SearchConfig) -> SearchResult {
    let space = adversarial_space();
    let mut rng = SimRng::from_seed(cfg.seed);
    let mut poisoned = Vec::new();
    let mut evaluated = 0usize;
    let mut pool: Vec<Scored> = Vec::new();
    for generation in 0..=cfg.generations {
        let batch: Vec<Vec<f64>> = if generation == 0 {
            (0..cfg.population)
                .map(|_| space.sample_with(&mut rng))
                .collect()
        } else {
            pool.iter()
                .take(cfg.survivors)
                .map(|s| s.point.clone())
                .collect::<Vec<_>>()
                .iter()
                .flat_map(|parent| {
                    (0..cfg.children_per_survivor)
                        .map(|_| space.mutate_with(parent, &mut rng, cfg.strength))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        evaluated += batch.len();
        pool.extend(evaluate_batch(&space, &batch, scheme, cfg, &mut poisoned));
        // Worst first. Scores are finite by construction and the sort is
        // stable, so ties resolve by insertion order — deterministic.
        pool.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"));
    }
    let certificate = pool.into_iter().next().map(|best| Certificate {
        scheme: scheme.label(),
        asset: asset.map(str::to_string),
        point: best.point,
        net: best.net,
        seeds: cfg.seeds.clone().collect(),
        duration_s: cfg.duration_s,
        fair_tpt_bps: best.norm.fair_tpt_bps,
        base_delay_s: best.norm.base_delay_s,
        score: best.score,
        score_bits: best.score.to_bits(),
        candidates_evaluated: evaluated,
    });
    SearchResult {
        certificate,
        evaluated,
        poisoned,
    }
}

/// Reconstruct the scheme a certificate was issued against: Tao trees are
/// reloaded from the named committed asset, the fixed TCPs by label.
pub fn scheme_for_certificate(cert: &Certificate) -> Result<Scheme, String> {
    if let Some(asset) = &cert.asset {
        let path = remy::serialize::asset_path(asset);
        let trained = remy::serialize::load(&path)
            .map_err(|e| format!("cannot load asset '{asset}' from {}: {e}", path.display()))?;
        return Ok(Scheme::tao(trained.tree, cert.scheme.clone()));
    }
    match cert.scheme.as_str() {
        "cubic" => Ok(Scheme::Cubic),
        "newreno" => Ok(Scheme::NewReno),
        "vegas" => Ok(Scheme::Vegas),
        "pcc" => Ok(Scheme::Pcc),
        other => Err(format!("unknown scheme '{other}' (and no asset named)")),
    }
}

/// Re-measure a certificate's score on the chosen scheduler backend,
/// exactly as the sweep engine measured it: same config, same seeds, same
/// duration, same event budget, same normalization constants. The result
/// must equal `cert.score` bit for bit on *both* backends — that is the
/// reproducibility claim a certificate makes.
pub fn replay(cert: &Certificate, scheme: &Scheme, kind: SchedulerKind) -> f64 {
    let runs: Vec<RunOutcome> = cert
        .seeds
        .iter()
        .map(|&seed| {
            let protocols: Vec<Box<dyn CongestionControl>> =
                (0..cert.net.flows.len()).map(|_| scheme.build()).collect();
            let mut sim = Simulation::with_scheduler(&cert.net, protocols, seed, kind);
            sim.set_event_budget(TEST_EVENT_BUDGET);
            sim.run(SimDuration::from_secs_f64(cert.duration_s))
        })
        .collect();
    Norm {
        fair_tpt_bps: cert.fair_tpt_bps,
        base_delay_s: cert.base_delay_s,
    }
    .objective(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sampled_point_realizes_to_a_valid_config() {
        let space = adversarial_space();
        for seed in 0..150 {
            let p = space.sample(seed);
            let net = realize(&space, &p);
            net.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\npoint {p:?}"));
        }
    }

    #[test]
    fn mutation_chains_realize_to_valid_configs() {
        let space = adversarial_space();
        let mut p = space.center();
        for seed in 0..150 {
            p = space.mutate(&p, seed, 0.5);
            let net = realize(&space, &p);
            net.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\npoint {p:?}"));
        }
    }

    #[test]
    fn realize_is_total_even_off_the_box() {
        let space = adversarial_space();
        let wild = vec![1e12, -1.0, 0.0, 99.0, -3.0, 0.0, 1e6, 17.0, 5.0, -1.0, 2.0];
        realize(&space, &wild).validate().unwrap();
    }

    #[test]
    fn describe_names_the_fault_mode() {
        let space = adversarial_space();
        let mut p = space.center();
        p[space.axis_index("fault").unwrap()] = 1.0;
        assert!(describe(&space, &p).contains("GE loss"));
        p[space.axis_index("fault").unwrap()] = 0.0;
        assert!(describe(&space, &p).contains("no fault"));
    }

    #[test]
    fn certificates_roundtrip_through_json() {
        let space = adversarial_space();
        let p = space.sample(11);
        let cert = Certificate {
            scheme: "cubic".into(),
            asset: None,
            net: realize(&space, &p),
            point: p,
            seeds: vec![0, 1],
            duration_s: 8.0,
            fair_tpt_bps: 16e6,
            base_delay_s: 0.075,
            score: -1.25,
            score_bits: (-1.25f64).to_bits(),
            candidates_evaluated: 14,
        };
        let json = serde_json::to_string(&cert).unwrap();
        let back: Certificate = serde_json::from_str(&json).unwrap();
        assert_eq!(cert, back);
        assert_eq!(back.gap(), 1.25);
    }

    #[test]
    fn tiny_search_finds_a_replayable_certificate() {
        // End-to-end on the cheapest possible budget: the certificate's
        // recorded score must replay bit-identically on both scheduler
        // backends (the acceptance contract of `learnability replay`).
        let cfg = SearchConfig {
            population: 2,
            generations: 1,
            survivors: 1,
            children_per_survivor: 1,
            seeds: 0..1,
            duration_s: 2.0,
            seed: 42,
            threads: 0,
            strength: 0.3,
        };
        let res = find_worst_case(&Scheme::Cubic, None, &cfg);
        assert_eq!(res.evaluated, 3);
        let cert = res.certificate.expect("search found a worst case");
        assert!(cert.score.is_finite());
        assert_eq!(cert.score_bits, cert.score.to_bits());
        let scheme = scheme_for_certificate(&cert).unwrap();
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let replayed = replay(&cert, &scheme, kind);
            assert_eq!(
                replayed.to_bits(),
                cert.score_bits,
                "{kind:?}: replayed {replayed} != recorded {}",
                cert.score
            );
        }
    }

    #[test]
    fn search_is_deterministic() {
        let cfg = SearchConfig {
            population: 2,
            generations: 0,
            survivors: 1,
            children_per_survivor: 1,
            seeds: 0..1,
            duration_s: 1.0,
            seed: 7,
            threads: 0,
            strength: 0.3,
        };
        let a = find_worst_case(&Scheme::NewReno, None, &cfg)
            .certificate
            .unwrap();
        let b = find_worst_case(&Scheme::NewReno, None, &cfg)
            .certificate
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_scheme_without_asset_errors() {
        let space = adversarial_space();
        let p = space.center();
        let cert = Certificate {
            scheme: "mystery".into(),
            asset: None,
            net: realize(&space, &p),
            point: p,
            seeds: vec![0],
            duration_s: 1.0,
            fair_tpt_bps: 1e6,
            base_delay_s: 0.1,
            score: 0.0,
            score_bits: 0f64.to_bits(),
            candidates_evaluated: 0,
        };
        assert!(scheme_for_certificate(&cert).is_err());
    }
}
