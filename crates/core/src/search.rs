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
//!
//! The same engine checks for congestion collapse "mechanistically", as
//! the paper's closing question asks: `learnability assets verify` runs
//! fixed [`collapse_probes`] far outside any training range as one sweep,
//! and [`judge_collapse`] flags collapse, starvation and runaway queues.

use crate::experiments::scaffold::Norm;
use crate::experiments::Fidelity;
use crate::runner::{
    cell_simulation, execute_sweep, with_aqm, AqmKind, PointOutcome, Scheme, SweepPoint,
};
use netsim::event::SchedulerKind;
use netsim::prelude::*;
use netsim::probe::NoProbe;
use netsim::queue::QueueSpec;
use netsim::rng::SimRng;
use netsim::topology::{dumbbell, FaultSpec};
use netsim::workload::WorkloadSpec;
use remy::{
    BufferSpec, CountSpec, Sample, ScenarioSpace, ScenarioSpec, SenderClassSpec, TopologySpec,
};
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
    Scheme::FIXED
        .into_iter()
        .find(|s| s.family() == cert.scheme)
        .ok_or_else(|| format!("unknown scheme '{}' (and no asset named)", cert.scheme))
}

/// Re-measure a certificate's score on the chosen scheduler backend,
/// exactly as the sweep engine measured it: same config, same seeds, same
/// duration, same event budget, same normalization constants. The result
/// must equal `cert.score` bit for bit on *both* backends — that is the
/// reproducibility claim a certificate makes.
pub fn replay(cert: &Certificate, scheme: &Scheme, kind: SchedulerKind) -> f64 {
    let schemes = vec![scheme.clone(); cert.net.flows.len()];
    let runs: Vec<RunOutcome> = cert
        .seeds
        .iter()
        .map(|&seed| {
            cell_simulation(&cert.net, &schemes, seed, kind, NoProbe)
                .run(SimDuration::from_secs_f64(cert.duration_s))
        })
        .collect();
    Norm {
        fair_tpt_bps: cert.fair_tpt_bps,
        base_delay_s: cert.base_delay_s,
    }
    .objective(&runs)
}

/// The collapse probes, `(label, link Mbps, senders, buffer)`: one Tao
/// slot on a 100 ms dumbbell, every sender almost always on.
#[rustfmt::skip]
const PROBES: [(&str, f64, u32, BufferSpec); 5] = [
    ("slow-link-tiny-buffer", 0.5, 2, BufferSpec::BdpMultiple(0.5)),
    ("fast-link", 500.0, 2, BufferSpec::BdpMultiple(1.0)),
    ("heavy-mux-finite", 15.0, 64, BufferSpec::BdpMultiple(1.0)),
    ("heavy-mux-nodrop", 15.0, 64, BufferSpec::Infinite),
    ("lone-sender-nodrop", 10.0, 1, BufferSpec::Infinite),
];
const PROBE_SEEDS: u64 = 2;
const PROBE_DURATION_S: f64 = 12.0;
/// Collapse is *sustained* waste, not a thrashed 2-packet buffer:
/// retransmissions must exceed twice the deliveries.
const MAX_RETX_RATIO: f64 = 2.0;
/// An ON flow starves below `min(equal share × MIN_SHARE_FRACTION, floor)`;
/// the floor keeps cautious protocols on fast links from reading as starved.
const MIN_SHARE_FRACTION: f64 = 0.05;
const STARVATION_FLOOR_BPS: f64 = 100_000.0;
/// A no-drop queue is runaway beyond this multiple of the minimum RTT.
const MAX_QUEUE_RTT_MULTIPLE: f64 = 20.0;

/// Cells [`collapse_probes`] gives each scheme.
pub const COLLAPSE_CELLS: usize = PROBES.len() * PROBE_SEEDS as usize;

/// The collapse cells of `scheme`: one single-seed point per `(probe,
/// seed)` in that order, keyed `probe/seedN`, holding the network and
/// simulation seed of the probe's draw at `0xFEED_0000 + seed`.
pub fn collapse_probes(scheme: &Scheme) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for (label, mbps, senders, buffer) in PROBES {
        let spec = ScenarioSpec {
            topology: TopologySpec::Dumbbell {
                link_mbps: Sample::Fixed(mbps),
                rtt_ms: Sample::Fixed(100.0),
            },
            classes: vec![SenderClassSpec {
                workload: WorkloadSpec::almost_continuous(),
                ..SenderClassSpec::tao(0, CountSpec::Fixed(senders))
            }],
            buffer,
        };
        for seed in 0..PROBE_SEEDS {
            let draw = spec.sample(0xFEED_0000 + seed);
            points.push(SweepPoint::homogeneous(
                format!("{label}/seed{seed}"),
                0.0,
                draw.net,
                scheme.clone(),
                draw.seed..draw.seed + 1,
                PROBE_DURATION_S,
            ));
        }
    }
    points
}

/// What [`judge_collapse`] flags; a panicked cell, or a run the event
/// budget cut short, is flagged too, so neither passes as a measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollapseKind {
    RetransmissionCollapse,
    Starvation,
    RunawayQueue,
    Truncated,
    Poisoned,
}

/// One collapse indicator in one probe cell (`probe` is its key).
#[derive(Clone, Debug)]
pub struct Finding {
    pub probe: String,
    pub kind: CollapseKind,
    pub detail: String,
}

/// The collapse indicators of one probe cell, run by run, flow by flow,
/// check by check. A flow is judged once it was ON for longer than the
/// path's minimum RTT.
pub fn judge_collapse(cell: &PointOutcome) -> Vec<Finding> {
    use CollapseKind::*;
    let net = &cell.point.net;
    let rtt = net.min_rtt(0).as_secs_f64();
    let no_drop = net.links.iter().all(|l| l.queue == QueueSpec::infinite());
    let mut found: Vec<(CollapseKind, String)> = (cell.poisoned.iter())
        .map(|(seed, msg)| (Poisoned, format!("seed {seed}: {msg}")))
        .collect();
    for run in &cell.runs {
        if run.truncated {
            let events = run.events_processed;
            found.push((Truncated, format!("stopped after {events} events")));
        }
        let share = net.links[0].rate_bps / run.flows.len() as f64;
        let starve_below = (share * MIN_SHARE_FRACTION).min(STARVATION_FLOOR_BPS);
        for f in run.flows.iter().filter(|f| f.on_time_s > rtt) {
            let (flow, retx, delivered) = (f.flow, f.retransmissions, f.packets_delivered);
            // 0/0 is NaN, which no threshold flags; r/0 is infinite.
            let ratio = retx as f64 / delivered as f64;
            if ratio > MAX_RETX_RATIO {
                let d = format!("retx/delivered = {ratio:.2} ({retx} retx, {delivered} delivered)");
                found.push((RetransmissionCollapse, format!("flow {flow}: {d}")));
            }
            let tpt = f.throughput_bps;
            if tpt < starve_below {
                let d = format!("{tpt:.0} bps below starvation line {starve_below:.0} bps");
                found.push((Starvation, format!("flow {flow}: {d} (share {share:.0})")));
            }
            let qd = f.avg_queueing_delay_s;
            if no_drop && qd > MAX_QUEUE_RTT_MULTIPLE * rtt {
                let d = format!("queueing delay {qd:.2}s > {MAX_QUEUE_RTT_MULTIPLE}x RTT");
                found.push((RunawayQueue, format!("flow {flow}: {d}")));
            }
        }
    }
    let probe = cell.key();
    (found.into_iter())
        .map(|(kind, detail)| Finding {
            probe: probe.to_string(),
            kind,
            detail,
        })
        .collect()
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

    /// The judge's findings on the seed-0 cell of every probe, cut to
    /// `duration_s` simulated seconds.
    fn short_check(tree: protocols::WhiskerTree, duration_s: f64) -> Vec<Finding> {
        let points = collapse_probes(&Scheme::tao(tree, "probe"))
            .into_iter()
            .step_by(PROBE_SEEDS as usize)
            .map(|p| SweepPoint { duration_s, ..p })
            .collect();
        execute_sweep(points, 0)
            .iter()
            .flat_map(judge_collapse)
            .collect()
    }

    #[test]
    fn sane_protocol_passes() {
        // window <- 0.5w + 1, lightly paced: steady 2-packet window,
        // harmless even on the 2-packet adversarial buffer.
        let tree = protocols::WhiskerTree::uniform(protocols::Action::new(0.5, 1.0, 2.0));
        let findings = short_check(tree, 5.0);
        assert!(findings.is_empty(), "sane protocol flagged: {findings:?}");
    }

    #[test]
    fn blaster_is_flagged() {
        // Maximal aggression with negligible pacing: floods every buffer.
        // Its event rate grows with its window (a 3 s heavy-mux run makes
        // 78 M events), so one simulated second has to show it.
        let tree = protocols::WhiskerTree::uniform(protocols::Action::new(2.0, 32.0, 0.002));
        let findings = short_check(tree, 1.0);
        assert!(findings.iter().any(|v| matches!(
            v.kind,
            CollapseKind::RetransmissionCollapse | CollapseKind::RunawayQueue
        )));
    }

    #[test]
    fn zombie_is_flagged_as_starved() {
        // A protocol that effectively never sends (maximal pacing).
        let tree = protocols::WhiskerTree::uniform(protocols::Action::new(0.0, 0.0, 1000.0));
        let findings = short_check(tree, 5.0);
        assert!(findings.iter().any(|v| v.kind == CollapseKind::Starvation));
    }

    #[test]
    fn poisoned_and_truncated_cells_are_flagged() {
        // A cell measures only if it ran to its duration: a panicked cell
        // has no runs to judge, and a truncated run covers a prefix.
        let mut point = collapse_probes(&Scheme::NewReno).swap_remove(0);
        point.duration_s = 0.5;
        let mut broken = point.clone();
        broken.schemes.pop(); // one scheme short of the flows: the cell panics
        let mut cells = execute_sweep(vec![point, broken], 0);
        cells[0].runs[0].truncated = true;
        let kinds: Vec<CollapseKind> = cells
            .iter()
            .flat_map(judge_collapse)
            .map(|f| f.kind)
            .collect();
        assert_eq!(kinds, [CollapseKind::Truncated, CollapseKind::Poisoned]);
    }

    #[test]
    fn collapse_findings_are_pinned() {
        // Every finding on the calibration Tao, bit for bit, as the
        // five-probe check reported them before it ran on the sweep.
        const ASSET: &str = "tao-calibration";
        let path = remy::serialize::asset_path(ASSET);
        let tree = remy::serialize::load(&path).expect("committed asset").tree;
        let cells = execute_sweep(collapse_probes(&Scheme::tao(tree, ASSET)), 0);
        assert_eq!(cells.iter().map(|c| c.runs.len()).sum::<usize>(), 10);
        let findings: Vec<Finding> = cells.iter().flat_map(judge_collapse).collect();
        assert_eq!(findings.len(), 234);
        let digest = findings.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            format!("{}|{:?}|{}\n", v.probe, v.kind, v.detail)
                .bytes()
                .fold(h, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        });
        assert_eq!(digest, 0x0be2_7282_4c2d_76ec, "{ASSET} findings moved");
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
