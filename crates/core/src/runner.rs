//! Test-side execution: run protocol mixes on concrete networks, and the
//! generic sweep engine every experiment executes on.
//!
//! The experiments (§4) evaluate each scheme on *testing scenarios* —
//! concrete networks swept over a parameter — and summarize per-flow
//! throughput and queueing delay across several seeded runs (the ellipses
//! of Figs 1, 7 and 9 are 1-σ ranges over such runs).
//!
//! # The sweep engine
//!
//! An experiment's [`sweep`](crate::experiments::Experiment::sweep) is pure
//! *data*: a list of [`SweepPoint`]s, each a `(network, scheme mix, seed
//! range)` cell description. [`execute_sweep`] expands the points into
//! `(point, seed)` cells and runs them on [`remy::eval::try_map_indexed`],
//! the scoped work-stealing map training evaluates its scenario batches
//! on, so test-side sweeps use every core the way training does. Per-cell
//! results land in index-ordered slots and are merged in input order, so
//! the outcome is **bit-identical for any thread count**, and a cell that
//! panics becomes a flagged hole ([`PointOutcome::poisoned`]) instead of
//! taking the sweep down. A cell that repeats an earlier cell of the same
//! sweep — same network, protocols, seed, duration and trace request,
//! whatever its key, axis position or Tao label — is simulated once: runs
//! are pure functions of those inputs, so the repeat gets a copy of the
//! outcome.

use netsim::prelude::*;
use netsim::trace::Trace;
use netsim::transport::CongestionControl;
use protocols::compiled::CompiledTree;
use protocols::{Cubic, NewReno, Pcc, SignalMask, TaoCc, Vegas, WhiskerTree};
use remy::eval::try_map_indexed;
use std::collections::HashMap;
use std::sync::Arc;

/// A congestion-control scheme under test.
#[derive(Clone)]
pub enum Scheme {
    /// A Tao protocol (optionally with a §3.4 signal-knockout mask).
    Tao {
        tree: WhiskerTree,
        mask: SignalMask,
        label: String,
    },
    /// TCP Cubic over whatever queue the network defines.
    Cubic,
    /// TCP NewReno (the paper's AIMD incumbent).
    NewReno,
    /// TCP Vegas: delay-based, so non-congestive loss costs it less
    /// window than the loss-based incumbents (the bursty-loss foil).
    Vegas,
    /// PCC-style online learner: rate micro-experiments scored by a
    /// utility function, no offline training (the learned-online foil
    /// to the offline-designed Tao protocols).
    Pcc,
}

impl Scheme {
    pub fn tao(tree: WhiskerTree, label: impl Into<String>) -> Self {
        Scheme::Tao {
            tree,
            mask: SignalMask::all(),
            label: label.into(),
        }
    }

    /// The scheme family (`tao` covers every trained Tao variant).
    pub fn family(&self) -> &'static str {
        match self {
            Scheme::Tao { .. } => "tao",
            Scheme::Cubic => "cubic",
            Scheme::NewReno => "newreno",
            Scheme::Vegas => "vegas",
            Scheme::Pcc => "pcc",
        }
    }

    pub fn label(&self) -> String {
        match self {
            Scheme::Tao { label, .. } => label.clone(),
            fixed => fixed.family().into(),
        }
    }

    /// Whether `self` and `other` build the same controller: a Tao's
    /// label only names it.
    fn same_protocol(&self, other: &Scheme) -> bool {
        match (self, other) {
            (
                Scheme::Tao { tree, mask, .. },
                Scheme::Tao {
                    tree: t, mask: m, ..
                },
            ) => mask == m && tree == t,
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }

    pub fn build(&self) -> Box<dyn CongestionControl> {
        match self {
            Scheme::Tao { tree, mask, label } => {
                Box::new(TaoCc::with_mask(tree.clone(), *mask, label.clone()))
            }
            Scheme::Cubic => Box::new(Cubic::new()),
            Scheme::NewReno => Box::new(NewReno::new()),
            Scheme::Vegas => Box::new(Vegas::new()),
            Scheme::Pcc => Box::new(Pcc::new()),
        }
    }
}

/// Build one congestion-control instance per flow, compiling each
/// distinct Tao tree exactly once and sharing the compiled arena (and the
/// label) across all its senders. [`Scheme::build`] compiles per call,
/// which is fine for ten flows and pathological for a 10^4-sender
/// `many_flows` cell — the homogeneous scheme vector would clone and
/// flatten the identical tree ten thousand times.
pub fn build_protocols(schemes: &[Scheme]) -> Vec<Box<dyn CongestionControl>> {
    let mut compiled: Vec<(&WhiskerTree, SignalMask, Arc<CompiledTree>)> = Vec::new();
    let mut names: Vec<Arc<str>> = Vec::new();
    schemes
        .iter()
        .map(|s| -> Box<dyn CongestionControl> {
            match s {
                Scheme::Tao { tree, mask, label } => {
                    let shared = compiled
                        .iter()
                        .find(|(t, m, _)| *m == *mask && *t == tree)
                        .map(|(_, _, c)| c.clone())
                        .unwrap_or_else(|| {
                            let c = CompiledTree::compile_shared(tree);
                            compiled.push((tree, *mask, c.clone()));
                            c
                        });
                    let name = match names.iter().find(|n| ***n == **label) {
                        Some(n) => n.clone(),
                        None => {
                            names.push(label.as_str().into());
                            names[names.len() - 1].clone()
                        }
                    };
                    Box::new(TaoCc::from_compiled(shared, *mask, name))
                }
                other => other.build(),
            }
        })
        .collect()
}

/// A gateway queue discipline a sweep cell can select per network (the
/// scenario-diversity AQM axis). Every variant maps onto a concrete
/// [`QueueSpec`] of the same byte capacity via [`with_aqm`], so the same
/// topology can be evaluated under each discipline with nothing else
/// changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AqmKind {
    /// FIFO drop-tail (the discipline every Tao is trained against).
    DropTail,
    /// Random Early Detection, gentle variant, thresholds scaled to the
    /// buffer's packet capacity.
    Red,
    /// A single CoDel-managed FIFO (5 ms target / 100 ms interval).
    Codel,
    /// Stochastic fair queueing with per-bin CoDel (the paper's sfqCoDel).
    SfqCodel,
}

impl AqmKind {
    /// Every discipline, in table order.
    pub const ALL: [AqmKind; 4] = [
        AqmKind::DropTail,
        AqmKind::Red,
        AqmKind::Codel,
        AqmKind::SfqCodel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AqmKind::DropTail => "droptail",
            AqmKind::Red => "red",
            AqmKind::Codel => "codel",
            AqmKind::SfqCodel => "sfqcodel",
        }
    }
}

/// Replace every queue in a network with the chosen AQM discipline at the
/// same byte capacity. Infinite buffers get a finite 5-BDP stand-in (every
/// AQM here needs a real buffer to manage; drop-tail keeps `None`).
pub fn with_aqm(net: &NetworkConfig, kind: AqmKind) -> NetworkConfig {
    let mut out = net.clone();
    for link in &mut out.links {
        let cap = link.queue_capacity_or_bdp(5.0);
        link.queue = match kind {
            AqmKind::DropTail => QueueSpec::DropTail {
                capacity_bytes: link.queue.capacity_bytes(),
            },
            AqmKind::Red => {
                let params = netsim::red::RedParams::for_capacity((cap / 1500) as usize);
                QueueSpec::Red {
                    capacity_bytes: cap,
                    min_th: params.min_th,
                    max_th: params.max_th,
                    max_p: params.max_p,
                }
            }
            AqmKind::Codel => QueueSpec::Codel {
                capacity_bytes: cap,
                target_ms: 5.0,
                interval_ms: 100.0,
            },
            AqmKind::SfqCodel => QueueSpec::SfqCodel {
                capacity_bytes: cap,
                target_ms: 5.0,
                interval_ms: 100.0,
                bins: 1024,
            },
        };
    }
    out
}

/// Replace every finite drop-tail queue in a network with sfqCoDel of the
/// same byte capacity (the "Cubic-over-sfqCoDel" configuration: sfqCoDel
/// runs at the bottleneck gateways). Infinite buffers get a finite 5-BDP
/// stand-in — sfqCoDel needs a shared finite pool.
pub fn with_sfq_codel(net: &NetworkConfig) -> NetworkConfig {
    with_aqm(net, AqmKind::SfqCodel)
}

/// Event cap for every test-side simulation (protects sweeps against
/// degenerate protocol settings; training has its own budget knob).
/// Public because certificate replay (`crate::search::replay`) must apply
/// the exact budget the sweep engine used to reproduce scores bit for bit.
pub const TEST_EVENT_BUDGET: u64 = 200_000_000;

/// Run one mix of schemes (one per flow) on a network.
pub fn run_mix(net: &NetworkConfig, schemes: &[Scheme], seed: u64, duration_s: f64) -> RunOutcome {
    assert_eq!(schemes.len(), net.flows.len(), "one scheme per flow");
    let protocols = build_protocols(schemes);
    let mut sim = Simulation::new(net, protocols, seed);
    sim.set_event_budget(TEST_EVENT_BUDGET);
    sim.run(SimDuration::from_secs_f64(duration_s))
}

/// Run the same scheme on every flow.
pub fn run_homogeneous(
    net: &NetworkConfig,
    scheme: &Scheme,
    seed: u64,
    duration_s: f64,
) -> RunOutcome {
    let schemes = vec![scheme.clone(); net.flows.len()];
    run_mix(net, &schemes, seed, duration_s)
}

/// Run a mix over several seeds.
pub fn run_seeds(
    net: &NetworkConfig,
    schemes: &[Scheme],
    seeds: std::ops::Range<u64>,
    duration_s: f64,
) -> Vec<RunOutcome> {
    seeds
        .map(|seed| run_mix(net, schemes, seed, duration_s))
        .collect()
}

// ---------------------------------------------------------------------------
// The declarative sweep engine.
// ---------------------------------------------------------------------------

/// Request queue-occupancy tracing for a cell (Fig 8-style time-domain
/// points).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpec {
    /// Link indices to sample.
    pub links: Vec<usize>,
    /// Sampling period in milliseconds.
    pub interval_ms: f64,
}

/// One point of an experiment's sweep: a concrete network, the scheme mix
/// on its flows, and the seed range to run. Everything an experiment
/// evaluates is a list of these — data the engine can enumerate,
/// parallelize, and merge deterministically.
#[derive(Clone)]
pub struct SweepPoint {
    /// Experiment-specific routing key for `summarize` (e.g. the series
    /// name, or `"panel|series"`).
    pub key: String,
    /// Position along the sweep axis (0.0 for table-style points).
    pub x: f64,
    /// Seeds this cell is repeated over.
    pub seeds: std::ops::Range<u64>,
    pub net: NetworkConfig,
    /// One scheme per flow of `net`.
    pub schemes: Vec<Scheme>,
    /// Simulated seconds per run.
    pub duration_s: f64,
    /// Optional queue tracing (exempt from `--seeds` overrides: traces
    /// are illustrative single runs, not statistics).
    pub trace: Option<TraceSpec>,
}

impl SweepPoint {
    /// Whether a seed runs the same simulation under `self` and `other`:
    /// everything [`run_cell`] reads but the key, the axis position and
    /// the seed range. Cheap fields first; a 10⁴-flow network compares
    /// last.
    fn same_simulation(&self, other: &SweepPoint) -> bool {
        self.duration_s == other.duration_s
            && self.trace == other.trace
            && self.schemes.len() == other.schemes.len()
            && self.net.links == other.net.links
            && self
                .schemes
                .iter()
                .zip(&other.schemes)
                .all(|(a, b)| a.same_protocol(b))
            && self.net == other.net
    }

    /// Point running `scheme` on every flow of `net`.
    pub fn homogeneous(
        key: impl Into<String>,
        x: f64,
        net: NetworkConfig,
        scheme: Scheme,
        seeds: std::ops::Range<u64>,
        duration_s: f64,
    ) -> Self {
        let schemes = vec![scheme; net.flows.len()];
        SweepPoint {
            key: key.into(),
            x,
            seeds,
            net,
            schemes,
            duration_s,
            trace: None,
        }
    }

    /// Point running an explicit per-flow mix.
    pub fn mix(
        key: impl Into<String>,
        x: f64,
        net: NetworkConfig,
        schemes: Vec<Scheme>,
        seeds: std::ops::Range<u64>,
        duration_s: f64,
    ) -> Self {
        SweepPoint {
            key: key.into(),
            x,
            seeds,
            net,
            schemes,
            duration_s,
            trace: None,
        }
    }
}

/// All runs of one [`SweepPoint`], in seed order.
pub struct PointOutcome {
    pub point: SweepPoint,
    /// One outcome per *successful* seed, in `point.seeds` order (seeds
    /// whose cell panicked are listed in `poisoned` instead).
    pub runs: Vec<RunOutcome>,
    /// Queue traces per seed (populated only when `point.trace` is set),
    /// indexed like `runs`.
    pub traces: Vec<Option<Trace>>,
    /// `(seed, panic message)` of cells that panicked: the sweep engine
    /// degrades one crashing cell into a flagged hole instead of taking
    /// the whole sweep down (or deadlocking a poisoned slot mutex).
    pub poisoned: Vec<(u64, String)>,
}

impl PointOutcome {
    pub fn key(&self) -> &str {
        &self.point.key
    }

    pub fn x(&self) -> f64 {
        self.point.x
    }

    /// Per-flow scheme labels (flow `i` ran `schemes[i]`).
    pub fn flow_labels(&self) -> Vec<String> {
        self.point.schemes.iter().map(|s| s.label()).collect()
    }

    /// Distinct scheme labels in flow order (the "sides" of a mixed-
    /// population table row).
    pub fn unique_labels(&self) -> Vec<String> {
        let mut uniq: Vec<String> = Vec::new();
        for l in self.flow_labels() {
            if !uniq.contains(&l) {
                uniq.push(l);
            }
        }
        uniq
    }

    /// Per-flow (throughput Mbps, queueing delay ms) of flows whose scheme
    /// label equals `label`, across all seeds.
    pub fn flow_points_labeled(&self, label: &str) -> (Vec<f64>, Vec<f64>) {
        let labels = self.flow_labels();
        flow_points(&self.runs, |f| {
            labels.get(f).map(String::as_str) == Some(label)
        })
    }
}

fn run_cell(point: &SweepPoint, seed: u64) -> (RunOutcome, Option<Trace>) {
    assert_eq!(
        point.schemes.len(),
        point.net.flows.len(),
        "one scheme per flow (point '{}')",
        point.key
    );
    let protocols = build_protocols(&point.schemes);
    let mut sim = Simulation::new(&point.net, protocols, seed);
    sim.set_event_budget(TEST_EVENT_BUDGET);
    if let Some(tr) = &point.trace {
        sim.enable_trace(
            tr.links.iter().map(|&l| LinkId(l as u32)).collect(),
            SimDuration::from_millis_f64(tr.interval_ms),
        );
    }
    let run = sim.run(SimDuration::from_secs_f64(point.duration_s));
    let trace = sim.take_trace();
    (run, trace)
}

/// Execute a sweep: expand every point into `(point, seed)` cells, run
/// each distinct one on the work-stealing map (`threads == 0` uses all
/// cores) — a cell repeating an earlier one gets a copy of its outcome —
/// and merge outcomes back per point in seed order. Deterministic: the
/// merge is index-ordered, so results are bit-identical for any thread
/// count.
pub fn execute_sweep(points: Vec<SweepPoint>, threads: usize) -> Vec<PointOutcome> {
    let cells: Vec<(usize, u64)> = points
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| p.seeds.clone().map(move |s| (pi, s)))
        .collect();
    let first = first_equal_cells(&points, &cells);
    let distinct: Vec<usize> = (0..cells.len()).filter(|&i| first[i] == i).collect();
    let ran = try_map_indexed(distinct.len(), threads, |k| {
        let (pi, seed) = cells[distinct[k]];
        run_cell(&points[pi], seed)
    });
    // Each distinct cell's outcome, and how many cells want it: the last
    // one takes it, the others get a copy.
    let mut results = vec![None; cells.len()];
    for (i, result) in distinct.into_iter().zip(ran) {
        results[i] = Some(result);
    }
    let mut wanted = vec![0usize; cells.len()];
    for &f in &first {
        wanted[f] += 1;
    }
    let mut out: Vec<PointOutcome> = points
        .into_iter()
        .map(|point| PointOutcome {
            point,
            runs: Vec::new(),
            traces: Vec::new(),
            poisoned: Vec::new(),
        })
        .collect();
    for ((pi, seed), f) in cells.into_iter().zip(first) {
        wanted[f] -= 1;
        let result = match wanted[f] {
            0 => results[f].take(),
            _ => results[f].clone(),
        }
        .expect("a distinct cell's outcome is taken by its last user");
        match result {
            Ok((run, trace)) => {
                out[pi].runs.push(run);
                out[pi].traces.push(trace);
            }
            Err(msg) => out[pi].poisoned.push((seed, msg)),
        }
    }
    out
}

/// For each `(point, seed)` cell, the first cell of the sweep that runs
/// the same simulation ([`SweepPoint::same_simulation`] and the same
/// seed) — itself, unless it repeats an earlier one.
fn first_equal_cells(points: &[SweepPoint], cells: &[(usize, u64)]) -> Vec<usize> {
    // Each point's first equal point stands for its whole class.
    let class: Vec<usize> = (0..points.len())
        .map(|pi| {
            (0..pi)
                .find(|&pj| points[pj].same_simulation(&points[pi]))
                .unwrap_or(pi)
        })
        .collect();
    let mut seen = HashMap::new();
    cells
        .iter()
        .enumerate()
        .map(|(i, &(pi, seed))| *seen.entry((class[pi], seed)).or_insert(i))
        .collect()
}

/// Mean / standard deviation / median of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SummaryStat {
    pub mean: f64,
    pub std: f64,
    pub median: f64,
    pub n: usize,
}

pub fn summarize(xs: &[f64]) -> SummaryStat {
    if xs.is_empty() {
        return SummaryStat {
            mean: 0.0,
            std: 0.0,
            median: 0.0,
            n: 0,
        };
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    SummaryStat {
        mean,
        std: var.sqrt(),
        median,
        n: xs.len(),
    }
}

/// Per-flow (throughput Mbps, queueing delay ms) pairs from a set of runs,
/// restricted to flows selected by `keep`.
pub fn flow_points(outcomes: &[RunOutcome], keep: impl Fn(usize) -> bool) -> (Vec<f64>, Vec<f64>) {
    let mut tpt = Vec::new();
    let mut qd = Vec::new();
    for run in outcomes {
        for f in &run.flows {
            if keep(f.flow) && f.on_time_s > 0.0 {
                tpt.push(f.throughput_bps / 1e6);
                qd.push(f.avg_queueing_delay_s * 1e3);
            }
        }
    }
    (tpt, qd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::topology::dumbbell;
    use netsim::workload::WorkloadSpec;
    use protocols::Action;

    fn net() -> NetworkConfig {
        dumbbell(
            2,
            10e6,
            0.100,
            QueueSpec::drop_tail_bdp(10e6, 0.100, 5.0),
            WorkloadSpec::AlwaysOn,
        )
    }

    #[test]
    fn cubic_fills_a_dumbbell() {
        let out = run_homogeneous(&net(), &Scheme::Cubic, 3, 30.0);
        let total: f64 = out.flows.iter().map(|f| f.throughput_bps).sum();
        assert!(total > 8.5e6, "Cubic should saturate 10 Mbps, got {total}");
    }

    #[test]
    fn newreno_fills_a_dumbbell() {
        let out = run_homogeneous(&net(), &Scheme::NewReno, 3, 30.0);
        let total: f64 = out.flows.iter().map(|f| f.throughput_bps).sum();
        assert!(total > 8.0e6, "NewReno total {total}");
    }

    #[test]
    fn sfq_codel_cuts_cubic_queueing_delay() {
        let fifo = net();
        let sfq = with_sfq_codel(&fifo);
        let out_fifo = run_homogeneous(&fifo, &Scheme::Cubic, 7, 30.0);
        let out_sfq = run_homogeneous(&sfq, &Scheme::Cubic, 7, 30.0);
        let qd_fifo: f64 = out_fifo
            .flows
            .iter()
            .map(|f| f.avg_queueing_delay_s)
            .sum::<f64>()
            / 2.0;
        let qd_sfq: f64 = out_sfq
            .flows
            .iter()
            .map(|f| f.avg_queueing_delay_s)
            .sum::<f64>()
            / 2.0;
        assert!(
            qd_sfq < qd_fifo * 0.5,
            "CoDel should slash standing queues: fifo={qd_fifo:.4}s sfq={qd_sfq:.4}s"
        );
    }

    #[test]
    fn mixed_schemes_per_flow() {
        let schemes = [
            Scheme::tao(WhiskerTree::uniform(Action::new(1.0, 1.0, 1.0)), "tao-demo"),
            Scheme::NewReno,
        ];
        let out = run_mix(&net(), &schemes, 5, 20.0);
        assert!(out.flows[0].bytes_delivered > 0);
        assert!(out.flows[1].bytes_delivered > 0);
    }

    #[test]
    fn summarize_stats() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 22.0).abs() < 1e-12);
        assert_eq!(s.median, 3.0);
        assert!(s.std > 30.0);
        let even = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median, 2.5);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn flow_points_filters() {
        let out = run_seeds(&net(), &[Scheme::Cubic, Scheme::Cubic], 0..3, 10.0);
        let (tpt_all, _) = flow_points(&out, |_| true);
        let (tpt_f0, _) = flow_points(&out, |f| f == 0);
        assert_eq!(tpt_all.len(), 6);
        assert_eq!(tpt_f0.len(), 3);
    }

    #[test]
    fn sfq_conversion_gives_infinite_buffers_a_cap() {
        let inf = dumbbell(1, 8e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        let sfq = with_sfq_codel(&inf);
        match sfq.links[0].queue {
            QueueSpec::SfqCodel { capacity_bytes, .. } => assert!(capacity_bytes > 0),
            _ => panic!("expected sfqCoDel"),
        }
    }

    #[test]
    fn sfq_conversion_preserves_finite_capacity() {
        let fifo = net();
        let sfq = with_sfq_codel(&fifo);
        assert_eq!(
            sfq.links[0].queue.capacity_bytes(),
            fifo.links[0].queue.capacity_bytes()
        );
    }

    #[test]
    fn with_aqm_converts_every_discipline_at_same_capacity() {
        let fifo = net();
        let cap = fifo.links[0].queue.capacity_bytes();
        for kind in AqmKind::ALL {
            let converted = with_aqm(&fifo, kind);
            converted.validate().unwrap();
            assert_eq!(
                converted.links[0].queue.capacity_bytes(),
                cap,
                "{} keeps the buffer size",
                kind.name()
            );
        }
        // AQMs give infinite buffers a finite stand-in; drop-tail keeps None
        let inf = dumbbell(1, 8e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        assert_eq!(
            with_aqm(&inf, AqmKind::DropTail).links[0]
                .queue
                .capacity_bytes(),
            None
        );
        for kind in [AqmKind::Red, AqmKind::Codel, AqmKind::SfqCodel] {
            assert!(with_aqm(&inf, kind).links[0]
                .queue
                .capacity_bytes()
                .is_some());
        }
    }

    #[test]
    fn aqm_disciplines_all_sustain_cubic() {
        // Smoke: every discipline carries traffic on the standard dumbbell.
        for kind in AqmKind::ALL {
            let out = run_homogeneous(&with_aqm(&net(), kind), &Scheme::Cubic, 3, 20.0);
            let total: f64 = out.flows.iter().map(|f| f.throughput_bps).sum();
            assert!(total > 5e6, "{}: total {total}", kind.name());
        }
    }

    #[test]
    fn parallel_map_is_index_ordered_for_any_thread_count() {
        let serial = try_map_indexed(17, 1, |i| i * i);
        assert_eq!(serial, (0..17).map(|i| Ok(i * i)).collect::<Vec<_>>());
        for threads in [2usize, 4, 16] {
            let par = try_map_indexed(17, threads, |i| i * i);
            assert_eq!(par, serial, "threads={threads}");
        }
        assert!(try_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn panicking_cell_fails_that_cell_not_the_pool() {
        // One deliberately panicking index must not poison the slot mutex
        // or hang the merge: every other index completes, and the panic
        // message survives verbatim.
        for threads in [1usize, 2, 8] {
            let results = try_map_indexed(9, threads, |i| {
                if i == 4 {
                    panic!("cell {i} exploded deliberately");
                }
                i * 10
            });
            assert_eq!(results.len(), 9, "threads={threads}");
            for (i, r) in results.iter().enumerate() {
                if i == 4 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(
                        msg.contains("cell 4 exploded deliberately"),
                        "panic message preserved, got: {msg}"
                    );
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10);
                }
            }
        }
    }

    #[test]
    fn sweep_survives_a_poisoned_cell() {
        // A config the validator rejects panics inside Simulation::new;
        // the sweep must degrade that point to a flagged hole while the
        // healthy point runs to completion.
        let mut bad_net = net();
        bad_net.flows[0].route = vec![];
        let bad = SweepPoint::homogeneous("bad", 0.0, bad_net, Scheme::Cubic, 0..2, 4.0);
        let good = SweepPoint::homogeneous("good", 0.0, net(), Scheme::Cubic, 0..2, 4.0);
        let outs = execute_sweep(vec![bad, good], 2);
        assert_eq!(outs[0].runs.len(), 0);
        assert_eq!(outs[0].poisoned.len(), 2, "both seeds poisoned");
        assert_eq!(outs[0].poisoned[0].0, 0, "seed recorded");
        assert!(
            outs[0].poisoned[0].1.contains("invalid network config"),
            "validator message preserved: {}",
            outs[0].poisoned[0].1
        );
        assert_eq!(outs[1].runs.len(), 2, "healthy point unaffected");
        assert!(outs[1].poisoned.is_empty());
    }

    #[test]
    fn vegas_scheme_runs_and_labels() {
        assert_eq!(Scheme::Vegas.label(), "vegas");
        let out = run_homogeneous(&net(), &Scheme::Vegas, 3, 20.0);
        let total: f64 = out.flows.iter().map(|f| f.throughput_bps).sum();
        assert!(total > 3e6, "Vegas should carry traffic, got {total}");
    }

    #[test]
    fn sweep_engine_is_thread_count_invariant() {
        let points: Vec<SweepPoint> = [2.0, 6.0]
            .iter()
            .map(|&mbps| {
                SweepPoint::homogeneous(
                    format!("cubic@{mbps}"),
                    mbps,
                    dumbbell(
                        2,
                        mbps * 1e6,
                        0.100,
                        QueueSpec::drop_tail_bdp(mbps * 1e6, 0.100, 5.0),
                        WorkloadSpec::AlwaysOn,
                    ),
                    Scheme::Cubic,
                    0..3,
                    8.0,
                )
            })
            .collect();
        let digest = |outs: &[PointOutcome]| -> Vec<(String, usize, Vec<u64>, Vec<u64>)> {
            outs.iter()
                .map(|p| {
                    (
                        p.key().to_string(),
                        p.runs.len(),
                        p.runs.iter().map(|r| r.events_processed).collect(),
                        p.runs
                            .iter()
                            .flat_map(|r| r.flows.iter().map(|f| f.bytes_delivered))
                            .collect(),
                    )
                })
                .collect()
        };
        let serial = digest(&execute_sweep(points.clone(), 1));
        let parallel = digest(&execute_sweep(points.clone(), 4));
        assert_eq!(serial, parallel, "merge must be index-ordered");
        // sanity: runs are grouped per point in seed order
        assert_eq!(serial[0].1, 3);
    }

    #[test]
    fn sweep_runs_each_distinct_cell_once() {
        let tao = |increment: f64, label: &str| {
            Scheme::tao(
                WhiskerTree::uniform(Action::new(1.0, increment, 1.0)),
                label,
            )
        };
        let a = SweepPoint::homogeneous("a", 0.0, net(), tao(1.0, "first"), 0..2, 4.0);
        // The same simulations under another key, position and label.
        let b = SweepPoint::homogeneous("b", 1.0, net(), tao(1.0, "second"), 1..3, 4.0);
        // Differs from `a` only in its trace request.
        let mut c = a.clone();
        c.trace = Some(TraceSpec {
            links: vec![0],
            interval_ms: 100.0,
        });
        // Another protocol under the same label.
        let d = SweepPoint::homogeneous("d", 0.0, net(), tao(2.0, "first"), 0..1, 4.0);
        let points = vec![a, b, c, d];
        let cells: Vec<(usize, u64)> = points
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| p.seeds.clone().map(move |s| (pi, s)))
            .collect();
        assert_eq!(
            first_equal_cells(&points, &cells),
            vec![0, 1, 1, 3, 4, 5, 6],
            "only b's seed 1 repeats a cell"
        );
        let outs = execute_sweep(points.clone(), 2);
        let fingerprint = |r: &RunOutcome| {
            let delivered: Vec<u64> = r.flows.iter().map(|f| f.bytes_delivered).collect();
            (r.events_processed, delivered)
        };
        assert_eq!(fingerprint(&outs[0].runs[1]), fingerprint(&outs[1].runs[0]));
        for (run, seed) in outs[1].runs.iter().zip(1..) {
            assert_eq!(fingerprint(run), fingerprint(&run_cell(&points[1], seed).0));
        }
        assert_eq!(outs[1].flow_labels()[0], "second");
        assert!(outs[0].traces.iter().all(Option::is_none));
        assert!(
            outs[2].traces.iter().all(Option::is_some),
            "c traced its own runs"
        );
        assert_ne!(fingerprint(&outs[3].runs[0]), fingerprint(&outs[0].runs[0]));
    }

    #[test]
    fn sweep_traces_only_when_requested() {
        let mut traced = SweepPoint::homogeneous("t", 0.0, net(), Scheme::Cubic, 0..1, 4.0);
        traced.trace = Some(TraceSpec {
            links: vec![0],
            interval_ms: 100.0,
        });
        let plain = SweepPoint::homogeneous("p", 0.0, net(), Scheme::Cubic, 0..1, 4.0);
        let outs = execute_sweep(vec![traced, plain], 2);
        assert!(outs[0].traces[0].is_some(), "trace requested");
        assert!(outs[1].traces[0].is_none(), "no trace requested");
        let tr = outs[0].traces[0].as_ref().unwrap();
        assert!(!tr.series[0].is_empty(), "samples recorded");
    }

    #[test]
    fn point_outcome_label_filtering() {
        let p = SweepPoint::mix(
            "mix",
            0.0,
            net(),
            vec![Scheme::Cubic, Scheme::NewReno],
            0..2,
            8.0,
        );
        let outs = execute_sweep(vec![p], 2);
        assert_eq!(outs[0].unique_labels(), vec!["cubic", "newreno"]);
        let (cubic_tpt, _) = outs[0].flow_points_labeled("cubic");
        let (reno_tpt, _) = outs[0].flow_points_labeled("newreno");
        assert_eq!(cubic_tpt.len(), 2, "one cubic flow x two seeds");
        assert_eq!(reno_tpt.len(), 2);
        assert!(outs[0].flow_points_labeled("absent").0.is_empty());
    }
}
