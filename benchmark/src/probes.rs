//! Layer probes (**P**) and differential runs (**D**): isolated drivers
//! over one layer's public functions, with inputs shaped like the
//! workload the README names for each. They take a few seconds in all
//! and run once per traced run, after the traced pass.
//!
//! A probe reports the median of five timings. A differential run
//! times one seeded scenario twice with a single layer swapped and
//! reports the ratio of host time per event.

use crate::stats::median;
use crate::train_calibration::TrainCalibration;
use crate::workload::{load_asset, Scale};
use lcc_core::report::FigureData;
use lcc_core::runner::{build_protocols, execute_sweep, Scheme, SweepPoint};
use netsim::arena::PacketArena;
use netsim::event::{Event, EventQueue};
use netsim::link::{Link, Offer};
use netsim::prelude::*;
use netsim::seqtrack::SeqTracker;
use netsim::transport::Transport;
use protocols::{CompiledTree, WhiskerTree};
use remy::{EvalPool, ScenarioSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The Tao the probes drive: the calibration Tao on the calibration
/// dumbbell, the shape of most `figures_quick` cells.
pub const TAO_ASSET: &str = "tao-calibration";

/// How hard the probes work: timings per reported median, and the
/// divisor applied to every iteration count and simulated duration.
#[derive(Clone, Copy)]
struct Effort {
    reps: usize,
    shrink: u64,
}

impl Effort {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Effort { reps: 5, shrink: 1 },
            Scale::Tiny => Effort {
                reps: 1,
                shrink: 50,
            },
        }
    }

    fn iters(self, full: u64) -> u64 {
        (full / self.shrink).max(1)
    }

    /// Median over `reps` calls of `f`, which returns one timing.
    fn median_of(self, mut f: impl FnMut() -> f64) -> f64 {
        median(&(0..self.reps).map(|_| f()).collect::<Vec<_>>())
    }

    /// Median nanoseconds per iteration of `body`.
    fn ns_per_iter(self, full_iters: u64, mut body: impl FnMut(u64)) -> f64 {
        let iters = self.iters(full_iters);
        self.median_of(|| {
            let start = Instant::now();
            for i in 0..iters {
                body(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
    }

    /// Median seconds per call of `f`.
    fn seconds(self, mut f: impl FnMut()) -> f64 {
        self.median_of(|| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
    }
}

/// Deterministic stream for probe inputs (a 64-bit LCG; the probes need
/// spread, not statistical quality).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn t_ns(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

// ---------------------------------------------------------------- netsim

/// Hold model: a standing population of `held` events; each operation
/// pops the earliest and schedules one a pseudo-random gap ahead, every
/// 64th a far-future RTO-style timer. Nanoseconds per schedule + pop.
fn scheduler_hold_ns(e: Effort, kind: SchedulerKind, held: usize) -> f64 {
    let ops = e.iters(200_000);
    e.median_of(|| {
        let mut q = EventQueue::with_kind_and_hint(kind, Some(SimDuration::from_micros(300)));
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
        let mut gap = |n: u64| {
            if n % 64 == 63 {
                1_000_000_000 + rng.next() % 3_000_000_000
            } else {
                1 + rng.next() % 600_000
            }
        };
        let wake = |n: u64| Event::SenderWake {
            flow: FlowId(n as u32),
        };
        for n in 0..held as u64 {
            q.schedule(t_ns(gap(n)), wake(n));
        }
        let start = Instant::now();
        for n in 0..ops {
            let (at, ev) = q.pop().expect("a standing population");
            black_box(ev);
            q.schedule(t_ns(at.as_nanos() + gap(n)), wake(n));
        }
        start.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// `Link::offer` + `Link::tx_complete` at 1.5× offered load from eight
/// flows: the queue stays full, so the discipline's enqueue, drop and
/// dequeue paths all run. Nanoseconds per offered packet.
fn link_ns_per_pkt(e: Effort, queue: &QueueSpec) -> f64 {
    let packets = e.iters(200_000);
    const RATE_BPS: f64 = 12e6; // one data packet per millisecond
    const ARRIVAL_GAP_NS: u64 = 666_667;
    e.median_of(|| {
        let mut link = Link::new(RATE_BPS, SimDuration::from_millis(25), queue.build(7));
        let mut in_service: Option<(Packet, u64)> = None;
        let start = Instant::now();
        for n in 0..packets {
            let now = n * ARRIVAL_GAP_NS;
            while let Some((pkt, done)) = in_service.filter(|&(_, done)| done <= now) {
                in_service = link
                    .tx_complete(&pkt, t_ns(done))
                    .map(|(next, tx)| (next, done + tx.as_nanos()));
            }
            let pkt = Packet::data(FlowId((n % 8) as u32), n / 8, 0, t_ns(now), n, false);
            if let Offer::StartTx(tx) = link.offer(pkt, t_ns(now)) {
                in_service = Some((pkt, now + tx.as_nanos()));
            }
        }
        black_box(link.queue_stats());
        start.elapsed().as_nanos() as f64 / packets as f64
    })
}

/// `Transport::produce` + `Transport::on_ack` at a window of 64. With
/// `loss`, one packet in a hundred is never acknowledged, so the
/// reordering detector and the retransmit queue run. Nanoseconds per
/// acknowledgment.
fn transport_ns_per_ack(e: Effort, loss: bool) -> f64 {
    let acks = e.iters(300_000);
    e.median_of(|| {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let mut in_flight = std::collections::VecDeque::with_capacity(64);
        let mut now = 0u64;
        let start = Instant::now();
        for n in 0..acks {
            now += 10_000;
            while let Some(pkt) = tr.produce(t_ns(now), 64) {
                in_flight.push_back(pkt);
            }
            let pkt = in_flight.pop_front().expect("the window is open");
            if loss && n % 100 == 99 {
                continue;
            }
            let ack = Packet::ack_for(&pkt, t_ns(now)).as_ack();
            black_box(tr.on_ack(t_ns(now + 100_000_000), &ack));
        }
        start.elapsed().as_nanos() as f64 / acks as f64
    })
}

/// One `PacketArena::take` + `alloc` at a standing population of 4096.
fn arena_ns_per_cycle(e: Effort) -> f64 {
    let mut arena = PacketArena::new();
    let pkt = Packet::data(FlowId(0), 0, 0, SimTime::ZERO, 0, false);
    let mut ids: Vec<_> = (0..4096).map(|_| arena.alloc(pkt)).collect();
    let mut rng = Lcg(1);
    e.ns_per_iter(1_000_000, |_| {
        let slot = (rng.next() % 4096) as usize;
        let taken = arena.take(ids[slot]);
        ids[slot] = arena.alloc(black_box(taken));
    })
}

/// `SeqTracker::insert` over a near-sequential stream: one pair of
/// neighbours in every sixteen sequences arrives swapped.
fn seqtrack_ns_per_insert(e: Effort) -> f64 {
    let mut tracker = SeqTracker::new();
    let mut next = 0u64;
    e.ns_per_iter(1_000_000, |_| {
        let seq = match next % 16 {
            0 => next + 1,
            1 => next - 1,
            _ => next,
        };
        next += 1;
        black_box(tracker.insert(seq));
    })
}

/// The calibration dumbbell: 32 Mbps, 150 ms, 5 BDP of drop-tail.
fn calibration_net(senders: usize, workload: WorkloadSpec) -> NetworkConfig {
    dumbbell(
        senders,
        32e6,
        0.150,
        QueueSpec::drop_tail_bdp(32e6, 0.150, 5.0),
        workload,
    )
}

/// Host nanoseconds per event of one seeded run.
fn ns_per_event(
    net: &NetworkConfig,
    scheme: &Scheme,
    sim_seconds: u64,
    kind: SchedulerKind,
) -> f64 {
    let protocols = build_protocols(&vec![scheme.clone(); net.flows.len()]);
    let mut sim = Simulation::with_scheduler(net, protocols, 42, kind);
    let start = Instant::now();
    let run = sim.run(SimDuration::from_secs(sim_seconds));
    start.elapsed().as_nanos() as f64 / run.events_processed as f64
}

/// Differential run: host time per event of `changed` over that of
/// `base`. The two are timed back to back and the median ratio of
/// five such pairs is reported, so a slow phase of the host hits both
/// sides of a pair.
fn per_event_ratio(e: Effort, changed: impl Fn() -> f64, base: impl Fn() -> f64) -> f64 {
    e.median_of(|| {
        let b = base();
        changed() / b
    })
}

fn netsim_probes(e: Effort, out: &mut Vec<(String, f64)>) {
    let incast = crate::scale_10k::Scale10k::new(1, Scale::Full).cells[0].net();
    out.push((
        "netsim.topology.validate_us.10k".into(),
        e.seconds(|| incast.validate().expect("valid")) * 1e6,
    ));
    for held in [64, 4096, 65536] {
        out.push((
            format!("netsim.calendar.hold_ns.{held}"),
            scheduler_hold_ns(e, SchedulerKind::Calendar, held),
        ));
        out.push((
            format!("netsim.event.heap.hold_ns.{held}"),
            scheduler_hold_ns(e, SchedulerKind::Heap, held),
        ));
    }

    let tao = Scheme::tao(load_asset(TAO_ASSET).tree, "tao");
    let sparse = calibration_net(2, WorkloadSpec::on_off_1s());
    let vs_heap = |net: &NetworkConfig, scheme: &Scheme, secs: u64| {
        let secs = e.iters(secs);
        per_event_ratio(
            e,
            || ns_per_event(net, scheme, secs, SchedulerKind::Calendar),
            || ns_per_event(net, scheme, secs, SchedulerKind::Heap),
        )
    };
    out.push((
        "netsim.calendar.vs_heap.sparse".into(),
        vs_heap(&sparse, &tao, 60),
    ));
    out.push((
        "netsim.calendar.vs_heap.dense".into(),
        vs_heap(&incast, &Scheme::Cubic, 3),
    ));

    let (rate, rtt) = (12e6, 0.1);
    for (name, queue) in [
        ("droptail", QueueSpec::drop_tail_bdp(rate, rtt, 1.0)),
        ("red", QueueSpec::red_default(rate, rtt, 1.0)),
        ("codel", QueueSpec::codel_default(rate, rtt, 1.0)),
        ("sfq_codel", QueueSpec::sfq_codel_default(rate, rtt, 1.0)),
    ] {
        out.push((
            format!("netsim.link.{name}.ns_per_pkt"),
            link_ns_per_pkt(e, &queue),
        ));
    }
    out.push((
        "netsim.transport.ns_per_ack".into(),
        transport_ns_per_ack(e, false),
    ));
    out.push((
        "netsim.transport.ns_per_ack.loss".into(),
        transport_ns_per_ack(e, true),
    ));
    out.push(("netsim.arena.ns_per_cycle".into(), arena_ns_per_cycle(e)));
    out.push((
        "netsim.seqtrack.ns_per_insert".into(),
        seqtrack_ns_per_insert(e),
    ));

    // One dumbbell, the reverse tier or the receiver policy switched.
    let paper = calibration_net(4, WorkloadSpec::AlwaysOn);
    let vs_paper = |net: NetworkConfig| {
        let per_event = |n: &NetworkConfig| {
            ns_per_event(n, &Scheme::Cubic, e.iters(20), SchedulerKind::Calendar)
        };
        per_event_ratio(e, || per_event(&net), || per_event(&paper))
    };
    let reverse_queue = |r: f64, _: &LinkSpec| QueueSpec::drop_tail_bdp(r, 0.150, 5.0);
    out.push((
        "netsim.reverse.shared_vs_paper".into(),
        vs_paper(paper.with_shared_reverse(20.0, reverse_queue)),
    ));
    out.push((
        "netsim.reverse.perflow_vs_paper".into(),
        vs_paper(paper.with_reverse_slowdown(20.0)),
    ));
    out.push((
        "netsim.receiver.delayed_vs_immediate".into(),
        vs_paper(paper.with_receiver(ReceiverSpec::delayed(4, 0.040))),
    ));
}

// ------------------------------------------------------------- protocols

/// `on_ack` + `window` + `intersend` through the trait object, on a
/// synthetic stream of acknowledgments a millisecond apart whose RTT
/// jitters between 100 and 120 ms.
fn on_ack_ns(e: Effort, scheme: &Scheme) -> f64 {
    let mut cc = scheme.build();
    cc.reset(SimTime::ZERO);
    let mut rng = Lcg(7);
    let min_rtt = SimDuration::from_millis(100);
    e.ns_per_iter(500_000, |i| {
        let now = 1_000_000_000 + i * 1_000_000;
        let rtt = SimDuration::from_nanos(100_000_000 + rng.next() % 20_000_000);
        let ack = Ack {
            flow: FlowId(0),
            seq: i,
            epoch: 1,
            echo_sent_at: t_ns(now - rtt.as_nanos()),
            echo_tx_index: i,
            recv_at: t_ns(now - 50_000_000),
            was_retx: false,
            batch: 1,
            rwnd: 0,
        };
        let info = AckInfo {
            rtt: Some(rtt),
            min_rtt,
            in_flight: 20,
            rwnd: None,
        };
        cc.on_ack(t_ns(now), &ack, &info);
        black_box((cc.window(), cc.intersend()));
    })
}

/// Every committed protocol asset, by path.
fn asset_paths() -> Vec<std::path::PathBuf> {
    let dir = remy::serialize::assets_dir();
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
}

fn lookup_ns(e: Effort, tree: &WhiskerTree) -> f64 {
    let compiled = CompiledTree::compile(tree);
    let mut rng = Lcg(3);
    e.ns_per_iter(1_000_000, |_| {
        let mut signal = |max: u64| (rng.next() % (max * 1000)) as f64 / 1000.0;
        let point = [signal(4000), signal(4000), signal(4000), signal(64)];
        black_box(compiled.action_for(&point));
    })
}

fn protocols_probes(e: Effort, out: &mut Vec<(String, f64)>) {
    let tao = Scheme::tao(load_asset(TAO_ASSET).tree, "tao");
    for (name, scheme) in [
        ("tao", tao),
        ("cubic", Scheme::Cubic),
        ("newreno", Scheme::NewReno),
        ("vegas", Scheme::Vegas),
        ("pcc", Scheme::Pcc),
    ] {
        out.push((format!("protocols.{name}.on_ack_ns"), on_ack_ns(e, &scheme)));
    }
    let mut trees: Vec<WhiskerTree> = asset_paths()
        .iter()
        .map(|p| {
            remy::serialize::load(p)
                .expect("a committed asset loads")
                .tree
        })
        .collect();
    trees.sort_by_key(WhiskerTree::num_leaves);
    let (small, large) = (&trees[0], &trees[trees.len() - 1]);
    out.push((
        "protocols.compiled.lookup_ns.small".into(),
        lookup_ns(e, small),
    ));
    out.push((
        "protocols.compiled.lookup_ns.large".into(),
        lookup_ns(e, large),
    ));
    out.push((
        "protocols.compiled.compile_us".into(),
        e.ns_per_iter(2_000, |_| {
            black_box(CompiledTree::compile(large));
        }) / 1e3,
    ));
}

// ------------------------------------------------------------------ remy

fn remy_probes(e: Effort, out: &mut Vec<(String, f64)>) {
    let train = TrainCalibration::new(Scale::Full);
    let cfg = train.eval_config();
    let batch = train.check_batch();
    let tree = WhiskerTree::default_tree();
    let pool = EvalPool::new(1);
    let compiled: Vec<Arc<CompiledTree>> = vec![CompiledTree::compile_shared(&tree)];
    // Each evaluation is timed back to back with the bare simulations it
    // wraps, twenty milliseconds apiece; the pair count makes up for the
    // shortness of each.
    let pairs: Vec<(f64, f64)> = (0..5 * e.reps)
        .map(|_| {
            let start = Instant::now();
            black_box(pool.evaluate(&batch, std::slice::from_ref(&tree), &cfg));
            let evaluate_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            for scenario in &batch {
                black_box(remy::eval::run_scenario_compiled(scenario, &compiled, &cfg));
            }
            (evaluate_s, start.elapsed().as_secs_f64())
        })
        .collect();
    let median_by = |f: fn(&(f64, f64)) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
    out.push(("remy.eval.evaluate_s".into(), median_by(|p| p.0)));
    out.push((
        "remy.eval.pool_overhead_frac".into(),
        median_by(|p| p.0 / p.1) - 1.0,
    ));
    let spec = ScenarioSpec::calibration();
    out.push((
        "remy.scenario.sample_us".into(),
        e.ns_per_iter(20_000, |i| {
            black_box(spec.sample(i));
        }) / 1e3,
    ));
    let loads: Vec<f64> = asset_paths()
        .iter()
        .map(|p| {
            e.seconds(|| {
                black_box(remy::serialize::load(p).expect("a committed asset loads"));
            }) * 1e6
        })
        .collect();
    out.push(("remy.serialize.load_us".into(), median(&loads)));
}

// ------------------------------------------------------------------ core

fn core_probes(e: Effort, out: &mut Vec<(String, f64)>) {
    let tao = Scheme::tao(load_asset(TAO_ASSET).tree, "tao");
    let cells = e.iters(500) as usize;
    let net = calibration_net(2, WorkloadSpec::on_off_1s());
    let cell_s = e.seconds(|| {
        let points = (0..cells)
            .map(|i| {
                SweepPoint::homogeneous("cell", i as f64, net.clone(), tao.clone(), 0..1, 0.001)
            })
            .collect();
        black_box(execute_sweep(points, 1));
    });
    out.push((
        "core.runner.cell_overhead_us".into(),
        cell_s / cells as f64 * 1e6,
    ));
    let ten_thousand = vec![tao; 10_000];
    out.push((
        "core.runner.build_protocols_us.10k".into(),
        e.seconds(|| {
            black_box(build_protocols(&ten_thousand));
        }) * 1e6,
    ));

    // The largest committed golden, through the vendored serde_json.
    let dir = remy::serialize::assets_dir().join("figures");
    let golden = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path()).ok())
        .max_by_key(String::len)
        .expect("a committed golden");
    let fig = FigureData::from_json(&golden).expect("a golden parses");
    let mb = golden.len() as f64 / 1e6;
    out.push((
        "core.report.json_mb_per_s.encode".into(),
        mb / e.seconds(|| {
            black_box(fig.to_json());
        }),
    ));
    out.push((
        "core.report.json_mb_per_s.decode".into(),
        mb / e.seconds(|| {
            black_box(FigureData::from_json(&golden).expect("a golden parses"));
        }),
    ));
}

/// Every probe and differential metric, by full name.
pub fn run_all(scale: Scale) -> Vec<(String, f64)> {
    let e = Effort::of(scale);
    let mut out = Vec::new();
    netsim_probes(e, &mut out);
    protocols_probes(e, &mut out);
    remy_probes(e, &mut out);
    core_probes(e, &mut out);
    out
}
