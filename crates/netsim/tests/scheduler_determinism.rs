//! End-to-end determinism across scheduler backends.
//!
//! A fixed-seed simulation must be bit-identical whether events dispatch
//! through the binary heap or the bucketed calendar queue: the same
//! event sequence (order-sensitive dispatch digest), the same per-flow
//! ack sequences (transport ack digests), the same delivery totals, and
//! the same queue-occupancy trace. This is the contract that lets the
//! fast backend replace the reference one without perturbing a single
//! optimizer comparison.

use netsim::prelude::*;
use netsim::probe::{Digest, Probe, QueueTrace};
use netsim::sim::RunOutcome;
use netsim::transport::AckInfo;
use proptest::prelude::*;

/// NewReno-ish AIMD with pacing, aggressive enough to overflow a finite
/// buffer: exercises queueing, drops, retransmissions, and RTO timers.
struct Aimd {
    w: f64,
}

impl CongestionControl for Aimd {
    fn reset(&mut self, _now: SimTime) {
        self.w = 2.0;
    }
    fn on_ack(&mut self, _now: SimTime, _ack: &Ack, _info: &AckInfo) {
        self.w += 4.0 / self.w.max(1.0);
    }
    fn on_loss(&mut self, _now: SimTime) {
        self.w = (self.w / 2.0).max(2.0);
    }
    fn on_timeout(&mut self, _now: SimTime) {
        self.w = 2.0;
    }
    fn window(&self) -> f64 {
        self.w
    }
    fn intersend(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

struct Run {
    outcome: RunOutcome,
    digest: Digest,
    trace: QueueTrace,
}

/// One AIMD run of `net` for `secs` on the chosen backend, reporting to
/// `probe`.
fn simulate<P: Probe>(
    net: &NetworkConfig,
    kind: SchedulerKind,
    seed: u64,
    secs: u64,
    probe: P,
) -> (RunOutcome, P) {
    let protocols: Vec<Box<dyn CongestionControl>> = (0..net.flows.len())
        .map(|_| Box::new(Aimd { w: 2.0 }) as _)
        .collect();
    let mut sim = Simulation::with_probe(net, protocols, seed, kind, probe);
    let outcome = sim.run(SimDuration::from_secs(secs));
    (outcome, sim.into_probe())
}

/// A fixed-seed run under every determinism probe: the digests, and the
/// queue of link 0 every 50 ms (a probe changes nothing, so one run per
/// probe sees the same network).
fn run(kind: SchedulerKind, seed: u64, secs: u64, net: &NetworkConfig) -> Run {
    let (outcome, digest) = simulate(net, kind, seed, secs, Digest::new(net.flows.len()));
    let trace = QueueTrace::new(LinkId(0), SimDuration::from_millis(50));
    let (_, trace) = simulate(net, kind, seed, secs, trace);
    Run {
        outcome,
        digest,
        trace,
    }
}

/// One fixed-seed dumbbell run on the chosen backend.
fn run_dumbbell(kind: SchedulerKind, seed: u64) -> Run {
    // Finite buffer + ON/OFF workload: drops, timeouts, epoch churn.
    let net = dumbbell(
        3,
        8e6,
        0.120,
        QueueSpec::DropTail {
            capacity_bytes: Some(18_000),
        },
        WorkloadSpec::on_off_1s(),
    );
    run(kind, seed, 20, &net)
}

fn assert_bit_identical(a: &Run, b: &Run) {
    assert_eq!(
        a.digest.events, b.digest.events,
        "dispatched event sequences diverged"
    );
    assert_eq!(
        a.digest.acks, b.digest.acks,
        "per-flow ack sequences diverged"
    );
    assert_eq!(a.outcome.events_processed, b.outcome.events_processed);
    assert_eq!(a.outcome.link_bytes, b.outcome.link_bytes);
    assert_eq!(a.trace, b.trace, "queue-occupancy traces diverged");
    for (fa, fb) in a.outcome.flows.iter().zip(&b.outcome.flows) {
        assert_eq!(fa.bytes_delivered, fb.bytes_delivered);
        assert_eq!(fa.transmissions, fb.transmissions);
        assert_eq!(fa.retransmissions, fb.retransmissions);
        assert_eq!(fa.drops.forward, fb.drops.forward);
        assert_eq!(fa.drops.ack, fb.drops.ack);
        assert_eq!(fa.drops.fault, fb.drops.fault);
        assert_eq!(fa.timeouts, fb.timeouts);
        assert_eq!(fa.throughput_bps.to_bits(), fb.throughput_bps.to_bits());
        assert_eq!(
            fa.avg_queueing_delay_s.to_bits(),
            fb.avg_queueing_delay_s.to_bits()
        );
    }
}

#[test]
fn heap_and_calendar_run_bit_identical_dumbbells() {
    for seed in [1u64, 42, 0xDEADBEEF] {
        let heap = run_dumbbell(SchedulerKind::Heap, seed);
        let cal = run_dumbbell(SchedulerKind::Calendar, seed);
        assert!(
            heap.outcome.events_processed > 10_000,
            "run too small to be meaningful: {} events",
            heap.outcome.events_processed
        );
        assert!(
            heap.outcome.flows.iter().any(|f| f.retransmissions > 0),
            "scenario must exercise the loss/RTO machinery"
        );
        assert_bit_identical(&heap, &cal);
    }
}

#[test]
fn same_backend_reruns_are_bit_identical() {
    for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let a = run_dumbbell(kind, 7);
        let b = run_dumbbell(kind, 7);
        assert_bit_identical(&a, &b);
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the digest machinery trivially returning a constant.
    let a = run_dumbbell(SchedulerKind::Calendar, 1);
    let b = run_dumbbell(SchedulerKind::Calendar, 2);
    assert_ne!(a.digest.events, b.digest.events);
}

// ---------------------------------------------------------------------------
// Scenario-diversity axes: AQM gateways, asymmetric ACK paths, flow churn.
// ---------------------------------------------------------------------------

/// The AQM disciplines a sweep cell can select, as concrete specs for a
/// 8 Mbps / 120 ms dumbbell with a ~7.5-BDP buffer.
fn aqm_queue(which: u8) -> QueueSpec {
    match which % 4 {
        0 => QueueSpec::DropTail {
            capacity_bytes: Some(90_000),
        },
        1 => QueueSpec::red_default(8e6, 0.120, 5.0),
        2 => QueueSpec::codel_default(8e6, 0.120, 5.0),
        _ => QueueSpec::sfq_codel_default(8e6, 0.120, 5.0),
    }
}

/// A parking-lot scenario exercising every new axis at once: an AQM
/// discipline per bottleneck, an asymmetric reverse path (per-flow
/// channels, or one shared reverse link per bottleneck with its own AQM
/// queue), and a churning flow — blocked or unblocked M/G/∞ — next to
/// ON/OFF cross-traffic.
fn diversity_net(
    aqm0: u8,
    aqm1: u8,
    slowdown: f64,
    churn_rate: f64,
    shared_reverse: bool,
    mginf: bool,
) -> NetworkConfig {
    // Always-on cross-traffic so the AIMD windows grow enough to pressure
    // the AQMs (ON/OFF resets would keep queues empty); flow 0 churns.
    let base = parking_lot(
        8e6,
        8e6,
        0.060,
        aqm_queue(aqm0),
        aqm_queue(aqm1),
        WorkloadSpec::AlwaysOn,
    );
    let mut net = if shared_reverse {
        // Shared uplinks with a deliberately tight drop-tail ACK buffer
        // so reverse-queue drops are part of the equivalence check.
        base.with_shared_reverse(slowdown, |_, _| QueueSpec::DropTail {
            capacity_bytes: Some(4_000),
        })
    } else {
        base.with_reverse_slowdown(slowdown)
    };
    net.flows[0].workload = if mginf {
        WorkloadSpec::churn_mginf(churn_rate, 0.8)
    } else {
        WorkloadSpec::churn(churn_rate, 0.8)
    };
    net.validate().expect("diversity scenario must be valid");
    net
}

fn run_diversity(kind: SchedulerKind, seed: u64, net: &NetworkConfig) -> Run {
    run(kind, seed, 12, net)
}

#[test]
fn red_codel_asymmetric_churn_runs_bit_identical_across_backends() {
    // RED and CoDel at the two bottlenecks, a 1/20x reverse path, churn.
    let net = diversity_net(1, 2, 20.0, 1.5, false, false);
    for seed in [3u64, 99] {
        let heap = run_diversity(SchedulerKind::Heap, seed, &net);
        let cal = run_diversity(SchedulerKind::Calendar, seed, &net);
        assert!(
            heap.outcome.events_processed > 5_000,
            "run too small: {} events",
            heap.outcome.events_processed
        );
        assert_bit_identical(&heap, &cal);
    }
    // The AQMs must actually be in play for the equivalence to mean much.
    // (Probed on the symmetric variant: a 1/20x reverse path ACK-throttles
    // the senders so hard the forward queues never fill.)
    let probe = run_diversity(
        SchedulerKind::Calendar,
        3,
        &diversity_net(1, 2, 1.0, 1.5, false, false),
    );
    assert!(
        probe.outcome.link_queues.iter().any(|q| q.dropped > 0),
        "scenario should exercise AQM drops: {:?}",
        probe.outcome.link_queues
    );
}

#[test]
fn shared_uplink_mginf_runs_bit_identical_across_backends() {
    // The PR-5 axes together: shared reverse links (tight ACK buffers,
    // reverse drops) and an unblocked M/G/∞ churn slot. The new
    // reverse-link event chain and the FlowArrival/FlowDeparture timers
    // must dispatch identically on both scheduler backends.
    let net = diversity_net(1, 2, 20.0, 1.5, true, true);
    for seed in [3u64, 99] {
        let heap = run_diversity(SchedulerKind::Heap, seed, &net);
        let cal = run_diversity(SchedulerKind::Calendar, seed, &net);
        assert!(
            heap.outcome.events_processed > 5_000,
            "run too small: {} events",
            heap.outcome.events_processed
        );
        assert_bit_identical(&heap, &cal);
    }
    // The shared ACK buffers must actually drop for the arm to bite: at
    // a 1/100x uplink the shared ACK service rate (~250/s) is far below
    // the bottleneck delivery rate, so the tight buffer overflows.
    let probe = run_diversity(
        SchedulerKind::Calendar,
        3,
        &diversity_net(0, 0, 100.0, 1.5, true, true),
    );
    assert!(
        probe.outcome.flows.iter().any(|f| f.drops.ack > 0),
        "scenario should exercise shared reverse-queue drops"
    );
}

// ---------------------------------------------------------------------------
// Fault-injection axes: bursty loss, outages, corruption.
// ---------------------------------------------------------------------------

/// The fault modes a sweep cell can select, scaled by `rate` in [0, 1].
fn fault_mode(which: u8, rate: f64) -> FaultSpec {
    match which % 4 {
        0 => FaultSpec::GilbertElliott {
            loss_good: rate * 0.01,
            loss_bad: rate,
            good_to_bad: 0.02,
            bad_to_good: 0.1,
        },
        1 => FaultSpec::outage_scheduled(2.0, 0.3 + rate, true),
        2 => FaultSpec::outage_markov(2.0, 0.3 + rate, false),
        _ => FaultSpec::Corruption { prob: rate * 0.2 },
    }
}

/// Dumbbell with a fault process on the bottleneck; finite buffer so
/// queue drops and fault drops coexist in the same run.
fn fault_net(which: u8, rate: f64) -> NetworkConfig {
    let mut net = dumbbell(
        3,
        8e6,
        0.120,
        QueueSpec::DropTail {
            capacity_bytes: Some(18_000),
        },
        WorkloadSpec::AlwaysOn,
    );
    net.links[0].fault = Some(fault_mode(which, rate));
    net.validate().expect("fault scenario must be valid");
    net
}

#[test]
fn every_fault_mode_runs_bit_identical_across_backends() {
    for which in 0u8..4 {
        let net = fault_net(which, 0.5);
        let heap = run_diversity(SchedulerKind::Heap, 5, &net);
        let cal = run_diversity(SchedulerKind::Calendar, 5, &net);
        assert!(
            heap.outcome.flows.iter().any(|f| f.drops.fault > 0)
                || matches!(net.links[0].fault, Some(FaultSpec::Outage { .. })),
            "fault mode {which} must actually destroy packets"
        );
        assert_bit_identical(&heap, &cal);
    }
    // The loss modes must be exercised for the equivalence to mean much.
    let probe = run_diversity(SchedulerKind::Calendar, 5, &fault_net(0, 0.5));
    assert!(
        probe.outcome.flows.iter().any(|f| f.drops.fault > 0),
        "GE scenario should produce fault drops"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any combination of AQM disciplines, reverse-path slowdown (per-flow
    /// or shared reverse links) and churn rate (blocked or M/G/∞)
    /// dispatches the identical event sequence on both scheduler backends
    /// — the contract that lets every scenario axis run on the fast
    /// backend without perturbing a figure.
    #[test]
    fn scenario_axes_never_break_backend_equivalence(
        aqm0 in 0u8..4,
        aqm1 in 0u8..4,
        slowdown in prop_oneof![Just(1.0), Just(8.0), Just(40.0)],
        churn_rate in prop_oneof![Just(0.3), Just(2.0)],
        shared_reverse in prop_oneof![Just(false), Just(true)],
        mginf in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1_000,
    ) {
        let net = diversity_net(aqm0, aqm1, slowdown, churn_rate, shared_reverse, mginf);
        let heap = run_diversity(SchedulerKind::Heap, seed, &net);
        let cal = run_diversity(SchedulerKind::Calendar, seed, &net);
        assert_bit_identical(&heap, &cal);
    }

    /// Every fault mode (Gilbert–Elliott, scheduled/Markov outage,
    /// corruption) at any rate dispatches the identical event sequence
    /// on both scheduler backends — faults draw from a per-link RNG
    /// child, never from dispatch order.
    #[test]
    fn fault_axes_never_break_backend_equivalence(
        which in 0u8..4,
        rate in prop_oneof![Just(0.05), Just(0.3), Just(0.9)],
        seed in 0u64..1_000,
    ) {
        let net = fault_net(which, rate);
        let heap = run_diversity(SchedulerKind::Heap, seed, &net);
        let cal = run_diversity(SchedulerKind::Calendar, seed, &net);
        assert_bit_identical(&heap, &cal);
    }
}
