//! End-to-end contracts of the receiver-policy subsystem.
//!
//! The endpoint redesign moved ACK synthesis behind
//! [`netsim::topology::ReceiverSpec`]. Two claims must hold across the
//! whole scenario space, not just on a bare dumbbell:
//!
//! 1. **Default transparency.** A flow with an explicit default spec
//!    (`Some(ReceiverSpec::default())`) dispatches the *bit-identical*
//!    event sequence as a flow with no spec at all (`None`), whatever
//!    AQM discipline, churn process, fault mode, or return path is
//!    active, on both scheduler backends. The policy machinery may not
//!    perturb a single committed figure.
//! 2. **Backend equivalence.** When a policy *is* active (delayed ACKs,
//!    flush timers, rwnd advertisements), the new `AckTimer` event chain
//!    still dispatches identically on the heap and calendar schedulers.

use netsim::prelude::*;
use netsim::probe::Digest;
use netsim::sim::RunOutcome;
use netsim::transport::AckInfo;
use proptest::prelude::*;

/// AIMD with enough aggression to overflow finite buffers: drops,
/// retransmissions and RTO timers are all in play.
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

/// The AQM disciplines an axis can select (8 Mbps / 120 ms bottleneck).
fn aqm_queue(which: u8) -> QueueSpec {
    match which % 4 {
        0 => QueueSpec::DropTail {
            capacity_bytes: Some(18_000),
        },
        1 => QueueSpec::red_default(8e6, 0.120, 5.0),
        2 => QueueSpec::codel_default(8e6, 0.120, 5.0),
        _ => QueueSpec::sfq_codel_default(8e6, 0.120, 5.0),
    }
}

/// A dumbbell exercising the orthogonal scenario axes the policy has to
/// be transparent across: AQM, return path (the paper's delay-only link,
/// private reverse links, or a shared one with a tight ACK buffer), fault
/// mode, and flow churn.
fn axis_net(aqm: u8, reverse: u8, fault: u8, mginf: bool) -> NetworkConfig {
    let mut net = dumbbell(3, 8e6, 0.120, aqm_queue(aqm), WorkloadSpec::AlwaysOn);
    net = match reverse % 3 {
        0 => net, // the paper's uncongested reverse path
        1 => net.with_reverse_slowdown(20.0),
        _ => net.with_shared_reverse(20.0, |_, _| QueueSpec::DropTail {
            capacity_bytes: Some(4_000),
        }),
    };
    match fault % 3 {
        0 => {}
        1 => {
            net.links[0].fault = Some(FaultSpec::GilbertElliott {
                loss_good: 0.005,
                loss_bad: 0.5,
                good_to_bad: 0.02,
                bad_to_good: 0.1,
            });
        }
        _ => {
            net.links[0].fault = Some(FaultSpec::outage_scheduled(2.0, 0.5, true));
        }
    }
    net.flows[0].workload = if mginf {
        WorkloadSpec::churn_mginf(1.5, 0.8)
    } else {
        WorkloadSpec::churn(1.5, 0.8)
    };
    net.validate().expect("axis scenario must be valid");
    net
}

/// Copy of `net` with every flow carrying an explicit receiver spec.
fn with_spec(net: &NetworkConfig, spec: ReceiverSpec) -> NetworkConfig {
    let mut net = net.clone();
    for f in &mut net.flows {
        f.receiver = Some(spec.clone());
    }
    net
}

struct Run {
    outcome: RunOutcome,
    digest: Digest,
}

fn run(net: &NetworkConfig, kind: SchedulerKind, seed: u64) -> Run {
    let protocols: Vec<Box<dyn CongestionControl>> = (0..net.flows.len())
        .map(|_| Box::new(Aimd { w: 2.0 }) as _)
        .collect();
    let digest = Digest::new(net.flows.len());
    let mut sim = Simulation::with_probe(net, protocols, seed, kind, digest);
    let outcome = sim.run(SimDuration::from_secs(10));
    Run {
        outcome,
        digest: sim.into_probe(),
    }
}

fn assert_bit_identical(a: &Run, b: &Run, what: &str) {
    assert_eq!(
        a.digest.events, b.digest.events,
        "{what}: dispatched event sequences diverged"
    );
    assert_eq!(
        a.digest.acks, b.digest.acks,
        "{what}: per-flow ack sequences diverged"
    );
    assert_eq!(a.outcome.events_processed, b.outcome.events_processed);
    assert_eq!(a.outcome.link_bytes, b.outcome.link_bytes);
    for (fa, fb) in a.outcome.flows.iter().zip(&b.outcome.flows) {
        assert_eq!(fa.bytes_delivered, fb.bytes_delivered);
        assert_eq!(fa.retransmissions, fb.retransmissions);
        assert_eq!(fa.timeouts, fb.timeouts);
        assert_eq!(fa.throughput_bps.to_bits(), fb.throughput_bps.to_bits());
    }
}

#[test]
fn explicit_default_spec_is_transparent_on_the_calibration_dumbbell() {
    let net = axis_net(0, 0, 0, false);
    let with_default = with_spec(&net, ReceiverSpec::default());
    for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let bare = run(&net, kind, 7);
        let spec = run(&with_default, kind, 7);
        assert!(bare.outcome.events_processed > 5_000, "run too small");
        assert_bit_identical(&bare, &spec, "default vs none");
    }
}

#[test]
fn delayed_policy_dispatches_identically_on_both_backends() {
    // The AckTimer chain under the nastiest combination: shared reverse
    // links with a tight ACK buffer, an outage fault, M/G/∞ churn.
    let net = with_spec(&axis_net(2, 2, 2, true), ReceiverSpec::delayed(4, 0.040));
    for seed in [3u64, 99] {
        let heap = run(&net, SchedulerKind::Heap, seed);
        let cal = run(&net, SchedulerKind::Calendar, seed);
        assert_bit_identical(&heap, &cal, "heap vs calendar");
    }
}

#[test]
fn rwnd_policy_dispatches_identically_on_both_backends() {
    let net = with_spec(
        &axis_net(1, 1, 1, false),
        ReceiverSpec::delayed(2, 0.040).with_rwnd(16),
    );
    let heap = run(&net, SchedulerKind::Heap, 11);
    let cal = run(&net, SchedulerKind::Calendar, 11);
    assert_bit_identical(&heap, &cal, "heap vs calendar");
    // The advertisement must actually bite for the equivalence to mean
    // much: a 16-packet cap on a ~7-BDP pipe keeps AIMD from overflowing
    // the queue, so the capped run delivers fewer bytes than an uncapped
    // one at the same seed.
    let uncapped = run(&axis_net(1, 1, 1, false), SchedulerKind::Calendar, 11);
    assert_ne!(
        cal.digest.events, uncapped.digest.events,
        "rwnd policy should change the event stream"
    );
}

#[test]
fn delayed_policy_actually_thins_the_ack_stream() {
    let net = axis_net(0, 0, 0, false);
    let delayed = with_spec(&net, ReceiverSpec::delayed(8, 0.200));
    let base = run(&net, SchedulerKind::Calendar, 5);
    let thin = run(&delayed, SchedulerKind::Calendar, 5);
    assert!(
        thin.outcome.events_processed < base.outcome.events_processed,
        "coalescing 8:1 must shrink the event stream: {} vs {}",
        thin.outcome.events_processed,
        base.outcome.events_processed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Default transparency across the whole axis cross-product: an
    /// explicit default spec and no spec dispatch the identical event
    /// sequence on both scheduler backends, whatever AQM, return path,
    /// fault mode, or churn process is active.
    #[test]
    fn default_spec_never_perturbs_any_scenario_axis(
        aqm in 0u8..4,
        reverse in 0u8..3,
        fault in 0u8..3,
        mginf in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1_000,
    ) {
        let net = axis_net(aqm, reverse, fault, mginf);
        let with_default = with_spec(&net, ReceiverSpec::default());
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let bare = run(&net, kind, seed);
            let spec = run(&with_default, kind, seed);
            assert_bit_identical(&bare, &spec, "default vs none");
        }
    }

    /// Active policies never break scheduler-backend equivalence: the
    /// AckTimer event and batch-ACK bookkeeping order identically on the
    /// heap and calendar queues across the same axis cross-product.
    #[test]
    fn active_policies_never_break_backend_equivalence(
        aqm in 0u8..4,
        reverse in 0u8..3,
        fault in 0u8..3,
        ack_every in prop_oneof![Just(2u32), Just(4), Just(16)],
        seed in 0u64..1_000,
    ) {
        let net = with_spec(
            &axis_net(aqm, reverse, fault, false),
            ReceiverSpec::delayed(ack_every, 0.040),
        );
        let heap = run(&net, SchedulerKind::Heap, seed);
        let cal = run(&net, SchedulerKind::Calendar, seed);
        assert_bit_identical(&heap, &cal, "heap vs calendar");
    }
}
