//! Event-digest equivalence of the arena-backed, batch-stepped engine.
//!
//! The hot-path rework moved every packet-carrying event payload into
//! the generation-indexed [`netsim::arena::PacketArena`] (events carry
//! 8-byte handles, the digest resolves them at fold time) and taught the
//! engine to dispatch same-instant slots in batches popped straight from
//! the scheduler. Neither change is allowed to perturb a single
//! dispatched event: the digest folds the same words it folded when
//! events carried packets by value, and the batch loop realizes the same
//! `(time, insertion-seq)` total order as one-at-a-time popping.
//!
//! These properties pin that claim across the *full* scenario
//! cross-product — AQM discipline × reverse-path shape × fault process ×
//! churn workload × receiver policy — on both scheduler backends. Every
//! axis reaches the arena through a different event chain (AQM drops
//! free parked packets early, shared reverse links park real ACK
//! packets, outages re-park on link-up, churn starts/stops epochs,
//! delayed-ACK receivers run the AckTimer arm/cancel path), so a slot
//! recycled one event too early on any chain diverges the digest here.
//!
//! The same cross-product holds the probe layer to what it promises: a
//! probe only reads, so a cell run under no probe, under the digests and
//! under a queue sampler produces the same outcome, field for field and
//! event count included, and every dispatch a probe sees is at or after
//! the one before it.

use netsim::arena::PacketArena;
use netsim::event::Event;
use netsim::link::Link;
use netsim::prelude::*;
use netsim::probe::{Digest, NoProbe, Probe, QueueTrace};
use netsim::transport::AckInfo;
use proptest::prelude::*;

/// AIMD aggressive enough to pressure finite buffers and AQMs.
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

/// One point of the scenario cross-product, as raw axis selectors.
#[derive(Clone, Copy, Debug)]
struct Axes {
    aqm: u8,
    reverse: u8,
    fault: u8,
    churn: u8,
    receiver: u8,
}

fn build_net(a: Axes) -> NetworkConfig {
    let queue = match a.aqm % 4 {
        0 => QueueSpec::DropTail {
            capacity_bytes: Some(18_000),
        },
        1 => QueueSpec::red_default(8e6, 0.120, 5.0),
        2 => QueueSpec::codel_default(8e6, 0.120, 5.0),
        _ => QueueSpec::sfq_codel_default(8e6, 0.120, 5.0),
    };
    let mut net = dumbbell(3, 8e6, 0.120, queue, WorkloadSpec::AlwaysOn);
    net = match a.reverse % 3 {
        0 => net,
        1 => net.with_reverse_slowdown(20.0),
        _ => net.with_shared_reverse(20.0, |_, _| QueueSpec::DropTail {
            capacity_bytes: Some(4_000),
        }),
    };
    net.links[0].fault = match a.fault % 4 {
        0 => None,
        1 => Some(FaultSpec::GilbertElliott {
            loss_good: 0.005,
            loss_bad: 0.4,
            good_to_bad: 0.02,
            bad_to_good: 0.1,
        }),
        2 => Some(FaultSpec::outage_scheduled(2.0, 0.5, true)),
        _ => Some(FaultSpec::Corruption { prob: 0.08 }),
    };
    match a.churn % 3 {
        0 => {}
        1 => net.flows[0].workload = WorkloadSpec::churn(1.5, 0.8),
        _ => net.flows[0].workload = WorkloadSpec::churn_mginf(1.5, 0.8),
    }
    let receiver = match a.receiver % 3 {
        0 => None,
        1 => Some(ReceiverSpec::delayed(4, 0.040)),
        _ => Some(ReceiverSpec::delayed(2, 0.080).with_rwnd(24)),
    };
    if let Some(spec) = receiver {
        net = net.with_receiver(spec);
    }
    net.validate()
        .expect("cross-product scenario must be valid");
    net
}

/// A 10 s run of three AIMD senders on `net`, reporting to `probe`.
fn simulate<P: Probe>(
    net: &NetworkConfig,
    kind: SchedulerKind,
    seed: u64,
    probe: P,
) -> (RunOutcome, P) {
    let protocols: Vec<Box<dyn CongestionControl>> =
        (0..3).map(|_| Box::new(Aimd { w: 2.0 }) as _).collect();
    let mut sim = Simulation::with_probe(net, protocols, seed, kind, probe);
    let out = sim.run(SimDuration::from_secs(10));
    (out, sim.into_probe())
}

fn digest_of(net: &NetworkConfig, kind: SchedulerKind, seed: u64) -> (u64, u64, Vec<u64>) {
    let (out, digest) = simulate(net, kind, seed, Digest::new(3));
    (digest.events, out.events_processed, digest.acks)
}

/// An engine invariant riding the probe hook: dispatch times never
/// decrease, and the run ends at or after the last of them.
#[derive(Default)]
struct Monotone {
    last: SimTime,
    events: u64,
}

impl Probe for Monotone {
    fn on_event(&mut self, at: SimTime, ev: &Event, _links: &[Link], _arena: &PacketArena) {
        assert!(
            at >= self.last,
            "{ev:?} at {at:?} dispatched after {:?}",
            self.last
        );
        self.last = at;
        self.events += 1;
    }

    fn on_end(&mut self, end: SimTime, _links: &[Link]) {
        assert!(
            end >= self.last,
            "the run ended at {end:?} before {:?}",
            self.last
        );
    }
}

/// A cell runs the same under every probe: the outcome is equal field for
/// field (its `Debug` form prints every field, floats round-trip exact),
/// `events_processed` and the queue counters included.
fn assert_probes_change_nothing(net: &NetworkConfig, kind: SchedulerKind, seed: u64) {
    let (plain, NoProbe) = simulate(net, kind, seed, NoProbe);
    let plain = format!("{plain:?}");
    let (digested, _) = simulate(net, kind, seed, Digest::new(3));
    assert_eq!(
        plain,
        format!("{digested:?}"),
        "the digests changed the run"
    );
    let trace = QueueTrace::new(LinkId(0), SimDuration::from_millis(10));
    let (traced, trace) = simulate(net, kind, seed, trace);
    assert_eq!(
        plain,
        format!("{traced:?}"),
        "the queue sampler changed the run"
    );
    assert_eq!(
        trace.samples.len(),
        1_001,
        "a sample every 10 ms, both ends"
    );
    let (checked, monotone) = simulate(net, kind, seed, Monotone::default());
    assert_eq!(
        plain,
        format!("{checked:?}"),
        "the invariant probe changed the run"
    );
    assert_eq!(monotone.events, checked.events_processed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (AQM × reverse × fault × churn × receiver) cell dispatches the
    /// identical event sequence on both scheduler backends, event for
    /// event — the digest resolves every arena handle it folds, so a
    /// prematurely recycled or double-freed slot cannot hide.
    #[test]
    fn axis_cross_product_is_digest_identical_across_backends(
        aqm in 0u8..4,
        reverse in 0u8..3,
        fault in 0u8..4,
        churn in 0u8..3,
        receiver in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let net = build_net(Axes { aqm, reverse, fault, churn, receiver });
        let heap = digest_of(&net, SchedulerKind::Heap, seed);
        let cal = digest_of(&net, SchedulerKind::Calendar, seed);
        prop_assert_eq!(heap.1, cal.1, "event counts diverged");
        prop_assert_eq!(heap.0, cal.0, "event digests diverged");
        prop_assert_eq!(&heap.2, &cal.2, "per-flow ack digests diverged");
        // And re-running the same backend reproduces the digest exactly
        // (arena slot assignment is deterministic, not address-dependent).
        let again = digest_of(&net, SchedulerKind::Calendar, seed);
        prop_assert_eq!(cal.0, again.0, "calendar rerun diverged");
    }

    /// Any cell of the cross-product runs the same under no probe, the
    /// digests, a queue sampler and an invariant probe.
    #[test]
    fn axis_cross_product_runs_the_same_under_every_probe(
        aqm in 0u8..4,
        reverse in 0u8..3,
        fault in 0u8..4,
        churn in 0u8..3,
        receiver in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let net = build_net(Axes { aqm, reverse, fault, churn, receiver });
        assert_probes_change_nothing(&net, SchedulerKind::Calendar, seed);
    }
}

/// Deterministic anchor: a handful of corner cells of the cross-product
/// run on every CI invocation regardless of proptest's case sampling —
/// each picks an axis combination with a distinctive arena lifecycle.
#[test]
fn corner_cells_are_digest_identical() {
    let corners = [
        // every axis off: the pure arena recycle chain
        Axes {
            aqm: 0,
            reverse: 0,
            fault: 0,
            churn: 0,
            receiver: 0,
        },
        // everything on at once, shared reverse + M/G/∞ + rwnd receiver
        Axes {
            aqm: 3,
            reverse: 2,
            fault: 1,
            churn: 2,
            receiver: 2,
        },
        // outage: parked packets survive a link blackout and re-park
        Axes {
            aqm: 1,
            reverse: 1,
            fault: 2,
            churn: 1,
            receiver: 1,
        },
        // corruption + sfqCoDel: mid-chain frees from two drop sources
        Axes {
            aqm: 3,
            reverse: 0,
            fault: 3,
            churn: 2,
            receiver: 1,
        },
    ];
    for a in corners {
        let net = build_net(a);
        let heap = digest_of(&net, SchedulerKind::Heap, 7);
        let cal = digest_of(&net, SchedulerKind::Calendar, 7);
        assert!(heap.1 > 3_000, "corner {a:?} too small: {} events", heap.1);
        assert_eq!(heap.0, cal.0, "digest diverged at corner {a:?}");
        assert_eq!(heap.2, cal.2, "ack digests diverged at corner {a:?}");
        assert_probes_change_nothing(&net, SchedulerKind::Heap, 7);
    }
}
