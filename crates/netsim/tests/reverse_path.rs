//! The bidirectional network's compatibility contract.
//!
//! With one flow there is nobody to contend with, so a *shared* reverse
//! link and a *private* per-flow reverse link must be the same machine:
//! the identical event sequence (order-sensitive dispatch digest), the
//! identical ack stream, the identical outcome — whatever the reverse
//! rate, queue discipline, seed or scheduler backend. This pins the
//! shared-contention code path to PR 4's per-flow reverse semantics
//! exactly where they are defined to coincide.

use netsim::prelude::*;
use netsim::probe::Digest;
use netsim::sim::RunOutcome;
use netsim::topology::ReverseSpec;
use netsim::transport::AckInfo;
use proptest::prelude::*;

/// Window-driven AIMD (same shape as the determinism suite's) so the run
/// exercises queueing, loss recovery and RTO timers.
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

/// Reverse queue disciplines under test, sized for a slow ACK channel.
fn reverse_queue(which: u8, rate_bps: f64) -> QueueSpec {
    match which % 3 {
        0 => QueueSpec::infinite(),
        1 => QueueSpec::DropTail {
            capacity_bytes: Some(2_000),
        },
        _ => QueueSpec::codel_default(rate_bps, 0.120, 5.0),
    }
}

fn run_single_flow(
    shared: bool,
    rate_bps: f64,
    queue: QueueSpec,
    seed: u64,
) -> (RunOutcome, Digest) {
    let mut net = dumbbell(
        1,
        8e6,
        0.120,
        QueueSpec::DropTail {
            capacity_bytes: Some(30_000),
        },
        WorkloadSpec::on_off_1s(),
    );
    net.links[0].reverse = Some(ReverseSpec {
        rate_bps,
        delay_s: 0.060,
        queue,
        shared,
    });
    let protocols: Vec<Box<dyn CongestionControl>> = vec![Box::new(Aimd { w: 2.0 })];
    let kind = SchedulerKind::default();
    let mut sim = Simulation::with_probe(&net, protocols, seed, kind, Digest::new(1));
    let out = sim.run(SimDuration::from_secs(15));
    (out, sim.into_probe())
}

#[test]
fn single_flow_shared_equals_per_flow() {
    let (sh, sh_digest) = run_single_flow(true, 300e3, QueueSpec::infinite(), 3);
    let (pf, pf_digest) = run_single_flow(false, 300e3, QueueSpec::infinite(), 3);
    assert!(sh.events_processed > 10_000, "meaningful run");
    assert_eq!(sh_digest.events, pf_digest.events);
    assert_eq!(sh_digest.acks, pf_digest.acks);
    assert_eq!(sh.link_bytes, pf.link_bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `shared: true` with one flow is event-digest-identical to the
    /// per-flow reverse path, across reverse rates, reverse queue
    /// disciplines and seeds.
    #[test]
    fn shared_reverse_with_one_flow_is_digest_identical_to_per_flow(
        rate_kbps in prop_oneof![Just(100.0), Just(300.0), Just(2_000.0)],
        queue_kind in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let rate = rate_kbps * 1e3;
        let queue = reverse_queue(queue_kind, rate);
        let (sh, sh_digest) = run_single_flow(true, rate, queue.clone(), seed);
        let (pf, pf_digest) = run_single_flow(false, rate, queue, seed);
        prop_assert_eq!(sh_digest.events, pf_digest.events, "event sequences diverged");
        prop_assert_eq!(sh_digest.acks, pf_digest.acks, "ack streams diverged");
        prop_assert_eq!(sh.events_processed, pf.events_processed);
        for (a, b) in sh.flows.iter().zip(&pf.flows) {
            prop_assert_eq!(a.bytes_delivered, b.bytes_delivered);
            prop_assert_eq!(a.drops.ack, b.drops.ack);
            prop_assert_eq!(a.throughput_bps.to_bits(), b.throughput_bps.to_bits());
        }
    }
}

#[test]
fn reverse_queue_disciplines_manage_ack_traffic() {
    // Eight aggressive senders' ACKs through one 300 kbps uplink. A tiny
    // drop-tail buffer tail-drops (per-flow `drops.ack` accounting, like
    // `drops.forward`); CoDel on a large buffer sheds its standing ACK
    // queue through sojourn-triggered dequeue drops, which — exactly as
    // on the forward path — are internal to the discipline and appear in
    // the reverse link's `QueueStats` only.
    let run = |queue: QueueSpec| {
        let mut net = dumbbell(
            8,
            20e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        net.links[0].reverse = Some(ReverseSpec::shared(300e3, 0.050, queue));
        let protocols: Vec<Box<dyn CongestionControl>> =
            (0..8).map(|_| Box::new(Aimd { w: 2.0 }) as _).collect();
        let mut sim = Simulation::new(&net, protocols, 7);
        let out = sim.run(SimDuration::from_secs(20));
        assert_eq!(
            out.link_rates_bps,
            [20e6, 300e3],
            "the shared uplink is reported after the config link"
        );
        (
            out.link_queues[1].dropped,
            out.flows.iter().map(|f| f.drops.ack).sum::<u64>(),
        )
    };
    // 2 kB = 50 ACKs of shared buffer: the standing queue overflows.
    let (dt_dropped, dt_flow_drops) = run(QueueSpec::DropTail {
        capacity_bytes: Some(2_000),
    });
    assert!(dt_dropped > 0, "tiny shared ACK buffer must tail-drop");
    assert_eq!(
        dt_dropped, dt_flow_drops,
        "tail drops are accounted per flow"
    );
    let (cd_dropped, cd_flow_drops) = run(QueueSpec::codel_default(300e3, 0.100, 5.0));
    assert!(
        cd_dropped > 0,
        "CoDel must shed standing ACK load (sojourn-triggered drops)"
    );
    assert_eq!(
        cd_flow_drops, 0,
        "CoDel drops on dequeue, inside the discipline — not at enqueue"
    );
}
