//! End-to-end behavior of the fault-injection layer: Gilbert–Elliott
//! bursty loss, link outages (drop and hold modes), and corruption —
//! including the accounting contract (fault drops are never queue drops)
//! and RTO-driven recovery after a blackout.

use netsim::prelude::*;
use netsim::sim::RunOutcome;
use netsim::transport::AckInfo;

/// The same aggressive AIMD the determinism suite uses: exercises
/// queueing, loss recovery, and RTO timers.
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

/// Single always-on flow over an uncongested (infinite-buffer) dumbbell:
/// any loss the flow sees must come from the fault process, never a queue.
fn uncongested_net(fault: Option<FaultSpec>) -> NetworkConfig {
    let mut net = dumbbell(1, 8e6, 0.100, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
    net.links[0].fault = fault;
    net
}

fn run_net(net: &NetworkConfig, seed: u64, secs: u64) -> RunOutcome {
    let mut sim = Simulation::new(net, vec![Box::new(Aimd { w: 2.0 })], seed);
    sim.run(SimDuration::from_secs(secs))
}

#[test]
fn gilbert_elliott_losses_are_fault_drops_not_queue_drops() {
    // ~10% mean loss: bad state 50% lossy, occupied 20% of the time.
    let faulty = uncongested_net(Some(FaultSpec::GilbertElliott {
        loss_good: 0.0,
        loss_bad: 0.5,
        good_to_bad: 0.05,
        bad_to_good: 0.2,
    }));
    let clean = uncongested_net(None);
    let f = run_net(&faulty, 7, 10);
    let c = run_net(&clean, 7, 10);
    assert!(
        f.flows[0].drops.fault > 50,
        "GE process must destroy packets, got {}",
        f.flows[0].drops.fault
    );
    assert_eq!(
        f.flows[0].drops.forward, 0,
        "infinite buffer: no queue drop can occur"
    );
    assert_eq!(
        f.link_queues[0].dropped, 0,
        "queue stats untouched by faults"
    );
    assert!(
        f.flows[0].bytes_delivered < c.flows[0].bytes_delivered,
        "non-congestive loss must cost throughput"
    );
    assert!(
        f.flows[0].retransmissions > 0,
        "lost packets must be recovered via retransmission"
    );
}

#[test]
fn corruption_consumes_link_capacity_but_is_discarded() {
    let faulty = uncongested_net(Some(FaultSpec::corruption(0.05)));
    let f = run_net(&faulty, 3, 10);
    assert!(
        f.flows[0].drops.fault > 20,
        "corruption must discard packets, got {}",
        f.flows[0].drops.fault
    );
    assert_eq!(f.flows[0].drops.forward, 0);
    assert_eq!(f.link_queues[0].dropped, 0);
    // Corrupted packets crossed the link before being discarded: the
    // link transmitted more bytes than the receiver counted.
    assert!(
        f.link_bytes[0] > f.flows[0].bytes_delivered,
        "corrupted packets consume serialization capacity: link {} vs delivered {}",
        f.link_bytes[0],
        f.flows[0].bytes_delivered
    );
}

#[test]
fn flow_recovers_after_blackout_shorter_than_max_rto() {
    // Square wave: 4 s up, 2 s down (well under MAX_RTO = 60 s). In drop
    // mode every packet sent into the blackout is destroyed, so recovery
    // must come from the RTO exponential-backoff path.
    let net = uncongested_net(Some(FaultSpec::outage_scheduled(4.0, 2.0, true)));
    // Run A ends mid-blackout; run B sees the link return and a full
    // 4 s of post-outage service. The flow must resume — substantially
    // more bytes, not a black-holed stall.
    let a = run_net(&net, 11, 6);
    let b = run_net(&net, 11, 12);
    assert!(a.flows[0].drops.fault > 0, "blackout must destroy packets");
    assert!(
        b.flows[0].timeouts >= 1,
        "recovery must exercise the RTO path"
    );
    assert!(
        b.flows[0].bytes_delivered as f64 >= 1.5 * a.flows[0].bytes_delivered as f64,
        "flow must recover after the link returns: {} vs {} bytes",
        b.flows[0].bytes_delivered,
        a.flows[0].bytes_delivered
    );
}

#[test]
fn hold_mode_outage_preserves_packets() {
    // Same square wave, but packets are held in the (infinite) queue and
    // released when the link returns: nothing is destroyed.
    let net = uncongested_net(Some(FaultSpec::outage_scheduled(4.0, 2.0, false)));
    let out = run_net(&net, 11, 12);
    assert_eq!(out.flows[0].drops.fault, 0, "hold mode destroys nothing");
    assert_eq!(out.flows[0].drops.forward, 0);
    let held = run_net(&net, 11, 12).flows[0].bytes_delivered;
    let dropped = run_net(
        &uncongested_net(Some(FaultSpec::outage_scheduled(4.0, 2.0, true))),
        11,
        12,
    )
    .flows[0]
        .bytes_delivered;
    assert!(
        held > dropped,
        "holding packets across the blackout must beat destroying them: {held} vs {dropped}"
    );
}

#[test]
fn markov_outages_differ_by_seed_but_not_by_backend() {
    let net = uncongested_net(Some(FaultSpec::outage_markov(2.0, 0.5, true)));
    let a = run_net(&net, 1, 10);
    let b = run_net(&net, 2, 10);
    // Exponential dwells: different seeds see different outage patterns.
    assert_ne!(
        a.flows[0].bytes_delivered, b.flows[0].bytes_delivered,
        "Markov outages should vary with the seed"
    );
    // Same seed reproduces exactly.
    let a2 = run_net(&net, 1, 10);
    assert_eq!(a.flows[0].bytes_delivered, a2.flows[0].bytes_delivered);
    assert_eq!(a.flows[0].drops.fault, a2.flows[0].drops.fault);
}
