//! Failure-injection tests of the reliability layer inside the full
//! engine: lossy bottlenecks, RTO recovery, and workload churn must never
//! wedge a sender or corrupt accounting.

use netsim::prelude::*;
use netsim::transport::{AckInfo, CongestionControl};

/// A window protocol that ignores all feedback — worst case for the
/// transport because it never backs off.
struct Stubborn(f64);

impl CongestionControl for Stubborn {
    fn reset(&mut self, _: SimTime) {}
    fn on_ack(&mut self, _: SimTime, _: &Ack, _: &AckInfo) {}
    fn on_loss(&mut self, _: SimTime) {}
    fn on_timeout(&mut self, _: SimTime) {}
    fn window(&self) -> f64 {
        self.0
    }
    fn intersend(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

#[test]
fn recovery_through_a_tiny_buffer() {
    // Buffer of 2 packets against a window of 60: constant heavy loss.
    let net = dumbbell(
        1,
        2e6,
        0.050,
        QueueSpec::DropTail {
            capacity_bytes: Some(3_000),
        },
        WorkloadSpec::AlwaysOn,
    );
    let mut sim = Simulation::new(&net, vec![Box::new(Stubborn(60.0))], 3);
    let out = sim.run(SimDuration::from_secs(20));
    let f = &out.flows[0];
    assert!(
        f.drops.forward > 500,
        "tiny buffer must shed heavily: {}",
        f.drops.forward
    );
    // Despite the loss storm the connection makes forward progress at
    // roughly line rate (goodput bounded by capacity, not collapsed).
    assert!(
        f.throughput_bps > 1.0e6,
        "goodput collapsed to {}",
        f.throughput_bps
    );
    // Every loss is eventually repaired: no sequence can be delivered
    // twice, and retransmissions happened.
    assert!(f.retransmissions > 100);
    assert!(f.throughput_bps <= 2e6 * 1.01);
}

#[test]
fn rto_fires_when_whole_window_is_lost() {
    // A lone flow always keeps an ack stream alive (per-packet selective
    // acks), so dupack detection recovers everything. Total ack
    // starvation needs contention: a huge-window hog keeps the shared
    // 4-packet buffer full, so the tiny-window victim regularly loses
    // its entire flight (2 packets — below the dupack threshold) and can
    // only recover via RTO.
    let net = dumbbell(
        2,
        1e6,
        0.100,
        QueueSpec::DropTail {
            capacity_bytes: Some(6_000),
        },
        WorkloadSpec::AlwaysOn,
    );
    let mut sim = Simulation::new(
        &net,
        vec![Box::new(Stubborn(300.0)), Box::new(Stubborn(2.0))],
        9,
    );
    let out = sim.run(SimDuration::from_secs(60));
    let victim = &out.flows[1];
    assert!(victim.drops.forward > 0, "victim must see drops");
    assert!(
        victim.timeouts > 0,
        "expected RTO-driven recovery for the victim"
    );
    assert!(victim.bytes_delivered > 0, "sender must not wedge");
}

#[test]
fn rapid_workload_churn_does_not_leak_state() {
    // 50 ms ON / 50 ms OFF for 30 s: hundreds of epochs. Stale acks from
    // prior epochs must be discarded, and stats must stay consistent.
    let net = dumbbell(
        2,
        5e6,
        0.040,
        QueueSpec::drop_tail_bdp(5e6, 0.040, 3.0),
        WorkloadSpec::OnOff {
            mean_on_s: 0.050,
            mean_off_s: 0.050,
        },
    );
    let mut sim = Simulation::new(
        &net,
        vec![Box::new(Stubborn(10.0)), Box::new(Stubborn(10.0))],
        21,
    );
    let out = sim.run(SimDuration::from_secs(30));
    for f in &out.flows {
        assert!(
            f.on_time_s > 5.0 && f.on_time_s < 25.0,
            "duty ~50%: {}",
            f.on_time_s
        );
        assert!(f.transmissions >= f.packets_delivered);
        // per-packet delay cannot be below one-way propagation
        if f.packets_delivered > 0 {
            assert!(
                f.avg_delay_s >= 0.0199,
                "delay {} below propagation",
                f.avg_delay_s
            );
        }
    }
}

#[test]
fn pulse_workload_exact_on_time() {
    let net = netsim::topology::dumbbell_mixed(
        5e6,
        0.060,
        QueueSpec::infinite(),
        vec![WorkloadSpec::pulse(2.0, 7.0)],
    );
    let mut sim = Simulation::new(&net, vec![Box::new(Stubborn(20.0))], 1);
    let out = sim.run(SimDuration::from_secs(10));
    let f = &out.flows[0];
    assert!(
        (f.on_time_s - 5.0).abs() < 1e-6,
        "pulse [2,7) means exactly 5 s ON, got {}",
        f.on_time_s
    );
    assert!(f.bytes_delivered > 0);
}

#[test]
fn pulse_still_on_at_sim_end_counts_partial_interval() {
    let net = netsim::topology::dumbbell_mixed(
        5e6,
        0.060,
        QueueSpec::infinite(),
        vec![WorkloadSpec::pulse(2.0, 70.0)],
    );
    let mut sim = Simulation::new(&net, vec![Box::new(Stubborn(20.0))], 1);
    let out = sim.run(SimDuration::from_secs(10));
    assert!(
        (out.flows[0].on_time_s - 8.0).abs() < 1e-6,
        "ON from t=2 to sim end at t=10, got {}",
        out.flows[0].on_time_s
    );
}
