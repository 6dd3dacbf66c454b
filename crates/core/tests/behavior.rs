//! Behavioural tests pinning the qualitative phenomena the paper's
//! experiments rely on — independent of any trained asset.

use lcc_core::runner::{with_aqm, AqmKind};
use lcc_core::{omniscient, run_homogeneous, run_mix, Scheme};
use netsim::prelude::*;
use protocols::{Action, WhiskerTree};

/// Cubic fills drop-tail buffers: its queueing delay grows with buffer
/// size while throughput stays pinned at the link rate.
#[test]
fn cubic_queueing_grows_with_buffer() {
    let mut delays = Vec::new();
    for bdp_mult in [1.0, 5.0] {
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::drop_tail_bdp(10e6, 0.100, bdp_mult),
            WorkloadSpec::AlwaysOn,
        );
        let out = run_homogeneous(&net, &Scheme::Cubic, 3, 20.0);
        assert!(out.flows[0].throughput_bps > 8.5e6);
        delays.push(out.flows[0].avg_queueing_delay_s);
    }
    assert!(
        delays[1] > delays[0] * 2.0,
        "5x buffer should mean much more standing queue: {delays:?}"
    );
}

/// sfqCoDel protects a small flow from an aggressive one (the scheduling
/// half of Cubic-over-sfqCoDel).
#[test]
fn sfq_codel_isolates_flows() {
    let fifo = dumbbell(
        2,
        10e6,
        0.100,
        QueueSpec::drop_tail_bdp(10e6, 0.100, 5.0),
        WorkloadSpec::AlwaysOn,
    );
    let sfq = with_aqm(&fifo, AqmKind::SfqCodel);
    // A paced, delay-minded sender vs Cubic.
    let gentle = Scheme::tao(WhiskerTree::uniform(Action::new(0.9, 1.0, 1.0)), "gentle");
    let mix = [gentle, Scheme::Cubic];
    let out_fifo = run_mix(&fifo, &mix, 5, 30.0);
    let out_sfq = run_mix(&sfq, &mix, 5, 30.0);
    // Under FIFO the gentle flow is squeezed; fair queueing must restore
    // a large share of its throughput.
    assert!(
        out_sfq.flows[0].throughput_bps > out_fifo.flows[0].throughput_bps * 2.0,
        "fifo={:.2}Mbps sfq={:.2}Mbps",
        out_fifo.flows[0].throughput_bps / 1e6,
        out_sfq.flows[0].throughput_bps / 1e6
    );
}

/// The squeeze phenomenon of §4.5: a delay-minded protocol loses its fair
/// share to NewReno on a FIFO bottleneck.
#[test]
fn delay_minded_protocol_squeezed_by_tcp() {
    let net = netsim::topology::dumbbell_mixed(
        10e6,
        0.100,
        QueueSpec::DropTail {
            capacity_bytes: Some(250_000),
        },
        vec![WorkloadSpec::AlwaysOn; 2],
    );
    let gentle = Scheme::tao(WhiskerTree::uniform(Action::new(0.9, 1.0, 1.0)), "gentle");
    let out = run_mix(&net, &[gentle, Scheme::NewReno], 3, 30.0);
    let (gentle_tpt, tcp_tpt) = (out.flows[0].throughput_bps, out.flows[1].throughput_bps);
    assert!(
        gentle_tpt < tcp_tpt / 2.0,
        "gentle {gentle_tpt} should be squeezed by TCP {tcp_tpt}"
    );
}

/// An over-aggressive protocol on a no-drop buffer builds unbounded
/// queues (the Fig 3 right-panel failure mode).
#[test]
fn aggressive_protocol_floods_infinite_buffer() {
    let net = dumbbell(
        10,
        15e6,
        0.150,
        QueueSpec::infinite(),
        WorkloadSpec::AlwaysOn,
    );
    let aggressive = Scheme::tao(
        WhiskerTree::uniform(Action::new(1.0, 4.0, 0.05)),
        "aggressive",
    );
    let out = run_homogeneous(&net, &aggressive, 3, 20.0);
    let mean_qd: f64 = out
        .flows
        .iter()
        .map(|f| f.avg_queueing_delay_s)
        .sum::<f64>()
        / out.flows.len() as f64;
    assert!(
        mean_qd > 0.5,
        "10 aggressive senders on a no-drop link must build seconds of queue, got {mean_qd}"
    );
    assert_eq!(
        out.flows.iter().map(|f| f.drops.forward).sum::<u64>(),
        0,
        "no-drop buffer never drops"
    );
}

/// And the same protocol on a finite buffer loses packets and wastes
/// capacity on retransmissions instead.
#[test]
fn aggressive_protocol_drops_on_finite_buffer() {
    let net = dumbbell(
        10,
        15e6,
        0.150,
        QueueSpec::drop_tail_bdp(15e6, 0.150, 5.0),
        WorkloadSpec::AlwaysOn,
    );
    let aggressive = Scheme::tao(
        WhiskerTree::uniform(Action::new(1.0, 4.0, 0.05)),
        "aggressive",
    );
    let out = run_homogeneous(&net, &aggressive, 3, 20.0);
    let drops: u64 = out.flows.iter().map(|f| f.drops.forward).sum();
    let retx: u64 = out.flows.iter().map(|f| f.retransmissions).sum();
    assert!(
        drops > 100,
        "finite buffer under flood must drop (got {drops})"
    );
    assert!(
        retx > 100,
        "drops must trigger retransmissions (got {retx})"
    );
}

/// NewReno against NewReno shares a bottleneck roughly fairly.
#[test]
fn newreno_intra_protocol_fairness() {
    let net = dumbbell(
        2,
        10e6,
        0.100,
        QueueSpec::drop_tail_bdp(10e6, 0.100, 2.0),
        WorkloadSpec::AlwaysOn,
    );
    let out = run_homogeneous(&net, &Scheme::NewReno, 17, 60.0);
    let (a, b) = (out.flows[0].throughput_bps, out.flows[1].throughput_bps);
    let jain = (a + b).powi(2) / (2.0 * (a * a + b * b));
    assert!(
        jain > 0.75,
        "Jain index {jain:.3} too unfair ({a:.0} vs {b:.0})"
    );
}

/// The omniscient allocation dominates what any simulated protocol
/// achieves in objective terms (it is the upper bound of Figs 2-4).
#[test]
fn omniscient_dominates_simulated_schemes() {
    let net = dumbbell(
        2,
        16e6,
        0.100,
        QueueSpec::drop_tail_bdp(16e6, 0.100, 5.0),
        WorkloadSpec::on_off_1s(),
    );
    let ideal = omniscient(&net);
    let obj = remy::Objective::default();
    let ideal_u = obj.utility(ideal[0].throughput_bps, ideal[0].delay_s);
    for scheme in [Scheme::Cubic, Scheme::NewReno] {
        let out = run_homogeneous(&net, &scheme, 23, 30.0);
        for f in &out.flows {
            if let Some(u) = obj.flow_utility(f) {
                assert!(
                    u <= ideal_u + 0.3,
                    "{} beat the omniscient bound: {u:.2} > {ideal_u:.2}",
                    scheme.label()
                );
            }
        }
    }
}

/// §4.5's historical footnote, reproduced: TCP Vegas performs well
/// against itself but is squeezed out by loss-driven TCP.
#[test]
fn vegas_good_alone_squeezed_by_newreno() {
    use netsim::transport::CongestionControl;
    use protocols::Vegas;
    let net = netsim::topology::dumbbell_mixed(
        10e6,
        0.100,
        QueueSpec::DropTail {
            capacity_bytes: Some(250_000),
        },
        vec![WorkloadSpec::AlwaysOn; 2],
    );
    // Homogeneous: two Vegas flows share well at low delay.
    let homo = {
        let ccs: Vec<Box<dyn CongestionControl>> =
            vec![Box::new(Vegas::new()), Box::new(Vegas::new())];
        let mut sim = netsim::sim::Simulation::new(&net, ccs, 5);
        sim.run(netsim::time::SimDuration::from_secs(30))
    };
    let homo_total: f64 = homo.flows.iter().map(|f| f.throughput_bps).sum();
    let homo_qd: f64 = homo
        .flows
        .iter()
        .map(|f| f.avg_queueing_delay_s)
        .sum::<f64>()
        / 2.0;
    assert!(
        homo_total > 8.5e6,
        "Vegas pair should fill the link: {homo_total}"
    );
    assert!(
        homo_qd < 0.050,
        "Vegas pair should keep queues short: {homo_qd}"
    );

    // Mixed: Vegas vs NewReno — Vegas backs off as NewReno fills the
    // buffer, losing well over half the fair share.
    let mixed = {
        let ccs: Vec<Box<dyn CongestionControl>> =
            vec![Box::new(Vegas::new()), Box::new(protocols::NewReno::new())];
        let mut sim = netsim::sim::Simulation::new(&net, ccs, 5);
        sim.run(netsim::time::SimDuration::from_secs(30))
    };
    let vegas_tpt = mixed.flows[0].throughput_bps;
    let reno_tpt = mixed.flows[1].throughput_bps;
    assert!(
        vegas_tpt < reno_tpt / 2.0,
        "Vegas should be squeezed: vegas={vegas_tpt:.0} reno={reno_tpt:.0}"
    );
}
