//! Cross-crate invariant tests: whatever the protocol does, the network
//! must conserve packets, bound delays from below by propagation, and
//! never deliver more than the line rate — on every link a run reports,
//! the config's and the reverse and delay-only links its flows' return
//! paths were lowered to.

use lcc_core::{run_homogeneous, run_mix, Scheme};
use netsim::prelude::*;
use protocols::{Action, WhiskerTree};

fn schemes_under_test() -> Vec<Scheme> {
    vec![
        Scheme::Cubic,
        Scheme::NewReno,
        Scheme::tao(
            WhiskerTree::uniform(Action::new(1.0, 1.0, 0.25)),
            "tao-grow",
        ),
        Scheme::tao(
            WhiskerTree::uniform(Action::new(0.6, 2.0, 2.0)),
            "tao-paced",
        ),
    ]
}

fn check_invariants(net: &NetworkConfig, out: &RunOutcome, duration_s: f64) {
    for f in &out.flows {
        // Throughput can never exceed the bottleneck of the flow's data
        // path (an upload's data crosses the reverse links).
        let bottleneck = if net.flows[f.flow].reverse_data {
            net.reverse_rate(f.flow)
                .expect("an upload's route is spec'd")
        } else {
            net.bottleneck_rate(f.flow)
        };
        assert!(
            f.throughput_bps <= bottleneck * 1.02,
            "flow {} throughput {} exceeds bottleneck {}",
            f.flow,
            f.throughput_bps,
            bottleneck
        );
        // Delay is bounded below by propagation.
        if f.packets_delivered > 0 {
            assert!(
                f.avg_delay_s >= f.min_one_way_s * 0.999,
                "flow {} avg delay {} below propagation {}",
                f.flow,
                f.avg_delay_s,
                f.min_one_way_s
            );
        }
        // ON time fits in the run.
        assert!(f.on_time_s <= duration_s * 1.001);
        // Deliveries imply transmissions.
        assert!(f.transmissions >= f.packets_delivered);
        assert!(f.retransmissions <= f.transmissions);
    }
    // Link counters: a link cannot transmit more than rate * time. The
    // config's links come first, then the ones the lowering built.
    let config_rates: Vec<f64> = net.links.iter().map(|l| l.rate_bps).collect();
    assert_eq!(out.link_rates_bps[..net.links.len()], config_rates[..]);
    for (l, &rate) in out.link_rates_bps.iter().enumerate() {
        let max_bytes = rate / 8.0 * duration_s;
        assert!(
            out.link_bytes[l] as f64 <= max_bytes * 1.01,
            "link {l} transmitted {} > capacity {}",
            out.link_bytes[l],
            max_bytes
        );
        let q = &out.link_queues[l];
        assert!(
            q.dequeued <= q.enqueued,
            "link {l} dequeued more than enqueued: {q:?}"
        );
    }
}

#[test]
fn invariants_on_dumbbell_all_schemes() {
    let duration = 12.0;
    for buffer in [
        QueueSpec::drop_tail_bdp(8e6, 0.100, 2.0),
        QueueSpec::infinite(),
    ] {
        let net = dumbbell(2, 8e6, 0.100, buffer, WorkloadSpec::on_off_1s());
        for scheme in schemes_under_test() {
            let out = run_homogeneous(&net, &scheme, 42, duration);
            check_invariants(&net, &out, duration);
        }
    }
}

#[test]
fn invariants_on_parking_lot() {
    let duration = 12.0;
    let net = parking_lot(
        8e6,
        20e6,
        0.075,
        QueueSpec::drop_tail_bdp(8e6, 0.150, 3.0),
        QueueSpec::drop_tail_bdp(20e6, 0.150, 3.0),
        WorkloadSpec::on_off_1s(),
    );
    for scheme in schemes_under_test() {
        let out = run_homogeneous(&net, &scheme, 7, duration);
        check_invariants(&net, &out, duration);
    }
}

#[test]
fn invariants_under_sfq_codel() {
    let duration = 12.0;
    let fifo = dumbbell(
        3,
        8e6,
        0.080,
        QueueSpec::drop_tail_bdp(8e6, 0.080, 3.0),
        WorkloadSpec::AlwaysOn,
    );
    let net = lcc_core::with_sfq_codel(&fifo);
    for scheme in schemes_under_test() {
        let out = run_homogeneous(&net, &scheme, 3, duration);
        check_invariants(&net, &out, duration);
    }
}

#[test]
fn invariants_on_a_shared_uplink() {
    // Every flow's ACKs queue through one slow, finite reverse link.
    let duration = 12.0;
    let net = dumbbell(
        4,
        8e6,
        0.100,
        QueueSpec::drop_tail_bdp(8e6, 0.100, 2.0),
        WorkloadSpec::on_off_1s(),
    )
    .with_shared_reverse(20.0, |rate, _| QueueSpec::drop_tail_bdp(rate, 0.100, 2.0));
    for scheme in schemes_under_test() {
        let out = run_homogeneous(&net, &scheme, 11, duration);
        assert_eq!(out.link_rates_bps, [8e6, 8e6 / 20.0], "one shared uplink");
        check_invariants(&net, &out, duration);
    }
}

#[test]
fn invariants_on_per_flow_asymmetric_paths() {
    // A private slow reverse channel on the parking lot's first link
    // only: the long flow returns over it and a delay-only hop for the
    // second link, the short flow on the first link over it alone, and
    // the short flow on the second link over the paper's delay-only path.
    let duration = 12.0;
    let mut net = parking_lot(
        8e6,
        20e6,
        0.075,
        QueueSpec::drop_tail_bdp(8e6, 0.150, 3.0),
        QueueSpec::drop_tail_bdp(20e6, 0.150, 3.0),
        WorkloadSpec::on_off_1s(),
    );
    net.links[0].reverse = Some(ReverseSpec::per_flow(200e3, 0.0375));
    for scheme in schemes_under_test() {
        let out = run_homogeneous(&net, &scheme, 5, duration);
        let inf = f64::INFINITY;
        assert_eq!(out.link_rates_bps, [8e6, 20e6, 200e3, 200e3, inf, inf]);
        check_invariants(&net, &out, duration);
    }
}

#[test]
fn invariants_with_an_upload_on_the_uplink() {
    // Flow 0 uploads over the shared uplink the others' ACKs cross.
    let duration = 12.0;
    let mut net = dumbbell(
        3,
        8e6,
        0.100,
        QueueSpec::drop_tail_bdp(8e6, 0.100, 2.0),
        WorkloadSpec::on_off_1s(),
    )
    .with_shared_reverse(4.0, |rate, _| QueueSpec::drop_tail_bdp(rate, 0.100, 2.0));
    net.flows[0].reverse_data = true;
    for scheme in schemes_under_test() {
        let out = run_homogeneous(&net, &scheme, 13, duration);
        assert_eq!(out.link_rates_bps, [8e6, 2e6, f64::INFINITY]);
        assert!(out.flows[0].bytes_delivered > 0, "the upload delivers");
        check_invariants(&net, &out, duration);
    }
}

#[test]
fn mixed_population_conserves() {
    let duration = 15.0;
    let net = dumbbell(
        3,
        10e6,
        0.100,
        QueueSpec::drop_tail_bdp(10e6, 0.100, 2.0),
        WorkloadSpec::almost_continuous(),
    );
    let schemes = [
        Scheme::Cubic,
        Scheme::NewReno,
        Scheme::tao(WhiskerTree::uniform(Action::new(0.9, 1.0, 1.0)), "tao"),
    ];
    let out = run_mix(&net, &schemes, 9, duration);
    check_invariants(&net, &out, duration);
    // All three delivered something.
    for f in &out.flows {
        assert!(f.bytes_delivered > 0, "flow {} starved entirely", f.flow);
    }
}

#[test]
fn determinism_across_full_stack() {
    let net = dumbbell(
        2,
        12e6,
        0.120,
        QueueSpec::drop_tail_bdp(12e6, 0.120, 4.0),
        WorkloadSpec::on_off_1s(),
    );
    let run = || {
        let out = run_homogeneous(&net, &Scheme::Cubic, 1234, 10.0);
        out.flows
            .iter()
            .map(|f| (f.bytes_delivered, f.packets_delivered, f.losses))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
