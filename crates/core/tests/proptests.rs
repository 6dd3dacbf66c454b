//! Property-based tests over the whole stack: simulator invariants must
//! hold for arbitrary (bounded) network configurations and protocol
//! parameters, and the experiment layer's statistics must behave for any
//! input. (The whisker tree's partition property lives with the tree, in
//! the `protocols` crate's tests.)

use netsim::prelude::*;
use proptest::prelude::*;
use protocols::{Action, WhiskerTree};

fn arb_action() -> impl Strategy<Value = Action> {
    (0.0f64..2.0, -32.0f64..32.0, 0.01f64..50.0).prop_map(|(m, b, tau)| Action::new(m, b, tau))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-flow run on any sane dumbbell conserves bytes and
    /// respects the line rate.
    #[test]
    fn simulator_conserves_for_any_action(
        action in arb_action(),
        rate_mbps in 1.0f64..50.0,
        rtt_ms in 10.0f64..300.0,
        bdp_mult in 0.5f64..6.0,
        seed in 0u64..u64::MAX,
    ) {
        let rate = rate_mbps * 1e6;
        let rtt = rtt_ms / 1e3;
        let net = dumbbell(
            1,
            rate,
            rtt,
            QueueSpec::drop_tail_bdp(rate, rtt, bdp_mult),
            WorkloadSpec::AlwaysOn,
        );
        let scheme = lcc_core::Scheme::tao(
            WhiskerTree::uniform(action),
            "prop",
        );
        let out = lcc_core::run_homogeneous(&net, &scheme, seed, 5.0);
        let f = &out.flows[0];
        prop_assert!(f.throughput_bps <= rate * 1.02);
        if f.packets_delivered > 0 {
            prop_assert!(f.avg_delay_s >= rtt / 2.0 * 0.999);
        }
        prop_assert!(out.link_bytes[0] as f64 <= rate / 8.0 * 5.0 * 1.01);
        prop_assert!(f.retransmissions <= f.transmissions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying any action sequence keeps the window within legal bounds.
    #[test]
    fn window_stays_bounded(
        actions in proptest::collection::vec(arb_action(), 1..50),
        start in 1.0f64..1000.0,
    ) {
        let mut w = start;
        for a in actions {
            w = a.apply_to_window(w);
            prop_assert!((1.0..=1e6).contains(&w), "window escaped: {}", w);
        }
    }

    /// Proportional fairness on a single link is an exact equal split for
    /// any flow count, and saturates the link.
    #[test]
    fn proportional_fair_single_link(n in 1usize..12, cap in 1e6f64..1e9) {
        let routes: Vec<Vec<usize>> = (0..n).map(|_| vec![0]).collect();
        let rates = lcc_core::proportional_fair(&[cap], &routes);
        let total: f64 = rates.iter().sum();
        prop_assert!((total - cap).abs() / cap < 1e-6);
        for r in &rates {
            prop_assert!((r - cap / n as f64).abs() / cap < 1e-6);
        }
    }

    /// Summary statistics are order-invariant and bounded by extremes.
    #[test]
    fn summarize_properties(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let s1 = lcc_core::summarize(&xs);
        xs.reverse();
        let s2 = lcc_core::summarize(&xs);
        prop_assert!((s1.mean - s2.mean).abs() < 1e-6);
        prop_assert!((s1.median - s2.median).abs() < 1e-9);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(s1.median >= lo && s1.median <= hi);
        prop_assert!(s1.mean >= lo - 1e-9 && s1.mean <= hi + 1e-9);
    }
}
