//! Property-based tests over the whole stack: simulator invariants must
//! hold for arbitrary (bounded) network configurations and protocol
//! parameters, and the experiment layer's statistics must behave for any
//! input. (The whisker tree's partition property lives with the tree, in
//! the `protocols` crate's tests.)

use lcc_core::search::Certificate;
use netsim::prelude::*;
use proptest::prelude::*;
use protocols::{Action, MemoryRange, Whisker, WhiskerTree};
use remy::TrainedProtocol;

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

/// A stream of arbitrary values from one seed (splitmix64), for the
/// serialization round trip: it builds configs no sampler would.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Any finite double: a quarter of the draws a common value, the rest
    /// raw bits over every exponent (subnormals and `-0.0` included).
    fn f64(&mut self) -> f64 {
        const COMMON: [f64; 8] = [0.0, -0.0, 1.0, 0.1, 1e-7, 5e-324, f64::MAX, 12e6];
        let bits = self.next();
        if bits % 4 == 0 {
            return COMMON[(bits >> 2) as usize % COMMON.len()];
        }
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits ^ (1 << 62))
        }
    }

    fn maybe<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.flag().then(|| f(self))
    }

    fn queue(&mut self) -> QueueSpec {
        match self.below(4) {
            0 => QueueSpec::DropTail {
                capacity_bytes: self.maybe(Self::next),
            },
            1 => QueueSpec::SfqCodel {
                capacity_bytes: self.next(),
                target_ms: self.f64(),
                interval_ms: self.f64(),
                bins: self.next() as u32,
            },
            2 => QueueSpec::Red {
                capacity_bytes: self.next(),
                min_th: self.f64(),
                max_th: self.f64(),
                max_p: self.f64(),
            },
            _ => QueueSpec::Codel {
                capacity_bytes: self.next(),
                target_ms: self.f64(),
                interval_ms: self.f64(),
            },
        }
    }

    fn fault(&mut self) -> FaultSpec {
        match self.below(3) {
            0 => FaultSpec::GilbertElliott {
                loss_good: self.f64(),
                loss_bad: self.f64(),
                good_to_bad: self.f64(),
                bad_to_good: self.f64(),
            },
            1 => FaultSpec::Outage {
                up_s: self.f64(),
                down_s: self.f64(),
                scheduled: self.flag(),
                drop_while_down: self.flag(),
            },
            _ => FaultSpec::Corruption { prob: self.f64() },
        }
    }

    fn workload(&mut self) -> WorkloadSpec {
        match self.below(4) {
            0 => WorkloadSpec::AlwaysOn,
            1 => WorkloadSpec::OnOff {
                mean_on_s: self.f64(),
                mean_off_s: self.f64(),
            },
            2 => WorkloadSpec::Schedule(
                (0..self.below(4))
                    .map(|_| (self.f64(), self.flag()))
                    .collect(),
            ),
            _ => WorkloadSpec::Churn {
                arrival_rate_hz: self.f64(),
                mean_duration_s: self.f64(),
                unblocked: self.flag(),
            },
        }
    }

    fn network(&mut self) -> NetworkConfig {
        let links = (0..1 + self.below(3))
            .map(|_| LinkSpec {
                rate_bps: self.f64(),
                delay_s: self.f64(),
                queue: self.queue(),
                reverse: self.maybe(|d| ReverseSpec {
                    rate_bps: d.f64(),
                    delay_s: d.f64(),
                    queue: d.queue(),
                    shared: d.flag(),
                }),
                fault: self.maybe(Self::fault),
            })
            .collect();
        let flows = (0..1 + self.below(4))
            .map(|_| FlowSpec {
                route: (0..1 + self.below(3))
                    .map(|_| self.below(3) as usize)
                    .collect(),
                workload: self.workload(),
                receiver: self.maybe(|d| ReceiverSpec {
                    ack_every: d.next() as u32,
                    flush_timer_s: d.maybe(Self::f64),
                    rwnd_packets: d.maybe(|d| d.next() as u32),
                }),
                reverse_data: self.flag(),
            })
            .collect();
        NetworkConfig { links, flows }
    }

    fn point(&mut self) -> [f64; 4] {
        [self.f64(), self.f64(), self.f64(), self.f64()]
    }

    fn tree(&mut self, depth: u32) -> WhiskerTree {
        if depth == 0 || self.below(3) == 0 {
            return WhiskerTree::Leaf(Whisker::new(
                MemoryRange {
                    lower: self.point(),
                    upper: self.point(),
                },
                Action {
                    window_multiple: self.f64(),
                    window_increment: self.f64(),
                    intersend_ms: self.f64(),
                },
            ));
        }
        WhiskerTree::Node {
            dim: self.below(4) as usize,
            split_at: self.f64(),
            below: Box::new(self.tree(depth - 1)),
            above: Box::new(self.tree(depth - 1)),
        }
    }
}

/// Where `b` first differs from `a`, doubles compared by their bits.
fn first_difference(a: &serde_json::Value, b: &serde_json::Value, at: &str) -> Option<String> {
    use serde_json::Value;
    let same = match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) if x.len() == y.len() => {
            return (x.iter().zip(y).enumerate())
                .find_map(|(i, (x, y))| first_difference(x, y, &format!("{at}[{i}]")));
        }
        (Value::Object(x), Value::Object(y))
            if x.len() == y.len() && x.iter().zip(y).all(|((k, _), (l, _))| k == l) =>
        {
            return (x.iter().zip(y))
                .find_map(|((k, x), (_, y))| first_difference(x, y, &format!("{at}.{k}")));
        }
        _ => a == b,
    };
    (!same).then(|| format!("{at}: {a:?} read back as {b:?}"))
}

/// `value` survives compact and pretty JSON with every double's bits.
fn round_trips_bit_exact<T>(value: &T) -> Result<(), String>
where
    T: serde::Serialize + serde::Deserialize,
{
    let tree = serde_json::to_value(value).expect("serializes");
    for text in [
        serde_json::to_string(value).expect("serializes"),
        serde_json::to_string_pretty(value).expect("serializes"),
    ] {
        let back: T = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let again = serde_json::to_value(&back).expect("serializes");
        if let Some(diff) = first_difference(&tree, &again, "$") {
            return Err(diff);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// What `search::replay` and the asset files rely on: a network, a
    /// trained protocol and a certificate read back from the vendored
    /// serde_json with every f64 bit-identical, whatever its value.
    #[test]
    fn serde_json_round_trips_every_f64_bit_exact(seed in 0u64..u64::MAX) {
        let mut d = Draws(seed);
        let net = d.network();
        prop_assert_eq!(round_trips_bit_exact(&net), Ok(()));
        let trained = TrainedProtocol {
            name: format!("tao-{seed}"),
            tree: d.tree(4),
            score: d.f64(),
            description: "drawn \"tree\"\n".into(),
        };
        prop_assert_eq!(round_trips_bit_exact(&trained), Ok(()));
        let score = d.f64();
        let cert = Certificate {
            scheme: "tao".into(),
            asset: d.maybe(|_| "tao-calibration".to_string()),
            point: (0..d.below(8)).map(|_| d.f64()).collect(),
            net,
            seeds: (0..d.below(4)).map(|_| d.next()).collect(),
            duration_s: d.f64(),
            fair_tpt_bps: d.f64(),
            base_delay_s: d.f64(),
            score,
            score_bits: score.to_bits(),
            candidates_evaluated: d.next() as usize,
        };
        prop_assert_eq!(round_trips_bit_exact(&cert), Ok(()));
    }
}
