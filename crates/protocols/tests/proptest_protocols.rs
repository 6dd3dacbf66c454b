//! Property-based tests of the protocol implementations: EWMA bounds,
//! AIMD invariants, Cubic's window discipline, and the whisker tree's
//! serde stability, compilation, usage counting and partition of memory
//! space.

use netsim::packet::{Ack, FlowId};
use netsim::time::{SimDuration, SimTime};
use netsim::transport::{AckInfo, CongestionControl};
use proptest::prelude::*;
use protocols::whisker::{MemoryRange, SIGNAL_MAX};
use protocols::{
    Action, CompiledTree, Cubic, LeafId, Memory, NewReno, SignalMask, UsageCounts, WhiskerTree,
    NUM_SIGNALS,
};

/// Build a whisker tree from an arbitrary split script and give every
/// leaf a distinct action derived from `(m, b, tau)`.
fn build_random_tree(splits: &[(usize, usize)], m: f64, b: f64, tau: f64) -> WhiskerTree {
    let mut tree = WhiskerTree::default_tree();
    for (leaf, dim) in splits {
        let n = tree.num_leaves();
        tree.split_leaf(LeafId(leaf % n), *dim, None);
    }
    for i in 0..tree.num_leaves() {
        let f = i as f64;
        tree.set_leaf_action(LeafId(i), Action::new(m + f * 0.01, b + f, tau + f * 0.1));
    }
    tree
}

fn ack_at(sent_ms: u64, seq: u64) -> Ack {
    Ack {
        flow: FlowId(0),
        seq,
        epoch: 0,
        echo_sent_at: SimTime::ZERO + SimDuration::from_millis(sent_ms),
        echo_tx_index: seq,
        recv_at: SimTime::ZERO,
        was_retx: false,
        batch: 1,
        rwnd: 0,
    }
}

fn info(rtt_ms: u64) -> AckInfo {
    AckInfo {
        rtt: Some(SimDuration::from_millis(rtt_ms)),
        min_rtt: SimDuration::from_millis(rtt_ms),
        in_flight: 1,
        rwnd: None,
    }
}

proptest! {
    /// EWMAs are convex combinations: they stay within the range of the
    /// observed inter-arrival samples.
    #[test]
    fn memory_ewmas_bounded_by_samples(gaps in proptest::collection::vec(1u64..500, 2..60)) {
        let mut m = Memory::new(SignalMask::all());
        let mut now = SimTime::from_secs_f64(10.0);
        let mut sent = 0u64;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &g) in gaps.iter().enumerate() {
            now += SimDuration::from_millis(g);
            sent += g; // echo stream advances by the same gaps
            m.on_ack(now, &ack_at(sent, i as u64));
            if i >= 1 {
                lo = lo.min(g as f64);
                hi = hi.max(g as f64);
            }
        }
        let p = m.point();
        prop_assert!(p[0] >= lo - 1e-9 && p[0] <= hi + 1e-9, "rec_ewma {} not in [{lo},{hi}]", p[0]);
        prop_assert!(p[1] >= lo - 1e-9 && p[1] <= hi + 1e-9, "slow_rec {} not in [{lo},{hi}]", p[1]);
    }

    /// rtt_ratio is always >= 1 once defined (current RTT over min RTT).
    #[test]
    fn rtt_ratio_at_least_one(rtts in proptest::collection::vec(10u64..2_000, 1..50)) {
        let mut m = Memory::new(SignalMask::all());
        let mut now = SimTime::from_secs_f64(100.0);
        for (i, &rtt) in rtts.iter().enumerate() {
            now += SimDuration::from_millis(17);
            let sent = now.checked_sub(SimDuration::from_millis(rtt)).unwrap();
            let ack = Ack {
                flow: FlowId(0),
                seq: i as u64,
                epoch: 0,
                echo_sent_at: sent,
                echo_tx_index: i as u64,
                recv_at: now,
                was_retx: false,
                batch: 1,
                rwnd: 0,
            };
            m.on_ack(now, &ack);
            prop_assert!(m.point()[3] >= 1.0 - 1e-12);
        }
    }

    /// NewReno: window never exceeds start + #acks (slow start is the
    /// fastest regime), never goes below 1, and halves on loss.
    #[test]
    fn newreno_window_discipline(
        events in proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8), Just(2u8)], 1..200)
    ) {
        let mut cc = NewReno::new();
        cc.reset(SimTime::ZERO);
        let start = cc.window();
        let mut acks = 0u64;
        let mut now = SimTime::ZERO;
        for e in events {
            now += SimDuration::from_millis(200); // outside recovery
            match e {
                0 => {
                    cc.on_ack(now, &ack_at(0, acks), &info(100));
                    acks += 1;
                }
                1 => {
                    let before = cc.window();
                    cc.on_loss(now);
                    // the post-loss window is half the old one, but never
                    // below NewReno's floor of 2 packets (which can exceed
                    // a post-timeout window of 1)
                    prop_assert!(cc.window() <= before.max(2.0));
                    prop_assert!(cc.window() >= (before / 2.0).min(2.0) - 1e-9);
                }
                _ => {
                    cc.on_timeout(now);
                    prop_assert!((cc.window() - 1.0).abs() < 1e-9);
                }
            }
            prop_assert!(cc.window() >= 1.0 - 1e-12);
            prop_assert!(cc.window() <= start.max(2.0) + acks as f64 + 1e-9);
        }
    }

    /// Cubic: the window stays within [1, 1e9] under arbitrary event
    /// interleavings and never grows on a loss.
    #[test]
    fn cubic_window_bounded(
        events in proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8), Just(2u8)], 1..300),
        rtt_ms in 10u64..400,
    ) {
        let mut cc = Cubic::new();
        cc.reset(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for e in events {
            now += SimDuration::from_millis(rtt_ms);
            match e {
                0 => cc.on_ack(now, &ack_at(0, 0), &info(rtt_ms)),
                1 => {
                    let before = cc.window();
                    cc.on_loss(now);
                    prop_assert!(cc.window() <= before + 1e-9);
                }
                _ => cc.on_timeout(now),
            }
            prop_assert!((1.0..=1e9).contains(&cc.window()), "cubic window {}", cc.window());
        }
    }

    /// Whisker trees survive arbitrary action rewrites + JSON round trips.
    #[test]
    fn whisker_tree_serde_stable(
        dims in proptest::collection::vec(0usize..4, 0..6),
        m in 0.0f64..2.0,
        b in -32.0f64..32.0,
        tau in 0.01f64..100.0,
    ) {
        let mut tree = WhiskerTree::default_tree();
        for (i, d) in dims.iter().enumerate() {
            let n = tree.num_leaves();
            tree.split_leaf(protocols::LeafId(i % n), *d, None);
        }
        let n = tree.num_leaves();
        tree.set_leaf_action(protocols::LeafId(n / 2), Action::new(m, b, tau));
        let json = serde_json::to_string(&tree).unwrap();
        let back: WhiskerTree = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&tree, &back);
        // lookups agree after the round trip
        for probe in [[0.0, 0.0, 0.0, 0.0], [100.0, 5.0, 30.0, 1.5], [3999.0, 3999.0, 3999.0, 63.0]] {
            prop_assert_eq!(tree.action_for(&probe), back.action_for(&probe));
        }
    }

    /// The compiled arena is an exact functional copy of the recursive
    /// tree: for any split script and any memory point, `CompiledTree`
    /// resolves the same leaf (by in-order id) and the same action as the
    /// recursive walk.
    #[test]
    fn compiled_tree_matches_recursive_walk(
        splits in proptest::collection::vec((0usize..16, 0usize..4), 0..14),
        m in 0.0f64..2.0,
        b in -32.0f64..32.0,
        tau in 0.01f64..100.0,
        probes in proptest::collection::vec(
            // includes out-of-range coordinates: both sides clamp first
            (0.0f64..8000.0, 0.0f64..8000.0, 0.0f64..8000.0, 0.0f64..128.0),
            1..32
        ),
    ) {
        let tree = build_random_tree(&splits, m, b, tau);
        let compiled = CompiledTree::compile(&tree);
        prop_assert_eq!(compiled.num_leaves(), tree.num_leaves());
        // leaf order is the in-order traversal on both sides
        for (i, w) in tree.leaves().iter().enumerate() {
            prop_assert_eq!(compiled.leaf(LeafId(i)).domain, w.domain);
            prop_assert_eq!(compiled.leaf(LeafId(i)).action, w.action);
        }
        for (a, bb, c, d) in probes {
            let p = [a, bb, c, d];
            prop_assert_eq!(compiled.action_for(&p), tree.action_for(&p), "point {:?}", p);
            let clamped = MemoryRange::clamp_point(&p);
            let leaf = compiled.lookup_clamped(&clamped);
            prop_assert!(compiled.leaf(leaf).domain.contains(&clamped));
        }
    }

    /// Usage recorded through `CompiledTree::lookup` is exactly a
    /// brute-force count over the tree's leaves: each clamped point is
    /// charged to the one leaf whose domain contains it, counts and
    /// observation sums bit for bit; `most_used` and `mean_observation`
    /// read the same numbers.
    #[test]
    fn usage_counts_match_brute_force(
        splits in proptest::collection::vec((0usize..16, 0usize..4), 0..10),
        probes in proptest::collection::vec(
            (0.0f64..8000.0, 0.0f64..4000.0, 0.0f64..4000.0, 0.0f64..100.0),
            1..40
        ),
    ) {
        let tree = build_random_tree(&splits, 1.0, 0.0, 1.0);
        let compiled = CompiledTree::compile(&tree);
        let leaves = tree.leaves();
        let mut counts = UsageCounts::new(compiled.num_leaves());
        let mut brute = vec![(0u64, [0.0; NUM_SIGNALS]); leaves.len()];
        for (a, b, c, d) in &probes {
            let p = [*a, *b, *c, *d];
            let clamped = MemoryRange::clamp_point(&p);
            counts.record(compiled.lookup(&p), &clamped);
            let i = leaves.iter().position(|w| w.domain.contains(&clamped)).unwrap();
            brute[i].0 += 1;
            for (acc, v) in brute[i].1.iter_mut().zip(&clamped) {
                *acc += v;
            }
        }
        for (i, (uses, sum)) in brute.iter().enumerate() {
            let leaf = LeafId(i);
            prop_assert_eq!(counts.use_count(leaf), *uses);
            prop_assert_eq!(counts.obs_sum(leaf).map(f64::to_bits), sum.map(f64::to_bits));
            let mean = (*uses > 0).then(|| sum.map(|v| v / *uses as f64));
            prop_assert_eq!(counts.mean_observation(leaf), mean);
        }
        let max = brute.iter().map(|(uses, _)| *uses).max().unwrap();
        let last_max = brute.iter().rposition(|(uses, _)| *uses == max).unwrap();
        prop_assert_eq!(counts.most_used(), Some(LeafId(last_max)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After arbitrary split sequences the whisker tree remains a
    /// partition: every point routes to exactly one leaf whose domain
    /// contains it.
    #[test]
    fn whisker_tree_stays_a_partition(
        splits in proptest::collection::vec((0usize..8, 0usize..NUM_SIGNALS), 0..12),
        probes in proptest::collection::vec(
            (0.0f64..4000.0, 0.0f64..4000.0, 0.0f64..4000.0, 0.0f64..64.0),
            1..20
        ),
    ) {
        let mut tree = WhiskerTree::default_tree();
        for (leaf, dim) in splits {
            let n = tree.num_leaves();
            tree.split_leaf(LeafId(leaf % n), dim, None);
        }
        // Leaves tile the space: volumes sum to the whole.
        let total_volume: f64 = tree
            .leaves()
            .iter()
            .map(|w| (0..NUM_SIGNALS).map(|d| w.domain.width(d)).product::<f64>())
            .sum();
        let whole: f64 = SIGNAL_MAX.iter().product();
        prop_assert!(((total_volume - whole) / whole).abs() < 1e-9);

        for (a, b, c, d) in probes {
            let p = [a, b, c, d];
            // exactly one leaf contains the point
            let holders = tree
                .leaves()
                .iter()
                .filter(|w| w.domain.contains(&p))
                .count();
            prop_assert_eq!(holders, 1, "point {:?} in {} leaves", p, holders);
            // and lookup agrees with that leaf
            let act = tree.action_for(&p);
            let holder = tree.leaves().into_iter().find(|w| w.domain.contains(&p)).unwrap();
            prop_assert_eq!(act, holder.action);
        }
    }
}
