//! The Tao protocol executor: RemyCC at run time.
//!
//! A Tao ("tractable attempt at optimal") protocol is a whisker tree
//! produced by the optimizer. At run time the sender keeps the 4-signal
//! congestion [`Memory`]; on every acknowledgment it updates the memory,
//! looks up the whisker covering the current memory point, and applies the
//! whisker's action: `cwnd ← m·cwnd + b`, pacing floor τ (§3.5).
//!
//! The executor walks a [`CompiledTree`] — the whisker tree flattened
//! into a contiguous arena. The compiled tree is immutable and shared
//! (`Arc`) so many senders in one simulation, and many simulations in one
//! evaluation batch, reuse a single compilation instead of cloning the
//! recursive tree per sender.
//!
//! Usage recording is a training-only probe. Which whisker fired, and
//! where, goes to the executor's [`UsageRecorder`], a type parameter:
//! every sender [`crate::Scheme::build`] makes — every figure and
//! benchmark sender — is a `TaoCc<NoUsage>`, whose zero-size recorder
//! compiles away, and only the optimizer's evaluations build
//! `TaoCc<UsageCounts>`, one flat buffer per sender.

use crate::compiled::{CompiledTree, UsageCounts};
use crate::memory::{Memory, MemoryPoint, SignalMask};
use crate::whisker::{LeafId, MemoryRange};
use netsim::packet::Ack;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::{AckInfo, CongestionControl};
use std::sync::Arc;

/// Initial congestion window at flow (re)start, packets.
pub const INITIAL_WINDOW: f64 = 2.0;

/// What a Tao sender does with each whisker use.
pub trait UsageRecorder: Send + 'static {
    /// An empty record for the leaves of `tree`.
    fn for_tree(tree: &CompiledTree) -> Self;

    /// One use of `leaf` at the clamped memory point `p`.
    fn record(&mut self, leaf: LeafId, p: &MemoryPoint);
}

/// Records nothing: the recorder of every sender outside training.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoUsage;

impl UsageRecorder for NoUsage {
    fn for_tree(_tree: &CompiledTree) -> Self {
        NoUsage
    }

    #[inline(always)]
    fn record(&mut self, _leaf: LeafId, _p: &MemoryPoint) {}
}

/// Counts every use per leaf, with the memory points it fired at: what
/// the optimizer orders and splits whiskers by.
impl UsageRecorder for UsageCounts {
    fn for_tree(tree: &CompiledTree) -> Self {
        UsageCounts::new(tree.num_leaves())
    }

    #[inline]
    fn record(&mut self, leaf: LeafId, p: &MemoryPoint) {
        UsageCounts::record(self, leaf, p);
    }
}

/// Runtime executor for a Tao protocol, recording whisker usage in a `U`.
pub struct TaoCc<U> {
    tree: Arc<CompiledTree>,
    usage: U,
    memory: Memory,
    cwnd: f64,
    intersend: SimDuration,
}

impl<U: UsageRecorder> TaoCc<U> {
    /// Executor over a pre-compiled (and possibly shared) tree with a §3.4
    /// signal-knockout mask — [`crate::Scheme::build`] hands every sender
    /// of one scheme the same `Arc`.
    pub fn from_compiled(tree: Arc<CompiledTree>, mask: SignalMask) -> Self {
        let mut cc = TaoCc {
            usage: U::for_tree(&tree),
            tree,
            memory: Memory::new(mask),
            cwnd: INITIAL_WINDOW,
            intersend: SimDuration::ZERO,
        };
        cc.apply_current_whisker_pacing();
        cc
    }

    fn apply_current_whisker_pacing(&mut self) {
        // Between reset and the first ack, pace with the action at the
        // all-zero memory point (the flow-start whisker).
        let leaf = self.tree.lookup(&self.memory.point());
        self.intersend = self.tree.leaf(leaf).pacing;
    }

    /// The whisker uses recorded so far (the optimizer reads these after
    /// an evaluation run), index-aligned with the tree's in-order leaves.
    pub fn usage(&self) -> &U {
        &self.usage
    }

    /// The compiled tree this executor runs.
    pub fn compiled_tree(&self) -> &Arc<CompiledTree> {
        &self.tree
    }

    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }
}

impl<U: UsageRecorder> CongestionControl for TaoCc<U> {
    fn reset(&mut self, _now: SimTime) {
        self.memory.reset();
        self.cwnd = INITIAL_WINDOW;
        self.apply_current_whisker_pacing();
    }

    fn on_ack(&mut self, now: SimTime, ack: &Ack, _info: &AckInfo) {
        self.memory.on_ack(now, ack);
        let p = MemoryRange::clamp_point(&self.memory.point());
        let leaf = self.tree.lookup_clamped(&p);
        self.usage.record(leaf, &p);
        let leaf = self.tree.leaf(leaf);
        self.cwnd = leaf.action.apply_to_window(self.cwnd);
        self.intersend = leaf.pacing;
    }

    fn on_loss(&mut self, _now: SimTime) {
        // Remy-designed protocols react to the ack stream only; loss shows
        // up as RTT inflation and slower ack arrival, both captured in the
        // memory signals.
    }

    fn on_timeout(&mut self, _now: SimTime) {
        // Defensive: after a full RTO (no acks for the whole timeout) the
        // signal state is stale; restart the flow as at epoch start. This
        // mirrors the watchdog in the authors' ns-2 RemyCC port.
        self.memory.reset();
        self.cwnd = INITIAL_WINDOW;
        self.apply_current_whisker_pacing();
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn intersend(&self) -> SimDuration {
        self.intersend
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::whisker::{LeafId, WhiskerTree};
    use netsim::packet::FlowId;

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

    fn info() -> AckInfo {
        AckInfo {
            rtt: Some(SimDuration::from_millis(100)),
            min_rtt: SimDuration::from_millis(100),
            in_flight: 1,
            rwnd: None,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A training-side executor, so the tests can read its usage.
    fn executor(tree: WhiskerTree) -> TaoCc<UsageCounts> {
        TaoCc::from_compiled(CompiledTree::compile_shared(&tree), SignalMask::all())
    }

    #[test]
    fn applies_action_per_ack() {
        let tree = WhiskerTree::uniform(Action::new(1.0, 2.0, 5.0));
        let mut cc = executor(tree);
        assert_eq!(cc.window(), INITIAL_WINDOW);
        cc.on_ack(t(100), &ack_at(0, 0), &info());
        assert_eq!(cc.window(), INITIAL_WINDOW + 2.0);
        cc.on_ack(t(110), &ack_at(5, 1), &info());
        assert_eq!(cc.window(), INITIAL_WINDOW + 4.0);
        assert_eq!(cc.intersend(), SimDuration::from_millis(5));
    }

    #[test]
    fn multiplicative_decrease_clamps_at_one() {
        let tree = WhiskerTree::uniform(Action::new(0.5, 0.0, 1.0));
        let mut cc = executor(tree);
        for i in 0..20 {
            cc.on_ack(t(100 + i * 10), &ack_at(i * 10, i), &info());
        }
        assert_eq!(cc.window(), 1.0, "window floor");
    }

    #[test]
    fn reset_restores_initial_state() {
        let tree = WhiskerTree::uniform(Action::new(1.0, 3.0, 2.0));
        let mut cc = executor(tree);
        cc.on_ack(t(100), &ack_at(0, 0), &info());
        assert!(cc.window() > INITIAL_WINDOW);
        cc.reset(t(200));
        assert_eq!(cc.window(), INITIAL_WINDOW);
        assert_eq!(cc.intersend(), SimDuration::from_millis(2));
    }

    #[test]
    fn different_whiskers_fire_by_memory_state() {
        // Split on rtt_ratio: calm regime grows, congested regime shrinks.
        let mut tree = WhiskerTree::default_tree();
        tree.split_leaf(LeafId(0), 3, None);
        // after midpoint split at rtt_ratio = 32, re-split lower half to
        // get a useful boundary near 2.0
        match &mut tree {
            WhiskerTree::Node { split_at, .. } => *split_at = 2.0,
            _ => unreachable!(),
        }
        tree.set_leaf_action(LeafId(0), Action::new(1.0, 1.0, 1.0));
        tree.set_leaf_action(LeafId(1), Action::new(0.5, 0.0, 1.0));
        let mut cc = executor(tree);

        // RTT == min RTT: ratio 1 -> growth whisker
        cc.on_ack(t(100), &ack_at(0, 0), &info());
        let w = cc.window();
        assert!(w > INITIAL_WINDOW);

        // now a hugely inflated RTT: ratio > 2 -> shrink whisker
        cc.on_ack(t(500), &ack_at(200, 1), &info());
        assert!(cc.window() < w, "congested whisker shrinks window");
    }

    #[test]
    fn timeout_resets_like_epoch_start() {
        let tree = WhiskerTree::uniform(Action::new(1.0, 5.0, 0.5));
        let mut cc = executor(tree);
        cc.on_ack(t(100), &ack_at(0, 0), &info());
        cc.on_ack(t(120), &ack_at(10, 1), &info());
        assert!(cc.window() > INITIAL_WINDOW);
        cc.on_timeout(t(2000));
        assert_eq!(cc.window(), INITIAL_WINDOW);
    }

    #[test]
    fn usage_counts_accumulate_per_executor() {
        let tree = WhiskerTree::default_tree();
        let mut cc = executor(tree);
        for i in 0..7 {
            cc.on_ack(t(100 + i * 10), &ack_at(i * 10, i), &info());
        }
        assert_eq!(cc.usage().total_uses(), 7);
    }

    #[test]
    fn only_a_recording_sender_counts_and_both_run_alike() {
        // Split on rtt_ratio at 2, so the acks below fire both leaves.
        let mut tree = WhiskerTree::default_tree();
        tree.split_leaf(LeafId(0), 3, None);
        match &mut tree {
            WhiskerTree::Node { split_at, .. } => *split_at = 2.0,
            _ => unreachable!(),
        }
        let scheme = crate::Scheme::tao(tree, "tao");
        let crate::Scheme::Tao { tree: compiled, .. } = &scheme else {
            unreachable!()
        };
        let mut silent = scheme.build();
        let mut recording = scheme.build_with::<UsageCounts>();
        let any = silent.as_any().expect("a Tao sender exposes itself");
        assert!(any.is::<TaoCc<NoUsage>>(), "Scheme::build records nothing");
        // The counts the same memory updates and clamped lookups give,
        // leaf by leaf; the recorder changes no window or pacing.
        let mut memory = Memory::new(SignalMask::all());
        let mut expect = UsageCounts::new(compiled.num_leaves());
        for cc in [&mut silent, &mut recording] {
            cc.reset(t(0));
            cc.on_loss(t(1));
            cc.on_timeout(t(2));
        }
        for i in 0..40 {
            let (now, ack) = (t(100 + i * 7), ack_at(i * 3 + (i % 5) * 20, i));
            for cc in [&mut silent, &mut recording] {
                cc.on_ack(now, &ack, &info());
            }
            assert_eq!(silent.window().to_bits(), recording.window().to_bits());
            assert_eq!(silent.intersend(), recording.intersend());
            memory.on_ack(now, &ack);
            let p = MemoryRange::clamp_point(&memory.point());
            expect.record(compiled.lookup_clamped(&p), &p);
        }
        let any = recording.as_any().expect("a Tao sender exposes itself");
        let usage = any.downcast_ref::<TaoCc<UsageCounts>>().unwrap().usage();
        assert_eq!(usage.len(), compiled.num_leaves());
        assert_eq!(*usage, expect);
        assert!(usage.iter().all(|(_, n, _)| n > 0), "both leaves fired");
    }

    #[test]
    fn shared_compiled_tree_keeps_counts_separate() {
        let mut tree = WhiskerTree::default_tree();
        tree.split_leaf(LeafId(0), 3, None);
        let compiled = CompiledTree::compile_shared(&tree);
        let mut a = TaoCc::<UsageCounts>::from_compiled(compiled.clone(), SignalMask::all());
        let mut b = TaoCc::<UsageCounts>::from_compiled(compiled, SignalMask::all());
        a.on_ack(t(100), &ack_at(0, 0), &info());
        a.on_ack(t(110), &ack_at(5, 1), &info());
        b.on_ack(t(100), &ack_at(0, 0), &info());
        assert_eq!(a.usage().total_uses(), 2);
        assert_eq!(b.usage().total_uses(), 1);
        // counts fold together leaf by leaf
        let mut merged = a.usage().clone();
        merged.merge(b.usage());
        assert_eq!(merged.total_uses(), 3);
    }
}
