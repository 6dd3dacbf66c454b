//! The Tao protocol executor: RemyCC at run time.
//!
//! A Tao ("tractable attempt at optimal") protocol is a whisker tree
//! produced by the optimizer. At run time the sender keeps the 4-signal
//! congestion [`Memory`]; on every acknowledgment it updates the memory,
//! looks up the whisker covering the current memory point, and applies the
//! whisker's action: `cwnd ← m·cwnd + b`, pacing floor τ (§3.5).
//!
//! The executor walks a [`CompiledTree`] — the whisker tree flattened
//! into a contiguous arena — and records per-whisker usage in a flat
//! [`UsageCounts`] buffer, allocated at the first recorded use: only
//! training reads it, and a sender that never acknowledges anything (an
//! idle slot of a 10⁴-sender cell) holds none. The compiled tree is
//! immutable and shared (`Arc`) so many senders in one simulation, and
//! many simulations in one evaluation batch, reuse a single compilation
//! instead of cloning the recursive tree per sender.

use crate::compiled::{CompiledTree, UsageCounts};
use crate::memory::{Memory, SignalMask};
use crate::whisker::MemoryRange;
use netsim::packet::Ack;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::{AckInfo, CongestionControl};
use std::sync::Arc;

/// Initial congestion window at flow (re)start, packets.
pub const INITIAL_WINDOW: f64 = 2.0;

/// Runtime executor for a Tao protocol.
pub struct TaoCc {
    tree: Arc<CompiledTree>,
    /// `None` until the first acknowledgment records a use.
    usage: Option<UsageCounts>,
    memory: Memory,
    cwnd: f64,
    intersend: SimDuration,
    /// Shared by every sender a builder makes from one scheme.
    name: Arc<str>,
    /// Latest receive-window advertisement; clamps
    /// [`CongestionControl::window`] (the transport clamps too — this
    /// keeps the scheme's own view honest).
    rwnd: Option<f64>,
}

impl TaoCc {
    /// Executor over a pre-compiled (and possibly shared) tree with a §3.4
    /// signal-knockout mask — [`crate::Scheme::build`] hands every sender
    /// of one scheme the same `Arc`.
    pub fn from_compiled(
        tree: Arc<CompiledTree>,
        mask: SignalMask,
        name: impl Into<Arc<str>>,
    ) -> Self {
        let mut cc = TaoCc {
            tree,
            usage: None,
            memory: Memory::new(mask),
            cwnd: INITIAL_WINDOW,
            intersend: SimDuration::ZERO,
            name: name.into(),
            rwnd: None,
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

    /// Usage statistics collected during execution (the optimizer reads
    /// these after an evaluation run), index-aligned with the tree's
    /// in-order leaves; `None` while no use has been recorded.
    pub fn usage(&self) -> Option<&UsageCounts> {
        self.usage.as_ref()
    }

    /// The compiled tree this executor runs.
    pub fn compiled_tree(&self) -> &Arc<CompiledTree> {
        &self.tree
    }

    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }
}

impl CongestionControl for TaoCc {
    fn reset(&mut self, _now: SimTime) {
        self.memory.reset();
        self.cwnd = INITIAL_WINDOW;
        self.rwnd = None;
        self.apply_current_whisker_pacing();
    }

    fn on_ack(&mut self, now: SimTime, ack: &Ack, info: &AckInfo) {
        if let Some(w) = info.rwnd {
            self.rwnd = Some(w as f64);
        }
        self.memory.on_ack(now, ack);
        let p = MemoryRange::clamp_point(&self.memory.point());
        let leaf = self.tree.lookup_clamped(&p);
        self.usage
            .get_or_insert_with(|| UsageCounts::new(self.tree.num_leaves()))
            .record(leaf, &p);
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
        match self.rwnd {
            Some(r) => self.cwnd.min(r),
            None => self.cwnd,
        }
    }

    fn intersend(&self) -> SimDuration {
        self.intersend
    }

    fn name(&self) -> String {
        self.name.to_string()
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

    fn executor(tree: WhiskerTree) -> TaoCc {
        TaoCc::from_compiled(
            CompiledTree::compile_shared(&tree),
            SignalMask::all(),
            "tao-test",
        )
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
        assert_eq!(cc.usage().unwrap().total_uses(), 7);
    }

    #[test]
    fn usage_buffer_is_allocated_at_the_first_ack() {
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
        let mut cc = scheme.build();
        let tao = |cc: &dyn CongestionControl| -> Option<UsageCounts> {
            let any = cc.as_any().expect("a Tao sender exposes itself");
            any.downcast_ref::<TaoCc>().unwrap().usage().cloned()
        };
        cc.reset(t(0));
        cc.on_loss(t(1));
        cc.on_timeout(t(2));
        assert_eq!(tao(&*cc), None, "no buffer before the first ack");
        // The counts a buffer allocated up front records: the same
        // memory updates and the same clamped lookups, leaf by leaf.
        let mut memory = Memory::new(SignalMask::all());
        let mut expect = UsageCounts::new(compiled.num_leaves());
        for i in 0..40 {
            let (now, ack) = (t(100 + i * 7), ack_at(i * 3 + (i % 5) * 20, i));
            cc.on_ack(now, &ack, &info());
            memory.on_ack(now, &ack);
            let p = MemoryRange::clamp_point(&memory.point());
            expect.record(compiled.lookup_clamped(&p), &p);
        }
        let usage = tao(&*cc).expect("allocated by the first ack");
        assert_eq!(usage.len(), compiled.num_leaves());
        assert_eq!(usage, expect);
        assert!(usage.iter().all(|(_, n, _)| n > 0), "both leaves fired");
    }

    #[test]
    fn shared_compiled_tree_keeps_counts_separate() {
        let mut tree = WhiskerTree::default_tree();
        tree.split_leaf(LeafId(0), 3, None);
        let compiled = CompiledTree::compile_shared(&tree);
        let mut a = TaoCc::from_compiled(compiled.clone(), SignalMask::all(), "a");
        let mut b = TaoCc::from_compiled(compiled, SignalMask::all(), "b");
        a.on_ack(t(100), &ack_at(0, 0), &info());
        a.on_ack(t(110), &ack_at(5, 1), &info());
        b.on_ack(t(100), &ack_at(0, 0), &info());
        assert_eq!(a.usage().unwrap().total_uses(), 2);
        assert_eq!(b.usage().unwrap().total_uses(), 1);
        // counts fold together leaf by leaf
        let mut merged = a.usage().unwrap().clone();
        merged.merge(b.usage().unwrap());
        assert_eq!(merged.total_uses(), 3);
    }
}
