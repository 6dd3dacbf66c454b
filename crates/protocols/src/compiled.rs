//! Compiled whisker trees: the executor-side representation of a
//! [`crate::whisker::WhiskerTree`].
//!
//! The boxed recursive `WhiskerTree` is the optimizer's *editing*
//! structure (split, set-action, serialize); walking it on every ack
//! chases heap pointers and the `leaf_by_id` counter-walk is O(n). The
//! training inner loop looks up an action once per acknowledgment across
//! millions of simulated acks per evaluation batch, so the executor
//! compiles the tree once into a contiguous arena:
//!
//! * internal nodes live in one `Vec` with u32 index links (branch-
//!   predictable, cache-dense descent),
//! * leaves live in a flat `Vec` ordered exactly like
//!   `WhiskerTree::leaves()`, making [`LeafId`] an O(1) index,
//! * usage statistics accumulate in a separate flat [`UsageCounts`]
//!   buffer per executor. It is the only record of whisker usage: the
//!   optimizer orders whiskers by its counts and splits at its mean
//!   observations, and the tree itself carries none.

use crate::action::Action;
use crate::memory::{MemoryPoint, NUM_SIGNALS};
use crate::whisker::{LeafId, MemoryRange, WhiskerTree};
use netsim::time::SimDuration;
use std::sync::Arc;

/// Child link in the arena: index into `nodes` or, with the high bit set,
/// into `leaves`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct NodeRef(u32);

const LEAF_BIT: u32 = 1 << 31;

impl NodeRef {
    fn node(i: usize) -> Self {
        debug_assert!((i as u32) < LEAF_BIT);
        NodeRef(i as u32)
    }

    fn leaf(i: usize) -> Self {
        debug_assert!((i as u32) < LEAF_BIT);
        NodeRef(i as u32 | LEAF_BIT)
    }

    #[inline]
    fn as_leaf(self) -> Option<usize> {
        if self.0 & LEAF_BIT != 0 {
            Some((self.0 & !LEAF_BIT) as usize)
        } else {
            None
        }
    }

    #[inline]
    fn node_index(self) -> usize {
        debug_assert!(self.0 & LEAF_BIT == 0);
        self.0 as usize
    }
}

/// One internal split in the arena.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Node {
    dim: u32,
    split_at: f64,
    below: NodeRef,
    above: NodeRef,
}

/// A compiled leaf: the whisker's box and action (usage stats live in
/// [`UsageCounts`], not here, so the tree itself is immutable and
/// shareable across senders).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompiledLeaf {
    pub domain: MemoryRange,
    pub action: Action,
    /// The action's pacing floor τ, converted once at compile time rather
    /// than on every acknowledgment.
    pub pacing: SimDuration,
}

/// Immutable, contiguous compilation of a [`WhiskerTree`]. Equal trees
/// compile to equal arenas.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledTree {
    nodes: Vec<Node>,
    leaves: Vec<CompiledLeaf>,
    root: NodeRef,
}

impl CompiledTree {
    /// Flatten `tree`. Leaf order matches `tree.leaves()` (in-order), so
    /// [`LeafId`]s are interchangeable between representations.
    pub fn compile(tree: &WhiskerTree) -> Self {
        let mut out = CompiledTree {
            nodes: Vec::with_capacity(tree.num_leaves().saturating_sub(1)),
            leaves: Vec::with_capacity(tree.num_leaves()),
            root: NodeRef::leaf(0),
        };
        out.root = out.flatten(tree);
        out
    }

    /// Convenience: compile behind an [`Arc`] for sharing across senders.
    pub fn compile_shared(tree: &WhiskerTree) -> Arc<Self> {
        Arc::new(Self::compile(tree))
    }

    fn flatten(&mut self, tree: &WhiskerTree) -> NodeRef {
        match tree {
            WhiskerTree::Leaf(w) => {
                let idx = self.leaves.len();
                self.leaves.push(CompiledLeaf {
                    domain: w.domain,
                    action: w.action,
                    pacing: SimDuration::from_millis_f64(w.action.intersend_ms),
                });
                NodeRef::leaf(idx)
            }
            WhiskerTree::Node {
                dim,
                split_at,
                below,
                above,
            } => {
                let idx = self.nodes.len();
                // Reserve the slot first so children index below parents in
                // allocation order but links stay exact.
                self.nodes.push(Node {
                    dim: *dim as u32,
                    split_at: *split_at,
                    below: NodeRef::leaf(0),
                    above: NodeRef::leaf(0),
                });
                let below = self.flatten(below);
                let above = self.flatten(above);
                self.nodes[idx].below = below;
                self.nodes[idx].above = above;
                NodeRef::node(idx)
            }
        }
    }

    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    pub fn leaf(&self, id: LeafId) -> &CompiledLeaf {
        &self.leaves[id.0]
    }

    pub fn leaves(&self) -> &[CompiledLeaf] {
        &self.leaves
    }

    /// Leaf containing an **already clamped** memory point (see
    /// [`MemoryRange::clamp_point`]). O(depth), no pointer chasing.
    #[inline]
    pub fn lookup_clamped(&self, p: &MemoryPoint) -> LeafId {
        let mut cur = self.root;
        loop {
            match cur.as_leaf() {
                Some(i) => return LeafId(i),
                None => {
                    let n = &self.nodes[cur.node_index()];
                    cur = if p[n.dim as usize] < n.split_at {
                        n.below
                    } else {
                        n.above
                    };
                }
            }
        }
    }

    /// Leaf containing a raw memory point (clamps first).
    #[inline]
    pub fn lookup(&self, p: &MemoryPoint) -> LeafId {
        self.lookup_clamped(&MemoryRange::clamp_point(p))
    }

    /// Action for a raw memory point (mirrors `WhiskerTree::action_for`).
    #[inline]
    pub fn action_for(&self, p: &MemoryPoint) -> Action {
        self.leaves[self.lookup(p).0].action
    }

    #[inline]
    pub fn action(&self, id: LeafId) -> Action {
        self.leaves[id.0].action
    }
}

/// Per-leaf usage statistics, flat and index-aligned with
/// [`CompiledTree::leaves`] / `WhiskerTree::leaves()`.
#[derive(Clone, Debug, PartialEq)]
pub struct UsageCounts {
    counts: Vec<(u64, MemoryPoint)>,
}

impl UsageCounts {
    pub fn new(num_leaves: usize) -> Self {
        UsageCounts {
            counts: vec![(0, [0.0; NUM_SIGNALS]); num_leaves],
        }
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Record one use of `leaf` at (clamped) memory point `p`.
    #[inline]
    pub fn record(&mut self, leaf: LeafId, p: &MemoryPoint) {
        let slot = &mut self.counts[leaf.0];
        slot.0 += 1;
        for (acc, v) in slot.1.iter_mut().zip(p) {
            *acc += v;
        }
    }

    pub fn use_count(&self, leaf: LeafId) -> u64 {
        self.counts[leaf.0].0
    }

    pub fn obs_sum(&self, leaf: LeafId) -> &MemoryPoint {
        &self.counts[leaf.0].1
    }

    pub fn total_uses(&self) -> u64 {
        self.counts.iter().map(|(c, _)| *c).sum()
    }

    /// The most used leaf (the last of equal maxima), or `None` when no
    /// leaf fired.
    pub fn most_used(&self) -> Option<LeafId> {
        let (leaf, uses, _) = self.iter().max_by_key(|&(_, uses, _)| uses)?;
        (uses > 0).then_some(leaf)
    }

    /// Mean memory point observed inside `leaf` (`None` if it never
    /// fired): where the optimizer splits it.
    pub fn mean_observation(&self, leaf: LeafId) -> Option<MemoryPoint> {
        let (count, sum) = &self.counts[leaf.0];
        (*count > 0).then(|| sum.map(|v| v / *count as f64))
    }

    /// Fold another counter set into this one (index-aligned).
    pub fn merge(&mut self, other: &UsageCounts) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "merging usage counts of different tree shapes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            a.0 += b.0;
            for i in 0..NUM_SIGNALS {
                a.1[i] += b.1[i];
            }
        }
    }

    pub fn reset(&mut self) {
        for slot in &mut self.counts {
            slot.0 = 0;
            slot.1 = [0.0; NUM_SIGNALS];
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (LeafId, u64, &MemoryPoint)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, (c, s))| (LeafId(i), *c, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whisker::SIGNAL_MAX;

    fn probe_points() -> Vec<MemoryPoint> {
        let mut pts = Vec::new();
        for a in [0.0, 10.0, 1999.0, 3999.0] {
            for b in [0.0, 250.0, 3000.0] {
                for r in [0.0, 1.0, 31.0, 63.0] {
                    pts.push([a, b, a / 2.0, r]);
                }
            }
        }
        pts.push([1e12, 1e12, 1e12, 1e12]); // clamped
        pts.push(SIGNAL_MAX);
        pts
    }

    fn split_a_lot() -> WhiskerTree {
        let mut t = WhiskerTree::default_tree();
        t.split_leaf(LeafId(0), 0, None);
        t.split_leaf(LeafId(1), 3, None);
        t.split_leaf(LeafId(0), 1, None);
        t.split_leaf(LeafId(3), 2, None);
        t.split_leaf(LeafId(2), 0, None);
        t
    }

    #[test]
    fn compiled_matches_recursive_lookup() {
        let mut tree = split_a_lot();
        for (i, _) in tree.clone().leaves().iter().enumerate() {
            tree.set_leaf_action(
                LeafId(i),
                Action::new(0.5 + i as f64 * 0.1, i as f64, 1.0 + i as f64),
            );
        }
        let compiled = CompiledTree::compile(&tree);
        assert_eq!(compiled.num_leaves(), tree.num_leaves());
        for p in probe_points() {
            assert_eq!(
                compiled.action_for(&p),
                tree.action_for(&p),
                "diverged at {p:?}"
            );
        }
    }

    #[test]
    fn leaf_order_matches_in_order_traversal() {
        let tree = split_a_lot();
        let compiled = CompiledTree::compile(&tree);
        for (i, w) in tree.leaves().iter().enumerate() {
            assert_eq!(compiled.leaf(LeafId(i)).domain, w.domain);
            assert_eq!(compiled.leaf(LeafId(i)).action, w.action);
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let tree = WhiskerTree::uniform(Action::new(1.0, 2.0, 3.0));
        let compiled = CompiledTree::compile(&tree);
        assert_eq!(compiled.num_leaves(), 1);
        assert_eq!(
            compiled.action_for(&[5.0, 5.0, 5.0, 5.0]),
            Action::new(1.0, 2.0, 3.0)
        );
    }

    #[test]
    fn usage_counts_accumulate_and_merge() {
        let tree = split_a_lot();
        let compiled = CompiledTree::compile(&tree);
        let mut a = UsageCounts::new(compiled.num_leaves());
        let mut b = UsageCounts::new(compiled.num_leaves());
        for (i, p) in probe_points().into_iter().enumerate() {
            let clamped = MemoryRange::clamp_point(&p);
            let leaf = compiled.lookup_clamped(&clamped);
            if i % 2 == 0 {
                a.record(leaf, &clamped);
            } else {
                b.record(leaf, &clamped);
            }
        }
        let total = a.total_uses() + b.total_uses();
        a.merge(&b);
        assert_eq!(a.total_uses(), total);
        assert_eq!(total as usize, probe_points().len());
    }

    #[test]
    fn most_used_takes_the_last_of_equal_maxima() {
        let mut usage = UsageCounts::new(3);
        assert_eq!(usage.most_used(), None, "no leaf fired");
        let p = [1.0; NUM_SIGNALS];
        for leaf in [0, 1, 1, 2, 2] {
            usage.record(LeafId(leaf), &p);
        }
        assert_eq!(usage.most_used(), Some(LeafId(2)));
        usage.record(LeafId(0), &p);
        usage.record(LeafId(0), &p);
        assert_eq!(usage.most_used(), Some(LeafId(0)));
        usage.reset();
        assert_eq!(usage.most_used(), None);
    }

    #[test]
    fn mean_observation_averages_the_recorded_points() {
        let mut usage = UsageCounts::new(2);
        usage.record(LeafId(1), &[10.0, 20.0, 30.0, 1.0]);
        usage.record(LeafId(1), &[30.0, 40.0, 50.0, 3.0]);
        assert_eq!(usage.mean_observation(LeafId(0)), None);
        assert_eq!(
            usage.mean_observation(LeafId(1)),
            Some([20.0, 30.0, 40.0, 2.0])
        );
    }
}
