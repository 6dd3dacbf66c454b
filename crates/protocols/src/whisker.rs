//! Whisker trees: piecewise-constant mappings from congestion memory to
//! actions.
//!
//! Remy "assumes a piecewise-constant mapping, and searches for the mapping
//! that maximizes the average value of the objective function" (§3.3). The
//! memory space is recursively partitioned into axis-aligned boxes
//! ("whiskers"), each holding one [`Action`]. The executor looks up the
//! whisker containing the current memory point; the optimizer refines the
//! mapping by improving whisker actions and splitting heavily-used
//! whiskers.

use crate::action::Action;
use crate::memory::{MemoryPoint, NUM_SIGNALS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Upper bound of the representable memory space per signal
/// (EWMAs in milliseconds; RTT ratio dimensionless).
pub const SIGNAL_MAX: MemoryPoint = [4000.0, 4000.0, 4000.0, 64.0];

/// An axis-aligned half-open box `[lower, upper)` in memory space.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoryRange {
    pub lower: MemoryPoint,
    pub upper: MemoryPoint,
}

impl MemoryRange {
    /// The whole representable memory space.
    pub fn whole() -> Self {
        MemoryRange {
            lower: [0.0; NUM_SIGNALS],
            upper: SIGNAL_MAX,
        }
    }

    pub fn contains(&self, p: &MemoryPoint) -> bool {
        (0..NUM_SIGNALS).all(|i| p[i] >= self.lower[i] && p[i] < self.upper[i])
    }

    /// Clamp a raw memory point into the representable space (the EWMAs
    /// are unbounded in principle; the tree maps everything beyond
    /// `SIGNAL_MAX` to the outermost whisker).
    pub fn clamp_point(p: &MemoryPoint) -> MemoryPoint {
        let mut q = *p;
        for i in 0..NUM_SIGNALS {
            q[i] = q[i].clamp(0.0, SIGNAL_MAX[i] * (1.0 - 1e-12));
        }
        q
    }

    pub fn midpoint(&self, dim: usize) -> f64 {
        (self.lower[dim] + self.upper[dim]) / 2.0
    }

    pub fn width(&self, dim: usize) -> f64 {
        self.upper[dim] - self.lower[dim]
    }
}

/// A leaf of the tree: one box and its action. How often a whisker
/// fires, and where, is recorded apart from the tree, in
/// [`UsageCounts`](crate::compiled::UsageCounts).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Whisker {
    pub domain: MemoryRange,
    pub action: Action,
}

impl Whisker {
    pub fn new(domain: MemoryRange, action: Action) -> Self {
        Whisker { domain, action }
    }
}

/// Identifies a leaf by its position in an in-order traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeafId(pub usize);

/// The piecewise-constant memory→action mapping.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WhiskerTree {
    Leaf(Whisker),
    Node {
        dim: usize,
        split_at: f64,
        below: Box<WhiskerTree>,
        above: Box<WhiskerTree>,
    },
}

impl WhiskerTree {
    /// A single whisker covering all of memory space with the default
    /// action — Remy's initialization.
    pub fn default_tree() -> Self {
        WhiskerTree::Leaf(Whisker::new(MemoryRange::whole(), Action::default()))
    }

    /// Single whisker with a given action (tests, hand-built protocols).
    pub fn uniform(action: Action) -> Self {
        WhiskerTree::Leaf(Whisker::new(MemoryRange::whole(), action))
    }

    /// Look up the action for a memory point without recording usage.
    pub fn action_for(&self, point: &MemoryPoint) -> Action {
        let p = MemoryRange::clamp_point(point);
        self.leaf_for(&p).action
    }

    fn leaf_for(&self, p: &MemoryPoint) -> &Whisker {
        match self {
            WhiskerTree::Leaf(w) => w,
            WhiskerTree::Node {
                dim,
                split_at,
                below,
                above,
            } => {
                if p[*dim] < *split_at {
                    below.leaf_for(p)
                } else {
                    above.leaf_for(p)
                }
            }
        }
    }

    pub fn num_leaves(&self) -> usize {
        match self {
            WhiskerTree::Leaf(_) => 1,
            WhiskerTree::Node { below, above, .. } => below.num_leaves() + above.num_leaves(),
        }
    }

    /// In-order list of leaves.
    pub fn leaves(&self) -> Vec<&Whisker> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Whisker>) {
        match self {
            WhiskerTree::Leaf(w) => out.push(w),
            WhiskerTree::Node { below, above, .. } => {
                below.collect_leaves(out);
                above.collect_leaves(out);
            }
        }
    }

    fn leaf_mut_by_id(&mut self, id: LeafId) -> Option<&mut Whisker> {
        fn walk<'a>(
            t: &'a mut WhiskerTree,
            id: usize,
            counter: &mut usize,
        ) -> Option<&'a mut Whisker> {
            match t {
                WhiskerTree::Leaf(w) => {
                    let mine = *counter;
                    *counter += 1;
                    if mine == id {
                        Some(w)
                    } else {
                        None
                    }
                }
                WhiskerTree::Node { below, above, .. } => {
                    walk(below, id, counter).or_else(|| walk(above, id, counter))
                }
            }
        }
        let mut counter = 0;
        walk(self, id.0, &mut counter)
    }

    pub fn leaf_by_id(&self, id: LeafId) -> Option<&Whisker> {
        self.leaves().into_iter().nth(id.0)
    }

    pub fn set_leaf_action(&mut self, id: LeafId, action: Action) -> bool {
        match self.leaf_mut_by_id(id) {
            Some(w) => {
                w.action = action;
                true
            }
            None => false,
        }
    }

    /// Split a leaf along `dim` at `at` (the optimizer passes the mean
    /// memory point observed inside the leaf), falling back to the box
    /// midpoint when `at` is `None` or not strictly inside the box. Both
    /// children inherit the parent action. Returns false if the leaf
    /// doesn't exist or the box is too thin.
    pub fn split_leaf(&mut self, id: LeafId, dim: usize, at: Option<f64>) -> bool {
        fn walk(
            t: &mut WhiskerTree,
            id: usize,
            dim: usize,
            at: Option<f64>,
            counter: &mut usize,
        ) -> bool {
            match t {
                WhiskerTree::Leaf(w) => {
                    let mine = *counter;
                    *counter += 1;
                    if mine != id {
                        return false;
                    }
                    let lo = w.domain.lower[dim];
                    let hi = w.domain.upper[dim];
                    if hi - lo < 1e-9 {
                        return false;
                    }
                    let mut at = at.unwrap_or_else(|| w.domain.midpoint(dim));
                    // keep the split strictly interior
                    let eps = (hi - lo) * 1e-6;
                    if at <= lo + eps || at >= hi - eps {
                        at = w.domain.midpoint(dim);
                    }
                    let mut below_dom = w.domain;
                    below_dom.upper[dim] = at;
                    let mut above_dom = w.domain;
                    above_dom.lower[dim] = at;
                    let action = w.action;
                    *t = WhiskerTree::Node {
                        dim,
                        split_at: at,
                        below: Box::new(WhiskerTree::Leaf(Whisker::new(below_dom, action))),
                        above: Box::new(WhiskerTree::Leaf(Whisker::new(above_dom, action))),
                    };
                    true
                }
                WhiskerTree::Node { below, above, .. } => {
                    walk(below, id, dim, at, counter) || walk(above, id, dim, at, counter)
                }
            }
        }
        let mut counter = 0;
        walk(self, id.0, dim, at, &mut counter)
    }
}

impl fmt::Display for WhiskerTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "WhiskerTree ({} leaves):", self.num_leaves())?;
        for (i, w) in self.leaves().iter().enumerate() {
            writeln!(
                f,
                "  [{i}] rec[{:.1},{:.1}) slow[{:.1},{:.1}) send[{:.1},{:.1}) rttr[{:.2},{:.2}) -> {}",
                w.domain.lower[0],
                w.domain.upper[0],
                w.domain.lower[1],
                w.domain.upper[1],
                w.domain.lower[2],
                w.domain.upper[2],
                w.domain.lower[3],
                w.domain.upper[3],
                w.action
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tree_covers_everything() {
        let t = WhiskerTree::default_tree();
        assert_eq!(t.num_leaves(), 1);
        for p in [
            [0.0, 0.0, 0.0, 0.0],
            [3999.0, 10.0, 0.5, 1.0],
            [1e9, 1e9, 1e9, 1e9], // clamped into range
        ] {
            assert_eq!(t.action_for(&p), Action::default());
        }
    }

    #[test]
    fn split_routes_points_to_children() {
        let mut t = WhiskerTree::default_tree();
        assert!(t.split_leaf(LeafId(0), 3, None)); // split on rtt_ratio at midpoint 32
        assert_eq!(t.num_leaves(), 2);
        let low = Action::new(1.0, 5.0, 1.0);
        let high = Action::new(0.5, -5.0, 10.0);
        assert!(t.set_leaf_action(LeafId(0), low));
        assert!(t.set_leaf_action(LeafId(1), high));
        assert_eq!(t.action_for(&[0.0, 0.0, 0.0, 1.0]), low);
        assert_eq!(t.action_for(&[0.0, 0.0, 0.0, 50.0]), high);
    }

    #[test]
    fn split_uses_mean_observation() {
        let mut t = WhiskerTree::default_tree();
        let compiled = crate::compiled::CompiledTree::compile(&t);
        let mut usage = crate::compiled::UsageCounts::new(1);
        // record uses clustered around rec_ewma = 100
        for rec in [90.0, 100.0, 110.0] {
            let p = [rec, 0.0, 0.0, 1.0];
            usage.record(compiled.lookup(&p), &p);
        }
        let mean = usage.mean_observation(LeafId(0)).map(|m| m[0]);
        assert!(t.split_leaf(LeafId(0), 0, mean));
        match &t {
            WhiskerTree::Node { dim, split_at, .. } => {
                assert_eq!(*dim, 0);
                assert_eq!(*split_at, 100.0, "split lands at the given point");
            }
            _ => panic!("expected node"),
        }
    }

    #[test]
    fn split_outside_the_box_falls_back_to_the_midpoint() {
        for at in [None, Some(0.0), Some(4000.0), Some(-5.0)] {
            let mut t = WhiskerTree::default_tree();
            assert!(t.split_leaf(LeafId(0), 0, at));
            let WhiskerTree::Node { split_at, .. } = t else {
                panic!("expected node");
            };
            assert_eq!(split_at, 2000.0, "at={at:?}");
        }
    }

    #[test]
    fn repeated_splits_partition_cleanly() {
        let mut t = WhiskerTree::default_tree();
        // split a few times along different dims
        assert!(t.split_leaf(LeafId(0), 0, None));
        assert!(t.split_leaf(LeafId(0), 1, None));
        assert!(t.split_leaf(LeafId(2), 3, None));
        assert_eq!(t.num_leaves(), 4);
        // each leaf's domain must contain its own midpoint and route back
        // to itself
        for (i, w) in t.leaves().iter().enumerate() {
            let mut mid = [0.0; NUM_SIGNALS];
            for (d, m) in mid.iter_mut().enumerate() {
                *m = w.domain.midpoint(d);
            }
            assert!(w.domain.contains(&mid));
            let found = t.leaf_for(&mid);
            assert_eq!(found.domain, w.domain, "point routes to leaf {i}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let mut t = WhiskerTree::default_tree();
        t.split_leaf(LeafId(0), 2, None);
        t.set_leaf_action(LeafId(1), Action::new(0.7, -1.0, 5.0));
        let json = serde_json::to_string(&t).unwrap();
        let back: WhiskerTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn leaf_by_id_matches_leaves_order() {
        let mut t = WhiskerTree::default_tree();
        t.split_leaf(LeafId(0), 0, None);
        t.split_leaf(LeafId(1), 1, None);
        let leaves = t.leaves();
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(t.leaf_by_id(LeafId(i)).unwrap().domain, leaf.domain);
        }
        assert!(t.leaf_by_id(LeafId(99)).is_none());
    }
}
