//! Schemes under test, and the one place a scheme becomes a controller.
//!
//! A Tao scheme carries its whisker tree compiled once ([`CompiledTree`])
//! behind an `Arc`, with its §3.4 signal mask and its label, so cloning a
//! scheme onto ten thousand flows bumps two reference counts, and every
//! sender [`Scheme::build`] makes from it walks the same arena.

use crate::compiled::CompiledTree;
use crate::memory::SignalMask;
use crate::whisker::WhiskerTree;
use crate::{Cubic, NewReno, NoUsage, Pcc, TaoCc, UsageRecorder, Vegas};
use netsim::transport::CongestionControl;
use std::sync::Arc;

/// A congestion-control scheme under test.
#[derive(Clone)]
pub enum Scheme {
    /// A Tao protocol: a compiled whisker tree, the signal-knockout mask
    /// its senders run with, and the label reports name it by.
    Tao {
        tree: Arc<CompiledTree>,
        mask: SignalMask,
        label: Arc<str>,
    },
    /// TCP Cubic over whatever queue the network defines.
    Cubic,
    /// TCP NewReno (the paper's AIMD incumbent).
    NewReno,
    /// TCP Vegas: delay-based, so non-congestive loss costs it less
    /// window than the loss-based incumbents (the bursty-loss foil).
    Vegas,
    /// PCC-style online learner: rate micro-experiments scored by a
    /// utility function, no offline training (the learned-online foil
    /// to the offline-designed Tao protocols).
    Pcc,
}

impl Scheme {
    /// Every scheme that needs no training, in declaration order.
    pub const FIXED: [Scheme; 4] = [Scheme::Cubic, Scheme::NewReno, Scheme::Vegas, Scheme::Pcc];

    /// Compile `tree` into a Tao scheme with every signal enabled.
    pub fn tao(tree: WhiskerTree, label: impl Into<String>) -> Self {
        Scheme::Tao {
            tree: CompiledTree::compile_shared(&tree),
            mask: SignalMask::all(),
            label: label.into().into(),
        }
    }

    /// The scheme family (`tao` covers every trained Tao variant).
    pub fn family(&self) -> &'static str {
        match self {
            Scheme::Tao { .. } => "tao",
            Scheme::Cubic => "cubic",
            Scheme::NewReno => "newreno",
            Scheme::Vegas => "vegas",
            Scheme::Pcc => "pcc",
        }
    }

    pub fn label(&self) -> String {
        match self {
            Scheme::Tao { label, .. } => label.to_string(),
            fixed => fixed.family().into(),
        }
    }

    /// Whether `self` and `other` build the same controller. A Tao's
    /// label only names it; two Tao schemes sharing one arena are the
    /// same without a look inside, and separately compiled equal trees
    /// are the same too.
    pub fn same_protocol(&self, other: &Scheme) -> bool {
        match (self, other) {
            (
                Scheme::Tao { tree, mask, .. },
                Scheme::Tao {
                    tree: t, mask: m, ..
                },
            ) => mask == m && (Arc::ptr_eq(tree, t) || tree == t),
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }

    /// A fresh controller for one sender. Every sender built from one Tao
    /// scheme shares its compiled tree, and records no whisker usage (a
    /// `TaoCc<NoUsage>`).
    pub fn build(&self) -> Box<dyn CongestionControl> {
        self.build_with::<NoUsage>()
    }

    /// [`build`](Self::build), a Tao sender recording its whisker uses in
    /// a `U`: the optimizer's evaluations pass the recorder they read.
    pub fn build_with<U: UsageRecorder>(&self) -> Box<dyn CongestionControl> {
        match self {
            Scheme::Tao { tree, mask, .. } => {
                Box::new(TaoCc::<U>::from_compiled(tree.clone(), *mask))
            }
            Scheme::Cubic => Box::new(Cubic::new()),
            Scheme::NewReno => Box::new(NewReno::new()),
            Scheme::Vegas => Box::new(Vegas::new()),
            Scheme::Pcc => Box::new(Pcc::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whisker::LeafId;

    #[test]
    fn a_cloned_tao_scheme_shares_its_compiled_tree() {
        let mut tree = WhiskerTree::default_tree();
        tree.split_leaf(LeafId(0), 3, None);
        let tao = Scheme::tao(tree, "tao");
        let (Scheme::Tao { tree: a, .. }, Scheme::Tao { tree: b, .. }) = (&tao, &tao.clone())
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
    }
}
