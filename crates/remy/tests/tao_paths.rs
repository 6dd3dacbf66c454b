//! Bit pins for remy's way of running a trained Tao: the training
//! evaluation (`run_scenario_compiled`, with and without a signal mask)
//! builds its senders from a committed asset, so a change to how a tree
//! becomes controllers must leave these utilities and usage counts
//! exactly where they are (the collapse probes, which run a Tao through
//! the sweep engine, are pinned in `lcc_core::search`). The tree
//! optimizer (`optimize` and `co_optimize` at the smoke budget) is pinned
//! the same way: a change to how usage steers it must leave its scores,
//! evaluation counts and trees where they are.

use protocols::{CompiledTree, LeafId, Signal, SignalMask, UsageCounts, WhiskerTree};
use remy::eval::{draw_scenarios, run_scenario_compiled, EvalConfig};
use remy::optimizer::{Optimizer, OptimizerConfig};
use remy::scenario::ScenarioSpec;
use remy::serialize::{asset_path, load};

const ASSET: &str = "tao-calibration";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every leaf's use count and observation sums, bit for bit.
fn usage_digest(usage: &UsageCounts) -> u64 {
    (0..usage.len()).fold(FNV_OFFSET, |h, i| {
        let leaf = LeafId(i);
        let h = fnv1a(h, &usage.use_count(leaf).to_le_bytes());
        usage
            .obs_sum(leaf)
            .iter()
            .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
    })
}

/// `(utility bits, total uses, usage digest)` on three calibration
/// draws (seed 7).
fn evaluation_pins(masks: Vec<SignalMask>) -> Vec<(u64, u64, u64)> {
    let tree = load(&asset_path(ASSET)).expect("committed asset").tree;
    let compiled = CompiledTree::compile_shared(&tree);
    let cfg = EvalConfig {
        threads: 1,
        masks,
        ..EvalConfig::default()
    };
    draw_scenarios(&[ScenarioSpec::calibration()], 3, 7)
        .iter()
        .map(|scenario| {
            let (utility, usage) =
                run_scenario_compiled(scenario, std::slice::from_ref(&compiled), &cfg);
            assert_eq!(usage.len(), 1, "one Tao slot");
            (
                utility.to_bits(),
                usage[0].total_uses(),
                usage_digest(&usage[0]),
            )
        })
        .collect()
}

#[test]
fn evaluation_is_pinned() {
    assert_eq!(
        evaluation_pins(Vec::new()),
        [
            (0x403b26a744aed3c4, 0x3450, 0x509ef32d8692318f),
            (0x403b297b785be0b0, 0x393b, 0xe9f2f6eab4da409d),
            (0x403b1edab0466392, 0x2b74, 0xce5526f51c1f54cb),
        ]
    );
}

#[test]
fn masked_evaluation_is_pinned() {
    // The calibration tree splits on rec_ewma, so knocking it out moves
    // the utilities as well as the recorded observations.
    assert_eq!(
        evaluation_pins(vec![SignalMask::without(Signal::RecEwma)]),
        [
            (0x403b2bfc5c9bcd50, 0x3413, 0xf9c9349310549581),
            (0x403b45c1fcdfbc8d, 0x38b0, 0x195a428022cace9c),
            (0x403b2d180b798f83, 0x2b7b, 0x54f222319b9070c1),
        ]
    );
}

/// Every leaf's domain bounds and action, bit for bit.
fn leaf_set_digest(tree: &WhiskerTree) -> u64 {
    tree.leaves().iter().fold(FNV_OFFSET, |h, w| {
        let a = w.action;
        let action = [a.window_multiple, a.window_increment, a.intersend_ms];
        (w.domain.lower.iter())
            .chain(&w.domain.upper)
            .chain(&action)
            .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
    })
}

/// The smoke budget on one thread.
fn smoke_budget() -> OptimizerConfig {
    OptimizerConfig {
        threads: 1,
        ..OptimizerConfig::smoke()
    }
}

#[test]
fn optimizer_is_pinned() {
    let opt = Optimizer::new(vec![ScenarioSpec::calibration()], smoke_budget());
    let p = opt.optimize("pin");
    assert_eq!(p.score.to_bits(), 0x403a39dd13407a37);
    assert_eq!(opt.evaluations(), 176);
    assert_eq!(p.tree.num_leaves(), 2);
    assert_eq!(leaf_set_digest(&p.tree), 0x8dcb963e0e693a2e);
}

#[test]
fn co_optimizer_is_pinned() {
    let opt = Optimizer::new(vec![ScenarioSpec::diversity()], smoke_budget());
    let out = opt.co_optimize(vec![WhiskerTree::default_tree(); 2], 2, &["a", "b"]);
    let got: Vec<(u64, usize, u64)> = out
        .iter()
        .map(|p| {
            (
                p.score.to_bits(),
                p.tree.num_leaves(),
                leaf_set_digest(&p.tree),
            )
        })
        .collect();
    assert_eq!(opt.evaluations(), 409);
    assert_eq!(
        got,
        [
            (0x404b53fe571afd64, 2, 0x63d5f32eef35a9f0),
            (0x404b67227d085338, 2, 0x3a01ebc1789186f4),
        ]
    );
}
