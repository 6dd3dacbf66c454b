//! Legacy whisker keys. The committed assets were saved while each
//! whisker still carried usage counters (`use_count`, `obs_sum`); usage
//! now lives only in `protocols::UsageCounts`. The old files must still
//! load, the stale keys must change nothing, and a saved tree must no
//! longer write them.

use protocols::{Action, LeafId, WhiskerTree};
use remy::serialize::{assets_dir, from_json, load, to_json};
use remy::TrainedProtocol;

const LEGACY_KEYS: [&str; 2] = ["\"use_count\"", "\"obs_sum\""];

fn committed_assets() -> Vec<std::path::PathBuf> {
    let mut paths: Vec<_> = std::fs::read_dir(assets_dir())
        .expect("assets/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn every_committed_asset_loads() {
    let paths = committed_assets();
    assert_eq!(paths.len(), 28, "committed protocol assets");
    for path in paths {
        let p = load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(p.tree.num_leaves() >= 1, "{}", path.display());
    }
}

#[test]
fn legacy_usage_keys_are_ignored() {
    let mut tree = WhiskerTree::default_tree();
    tree.split_leaf(LeafId(0), 1, Some(250.0));
    tree.set_leaf_action(LeafId(1), Action::new(0.8, 3.0, 0.5));
    let bare = serde_json::to_string(&tree).expect("tree serializes");
    // The stale counters as an older build wrote them, nonzero.
    let legacy = bare.replace(
        "\"action\":",
        "\"use_count\":41,\"obs_sum\":[1.5,2.5,3.5,4.5],\"action\":",
    );
    assert_eq!(legacy.matches("\"use_count\"").count(), 2, "{legacy}");
    let parse = |json: &str| serde_json::from_str::<WhiskerTree>(json).expect("tree parses");
    assert_eq!(parse(&legacy), parse(&bare));
    assert_eq!(parse(&legacy), tree);
}

#[test]
fn a_saved_tree_writes_no_usage_keys() {
    let path = assets_dir().join("tao-calibration.json");
    let raw = std::fs::read_to_string(&path).expect("committed asset");
    assert!(LEGACY_KEYS.iter().all(|k| raw.contains(k)), "a legacy file");
    let loaded = from_json(&raw).expect("legacy asset parses");
    let saved = to_json(&loaded);
    for key in LEGACY_KEYS {
        assert!(!saved.contains(key), "{key} written");
    }
    let reloaded: TrainedProtocol = from_json(&saved).expect("saved asset parses");
    assert_eq!(reloaded.tree, loaded.tree);
    assert_eq!(reloaded.score.to_bits(), loaded.score.to_bits());
}
