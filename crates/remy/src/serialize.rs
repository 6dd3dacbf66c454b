//! Saving and loading trained protocols.
//!
//! The paper published its Remy-produced congestion-control protocols
//! alongside the study ("instructions to reproduce the results … along
//! with the congestion-control protocols produced by Remy … are available
//! at …"). We do the same: trained whisker trees are stored as JSON under
//! `assets/` and loaded by the experiment harness.

use crate::optimizer::TrainedProtocol;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Serialize a trained protocol to pretty JSON.
pub fn to_json(p: &TrainedProtocol) -> String {
    serde_json::to_string_pretty(p).expect("TrainedProtocol serializes")
}

/// Parse a protocol from JSON.
pub fn from_json(s: &str) -> Result<TrainedProtocol, serde_json::Error> {
    serde_json::from_str(s)
}

/// Save to a file, creating parent directories.
pub fn save(p: &TrainedProtocol, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, to_json(p))
}

/// Load from a file.
pub fn load(path: &Path) -> io::Result<TrainedProtocol> {
    let text = fs::read_to_string(path)?;
    from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

static ASSETS_DIR_OVERRIDE: std::sync::Mutex<Option<PathBuf>> = std::sync::Mutex::new(None);

/// Override [`assets_dir`] for this process (`None` restores the
/// default).
pub fn set_assets_dir(dir: Option<PathBuf>) {
    *ASSETS_DIR_OVERRIDE
        .lock()
        .expect("assets override poisoned") = dir;
}

/// The workspace `assets/` directory, unless [`set_assets_dir`]
/// overrides it.
pub fn assets_dir() -> PathBuf {
    if let Some(dir) = ASSETS_DIR_OVERRIDE
        .lock()
        .expect("assets override poisoned")
        .clone()
    {
        return dir;
    }
    // crates/remy -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .join("assets")
}

/// Path of a named protocol asset.
pub fn asset_path(name: &str) -> PathBuf {
    assets_dir().join(format!("{name}.json"))
}

/// Load the asset at `path` if present; otherwise run `train`, save the
/// result there, and return it. This mirrors the paper's workflow:
/// protocols are designed offline (CPU-intensive) and published;
/// evaluations reuse them.
pub fn load_or_train(path: &Path, train: impl FnOnce() -> TrainedProtocol) -> TrainedProtocol {
    if let Ok(p) = load(path) {
        return p;
    }
    let p = train();
    if let Err(e) = save(&p, path) {
        eprintln!(
            "[remy] warning: could not save asset {}: {e}",
            path.display()
        );
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::{Action, WhiskerTree};

    fn proto(name: &str) -> TrainedProtocol {
        TrainedProtocol {
            name: name.into(),
            tree: WhiskerTree::uniform(Action::new(0.9, 1.5, 2.0)),
            score: 12.5,
            description: "test protocol".into(),
        }
    }

    #[test]
    fn json_round_trip() {
        let p = proto("rt");
        let back = from_json(&to_json(&p)).unwrap();
        assert_eq!(back.name, p.name);
        assert_eq!(back.tree, p.tree);
        assert_eq!(back.score, p.score);
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join(format!("remy-test-{}", std::process::id()));
        let path = dir.join("nested/proto.json");
        let p = proto("file");
        save(&p, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.tree, p.tree);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_is_error() {
        assert!(load(Path::new("/nonexistent/proto.json")).is_err());
    }

    #[test]
    fn load_or_train_caches() {
        let dir = std::env::temp_dir().join(format!("remy-lot-{}", std::process::id()));
        let path = dir.join("cache-test.json");
        let mut trained_calls = 0;
        let p1 = load_or_train(&path, || {
            trained_calls += 1;
            proto("cache-test")
        });
        assert_eq!(trained_calls, 1);
        // second call hits the cache
        let p2 = load_or_train(&path, || {
            trained_calls += 1;
            proto("other")
        });
        assert_eq!(trained_calls, 1);
        assert_eq!(p1.tree, p2.tree);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn asset_path_shape() {
        let p = asset_path("tao-2x");
        assert!(p.to_string_lossy().ends_with("assets/tao-2x.json"));
    }
}
