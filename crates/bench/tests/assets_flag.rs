//! `learnability <run|train|assets|replay> --assets DIR` reads and writes
//! protocol assets in DIR and nowhere under the checkout's `assets/`.
//! The binary is run as a child process: the override is process-wide.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Run the binary; `(exit code, stdout, stderr)`.
fn learnability(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_learnability"))
        .args(args)
        .output()
        .expect("the learnability binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh directory under the system temp dir, holding copies of the
/// named committed assets.
fn scratch(name: &str, assets: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcc-assets-flag-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
    for a in assets {
        let file = format!("{a}.json");
        fs::copy(committed.join(&file), dir.join(&file)).unwrap();
    }
    dir
}

#[test]
fn assets_list_reads_the_named_directory_and_nothing_else() {
    let empty = scratch("empty", &[]);
    let (code, out, err) = learnability(&["assets", "list", "--assets", empty.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    assert!(
        out.contains(&format!("no assets in {}", empty.display())),
        "{out}"
    );
    assert!(!out.contains("whiskers"), "listed a committed asset: {out}");

    let one = scratch("one", &["tao-2x"]);
    let dir = one.to_str().unwrap();
    let (code, out, err) = learnability(&["assets", "--assets", dir, "list"]);
    assert_eq!(code, 0, "{err}");
    assert_eq!(out.lines().count(), 1, "{out}");
    assert!(out.starts_with("tao-2x "), "{out}");
    assert_eq!(
        learnability(&["assets", "show", "tao-2x", "--assets", dir]).0,
        0
    );
    let (code, _, err) = learnability(&["assets", "show", "tao-calibration", "--assets", dir]);
    assert_eq!(code, 1, "an asset only in the checkout is not found: {err}");
    fs::remove_dir_all(&empty).ok();
    fs::remove_dir_all(&one).ok();
}

#[test]
fn run_train_and_replay_follow_the_named_directory() {
    let dir = scratch("cal", &["tao-calibration"]);
    let d = dir.to_str().unwrap();
    // The asset is there, so `train` loads it instead of training.
    let (code, _, err) = learnability(&["train", "calibration", "--assets", d]);
    assert_eq!(code, 0, "{err}");
    assert!(!err.contains("training"), "{err}");
    assert!(err.contains("tao-calibration ready"), "{err}");
    // `run` reads the asset there and writes its figure under DIR/figures.
    let (code, _, err) = learnability(&["run", "calibration", "--assets", d, "--threads", "1"]);
    assert_eq!(code, 0, "{err}");
    assert!(dir.join("figures/calibration.json").is_file(), "{err}");
    // `replay` looks for DIR/figures/adversarial.json, which is absent.
    let (code, _, err) = learnability(&["replay", "--assets", d]);
    assert_eq!(code, 1);
    assert!(
        err.contains(&dir.join("figures/adversarial.json").display().to_string()),
        "{err}"
    );
    fs::remove_dir_all(&dir).ok();
}
