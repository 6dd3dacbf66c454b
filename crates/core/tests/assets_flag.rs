//! `learnability <run|train|assets|replay> --assets DIR` reads and writes
//! protocol assets in DIR and nowhere under the checkout's `assets/`, and
//! `train` loads every job's assets before it trains: only a missing
//! asset trains. The binary is run as a child process: the override is
//! process-wide.

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

/// Whether stderr shows a job training or co-optimizing.
fn trained(err: &str) -> bool {
    err.contains("training") || err.contains("co-optimizing")
}

#[test]
fn train_refuses_a_corrupt_asset() {
    // Only a missing asset trains: a file holding garbage is an error
    // naming it, nothing trains, and the bytes stay.
    let dir = scratch("corrupt", &[]);
    let path = dir.join("tao-calibration.json");
    let garbage = b"{\"name\": \"trunc";
    fs::write(&path, garbage).unwrap();
    let (code, _, err) = learnability(&["train", "calibration", "--assets", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains(&path.display().to_string()), "{err}");
    assert!(!trained(&err), "{err}");
    assert_eq!(fs::read(&path).unwrap(), garbage, "the bytes stay");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_loads_single_and_co_optimized_assets() {
    // `diversity` trains two single assets and one co-optimized pair;
    // with all four present, every job loads and none trains.
    let assets = [
        "tao-tpt-naive",
        "tao-del-naive",
        "tao-tpt-coopt",
        "tao-del-coopt",
    ];
    let dir = scratch("diversity", &assets);
    let d = dir.to_str().unwrap();
    let (code, _, err) = learnability(&["train", "diversity", "--assets", d]);
    assert_eq!(code, 0, "{err}");
    assert!(!trained(&err), "{err}");
    for a in assets {
        assert!(err.contains(&format!("{a} ready")), "{err}");
    }
    // A corrupt half of the pair fails the job, naming that file.
    let path = dir.join("tao-del-coopt.json");
    fs::write(&path, b"not json").unwrap();
    let (code, _, err) = learnability(&["train", "diversity", "--assets", d]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains(&path.display().to_string()), "{err}");
    assert!(!trained(&err), "{err}");
    assert_eq!(fs::read(&path).unwrap(), b"not json", "the bytes stay");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_has_one_trainer() {
    // The whisker-tree hill climb is the only trainer: no flag picks
    // another, and the usage text offers none.
    let (code, _, err) = learnability(&["train", "calibration", "--trainer", "genetic"]);
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains("unexpected train argument '--trainer'"),
        "{err}"
    );
    let (code, usage, _) = learnability(&["--help"]);
    assert_eq!(code, 0);
    assert!(usage.contains("train <ids|all> [--force]"), "{usage}");
    assert!(!usage.contains("--trainer"), "{usage}");
}

#[test]
fn verify_fails_a_collapsing_asset_and_passes_a_sane_one() {
    // The committed calibration Tao collapses on the probes.
    let dir = scratch("verify-cal", &["tao-calibration"]);
    let (code, out, err) = learnability(&["assets", "verify", "--assets", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "{err}");
    let verdict = format!("FAIL {:<22} (10 probes, 234 violations)", "tao-calibration");
    assert!(out.starts_with(&verdict), "{out}");
    fs::remove_dir_all(&dir).ok();
    // One uniform leaf, window <- 0.5w + 1 at 2 ms pacing: a steady
    // 2-packet window, harmless on every probe.
    let dir = scratch("verify-sane", &[]);
    let sane = r#"{"name": "sane", "score": 0.0, "description": "uniform",
        "tree": {"Leaf": {"domain": {"lower": [0.0, 0.0, 0.0, 0.0],
                                     "upper": [4000.0, 4000.0, 4000.0, 64.0]},
                          "action": {"window_multiple": 0.5, "window_increment": 1.0,
                                     "intersend_ms": 2.0}}}}"#;
    fs::write(dir.join("sane.json"), sane).unwrap();
    let (code, out, err) = learnability(&["assets", "verify", "--assets", dir.to_str().unwrap()]);
    assert_eq!(code, 0, "{out}{err}");
    assert!(out.starts_with("PASS sane"), "{out}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_on_an_empty_directory_verifies_nothing_and_fails() {
    let dir = scratch("verify-empty", &[]);
    let (code, out, err) = learnability(&["assets", "verify", "--assets", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "{out}{err}");
    assert!(out.contains("nothing verified"), "{out}");
    assert!(!out.contains("pass the collapse check"), "{out}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_readies_every_asset_the_roster_uses() {
    // `universal` owns one asset and scores four specialists other
    // experiments own: `train universal` readies all five, training none
    // that is present.
    let assets = [
        "tao-universal",
        "tao-2x",
        "tao-1000x",
        "tao-rtt-50-250",
        "tao-mux-50",
    ];
    let dir = scratch("universal", &assets);
    let (code, _, err) = learnability(&["train", "universal", "--assets", dir.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    assert!(!trained(&err), "{err}");
    for a in assets {
        assert!(err.contains(&format!("{a} ready")), "{err}");
    }
    fs::remove_dir_all(&dir).ok();
}
