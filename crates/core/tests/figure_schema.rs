//! FigureData schema guarantees: serde round-trips, the on-disk JSON form
//! stays stable (golden file), and `learnability run calibration` produces
//! identical JSON across repeated runs and across thread counts.

use lcc_core::report::{
    render_figure, ChartData, FigureData, PointData, RunMeta, SeriesData, SummaryItem, TableData,
    FIGURE_SCHEMA_VERSION,
};
use protocols::{Action, WhiskerTree};
use std::path::{Path, PathBuf};

/// A fixed figure exercising every schema field (error bars present and
/// absent, multiple charts/tables/notes).
fn reference_figure() -> FigureData {
    FigureData {
        schema_version: FIGURE_SCHEMA_VERSION,
        id: "reference".into(),
        paper_artifact: "Fig 0 / Table 0 — schema reference".into(),
        charts: vec![ChartData {
            title: "objective vs speed".into(),
            x_label: "Mbps".into(),
            series: vec![
                SeriesData {
                    name: "tao".into(),
                    points: vec![
                        PointData {
                            x: 1.0,
                            y: -0.25,
                            err: Some(0.05),
                        },
                        PointData {
                            x: 10.0,
                            y: -0.5,
                            err: None,
                        },
                    ],
                },
                SeriesData {
                    name: "cubic".into(),
                    points: vec![PointData {
                        x: 1.0,
                        y: -1.5,
                        err: None,
                    }],
                },
            ],
        }],
        tables: vec![TableData {
            title: "operating points".into(),
            headers: vec!["scheme".into(), "throughput".into()],
            rows: vec![
                vec!["tao".into(), "9.41 Mbps (±0.12)".into()],
                vec!["cubic".into(), "9.02 Mbps (±0.40)".into()],
            ],
        }],
        summary: vec![SummaryItem {
            key: "tao_fraction_of_omniscient".into(),
            value: 0.95,
        }],
        notes: vec!["tao throughput = 95.0% of omniscient".into()],
        meta: RunMeta {
            fidelity: "quick".into(),
            seeds: vec![0, 1, 2],
            git_describe: "schema-reference".into(),
        },
    }
}

#[test]
fn reference_figure_roundtrips() {
    let fig = reference_figure();
    let back = FigureData::from_json(&fig.to_json()).expect("parse own output");
    assert_eq!(fig, back);
}

/// Golden-file schema stability: the serialized form of the reference
/// figure is committed; any serialization change (field rename, ordering,
/// number formatting) fails here and requires a conscious
/// `FIGURE_SCHEMA_VERSION` bump. Regenerate with `LEARNABILITY_BLESS=1`.
#[test]
fn figure_json_matches_golden_file() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("figure_schema.json");
    let mut json = reference_figure().to_json();
    json.push('\n');
    if std::env::var("LEARNABILITY_BLESS").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden_path.display()));
    assert_eq!(
        json, golden,
        "FigureData JSON form changed — if intended, bump FIGURE_SCHEMA_VERSION \
         and regenerate with LEARNABILITY_BLESS=1"
    );
}

/// Every experiment's committed figure reads back into the schema, writes
/// out to its own bytes (as `learnability run --json` writes it: `to_json`
/// and a newline) and renders: the schema types hold everything the
/// artifacts say, in the form they say it.
#[test]
fn every_committed_figure_round_trips_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets/figures");
    for exp in lcc_core::experiments::registry() {
        let path = dir.join(format!("{}.json", exp.id()));
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let fig =
            FigureData::from_json(&committed).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut json = fig.to_json();
        json.push('\n');
        assert!(
            json == committed,
            "{} changes when rewritten",
            path.display()
        );
        let text = render_figure(&fig);
        for chart in &fig.charts {
            assert!(text.contains(&format!("== {} ==", chart.title)));
        }
    }
}

/// Scratch assets dir holding pre-built (untrained) protocol fixtures for
/// every experiment the determinism test drives, so it never pays for a
/// Remy run.
fn scratch_assets() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("learnability-figtest-{}", std::process::id()));
    for name in ["tao-calibration", "tao-mux-10"] {
        let proto = remy::TrainedProtocol {
            name: name.into(),
            tree: WhiskerTree::uniform(Action::new(1.0, 1.0, 1.0)),
            score: 0.0,
            description: "deterministic test fixture (not a trained protocol)".into(),
        };
        remy::serialize::save(&proto, &dir.join(format!("{name}.json"))).expect("save fixture");
    }
    dir
}

fn cli_run_json(id: &str, out_dir: &Path, threads: &str) -> String {
    let json_dir = out_dir.join(format!("{id}-threads-{threads}"));
    let code = lcc_core::cli::run(&[
        "run",
        id,
        "--fidelity",
        "quick",
        "--threads",
        threads,
        "--json",
        json_dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "learnability run {id} failed");
    std::fs::read_to_string(json_dir.join(format!("{id}.json"))).expect("artifact written")
}

/// `learnability run <id> --fidelity quick` must produce identical JSON
/// across two runs and across `--threads 1` vs `--threads N` — the sweep
/// engine's index-ordered merge is the only thing between us and
/// nondeterministic figures. Covers the original calibration experiment
/// and the scenario-diversity extensions (AQM gateways, asymmetric ACK
/// paths, flow churn, the shared-reverse-link uplink, M/G/∞ churn —
/// whose RED randomness, churn draws and reverse-queue drops must also
/// be pure functions of the seed).
#[test]
fn quick_json_is_deterministic_across_runs_and_threads() {
    let assets = scratch_assets();
    // Point the asset loader at the fixture dir programmatically —
    // std::env::set_var would race the other tests' getenv calls in this
    // parallel test binary.
    remy::serialize::set_assets_dir(Some(assets.clone()));

    let mut figs = std::collections::HashMap::new();
    for id in [
        "calibration",
        "aqm",
        "asymmetry",
        "churn",
        "shared_uplink",
        "churn_mginf",
    ] {
        let serial = cli_run_json(id, &assets, "1");
        let parallel = cli_run_json(id, &assets, "4");
        let again = cli_run_json(id, &assets, "1");
        assert_eq!(serial, again, "{id}: same flags, same JSON");
        assert_eq!(
            serial, parallel,
            "{id}: thread count must not change results"
        );

        let fig = FigureData::from_json(&serial).expect("valid FigureData artifact");
        assert_eq!(fig.id, id);
        assert_eq!(fig.schema_version, FIGURE_SCHEMA_VERSION);
        assert_eq!(fig.meta.fidelity, "quick");
        assert_eq!(fig.meta.seeds, vec![0, 1, 2]);
        assert!(
            !fig.tables.is_empty() || !fig.charts.is_empty(),
            "{id} renders data"
        );
        figs.insert(id, fig);
    }

    // Spot-check experiment-specific headline stats on the figures the
    // determinism loop already produced.
    assert!(
        figs["calibration"]
            .summary_value("tao_fraction_of_omniscient")
            .is_some(),
        "headline stat present"
    );
    assert!(
        figs["aqm"]
            .summary_value("tao_droptail_minus_worst_aqm")
            .is_some(),
        "AQM generality gap present"
    );
    assert!(
        figs["churn"]
            .summary_value("tao_churn1hz_minus_static")
            .is_some(),
        "churn consistency anchor present"
    );
    assert!(
        figs["shared_uplink"]
            .summary_value("tao_droptail_degradation_1_to_50")
            .is_some()
            && figs["shared_uplink"]
                .summary_value("tao_codel_degradation_1_to_50")
                .is_some(),
        "shared-uplink per-queue degradation stats present"
    );
    assert!(
        figs["churn_mginf"]
            .summary_value("tao_mginf_objective_at_5hz")
            .is_some(),
        "M/G/inf headline stat present"
    );

    remy::serialize::set_assets_dir(None);
    std::fs::remove_dir_all(&assets).ok();
}
