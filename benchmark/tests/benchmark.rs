//! The benchmark's own contract, checked on every workload at tiny scale.

use lcc_benchmark::drive::measure;
use lcc_benchmark::metrics::{layers, manifest, END_TO_END, EXACT, WORKLOADS};
use lcc_benchmark::path_zoo::PathZoo;
use lcc_benchmark::scale_10k::Scale10k;
use lcc_benchmark::workload::Scale;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_counts_fit_the_contract() {
    let layers = layers();
    assert!(END_TO_END.len() <= 16 && (1..=128).contains(&layers.len()));
    assert!((2..=8).contains(&WORKLOADS.len()));
    let mut seen = BTreeSet::new();
    for (name, why) in WORKLOADS {
        assert!(name_ok(name) && seen.insert(name.to_string()), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one short line"
        );
    }
    for m in &END_TO_END {
        assert!(
            name_ok(m.name) && seen.insert(m.name.to_string()),
            "{}",
            m.name
        );
        assert!(
            unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
            "{}",
            m.name
        );
    }
    for l in &layers {
        assert!(
            name_ok(&l.name) && seen.insert(l.name.clone()),
            "{}",
            l.name
        );
        assert!(unit_ok(l.unit), "{}: unit {}", l.name, l.unit);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is a metric");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_prediction_names_a_metric_and_a_workload() {
    let layers = layers();
    for l in &layers {
        assert!(
            END_TO_END.iter().any(|m| m.name == l.moves),
            "{} moves {}",
            l.name,
            l.moves
        );
        assert!(!l.on.is_empty(), "{} moves something somewhere", l.name);
        for w in l.on.iter().chain(&l.still) {
            assert!(
                WORKLOADS.iter().any(|(name, _)| name == w),
                "{}: workload {w}",
                l.name
            );
        }
        assert!(
            l.on.iter().all(|w| !l.still.contains(w)),
            "{}: moves and still overlap",
            l.name
        );
    }
    for name in EXACT {
        assert!(layers.iter().any(|l| l.name == name), "exact count {name}");
    }
}

#[test]
fn benchmark_json_is_the_metric_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest(),
        "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
    );
    assert!(committed.len() <= 64 * 1024);
}

/// One contract run of the built binary; its result line, parsed.
fn contract_run(workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_lcc-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--scale", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        // The run must not listen to these.
        .env("NETSIM_SCHEDULER", "heap")
        .env("REMY_ASSETS_DIR", "/nonexistent")
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// Both kinds of contract run of one workload print the agreed result,
/// and the trace the traced one leaves adds up.
fn prints_the_contract_result(workload: &str) {
    {
        for trace in [false, true] {
            let result = contract_run(workload, 1, trace);
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed"), Some(&Value::U64(0)), "{workload}");
            assert!(matches!(result.get("attempted"), Some(Value::U64(n)) if *n >= 1));
            let metrics = result.get("metrics").expect("metrics");
            let expected: Vec<String> = if trace {
                layers().into_iter().map(|l| l.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name.to_string()).collect()
            };
            assert_eq!(keys(metrics), expected, "{workload} trace {trace}");
            for (name, m) in metrics.as_object().expect("an object") {
                assert_eq!(keys(m), ["value", "unit"], "{name}");
                assert!(
                    matches!(m.get("value"), Some(Value::F64(v)) if v.is_finite()),
                    "{name}"
                );
            }
            if !trace {
                for m in &END_TO_END {
                    let value = metrics.get(m.name).and_then(|m| m.get("value"));
                    assert!(
                        matches!(value, Some(Value::F64(v)) if *v > 0.0),
                        "{} is never 0",
                        m.name
                    );
                }
            }
        }
        spans_partition_the_root(workload);
    }
}

#[test]
fn figures_quick_prints_the_contract_result() {
    prints_the_contract_result("figures_quick");
}

#[test]
fn scale_10k_prints_the_contract_result() {
    prints_the_contract_result("scale_10k");
}

#[test]
fn train_calibration_prints_the_contract_result() {
    prints_the_contract_result("train_calibration");
}

#[test]
fn path_zoo_prints_the_contract_result() {
    prints_the_contract_result("path_zoo");
}

/// In the trace the traced run just wrote, self times sum to the root
/// span's duration within 1 %.
fn spans_partition_the_root(workload: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.json"));
    let trace: Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("a trace file")).expect("JSON");
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans");
    let number = |span: &Value, key: &str| match span.get(key) {
        Some(Value::U64(n)) => *n as f64,
        Some(Value::F64(x)) => *x,
        other => panic!("{workload}: span field {key} is {other:?}"),
    };
    let root = &spans[0];
    assert_eq!(root.get("parent"), Some(&Value::Null));
    assert_eq!(root.get("name"), Some(&Value::Str("workload".into())));
    let root_s = (number(root, "end_ns") - number(root, "start_ns")) / 1e9;
    let self_sum: f64 = spans.iter().map(|s| number(s, "self_s")).sum();
    assert!(
        (self_sum - root_s).abs() <= 0.01 * root_s,
        "{workload}: self times sum to {self_sum}, the root lasts {root_s}"
    );
    for span in &spans[1..] {
        assert_eq!(span.get("workload"), Some(&Value::Str(workload.into())));
        assert!(matches!(span.get("parent"), Some(Value::U64(p)) if (*p as usize) < spans.len()));
    }
}

#[test]
fn seeds_change_the_inputs_and_repeat() {
    let zoo = |seed| PathZoo::new(seed, Scale::Tiny).configs();
    assert_eq!(zoo(1), zoo(1));
    assert_ne!(zoo(1), zoo(2));
    let cells = |seed| Scale10k::new(seed, Scale::Tiny).cells;
    assert_eq!(cells(1), cells(1));
    assert_ne!(cells(1), cells(2));
}

#[test]
fn a_truncated_cell_is_one_failed_operation() {
    let mut workload = Scale10k::new(1, Scale::Tiny);
    assert!(measure(&workload, 0.0).verdict.failures.is_empty());
    workload.cells[2].event_budget = 1_000;
    let verdict = measure(&workload, 0.0).verdict;
    assert_eq!(verdict.attempted, workload.cells.len() as u64);
    assert_eq!(verdict.failures.len(), 1, "{:?}", verdict.failures);
    assert!(verdict.failures[0].contains("truncated"));
}
