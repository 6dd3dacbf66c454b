//! CI perf-regression gate.
//!
//! Compares a freshly measured `perf_snapshot` JSON against the
//! committed `BENCH_optimizer.json` and fails (non-zero exit) when
//! either tracked number regressed beyond a tolerance factor:
//!
//! * `sim_events_per_sec` — fresh must be ≥ committed / tolerance
//!   (likewise `_dense`, `_receiver_policy` and `_10k`, the
//!   standing-population, delayed-ACK-receiver and Internet-scale
//!   variants of the same measurement)
//! * `sim_allocs_per_event_dense` / `_10k` — fresh must be ≤
//!   committed × tolerance, with a small absolute floor so an
//!   allocation-free committed baseline doesn't make every nonzero
//!   measurement a failure
//! * `sim_peak_heap_mb_10k` — fresh must be ≤ committed × tolerance (the
//!   10⁴-flow cell's peak heap: memory that follows the path instead of
//!   what is live comes back as a multiple, not as jitter)
//! * `smoke_train_wall_s` — fresh must be ≤ committed × tolerance
//! * `genetic_smoke_train_secs` — fresh must be ≤ committed × tolerance
//!   (doubles as CI's genetic smoke-train: the measurement *is* a full
//!   smoke-budget `GeneticTrainer` run)
//!
//! The tolerance defaults to 2× — generous on purpose: shared CI
//! runners are noisy, and the gate exists to catch order-of-magnitude
//! hot-path regressions (an accidental `BTreeMap`, a lost `inline`, a
//! degenerate scheduler width), not 5% jitter.
//!
//! ```sh
//! cargo run --release -p bench --bin perf_snapshot -- --out fresh.json --write
//! cargo run --release -p bench --bin perf_gate -- \
//!     --baseline BENCH_optimizer.json --fresh fresh.json [--tolerance 2.0]
//! ```

use serde_json::Value;
use std::process::ExitCode;

fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// One gated metric: `fresh` regressed iff it is worse than `committed`
/// by more than `tolerance` in the metric's bad direction.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Direction {
    /// Bigger is better (throughput).
    HigherIsBetter,
    /// Smaller is better (wall time).
    LowerIsBetter,
}

fn regressed(committed: f64, fresh: f64, tolerance: f64, dir: Direction) -> bool {
    match dir {
        Direction::HigherIsBetter => fresh < committed / tolerance,
        Direction::LowerIsBetter => fresh > committed * tolerance,
    }
}

/// Absolute floor applied to the committed side of allocs-per-event
/// metrics: the hot path targets ~0 allocations per event, and ratio
/// tolerance against a near-zero committed value would flag noise-level
/// growth (0.0001 → 0.0003) as a 3× regression.
const ALLOC_PER_EVENT_FLOOR: f64 = 0.01;

fn check(
    name: &str,
    baseline: &Value,
    fresh: &Value,
    tolerance: f64,
    dir: Direction,
) -> Result<(), String> {
    let mut committed =
        num(baseline, name).ok_or_else(|| format!("baseline JSON lacks numeric `{name}`"))?;
    if name.starts_with("sim_allocs_per_event") {
        committed = committed.max(ALLOC_PER_EVENT_FLOOR);
    }
    let measured = num(fresh, name).ok_or_else(|| format!("fresh JSON lacks numeric `{name}`"))?;
    let ratio = measured / committed;
    let verdict = if regressed(committed, measured, tolerance, dir) {
        "REGRESSED"
    } else {
        "ok"
    };
    eprintln!(
        "[gate] {name}: committed {committed:.3e}, fresh {measured:.3e} ({ratio:.2}x) .. {verdict}"
    );
    if verdict == "REGRESSED" {
        return Err(format!(
            "{name} regressed beyond {tolerance}x tolerance: committed {committed:.3e}, fresh {measured:.3e}"
        ));
    }
    Ok(())
}

/// Minimum acceptable calendar/heap throughput ratio within one run on
/// the sparse 4-sender dumbbell. Both runs keep their packet events on
/// the event queue's delay lines, so the ratio compares the backends on
/// what they still hold — the pacing wakes and RTO checks, a few dozen
/// standing timers — and they run neck and neck there (0.82–1.10×
/// measured). The floor leaves room for jitter; a calendar at three
/// quarters of the heap's speed is a degenerated self-tuning path,
/// whatever the hardware. There is no dense-population rule: on the 10⁴-
/// flow cell, where some 2×10⁴ timers stand, this calendar does not
/// reliably beat the heap (0.68–1.05× across eight runs on a shared
/// 2-vCPU box), so `_10k_heap` is recorded but not gated.
const MIN_BACKEND_RATIO: f64 = 0.75;

fn check_backend_ratio(fresh: &Value) -> Result<(), String> {
    let (calendar_key, heap_key) = ("sim_events_per_sec", "sim_events_per_sec_heap");
    let calendar =
        num(fresh, calendar_key).ok_or(format!("fresh JSON lacks numeric `{calendar_key}`"))?;
    let heap = num(fresh, heap_key).ok_or(format!("fresh JSON lacks numeric `{heap_key}`"))?;
    let ratio = calendar / heap;
    let ok = ratio >= MIN_BACKEND_RATIO;
    eprintln!(
        "[gate] {calendar_key}/{heap_key} (same run): {ratio:.2}x .. {}",
        if ok { "ok" } else { "REGRESSED" }
    );
    if ok {
        Ok(())
    } else {
        Err(format!(
            "default scheduler degenerated: {calendar_key} {calendar:.3e} ev/s is only \
             {ratio:.2}x of {heap_key} {heap:.3e} ev/s measured in the same run \
             (floor {MIN_BACKEND_RATIO})"
        ))
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_gate: cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("perf_gate: {path} is not JSON: {e}"))
}

/// Every metric compared with the committed snapshot, and its good
/// direction.
const GATED: &[(&str, Direction)] = &[
    ("sim_events_per_sec", Direction::HigherIsBetter),
    ("sim_events_per_sec_dense", Direction::HigherIsBetter),
    (
        "sim_events_per_sec_receiver_policy",
        Direction::HigherIsBetter,
    ),
    ("sim_events_per_sec_10k", Direction::HigherIsBetter),
    ("sim_allocs_per_event_dense", Direction::LowerIsBetter),
    ("sim_allocs_per_event_10k", Direction::LowerIsBetter),
    ("sim_peak_heap_mb_10k", Direction::LowerIsBetter),
    ("smoke_train_wall_s", Direction::LowerIsBetter),
    ("genetic_smoke_train_secs", Direction::LowerIsBetter),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path =
        arg_value(&args, "--baseline").unwrap_or_else(|| "BENCH_optimizer.json".to_string());
    let fresh_path = arg_value(&args, "--fresh").expect("perf_gate: --fresh <snapshot.json>");
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|t| t.parse().expect("perf_gate: bad --tolerance"))
        .unwrap_or(2.0);
    assert!(tolerance >= 1.0, "tolerance must be >= 1.0");

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);

    let mut failures = Vec::new();
    for &(name, dir) in GATED {
        if let Err(e) = check(name, &baseline, &fresh, tolerance, dir) {
            failures.push(e);
        }
    }
    // Hardware-independent cross-check: both backends were measured in
    // the *same* fresh run, so the calendar/heap ratio carries no
    // machine-speed noise. The default calendar backend falling well
    // below the heap reference means its self-tuning degenerated — the
    // exact regression the absolute numbers could mask on a runner
    // faster than the committed baseline's machine.
    if let Err(e) = check_backend_ratio(&fresh) {
        failures.push(e);
    }
    if failures.is_empty() {
        eprintln!("[gate] perf within {tolerance}x of {baseline_path}");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("[gate] FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, f64)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), Value::F64(*v)))
                .collect(),
        )
    }

    #[test]
    fn throughput_regression_is_caught() {
        assert!(regressed(6e6, 2.9e6, 2.0, Direction::HigherIsBetter));
        assert!(!regressed(6e6, 3.1e6, 2.0, Direction::HigherIsBetter));
        assert!(
            !regressed(6e6, 9e6, 2.0, Direction::HigherIsBetter),
            "improvement passes"
        );
    }

    #[test]
    fn walltime_regression_is_caught() {
        assert!(regressed(2.0, 4.1, 2.0, Direction::LowerIsBetter));
        assert!(!regressed(2.0, 3.9, 2.0, Direction::LowerIsBetter));
        assert!(
            !regressed(2.0, 1.0, 2.0, Direction::LowerIsBetter),
            "improvement passes"
        );
    }

    #[test]
    fn check_reads_both_documents() {
        let base = obj(&[("sim_events_per_sec", 6e6), ("smoke_train_wall_s", 2.0)]);
        let fresh_ok = obj(&[("sim_events_per_sec", 5e6), ("smoke_train_wall_s", 2.5)]);
        let fresh_bad = obj(&[("sim_events_per_sec", 1e6), ("smoke_train_wall_s", 2.5)]);
        assert!(check(
            "sim_events_per_sec",
            &base,
            &fresh_ok,
            2.0,
            Direction::HigherIsBetter
        )
        .is_ok());
        assert!(check(
            "sim_events_per_sec",
            &base,
            &fresh_bad,
            2.0,
            Direction::HigherIsBetter
        )
        .is_err());
        assert!(
            check("missing", &base, &fresh_ok, 2.0, Direction::HigherIsBetter).is_err(),
            "absent keys fail loudly rather than silently passing"
        );
    }

    #[test]
    fn backend_ratio_catches_degenerate_calendar() {
        let ok = obj(&[
            ("sim_events_per_sec", 14e6),
            ("sim_events_per_sec_heap", 8e6),
        ]);
        assert!(check_backend_ratio(&ok).is_ok());
        let marginal = obj(&[
            ("sim_events_per_sec", 6.5e6),
            ("sim_events_per_sec_heap", 8e6),
        ]);
        assert!(check_backend_ratio(&marginal).is_ok(), "slack for jitter");
        let degenerate = obj(&[
            ("sim_events_per_sec", 1e6),
            ("sim_events_per_sec_heap", 8e6),
        ]);
        assert!(check_backend_ratio(&degenerate).is_err());
        let missing = obj(&[("sim_events_per_sec", 14e6)]);
        assert!(check_backend_ratio(&missing).is_err(), "absent key fails");
    }

    #[test]
    fn alloc_metrics_get_an_absolute_floor() {
        // Committed near-zero: noise-level fresh values must pass ...
        let base = obj(&[("sim_allocs_per_event_dense", 1e-4)]);
        let noise = obj(&[("sim_allocs_per_event_dense", 8e-4)]);
        assert!(check(
            "sim_allocs_per_event_dense",
            &base,
            &noise,
            2.0,
            Direction::LowerIsBetter
        )
        .is_ok());
        // ... but a real per-event allocation (>= one alloc per ~20
        // events) is still far above floor x tolerance and fails.
        let real = obj(&[("sim_allocs_per_event_dense", 0.05)]);
        assert!(check(
            "sim_allocs_per_event_dense",
            &base,
            &real,
            2.0,
            Direction::LowerIsBetter
        )
        .is_err());
    }

    #[test]
    fn peak_heap_is_gated_lower_is_better() {
        assert!(GATED.contains(&("sim_peak_heap_mb_10k", Direction::LowerIsBetter)));
        let base = obj(&[("sim_peak_heap_mb_10k", 30.0)]);
        let fresh = obj(&[("sim_peak_heap_mb_10k", 70.0)]);
        assert!(check(
            "sim_peak_heap_mb_10k",
            &base,
            &fresh,
            2.0,
            Direction::LowerIsBetter
        )
        .is_err());
    }

    #[test]
    fn integer_valued_snapshots_parse() {
        let base = Value::Object(vec![(
            "sim_events_per_sec".to_string(),
            Value::U64(6_000_000),
        )]);
        assert_eq!(num(&base, "sim_events_per_sec"), Some(6e6));
    }
}
