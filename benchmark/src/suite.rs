//! The whole benchmark in one go, and the comparison of two such runs.
//!
//! [`run_all`] starts every workload in a child process of its own, so
//! each starts from a cold allocator and its peak resident set is its
//! own: `runs` untraced runs on seeds `1..=runs`, then one traced run.
//! It prints every metric by name with its unit and writes the numbers to
//! a results file that [`compare`] reads back.

use crate::metrics::{layers, Better, END_TO_END, EXACT, WORKLOADS};
use crate::stats::{median, spread};
use crate::workload::Scale;
use serde_json::Value;
use std::path::Path;
use std::process::{Command, Stdio};

pub struct Options {
    pub runs: usize,
    pub seconds: u64,
    pub scale: Scale,
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// One contract run in a child process; its result line, parsed.
fn child(opts: &Options, workload: &str, seed: usize, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", opts.scale.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    match (out.status.success(), last) {
        (true, Some(line)) => serde_json::from_str(line)
            .map_err(|e| format!("{workload}: unreadable result line: {e}")),
        _ => Err(format!("{workload} seed {seed} failed ({})", out.status)),
    }
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(number)
        .ok_or_else(|| format!("a run printed no {name}"))
}

/// Run everything, print it, write `results` (JSON). `Ok(false)` when an
/// operation failed its output check.
pub fn run_all(opts: &Options, results: &Path) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        eprintln!(
            "[benchmark] {workload}: {} untraced run(s), then 1 traced",
            opts.runs
        );
        let untraced = (1..=opts.runs)
            .map(|seed| child(opts, workload, seed, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = child(opts, workload, 1, true)?;

        let count = |key: &str| -> u64 {
            untraced
                .iter()
                .chain([&traced])
                .filter_map(|r| r.get(key).and_then(number))
                .sum::<f64>() as u64
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        all_correct &= failed == 0;
        println!("\n== {workload} ==  threads 1, {failed} of {attempted} operations failed");

        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let values = untraced
                .iter()
                .map(|r| metric_value(r, m.name))
                .collect::<Result<Vec<_>, _>>()?;
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let spread = if values.len() >= 2 {
                spread(&values)
            } else {
                0.0
            };
            println!(
                "  {:<14} {:>12.4} {:<9} median of {} (min {:.4}, max {:.4}, quartile spread {:.1} %)",
                m.name, median(&values), m.unit, values.len(), lo, hi, spread * 100.0
            );
            end_to_end.push(Value::Object(vec![
                ("name".into(), Value::Str(m.name.into())),
                ("unit".into(), Value::Str(m.unit.into())),
                ("median".into(), Value::F64(median(&values))),
                ("min".into(), Value::F64(lo)),
                ("max".into(), Value::F64(hi)),
                ("spread".into(), Value::F64(spread)),
                (
                    "values".into(),
                    Value::Array(values.into_iter().map(Value::F64).collect()),
                ),
            ]));
        }
        let mut per_layer = Vec::new();
        for l in layers() {
            let value = metric_value(&traced, &l.name)?;
            let still = match l.still.as_slice() {
                [] => String::new(),
                still => format!("; still on {}", still.join(", ")),
            };
            println!(
                "  {:<42} {:>16.4} {:<8} [{}] moves {} on {}{still}",
                l.name,
                value,
                l.unit,
                l.source.letter(),
                l.moves,
                l.on.join(", ")
            );
            per_layer.push(Value::Object(vec![
                ("name".into(), Value::Str(l.name)),
                ("unit".into(), Value::Str(l.unit.into())),
                ("value".into(), Value::F64(value)),
            ]));
        }
        workloads.push(Value::Object(vec![
            ("name".into(), Value::Str(workload.into())),
            ("attempted".into(), Value::U64(attempted)),
            ("failed".into(), Value::U64(failed)),
            ("end_to_end".into(), Value::Array(end_to_end)),
            ("per_layer".into(), Value::Array(per_layer)),
        ]));
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Value::Object(vec![
        ("threads".into(), Value::U64(1)),
        (
            "available_parallelism".into(),
            Value::U64(parallelism as u64),
        ),
        ("scale".into(), Value::Str(opts.scale.name().into())),
        ("runs".into(), Value::U64(opts.runs as u64)),
        ("seconds".into(), Value::U64(opts.seconds)),
        ("workloads".into(), Value::Array(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("results serialize") + "\n";
    std::fs::write(results, text)
        .map_err(|e| format!("cannot write {}: {e}", results.display()))?;
    eprintln!("[benchmark] wrote {}", results.display());
    Ok(all_correct)
}

/// What a metric did between two result sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Change {
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so the runs cannot
    /// tell.
    Unresolved,
}

/// Apply a metric's bound to its runs at the parent (`a`) and at the
/// change (`b`).
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Change {
    let worsening = better.worsening(median(a), median(b));
    let widest = [a, b]
        .iter()
        .filter(|xs| xs.len() >= 2)
        .map(|xs| spread(xs))
        .fold(0.0, f64::max);
    // Does every run of `x` read better than every run of `y`?
    let all_better = |x: &[f64], y: &[f64]| {
        x.iter()
            .all(|&xv| y.iter().all(|&yv| better.worsening(yv, xv) < 0.0))
    };
    if widest > bound && !all_better(b, a) {
        if worsening > bound && all_better(a, b) {
            Change::Worse
        } else {
            Change::Unresolved
        }
    } else if worsening > bound {
        Change::Worse
    } else {
        Change::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The entry called `name` of the array `key` of `obj`.
fn named<'a>(obj: &'a Value, key: &str, name: &str) -> Option<&'a Value> {
    obj.get(key)?
        .as_array()?
        .iter()
        .find(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == name))
}

fn values_of(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    named(workload, "end_to_end", metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(number)
        .collect()
}

/// Compare two results files, parent first. Prints one line per workload
/// and end-to-end metric, and one per exact count; `Ok(true)` when
/// nothing is worse, unresolved or different.
pub fn compare(parent: &str, change: &str) -> Result<bool, String> {
    let (a, b) = (load(parent)?, load(change)?);
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        let (Some(wa), Some(wb)) = (
            named(&a, "workloads", workload),
            named(&b, "workloads", workload),
        ) else {
            return Err(format!("{workload} is missing from a results file"));
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (values_of(wa, m.name), values_of(wb, m.name)) else {
                return Err(format!("{workload} has no {} runs", m.name));
            };
            let change = judge(m.better, m.bound, &va, &vb);
            clean &= change == Change::Same;
            println!(
                "{workload:<18} {:<12} {:<10} {:.4} -> {:.4} {} (bound {:.0} %)",
                m.name,
                format!("{change:?}").to_lowercase(),
                median(&va),
                median(&vb),
                m.unit,
                m.bound * 100.0
            );
        }
        for name in EXACT {
            let value = |w: &Value| named(w, "per_layer", name)?.get("value").and_then(number);
            let same = value(wa).is_some() && value(wa) == value(wb);
            clean &= same;
            println!(
                "{workload:<18} {name:<28} {}",
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(clean)
}
