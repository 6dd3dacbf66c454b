//! From measurements to the numbers a run prints.

use crate::drive::{Measured, Traced};
use crate::metrics::{layers, END_TO_END};
use crate::stats::{median, quantile};
use crate::workload::Verdict;
use serde_json::Value;
use std::collections::BTreeMap;

/// Spans whose summed self time is reported as `<name>_s`.
const TIMED_LAYERS: [&str; 8] = [
    "netsim.sim.run",
    "netsim.sim.new",
    "remy.optimizer.optimize",
    "core.experiments.sweep",
    "core.runner.execute",
    "core.experiments.summarize",
    "core.report.to_json",
    "core.report.render",
];

/// The end-to-end metrics of an untraced run, by name.
pub fn end_to_end_values(m: &Measured, peak_rss_mb: f64) -> BTreeMap<String, f64> {
    let v = &m.verdict;
    BTreeMap::from([
        ("wall_s".to_string(), m.wall_s),
        ("setup_s".to_string(), m.setup_s),
        ("peak_rss_mb".to_string(), peak_rss_mb),
        (
            "ok_frac".to_string(),
            1.0 - v.failed() as f64 / v.attempted.max(1) as f64,
        ),
    ])
}

/// Every layer metric of a traced run, by name: span self times, the
/// exact counts taken beside the spans, what only the workload could
/// measure, and the probes. A layer this workload never enters reads 0.
pub fn layer_values(traced: &Traced, probes: Vec<(String, f64)>) -> BTreeMap<String, f64> {
    let tracer = &traced.tracer;
    let own = tracer.self_time_by_name();
    let self_s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let mut out: BTreeMap<String, f64> = probes.into_iter().collect();
    out.extend(traced.verdict.layer.iter().cloned());

    for name in TIMED_LAYERS {
        out.insert(format!("{name}_s"), self_s(name));
    }
    for span in tracer.spans() {
        if let Some(id) = span.name.strip_prefix("experiment.") {
            out.insert(format!("core.experiments.{id}.wall_s"), span.duration_s());
        }
    }
    let cells = tracer.durations_of("core.runner.execute");
    if !cells.is_empty() {
        out.insert("core.runner.cell_s.p50".into(), median(&cells));
        out.insert("core.runner.cell_s.p99".into(), quantile(&cells, 0.99));
        out.insert("core.runner.cell_s.max".into(), quantile(&cells, 1.0));
    }

    let c = traced.verdict.counts;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // The innermost spans that contain simulations: the benchmark's own
    // `Simulation::run` calls, or the sweep engine's.
    let simulating_s = self_s("netsim.sim.run") + self_s("core.runner.execute");
    out.insert("netsim.sim.events".into(), c.events as f64);
    out.insert(
        "netsim.sim.events_per_s".into(),
        ratio(c.events as f64, simulating_s),
    );
    out.insert(
        "netsim.link.drop_frac".into(),
        ratio(c.drops as f64, c.transmissions as f64),
    );
    out.insert(
        "netsim.transport.retx_frac".into(),
        ratio(c.retransmissions as f64, c.transmissions as f64),
    );
    out.insert(
        "remy.optimizer.evals_equiv".into(),
        ratio(
            self_s("remy.optimizer.optimize"),
            out.get("remy.eval.evaluate_s").copied().unwrap_or(0.0),
        ),
    );

    out.insert(
        "trace.overhead_frac".into(),
        traced.traced_wall_s / traced.untraced_wall_s - 1.0,
    );
    let run = tracer
        .spans()
        .iter()
        .find(|s| s.name == "run")
        .map_or(0.0, |s| s.duration_s());
    out.insert("trace.covered_frac".into(), 1.0 - ratio(self_s("run"), run));
    out
}

/// The one JSON object a contract run prints last: `metrics` holds every
/// end-to-end metric (untraced) or every layer metric (traced).
pub fn result_line(verdict: &Verdict, values: &BTreeMap<String, f64>, traced: bool) -> String {
    let metric = |name: &str, unit: &str| {
        let value = values.get(name).copied().unwrap_or(0.0);
        (
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        )
    };
    let metrics = if traced {
        layers().iter().map(|l| metric(&l.name, l.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| metric(m.name, m.unit)).collect()
    };
    let failed = verdict.failed();
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(verdict.attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .expect("a result serializes")
}
