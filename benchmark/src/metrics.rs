//! The metric tables: what the benchmark reports, in which unit, which
//! direction is better, and — for every layer metric — which end-to-end
//! metric it should move on which workloads, and where the prediction is
//! *no change*. `BENCHMARK.json` lists the same names; a test keeps the
//! two equal.

use serde_json::Value;

pub const FIG: &str = "figures_quick";
pub const SCALE: &str = "scale_10k";
pub const TRAIN: &str = "train_calibration";
pub const ZOO: &str = "path_zoo";

/// Every workload, with the one line on why it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        FIG,
        "the 19 quick figures a user waits for: hundreds of small Tao-heavy cells, so the core harness shell and per-cell fixed cost show",
    ),
    (
        SCALE,
        "10^4 churn slots per cell on incast and parking lot: the dense scheduler, arena and per-flow memory regime; netsim does all the work",
    ),
    (
        TRAIN,
        "Remy designing the calibration Tao at the asset budget: optimizer bookkeeping, EvalPool, per-candidate compile, Tao usage counting",
    ),
    (
        ZOO,
        "seed-drawn small dumbbells across every queue, reverse tier, fault, receiver policy and load process: the non-paper tiers of netsim",
    ),
];

/// Seconds one contract run measures for.
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse (negative when better)?
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// A metric a user of the system sees, reported per workload.
///
/// The three measured bounds sit at the contract's ceiling of 25 %: on
/// the reference box one binary and seed runs 3-8 % apart between
/// neighbouring runs and about 30 % apart between phases of the host
/// that last tens of minutes, and a bound inside the instrument's own
/// noise would reject a commit against itself (README, "Where this
/// differs").
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.001,
    },
];

/// Where a layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A span (or an exact count taken beside it) in the traced run.
    Trace,
    /// An isolated driver over the layer's public functions.
    Probe,
    /// One seeded scenario run twice with a single layer swapped.
    Differential,
}

impl Source {
    pub fn letter(self) -> char {
        match self {
            Source::Trace => 'T',
            Source::Probe => 'P',
            Source::Differential => 'D',
        }
    }
}

/// A metric of a single layer, with its prediction.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric this should move…
    pub moves: &'static str,
    /// …on these workloads…
    pub on: Vec<&'static str>,
    /// …while these stay as they are.
    pub still: Vec<&'static str>,
}

/// The exact counts: equal between two runs of one commit, and between
/// two commits unless simulated behaviour changed.
pub const EXACT: [&str; 4] = [
    "netsim.sim.events",
    "netsim.sim.allocs_per_event",
    "netsim.link.drop_frac",
    "netsim.transport.retx_frac",
];

/// The layer ledger, one metric a line:
/// `name | unit | better | source | moves | on | still`, with the
/// workloads spelled `fig`, `scale`, `train` and `zoo`. `<id>` stands
/// for each experiment `figures_quick` runs. The README explains every
/// row.
const LEDGER: &str = "
netsim.sim.run_s                     | s        | lower  | T | wall_s      | scale                |
netsim.sim.events                    | count    | lower  | T | wall_s      | fig scale zoo        |
netsim.sim.events_per_s              | 1/s      | higher | T | wall_s      | fig scale zoo        |
netsim.sim.new_s                     | s        | lower  | T | setup_s     | scale                |
netsim.topology.validate_us.10k      | us       | lower  | P | setup_s     | scale                |
netsim.sim.allocs_per_event          | 1/event  | lower  | T | wall_s      | scale                |
netsim.sim.kb_per_flow               | kB       | lower  | T | peak_rss_mb | scale                |
netsim.calendar.hold_ns.64           | ns       | lower  | P | wall_s      | fig train zoo        | scale
netsim.event.heap.hold_ns.64         | ns       | lower  | P | wall_s      | fig train zoo        | scale
netsim.calendar.hold_ns.4096         | ns       | lower  | P | wall_s      | scale                | fig train zoo
netsim.event.heap.hold_ns.4096       | ns       | lower  | P | wall_s      | scale                | fig train zoo
netsim.calendar.hold_ns.65536        | ns       | lower  | P | wall_s      | scale                | fig train zoo
netsim.event.heap.hold_ns.65536      | ns       | lower  | P | wall_s      | scale                | fig train zoo
netsim.calendar.vs_heap.sparse       | ratio    | lower  | D | wall_s      | fig train zoo        | scale
netsim.calendar.vs_heap.dense        | ratio    | lower  | D | wall_s      | scale                | fig train zoo
netsim.link.droptail.ns_per_pkt      | ns       | lower  | P | wall_s      | fig scale train      |
netsim.link.red.ns_per_pkt           | ns       | lower  | P | wall_s      | zoo                  | scale
netsim.link.codel.ns_per_pkt         | ns       | lower  | P | wall_s      | zoo                  | scale
netsim.link.sfq_codel.ns_per_pkt     | ns       | lower  | P | wall_s      | zoo                  | scale
netsim.link.drop_frac                | fraction | lower  | T | wall_s      | fig scale zoo        |
netsim.transport.retx_frac           | fraction | lower  | T | wall_s      | fig scale zoo        |
netsim.transport.ns_per_ack          | ns       | lower  | P | wall_s      | fig scale train zoo  |
netsim.transport.ns_per_ack.loss     | ns       | lower  | P | wall_s      | zoo                  |
netsim.arena.ns_per_cycle            | ns       | lower  | P | wall_s      | scale                |
netsim.seqtrack.ns_per_insert        | ns       | lower  | P | wall_s      | scale                |
netsim.reverse.shared_vs_paper       | ratio    | lower  | D | wall_s      | zoo                  | scale train
netsim.reverse.perflow_vs_paper      | ratio    | lower  | D | wall_s      | zoo                  | scale train
netsim.receiver.delayed_vs_immediate | ratio    | lower  | D | wall_s      | zoo                  | scale train
protocols.tao.on_ack_ns              | ns       | lower  | P | wall_s      | fig train            |
protocols.cubic.on_ack_ns            | ns       | lower  | P | wall_s      | scale                |
protocols.newreno.on_ack_ns          | ns       | lower  | P | wall_s      | scale                |
protocols.vegas.on_ack_ns            | ns       | lower  | P | wall_s      | zoo                  |
protocols.pcc.on_ack_ns              | ns       | lower  | P | wall_s      | fig                  |
protocols.compiled.lookup_ns.small   | ns       | lower  | P | wall_s      | train fig            | scale
protocols.compiled.lookup_ns.large   | ns       | lower  | P | wall_s      | train fig            | scale
protocols.compiled.compile_us        | us       | lower  | P | wall_s      | train fig            | scale
remy.optimizer.optimize_s            | s        | lower  | T | wall_s      | train                |
remy.eval.evaluate_s                 | s        | lower  | P | wall_s      | train                |
remy.eval.pool_overhead_frac         | fraction | lower  | P | wall_s      | train                |
remy.optimizer.evals_equiv           | count    | lower  | T | wall_s      | train                |
remy.scenario.sample_us              | us       | lower  | P | setup_s     | train                |
remy.serialize.load_us               | us       | lower  | P | setup_s     | fig scale zoo        |
core.experiments.sweep_s             | s        | lower  | T | setup_s     | fig                  |
core.runner.execute_s                | s        | lower  | T | wall_s      | fig zoo              |
core.experiments.summarize_s         | s        | lower  | T | wall_s      | fig                  |
core.report.to_json_s                | s        | lower  | T | wall_s      | fig                  |
core.report.render_s                 | s        | lower  | T | wall_s      | fig                  |
core.experiments.<id>.wall_s         | s        | lower  | T | wall_s      | fig                  |
core.runner.cell_overhead_us         | us       | lower  | P | wall_s      | fig zoo              | scale
core.runner.cell_s.p50               | s        | lower  | T | wall_s      | fig zoo              |
core.runner.cell_s.p99               | s        | lower  | T | wall_s      | fig zoo              |
core.runner.cell_s.max               | s        | lower  | T | wall_s      | fig zoo              |
core.runner.build_protocols_us.10k   | us       | lower  | P | setup_s     | scale                |
core.report.json_mb_per_s.encode     | MB/s     | higher | P | wall_s      | fig                  |
core.report.json_mb_per_s.decode     | MB/s     | higher | P | setup_s     | fig                  |
trace.overhead_frac                  | fraction | lower  | T | wall_s      | fig scale train zoo  |
trace.covered_frac                   | fraction | higher | T | wall_s      | fig scale train zoo  |
";

/// The ledger, parsed; a malformed line is a bug in this file.
pub fn layers() -> Vec<Layer> {
    let workloads = |field: &'static str| -> Vec<&'static str> {
        field
            .split_whitespace()
            .map(|short| match short {
                "fig" => FIG,
                "scale" => SCALE,
                "train" => TRAIN,
                "zoo" => ZOO,
                other => panic!("ledger: unknown workload '{other}'"),
            })
            .collect()
    };
    let mut out = Vec::new();
    for line in LEDGER.lines().filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&'static str> = line.split('|').map(str::trim).collect();
        let &[name, unit, better, source, moves, on, still] = fields.as_slice() else {
            panic!("ledger: seven fields expected in '{line}'");
        };
        let names = match name.split_once("<id>") {
            None => vec![name.to_string()],
            Some((head, tail)) => crate::figures_quick::experiments(crate::workload::Scale::Full)
                .iter()
                .map(|exp| format!("{head}{}{tail}", exp.id()))
                .collect(),
        };
        for name in names {
            out.push(Layer {
                name,
                unit,
                better: match better {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => panic!("ledger: unknown direction '{other}'"),
                },
                source: match source {
                    "T" => Source::Trace,
                    "P" => Source::Probe,
                    "D" => Source::Differential,
                    other => panic!("ledger: unknown source '{other}'"),
                },
                moves,
                on: workloads(on),
                still: workloads(still),
            });
        }
    }
    out
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let s = |v: &str| Value::Str(v.to_string());
    let strings = |vs: &[&str]| Value::Array(vs.iter().map(|v| s(v)).collect());
    let doc = Value::Object(vec![
        ("command".into(), strings(&["bash", "benchmark/run.sh"])),
        ("paths".into(), strings(&["benchmark"])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Object(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.name())),
                            ("bound".into(), Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Array(
                layers()
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".into(), s(&m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("the manifest serializes") + "\n"
}
