//! `figures_quick`: what a user actually waits for — every registered
//! experiment except `many_flows`, at quick fidelity, from the committed
//! protocol assets to the rendered report.
//!
//! Hundreds of small cells (2–100 flows), Tao-heavy, drop-tail with the
//! paper's reverse path, a sparse scheduler population: the harness shell
//! (`core`: sweep expansion, asset JSON, `build_protocols`, summarize,
//! encode, render) and the per-cell fixed cost do a visible share of the
//! work here and almost none elsewhere. The inputs are the committed
//! registry and assets, so `--seed` changes nothing.

use crate::trace::Tracer;
use crate::workload::{require_assets, Counts, Scale, Verdict, Workload};
use lcc_core::experiments::{registry, run_experiment_report, Experiment, Fidelity, RunOptions};
use lcc_core::report::render_figure;
use lcc_core::runner::execute_sweep;
use std::hint::black_box;
use std::path::PathBuf;

/// `many_flows` is left out: its nine `incast|pcc` cells each burn the
/// flat 200 M-event budget and truncate (163 s of the 178 s `run all`
/// takes); `scale_10k` measures the 10⁴-slot regime without them.
const EXCLUDED: &str = "many_flows";

/// The two cheapest experiments, for the tests.
const TINY: [&str; 2] = ["calibration", "diversity"];

/// The experiments the workload runs, in registry order.
pub fn experiments(scale: Scale) -> Vec<&'static dyn Experiment> {
    registry()
        .iter()
        .copied()
        .filter(|e| match scale {
            Scale::Full => e.id() != EXCLUDED,
            Scale::Tiny => TINY.contains(&e.id()),
        })
        .collect()
}

pub struct FiguresQuick {
    experiments: Vec<&'static dyn Experiment>,
    /// Where the emitted JSON goes (inside the checkout).
    out_dir: PathBuf,
}

impl FiguresQuick {
    pub fn new(scale: Scale, out_dir: PathBuf) -> Self {
        FiguresQuick {
            experiments: experiments(scale),
            out_dir,
        }
    }

    fn options() -> RunOptions {
        RunOptions {
            fidelity: Fidelity::Quick,
            seeds: None,
            threads: 1,
        }
    }

    fn emit(&self, id: &str, json: &str) {
        let path = self.out_dir.join(format!("{id}.json"));
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
}

/// One emitted figure: its JSON, and what went wrong producing it.
pub struct Figure {
    id: &'static str,
    json: String,
    problems: Vec<String>,
}

pub struct Output {
    figures: Vec<Figure>,
    /// Filled by the traced pass only: the untraced pass goes through
    /// `run_experiment_report`, which does not hand the run records out.
    counts: Counts,
}

/// A figure's JSON with the provenance block (`.meta`, always the last
/// field) cut off: the part that must equal the committed golden.
fn without_meta(json: &str) -> &str {
    json.rfind("\n  \"meta\":").map_or(json, |at| &json[..at])
}

impl Workload for FiguresQuick {
    type Prepared = ();
    type Output = Output;

    fn name(&self) -> &'static str {
        "figures_quick"
    }

    fn preflight(&self) -> Result<(), String> {
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.out_dir.display()))?;
        let jobs: Vec<_> = self
            .experiments
            .iter()
            .flat_map(|e| e.train_specs())
            .collect();
        require_assets(
            jobs.iter()
                .flat_map(|j| j.assets.iter().map(String::as_str)),
        )
    }

    /// One pass of `sweep` over every experiment: asset read and parse,
    /// sweep-grid and `NetworkConfig` construction.
    fn prepare(&self, _: &mut Tracer) {
        for exp in &self.experiments {
            black_box(exp.sweep(Fidelity::Quick));
        }
    }

    fn execute(&self, (): (), t: &mut Tracer) -> Output {
        let mut out = Output {
            figures: Vec::new(),
            counts: Counts::default(),
        };
        for &exp in &self.experiments {
            let figure = t.span(&format!("experiment.{}", exp.id()), |t| {
                if t.enabled() {
                    self.run_decomposed(exp, &mut out.counts, t)
                } else {
                    self.run_as_the_cli_does(exp)
                }
            });
            out.figures.push(figure);
        }
        out
    }

    fn check(&self, out: &Output) -> Verdict {
        let goldens = remy::serialize::assets_dir().join("figures");
        let mut v = Verdict {
            attempted: out.figures.len() as u64,
            counts: out.counts,
            ..Verdict::default()
        };
        for fig in &out.figures {
            let mut problems = fig.problems.clone();
            let path = goldens.join(format!("{}.json", fig.id));
            match std::fs::read_to_string(&path) {
                Ok(golden) if without_meta(&golden) == without_meta(&fig.json) => {}
                Ok(_) => problems.push(format!("differs from {}", path.display())),
                Err(e) => problems.push(format!("no golden {}: {e}", path.display())),
            }
            if !problems.is_empty() {
                v.failures
                    .push(format!("figure {}: {}", fig.id, problems.join("; ")));
            }
        }
        v
    }
}

impl FiguresQuick {
    /// The untraced path: the entry points `learnability run <id> --json`
    /// calls, in its order.
    fn run_as_the_cli_does(&self, exp: &'static dyn Experiment) -> Figure {
        let report = run_experiment_report(exp, &Self::options());
        let json = report.fig.to_json();
        self.emit(exp.id(), &json);
        black_box(render_figure(&report.fig));
        Figure {
            id: exp.id(),
            json,
            problems: report.poisoned,
        }
    }

    /// The traced path: the same work through the public steps
    /// `run_experiment_report` is made of, one span per step and one
    /// `execute_sweep` call per sweep point.
    fn run_decomposed(
        &self,
        exp: &'static dyn Experiment,
        counts: &mut Counts,
        t: &mut Tracer,
    ) -> Figure {
        let points = t.span("core.experiments.sweep", |_| exp.sweep(Fidelity::Quick));
        let mut outcomes = Vec::with_capacity(points.len());
        for point in points {
            outcomes.extend(t.span("core.runner.execute", |_| execute_sweep(vec![point], 1)));
        }
        let mut problems = Vec::new();
        for p in &outcomes {
            for (seed, msg) in &p.poisoned {
                problems.push(format!("cell '{}' seed {seed} poisoned: {msg}", p.key()));
            }
            for run in &p.runs {
                counts.add_run(run);
                if run.truncated {
                    problems.push(format!("cell '{}' truncated", p.key()));
                }
            }
        }
        let fig = t.span("core.experiments.summarize", |_| {
            exp.summarize(Fidelity::Quick, &outcomes)
        });
        let json = t.span("core.report.to_json", |_| fig.to_json());
        self.emit(exp.id(), &json);
        t.span("core.report.render", |_| black_box(render_figure(&fig)));
        Figure {
            id: exp.id(),
            json,
            problems,
        }
    }
}
