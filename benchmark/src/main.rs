//! Command line of the benchmark. `run.sh` builds this and passes its
//! arguments through:
//!
//! * `--workload W --seed N --seconds S --trace 0|1 [--scale tiny]` —
//!   one run of one workload; the last line printed is its result.
//! * `--all [--runs N] [--seconds S] [--scale tiny] [--out FILE]` —
//!   every workload, each run in a child process; prints every metric
//!   and writes the results file (default `benchmark/out/results.json`).
//! * `--compare A.json B.json` — apply each metric's bound to two
//!   results files, parent first.
//! * `--manifest` — print `BENCHMARK.json` from the metric tables.

use lcc_benchmark::drive::{measure, measure_traced};
use lcc_benchmark::figures_quick::FiguresQuick;
use lcc_benchmark::metrics::{self, FIG, SCALE, TRAIN, ZOO};
use lcc_benchmark::path_zoo::PathZoo;
use lcc_benchmark::report::{end_to_end_values, layer_values, result_line};
use lcc_benchmark::scale_10k::Scale10k;
use lcc_benchmark::suite::{self, Options};
use lcc_benchmark::train_calibration::TrainCalibration;
use lcc_benchmark::workload::{require_assets, Scale, Workload};
use lcc_benchmark::{probes, sys};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where the benchmark writes: traces, emitted figures, results.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The value following `flag`, if the flag is present.
fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {flag}")),
    }
}

/// One run of one workload; prints the result line. `Ok(false)` when an
/// operation failed its check.
fn run_one<W: Workload>(w: W, scale: Scale, seconds: f64, traced: bool) -> Result<bool, String> {
    w.preflight()?;
    let (verdict, values) = if traced {
        require_assets([probes::TAO_ASSET])?;
        let t = measure_traced(&w);
        let trace_file = out_dir().join(format!("trace-{}.json", w.name()));
        std::fs::write(&trace_file, t.tracer.to_json(w.name()))
            .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
        let values = layer_values(&t, probes::run_all(scale));
        (t.verdict, values)
    } else {
        let m = measure(&w, seconds);
        let values = end_to_end_values(&m, sys::peak_rss_mb()?);
        (m.verdict, values)
    };
    for failure in &verdict.failures {
        eprintln!("[benchmark] FAILED {failure}");
    }
    println!("{}", result_line(&verdict, &values, traced));
    Ok(verdict.failures.is_empty())
}

fn run(args: &[String]) -> Result<bool, String> {
    let scale = match value_of(args, "--scale") {
        None => Scale::Full,
        Some(name) => [Scale::Full, Scale::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or(format!("unknown scale '{name}' (full|tiny)"))?,
    };
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    if args.iter().any(|a| a == "--manifest") {
        print!("{}", metrics::manifest());
        return Ok(true);
    }
    if let Some(at) = args.iter().position(|a| a == "--compare") {
        return match (args.get(at + 1), args.get(at + 2)) {
            (Some(a), Some(b)) => suite::compare(a, b),
            _ => Err("--compare takes two results files, parent first".into()),
        };
    }
    if args.iter().any(|a| a == "--all") {
        let opts = Options {
            runs: parsed(args, "--runs", 5)?,
            seconds: parsed(args, "--seconds", metrics::RUN_SECONDS)?,
            scale,
        };
        let results = value_of(args, "--out").map_or(out.join("results.json"), PathBuf::from);
        return suite::run_all(&opts, &results);
    }

    let workload = value_of(args, "--workload")
        .ok_or("usage: --workload W --seed N --seconds S --trace 0|1 | --all | --compare A B")?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?;
    let traced = match value_of(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad value '{other}' for --trace (0|1)")),
    };
    match workload {
        FIG => run_one(
            FiguresQuick::new(scale, out.join("figures")),
            scale,
            seconds,
            traced,
        ),
        SCALE => run_one(Scale10k::new(seed, scale), scale, seconds, traced),
        TRAIN => run_one(TrainCalibration::new(scale), scale, seconds, traced),
        ZOO => run_one(PathZoo::new(seed, scale), scale, seconds, traced),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() -> ExitCode {
    // The measured crates read these; a run must not depend on who
    // started it. Nothing else has started yet, so no thread can be
    // reading the environment.
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy().into_owned();
        if key == "REMY_ASSETS_DIR"
            || key.starts_with("LEARNABILITY_")
            || key.starts_with("NETSIM_")
        {
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("[benchmark] error: {msg}");
            ExitCode::from(2)
        }
    }
}
