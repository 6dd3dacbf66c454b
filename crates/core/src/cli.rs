//! The `learnability` command-line interface.
//!
//! One binary drives the whole evaluation section:
//!
//! ```sh
//! learnability list                 # every experiment and its assets
//! learnability run calibration      # run one experiment (quick fidelity)
//! learnability run all --fidelity full --seeds 8 --json out/
//! learnability train link_speed --force   # retrain an experiment's protocols
//! learnability assets verify        # collapse-check every protocol asset
//! ```
//!
//! `run` executes the experiment's sweep on the shared work-stealing
//! engine (all cores by default; results are bit-identical for any
//! `--threads` value), prints the rendered tables, and emits one
//! [`FigureData`](crate::report::FigureData) JSON artifact per experiment
//! under `assets/figures/` (or `--json DIR`).

use crate::experiments::{self, scaffold, Experiment, Fidelity, RunOptions};
use crate::report::{render_figure, TableData};
use crate::runner::execute_sweep;
use crate::search::{collapse_probes, judge_collapse, Finding, COLLAPSE_CELLS};
use protocols::{MemoryPoint, Scheme, NUM_SIGNALS};
use remy::TrainedProtocol;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "\
usage: learnability <command> [options]

commands:
  list                          list every experiment
  run <ids|all> [options]       run experiment(s), print tables, emit JSON
                                (<ids> may be comma-separated: run rtt,aqm)
  train <ids|all> [--force]     train missing protocol assets
                                (--force discards cached assets first)
  replay [figure.json]          re-measure every worst-case certificate in
                                an adversarial figure on both scheduler
                                backends; fails unless each score
                                reproduces bit-identically
                                (default: assets/figures/adversarial.json)
  assets list                   every protocol asset with its whisker count
                                and score (exits 1 if one cannot be read)
  assets show NAME              one asset's training model and whisker tree
  assets probe NAME REC SLOW SEND RTTR
                                the action NAME takes at that memory point
  assets verify                 run every asset on the five collapse
                                probes (2 seeds each, all cores) and
                                flag retransmission collapse, starvation
                                and runaway queues (exits 1 if any is)

run options:
  --fidelity quick|full         compute budget (default: quick)
  --seeds N                     override seeds per sweep cell (trace cells
                                keep their pinned seeds)
  --threads N                   sweep worker threads (default: all cores;
                                results are identical for any value)
  --json DIR                    write FigureData JSON here
                                (default: assets/figures/)
  --no-json                     skip the JSON artifacts

every command also takes:
  --assets DIR                  use DIR, not the checkout's assets/, for
                                protocol assets and figure JSON (DIR/figures/)
";

/// Entry point for the `learnability` binary.
pub fn main() -> ! {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    std::process::exit(run(&refs))
}

/// Run the CLI on pre-parsed arguments; returns the process exit code.
pub fn run(args: &[&str]) -> i32 {
    let (args, assets) = match take_assets_dir(args) {
        Ok(split) => split,
        Err(e) => return usage_error(&e),
    };
    if assets.is_some() {
        remy::serialize::set_assets_dir(assets);
    }
    match args.first() {
        Some(&"list") => {
            print!("{}", list_table());
            0
        }
        Some(&"run") => match parse_run(&args[1..]) {
            Ok((exps, opts, json_dir)) => cmd_run(&exps, &opts, json_dir.as_deref()),
            Err(e) => usage_error(&e),
        },
        Some(&"train") => match parse_train(&args[1..]) {
            Ok((exps, force)) => cmd_train(&exps, force),
            Err(e) => usage_error(&e),
        },
        Some(&"assets") => cmd_assets(&args[1..]),
        Some(&"replay") => match args.get(2) {
            Some(extra) => usage_error(&format!("unexpected replay argument '{extra}'")),
            None => {
                let path = args
                    .get(1)
                    .map(PathBuf::from)
                    .unwrap_or_else(|| default_json_dir().join("adversarial.json"));
                cmd_replay(&path)
            }
        },
        Some(&"--help") | Some(&"-h") | Some(&"help") => {
            print!("{USAGE}");
            0
        }
        Some(cmd) => usage_error(&format!("unknown command '{cmd}'")),
        None => {
            eprint!("{USAGE}");
            2
        }
    }
}

/// Report a usage error; returns its exit code.
fn usage_error(e: &str) -> i32 {
    eprintln!("error: {e}\n\n{USAGE}");
    2
}

/// Split `--assets DIR` out of the arguments: the rest, in order, and
/// the directory, if one was named.
fn take_assets_dir<'a>(args: &[&'a str]) -> Result<(Vec<&'a str>, Option<PathBuf>), String> {
    let mut rest = args.to_vec();
    let Some(i) = rest.iter().position(|&a| a == "--assets") else {
        return Ok((rest, None));
    };
    let dir = PathBuf::from(rest.get(i + 1).ok_or("--assets needs a directory")?);
    rest.drain(i..i + 2);
    Ok((rest, Some(dir)))
}

/// The `learnability list` table.
pub fn list_table() -> String {
    let mut t = TableData::new(
        "learnability experiments",
        &["id", "paper artifact", "scheme families", "protocol assets"],
    );
    for e in experiments::registry() {
        let roster = e.roster();
        t.row(vec![
            e.id().to_string(),
            e.paper_artifact().to_string(),
            scaffold::families(&roster).join(", "),
            scaffold::assets(&roster).join(", "),
        ]);
    }
    t.to_string()
}

/// Resolve an experiment selector: a single id, `all`, or a
/// comma-separated list (`rtt,aqm,churn`). Duplicates are dropped while
/// preserving first-mention order; `all` inside a list expands in place.
fn select(id: Option<&str>) -> Result<Vec<&'static dyn Experiment>, String> {
    let Some(spec) = id else {
        return Err("missing experiment id(s) (or 'all')".into());
    };
    let mut exps: Vec<&'static dyn Experiment> = Vec::new();
    let mut push = |e: &'static dyn Experiment| {
        if !exps.iter().any(|have| have.id() == e.id()) {
            exps.push(e);
        }
    };
    for id in spec.split(',') {
        let id = id.trim();
        if id == "all" {
            experiments::registry().iter().copied().for_each(&mut push);
        } else if let Some(e) = experiments::find(id) {
            push(e);
        } else {
            let known: Vec<&str> = experiments::registry().iter().map(|e| e.id()).collect();
            return Err(format!(
                "unknown experiment '{id}' (known: {}, all)",
                known.join(", ")
            ));
        }
    }
    if exps.is_empty() {
        return Err("empty experiment list".into());
    }
    Ok(exps)
}

type RunArgs = (Vec<&'static dyn Experiment>, RunOptions, Option<PathBuf>);

fn parse_run(args: &[&str]) -> Result<RunArgs, String> {
    let exps = select(args.first().copied())?;
    let mut opts = RunOptions::new(Fidelity::Quick);
    let mut json_dir = Some(default_json_dir());
    let mut it = args[1..].iter();
    while let Some(&flag) = it.next() {
        let mut value = || {
            it.next()
                .copied()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--fidelity" => opts.fidelity = value()?.parse()?,
            "--seeds" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|_| "--seeds needs an integer".to_string())?;
                if n == 0 {
                    return Err("--seeds must be at least 1".into());
                }
                opts.seeds = Some(n);
            }
            "--threads" => {
                opts.threads = value()?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
            }
            "--json" => json_dir = Some(PathBuf::from(value()?)),
            "--no-json" => json_dir = None,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok((exps, opts, json_dir))
}

/// Default JSON artifact directory: `assets/figures/` next to the protocol
/// assets.
pub fn default_json_dir() -> PathBuf {
    remy::serialize::assets_dir().join("figures")
}

/// Run one experiment end to end, printing its tables and writing the
/// JSON artifact. Returns a failure description if the run panicked, any
/// sweep cell was poisoned, or the artifact could not be written — the
/// figure (if any) is still rendered first, so a degraded run leaves its
/// evidence behind.
fn run_one(e: &dyn Experiment, opts: &RunOptions, json_dir: Option<&Path>) -> Result<(), String> {
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        experiments::run_experiment_report(e, opts)
    }))
    .map_err(|payload| format!("panicked: {}", remy::eval::panic_message(payload)))?;
    print!("{}", render_figure(&report.fig));
    if let Some(dir) = json_dir {
        let path = dir.join(format!("{}.json", e.id()));
        write_json(&report.fig, &path)
            .map_err(|err| format!("could not write {}: {err}", path.display()))?;
        eprintln!("[{}] figure data -> {}", e.id(), path.display());
    }
    if !report.poisoned.is_empty() {
        return Err(format!(
            "{} poisoned sweep cell(s): {}",
            report.poisoned.len(),
            report.poisoned.join("; ")
        ));
    }
    Ok(())
}

fn cmd_run(exps: &[&'static dyn Experiment], opts: &RunOptions, json_dir: Option<&Path>) -> i32 {
    let t0 = Instant::now();
    let mut failed: Vec<&str> = Vec::new();
    for e in exps {
        let s = Instant::now();
        match run_one(*e, opts, json_dir) {
            Ok(()) => eprintln!("[{}] done in {:.1}s", e.id(), s.elapsed().as_secs_f64()),
            Err(msg) => {
                eprintln!("error: experiment '{}' failed: {msg}", e.id());
                failed.push(e.id());
            }
        }
    }
    if exps.len() > 1 {
        eprintln!("all experiments in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if failed.is_empty() {
        0
    } else {
        eprintln!(
            "error: {} of {} experiment(s) failed: {}",
            failed.len(),
            exps.len(),
            failed.join(", ")
        );
        1
    }
}

/// `learnability replay`: re-measure every `CERTIFICATE:` entry of an
/// adversarial figure on both scheduler backends and demand bit-identical
/// scores. Returns 0 only if every certificate reproduces.
fn cmd_replay(path: &Path) -> i32 {
    use crate::experiments::adversarial::certificates_from_figure;
    use netsim::event::SchedulerKind;

    let fig = match std::fs::read_to_string(path) {
        Ok(s) => match crate::report::FigureData::from_json(&s) {
            Ok(fig) => fig,
            Err(e) => {
                eprintln!("error: {} is not FigureData JSON: {e}", path.display());
                return 1;
            }
        },
        Err(e) => {
            eprintln!(
                "error: cannot read {} (run `learnability run adversarial` first): {e}",
                path.display()
            );
            return 1;
        }
    };
    let certs = certificates_from_figure(&fig);
    if certs.is_empty() {
        eprintln!(
            "error: no CERTIFICATE entries in {} — nothing to replay",
            path.display()
        );
        return 1;
    }
    let mut failures = 0;
    for cert in &certs {
        if let Err(e) = cert.net.validate() {
            eprintln!("[{}] invalid network: {e}", cert.scheme);
            failures += 1;
            continue;
        }
        if !(cert.duration_s.is_finite() && cert.duration_s > 0.0) || cert.seeds.is_empty() {
            let (d, n) = (cert.duration_s, cert.seeds.len());
            eprintln!(
                "[{}] invalid certificate: duration_s {d} with {n} seeds",
                cert.scheme
            );
            failures += 1;
            continue;
        }
        let scheme = match crate::search::scheme_for_certificate(cert) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[{}] cannot rebuild scheme: {e}", cert.scheme);
                failures += 1;
                continue;
            }
        };
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let replayed = crate::search::replay(cert, &scheme, kind);
            if replayed.to_bits() == cert.score_bits {
                println!(
                    "[{}] {kind:?}: score {replayed:.6} reproduced bit-identically \
                     ({} seeds, {:.0} s)",
                    cert.scheme,
                    cert.seeds.len(),
                    cert.duration_s
                );
            } else {
                eprintln!(
                    "[{}] {kind:?}: MISMATCH — replayed {replayed} ({:#018x}) vs \
                     recorded {} ({:#018x})",
                    cert.scheme,
                    replayed.to_bits(),
                    cert.score,
                    cert.score_bits
                );
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!(
            "{} certificate(s) reproduced on both scheduler backends",
            certs.len()
        );
        0
    } else {
        eprintln!("error: {failures} replay failure(s)");
        1
    }
}

fn write_json(fig: &crate::report::FigureData, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut json = fig.to_json();
    json.push('\n');
    std::fs::write(path, json)
}

fn parse_train(args: &[&str]) -> Result<(Vec<&'static dyn Experiment>, bool), String> {
    let exps = select(args.first().copied())?;
    let mut force = false;
    for &flag in &args[1..] {
        match flag {
            "--force" => force = true,
            other => return Err(format!("unexpected train argument '{other}'")),
        }
    }
    Ok((exps, force))
}

/// The assets `train --force` discards: every asset the experiments'
/// rosters use, with the rest of a co-optimized job's set, each once, in
/// registry order.
fn discard_list(exps: &[&'static dyn Experiment]) -> Result<Vec<String>, String> {
    let rosters: Vec<_> = exps.iter().map(|e| e.roster()).collect();
    let assets: Vec<&str> = rosters.iter().flat_map(|r| scaffold::assets(r)).collect();
    Ok(experiments::jobs_for(&assets)?
        .into_iter()
        .flat_map(|job| job.assets)
        .collect())
}

fn cmd_train(exps: &[&'static dyn Experiment], force: bool) -> i32 {
    let t0 = Instant::now();
    if force {
        // Discard everything first: an asset several experiments share
        // then trains once, for the first of them, and loads for the rest.
        let names = match discard_list(exps) {
            Ok(names) => names,
            Err(err) => {
                eprintln!("error: {err}");
                return 1;
            }
        };
        for name in names {
            let path = remy::serialize::asset_path(&name);
            if std::fs::remove_file(&path).is_ok() {
                eprintln!("[learnability] discarded cached {}", path.display());
            }
        }
    }
    for e in exps {
        let s = Instant::now();
        let jobs = match experiments::jobs_for(&scaffold::assets(&e.roster())) {
            Ok(jobs) => jobs,
            Err(err) => {
                eprintln!("error: experiment '{}': {err}", e.id());
                return 1;
            }
        };
        for mut job in jobs {
            job.cfg.verbose = true;
            let protos = match experiments::run_train_job(&job) {
                Ok(protos) => protos,
                Err(err) => {
                    eprintln!("error: experiment '{}': {err}", e.id());
                    return 1;
                }
            };
            for p in &protos {
                eprintln!(
                    "[{:>7.1}s] {} ready ({} whiskers, score {:.3})",
                    t0.elapsed().as_secs_f64(),
                    p.name,
                    p.tree.num_leaves(),
                    p.score
                );
            }
        }
        eprintln!(
            "[{}] assets ready (+{:.1}s)",
            e.id(),
            s.elapsed().as_secs_f64()
        );
    }
    0
}

/// `learnability assets ...`: inspect and verify the protocol assets.
fn cmd_assets(args: &[&str]) -> i32 {
    match args {
        ["list"] => {
            let unreadable = each_asset(|p| {
                println!(
                    "{:<24} {:>2} whiskers  score {:>8.3}",
                    p.name,
                    p.tree.num_leaves(),
                    p.score
                )
            });
            i32::from(unreadable > 0)
        }
        ["show", name] => load_asset(name).map_or_else(
            |code| code,
            |p| {
                println!("name:  {}", p.name);
                println!("score: {:.4}", p.score);
                println!("model: {}", p.description);
                println!("{}", p.tree);
                0
            },
        ),
        ["probe", name, signals @ ..] => {
            let point: Option<MemoryPoint> = signals
                .iter()
                .map(|s| s.parse().ok().filter(|v: &f64| !v.is_nan()))
                .collect::<Option<Vec<f64>>>()
                .and_then(|v| v.try_into().ok());
            let Some(point @ [rec, slow, send, rttr]) = point else {
                return usage_error(&format!(
                    "probe needs {NUM_SIGNALS} numbers, none of them NaN"
                ));
            };
            load_asset(name).map_or_else(
                |code| code,
                |p| {
                    let action = p.tree.action_for(&point);
                    println!(
                        "memory (rec={rec}, slow={slow}, send={send}, rttr={rttr}) -> {action}"
                    );
                    0
                },
            )
        }
        ["verify"] => {
            let mut schemes = Vec::new();
            let unreadable = each_asset(|p| schemes.push(Scheme::tao(p.tree.clone(), &p.name)));
            // One sweep batch of every asset's probe cells, on all cores.
            let cells = execute_sweep(schemes.iter().flat_map(collapse_probes).collect(), 0);
            let mut flagged = 0;
            for (scheme, cells) in schemes.iter().zip(cells.chunks(COLLAPSE_CELLS)) {
                let findings: Vec<Finding> = cells.iter().flat_map(judge_collapse).collect();
                let (name, n) = (scheme.label(), findings.len());
                if n == 0 {
                    println!("PASS {name:<22} ({COLLAPSE_CELLS} probes)");
                    continue;
                }
                flagged += 1;
                println!("FAIL {name:<22} ({COLLAPSE_CELLS} probes, {n} violations)");
                for v in findings.iter().take(4) {
                    println!("       [{:?}] {} — {}", v.kind, v.probe, v.detail);
                }
            }
            if flagged > 0 {
                println!("\n{flagged} protocol(s) flagged — see above.");
            } else if schemes.is_empty() {
                println!("\nno protocol asset was read: nothing verified.");
            } else if unreadable == 0 {
                println!("\nall protocol assets pass the collapse check.");
            }
            i32::from(flagged + unreadable > 0 || schemes.is_empty())
        }
        _ => usage_error(&format!("unknown assets command '{}'", args.join(" "))),
    }
}

/// Load the asset named `name`; on failure say why and return exit code 1.
fn load_asset(name: &str) -> Result<TrainedProtocol, i32> {
    remy::serialize::load(&remy::serialize::asset_path(name)).map_err(|e| {
        eprintln!("error: cannot load {name}: {e}");
        1
    })
}

/// Hand every `*.json` protocol asset, in file-name order, to `visit`.
/// Returns how many could not be read (each named on stderr); an assets
/// directory that cannot be listed counts as one.
fn each_asset(mut visit: impl FnMut(&TrainedProtocol)) -> usize {
    let dir = remy::serialize::assets_dir();
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            eprintln!("error: cannot list {}: {e}", dir.display());
            return 1;
        }
    };
    if paths.is_empty() {
        println!(
            "no assets in {} — run `learnability train all` first",
            dir.display()
        );
    }
    paths.sort();
    let mut unreadable = 0;
    for path in &paths {
        match remy::serialize::load(path) {
            Ok(p) => visit(&p),
            Err(e) => {
                eprintln!("error: unreadable asset {}: {e}", path.display());
                unreadable += 1;
            }
        }
    }
    unreadable
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `universal`'s own asset and the four specialists it scores against.
    const UNIVERSAL_ASSETS: [&str; 5] = [
        "tao-universal",
        "tao-2x",
        "tao-1000x",
        "tao-rtt-50-250",
        "tao-mux-50",
    ];

    #[test]
    fn list_covers_every_registered_experiment() {
        let out = list_table();
        for e in experiments::registry() {
            assert!(out.contains(e.id()), "list must show {}", e.id());
        }
        assert!(out.contains("tao-calibration"));
        // The asset column is the roster's: specialists included.
        let row = out.lines().find(|l| l.starts_with("| universal ")).unwrap();
        assert!(row.contains(&UNIVERSAL_ASSETS.join(", ")), "{row}");
    }

    #[test]
    fn run_arg_parsing() {
        let (exps, opts, json) = parse_run(&[
            "all",
            "--fidelity",
            "full",
            "--seeds",
            "5",
            "--threads",
            "2",
        ])
        .unwrap();
        assert_eq!(exps.len(), experiments::registry().len());
        assert_eq!(opts.fidelity, Fidelity::Full);
        assert_eq!(opts.seeds, Some(5));
        assert_eq!(opts.threads, 2);
        assert!(json.is_some(), "json emission is on by default");

        let (exps, _, json) = parse_run(&["calibration", "--no-json"]).unwrap();
        assert_eq!(exps[0].id(), "calibration");
        assert!(json.is_none());

        let (_, _, json) = parse_run(&["rtt", "--json", "/tmp/figs"]).unwrap();
        assert_eq!(json.unwrap(), PathBuf::from("/tmp/figs"));

        assert!(parse_run(&[]).is_err(), "id required");
        assert!(parse_run(&["bogus"]).is_err(), "unknown id rejected");
        assert!(parse_run(&["rtt", "--seeds", "0"]).is_err());
        assert!(parse_run(&["rtt", "--wat"]).is_err());
        assert!(parse_run(&["rtt", "--fidelity"]).is_err(), "missing value");
    }

    #[test]
    fn select_accepts_comma_separated_lists() {
        let ids = |spec| {
            select(Some(spec))
                .unwrap()
                .iter()
                .map(|e| e.id())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids("rtt,aqm,churn"), vec!["rtt", "aqm", "churn"]);
        // Duplicates collapse, first mention wins the ordering.
        assert_eq!(ids("aqm,rtt,aqm"), vec!["aqm", "rtt"]);
        // `all` expands in place; ids already mentioned keep their slot.
        assert_eq!(ids("all").len(), experiments::registry().len());
        assert_eq!(ids("rtt,all")[0], "rtt");
        assert_eq!(ids("rtt,all").len(), experiments::registry().len());
        // Whitespace around commas is tolerated.
        assert_eq!(ids("rtt, aqm"), vec!["rtt", "aqm"]);
        let err = select(Some("rtt,bogus")).err().expect("bad id rejected");
        assert!(err.contains("bogus"), "names the bad id: {err}");
        assert!(select(Some("")).is_err(), "empty list rejected");
        assert!(select(Some(",")).is_err());
    }

    #[test]
    fn replay_requires_an_artifact() {
        // Missing file and certificate-free figures both fail loudly.
        assert_eq!(run(&["replay", "/nonexistent/adversarial.json"]), 1);
        assert_eq!(run(&["replay", "x.json", "stray"]), 2);
        let dir = std::env::temp_dir().join("lcc-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.json");
        let fig = crate::report::FigureData::new("adversarial", "test");
        std::fs::write(&empty, fig.to_json()).unwrap();
        assert_eq!(run(&["replay", empty.to_str().unwrap()]), 1);
        std::fs::write(&empty, "not json").unwrap();
        assert_eq!(run(&["replay", empty.to_str().unwrap()]), 1);
    }

    #[test]
    fn replay_reproduces_a_freshly_searched_certificate() {
        // End-to-end CLI check on the cheapest budget: search -> figure
        // JSON on disk -> `learnability replay` exits 0; a tampered
        // score_bits makes it exit 1.
        use crate::search::{find_worst_case, SearchConfig};
        let cfg = SearchConfig {
            population: 1,
            generations: 0,
            survivors: 1,
            children_per_survivor: 1,
            seeds: 0..1,
            duration_s: 2.0,
            seed: 3,
            threads: 0,
            strength: 0.3,
        };
        let cert = find_worst_case(&crate::runner::Scheme::NewReno, None, &cfg)
            .certificate
            .expect("tiny search certifies");
        let mut fig = crate::report::FigureData::new("adversarial", "test");
        fig.notes.push(format!(
            "CERTIFICATE: {}",
            serde_json::to_string(&cert).unwrap()
        ));
        let dir = std::env::temp_dir().join("lcc-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.json");
        std::fs::write(&path, fig.to_json()).unwrap();
        assert_eq!(run(&["replay", path.to_str().unwrap()]), 0);

        let mut bad = cert.clone();
        bad.score_bits ^= 1;
        let mut fig = crate::report::FigureData::new("adversarial", "test");
        fig.notes.push(format!(
            "CERTIFICATE: {}",
            serde_json::to_string(&bad).unwrap()
        ));
        std::fs::write(&path, fig.to_json()).unwrap();
        assert_eq!(run(&["replay", path.to_str().unwrap()]), 1);
    }

    #[test]
    fn replay_rejects_a_certificate_whose_network_is_invalid() {
        // A hand-edited certificate (a negative link rate) fails replay
        // with the validator's message instead of panicking mid-build.
        let golden = std::fs::read_to_string(super::default_json_dir().join("adversarial.json"))
            .expect("the adversarial golden is committed");
        let fig = crate::report::FigureData::from_json(&golden).unwrap();
        let mut cert = crate::experiments::adversarial::certificates_from_figure(&fig).remove(0);
        cert.net.links[0].rate_bps = -1.0;
        let mut fig = crate::report::FigureData::new("adversarial", "test");
        fig.notes.push(format!(
            "CERTIFICATE: {}",
            serde_json::to_string(&cert).unwrap()
        ));
        let dir = std::env::temp_dir().join("lcc-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("invalid-net.json");
        std::fs::write(&path, fig.to_json()).unwrap();
        assert_eq!(run(&["replay", path.to_str().unwrap()]), 1);
    }

    #[test]
    fn replay_rejects_a_certificate_without_duration_or_seeds() {
        // A non-positive duration, or no seeds, fails replay as an
        // invalid certificate instead of panicking in
        // `SimDuration::from_secs_f64` or reading as a `-inf` mismatch.
        let golden = std::fs::read_to_string(super::default_json_dir().join("adversarial.json"))
            .expect("the adversarial golden is committed");
        let fig = crate::report::FigureData::from_json(&golden).unwrap();
        let cert = crate::experiments::adversarial::certificates_from_figure(&fig).remove(0);
        let dir = std::env::temp_dir().join("lcc-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("invalid-cert.json");
        let edits: [fn(&mut crate::search::Certificate); 3] = [
            |c| c.duration_s = -5.0,
            |c| c.duration_s = 0.0,
            |c| c.seeds.clear(),
        ];
        for edit in edits {
            let mut bad = cert.clone();
            edit(&mut bad);
            let mut fig = crate::report::FigureData::new("adversarial", "test");
            fig.notes.push(format!(
                "CERTIFICATE: {}",
                serde_json::to_string(&bad).unwrap()
            ));
            std::fs::write(&path, fig.to_json()).unwrap();
            assert_eq!(run(&["replay", path.to_str().unwrap()]), 1);
        }
    }

    #[test]
    fn run_fails_loudly_naming_the_broken_experiment() {
        // A sweep that panics must fail that experiment's run with a
        // non-zero exit instead of taking the process down — the hardened
        // path users hit when one experiment of `run all` is broken.
        use crate::report::FigureData;
        use crate::runner::{PointOutcome, SweepPoint};
        struct Broken;
        impl Experiment for Broken {
            fn id(&self) -> &'static str {
                "broken_fixture"
            }
            fn paper_artifact(&self) -> &'static str {
                "test fixture"
            }
            fn roster(&self) -> Vec<crate::experiments::scaffold::Contender> {
                Vec::new()
            }
            fn sweep(&self, _fidelity: Fidelity) -> Vec<SweepPoint> {
                panic!("deliberately broken sweep")
            }
            fn summarize(&self, _fidelity: Fidelity, _points: &[PointOutcome]) -> FigureData {
                unreachable!("sweep panics first")
            }
        }
        static BROKEN: Broken = Broken;
        let opts = RunOptions::new(Fidelity::Quick);
        let err = run_one(&BROKEN, &opts, None).expect_err("broken sweep must fail");
        assert!(
            err.contains("deliberately broken sweep"),
            "failure names the cause: {err}"
        );
        assert_eq!(cmd_run(&[&BROKEN], &opts, None), 1, "non-zero exit");
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert_eq!(run(&["frobnicate"]), 2);
        assert_eq!(run(&[]), 2);
    }

    #[test]
    fn train_rejects_stray_options() {
        assert_eq!(run(&["train"]), 2, "id required");
        assert_eq!(run(&["train", "bogus"]), 2, "unknown id");
        assert_eq!(
            run(&["train", "calibration", "--fidelity", "full"]),
            2,
            "train only accepts --force"
        );
        assert_eq!(
            run(&["train", "calibration", "--force", "--wat"]),
            2,
            "trailing junk after --force rejected"
        );
    }

    #[test]
    fn force_discards_each_named_asset_once() {
        // `train all --force` used to discard and retrain tao-calibration
        // once per experiment naming it. The discard list (computing it
        // trains nothing) names every owned asset once.
        let all = select(Some("all")).unwrap();
        let sharing = all
            .iter()
            .filter(|e| scaffold::assets(&e.roster()).contains(&"tao-calibration"))
            .count();
        assert!(sharing > 1, "tao-calibration is shared ({sharing})");
        let names = discard_list(&all).unwrap();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        for job in all.iter().flat_map(|e| e.train_specs()) {
            for name in &job.assets {
                assert!(names.contains(name), "{name} is not discarded");
            }
        }
        assert_eq!(names[0], "tao-calibration", "registry order");
    }

    #[test]
    fn force_discards_what_the_roster_uses() {
        // A borrower discards its owner's asset, and `universal` its
        // specialists beside its own.
        let aqm = experiments::find("aqm").unwrap();
        assert_eq!(discard_list(&[aqm]).unwrap(), ["tao-calibration"]);
        let universal = experiments::find("universal").unwrap();
        let names = discard_list(&[universal]).unwrap();
        for asset in UNIVERSAL_ASSETS {
            assert!(names.iter().any(|n| n == asset), "{asset} in {names:?}");
        }
        assert_eq!(names.len(), UNIVERSAL_ASSETS.len(), "{names:?}");
    }

    #[test]
    fn assets_dir_is_split_out_of_any_position() {
        let (rest, dir) = take_assets_dir(&["assets", "--assets", "/tmp/a", "list"]).unwrap();
        assert_eq!(rest, ["assets", "list"]);
        assert_eq!(dir, Some(PathBuf::from("/tmp/a")));
        let (rest, dir) = take_assets_dir(&["run", "rtt", "--no-json"]).unwrap();
        assert_eq!(rest, ["run", "rtt", "--no-json"]);
        assert_eq!(dir, None);
        assert!(take_assets_dir(&["train", "rtt", "--assets"]).is_err());
        assert_eq!(
            run(&["replay", "--assets"]),
            2,
            "a missing DIR is a usage error"
        );
    }

    #[test]
    fn assets_commands_check_their_arguments() {
        assert_eq!(run(&["assets"]), 2);
        assert_eq!(run(&["assets", "frobnicate"]), 2);
        assert_eq!(run(&["assets", "show"]), 2);
        assert_eq!(run(&["assets", "list", "extra"]), 2);
        assert_eq!(run(&["assets", "probe", "tao-2x", "20", "20", "20"]), 2);
        assert_eq!(
            run(&["assets", "probe", "tao-2x", "20", "20", "20", "x"]),
            2
        );
        assert_eq!(
            run(&["assets", "probe", "tao-2x", "nan", "1", "1", "1"]),
            2,
            "a NaN coordinate is a usage error"
        );
        assert_eq!(run(&["assets", "show", "no-such-asset"]), 1);
        assert_eq!(
            run(&["assets", "probe", "no-such-asset", "1", "1", "1", "1"]),
            1
        );
    }

    #[test]
    fn assets_list_show_and_probe_read_the_committed_assets() {
        assert_eq!(run(&["assets", "list"]), 0, "every asset is readable");
        assert_eq!(run(&["assets", "show", "tao-2x"]), 0);
        assert_eq!(
            run(&["assets", "probe", "tao-2x", "20", "20", "20", "1.0"]),
            0
        );
    }

    #[test]
    fn list_shows_scheme_families() {
        let out = list_table();
        assert!(out.contains("scheme families"));
        for needle in ["pcc", "vegas", "newreno"] {
            assert!(out.contains(needle), "list must mention {needle}");
        }
    }
}
