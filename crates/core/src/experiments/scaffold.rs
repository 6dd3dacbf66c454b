//! The scaffold every experiment module is written on: the three decisions
//! a figure would otherwise re-derive by hand.
//!
//! 1. **The contender roster** — [`Contender`]: a label, where the scheme
//!    comes from (a trained Tao asset or a fixed scheme) and an optional
//!    gateway substitution (`cubic-sfqcodel`). A module's
//!    [`Experiment::roster`] is the single source of its sweep cells, its
//!    series order, its scheme [`families`] and the [`assets`] it uses;
//!    [`lineup`] loads each asset through the job that owns it.
//! 2. **Cell identity and routing** — [`Grid`] expands `(panel, x,
//!    network)` into one [`SweepPoint`] per contender in roster order and
//!    owns the `panel|label` key ([`cell_key`] / [`split_key`]);
//!    [`SeriesSet`] routes a decoded label back to its series, and
//!    [`cell_id`] is how the harness names a cell — `(key, x, seed)` — in
//!    POISONED / TRUNCATED notes.
//! 3. **The standard emitters** — [`TptQd`] (the throughput /
//!    queueing-delay table cells) and [`Norm`] (the omniscient
//!    normalisation behind every "normalized objective").
//!
//! Table-style modules (`tcp_aware`, `diversity`, `signals`,
//! `adversarial`) use the pieces that fit — the roster, [`Grid::mix`],
//! [`lineup`] — and keep their own row logic.

use super::{jobs_for, run_train_job, Experiment, Fidelity};
use crate::omniscient::omniscient;
use crate::report::{FigureData, SeriesData, TableData};
use crate::runner::{
    flow_points, summarize, with_aqm, AqmKind, PointOutcome, Scheme, SummaryStat, SweepPoint,
};
use netsim::flow::FlowOutcome;
use netsim::sim::RunOutcome;
use netsim::topology::NetworkConfig;
use protocols::{CompiledTree, SignalMask};
use remy::Objective;

/// The vocabulary an experiment module is written in.
pub mod prelude {
    pub use super::{
        flow_sum, names_at, sides_table, split_key, Contender, Grid, Norm, SeriesSet, TptQd,
    };
    pub use crate::experiments::{paper_dumbbell, Experiment, Fidelity, TrainJob};
    pub use crate::report::{ChartData, FigureData, TableData};
    pub use crate::runner::{PointOutcome, Scheme, SweepPoint};
    pub use netsim::prelude::*;
}

// ---------------------------------------------------------------------------
// 1. The contender roster.
// ---------------------------------------------------------------------------

/// One contender of an experiment.
#[derive(Clone)]
pub struct Contender {
    /// The cell, series and scheme label.
    pub label: String,
    source: Source,
    /// Run behind this gateway discipline instead of the cell's own
    /// queues (the paper's Cubic-over-sfqCoDel).
    gateway: Option<AqmKind>,
}

#[derive(Clone)]
enum Source {
    /// A trained Tao, loaded (or trained) by asset name when the sweep is
    /// built — describing a roster touches no asset.
    Asset {
        name: String,
        mask: SignalMask,
    },
    Fixed(Scheme),
}

impl Contender {
    /// The Tao trained as `asset`, appearing under `label`.
    pub fn tao(label: impl Into<String>, asset: impl Into<String>) -> Self {
        Contender {
            label: label.into(),
            source: Source::Asset {
                name: asset.into(),
                mask: SignalMask::all(),
            },
            gateway: None,
        }
    }

    /// The Tao trained as `asset`, appearing under its asset name.
    pub fn asset(asset: &str) -> Self {
        Self::tao(asset, asset)
    }

    /// Restrict a Tao contender to the signals of `mask` (§3.4 knockouts).
    pub fn masked(mut self, to: SignalMask) -> Self {
        if let Source::Asset { mask, .. } = &mut self.source {
            *mask = to;
        }
        self
    }

    /// A scheme that needs no training, under its own label.
    pub fn fixed(scheme: Scheme) -> Self {
        Contender {
            label: scheme.label(),
            source: Source::Fixed(scheme),
            gateway: None,
        }
    }

    /// The paper's line-up: the given Taos, then the two human-designed
    /// baselines — Cubic, and Cubic with sfqCoDel substituted at every
    /// gateway.
    pub fn with_cubic_pair(taos: impl IntoIterator<Item = Contender>) -> Vec<Contender> {
        let mut sfq = Self::fixed(Scheme::Cubic);
        sfq.label = "cubic-sfqcodel".into();
        sfq.gateway = Some(AqmKind::SfqCodel);
        taos.into_iter()
            .chain([Self::fixed(Scheme::Cubic), sfq])
            .collect()
    }

    /// The extension experiments' line-up: one Tao, labelled `tao`,
    /// against fixed schemes.
    pub fn tao_vs(asset: &str, fixed: impl IntoIterator<Item = Scheme>) -> Vec<Contender> {
        std::iter::once(Self::tao("tao", asset))
            .chain(fixed.into_iter().map(Self::fixed))
            .collect()
    }

    /// The asset this contender is loaded from (`None` for fixed schemes).
    pub fn asset_name(&self) -> Option<&str> {
        match &self.source {
            Source::Asset { name, .. } => Some(name),
            Source::Fixed(_) => None,
        }
    }
}

/// The distinct scheme families of a roster, in first-appearance order
/// (every trained Tao variant is `tao`).
pub fn families(roster: &[Contender]) -> Vec<&'static str> {
    let mut out = Vec::new();
    for c in roster {
        let family = match &c.source {
            Source::Asset { .. } => "tao",
            Source::Fixed(scheme) => scheme.family(),
        };
        if !out.contains(&family) {
            out.push(family);
        }
    }
    out
}

/// The distinct assets a roster names, in first-appearance order: what
/// the experiment uses. Which job trains each is [`jobs_for`]'s answer.
pub fn assets(roster: &[Contender]) -> Vec<&str> {
    let mut out = Vec::new();
    for name in roster.iter().filter_map(Contender::asset_name) {
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// Resolve an experiment's roster into runnable schemes: every asset it
/// names is loaded (or trained) once, by the job that owns it
/// ([`jobs_for`], one pass over the registry). Asset names are global,
/// like the files: `aqm` loads the `tao-calibration` that `calibration`
/// trains, and `universal` the specialists of `link_speed`, `rtt` and
/// `multiplexing`.
pub fn lineup(exp: &dyn Experiment) -> Vec<(Contender, Scheme)> {
    let fail = |e: String| -> ! { panic!("experiment '{}': {e}", exp.id()) };
    let roster = exp.roster();
    let mut trained: Vec<(String, remy::TrainedProtocol)> = Vec::new();
    for job in jobs_for(&assets(&roster)).unwrap_or_else(|e| fail(e)) {
        let protos = run_train_job(&job).unwrap_or_else(|e| fail(e));
        trained.extend(job.assets.into_iter().zip(protos));
    }
    roster
        .into_iter()
        .map(|c| {
            let scheme = match &c.source {
                Source::Fixed(scheme) => scheme.clone(),
                Source::Asset { name, mask } => {
                    let (_, proto) = trained
                        .iter()
                        .find(|(n, _)| n == name)
                        .expect("a train job yields every asset it names");
                    Scheme::Tao {
                        tree: CompiledTree::compile_shared(&proto.tree),
                        mask: *mask,
                        label: c.label.as_str().into(),
                    }
                }
            };
            (c, scheme)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// 2. Cell identity and routing.
// ---------------------------------------------------------------------------

/// The routing key of a cell: `panel|label`, or the bare label on a
/// single-panel sweep (`panel == ""`).
pub fn cell_key(panel: &str, label: &str) -> String {
    assert!(
        !label.contains('|'),
        "label '{label}' contains the key separator"
    );
    if panel.is_empty() {
        label.to_string()
    } else {
        format!("{panel}|{label}")
    }
}

/// Inverse of [`cell_key`]: `(panel, label)`.
pub fn split_key(key: &str) -> (&str, &str) {
    key.rsplit_once('|').unwrap_or(("", key))
}

/// How a cell is named in POISONED / TRUNCATED notes. The key alone is
/// shared by every x of a sweep, so identity is `(key, x, seed)`.
pub fn cell_id(key: &str, x: f64, seed: u64) -> String {
    format!("cell '{key}' x={x} seed {seed}")
}

/// Builds an experiment's sweep: the loaded roster, the fidelity's seeds
/// and run length, and the points emitted so far. Cells come out in call
/// order and, within one call to [`Grid::cells`], in roster order — the
/// order table rows and goldens depend on.
pub struct Grid {
    exp: &'static str,
    lineup: Vec<(Contender, Scheme)>,
    seeds: std::ops::Range<u64>,
    /// Simulated seconds of the cells emitted from here on.
    pub duration_s: f64,
    points: Vec<SweepPoint>,
}

impl Grid {
    /// A grid over `exp`'s loaded roster at `fidelity`'s seeds and run
    /// length.
    pub fn new(exp: &dyn Experiment, fidelity: Fidelity) -> Self {
        Grid {
            exp: exp.id(),
            lineup: lineup(exp),
            seeds: fidelity.seeds(),
            duration_s: fidelity.test_duration_s(),
            points: Vec::new(),
        }
    }

    /// The roster's labels, in order.
    pub fn labels(&self) -> Vec<String> {
        self.lineup.iter().map(|(c, _)| c.label.clone()).collect()
    }

    fn find(&self, label: &str) -> &(Contender, Scheme) {
        self.lineup
            .iter()
            .find(|(c, _)| c.label == label)
            .unwrap_or_else(|| panic!("{}", unknown_label(self.exp, label, &self.labels())))
    }

    /// The loaded scheme of one contender (for hand-built mixes).
    pub fn scheme(&self, label: &str) -> Scheme {
        self.find(label).1.clone()
    }

    /// One cell with an explicit per-flow scheme mix; the returned point
    /// can be adjusted further (pinned seeds, tracing).
    pub fn mix(
        &mut self,
        panel: &str,
        label: &str,
        x: f64,
        net: NetworkConfig,
        schemes: Vec<Scheme>,
    ) -> &mut SweepPoint {
        self.points.push(SweepPoint::mix(
            cell_key(panel, label),
            x,
            net,
            schemes,
            self.seeds.clone(),
            self.duration_s,
        ));
        self.points.last_mut().expect("just pushed")
    }

    /// One cell running contender `label` on every flow of `net` (behind
    /// the contender's gateway substitution, if it has one).
    pub fn cell(&mut self, panel: &str, x: f64, net: &NetworkConfig, label: &str) {
        let (contender, scheme) = self.find(label);
        let net = match contender.gateway {
            Some(kind) => with_aqm(net, kind),
            None => net.clone(),
        };
        let schemes = vec![scheme.clone(); net.flows.len()];
        self.mix(panel, label, x, net, schemes);
    }

    /// One [`Grid::cell`] per contender, in roster order.
    pub fn cells(&mut self, panel: &str, x: f64, net: &NetworkConfig) {
        for label in self.labels() {
            self.cell(panel, x, net, &label);
        }
    }

    pub fn into_points(self) -> Vec<SweepPoint> {
        self.points
    }
}

fn unknown_label(exp: &str, label: &str, known: &[String]) -> String {
    format!(
        "experiment '{exp}': cell label '{label}' is not in its roster ({})",
        known.join(", ")
    )
}

/// `label@panel` series names for every panel × roster label, panel-major
/// (the legend order of the multi-panel extension charts).
pub fn names_at(panels: &[impl std::fmt::Display], roster: &[Contender]) -> Vec<String> {
    panels
        .iter()
        .flat_map(|p| roster.iter().map(move |c| format!("{}@{p}", c.label)))
        .collect()
}

/// An ordered set of series keyed by name — what `summarize` routes
/// decoded cell labels into.
pub struct SeriesSet {
    exp: &'static str,
    series: Vec<SeriesData>,
}

impl SeriesSet {
    /// One empty series per name, in the given (legend) order.
    pub fn new(exp: &'static str, names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        SeriesSet {
            exp,
            series: names.into_iter().map(SeriesData::new).collect(),
        }
    }

    /// The series of a roster, one per label.
    pub fn of(exp: &dyn Experiment) -> Self {
        Self::new(exp.id(), exp.roster().into_iter().map(|c| c.label))
    }

    /// Append `(x, y)` to the named series.
    ///
    /// # Panics
    /// If no series has that name — with a message naming the experiment.
    pub fn push(&mut self, name: &str, x: f64, y: f64) {
        match self.series.iter_mut().find(|s| s.name == name) {
            Some(s) => s.push(x, y),
            None => {
                let known: Vec<String> = self.series.iter().map(|s| s.name.clone()).collect();
                panic!("{}", unknown_label(self.exp, name, &known))
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<&SeriesData> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The series in legend order (what `ChartData::from_series` takes).
    pub fn all(&self) -> &[SeriesData] {
        &self.series
    }
}

// ---------------------------------------------------------------------------
// 3. The standard emitters.
// ---------------------------------------------------------------------------

/// Per-flow throughput (Mbps) and queueing delay (ms) statistics of a
/// cell — the two columns nearly every table carries.
pub struct TptQd {
    pub tpt: SummaryStat,
    pub qd: SummaryStat,
}

impl TptQd {
    /// From `(throughputs, queueing delays)` as `flow_points` returns them.
    pub fn of((tpt, qd): (Vec<f64>, Vec<f64>)) -> Self {
        TptQd {
            tpt: summarize(&tpt),
            qd: summarize(&qd),
        }
    }

    /// Over every flow of `runs` that turned on.
    pub fn all(runs: &[RunOutcome]) -> Self {
        Self::of(flow_points(runs, |_| true))
    }

    /// The `median (±std)` table cells: `[throughput, queueing delay]`.
    pub fn cells(&self) -> [String; 2] {
        let cell = |s: &SummaryStat, unit| format!("{:.2}{unit} (±{:.2})", s.median, s.std);
        [cell(&self.tpt, " Mbps"), cell(&self.qd, " ms")]
    }
}

/// Emit a mixed-population table into `fig`: for each cell of `panel`,
/// in sweep order, one row per distinct scheme label among its flows —
/// `[cell label, side, throughput, queueing delay]`. Returns the rows'
/// `(cell label, side, statistics)` for headline lookups.
pub fn sides_table<'a>(
    fig: &mut FigureData,
    title: &str,
    headers: &[&str; 4],
    points: &'a [PointOutcome],
    panel: &str,
) -> Vec<(&'a str, String, TptQd)> {
    let mut t = TableData::new(title, headers);
    let mut rows = Vec::new();
    for p in points.iter().filter(|p| split_key(p.key()).0 == panel) {
        let label = split_key(p.key()).1;
        for side in p.unique_labels() {
            let stats = TptQd::of(p.flow_points_labeled(&side));
            let [tpt, qd] = stats.cells();
            t.row(vec![label.to_string(), side.clone(), tpt, qd]);
            rows.push((label, side, stats));
        }
    }
    fig.tables.push(t);
    rows
}

/// A per-flow counter (`|f| f.timeouts`, `|f| f.drops.fault`, …) summed
/// over every flow of every run of a cell.
pub fn flow_sum(runs: &[RunOutcome], counter: impl Fn(&FlowOutcome) -> u64) -> u64 {
    runs.iter().flat_map(|r| &r.flows).map(counter).sum()
}

/// The omniscient operating point a cell is normalised against: flow 0's
/// expected fair throughput and its propagation-only delay.
#[derive(Clone, Copy, Debug)]
pub struct Norm {
    pub fair_tpt_bps: f64,
    pub base_delay_s: f64,
}

impl Norm {
    /// The omniscient protocol's operating point on `net`.
    pub fn omniscient(net: &NetworkConfig) -> Self {
        let omn = omniscient(net);
        Norm {
            fair_tpt_bps: omn[0].throughput_bps,
            base_delay_s: omn[0].delay_s,
        }
    }

    /// Mean of `log2(tpt/fair) − log2(delay/base)` over the flows of `runs`
    /// that turned on (omniscient = 0; a flow that delivered nothing is
    /// charged the base delay); −∞ when none did.
    pub fn objective(&self, runs: &[RunOutcome]) -> f64 {
        let (obj, fair, base) = (Objective::new(1.0), self.fair_tpt_bps, self.base_delay_s);
        let vals: Vec<f64> = (runs.iter().flat_map(|run| &run.flows))
            .filter(|f| f.on_time_s > 0.0)
            .map(|f| {
                let delay = match f.packets_delivered {
                    0 => base,
                    _ => f.avg_delay_s,
                };
                obj.utility(f.throughput_bps, delay) - obj.utility(fair, base)
            })
            .collect();
        if vals.is_empty() {
            f64::NEG_INFINITY
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use netsim::queue::QueueSpec;

    /// A roster of fixed schemes only, so nothing here touches an asset.
    struct Fixture;

    impl Experiment for Fixture {
        fn id(&self) -> &'static str {
            "fixture"
        }
        fn paper_artifact(&self) -> &'static str {
            "scaffold test fixture"
        }
        fn roster(&self) -> Vec<Contender> {
            Contender::with_cubic_pair([Contender::fixed(Scheme::Vegas)])
        }
        fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
            let mut grid = Grid::new(self, fidelity);
            for panel in ["left", "right"] {
                for x in [1.0, 2.0] {
                    grid.cells(panel, x, &net());
                }
            }
            grid.into_points()
        }
        fn summarize(&self, _: Fidelity, _: &[PointOutcome]) -> FigureData {
            FigureData::new(self.id(), self.paper_artifact())
        }
    }

    fn net() -> NetworkConfig {
        paper_dumbbell(2, 10e6, 0.100, WorkloadSpec::AlwaysOn)
    }

    #[test]
    fn cells_come_out_panel_major_then_x_then_roster_order() {
        let points = Fixture.sweep(Fidelity::Quick);
        let got: Vec<(&str, f64)> = points.iter().map(|p| (p.key.as_str(), p.x)).collect();
        let mut want = Vec::new();
        for panel in ["left", "right"] {
            for x in [1.0, 2.0] {
                for label in ["vegas", "cubic", "cubic-sfqcodel"] {
                    want.push((format!("{panel}|{label}"), x));
                }
            }
        }
        let want: Vec<(&str, f64)> = want.iter().map(|(k, x)| (k.as_str(), *x)).collect();
        assert_eq!(got, want);
        // The fidelity preamble is applied once, by the grid.
        assert!(points.iter().all(|p| p.seeds == Fidelity::Quick.seeds()));
        assert!(points
            .iter()
            .all(|p| p.duration_s == Fidelity::Quick.test_duration_s()));
    }

    #[test]
    fn gateway_substitution_only_touches_its_contender() {
        let points = Fixture.sweep(Fidelity::Quick);
        for p in &points {
            let sfq = matches!(p.net.links[0].queue, QueueSpec::SfqCodel { .. });
            assert_eq!(sfq, split_key(&p.key).1 == "cubic-sfqcodel", "{}", p.key);
            assert_eq!(p.schemes.len(), p.net.flows.len());
        }
        assert_eq!(families(&Fixture.roster()), vec!["vegas", "cubic"]);
    }

    #[test]
    fn keys_round_trip() {
        for (panel, label) in [
            ("", "tao"),
            ("buffer 5x BDP", "tao-mux-2"),
            ("a|b|c", "cubic-sfqcodel"),
        ] {
            assert_eq!(split_key(&cell_key(panel, label)), (panel, label));
        }
        assert_eq!(cell_key("", "tao"), "tao", "single-panel keys stay bare");
        // Identity in notes is (key, x, seed): the key repeats along x.
        assert_eq!(
            cell_id("incast|pcc", 1000.0, 2),
            "cell 'incast|pcc' x=1000 seed 2"
        );
    }

    #[test]
    #[should_panic(expected = "label 'a|b' contains the key separator")]
    fn a_label_may_not_contain_the_separator() {
        cell_key("panel", "a|b");
    }

    #[test]
    #[should_panic(expected = "experiment 'fixture': cell label 'reno' is not in its roster")]
    fn routing_an_unknown_label_names_the_experiment() {
        let mut series = SeriesSet::of(&Fixture);
        series.push("vegas", 1.0, 0.5);
        let vegas = &series.get("vegas").unwrap().points;
        assert_eq!((vegas.len(), vegas[0].x, vegas[0].y), (1, 1.0, 0.5));
        series.push("reno", 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "experiment 'fixture': cell label 'tao' is not in its roster")]
    fn sweeping_an_unknown_label_names_the_experiment() {
        Grid::new(&Fixture, Fidelity::Quick).cell("", 0.0, &net(), "tao");
    }

    #[test]
    fn series_keep_legend_order_and_panel_names() {
        let names = names_at(&["p", "q"], &Fixture.roster());
        assert_eq!(
            names,
            [
                "vegas@p",
                "cubic@p",
                "cubic-sfqcodel@p",
                "vegas@q",
                "cubic@q",
                "cubic-sfqcodel@q"
            ]
        );
        let set = SeriesSet::new("fixture", names.clone());
        let legend: Vec<&str> = set.all().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(legend, names);
    }

    #[test]
    fn normalized_objective_zero_at_ideal() {
        let f = FlowOutcome {
            flow: 0,
            throughput_bps: 5e6,
            avg_delay_s: 0.075,
            avg_queueing_delay_s: 0.0,
            min_one_way_s: 0.075,
            bytes_delivered: 1,
            packets_delivered: 1,
            on_time_s: 1.0,
            drops: netsim::flow::DropStats::default(),
            timeouts: 0,
            losses: 0,
            transmissions: 0,
            retransmissions: 0,
        };
        let norm = Norm {
            fair_tpt_bps: 5e6,
            base_delay_s: 0.075,
        };
        let mut run = crate::runner::run_homogeneous(&net(), &Scheme::Cubic, 0, 0.1);
        run.flows = vec![f.clone()];
        assert!(norm.objective(std::slice::from_ref(&run)).abs() < 1e-12);
        // Half the fair throughput at twice the base delay scores −2.
        let slow = FlowOutcome {
            throughput_bps: 2.5e6,
            avg_delay_s: 0.150,
            ..f.clone()
        };
        let mut worse = run.clone();
        worse.flows = vec![slow];
        assert!((norm.objective(&[worse]) + 2.0).abs() < 1e-12);
        // A flow that never turned on is left out of the mean.
        run.flows.push(FlowOutcome {
            on_time_s: 0.0,
            throughput_bps: 0.0,
            ..f
        });
        assert!(norm.objective(std::slice::from_ref(&run)).abs() < 1e-12);
        run.flows.remove(0);
        assert_eq!(norm.objective(&[run]), f64::NEG_INFINITY);
    }
}
