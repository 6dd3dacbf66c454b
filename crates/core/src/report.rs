//! Structured experiment results and their human-readable rendering.
//!
//! Every experiment's [`summarize`](crate::experiments::Experiment::summarize)
//! produces a [`FigureData`] — a serde-serializable description of the
//! figure/table the paper reports. The JSON artifacts emitted by
//! `learnability run … --json` (under `assets/figures/`) are exactly these
//! structures, and the tables printed to stdout are rendered *from* them by
//! [`render_figure`], so the machine-readable and human-readable outputs can
//! never drift apart.
//!
//! # The `FigureData` schema (version [`FIGURE_SCHEMA_VERSION`])
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `schema_version` | u32 | bumped on any breaking schema change |
//! | `id` | string | experiment id (the `learnability run <id>` key) |
//! | `paper_artifact` | string | which paper figure/table this reproduces |
//! | `charts` | [`ChartData`]\[\] | plotted series groups (one per figure panel) |
//! | `tables` | [`TableData`]\[\] | row/column tables (one per paper table) |
//! | `summary` | [`SummaryItem`]\[\] | headline scalars (ratios, gaps, penalties) |
//! | `notes` | string\[\] | prose findings, printed after the data |
//! | `meta` | [`RunMeta`] | provenance: fidelity, seed set, git describe |
//!
//! A [`ChartData`] holds named [`SeriesData`] whose [`PointData`] carry an
//! `x`, a `y` and an optional 1-σ error `err` (the ellipses of Figs 1, 7
//! and 9). A [`TableData`] is a title, headers and string rows. A
//! [`SummaryItem`] is a stable machine-readable key plus an f64 — the
//! numbers CI diffs across commits without parsing prose.
//!
//! [`SeriesData`] is the one series type: `summarize` builds it
//! ([`SeriesData::push`]) and reads it back ([`SeriesData::value_at`],
//! [`SeriesData::mean_in`]), the artifact stores it, and the report prints
//! it through [`ChartData`]'s `Display`, as [`TableData`]'s prints a table.
//!
//! A `threads` field in [`RunMeta`] is deliberately absent: results are
//! bit-identical for any worker count, so thread count is not provenance.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Version of the [`FigureData`] JSON schema. Bump on breaking changes and
/// regenerate `crates/core/tests/golden/figure_schema.json`.
pub const FIGURE_SCHEMA_VERSION: u32 = 1;

/// `log2(x)` convenience used across figure code.
pub fn log2(x: f64) -> f64 {
    x.max(1e-12).log2()
}

// ---------------------------------------------------------------------------
// The serializable result schema.
// ---------------------------------------------------------------------------

/// One (x, y) sample of a plotted series, with an optional 1-σ error bar.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PointData {
    pub x: f64,
    pub y: f64,
    pub err: Option<f64>,
}

/// A named series of [`PointData`] (one scheme on one panel): what a
/// figure's `summarize` builds and what the artifact stores.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesData {
    pub name: String,
    pub points: Vec<PointData>,
}

impl SeriesData {
    pub fn new(name: impl Into<String>) -> Self {
        SeriesData {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append `(x, y)` without an error bar.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(PointData { x, y, err: None });
    }

    /// Linear interpolation at `x` (clamped to the series range).
    pub fn value_at(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let mut pts: Vec<(f64, f64)> = self.points.iter().map(|p| (p.x, p.y)).collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN x"));
        if x <= pts[0].0 {
            return Some(pts[0].1);
        }
        if x >= pts[pts.len() - 1].0 {
            return Some(pts[pts.len() - 1].1);
        }
        for w in pts.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if x >= x0 && x <= x1 {
                let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
                return Some(y0 + t * (y1 - y0));
            }
        }
        None
    }

    /// Mean y over points whose x falls in `[lo, hi]`.
    pub fn mean_in(&self, lo: f64, hi: f64) -> Option<f64> {
        let ys: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.x >= lo && p.x <= hi)
            .map(|p| p.y)
            .collect();
        if ys.is_empty() {
            None
        } else {
            Some(ys.iter().sum::<f64>() / ys.len() as f64)
        }
    }
}

/// One figure panel: a titled group of series over a common x axis. Its
/// `Display` prints the series as aligned columns: x, then one column each.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChartData {
    pub title: String,
    pub x_label: String,
    pub series: Vec<SeriesData>,
}

impl ChartData {
    pub fn from_series(
        title: impl Into<String>,
        x_label: impl Into<String>,
        series: &[SeriesData],
    ) -> Self {
        ChartData {
            title: title.into(),
            x_label: x_label.into(),
            series: series.to_vec(),
        }
    }
}

impl fmt::Display for ChartData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        xs.dedup();
        write!(f, "{:>12}", self.x_label)?;
        for s in &self.series {
            write!(f, " {:>18}", s.name)?;
        }
        writeln!(f)?;
        for x in xs {
            write!(f, "{:>12.3}", x)?;
            for s in &self.series {
                match s.points.iter().find(|p| (p.x - x).abs() < 1e-9) {
                    Some(p) => write!(f, " {:>18.4}", p.y)?,
                    None => write!(f, " {:>18}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A paper table as structured rows; its `Display` is the column-aligned
/// text table the report prints.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TableData {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl TableData {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TableData {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for TableData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::new();
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:<width$}", c, width = w[i]));
            }
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.headers)?;
        let total: usize = w.iter().sum::<usize>() + 3 * w.len() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// A headline scalar with a stable machine-readable key, e.g.
/// `("tao_fraction_of_omniscient", 0.94)`. CI diffs these without parsing
/// prose notes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummaryItem {
    pub key: String,
    pub value: f64,
}

/// Provenance of a figure regeneration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// `"quick"` or `"full"`.
    pub fidelity: String,
    /// The seed set each statistics cell was run over. Illustrative trace
    /// cells (e.g. the Fig 8 time-domain runs) keep their pinned seeds
    /// and are not covered by this set.
    pub seeds: Vec<u64>,
    /// `git describe --always --dirty` of the generating tree, or
    /// `"unknown"` outside a git checkout.
    pub git_describe: String,
}

impl RunMeta {
    pub fn unknown() -> Self {
        RunMeta {
            fidelity: "unknown".into(),
            seeds: Vec::new(),
            git_describe: "unknown".into(),
        }
    }
}

/// The structured result of one experiment run — everything a figure of the
/// paper needs, serialized as a JSON artifact under `assets/figures/`.
/// See the module docs for the field-by-field schema.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FigureData {
    pub schema_version: u32,
    pub id: String,
    pub paper_artifact: String,
    pub charts: Vec<ChartData>,
    pub tables: Vec<TableData>,
    pub summary: Vec<SummaryItem>,
    pub notes: Vec<String>,
    pub meta: RunMeta,
}

impl FigureData {
    /// Empty result for an experiment; `summarize` fills the data fields,
    /// the runner fills `meta`.
    pub fn new(id: impl Into<String>, paper_artifact: impl Into<String>) -> Self {
        FigureData {
            schema_version: FIGURE_SCHEMA_VERSION,
            id: id.into(),
            paper_artifact: paper_artifact.into(),
            charts: Vec::new(),
            tables: Vec::new(),
            summary: Vec::new(),
            notes: Vec::new(),
            meta: RunMeta::unknown(),
        }
    }

    pub fn push_summary(&mut self, key: impl Into<String>, value: f64) {
        self.summary.push(SummaryItem {
            key: key.into(),
            value,
        });
    }

    pub fn summary_value(&self, key: &str) -> Option<f64> {
        self.summary.iter().find(|s| s.key == key).map(|s| s.value)
    }

    pub fn chart_series(&self, chart: usize, name: &str) -> Option<&SeriesData> {
        self.charts
            .get(chart)?
            .series
            .iter()
            .find(|s| s.name == name)
    }

    /// Serialize to the canonical pretty-JSON artifact form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FigureData serializes")
    }

    pub fn from_json(s: &str) -> Result<FigureData, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Render a [`FigureData`] as the human-readable report: tables, then
/// series panels, then notes. This is the *only* path from structured
/// results to stdout — figure text and JSON artifacts cannot diverge.
pub fn render_figure(fig: &FigureData) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for t in &fig.tables {
        write!(out, "{t}").unwrap();
    }
    for c in &fig.charts {
        write!(out, "{c}").unwrap();
    }
    for n in &fig.notes {
        writeln!(out, "{n}").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats_aligned() {
        let mut t = TableData::new("demo", &["scheme", "tpt (Mbps)"]);
        t.row(vec!["cubic".into(), "9.41".into()]);
        t.row(vec!["tao-1000x".into(), "10.02".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| cubic     | 9.41       |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TableData::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn series_interpolation() {
        let mut s = SeriesData::new("t");
        s.push(1.0, 10.0);
        s.push(3.0, 30.0);
        assert_eq!(s.value_at(2.0), Some(20.0));
        assert_eq!(s.value_at(0.0), Some(10.0), "clamped low");
        assert_eq!(s.value_at(9.0), Some(30.0), "clamped high");
        assert_eq!(SeriesData::new("e").value_at(1.0), None);
    }

    #[test]
    fn series_mean_in_window() {
        let mut s = SeriesData::new("t");
        for i in 0..10 {
            s.push(i as f64, (i * 2) as f64);
        }
        assert_eq!(s.mean_in(2.0, 4.0), Some(6.0));
        assert_eq!(s.mean_in(100.0, 200.0), None);
    }

    #[test]
    fn format_series_merges_x_axes() {
        let mut a = SeriesData::new("a");
        a.push(1.0, 0.5);
        let mut b = SeriesData::new("b");
        b.push(2.0, 0.7);
        let out = ChartData::from_series("fig", "x", &[a, b]).to_string();
        assert!(out.contains("fig"));
        // x=1 row has '-' for series b
        let row1: Vec<&str> = out
            .lines()
            .filter(|l| l.trim_start().starts_with("1.000"))
            .collect();
        assert_eq!(row1.len(), 1);
        assert!(row1[0].contains('-'));
    }

    #[test]
    fn log2_is_safe_at_zero() {
        assert!(log2(0.0).is_finite());
        assert_eq!(log2(8.0), 3.0);
    }

    fn sample_figure() -> FigureData {
        let mut fig = FigureData::new("demo", "Fig 0");
        let mut s = SeriesData::new("cubic");
        s.push(1.0, -0.5);
        s.push(10.0, -0.25);
        fig.charts
            .push(ChartData::from_series("demo chart", "Mbps", &[s]));
        fig.tables.push(TableData {
            title: "demo table".into(),
            headers: vec!["scheme".into(), "tpt".into()],
            rows: vec![vec!["cubic".into(), "9.41 Mbps".into()]],
        });
        fig.push_summary("gap", 0.25);
        fig.notes.push("a finding".into());
        fig.meta = RunMeta {
            fidelity: "quick".into(),
            seeds: vec![0, 1, 2],
            git_describe: "v0-test".into(),
        };
        fig
    }

    #[test]
    fn figure_data_roundtrips_through_json() {
        let fig = sample_figure();
        let json = fig.to_json();
        let back = FigureData::from_json(&json).unwrap();
        assert_eq!(fig, back);
    }

    #[test]
    fn render_shows_tables_series_and_notes() {
        let fig = sample_figure();
        let text = render_figure(&fig);
        assert!(text.contains("== demo table =="));
        assert!(text.contains("== demo chart =="));
        assert!(text.contains("cubic"));
        assert!(text.contains("a finding"));
    }

    #[test]
    fn summary_lookup() {
        let fig = sample_figure();
        assert_eq!(fig.summary_value("gap"), Some(0.25));
        assert_eq!(fig.summary_value("absent"), None);
        assert!(fig.chart_series(0, "cubic").is_some());
        assert!(fig.chart_series(0, "nope").is_none());
    }
}
