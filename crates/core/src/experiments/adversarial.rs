//! Extension — adversarial scenario search: instead of asking "how does
//! each scheme do on the scenarios we thought of?", ask the optimizer in
//! reverse: *find the scenario each scheme handles worst*.
//!
//! For every scheme in the study's calibration line-up (the calibration
//! Tao, Cubic, NewReno, Vegas) the [`crate::search`] subsystem minimizes
//! the scheme's omniscient-normalized score over the bounded
//! [`crate::search::adversarial_space`] box — link rate, RTT, buffering,
//! AQM discipline, workload/churn, reverse-path slowdown, and fault
//! processes. The figure's deliverable is one worst-case
//! [`Certificate`] per scheme: the found config, its score gap against
//! the omniscient benchmark, and the exact seeds/duration/normalization
//! needed to reproduce the measurement bit-for-bit (`learnability
//! replay` checks committed certificates on both scheduler backends).
//!
//! The sweep protocol keeps `summarize` a pure function of executed
//! points: `sweep` runs the search and emits one cell per scheme pinned
//! at the found config (the search trail rides in the cell key), and
//! `summarize` re-derives the certified score from that cell's actual
//! runs — so `--seeds` overrides, poisoned cells, and thread counts all
//! flow through the standard engine paths.

use super::scaffold::{cell_key, lineup, prelude::*};
use crate::experiments::calibration;
use crate::report::SeriesData;
use crate::search::{adversarial_space, describe, find_worst_case, Certificate, SearchConfig};

/// Cell key: the scaffold's `panel|label` with the search trail as the
/// panel — `asset-or-dash|candidates-evaluated|point-csv|scheme`. The
/// point CSV uses `f64`'s shortest-roundtrip `Display`, so parsing it
/// back in `summarize` recovers the exact searched point.
fn encode_key(label: &str, asset: Option<&str>, evaluated: usize, point: &[f64]) -> String {
    let csv: Vec<String> = point.iter().map(|v| v.to_string()).collect();
    let trail = format!("{}|{evaluated}|{}", asset.unwrap_or("-"), csv.join(","));
    cell_key(&trail, label)
}

fn decode_key(key: &str) -> Option<(String, Option<String>, usize, Vec<f64>)> {
    let (trail, label) = split_key(key);
    let mut parts = trail.splitn(3, '|');
    let asset = match parts.next()? {
        "-" => None,
        a => Some(a.to_string()),
    };
    let evaluated = parts.next()?.parse().ok()?;
    let point: Option<Vec<f64>> = parts.next()?.split(',').map(|v| v.parse().ok()).collect();
    Some((label.to_string(), asset, evaluated, point?))
}

/// The adversarial-search experiment (`learnability run adversarial`).
pub struct Adversarial;

impl Experiment for Adversarial {
    fn id(&self) -> &'static str {
        "adversarial"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — adversarial scenario search: per-scheme worst-case certificates \
         over the full scenario box"
    }

    /// The schemes searched, in sweep order: the paper's calibration Tao,
    /// the fixed TCP baselines, and the PCC-style online learner.
    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(calibration::ASSET, Scheme::FIXED)
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let cfg = SearchConfig::for_fidelity(fidelity);
        let space = adversarial_space();
        lineup(self)
            .into_iter()
            .enumerate()
            .map(|(i, (contender, scheme))| {
                let asset = contender.asset_name();
                let res = find_worst_case(&scheme, asset, &cfg);
                // A search where every candidate poisoned still yields a
                // cell (the box center), so the figure always has one row
                // per scheme and the poisoned trail surfaces in notes.
                let (point, net) = match res.certificate {
                    Some(c) => (c.point, c.net),
                    None => {
                        let p = space.center();
                        let net = crate::search::realize(&space, &p);
                        (p, net)
                    }
                };
                SweepPoint::homogeneous(
                    encode_key(&scheme.label(), asset, res.evaluated, &point),
                    i as f64,
                    net,
                    scheme,
                    cfg.seeds.clone(),
                    cfg.duration_s,
                )
            })
            .collect()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let space = adversarial_space();
        let mut t = TableData::new(
            "adversarial search — worst scenario found per scheme (omniscient-normalized \
             score; 0 = omniscient, lower is worse)",
            &[
                "scheme",
                "worst-case scenario",
                "score",
                "gap",
                "candidates",
            ],
        );
        let mut series = SeriesData::new("worst_case_score");
        for p in points {
            let Some((label, asset, evaluated, point)) = decode_key(p.key()) else {
                fig.notes
                    .push(format!("unparseable cell key '{}'", p.key()));
                continue;
            };
            if !p.poisoned.is_empty() || p.runs.is_empty() {
                fig.notes.push(format!(
                    "{label}: no certificate — worst-case cell poisoned \
                     ({} of {} seeds)",
                    p.poisoned.len(),
                    p.point.seeds.clone().count()
                ));
                continue;
            }
            let norm = Norm::omniscient(&p.point.net);
            let score = norm.objective(&p.runs);
            if !score.is_finite() {
                fig.notes.push(format!(
                    "{label}: no certificate — no flow turned on in the worst-case cell"
                ));
                continue;
            }
            let cert = Certificate {
                scheme: label.clone(),
                asset,
                net: p.point.net.clone(),
                point: point.clone(),
                seeds: p.point.seeds.clone().collect(),
                duration_s: p.point.duration_s,
                fair_tpt_bps: norm.fair_tpt_bps,
                base_delay_s: norm.base_delay_s,
                score,
                score_bits: score.to_bits(),
                candidates_evaluated: evaluated,
            };
            t.row(vec![
                label.clone(),
                describe(&space, &point),
                format!("{score:.3}"),
                format!("{:.3}", cert.gap()),
                evaluated.to_string(),
            ]);
            series.push(p.x(), score);
            fig.push_summary(format!("{label}_worst_score"), score);
            fig.notes.push(format!(
                "CERTIFICATE: {}",
                serde_json::to_string(&cert).expect("certificates serialize")
            ));
        }
        fig.tables.push(t);
        fig.charts.push(ChartData::from_series(
            "worst-case normalized score by scheme (sweep order: tao, cubic, newreno, vegas, pcc)",
            "scheme index",
            &[series],
        ));
        fig.notes.push(
            "replay committed certificates with `learnability replay` — scores must \
             reproduce bit-identically on both scheduler backends"
                .into(),
        );
        fig
    }
}

/// Parse every `CERTIFICATE:` note out of a figure JSON payload.
pub fn certificates_from_figure(fig: &FigureData) -> Vec<Certificate> {
    fig.notes
        .iter()
        .filter_map(|n| n.strip_prefix("CERTIFICATE: "))
        .filter_map(|json| serde_json::from_str(json).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_roundtrip_exactly() {
        let point = vec![27.345_678_912_345, 1.0 / 3.0, 0.5, 3.0, 2.0];
        let key = encode_key("tao", Some("tao-calibration"), 14, &point);
        let (label, asset, evaluated, back) = decode_key(&key).unwrap();
        assert_eq!(label, "tao");
        assert_eq!(asset.as_deref(), Some("tao-calibration"));
        assert_eq!(evaluated, 14);
        assert_eq!(back, point, "f64 Display must roundtrip bit-exactly");
        let (_, none_asset, _, _) = decode_key(&encode_key("cubic", None, 3, &point)).unwrap();
        assert_eq!(none_asset, None);
    }

    #[test]
    fn certificates_parse_back_out_of_notes() {
        let space = adversarial_space();
        let p = space.sample(3);
        let cert = Certificate {
            scheme: "cubic".into(),
            asset: None,
            net: crate::search::realize(&space, &p),
            point: p,
            seeds: vec![0, 1],
            duration_s: 8.0,
            fair_tpt_bps: 1e7,
            base_delay_s: 0.1,
            score: -0.5,
            score_bits: (-0.5f64).to_bits(),
            candidates_evaluated: 9,
        };
        let mut fig = FigureData::new("adversarial", "test");
        fig.notes.push("not a certificate".into());
        fig.notes.push(format!(
            "CERTIFICATE: {}",
            serde_json::to_string(&cert).unwrap()
        ));
        let got = certificates_from_figure(&fig);
        assert_eq!(got, vec![cert]);
    }
}
