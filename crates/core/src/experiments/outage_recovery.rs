//! Extension — link outages: how fast each scheme resumes after a
//! blackout, as a function of blackout length.
//!
//! The paper's scenarios never sever the path; TCP's answer to a dead
//! link is the RTO exponential-backoff ladder, and how long a flow
//! dawdles after the link returns depends on where on that ladder the
//! blackout left it. Here a single always-on flow crosses a bottleneck
//! with a square-wave outage (6 s up, `down_s` down, packets destroyed
//! while down) and we charge each scheme its *recovery overhead*: the
//! equivalent-capacity seconds lost beyond the blackout itself, per
//! blackout. An ideal scheme resumes at full rate the instant the link
//! returns (overhead ≈ 0); a backed-off one idles until its next
//! retransmission timer fires.

use super::scaffold::prelude::*;
use crate::experiments::calibration;

/// Blackout lengths swept (seconds down per cycle). The baseline point
/// (`down_s == 0.0`) carries no fault at all — `fault: None` — and anchors
/// the deficit computation.
const DOWN_S: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];

/// Seconds of service between blackouts.
const UP_S: f64 = 6.0;

/// The single-flow outage network: 16 Mbps, 100 ms RTT, 5-BDP drop-tail.
fn test_network(down_s: f64) -> NetworkConfig {
    let mut net = paper_dumbbell(1, 16e6, 0.100, WorkloadSpec::AlwaysOn);
    if down_s > 0.0 {
        net.links[0].fault = Some(FaultSpec::outage_scheduled(UP_S, down_s, true));
    }
    net
}

/// Total blacked-out seconds and number of blackouts started within a run
/// of `total_s` seconds, for the square wave that is up first (the
/// simulator schedules the first `LinkDown` at `up_s`). The final interval
/// is clipped to the run's end.
fn blackouts(total_s: f64, up_s: f64, down_s: f64) -> (f64, usize) {
    let period = up_s + down_s;
    let (mut start, mut downtime, mut n) = (up_s, 0.0, 0usize);
    while start < total_s {
        downtime += (start + down_s).min(total_s) - start;
        n += 1;
        start += period;
    }
    (downtime, n)
}

/// Mean bytes delivered per run of a point (single-flow cells).
fn mean_delivered(p: &PointOutcome) -> f64 {
    if p.runs.is_empty() {
        return 0.0;
    }
    flow_sum(&p.runs, |f| f.bytes_delivered) as f64 / p.runs.len() as f64
}

/// The outage-recovery experiment (`learnability run outage_recovery`).
pub struct OutageRecovery;

impl Experiment for OutageRecovery {
    fn id(&self) -> &'static str {
        "outage_recovery"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — recovery overhead after link blackouts (the RTO-backoff axis)"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(calibration::ASSET, [Scheme::Cubic, Scheme::NewReno])
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        // Reuses the calibration asset: recovery behavior is part of what
        // the protocol learned, not something trained for here.
        calibration::Calibration.train_specs()
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for &down_s in &DOWN_S {
            grid.cells("", down_s, &test_network(down_s));
        }
        grid.into_points()
    }

    fn summarize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let total_s = fidelity.test_duration_s();

        // Baseline delivered bytes per scheme (the down_s == 0 cells).
        let base_of = |name: &str| {
            let baseline = points.iter().find(|p| p.x() == 0.0 && p.key() == name);
            baseline.map_or(0.0, mean_delivered)
        };

        let mut t = Table::new(
            "outage recovery — 16 Mbps, 100 ms RTT, 6 s up / down_s down, packets dropped while down",
            &[
                "down_s",
                "scheme",
                "throughput",
                "timeouts",
                "fault drops",
                "recovery s/blackout",
            ],
        );
        let mut series = SeriesSet::of(self);
        for p in points {
            let (level, scheme) = (p.x().to_string(), p.key());
            let [tpt, _] = TptQd::all(&p.runs).cells();
            let timeouts = flow_sum(&p.runs, |f| f.timeouts);
            let fault_drops = flow_sum(&p.runs, |f| f.drops.fault);
            // Equivalent-capacity seconds lost to the outage beyond the
            // blackout itself, per blackout: the baseline run turns bytes
            // into seconds (uniform service), the analytic square wave
            // says how much loss was unavoidable.
            let recovery = if p.x() > 0.0 {
                let b0 = base_of(scheme);
                let (downtime, n) = blackouts(total_s, UP_S, p.x());
                if b0 > 0.0 && n > 0 {
                    let deficit_s = total_s * (1.0 - mean_delivered(p) / b0);
                    Some((deficit_s - downtime) / n as f64)
                } else {
                    None
                }
            } else {
                None
            };
            t.row(vec![
                level.clone(),
                scheme.to_string(),
                tpt,
                timeouts.to_string(),
                fault_drops.to_string(),
                recovery.map_or("—".into(), |r| format!("{r:.2} s")),
            ]);
            if let Some(r) = recovery {
                series.push(scheme, p.x(), r);
                fig.push_summary(format!("{scheme}_down{level}_recovery_s"), r);
            }
        }
        fig.tables.push(TableData::from_table(&t));
        fig.charts.push(ChartData::from_series(
            "recovery overhead (s per blackout) vs blackout length",
            "down_s",
            series.all(),
        ));

        // Headline: recovery overhead at the longest blackout — who sits
        // on the backoff ladder longest after the link returns.
        let worst = DOWN_S[DOWN_S.len() - 1];
        let at_worst = |name: &str| series.get(name)?.value_at(worst);
        if let (Some(tao), Some(cubic)) = (at_worst("tao"), at_worst("cubic")) {
            fig.push_summary("tao_minus_cubic_recovery_at_4s", tao - cubic);
            fig.notes.push(format!(
                "recovery overhead after a {worst:.0} s blackout: tao {tao:.2} s, \
                 cubic {cubic:.2} s per blackout (positive values are seconds \
                 of equivalent capacity lost beyond the blackout itself)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_arithmetic_clips_the_final_interval() {
        // 16 s run, 6 up / 4 down: blackouts at [6, 10) and a second cycle
        // starting at 16 that never happens.
        let (down, n) = blackouts(16.0, 6.0, 4.0);
        assert_eq!(n, 1);
        assert!((down - 4.0).abs() < 1e-12);
        // 60 s run: blackouts at [6,10), [16,20), [26,30), [36,40),
        // [46,50), [56,60) — the last exactly clipped.
        let (down, n) = blackouts(60.0, 6.0, 4.0);
        assert_eq!(n, 6);
        assert!((down - 24.0).abs() < 1e-12);
        // Partial clip: run ends mid-blackout.
        let (down, n) = blackouts(8.0, 6.0, 4.0);
        assert_eq!(n, 1);
        assert!((down - 2.0).abs() < 1e-12);
    }

    #[test]
    fn swept_networks_validate_and_baseline_is_fault_free() {
        for &down_s in &DOWN_S {
            let net = test_network(down_s);
            net.validate().expect("outage spec validates");
            assert_eq!(net.links[0].fault.is_some(), down_s > 0.0);
        }
    }
}
