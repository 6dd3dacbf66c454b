//! Extension — shared uplink: every flow's ACKs through one reverse link.
//!
//! The asymmetry experiment starves each flow's *private* ACK channel;
//! real households starve a *shared* one. Here four senders on the
//! calibration bottleneck return all their acknowledgments through a
//! single reverse link whose rate is swept from the forward rate down to
//! 1/50× of it (`ReverseSpec { shared: true }`), so ACK compression,
//! cross-flow ACK queueing and reverse-path drops come from genuine
//! contention. The reverse queue discipline is part of the sweep:
//! drop-tail (ACK bufferbloat — a standing ACK queue inflates every RTT
//! sample the senders see) versus CoDel (sojourn-triggered ACK drops keep
//! the reverse queue short at the price of ack-clock gaps). Neither
//! regime exists in the training distribution; the question is which
//! failure mode the learned protocol mishandles worse.

use super::asymmetry::slowdowns;
use super::scaffold::prelude::*;
use crate::experiments::calibration;

/// Reverse queue disciplines swept, in series order.
const QUEUES: [&str; 2] = ["droptail", "codel"];

/// Senders sharing the uplink (the calibration dumbbell, doubled, so the
/// shared reverse link sees real cross-flow interleaving).
pub(super) const SENDERS: usize = 4;

/// The forward network: the calibration bottleneck with four senders.
pub(super) fn base_network() -> NetworkConfig {
    paper_dumbbell(SENDERS, 32e6, 0.150, WorkloadSpec::on_off_1s())
}

/// The swept network: shared reverse link at `forward / slowdown` under
/// the chosen ACK queue discipline (5 reverse-BDP buffers either way).
fn shared_network(slowdown: f64, queue: &str) -> NetworkConfig {
    base_network().with_shared_reverse(slowdown, |rate, _| match queue {
        "droptail" => QueueSpec::drop_tail_bdp(rate, 0.150, 5.0),
        "codel" => QueueSpec::codel_default(rate, 0.150, 5.0),
        other => panic!("unknown reverse queue '{other}'"),
    })
}

/// The shared-uplink experiment (`learnability run shared_uplink`).
pub struct SharedUplink;

impl Experiment for SharedUplink {
    fn id(&self) -> &'static str {
        "shared_uplink"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — shared uplink: all flows' ACKs through one reverse link \
         (1x -> 1/50x), drop-tail vs CoDel ACK queue"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(calibration::ASSET, [Scheme::Cubic, Scheme::NewReno])
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for &factor in &slowdowns(fidelity) {
            for queue in QUEUES {
                grid.cells(queue, factor, &shared_network(factor, queue));
            }
        }
        grid.into_points()
    }

    fn summarize(&self, _fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let norm = Norm::omniscient(&base_network());
        let roster = self.roster();

        let mut t = TableData::new(
            "shared uplink — 32 Mbps forward, 150 ms RTT, 4 senders, one \
             reverse link for all ACKs",
            &[
                "reverse slowdown",
                "ACK queue",
                "scheme",
                "throughput",
                "queueing delay",
                "ACK drops/run",
            ],
        );
        let mut series = SeriesSet::new(self.id(), names_at(&QUEUES, &roster));
        for p in points {
            let (queue, label) = split_key(p.key());
            let [tpt, qd] = TptQd::all(&p.runs).cells();
            let ack_drops = flow_sum(&p.runs, |f| f.drops.ack) as f64 / p.runs.len().max(1) as f64;
            t.row(vec![
                format!("1/{:.0}x", p.x()),
                queue.to_string(),
                label.to_string(),
                tpt,
                qd,
                format!("{ack_drops:.0}"),
            ]);
            series.push(&format!("{label}@{queue}"), p.x(), norm.objective(&p.runs));
        }
        fig.tables.push(t);
        fig.charts.push(ChartData::from_series(
            "normalized objective vs shared-uplink slowdown, by reverse ACK queue",
            "slowdown (forward rate / shared reverse rate)",
            series.all(),
        ));

        for q in QUEUES {
            for s in roster.iter().map(|c| &c.label) {
                if let Some(sr) = series.get(&format!("{s}@{q}")) {
                    let at_1 = sr.value_at(1.0).unwrap_or(f64::NEG_INFINITY);
                    let at_50 = sr.value_at(50.0).unwrap_or(f64::NEG_INFINITY);
                    fig.push_summary(format!("{s}_{q}_objective_at_1x"), at_1);
                    fig.push_summary(format!("{s}_{q}_objective_at_50x"), at_50);
                    fig.push_summary(format!("{s}_{q}_degradation_1_to_50"), at_1 - at_50);
                }
            }
        }
        if let (Some(dt), Some(cd)) = (
            fig.summary_value("tao_droptail_objective_at_50x"),
            fig.summary_value("tao_codel_objective_at_50x"),
        ) {
            fig.notes.push(format!(
                "tao at a 1/50x shared uplink: objective {dt:.3} behind a drop-tail \
                 ACK queue vs {cd:.3} behind CoDel (positive difference = ACK \
                 bufferbloat hurts the learned protocol more than ACK drops do)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    #[test]
    fn swept_networks_share_one_reverse_link_per_bottleneck() {
        for queue in QUEUES {
            let net = shared_network(8.0, queue);
            net.validate().unwrap();
            let r = net.links[0].reverse.as_ref().expect("reverse spec");
            assert!(r.shared, "contention requires a shared link");
            assert_eq!(r.rate_bps, 32e6 / 8.0);
            // reverse delay mirrors forward: min RTT unchanged
            assert_eq!(net.min_rtt(0), SimDuration::from_millis(150));
        }
    }

    #[test]
    fn queue_disciplines_differ_only_in_spec() {
        let dt = shared_network(50.0, "droptail");
        let cd = shared_network(50.0, "codel");
        assert!(matches!(
            dt.links[0].reverse.as_ref().unwrap().queue,
            QueueSpec::DropTail { .. }
        ));
        assert!(matches!(
            cd.links[0].reverse.as_ref().unwrap().queue,
            QueueSpec::Codel { .. }
        ));
        assert_eq!(dt.links[0].queue, cd.links[0].queue, "forward identical");
    }

    #[test]
    fn slowdown_grids_anchor_both_ends() {
        for f in [Fidelity::Quick, Fidelity::Full] {
            let g = slowdowns(f);
            assert_eq!(g[0], 1.0);
            assert_eq!(*g.last().unwrap(), 50.0);
        }
    }
}
