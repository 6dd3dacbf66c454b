//! Extension — delayed/stretch ACKs: ack-every-k receivers on a shared uplink.
//!
//! Every scenario in the paper assumes the receiver acknowledges each
//! packet the instant it arrives, so a sender sees one ack per delivered
//! packet and the densest possible congestion signal. Real receivers
//! coalesce: delayed-ACK and stretch-ACK policies (LRO/GRO offload,
//! Wi-Fi/DOCSIS aggregation) acknowledge every k-th packet, rescued by a
//! flush timer. That thins the very signal Remy-designed protocols were
//! trained to read — each ack now covers a k-packet batch, arrives k× less
//! often, and carries the *batch's* timing, not per-packet timing.
//!
//! This experiment crosses the stretch factor k (1 → 16, a 40 ms flush
//! timer) with the shared-uplink slowdown of
//! [`super::shared_uplink`]: ACK thinning matters most exactly where the
//! reverse path is scarce, because each surviving ack is also cheaper to
//! carry. The question is whether the learned protocol's advantage
//! survives an ack stream it never saw during design.

use super::scaffold::prelude::*;
use super::shared_uplink::base_network;
use crate::experiments::calibration;

/// Delayed-ACK flush timer: the classic BSD 40 ms tick. A partial batch
/// never waits longer than this, so k bounds signal thinning, not
/// liveness.
const FLUSH_TIMER_S: f64 = 0.040;

/// Stretch factors swept (k = acknowledge every k-th packet; k = 1 is the
/// paper's immediate-ACK receiver and the bit-identical fast path).
fn stretch_factors(fidelity: Fidelity) -> Vec<u32> {
    match fidelity {
        Fidelity::Quick => vec![1, 4, 16],
        Fidelity::Full => vec![1, 2, 4, 8, 16],
    }
}

/// Reverse-path slowdown factors crossed with k (shared ACK uplink at
/// forward / slowdown, drop-tail).
fn slowdowns(fidelity: Fidelity) -> Vec<f64> {
    match fidelity {
        Fidelity::Quick => vec![1.0, 50.0],
        Fidelity::Full => vec![1.0, 8.0, 50.0],
    }
}

/// The swept network: the shared-uplink population (four senders on the
/// calibration bottleneck, so the reverse link sees real cross-flow ACK
/// interleaving), every receiver acknowledging every `k`-th packet
/// (40 ms flush), all ACKs through one shared drop-tail reverse link at
/// `forward / slowdown`.
fn delayed_network(k: u32, slowdown: f64) -> NetworkConfig {
    base_network()
        .with_shared_reverse(slowdown, |rate, _| {
            QueueSpec::drop_tail_bdp(rate, 0.150, 5.0)
        })
        .with_receiver(ReceiverSpec::delayed(k, FLUSH_TIMER_S))
}

/// Panel name (and series suffix) of an uplink slowdown: `1x`, `50x`.
fn panel(slowdown: f64) -> String {
    format!("{slowdown:.0}x")
}

/// The delayed-ACK experiment (`learnability run delayed_ack`).
pub struct DelayedAck;

impl Experiment for DelayedAck {
    fn id(&self) -> &'static str {
        "delayed_ack"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — delayed/stretch ACKs: ack-every-k receivers (k = 1 -> 16, \
         40 ms flush) crossed with a shared ACK uplink (1x -> 1/50x)"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(calibration::ASSET, [Scheme::Cubic, Scheme::NewReno])
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        // The calibration Tao: designed against per-packet acknowledgment,
        // evaluated under an ack stream thinned k-fold.
        calibration::Calibration.train_specs()
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for &slowdown in &slowdowns(fidelity) {
            for &k in &stretch_factors(fidelity) {
                grid.cells(&panel(slowdown), k as f64, &delayed_network(k, slowdown));
            }
        }
        grid.into_points()
    }

    fn summarize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let norm = Norm::omniscient(&base_network());
        let roster = self.roster();
        let panels: Vec<String> = slowdowns(fidelity).into_iter().map(panel).collect();

        let mut t = Table::new(
            "delayed ACKs — 32 Mbps forward, 150 ms RTT, 4 senders, ack-every-k \
             receivers (40 ms flush), shared drop-tail ACK uplink",
            &[
                "ack every",
                "uplink slowdown",
                "scheme",
                "throughput",
                "queueing delay",
                "timeouts/run",
            ],
        );
        let mut series = SeriesSet::new(self.id(), names_at(&panels, &roster));
        for p in points {
            let (slowdown, label) = split_key(p.key());
            let [tpt, qd] = TptQd::all(&p.runs).cells();
            let timeouts = flow_sum(&p.runs, |f| f.timeouts) as f64 / p.runs.len().max(1) as f64;
            t.row(vec![
                format!("{:.0}", p.x()),
                format!("1/{slowdown}"),
                label.to_string(),
                tpt,
                qd,
                format!("{timeouts:.1}"),
            ]);
            series.push(
                &format!("{label}@{slowdown}"),
                p.x(),
                norm.objective(&p.runs),
            );
        }
        fig.tables.push(TableData::from_table(&t));
        fig.charts.push(ChartData::from_series(
            "normalized objective vs ACK stretch factor, by shared-uplink slowdown",
            "k (receiver acknowledges every k-th packet)",
            series.all(),
        ));

        let k_max = *stretch_factors(fidelity).last().expect("non-empty") as f64;
        for sl in &panels {
            for s in roster.iter().map(|c| &c.label) {
                if let Some(sr) = series.get(&format!("{s}@{sl}")) {
                    let at_1 = sr.value_at(1.0).unwrap_or(f64::NEG_INFINITY);
                    let at_k = sr.value_at(k_max).unwrap_or(f64::NEG_INFINITY);
                    fig.push_summary(format!("{s}_{sl}_objective_at_k1"), at_1);
                    fig.push_summary(format!("{s}_{sl}_objective_at_k{k_max:.0}"), at_k);
                    fig.push_summary(format!("{s}_{sl}_stretch_degradation"), at_1 - at_k);
                }
            }
        }
        if let (Some(tao), Some(cubic)) = (
            fig.summary_value("tao_1x_stretch_degradation"),
            fig.summary_value("cubic_1x_stretch_degradation"),
        ) {
            fig.notes.push(format!(
                "ack stream thinned {k_max:.0}-fold on an uncongested uplink: tao \
                 loses {tao:.3} objective vs cubic's {cubic:.3} (positive gap = \
                 the learned protocol depends more on per-packet ack density \
                 than the human-designed baseline)"
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swept_networks_delay_every_receiver() {
        let net = delayed_network(4, 8.0);
        net.validate().unwrap();
        for f in &net.flows {
            let r = f.receiver.as_ref().expect("receiver spec on every flow");
            assert_eq!(r.ack_every, 4);
            assert_eq!(r.flush_timer_s, Some(FLUSH_TIMER_S));
            assert!(r.rwnd_packets.is_none(), "no rwnd in this sweep");
        }
        let rev = net.links[0].reverse.as_ref().expect("shared reverse");
        assert!(rev.shared);
        assert_eq!(rev.rate_bps, 32e6 / 8.0);
    }

    #[test]
    fn k1_is_the_immediate_fast_path() {
        // The k = 1 anchor must take the pre-redesign immediate-ACK path,
        // so the sweep's baseline is the paper's receiver bit-for-bit.
        let net = delayed_network(1, 1.0);
        for f in &net.flows {
            assert!(f.receiver.as_ref().expect("spec").is_immediate());
        }
    }

    #[test]
    fn grids_anchor_both_ends() {
        for f in [Fidelity::Quick, Fidelity::Full] {
            let ks = stretch_factors(f);
            assert_eq!(ks[0], 1, "k=1 anchors at the paper's receiver");
            assert_eq!(*ks.last().unwrap(), 16);
            let sl = slowdowns(f);
            assert_eq!(sl[0], 1.0);
            assert_eq!(*sl.last().unwrap(), 50.0);
        }
    }
}
