//! The always-on per-kind event counters of `RunOutcome`, and the two
//! kinds of scheduler waste they exist to catch on the paper's
//! calibration dumbbell: pacing wakes that outnumber the packets they
//! release (a stale wake used to clear the pending-wake marker, so every
//! later `try_send` queued a duplicate — 2.3 wakes per packet for Tao,
//! unbounded for PCC), and an `RtoCheck` per acknowledgment where one per
//! elapsed RTO is enough. Also the queue's routing counters: the packet
//! events wait on delay lines, in order, and the backend keeps the rest.

use lcc_core::experiments::calibration;
use lcc_core::experiments::scaffold::flow_sum;
use lcc_core::runner::{run_homogeneous, Scheme};
use netsim::event::EventKind;
use netsim::prelude::RunOutcome;
use netsim::transport::MIN_RTO;

const SECONDS: f64 = 30.0;

fn paced_runs() -> Vec<(&'static str, RunOutcome)> {
    let tao = remy::serialize::load(&remy::serialize::asset_path(calibration::ASSET))
        .expect("tao-calibration is committed");
    [("tao", Scheme::tao(tao.tree, "tao")), ("pcc", Scheme::Pcc)]
        .into_iter()
        .map(|(name, scheme)| {
            let out = run_homogeneous(&calibration::test_network(), &scheme, 1, SECONDS);
            assert!(!out.truncated);
            assert_eq!(
                out.events_by_kind.iter().sum::<u64>(),
                out.events_processed,
                "{name}: every dispatched event is counted under its kind"
            );
            (name, out)
        })
        .collect()
}

#[test]
fn pacing_wakes_do_not_outnumber_transmissions() {
    for (name, out) in paced_runs() {
        let wakes = out.events_of(EventKind::SenderWake);
        let sent = flow_sum(std::slice::from_ref(&out), |f| f.transmissions);
        assert!(wakes > sent / 2, "{name}: the run must actually be paced");
        // A wake releases a packet, unless an earlier one was armed after
        // it or the intersend time grew while it waited: a few per cent.
        assert!(
            wakes * 20 <= sent * 21,
            "{name}: {wakes} wakes for {sent} transmissions"
        );
    }
}

#[test]
fn rto_checks_follow_elapsed_time_not_acks() {
    for (name, out) in paced_runs() {
        let checks = out.events_of(EventKind::RtoCheck);
        // On the paper's return path an ACK is one `Propagated` on a
        // delay-only link, which no `TxComplete` precedes.
        let acks = out.events_of(EventKind::Propagated) - out.events_of(EventKind::TxComplete);
        let on_s: f64 = out.flows.iter().map(|f| f.on_time_s).sum();
        // One check carries the deadline forward per elapsed RTO of a busy
        // flow; every timeout and every restart from idle (each burst,
        // and each early round trip of one that drains its window) arms
        // a fresh one. Twice the time-driven term covers the restarts.
        let bound = flow_sum(std::slice::from_ref(&out), |f| f.timeouts)
            + 2 * (on_s / MIN_RTO.as_secs_f64()).ceil() as u64
            + 2 * out.events_of(EventKind::WorkloadToggle);
        assert!(
            checks <= bound,
            "{name}: {checks} RtoCheck dispatches, bound {bound}"
        );
        assert!(
            bound * 10 < acks,
            "{name}: the bound must bite ({acks} acks)"
        );
    }
}

#[test]
fn packet_events_ride_delay_lines() {
    for (name, out) in paced_runs() {
        let q = out.queue;
        assert_eq!(q.fallback, 0, "{name}: every line was filled in order");
        assert!(q.backend < q.line, "{name}: the backend holds the timers");
        // Per packet: a lane Arrive, three line events (its TxComplete and
        // Propagated, and its ACK's Propagated on the delay-only return
        // link) and at most one pacing wake; PCC's wake per packet puts it
        // near that floor, Tao's sparser ones above.
        if name == "tao" {
            assert!(
                q.line * 10 >= out.events_processed * 6,
                "{name}: {} of {} events on delay lines",
                q.line,
                out.events_processed
            );
        }
    }
}
