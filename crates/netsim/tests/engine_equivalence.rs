//! Recorded-outcome equivalence of the engine.
//!
//! `tests/fixtures/engine_equivalence.txt` holds, for every cell of the
//! AQM × return-path × fault × workload × receiver cross-product at a
//! fixed seed, what each flow's reliability layer saw and did: the
//! per-flow ack digest ([`Digest::acks`]) plus
//! `bytes_delivered`, `transmissions`, `retransmissions`, `timeouts` and
//! the three drop counters, and the run's `events_processed`. It was
//! recorded on the commit *before* the engine learned to elide scheduler
//! work (same-instant lane, one armed `RtoCheck` per flow, no duplicate
//! pacing wakes), so it is the judge of that change and of any later one
//! that claims to leave the simulated network alone: every per-flow value
//! must reproduce bit for bit on both scheduler backends, and the engine
//! may dispatch *fewer* events than recorded, never more. Event digests
//! are not recorded — eliding dead timers legitimately changes them — but
//! they must still agree between the heap and the calendar.
//!
//! `tests/fixtures/engine_dispatch.txt` is the second, stricter record:
//! each cell's `events_processed` and event digest, taken once the elided
//! work was gone. It judges changes to *how* the queue orders what it
//! holds (the delay lines of [`netsim::event::EventQueue`]): those must
//! dispatch the very same sequence, event for event, so both numbers must
//! reproduce exactly on both backends. Its digests were re-recorded once,
//! when the paper's ACK return became a delay-only link: each ACK's
//! arrival is now that link's `Propagated`, folded as one, at the same
//! instant and queue position; the parent engine folding its ACK arrivals
//! that way produced the very digests recorded, and every
//! `events_processed` stayed as it was.
//!
//! Each cell runs three senders with three pacing behaviours (rotated
//! across the flows by cell index, so the churning flow 0 takes each in
//! turn): an unpaced AIMD window, a Tao-like AIMD whose intersend time
//! moves with every ack, and a PCC-like rate sender behind a large fixed
//! window. The paced two are what the pacing-wake path is judged by.
//!
//! Re-record (only on a commit whose behaviour is the reference) with
//! `cargo test -p netsim --test engine_equivalence -- --ignored record`
//! (outcomes) or `... record_dispatch` (dispatch sequence).

use netsim::prelude::*;
use netsim::probe::Digest;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/engine_equivalence.txt"
);

const DISPATCH_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/engine_dispatch.txt"
);

/// AIMD aggressive enough to pressure finite buffers and AQMs; no pacing.
struct Aimd {
    w: f64,
}

impl CongestionControl for Aimd {
    fn reset(&mut self, _now: SimTime) {
        self.w = 2.0;
    }
    fn on_ack(&mut self, _now: SimTime, _ack: &Ack, _info: &AckInfo) {
        self.w += 4.0 / self.w.max(1.0);
    }
    fn on_loss(&mut self, _now: SimTime) {
        self.w = (self.w / 2.0).max(2.0);
    }
    fn on_timeout(&mut self, _now: SimTime) {
        self.w = 2.0;
    }
    fn window(&self) -> f64 {
        self.w
    }
    fn intersend(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Tao-like: the same AIMD window, paced at twice its ack clock, so the
/// intersend time changes with every acknowledgment.
struct PacedAimd {
    w: f64,
    rtt_s: f64,
}

impl CongestionControl for PacedAimd {
    fn reset(&mut self, _now: SimTime) {
        self.w = 2.0;
        self.rtt_s = 0.120;
    }
    fn on_ack(&mut self, _now: SimTime, _ack: &Ack, info: &AckInfo) {
        self.w += 4.0 / self.w.max(1.0);
        if let Some(rtt) = info.rtt {
            self.rtt_s = 0.875 * self.rtt_s + 0.125 * rtt.as_secs_f64();
        }
    }
    fn on_loss(&mut self, _now: SimTime) {
        self.w = (self.w / 2.0).max(2.0);
    }
    fn on_timeout(&mut self, _now: SimTime) {
        self.w = 2.0;
    }
    fn window(&self) -> f64 {
        self.w
    }
    fn intersend(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.rtt_s / (2.0 * self.w))
    }
}

/// PCC-like: a sending rate that moves on every ack and every loss behind
/// a window that is only a cap.
struct RatePaced {
    rate_pps: f64,
}

impl CongestionControl for RatePaced {
    fn reset(&mut self, _now: SimTime) {
        self.rate_pps = 100.0;
    }
    fn on_ack(&mut self, _now: SimTime, _ack: &Ack, _info: &AckInfo) {
        self.rate_pps *= 1.002;
    }
    fn on_loss(&mut self, _now: SimTime) {
        self.rate_pps = (self.rate_pps * 0.9).max(20.0);
    }
    fn on_timeout(&mut self, _now: SimTime) {
        self.rate_pps = 50.0;
    }
    fn window(&self) -> f64 {
        256.0
    }
    fn intersend(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.rate_pps)
    }
}

fn sender(which: usize) -> Box<dyn CongestionControl> {
    match which % 3 {
        0 => Box::new(Aimd { w: 2.0 }),
        1 => Box::new(PacedAimd {
            w: 2.0,
            rtt_s: 0.120,
        }),
        _ => Box::new(RatePaced { rate_pps: 100.0 }),
    }
}

/// One point of the scenario cross-product, as raw axis selectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Axes {
    aqm: u8,
    reverse: u8,
    fault: u8,
    churn: u8,
    receiver: u8,
}

/// Every cell, in fixture order.
fn cells() -> Vec<Axes> {
    let mut out = Vec::new();
    for aqm in 0..4 {
        for reverse in 0..3 {
            for fault in 0..4 {
                for churn in 0..3 {
                    for receiver in 0..3 {
                        out.push(Axes {
                            aqm,
                            reverse,
                            fault,
                            churn,
                            receiver,
                        });
                    }
                }
            }
        }
    }
    out
}

/// The same axis levels `arena_digest_equivalence.rs` enumerates.
fn build_net(a: Axes) -> NetworkConfig {
    let queue = match a.aqm {
        0 => QueueSpec::DropTail {
            capacity_bytes: Some(18_000),
        },
        1 => QueueSpec::red_default(8e6, 0.120, 5.0),
        2 => QueueSpec::codel_default(8e6, 0.120, 5.0),
        _ => QueueSpec::sfq_codel_default(8e6, 0.120, 5.0),
    };
    let mut net = dumbbell(3, 8e6, 0.120, queue, WorkloadSpec::AlwaysOn);
    net = match a.reverse {
        0 => net,
        1 => net.with_reverse_slowdown(20.0),
        _ => net.with_shared_reverse(20.0, |_, _| QueueSpec::DropTail {
            capacity_bytes: Some(4_000),
        }),
    };
    net.links[0].fault = match a.fault {
        0 => None,
        1 => Some(FaultSpec::GilbertElliott {
            loss_good: 0.005,
            loss_bad: 0.4,
            good_to_bad: 0.02,
            bad_to_good: 0.1,
        }),
        2 => Some(FaultSpec::outage_scheduled(2.0, 0.5, true)),
        _ => Some(FaultSpec::Corruption { prob: 0.08 }),
    };
    match a.churn {
        0 => {}
        1 => net.flows[0].workload = WorkloadSpec::churn(1.5, 0.8),
        _ => net.flows[0].workload = WorkloadSpec::churn_mginf(1.5, 0.8),
    }
    let receiver = match a.receiver {
        0 => None,
        1 => Some(ReceiverSpec::delayed(4, 0.040)),
        _ => Some(ReceiverSpec::delayed(2, 0.080).with_rwnd(24)),
    };
    if let Some(spec) = receiver {
        net = net.with_receiver(spec);
    }
    net.validate()
        .expect("cross-product scenario must be valid");
    net
}

/// What one flow's reliability layer saw and did.
#[derive(Debug, PartialEq, Eq)]
struct FlowRecord {
    ack_digest: u64,
    bytes_delivered: u64,
    transmissions: u64,
    retransmissions: u64,
    timeouts: u64,
    drops: [u64; 3],
}

struct CellRun {
    events: u64,
    event_digest: u64,
    flows: Vec<FlowRecord>,
}

fn run_cell(index: usize, a: Axes, kind: SchedulerKind) -> CellRun {
    let net = build_net(a);
    let protocols = (0..3).map(|f| sender(f + index)).collect();
    let digest = Digest::new(net.flows.len());
    let mut sim = Simulation::with_probe(&net, protocols, 1 + index as u64, kind, digest);
    let out = sim.run(SimDuration::from_secs(6));
    assert!(!out.truncated);
    let digest = sim.into_probe();
    let flows = out
        .flows
        .iter()
        .zip(digest.acks)
        .map(|(f, ack_digest)| FlowRecord {
            ack_digest,
            bytes_delivered: f.bytes_delivered,
            transmissions: f.transmissions,
            retransmissions: f.retransmissions,
            timeouts: f.timeouts,
            drops: [f.drops.forward, f.drops.ack, f.drops.fault],
        })
        .collect();
    CellRun {
        events: out.events_processed,
        event_digest: digest.events,
        flows,
    }
}

/// One fixture line: the five axis levels, `events_processed`, then eight
/// numbers per flow (ack digest in hex).
fn encode(a: Axes, run: &CellRun) -> String {
    let mut line = format!(
        "{} {} {} {} {} {}",
        a.aqm, a.reverse, a.fault, a.churn, a.receiver, run.events
    );
    for f in &run.flows {
        write!(
            line,
            " {:016x} {} {} {} {} {} {} {}",
            f.ack_digest,
            f.bytes_delivered,
            f.transmissions,
            f.retransmissions,
            f.timeouts,
            f.drops[0],
            f.drops[1],
            f.drops[2]
        )
        .expect("writing to a String");
    }
    line
}

fn decode(line: &str) -> (Axes, u64, Vec<FlowRecord>) {
    let tok: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(tok.len(), 6 + 3 * 8, "malformed fixture line: {line}");
    let num = |s: &str| s.parse::<u64>().expect("decimal field");
    let axes = Axes {
        aqm: num(tok[0]) as u8,
        reverse: num(tok[1]) as u8,
        fault: num(tok[2]) as u8,
        churn: num(tok[3]) as u8,
        receiver: num(tok[4]) as u8,
    };
    let flows = tok[6..]
        .chunks(8)
        .map(|c| FlowRecord {
            ack_digest: u64::from_str_radix(c[0], 16).expect("hex digest"),
            bytes_delivered: num(c[1]),
            transmissions: num(c[2]),
            retransmissions: num(c[3]),
            timeouts: num(c[4]),
            drops: [num(c[5]), num(c[6]), num(c[7])],
        })
        .collect();
    (axes, num(tok[5]), flows)
}

/// The data lines of a committed fixture.
fn fixture_lines(path: &str) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("fixture is committed")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_owned)
        .collect()
}

/// One dispatch-fixture line: `events_processed` and the event digest
/// (hex).
fn decode_dispatch(line: &str) -> (u64, u64) {
    let tok: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(tok.len(), 2, "malformed dispatch line: {line}");
    (
        tok[0].parse().expect("decimal events"),
        u64::from_str_radix(tok[1], 16).expect("hex digest"),
    )
}

#[test]
fn recorded_outcomes_reproduce_on_both_backends() {
    let recorded: Vec<_> = fixture_lines(FIXTURE).iter().map(|l| decode(l)).collect();
    let dispatch: Vec<_> = fixture_lines(DISPATCH_FIXTURE)
        .iter()
        .map(|l| decode_dispatch(l))
        .collect();
    let cells = cells();
    assert_eq!(recorded.len(), cells.len(), "one fixture line per cell");
    assert_eq!(dispatch.len(), cells.len(), "one dispatch line per cell");
    let (mut timeouts, mut retx, mut elided) = (0, 0, 0);
    for (index, ((a, (axes, events, flows)), sequence)) in
        cells.iter().zip(&recorded).zip(&dispatch).enumerate()
    {
        assert_eq!(a, axes, "fixture order is the enumeration order");
        let heap = run_cell(index, *a, SchedulerKind::Heap);
        let cal = run_cell(index, *a, SchedulerKind::Calendar);
        assert_eq!(&heap.flows, flows, "heap diverged from the record at {a:?}");
        assert_eq!(
            &cal.flows, flows,
            "calendar diverged from the record at {a:?}"
        );
        assert_eq!(
            &(heap.events, heap.event_digest),
            sequence,
            "heap dispatched a different sequence than recorded at {a:?}"
        );
        assert_eq!(
            &(cal.events, cal.event_digest),
            sequence,
            "calendar dispatched a different sequence than recorded at {a:?}"
        );
        assert!(
            cal.events <= *events,
            "{a:?} dispatched {} events, more than the recorded {events}",
            cal.events
        );
        elided += events - cal.events;
        timeouts += flows.iter().map(|f| f.timeouts).sum::<u64>();
        retx += flows.iter().map(|f| f.retransmissions).sum::<u64>();
    }
    // The record only judges the timer and wake paths if they ran.
    assert!(
        timeouts > 500 && retx > 20_000,
        "{timeouts} timeouts, {retx} retx"
    );
    assert!(elided > 0, "the engine dispatches as many events as before");
}

/// Writes the fixture from the engine as it is. Only meaningful on a
/// commit whose behaviour is the reference.
#[test]
#[ignore = "re-records the fixture"]
fn record() {
    let mut text = String::from(
        "# aqm reverse fault churn receiver events_processed, then per flow:\n\
         # ack_digest bytes_delivered transmissions retransmissions timeouts \
         drops.forward drops.ack drops.fault\n",
    );
    for (index, a) in cells().into_iter().enumerate() {
        let run = run_cell(index, a, SchedulerKind::Calendar);
        text.push_str(&encode(a, &run));
        text.push('\n');
    }
    std::fs::write(FIXTURE, text).expect("fixture written");
}

/// Writes the dispatch fixture from the engine as it is. Only meaningful
/// on a commit whose dispatch sequence is the reference.
#[test]
#[ignore = "re-records the dispatch fixture"]
fn record_dispatch() {
    let mut text = String::from("# per cell, in fixture order: events_processed event_digest\n");
    for (index, a) in cells().into_iter().enumerate() {
        let run = run_cell(index, a, SchedulerKind::Calendar);
        writeln!(text, "{} {:016x}", run.events, run.event_digest).expect("writing to a String");
    }
    std::fs::write(DISPATCH_FIXTURE, text).expect("fixture written");
}
