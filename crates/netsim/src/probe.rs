//! Observation hooks (see "Probes" in [`crate::sim`]): [`NoProbe`]
//! records nothing, [`Digest`] folds a run into the determinism tests'
//! digests, and [`QueueTrace`] samples one link's queue for Fig 8.

use crate::arena::PacketArena;
use crate::event::{Event, QueueCounters};
use crate::link::Link;
use crate::packet::{Ack, FlowId, LinkId};
use crate::sim::Simulation;
use crate::time::{SimDuration, SimTime};

/// What a [`Simulation`] reports to as it runs. Every hook only reads,
/// and does nothing unless a probe overrides it.
pub trait Probe: Sized {
    /// `ev` is about to be dispatched at `at`; `links` and `arena` (which
    /// still holds `ev`'s packet) are as the previous event left them.
    fn on_event(&mut self, _at: SimTime, _ev: &Event, _links: &[Link], _arena: &PacketArena) {}

    /// A live transfer's transport is about to process `ack`.
    fn on_ack(&mut self, _at: SimTime, _flow: FlowId, _ack: &Ack) {}

    /// `link`'s queue refused a packet arriving at `at`.
    fn on_drop(&mut self, _at: SimTime, _link: LinkId) {}

    /// Every event up to the run's requested `end` was dispatched.
    fn on_end(&mut self, _end: SimTime, _links: &[Link]) {}

    /// [`Simulation::run`]'s event loop. A generic loop is compiled in each
    /// crate that runs it and inlines less of this one (`figures_quick`
    /// 12 % slower on 2 vCPUs), so [`NoProbe`] overrides it with one built here.
    #[doc(hidden)]
    fn simulate(sim: &mut Simulation<Self>, duration: SimDuration) -> (bool, QueueCounters) {
        sim.simulate(duration)
    }
}

/// The probe that records nothing: zero-size, every hook empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(never)]
    fn simulate(sim: &mut Simulation<Self>, duration: SimDuration) -> (bool, QueueCounters) {
        sim.simulate(duration)
    }
}

/// FNV-1a offset basis: the seed of every digest.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Fold one 64-bit word into an FNV-1a digest.
fn fnv(mut digest: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        digest ^= byte as u64;
        digest = digest.wrapping_mul(0x100000001b3);
    }
    digest
}

/// Order-sensitive FNV-1a digests: equal digests, identical event
/// sequence and identical ack sequence per flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Every dispatched event (see `fold_event`).
    pub events: u64,
    /// Per flow, every ack its transport processed, valid or not.
    pub acks: Vec<u64>,
}

impl Digest {
    /// Empty digests for a simulation of `flows` flows.
    pub fn new(flows: usize) -> Self {
        Digest {
            events: FNV_OFFSET,
            acks: vec![FNV_OFFSET; flows],
        }
    }
}

impl Probe for Digest {
    fn on_event(&mut self, at: SimTime, ev: &Event, _links: &[Link], arena: &PacketArena) {
        self.events = fold_event(self.events, at, ev, arena);
    }

    fn on_ack(&mut self, at: SimTime, flow: FlowId, ack: &Ack) {
        let seq = ack.seq ^ ((ack.epoch as u64) << 48);
        let echo = ack.echo_tx_index ^ ((ack.was_retx as u64) << 63);
        let digest = &mut self.acks[flow.0 as usize];
        *digest = [at.as_nanos(), seq, echo].into_iter().fold(*digest, fnv);
    }
}

/// Fold one event into the run digest: firing time, kind tag (8 is
/// unused) and payload — a zero for a workload timer's former generation,
/// a packet's words read before dispatch can free its arena slot — so
/// digests stay comparable with recorded ones.
fn fold_event(digest: u64, at: SimTime, ev: &Event, arena: &PacketArena) -> u64 {
    let digest = fnv(digest, at.as_nanos());
    let packet = |tag: u64, link: LinkId, pkt| {
        let pkt = arena.get(pkt);
        let word = pkt.seq ^ ((pkt.flow.0 as u64) << 48);
        fnv(fnv(fnv(digest, tag), link.0 as u64), word)
    };
    match ev {
        Event::Arrive { link, pkt } => packet(1, *link, *pkt),
        Event::TxComplete { link, pkt } => packet(2, *link, *pkt),
        Event::Propagated { link, pkt } => packet(3, *link, *pkt),
        Event::SenderWake { flow } => fnv(fnv(digest, 5), flow.0 as u64),
        Event::RtoCheck { flow, gen } => fnv(fnv(fnv(digest, 6), flow.0 as u64), *gen),
        Event::WorkloadToggle { flow } => fnv(fnv(fnv(digest, 7), flow.0 as u64), 0),
        Event::FlowArrival { flow } => fnv(fnv(fnv(digest, 9), flow.0 as u64), 0),
        Event::FlowDeparture { flow } => fnv(fnv(fnv(digest, 10), flow.0 as u64), 0),
        Event::LinkDown { link } => fnv(fnv(digest, 11), link.0 as u64),
        Event::LinkUp { link } => fnv(fnv(digest, 12), link.0 as u64),
        Event::AckTimer { flow, gen } => fnv(fnv(fnv(digest, 13), flow.0 as u64), *gen),
    }
}

/// One sample of the traced link's queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueSample {
    /// Sample time.
    pub at: SimTime,
    /// Queue occupancy in packets.
    pub packets: usize,
}

/// One link's queue at each multiple of a period up to the run's end (the
/// state at the start of that instant; none past the last instant a
/// budget-cut run dispatched) and the times that queue dropped a packet
/// (Fig 8).
#[derive(Clone, Debug, PartialEq)]
pub struct QueueTrace {
    /// The traced link.
    pub link: LinkId,
    /// Sampling period.
    pub period: SimDuration,
    /// The samples, in time order.
    pub samples: Vec<QueueSample>,
    /// Times at which the traced link's queue dropped a packet.
    pub drop_times: Vec<SimTime>,
    /// The next period boundary to sample.
    next: SimTime,
}

impl QueueTrace {
    /// An empty recorder sampling `link` every `period`.
    pub fn new(link: LinkId, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "trace period must be positive");
        QueueTrace {
            link,
            period,
            samples: Vec::new(),
            drop_times: Vec::new(),
            next: SimTime::ZERO,
        }
    }

    /// Sample every period boundary up to and including `until`.
    fn sample_until(&mut self, until: SimTime, links: &[Link]) {
        while self.next <= until {
            self.samples.push(QueueSample {
                at: self.next,
                packets: links[self.link.0 as usize].queue_len_packets(),
            });
            self.next += self.period;
        }
    }

    /// Mean queue occupancy (packets) over `[from, to)`; 0 without samples.
    pub fn mean_packets_in(&self, from: SimTime, to: SimTime) -> f64 {
        let in_window = self.samples.iter().filter(|p| (from..to).contains(&p.at));
        let (n, sum) = in_window.fold((0, 0), |(n, sum), p| (n + 1, sum + p.packets));
        sum as f64 / n.max(1) as f64
    }
}

impl Probe for QueueTrace {
    fn on_event(&mut self, at: SimTime, _ev: &Event, links: &[Link], _arena: &PacketArena) {
        self.sample_until(at, links);
    }

    fn on_drop(&mut self, at: SimTime, link: LinkId) {
        if link == self.link {
            self.drop_times.push(at);
        }
    }

    fn on_end(&mut self, end: SimTime, links: &[Link]) {
        self.sample_until(end, links);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SchedulerKind;
    use crate::packet::Ack;
    use crate::queue::QueueSpec;
    use crate::sim::Simulation;
    use crate::topology::{dumbbell, NetworkConfig};
    use crate::transport::{AckInfo, CongestionControl};
    use crate::workload::WorkloadSpec;

    fn sample(at_ms: u64, packets: usize) -> QueueSample {
        QueueSample {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            packets,
        }
    }

    struct Fixed(f64);

    impl CongestionControl for Fixed {
        fn reset(&mut self, _now: SimTime) {}
        fn on_ack(&mut self, _now: SimTime, _ack: &Ack, _info: &AckInfo) {}
        fn on_loss(&mut self, _now: SimTime) {}
        fn on_timeout(&mut self, _now: SimTime) {}
        fn window(&self) -> f64 {
            self.0
        }
        fn intersend(&self) -> SimDuration {
            SimDuration::ZERO
        }
    }

    /// Run `net` (one fixed-window sender per flow) for `duration` under
    /// `probe`, with an event budget.
    fn run_with<P: Probe>(
        net: &NetworkConfig,
        probe: P,
        budget: u64,
        duration: SimDuration,
    ) -> (crate::sim::RunOutcome, P) {
        let protocols = net
            .flows
            .iter()
            .map(|_| Box::new(Fixed(60.0)) as Box<dyn CongestionControl>)
            .collect();
        let mut sim = Simulation::with_probe(net, protocols, 3, SchedulerKind::default(), probe);
        sim.set_event_budget(budget);
        let out = sim.run(duration);
        (out, sim.into_probe())
    }

    fn bottleneck(workload: WorkloadSpec) -> NetworkConfig {
        let queue = QueueSpec::DropTail {
            capacity_bytes: Some(30_000),
        };
        dumbbell(2, 10e6, 0.100, queue, workload)
    }

    #[test]
    fn mean_over_window() {
        let mut tr = QueueTrace::new(LinkId(0), SimDuration::from_millis(10));
        for (at, p) in [(0, 2), (10, 4), (20, 6), (30, 100)] {
            tr.samples.push(sample(at, p));
        }
        let from = SimTime::ZERO;
        let to = SimTime::ZERO + SimDuration::from_millis(25);
        assert!((tr.mean_packets_in(from, to) - 4.0).abs() < 1e-12);
        // empty window
        let far = SimTime::from_secs_f64(100.0);
        assert_eq!(tr.mean_packets_in(far, far), 0.0);
    }

    #[test]
    fn drop_times_accumulate() {
        let mut tr = QueueTrace::new(LinkId(0), SimDuration::from_millis(1));
        tr.on_drop(SimTime::from_secs_f64(1.0), LinkId(0));
        tr.on_drop(SimTime::from_secs_f64(2.0), LinkId(0));
        assert_eq!(tr.drop_times.len(), 2);
    }

    #[test]
    #[should_panic(expected = "trace period must be positive")]
    fn zero_period_rejected() {
        QueueTrace::new(LinkId(0), SimDuration::ZERO);
    }

    #[test]
    fn samples_fall_on_every_period_multiple_up_to_the_end() {
        let period = SimDuration::from_millis(7);
        // 286 periods exactly: the end is itself a sample time.
        let end = SimDuration::from_millis(2_002);
        // Busy to the end, and idle throughout: a pulse that starts after
        // the end dispatches nothing, so every sample comes from the end.
        for workload in [WorkloadSpec::AlwaysOn, WorkloadSpec::pulse(5.0, 6.0)] {
            let trace = QueueTrace::new(LinkId(0), period);
            let (out, tr) = run_with(&bottleneck(workload.clone()), trace, u64::MAX, end);
            assert!(!out.truncated);
            let at: Vec<SimTime> = tr.samples.iter().map(|s| s.at).collect();
            let want: Vec<SimTime> = (0..=286).map(|k| SimTime::ZERO + period * k).collect();
            assert_eq!(at, want, "{workload:?}");
        }
    }

    #[test]
    fn a_drop_on_an_untraced_link_is_not_recorded() {
        // ACKs overflow the shared reverse link (LinkId(1)) while the
        // forward bottleneck's queue has room for every window.
        let net = dumbbell(
            2,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        )
        .with_shared_reverse(200.0, |_, _| QueueSpec::DropTail {
            capacity_bytes: Some(2_000),
        });
        let secs = SimDuration::from_secs(3);
        let period = SimDuration::from_millis(100);
        let (out, forward) = run_with(&net, QueueTrace::new(LinkId(0), period), u64::MAX, secs);
        let (_, reverse) = run_with(&net, QueueTrace::new(LinkId(1), period), u64::MAX, secs);
        let ack_drops: u64 = out.flows.iter().map(|f| f.drops.ack).sum();
        assert!(ack_drops > 0, "the reverse link must drop ACKs");
        assert_eq!(out.link_queues[0].dropped, 0);
        assert!(forward.drop_times.is_empty(), "{:?}", forward.drop_times);
        assert_eq!(reverse.drop_times.len() as u64, ack_drops);
    }

    /// A [`QueueTrace`] that also keeps the last instant dispatched.
    struct LastDispatched {
        trace: QueueTrace,
        at: SimTime,
    }

    impl Probe for LastDispatched {
        fn on_event(&mut self, at: SimTime, ev: &Event, links: &[Link], arena: &PacketArena) {
            self.at = at;
            self.trace.on_event(at, ev, links, arena);
        }
        fn on_drop(&mut self, at: SimTime, link: LinkId) {
            self.trace.on_drop(at, link);
        }
        fn on_end(&mut self, end: SimTime, links: &[Link]) {
            self.trace.on_end(end, links);
        }
    }

    #[test]
    fn a_truncated_run_records_no_sample_past_its_last_dispatched_instant() {
        let period = SimDuration::from_millis(10);
        let probe = LastDispatched {
            trace: QueueTrace::new(LinkId(0), period),
            at: SimTime::ZERO,
        };
        let net = bottleneck(WorkloadSpec::AlwaysOn);
        let (out, last) = run_with(&net, probe, 20_000, SimDuration::from_secs(30));
        assert!(out.truncated);
        let samples = &last.trace.samples;
        assert!(
            last.at > SimTime::ZERO + period,
            "the run got past a sample"
        );
        // Every boundary up to the last dispatched instant, and none after.
        let k = last.at.as_nanos() / period.as_nanos();
        assert_eq!(samples.len() as u64, k + 1);
        assert_eq!(samples.last().unwrap().at, SimTime::ZERO + period * k);
    }
}
