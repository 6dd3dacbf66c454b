//! The discrete-event core: a time-ordered queue of simulation events
//! behind a pluggable [`Scheduler`] abstraction.
//!
//! Ties at the same instant are broken by insertion order (a monotonically
//! increasing sequence number), which makes runs deterministic — a property
//! the whole study rests on, since the optimizer compares candidate
//! protocols by replaying identical scenario draws.
//!
//! Two backends implement the same `(time, insertion-seq)` total order:
//!
//! * [`BinaryHeapScheduler`] — a `BinaryHeap<Reverse<Entry>>`, O(log n)
//!   per operation. Simple, and the reference for order-equivalence tests.
//! * [`crate::calendar::CalendarQueue`] — a bucketed calendar queue,
//!   O(1) amortized insert/pop with self-resizing bucket width. The
//!   default: the event queue is the largest remaining per-event cost in
//!   the simulator, and training throughput is bounded by it.
//!
//! The backend is chosen at runtime via [`SchedulerKind`] (see
//! [`EventQueue::with_kind`]); both are provably order-equivalent (see
//! `netsim/tests/proptest_scheduler.rs`), so fixed-seed simulations are
//! bit-identical whichever backend runs them.
//!
//! An [`EventQueue`] keeps three kinds of sources in front of its backend
//! and merges them by `(time, seq)`. Every event draws its seq from one
//! counter whichever source holds it, and each source is sorted, so the
//! merge is the one global order — no event moves, by construction.
//!
//! # The same-instant lane
//!
//! Nearly a fifth of what the engine schedules fires at the instant
//! already being dispatched: the `Arrive` a sender's transmission, a hop
//! forward or an acknowledgment entering a reverse link produces. Such an
//! event carries a later insertion seq than everything pending, so it
//! sorts after every line and backend entry still due at that instant and
//! before everything later. [`EventQueue::schedule`] therefore appends it
//! to a plain FIFO — the lane — and [`EventQueue::pop`], one event at a
//! time, hands out the instant's remaining line and backend entries
//! first, then the lane in seq order.
//!
//! # Delay lines
//!
//! Most of the rest is scheduled in an order that is already known: a
//! link's propagations each leave `delay` after the previous one's
//! instant or later (on a delay-only link, `delay` after entry).
//! [`EventQueue::line`] opens a FIFO line for such a stream and
//! [`EventQueue::schedule_on`] appends to it. The queue does not take the
//! caller's word for the order: an event earlier than its line's tail
//! takes the ordinary backend insert instead (the *fallback*, counted in
//! [`QueueCounters::fallback`]), so a line is sorted whatever is put on
//! it. The fronts of the nonempty lines sit in a small binary heap.
//!
//! # The head entry
//!
//! The backend's earliest entry is held out of it, beside the line
//! fronts; an insert that sorts before it swaps places with it. Whether
//! the next event shares the instant being drained is therefore two
//! comparisons on every backend — the backend is only asked to `insert`
//! and `pop`, and it holds only what has to wait: timers, and fallbacks.

use crate::arena::PktId;
use crate::calendar::{CalendarQueue, CalendarStats};
use crate::packet::{FlowId, LinkId};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Everything that can happen in the network simulator.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A packet arrives at the ingress of `link` and must be enqueued
    /// (or transmitted immediately if the link is idle).
    ///
    /// Packet-carrying events store a [`PktId`] handle into the engine's
    /// [`crate::arena::PacketArena`] rather than the packet itself, so
    /// the scheduler moves 16-byte events instead of 56-byte ones and
    /// the hot Arrive → TxComplete → Propagated chain keeps the packet
    /// in one arena slot instead of copying it through every bucket
    /// operation.
    Arrive {
        /// Link whose ingress queue receives the packet.
        link: LinkId,
        /// Arena handle of the arriving packet.
        pkt: PktId,
    },
    /// `link` finished serializing `pkt`; the packet begins propagating and
    /// the link pulls the next packet from its queue.
    TxComplete {
        /// Link that finished serialization.
        link: LinkId,
        /// Arena handle of the packet now propagating.
        pkt: PktId,
    },
    /// `pkt` finished propagating across `link` and is delivered to the far
    /// end: the next hop of its path, the receiver (data) or the sender
    /// (an acknowledgment).
    Propagated {
        /// Link whose far end the packet reached.
        link: LinkId,
        /// Arena handle of the delivered packet.
        pkt: PktId,
    },
    /// Pacing-timer wakeup for a sender that was clocked out.
    SenderWake {
        /// Flow whose sender wakes.
        flow: FlowId,
    },
    /// Retransmission-timeout check. `gen` guards against stale timers:
    /// the event is ignored unless it matches the sender's current RTO
    /// generation.
    RtoCheck {
        /// Flow whose RTO is checked.
        flow: FlowId,
        /// RTO generation the timer was armed for.
        gen: u64,
    },
    /// The ON/OFF workload process for `flow` toggles state. Workload
    /// timers are never cancelled, so they carry no generation.
    WorkloadToggle {
        /// Flow whose workload toggles.
        flow: FlowId,
    },
    /// A new transfer arrives at an unblocked (M/G/∞) churn slot: the
    /// slot's concurrent-flow count increments and the next Poisson
    /// arrival is drawn.
    FlowArrival {
        /// Churn slot the transfer arrives at.
        flow: FlowId,
    },
    /// One transfer of an unblocked churn slot completes; the slot turns
    /// OFF when its concurrent-flow count reaches zero.
    FlowDeparture {
        /// Churn slot the transfer departs from.
        flow: FlowId,
    },
    /// An [`FaultSpec::Outage`](crate::topology::FaultSpec) blackout
    /// begins on `link`: the link stops starting new transmissions.
    LinkDown {
        /// Link going dark.
        link: LinkId,
    },
    /// The outage on `link` ends: held packets resume service and the
    /// next blackout is scheduled.
    LinkUp {
        /// Link coming back up.
        link: LinkId,
    },
    /// A receiver's delayed-ACK flush timer fires for `flow`: whatever
    /// run of deliveries the receiver is still holding is acknowledged
    /// now (see [`crate::topology::ReceiverSpec::flush_timer_s`]). `gen`
    /// guards against stale timers exactly as in [`Event::RtoCheck`]:
    /// every flush bumps the receiver's timer generation, so a timer
    /// scheduled for an already-flushed batch is ignored.
    AckTimer {
        /// Flow whose receiver flushes.
        flow: FlowId,
        /// Receiver timer generation the flush was armed for.
        gen: u64,
    },
}

/// The kind of an [`Event`] without its payload, each variant named after
/// the `Event` variant it stands for; `kind as usize` indexes
/// [`crate::sim::RunOutcome::events_by_kind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum EventKind {
    Arrive,
    TxComplete,
    Propagated,
    SenderWake,
    RtoCheck,
    WorkloadToggle,
    FlowArrival,
    FlowDeparture,
    LinkDown,
    LinkUp,
    AckTimer,
}

impl EventKind {
    /// Number of kinds.
    pub const COUNT: usize = EventKind::AckTimer as usize + 1;
}

impl Event {
    /// This event's kind.
    #[inline]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Arrive { .. } => EventKind::Arrive,
            Event::TxComplete { .. } => EventKind::TxComplete,
            Event::Propagated { .. } => EventKind::Propagated,
            Event::SenderWake { .. } => EventKind::SenderWake,
            Event::RtoCheck { .. } => EventKind::RtoCheck,
            Event::WorkloadToggle { .. } => EventKind::WorkloadToggle,
            Event::FlowArrival { .. } => EventKind::FlowArrival,
            Event::FlowDeparture { .. } => EventKind::FlowDeparture,
            Event::LinkDown { .. } => EventKind::LinkDown,
            Event::LinkUp { .. } => EventKind::LinkUp,
            Event::AckTimer { .. } => EventKind::AckTimer,
        }
    }

    /// The arena handle a packet-carrying event holds.
    #[inline]
    pub fn pkt(&self) -> Option<PktId> {
        match *self {
            Event::Arrive { pkt, .. }
            | Event::TxComplete { pkt, .. }
            | Event::Propagated { pkt, .. } => Some(pkt),
            _ => None,
        }
    }
}

/// A scheduled event with its firing time and tie-breaking sequence.
#[derive(Debug)]
pub struct Entry {
    /// Firing time.
    pub at: SimTime,
    /// Insertion sequence number (FIFO tie-break at equal times).
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A pending-event set ordered by `(time, seq)`.
///
/// The engine assigns `seq` (strictly increasing per queue), so backends
/// never see duplicate keys; `pop` must return the entry with the
/// smallest `(at, seq)` — FIFO among same-instant events. Implementations
/// must be deterministic: the same insert/pop sequence produces the same
/// pops, bit for bit, on every platform.
pub trait Scheduler {
    /// Insert an entry. `at` may be earlier than previously popped times
    /// (the engine never does this, but order-equivalence tests do).
    fn insert(&mut self, at: SimTime, seq: u64, event: Event);

    /// Remove and return the entry with the smallest `(at, seq)`.
    fn pop(&mut self) -> Option<Entry>;

    /// Number of pending entries.
    fn len(&self) -> usize;

    /// Whether no entries are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reference backend: a binary min-heap on `(time, seq)`.
#[derive(Debug, Default)]
pub struct BinaryHeapScheduler {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl BinaryHeapScheduler {
    /// An empty heap-backed scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for BinaryHeapScheduler {
    fn insert(&mut self, at: SimTime, seq: u64, event: Event) {
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    fn pop(&mut self) -> Option<Entry> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Which event-queue backend a simulation runs on.
///
/// Both backends produce bit-identical simulations; they differ only in
/// per-event cost. `Calendar` is the default (O(1) amortized vs the
/// heap's O(log n)); `Heap` remains selectable as the reference
/// implementation and for order-equivalence regression tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Binary min-heap (`BinaryHeap<Reverse<Entry>>`).
    Heap,
    /// Bucketed calendar queue ([`crate::calendar::CalendarQueue`]).
    #[default]
    Calendar,
}

enum Backend {
    Heap(BinaryHeapScheduler),
    Calendar(CalendarQueue),
}

/// A delay line of an [`EventQueue`] (see the module docs), opened by
/// [`EventQueue::line`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line(u32);

/// Where an [`EventQueue`]'s events went, counted as they were scheduled,
/// and what its calendar backend did with its share. Always on: one
/// increment per event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Events appended to the same-instant lane.
    pub lane: u64,
    /// Events appended to a delay line.
    pub line: u64,
    /// Events inserted into the backend: timers, and line fallbacks.
    pub backend: u64,
    /// Events scheduled on a line that were earlier than its tail and took
    /// the backend insert instead (also counted in `backend`).
    pub fallback: u64,
    /// The calendar backend's own counters (zero on other backends).
    pub calendar: CalendarStats,
}

/// Deterministic time-ordered event queue over a selectable backend.
///
/// Owns the tie-breaking sequence counter, the same-instant lane, the
/// delay lines and the held-out head of the selected [`Scheduler`] (see
/// the module docs). The two backends are enum-dispatched (no virtual
/// call on the hot path).
pub struct EventQueue {
    backend: Backend,
    /// The backend's earliest entry, held out of it: `None` exactly when
    /// the backend is empty.
    head: Option<Entry>,
    /// The delay lines, each sorted by `(at, seq)`.
    lines: Vec<VecDeque<Entry>>,
    /// `(at, seq, line)` of each nonempty line's front, earliest on top.
    fronts: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_seq: u64,
    /// The instant [`pop`](Self::pop) last handed out: whatever is
    /// scheduled for it from now on goes to `lane`.
    lane_at: Option<SimTime>,
    /// Events scheduled for `lane_at` while it was being dispatched, in
    /// seq order (see the module docs).
    lane: VecDeque<Event>,
    counters: QueueCounters,
}

/// Which source holds the earliest event outside the lane.
#[derive(Clone, Copy)]
enum Source {
    Line(u32),
    Head,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An event queue on the default backend ([`SchedulerKind::Calendar`]).
    pub fn new() -> Self {
        Self::with_kind(SchedulerKind::default())
    }

    /// An event queue on the chosen backend.
    pub fn with_kind(kind: SchedulerKind) -> Self {
        Self::with_kind_and_hint(kind, None)
    }

    /// An event queue on the chosen backend, with an expected spacing
    /// between the backend's entries: the calendar queue starts its
    /// bucket width from it, the heap ignores it. The engine passes none
    /// ([`Self::with_kind`]); tests and the benchmark's hold probes use
    /// it to pin a calendar width.
    pub fn with_kind_and_hint(kind: SchedulerKind, spacing_hint: Option<SimDuration>) -> Self {
        let backend = match kind {
            SchedulerKind::Heap => Backend::Heap(BinaryHeapScheduler::new()),
            SchedulerKind::Calendar => Backend::Calendar(match spacing_hint {
                Some(h) => CalendarQueue::with_width_hint(h),
                None => CalendarQueue::new(),
            }),
        };
        EventQueue {
            backend,
            head: None,
            lines: Vec::new(),
            fronts: BinaryHeap::new(),
            next_seq: 0,
            lane_at: None,
            lane: VecDeque::new(),
            counters: QueueCounters::default(),
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> SchedulerKind {
        match &self.backend {
            Backend::Heap(_) => SchedulerKind::Heap,
            Backend::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    /// Open a new, empty delay line.
    pub fn line(&mut self) -> Line {
        self.lines.push(VecDeque::new());
        Line(self.lines.len() as u32 - 1)
    }

    /// The routing and backend counters so far.
    pub fn counters(&self) -> QueueCounters {
        let mut c = self.counters;
        if let Backend::Calendar(cal) = &self.backend {
            c.calendar = cal.stats();
        }
        c
    }

    /// Schedule `event` to fire at `at`. Time only moves forward through
    /// the queue: `at` must not precede the instant [`pop`](Self::pop)
    /// last handed out.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve_seq();
        if self.lane_at == Some(at) {
            self.counters.lane += 1;
            self.lane.push_back(event);
        } else {
            self.insert_reserved(at, seq, event);
        }
    }

    /// Schedule `event` at `at` on `line`: appended to it when not earlier
    /// than its tail, otherwise inserted into the backend. Either way it
    /// takes the position [`schedule`](Self::schedule) would have given
    /// it.
    #[inline]
    pub fn schedule_on(&mut self, line: Line, at: SimTime, event: Event) {
        let seq = self.reserve_seq();
        if self.lane_at == Some(at) {
            self.counters.lane += 1;
            self.lane.push_back(event);
            return;
        }
        let q = &mut self.lines[line.0 as usize];
        match q.back() {
            Some(tail) if at < tail.at => {
                self.counters.fallback += 1;
                self.insert_reserved(at, seq, event);
            }
            tail => {
                if tail.is_none() {
                    self.fronts.push(Reverse((at, seq, line.0)));
                }
                q.push_back(Entry { at, seq, event });
                self.counters.line += 1;
            }
        }
    }

    /// Draw the next insertion seq without scheduling anything: the
    /// tie-break position an event would take were it scheduled now,
    /// claimable later through [`insert_reserved`](Self::insert_reserved).
    /// The engine's lazily re-armed RTO check uses the pair to fire at
    /// the queue position the eagerly scheduled one had.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Insert `event` into the backend at `(at, seq)`, `seq` drawn earlier
    /// from [`reserve_seq`](Self::reserve_seq) and used at most once. `at`
    /// must be later than the instant `pop` last handed out: a reserved
    /// seq may predate the lane's, so it cannot join it.
    #[inline]
    pub fn insert_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(
            self.lane_at.is_none_or(|t| at > t),
            "scheduled into the past of the instant being dispatched"
        );
        self.counters.backend += 1;
        let entry = Entry { at, seq, event };
        let spill = match &mut self.head {
            None => {
                self.head = Some(entry);
                return;
            }
            Some(head) if entry < *head => std::mem::replace(head, entry),
            Some(_) => entry,
        };
        match &mut self.backend {
            Backend::Heap(s) => s.insert(spill.at, spill.seq, spill.event),
            Backend::Calendar(s) => s.insert(spill.at, spill.seq, spill.event),
        }
    }

    /// The source of the earliest event outside the lane, and its time.
    #[inline]
    fn next(&self) -> Option<(SimTime, Source)> {
        let line = self.fronts.peek().map(|&Reverse(front)| front);
        match (line, &self.head) {
            (Some((at, seq, l)), Some(h)) if (at, seq) < (h.at, h.seq) => {
                Some((at, Source::Line(l)))
            }
            (_, Some(h)) => Some((h.at, Source::Head)),
            (Some((at, _, l)), None) => Some((at, Source::Line(l))),
            (None, None) => None,
        }
    }

    /// Remove the earliest event of `source` (which [`next`](Self::next)
    /// named).
    #[inline]
    fn take(&mut self, source: Source) -> Entry {
        match source {
            Source::Line(l) => {
                let q = &mut self.lines[l as usize];
                let e = q.pop_front().expect("a line in `fronts` is nonempty");
                match q.front() {
                    Some(f) => {
                        *self.fronts.peek_mut().expect("its front is on top") =
                            Reverse((f.at, f.seq, l));
                    }
                    None => {
                        self.fronts.pop();
                    }
                }
                e
            }
            Source::Head => {
                let next = match &mut self.backend {
                    Backend::Heap(s) => s.pop(),
                    Backend::Calendar(s) => s.pop(),
                };
                std::mem::replace(&mut self.head, next).expect("`next` named the head")
            }
        }
    }

    /// Pop the earliest event (FIFO among same-instant events): a line or
    /// backend entry due at the instant last handed out, then that
    /// instant's lane, then the next instant.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        match self.next() {
            Some((at, source)) if self.lane.is_empty() || self.lane_at == Some(at) => {
                self.lane_at = Some(at);
                Some((at, self.take(source).event))
            }
            _ => Some((self.lane_at?, self.lane.pop_front()?)),
        }
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.lane.is_empty() {
            return self.lane_at;
        }
        self.next().map(|(at, _)| at)
    }

    /// Number of pending events, wherever they wait.
    pub fn len(&self) -> usize {
        let backend = match &self.backend {
            Backend::Heap(s) => s.len(),
            Backend::Calendar(s) => s.len(),
        };
        self.lane.len()
            + self.lines.iter().map(VecDeque::len).sum::<usize>()
            + usize::from(self.head.is_some())
            + backend
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn wake(flow: u32) -> Event {
        Event::SenderWake { flow: FlowId(flow) }
    }

    fn queues_under_test() -> Vec<EventQueue> {
        vec![
            EventQueue::with_kind(SchedulerKind::Heap),
            EventQueue::with_kind(SchedulerKind::Calendar),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in queues_under_test() {
            let t = |s| SimTime::from_secs_f64(s);
            q.schedule(t(3.0), wake(3));
            q.schedule(t(1.0), wake(1));
            q.schedule(t(2.0), wake(2));
            let order: Vec<f64> = std::iter::from_fn(|| q.pop())
                .map(|(at, _)| at.as_secs_f64())
                .collect();
            assert_eq!(order, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn same_instant_is_fifo() {
        for mut q in queues_under_test() {
            let t = SimTime::from_secs_f64(1.0);
            for i in 0..10 {
                q.schedule(t, wake(i));
            }
            for i in 0..10 {
                match q.pop().unwrap().1 {
                    Event::SenderWake { flow } => assert_eq!(flow, FlowId(i)),
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
    }

    #[test]
    fn peek_matches_pop() {
        for mut q in queues_under_test() {
            assert_eq!(q.peek_time(), None);
            q.schedule(SimTime::from_secs_f64(5.0), wake(0));
            q.schedule(SimTime::from_secs_f64(4.0), wake(1));
            assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(4.0)));
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(5.0)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        for mut q in queues_under_test() {
            let t = |s| SimTime::ZERO + SimDuration::from_millis(s);
            q.schedule(t(10), wake(0));
            q.schedule(t(30), wake(1));
            let (at, _) = q.pop().unwrap();
            assert_eq!(at, t(10));
            // schedule something earlier than the remaining event
            q.schedule(t(20), wake(2));
            let (at, _) = q.pop().unwrap();
            assert_eq!(at, t(20));
            let (at, _) = q.pop().unwrap();
            assert_eq!(at, t(30));
            assert!(q.is_empty());
        }
    }

    /// Pop one event as `(nanos, flow)`.
    fn popped(q: &mut EventQueue) -> Option<(u64, u32)> {
        q.pop().map(|(at, ev)| match ev {
            Event::SenderWake { flow } => (at.as_nanos(), flow.0),
            other => panic!("unexpected event {other:?}"),
        })
    }

    #[test]
    fn pop_hands_out_the_instant_before_its_lane() {
        // What only one-at-a-time popping meets: events scheduled for the
        // instant being dispatched while line and backend entries at that
        // instant remain. Those entries carry earlier seqs, so they go
        // first, then the lane, in seq order.
        for mut q in queues_under_test() {
            let t = SimTime::from_nanos;
            let line = q.line();
            q.schedule(t(100), wake(0));
            q.schedule_on(line, t(100), wake(1));
            q.schedule(t(100), wake(2));
            q.schedule(t(200), wake(3));
            assert_eq!(popped(&mut q), Some((100, 0)));
            // What dispatching wake 0 schedules: two at its instant (the
            // lane) and one on the line, later.
            q.schedule(t(100), wake(4));
            q.schedule_on(line, t(150), wake(5));
            q.schedule(t(100), wake(6));
            assert_eq!(q.len(), 6);
            assert_eq!(q.peek_time(), Some(t(100)));
            assert_eq!(popped(&mut q), Some((100, 1)), "the line before the lane");
            assert_eq!(
                popped(&mut q),
                Some((100, 2)),
                "the backend before the lane"
            );
            assert_eq!(popped(&mut q), Some((100, 4)));
            q.schedule(t(100), wake(7));
            let rest: Vec<_> = std::iter::from_fn(|| popped(&mut q)).collect();
            assert_eq!(rest, vec![(100, 6), (100, 7), (150, 5), (200, 3)]);
            assert!(q.is_empty());
            assert_eq!(q.counters().lane, 3);
        }
    }

    #[test]
    fn same_instant_arrivals_become_the_next_batch() {
        for mut q in queues_under_test() {
            let t = SimTime::from_nanos;
            q.schedule(t(100), wake(0));
            q.schedule(t(100), wake(1));
            q.schedule(t(200), wake(2));
            assert_eq!(popped(&mut q), Some((100, 0)));
            assert_eq!(popped(&mut q), Some((100, 1)));
            // What dispatching them schedules: two more at the instant
            // (the lane), one between it and the next.
            q.schedule(t(100), wake(3));
            q.schedule(t(150), wake(4));
            q.schedule(t(100), wake(5));
            assert_eq!(q.len(), 4, "the lane counts");
            assert!(!q.is_empty());
            assert_eq!(q.peek_time(), Some(t(100)));
            assert_eq!(popped(&mut q), Some((100, 3)));
            // Scheduled while the lane drains: it queues behind wake 5.
            q.schedule(t(100), wake(6));
            let rest: Vec<_> = std::iter::from_fn(|| popped(&mut q)).collect();
            assert_eq!(rest, vec![(100, 5), (100, 6), (150, 4), (200, 2)]);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn a_reserved_position_sorts_where_it_was_drawn() {
        for mut q in queues_under_test() {
            let t = SimTime::from_nanos(500);
            q.schedule(t, wake(0));
            let seq = q.reserve_seq();
            q.schedule(t, wake(2));
            q.insert_reserved(t, seq, wake(1));
            let order: Vec<_> = std::iter::from_fn(|| popped(&mut q)).collect();
            assert_eq!(order, vec![(500, 0), (500, 1), (500, 2)]);
        }
    }

    #[test]
    fn lines_merge_with_the_backend_and_refuse_disorder() {
        for mut q in queues_under_test() {
            let t = SimTime::from_nanos;
            let (a, b) = (q.line(), q.line());
            q.schedule_on(a, t(300), wake(0));
            q.schedule(t(200), wake(1));
            q.schedule_on(b, t(300), wake(2));
            q.schedule_on(a, t(400), wake(3));
            // Earlier than line a's tail: it must not wait behind wake 3.
            q.schedule_on(a, t(100), wake(4));
            assert_eq!(q.len(), 5);
            assert_eq!(q.peek_time(), Some(t(100)));
            let order: Vec<_> = std::iter::from_fn(|| popped(&mut q)).collect();
            assert_eq!(
                order,
                vec![(100, 4), (200, 1), (300, 0), (300, 2), (400, 3)]
            );
            let c = q.counters();
            assert_eq!((c.lane, c.line, c.backend, c.fallback), (0, 3, 2, 1));
        }
    }

    #[test]
    fn kind_parsing_and_default() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Calendar);
        assert_eq!(
            EventQueue::new().kind(),
            SchedulerKind::Calendar,
            "default queue runs on the calendar backend"
        );
    }
}
