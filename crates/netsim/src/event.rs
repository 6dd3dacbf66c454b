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
//! event carries a later insertion seq than everything
//! [`EventQueue::pop_batch`] just handed out, and `pop_batch` hands out
//! the *whole* instant, so it sorts exactly after the current batch and
//! before everything else pending.
//! [`EventQueue::schedule`] therefore appends it to a plain `Vec` — the
//! lane — which the next `pop_batch` returns as the next batch.
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
    /// the hot Arrive → TxComplete → Propagated chain recycles arena
    /// slots instead of copying packets through every bucket operation.
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
    /// Periodic trace sample (queue occupancy time series, Fig 8).
    TraceSample,
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
    TraceSample,
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
            Event::TraceSample => EventKind::TraceSample,
            Event::LinkDown { .. } => EventKind::LinkDown,
            Event::LinkUp { .. } => EventKind::LinkUp,
            Event::AckTimer { .. } => EventKind::AckTimer,
        }
    }
}

/// FNV-1a offset basis: the seed for the run's determinism digests.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Fold one 64-bit word into an FNV-1a digest. One shared definition
/// serves both determinism probes (the engine's dispatch digest and the
/// transport's ack digest) so the two can never drift apart.
#[inline]
pub(crate) fn fnv(mut digest: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        digest ^= byte as u64;
        digest = digest.wrapping_mul(0x100000001b3);
    }
    digest
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
    /// An externally supplied [`Scheduler`] implementation.
    Custom(Box<dyn Scheduler>),
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

/// Deterministic time-ordered event queue over a pluggable backend.
///
/// Owns the tie-breaking sequence counter, the same-instant lane, the
/// delay lines and the held-out head of the selected [`Scheduler`] (see
/// the module docs). The two built-in backends are enum-dispatched (no
/// virtual call on the hot path); arbitrary backends plug in through
/// [`EventQueue::custom`].
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
    /// The instant [`pop_batch`](Self::pop_batch) last handed out: no
    /// line and no backend entry is at it, so whatever is scheduled for
    /// it next goes to `lane`.
    lane_at: Option<SimTime>,
    /// Events scheduled for `lane_at` since that batch, in seq order —
    /// the next batch (see the module docs).
    lane: Vec<Event>,
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

    /// An event queue on the chosen backend, with an expected inter-event
    /// spacing hint (the calendar queue seeds its bucket width from it;
    /// the heap ignores it). The queue self-tunes either way — the hint
    /// only avoids early resize churn.
    pub fn with_kind_and_hint(kind: SchedulerKind, spacing_hint: Option<SimDuration>) -> Self {
        let backend = match kind {
            SchedulerKind::Heap => Backend::Heap(BinaryHeapScheduler::new()),
            SchedulerKind::Calendar => Backend::Calendar(match spacing_hint {
                Some(h) => CalendarQueue::with_width_hint(h),
                None => CalendarQueue::new(),
            }),
        };
        Self::over(backend)
    }

    fn over(backend: Backend) -> Self {
        EventQueue {
            backend,
            head: None,
            lines: Vec::new(),
            fronts: BinaryHeap::new(),
            next_seq: 0,
            lane_at: None,
            lane: Vec::new(),
            counters: QueueCounters::default(),
        }
    }

    /// An event queue over an externally supplied backend.
    pub fn custom(scheduler: Box<dyn Scheduler>) -> Self {
        Self::over(Backend::Custom(scheduler))
    }

    /// Which built-in backend this queue runs on (`None` for custom).
    pub fn kind(&self) -> Option<SchedulerKind> {
        match &self.backend {
            Backend::Heap(_) => Some(SchedulerKind::Heap),
            Backend::Calendar(_) => Some(SchedulerKind::Calendar),
            Backend::Custom(_) => None,
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
    /// the queue: `at` must not precede the instant
    /// [`pop_batch`](Self::pop_batch) last handed out.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve_seq();
        if self.lane_at == Some(at) {
            self.counters.lane += 1;
            self.lane.push(event);
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
            self.lane.push(event);
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
    /// must be later than the instant `pop_batch` last handed out: a
    /// reserved seq may predate the lane's, so it cannot join it.
    #[inline]
    pub fn insert_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(
            self.lane_at.is_none_or(|t| at > t),
            "scheduled into the past of the batch being dispatched"
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
            Backend::Custom(s) => s.insert(spill.at, spill.seq, spill.event),
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
                    Backend::Custom(s) => s.pop(),
                };
                std::mem::replace(&mut self.head, next).expect("`next` named the head")
            }
        }
    }

    /// Pop the earliest event (FIFO among same-instant events).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if !self.lane.is_empty() {
            let at = self.lane_at.expect("a nonempty lane has its instant");
            return Some((at, self.lane.remove(0)));
        }
        let (_, source) = self.next()?;
        let e = self.take(source);
        Some((e.at, e.event))
    }

    /// Pop the earliest event plus every further event scheduled for the
    /// same instant, appending their payloads to `buf` in exact pop
    /// order, and return the shared firing time (`None` when the queue
    /// is empty). `buf` is not cleared — the caller owns its lifecycle
    /// and reuses its allocation across batches.
    ///
    /// Draining a whole instant before dispatching is indistinguishable
    /// from popping one event at a time: anything the caller schedules
    /// while working through `buf` carries a later insertion seq than
    /// every event drained here, so it sorts after them even at the same
    /// instant and is picked up by the next call — through the lane,
    /// since no line and no backend entry is left at the returned time.
    #[inline]
    pub fn pop_batch(&mut self, buf: &mut Vec<Event>) -> Option<SimTime> {
        if !self.lane.is_empty() {
            buf.append(&mut self.lane);
            return self.lane_at;
        }
        let (at, source) = self.next()?;
        self.lane_at = Some(at);
        buf.push(self.take(source).event);
        while let Some((t, source)) = self.next() {
            if t != at {
                break;
            }
            buf.push(self.take(source).event);
        }
        Some(at)
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
            Backend::Custom(s) => s.len(),
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
            EventQueue::custom(Box::new(BinaryHeapScheduler::new())),
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

    #[test]
    fn pop_batch_matches_single_pops() {
        // Same schedule drained two ways must yield the same flat event
        // order, with batches exactly covering the same-instant runs.
        let schedule = |q: &mut EventQueue| {
            let t = |n: u64| SimTime::from_nanos(n);
            let mut i = 0u32;
            for &(at, count) in &[
                (100u64, 3usize),
                (200, 1),
                (200, 2),
                (5_000, 90),
                (7_000, 1),
            ] {
                for _ in 0..count {
                    q.schedule(t(at), wake(i));
                    i += 1;
                }
            }
        };
        for (mut a, mut b) in queues_under_test().into_iter().zip(queues_under_test()) {
            schedule(&mut a);
            schedule(&mut b);
            let mut batched: Vec<(u64, u32)> = Vec::new();
            let mut buf = Vec::new();
            while let Some(at) = a.pop_batch(&mut buf) {
                for ev in buf.drain(..) {
                    match ev {
                        Event::SenderWake { flow } => batched.push((at.as_nanos(), flow.0)),
                        other => panic!("unexpected event {other:?}"),
                    }
                }
                // Nothing left at this instant after a batch.
                assert_ne!(a.peek_time(), Some(at), "batch drained the instant");
            }
            let mut single: Vec<(u64, u32)> = Vec::new();
            while let Some((at, ev)) = b.pop() {
                match ev {
                    Event::SenderWake { flow } => single.push((at.as_nanos(), flow.0)),
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert_eq!(batched, single);
        }
    }

    fn flows(buf: &mut Vec<Event>) -> Vec<u32> {
        buf.drain(..)
            .map(|ev| match ev {
                Event::SenderWake { flow } => flow.0,
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn same_instant_arrivals_become_the_next_batch() {
        for mut q in queues_under_test() {
            let t = SimTime::from_nanos;
            q.schedule(t(100), wake(0));
            q.schedule(t(100), wake(1));
            q.schedule(t(200), wake(2));
            let mut buf = Vec::new();
            assert_eq!(q.pop_batch(&mut buf), Some(t(100)));
            assert_eq!(flows(&mut buf), vec![0, 1]);
            // What dispatching that batch schedules: two more at the
            // instant (the lane), one between it and the next.
            q.schedule(t(100), wake(3));
            q.schedule(t(150), wake(4));
            q.schedule(t(100), wake(5));
            assert_eq!(q.len(), 4, "the lane counts");
            assert!(!q.is_empty());
            assert_eq!(q.peek_time(), Some(t(100)));
            assert_eq!(q.pop_batch(&mut buf), Some(t(100)));
            assert_eq!(flows(&mut buf), vec![3, 5]);
            // A single pop serves the lane first, too.
            q.schedule(t(100), wake(6));
            assert_eq!(q.pop().map(|(at, _)| at), Some(t(100)));
            assert_eq!(q.pop_batch(&mut buf), Some(t(150)));
            assert_eq!(q.pop_batch(&mut buf), Some(t(200)));
            assert_eq!(flows(&mut buf), vec![4, 2]);
            assert_eq!(q.pop_batch(&mut buf), None);
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
            let mut buf = Vec::new();
            assert_eq!(q.pop_batch(&mut buf), Some(t));
            assert_eq!(flows(&mut buf), vec![0, 1, 2]);
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
            let mut buf = Vec::new();
            let mut batches = Vec::new();
            while let Some(at) = q.pop_batch(&mut buf) {
                batches.push((at.as_nanos(), flows(&mut buf)));
            }
            assert_eq!(
                batches,
                vec![
                    (100, vec![4]),
                    (200, vec![1]),
                    (300, vec![0, 2]),
                    (400, vec![3])
                ]
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
            Some(SchedulerKind::Calendar),
            "default queue runs on the calendar backend"
        );
    }
}
