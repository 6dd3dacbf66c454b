//! Order-equivalence of the scheduler backends.
//!
//! The engine's determinism contract says any [`Scheduler`] backend must
//! realize the identical `(time, insertion-seq)` total order. These
//! properties drive the calendar queue and the reference binary heap
//! through arbitrary interleaved insert/pop sequences — dense
//! microsecond-scale times with exact same-instant ties, second-scale
//! times, far-future RTO-like timers, and instants at the saturated end
//! of the u64-nanosecond horizon — and require every pop to match.
//!
//! They also pin what the engine's [`EventQueue`] adds in front of its
//! backend: whatever mix of plain schedules, delay-line appends (in
//! order, or out of order and so sent to the backend), reserved
//! positions and same-instant lane hits it is fed, `pop` hands out
//! exactly the order a plain `BinaryHeap<(time, seq)>` pops — on every
//! backend, across forced retunes and sparse global-minimum pops.

use netsim::calendar::CalendarQueue;
use netsim::event::{BinaryHeapScheduler, Event, EventQueue, Scheduler};
use netsim::packet::FlowId;
use netsim::prelude::*;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scripted queue operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push(u64),
    Pop,
}

/// Decode a `(mode, raw)` pair into an operation. Push modes deliberately
/// cover the regimes a simulation produces: mode 1 quantizes to whole
/// microseconds over a tiny horizon so exact ties are common, mode 3 is
/// an RTO-style far-future timer (seconds to a minute out), and mode 4
/// sits within a hair of `u64::MAX` (the saturated `SimTime` edge).
fn decode(mode: u8, raw: u64) -> Op {
    match mode {
        0 => Op::Pop,
        1 => Op::Push((raw % 64) * 1_000),
        2 => Op::Push(raw % 1_000_000_000),
        3 => Op::Push(1_000_000_000 + raw % 60_000_000_000),
        _ => Op::Push(u64::MAX - raw % 1_000),
    }
}

fn wake(seq: u64) -> Event {
    Event::SenderWake {
        flow: FlowId(seq as u32),
    }
}

/// The event payload is identified by the wake's flow id (set from the
/// insertion seq), so comparing it checks payload routing too.
fn wake_flow(ev: &Event) -> u32 {
    match ev {
        Event::SenderWake { flow } => flow.0,
        other => panic!("scheduler invented an event: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every pop from the calendar queue matches the heap, op for op,
    /// across arbitrary interleavings; both drain to the same sequence.
    #[test]
    fn calendar_matches_heap_pop_for_pop(
        script in collection::vec((0u8..=4, 0u64..=u64::MAX), 0..300),
    ) {
        let mut heap = BinaryHeapScheduler::new();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        for (mode, raw) in script {
            match decode(mode, raw) {
                Op::Push(nanos) => {
                    let at = SimTime::from_nanos(nanos);
                    heap.insert(at, seq, wake(seq));
                    cal.insert(at, seq, wake(seq));
                    seq += 1;
                }
                Op::Pop => {
                    let (h, c) = (heap.pop(), cal.pop());
                    match (h, c) {
                        (None, None) => {}
                        (Some(h), Some(c)) => {
                            prop_assert_eq!(h.at, c.at);
                            prop_assert_eq!(h.seq, c.seq);
                            prop_assert_eq!(wake_flow(&h.event), wake_flow(&c.event));
                        }
                        (h, c) => prop_assert!(false, "pop divergence: heap={h:?} cal={c:?}"),
                    }
                }
            }
            prop_assert_eq!(heap.len(), cal.len());
        }
        // Drain what's left; order must still agree exactly.
        loop {
            let (h, c) = (heap.pop(), cal.pop());
            match (h, c) {
                (None, None) => break,
                (Some(h), Some(c)) => {
                    prop_assert_eq!((h.at, h.seq), (c.at, c.seq));
                }
                (h, c) => prop_assert!(false, "drain divergence: heap={h:?} cal={c:?}"),
            }
        }
    }

    /// A calendar queue seeded with an arbitrary width hint still agrees
    /// with the heap (the hint tunes constants, never order).
    #[test]
    fn width_hint_never_changes_order(
        hint_nanos in 0u64..=u64::MAX,
        script in collection::vec((0u8..=4, 0u64..=u64::MAX), 0..150),
    ) {
        let mut heap = BinaryHeapScheduler::new();
        let mut cal = CalendarQueue::with_width_hint(SimDuration::from_nanos(hint_nanos));
        let mut seq = 0u64;
        for (mode, raw) in script {
            match decode(mode, raw) {
                Op::Push(nanos) => {
                    let at = SimTime::from_nanos(nanos);
                    heap.insert(at, seq, wake(seq));
                    cal.insert(at, seq, wake(seq));
                    seq += 1;
                }
                Op::Pop => {
                    let (h, c) = (heap.pop(), cal.pop());
                    prop_assert_eq!(h.map(|e| (e.at, e.seq)), c.map(|e| (e.at, e.seq)));
                }
            }
        }
        while !heap.is_empty() || !cal.is_empty() {
            let (h, c) = (heap.pop(), cal.pop());
            prop_assert_eq!(h.map(|e| (e.at, e.seq)), c.map(|e| (e.at, e.seq)));
        }
    }

    /// Same-instant bursts pop FIFO from both backends even when buried
    /// among other times — the tie-break the optimizer's bit-identical
    /// comparisons rest on.
    #[test]
    fn same_instant_bursts_stay_fifo(
        instant in 0u64..=u64::MAX - 1_000_000,
        burst in 2usize..64,
        noise in collection::vec(0u64..1_000_000u64, 0..64),
    ) {
        let at = SimTime::from_nanos(instant);
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        for _ in 0..burst {
            cal.insert(at, seq, wake(seq));
            seq += 1;
        }
        for &offset in &noise {
            cal.insert(SimTime::from_nanos(instant.saturating_add(offset + 1)), seq, wake(seq));
            seq += 1;
        }
        // The burst (seqs 0..burst) must come out first, in order.
        for expect in 0..burst as u64 {
            let e = cal.pop().unwrap();
            prop_assert_eq!(e.at, at);
            prop_assert_eq!(e.seq, expect);
        }
    }
}

/// Width hints that force each degenerate pop path: one-nanosecond days
/// (every pop walks a dry year and falls to the global-minimum search),
/// hour-wide days (every pop scans one overfull bucket until the retune
/// fires on its way out of a pop), and a sane one.
fn width_hint() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1), Just(300_000), Just(3_600_000_000_000)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// An [`EventQueue`], with everything the handlers schedule for the
    /// instant being dispatched riding the same-instant lane, dispatches
    /// the sequence a plain heap does — and after every pop `len`,
    /// `is_empty` and `peek_time` count the lane.
    #[test]
    fn lane_dispatches_what_a_plain_heap_does(
        hint_nanos in width_hint(),
        seeds in collection::vec(0u64..4, 1..8),
        reactions in collection::vec((0u8..=5, 1u64..2_000_000), 1..64),
    ) {
        // What dispatching event `id` at `at` schedules: a pure function
        // of the id, so both models react identically.
        const MAX_EVENTS: u64 = 600;
        let children = |id: u64, at: u64| -> Vec<u64> {
            let (mode, gap) = reactions[id as usize % reactions.len()];
            match mode {
                0 => vec![],
                1 => vec![at],
                2 => vec![at, at],
                3 => vec![at + gap],
                4 => vec![at, at + gap],
                _ => vec![at + gap, at, at + 2 * gap],
            }
        };

        // Reference: one heap of `(time, id)`, the id doubling as the
        // insertion seq; one pop per dispatch, no lane.
        let mut heap = BinaryHeap::new();
        let mut next_id = 0u64;
        for &s in &seeds {
            heap.push(Reverse((SimTime::from_nanos(s * 1_000), next_id)));
            next_id += 1;
        }
        let mut expect = Vec::new();
        let mut state_after = Vec::new();
        while let Some(Reverse((at, id))) = heap.pop() {
            expect.push((at, id));
            for t in children(id, at.as_nanos()) {
                if next_id < MAX_EVENTS {
                    heap.push(Reverse((SimTime::from_nanos(t), next_id)));
                    next_id += 1;
                }
            }
            state_after.push((heap.len(), heap.peek().map(|Reverse((t, _))| *t)));
        }

        let hint = Some(SimDuration::from_nanos(hint_nanos));
        for mut q in [
            EventQueue::with_kind_and_hint(SchedulerKind::Heap, hint),
            EventQueue::with_kind_and_hint(SchedulerKind::Calendar, hint),
        ] {
            let mut next_id = 0u64;
            for &s in &seeds {
                q.schedule(SimTime::from_nanos(s * 1_000), wake(next_id));
                next_id += 1;
            }
            let mut got = Vec::new();
            while let Some((at, ev)) = q.pop() {
                let id = wake_flow(&ev) as u64;
                got.push((at, id));
                for t in children(id, at.as_nanos()) {
                    if next_id < MAX_EVENTS {
                        q.schedule(SimTime::from_nanos(t), wake(next_id));
                        next_id += 1;
                    }
                }
                let (len, peek) = state_after[got.len() - 1];
                prop_assert_eq!(q.len(), len);
                prop_assert_eq!(q.is_empty(), len == 0);
                prop_assert_eq!(q.peek_time(), peek);
            }
            prop_assert_eq!(&got, &expect);
        }
    }
}

/// One scripted [`EventQueue`] operation. Times are offsets from the
/// instant the last pop handed out, as the engine schedules.
#[derive(Clone, Copy, Debug)]
enum QueueOp {
    /// `schedule` (offset 0 is a lane hit once an event has been popped,
    /// whether or not line and backend entries at that instant remain).
    Schedule(u64),
    /// `schedule_on` a line, `offset` past the instant: out of order with
    /// the line's tail whenever the tail lies further out (the fallback).
    OnLine(usize, u64),
    /// `schedule_on` a line at or after its tail: an in-order append.
    AfterTail(usize, u64),
    /// Draw a seq for a later `insert_reserved`.
    Reserve,
    /// Claim the oldest unclaimed reservation, strictly after the instant.
    Claim(u64),
    /// One `pop`.
    Pop,
    /// Pops until the earliest pending instant is drained.
    Batch,
}

const LINES: usize = 3;

fn decode_queue_op(mode: u8, raw: u64) -> QueueOp {
    // Offsets on a coarse grid (ties), spread out, or RTO-far.
    let offset = match raw % 3 {
        0 => (raw >> 8) % 8 * 1_000,
        1 => (raw >> 8) % 1_000_000_000,
        _ => 1_000_000_000 + (raw >> 8) % 60_000_000_000,
    };
    let line = (raw >> 4) as usize % LINES;
    match mode {
        0 => QueueOp::Pop,
        1 => QueueOp::Batch,
        2 => QueueOp::Schedule(offset),
        3 => QueueOp::Schedule(0),
        4 => QueueOp::OnLine(line, offset),
        5 => QueueOp::AfterTail(line, (raw >> 8) % 3 * 1_000),
        6 => QueueOp::Reserve,
        _ => QueueOp::Claim(1 + offset),
    }
}

/// Check `q`'s `len`, `is_empty` and `peek_time` against the model.
fn same_state(q: &EventQueue, model: &BinaryHeap<Reverse<(SimTime, u64)>>) {
    assert_eq!(q.len(), model.len());
    assert_eq!(q.is_empty(), model.is_empty());
    assert_eq!(q.peek_time(), model.peek().map(|Reverse((at, _))| *at));
}

/// Pop `q` and the model once each, require the same `(time, seq)`, and
/// check `q`'s state after the pop. Returns the popped time.
fn pop_both(
    q: &mut EventQueue,
    model: &mut BinaryHeap<Reverse<(SimTime, u64)>>,
) -> Option<SimTime> {
    let got = q.pop().map(|(at, ev)| (at, wake_flow(&ev) as u64));
    assert_eq!(got, model.pop().map(|Reverse(e)| e));
    same_state(q, model);
    got.map(|(at, _)| at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Lane, delay lines (appends and fallbacks), reserved positions and
    /// the backend together hand out, pop for pop and so instant for
    /// instant, what a plain heap of `(time, seq)` holds — on every
    /// backend.
    #[test]
    fn queue_batches_are_the_plain_heap_s(
        hint_nanos in width_hint(),
        script in collection::vec((0u8..=7, 0u64..=u64::MAX), 0..400),
    ) {
        let hint = Some(SimDuration::from_nanos(hint_nanos));
        for mut q in [
            EventQueue::with_kind_and_hint(SchedulerKind::Heap, hint),
            EventQueue::with_kind_and_hint(SchedulerKind::Calendar, hint),
        ] {
            let lines: Vec<_> = (0..LINES).map(|_| q.line()).collect();
            let mut model = BinaryHeap::new();
            let mut tails = [SimTime::ZERO; LINES];
            let mut reserved = std::collections::VecDeque::new();
            let (mut seq, mut floor, mut scheduled) = (0u64, 0u64, 0u64);
            for &(mode, raw) in &script {
                let at = |offset: u64| SimTime::from_nanos(floor + offset);
                let pushed = match decode_queue_op(mode, raw) {
                    QueueOp::Pop => {
                        if let Some(t) = pop_both(&mut q, &mut model) {
                            floor = t.as_nanos();
                        }
                        continue;
                    }
                    QueueOp::Batch => {
                        let Some(t) = pop_both(&mut q, &mut model) else { continue };
                        while q.peek_time() == Some(t) {
                            pop_both(&mut q, &mut model);
                        }
                        floor = t.as_nanos();
                        continue;
                    }
                    QueueOp::Schedule(offset) => {
                        q.schedule(at(offset), wake(seq));
                        Some(at(offset))
                    }
                    QueueOp::OnLine(l, offset) => {
                        q.schedule_on(lines[l], at(offset), wake(seq));
                        tails[l] = tails[l].max(at(offset));
                        Some(at(offset))
                    }
                    QueueOp::AfterTail(l, offset) => {
                        let t = tails[l].max(at(0)) + SimDuration::from_nanos(offset);
                        q.schedule_on(lines[l], t, wake(seq));
                        tails[l] = t;
                        Some(t)
                    }
                    QueueOp::Reserve => {
                        reserved.push_back(q.reserve_seq());
                        None
                    }
                    QueueOp::Claim(offset) => {
                        let Some(s) = reserved.pop_front() else { continue };
                        q.insert_reserved(at(offset), s, wake(s));
                        model.push(Reverse((at(offset), s)));
                        scheduled += 1;
                        continue;
                    }
                };
                if let Some(t) = pushed {
                    model.push(Reverse((t, seq)));
                    scheduled += 1;
                }
                seq += 1;
            }
            let c = q.counters();
            prop_assert_eq!(c.lane + c.line + c.backend, scheduled, "every event routed once");
            prop_assert!(c.fallback <= c.backend);
            while pop_both(&mut q, &mut model).is_some() {}
            prop_assert!(model.is_empty());
        }
    }
}

/// Pop two events of one instant: they must share it, and leave nothing
/// else at it.
fn pop_pair(q: &mut EventQueue, round: u64) {
    let (a, _) = q.pop().expect("a pair is pending");
    let (b, _) = q.pop().expect("a pair is pending");
    assert_eq!(a, b, "pair {round} came out split");
    assert_ne!(q.peek_time(), Some(a), "pair {round} drained its instant");
}

/// `pop` on the held-out head of a calendar whose pops all take the
/// sparse global-minimum search still hands out whole instants.
#[test]
fn pop_drains_the_instant_after_a_global_min_pop() {
    // One-nanosecond days, sixteen of them to a year: pairs a microsecond
    // apart are many dry years from each other, so every backend pop
    // after the first walks a whole year and falls to the direct search.
    let mut q = EventQueue::with_kind_and_hint(SchedulerKind::Calendar, Some(SimDuration::ZERO));
    for seq in 0..32u64 {
        q.schedule(SimTime::from_nanos(1 + (seq / 2) * 1_000), wake(seq));
    }
    for pair in 0..16u64 {
        pop_pair(&mut q, pair);
    }
}

/// The same across a width retune of the calendar backend.
#[test]
fn pop_drains_the_instant_across_a_retune() {
    let mut q = EventQueue::with_kind(SchedulerKind::Calendar);
    let mut seq = 0u64;
    let mut push = |q: &mut EventQueue, nanos: u64| {
        q.schedule(SimTime::from_nanos(nanos), wake(seq));
        seq += 1;
    };
    // Far-apart timers first, so the growth rebuilds estimate second-wide
    // days; then a dense cluster of same-instant pairs, which all hash
    // into one such day. The population stays between the growth and
    // shrink thresholds from here on, so only a retune can fix the width.
    for i in 1..=33u64 {
        push(&mut q, i * 1_000_000_000);
    }
    let mut next_pair = 1_000u64;
    for _ in 0..40 {
        push(&mut q, next_pair);
        push(&mut q, next_pair);
        next_pair += 500;
    }
    let rebuilds = q.counters().calendar.rebuilds;
    // Hold model: every pop scans the 80-entry day (degenerate); once the
    // post-rebuild cooldown has passed, the sixteenth such pop retunes.
    for round in 0..1_200 {
        pop_pair(&mut q, round);
        push(&mut q, next_pair);
        push(&mut q, next_pair);
        next_pair += 500;
    }
    assert!(
        q.counters().calendar.rebuilds > rebuilds,
        "the retune this test is about ran"
    );
}
