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
//! They also pin the contract the engine's same-instant lane rests on:
//! `pop` followed by `pop_at` until `None` drains the *whole* instant, on
//! both backends, across forced retunes and sparse global-minimum pops;
//! and an [`EventQueue`] whose same-instant arrivals ride the lane
//! dispatches exactly what a plain heap fed one event at a time would.

use netsim::calendar::CalendarQueue;
use netsim::event::{BinaryHeapScheduler, Event, EventQueue, Scheduler};
use netsim::packet::FlowId;
use netsim::prelude::*;
use proptest::prelude::*;

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
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
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

/// `pop`, then `pop_at` until it says the instant is drained.
fn pop_instant(s: &mut impl Scheduler) -> Vec<(SimTime, u64)> {
    let Some(first) = s.pop() else {
        return Vec::new();
    };
    let at = first.at;
    let mut run = vec![(at, first.seq)];
    while let Some(e) = s.pop_at(at) {
        run.push((e.at, e.seq));
    }
    run
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

    /// `pop_at` answers `None` only once nothing at the instant is left,
    /// whatever the calendar did in between (retune rebuild after the tie
    /// count was taken, sparse global-minimum pop, today-buffer drain),
    /// and the runs it hands out are the heap's.
    #[test]
    fn pop_at_drains_the_whole_instant_on_both_backends(
        hint_nanos in width_hint(),
        // Few distinct instants over a small population keeps ties common
        // at every width; runs above TODAY_DRAIN take the buffer path.
        script in collection::vec((0u8..=5, 0u64..=u64::MAX), 0..400),
    ) {
        let mut heap = BinaryHeapScheduler::new();
        let mut cal = CalendarQueue::with_width_hint(SimDuration::from_nanos(hint_nanos));
        let mut seq = 0u64;
        let mut floor = 0u64;
        for (mode, raw) in script {
            let nanos = match mode {
                // One whole instant off both queues.
                0 => {
                    let (h, c) = (pop_instant(&mut heap), pop_instant(&mut cal));
                    prop_assert_eq!(&h, &c);
                    if let Some(&(at, _)) = c.first() {
                        prop_assert!(cal.peek_time() != Some(at), "calendar left a tie behind");
                        floor = at.as_nanos();
                    }
                    prop_assert_eq!(heap.len(), cal.len());
                    continue;
                }
                // Ahead of the last drained instant, as the engine
                // schedules: on a coarse grid (ties), spread out (sparse
                // years), or piled onto one instant (tie bursts).
                1 | 2 => floor + 1 + (raw % 8) * 1_000,
                3 => floor + 1 + raw % 1_000_000_000,
                4 => floor + 5_000,
                _ => 1_000_000_000 + raw % 60_000_000_000,
            };
            let at = SimTime::from_nanos(nanos);
            heap.insert(at, seq, wake(seq));
            cal.insert(at, seq, wake(seq));
            seq += 1;
        }
        loop {
            let (h, c) = (pop_instant(&mut heap), pop_instant(&mut cal));
            prop_assert_eq!(&h, &c);
            let Some(&(at, _)) = c.first() else { break };
            prop_assert!(cal.peek_time() != Some(at), "calendar left a tie behind");
        }
    }

    /// An [`EventQueue`] drained by `pop_batch`, with everything the
    /// handlers schedule for the instant being dispatched riding the
    /// same-instant lane, dispatches the sequence a plain heap popped one
    /// event at a time does — and `len`, `is_empty` and `peek_time` count
    /// the lane.
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

        // Reference: one heap, one pop per dispatch, no lane.
        let mut heap = BinaryHeapScheduler::new();
        let mut next_id = 0u64;
        for &s in &seeds {
            heap.insert(SimTime::from_nanos(s * 1_000), next_id, wake(next_id));
            next_id += 1;
        }
        let mut expect = Vec::new();
        let mut state_after = Vec::new();
        while let Some(e) = heap.pop() {
            let id = wake_flow(&e.event) as u64;
            expect.push((e.at, id));
            for t in children(id, e.at.as_nanos()) {
                if next_id < MAX_EVENTS {
                    heap.insert(SimTime::from_nanos(t), next_id, wake(next_id));
                    next_id += 1;
                }
            }
            state_after.push((heap.len(), heap.peek_time()));
        }

        let hint = Some(SimDuration::from_nanos(hint_nanos));
        for mut q in [
            EventQueue::with_kind_and_hint(SchedulerKind::Heap, hint),
            EventQueue::with_kind_and_hint(SchedulerKind::Calendar, hint),
            EventQueue::custom(Box::new(BinaryHeapScheduler::new())),
        ] {
            let mut next_id = 0u64;
            for &s in &seeds {
                q.schedule(SimTime::from_nanos(s * 1_000), wake(next_id));
                next_id += 1;
            }
            let mut got = Vec::new();
            let mut batch = Vec::new();
            while let Some(at) = q.pop_batch(&mut batch) {
                for ev in batch.drain(..) {
                    let id = wake_flow(&ev) as u64;
                    got.push((at, id));
                    for t in children(id, at.as_nanos()) {
                        if next_id < MAX_EVENTS {
                            q.schedule(SimTime::from_nanos(t), wake(next_id));
                            next_id += 1;
                        }
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

/// The sparse global-minimum pop never counted ties, so `pop_at` used
/// to answer "none" with the second of a pair still queued.
#[test]
fn pop_at_drains_the_instant_after_a_global_min_pop() {
    // One-nanosecond days, sixteen of them to a year: pairs a microsecond
    // apart are many dry years from each other, so every pop after the
    // first walks a whole year and falls to the direct search (32 entries
    // stay under the first growth rebuild, which would fix the width).
    let mut cal = CalendarQueue::with_width_hint(SimDuration::ZERO);
    for seq in 0..32u64 {
        cal.insert(SimTime::from_nanos(1 + (seq / 2) * 1_000), seq, wake(seq));
    }
    for pair in 0..16u64 {
        let run = pop_instant(&mut cal);
        assert_eq!(run.len(), 2, "pair {pair} came out split: {run:?}");
    }
}

/// A degenerate pop retunes on its way out — after its scan counted the
/// ties — and the rebuild used to reset the tie flag.
#[test]
fn pop_at_drains_the_instant_across_a_retune() {
    let mut cal = CalendarQueue::new();
    let mut seq = 0u64;
    let mut push = |cal: &mut CalendarQueue, nanos: u64| {
        cal.insert(SimTime::from_nanos(nanos), seq, wake(seq));
        seq += 1;
    };
    // Far-apart timers first, so the growth rebuilds estimate second-wide
    // days; then a dense cluster of same-instant pairs, which all hash
    // into one such day. The population stays between the growth and
    // shrink thresholds from here on, so only a retune can fix the width.
    for i in 1..=33u64 {
        push(&mut cal, i * 1_000_000_000);
    }
    let mut next_pair = 1_000u64;
    for _ in 0..40 {
        push(&mut cal, next_pair);
        push(&mut cal, next_pair);
        next_pair += 500;
    }
    let wide = cal.bucket_width();
    assert!(
        wide > SimDuration::from_millis(100),
        "days are wide: {wide:?}"
    );
    // Hold model: every pop scans the 80-entry day (degenerate); once the
    // post-rebuild cooldown has passed, the sixteenth such pop retunes.
    for round in 0..1_200 {
        let run = pop_instant(&mut cal);
        assert_eq!(run.len(), 2, "round {round} came out split: {run:?}");
        push(&mut cal, next_pair);
        push(&mut cal, next_pair);
        next_pair += 500;
    }
    assert!(
        cal.bucket_width() < wide,
        "the retune this test is about ran"
    );
}
