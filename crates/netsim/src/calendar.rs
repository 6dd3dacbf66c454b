//! Bucketed calendar queue: the default event-scheduler backend.
//!
//! A calendar queue (R. Brown, *Calendar Queues: A Fast O(1) Priority
//! Queue Implementation for the Simulation Event Set Problem*, CACM 1988)
//! hashes each event by time into an array of buckets — "days" of a
//! circular "year" — and pops by walking days in order, so both insert
//! and pop are O(1) amortized when the bucket width matches the typical
//! inter-event spacing.
//!
//! In the engine it holds only timers: pacing wakes, RTO checks,
//! workload, outage and flush timers, plus the rare packet event that
//! could not ride its delay line. The packet events themselves —
//! serializations, propagations, returning acknowledgments — are
//! scheduled in an order known in advance and wait in the
//! [`crate::event::EventQueue`]'s delay lines and same-instant lane
//! instead, so no packet burst reaches a day.
//!
//! This implementation preserves the exact `(time, insertion-seq)` total
//! order of the [`crate::event::BinaryHeapScheduler`] reference — ties at
//! the same instant pop FIFO — so the two backends are interchangeable
//! without disturbing bit-for-bit determinism (property-tested in
//! `netsim/tests/proptest_scheduler.rs`).
//!
//! # Storage: one slab, a list per day
//!
//! Every entry — its `(time, seq)` key, its 16-byte [`Event`] and a
//! `u32` link — lives in one slab, 40 bytes a slot; a day is a singly
//! linked list through the slab, and the bucket array holds only each
//! day's `u32` list head. Freed slots go on a free list threaded through
//! the same links, so the slab never holds more slots than the most
//! entries that were ever pending at once (it grows by an eighth, not by
//! doubling). A rebuild relinks the entries where they are. Storage is
//! therefore about 40 bytes per live entry plus 4 per bucket, however
//! the entries spread over the days — a day that once held dozens keeps
//! nothing for them once they have popped.
//!
//! # Tuning knobs (all self-adjusting)
//!
//! * **Bucket width** is a power of two nanoseconds (`1 << shift`), so
//!   the time→bucket hash is a shift-and-mask, not a division. It starts
//!   at 2^13 ns ≈ 8.2 µs: the engine passes no hint, because a timer's
//!   spacing is not a link's serialization time (seeded from the fastest
//!   link's, Tao's pops on the calibration dumbbell scan 4.24 keys each
//!   instead of 2.69). It is re-estimated on every resize as three times
//!   the mean gap among the earliest pending entries — head-local
//!   density, deliberately blind to the far-future timer tail (see
//!   [`estimate_shift`](self)).
//! * **Dequeue-rate retune.** The standing population is not what pops:
//!   among 10⁴ flows' RTO, arrival and departure timers the head gap is
//!   long, while short-lived pacing wakes and re-armed checks come and go
//!   between rebuilds. A day sized to the head then holds dozens of pops,
//!   each scanning the day. So the queue counts keys scanned per pop over
//!   a window — from one rebuild or check to the next, at least
//!   `max(len, 1024)` pops — and when a queue of at least
//!   `RETUNE_MIN_LEN` entries scanned more than `SCAN_RETUNE` per pop, it
//!   rebuilds with days of about `DAY_POPS` pops at the window's mean
//!   dequeue spacing (any rebuild in such a window does the same). The
//!   window needs only the [`CalendarStats`] deltas and the dequeue time
//!   at its start; nothing is stored per pop. Small queues keep the head
//!   estimate: a scan of a few dozen keys costs little, and their timers
//!   would retune for nothing.
//! * **Bucket count** is a power of two kept within a factor of two of
//!   the population: the array doubles when `len > 2 × buckets` and
//!   halves when `len < buckets / 4` (never below [`MIN_BUCKETS`]).
//! * **Degeneracy recovery:** pops that scan a long bucket (width too
//!   wide) or fall through a whole year to the direct-search path (width
//!   too narrow) increment a counter; `RETUNE_AFTER` such pops force a
//!   same-size rebuild with a fresh width estimate. A mis-seeded queue
//!   therefore converges instead of staying degenerate.
//!
//! Far-future timers cost nothing extra: an event beyond the current
//! year waits in its bucket and is skipped by the day scan until its
//! year comes around; if the queue goes sparse, the pop path jumps
//! straight to the global minimum instead of walking empty days.

use crate::event::{Entry, Event, Scheduler};
use crate::time::{SimDuration, SimTime};

/// Smallest bucket-array size (power of two).
pub const MIN_BUCKETS: usize = 16;

/// Default bucket width when no hint is given: 2^13 ns ≈ 8.2 µs.
const DEFAULT_SHIFT: u32 = 13;

/// Widest representable bucket: 2^42 ns ≈ 73 min. Wider buckets than any
/// plausible event horizon only degrade back to per-bucket linear scans.
const MAX_SHIFT: u32 = 42;

/// Entries scanned in one bucket before a pop counts as degenerate
/// (bucket width too coarse — everything hashed into one day).
const WIDE_SCAN: usize = 64;

/// Buckets walked in one pop before it counts as degenerate (bucket
/// width too fine — the day walk marches over empty days).
const LONG_WALK: usize = 64;

/// Degenerate pops tolerated before a same-size rebuild re-estimates the
/// bucket width.
const RETUNE_AFTER: u32 = 16;

/// Head-of-queue entries measured for a width estimate.
const WIDTH_SAMPLE: usize = 64;

/// Floor on the degeneracy-retune cooldown, in pops. After a rebuild,
/// degenerate pops are ignored for `max(len, this)` pops: a rebuild
/// costs O(len), so spacing rebuilds at least `len` pops apart bounds
/// their amortized cost at O(1) per pop, whatever the pops in between
/// scan. Without it, a day no width can spread (entries at one instant)
/// or a horizon the width cannot reach would rebuild every
/// [`RETUNE_AFTER`] pops.
const RETUNE_COOLDOWN_MIN: u64 = 1024;

/// Mean keys scanned per pop, over a scan-cost window, above which the
/// bucket width is re-derived from the dequeue rate (see the module
/// docs). A day of *k* due entries costs about *k*/2 keys per pop, so a
/// width that matches the dequeue rate stays well below this.
const SCAN_RETUNE: u64 = 6;

/// Smallest population the dequeue-rate retune acts on. Below it a
/// bucket scan, however wide the day, touches a few cache lines, and the
/// degeneracy retune still catches a day that swallowed everything.
const RETUNE_MIN_LEN: usize = 1024;

/// Pops a day retuned from the dequeue rate is sized for, before the
/// width rounds up to a power of two.
const DAY_POPS: u64 = 2;

/// The end of a list: no next slot, or an empty day.
const NIL: u32 = u32::MAX;

/// One slab slot: a pending entry and the link to the next entry of its
/// day — or, while the slot is free, to the next free slot.
struct Slot {
    at: u64,
    seq: u64,
    event: Event,
    next: u32,
}

/// Five words a slot: the storage cost of one pending entry.
const _SLOT_IS_FIVE_WORDS: () = assert!(std::mem::size_of::<Slot>() <= 40);

/// What a [`CalendarQueue`] did over its life (reported through
/// [`crate::event::QueueCounters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Entries popped.
    pub pops: u64,
    /// Keys the pops' bucket scans looked at.
    pub scanned: u64,
    /// Rebuilds: growth, shrinkage and width retunes.
    pub rebuilds: u64,
}

/// Bucketed calendar queue ordered by `(time, seq)`.
///
/// See the module docs for the algorithm; see [`Scheduler`] for the
/// ordering contract.
pub struct CalendarQueue {
    /// Every entry, pending or free (see "Storage" in the module docs).
    slab: Vec<Slot>,
    /// First free slot of `slab` (`NIL`: none).
    free: u32,
    /// First entry of each day's list (`NIL`: an empty day). The bucket
    /// count is `heads.len()`, always a power of two.
    heads: Vec<u32>,
    /// `heads.len() - 1`.
    mask: usize,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Start of the current day (multiple of the bucket width). No stored
    /// entry is earlier than this (inserts into the past rewind it).
    day_start: u64,
    /// Bucket index holding the current day.
    cursor: usize,
    len: usize,
    /// Consecutive-ish degenerate pops since the last retune.
    degenerate_pops: u32,
    /// Degenerate pops are ignored until `stats.pops` passes this mark
    /// (see [`RETUNE_COOLDOWN_MIN`]).
    cooldown_until: u64,
    stats: CalendarStats,
    /// `stats.pops`, `stats.scanned` and the dequeue time (nanos) when
    /// the current scan-cost window opened: at the last rebuild or scan
    /// check.
    window: (u64, u64, u64),
    /// The window's scan cost is checked once `stats.pops` reaches this.
    check_at: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty calendar queue with the default bucket width.
    pub fn new() -> Self {
        Self::with_shift(DEFAULT_SHIFT)
    }

    /// A queue whose initial bucket width approximates `expected_gap`,
    /// the typical spacing between pending entries. The width self-tunes
    /// afterwards; the hint only sets where it starts (the simulation
    /// engine gives none, tests and probes pin a width with it).
    pub fn with_width_hint(expected_gap: SimDuration) -> Self {
        Self::with_shift(shift_for_width(expected_gap.as_nanos().saturating_mul(3)))
    }

    fn with_shift(shift: u32) -> Self {
        CalendarQueue {
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            shift,
            day_start: 0,
            cursor: 0,
            len: 0,
            degenerate_pops: 0,
            cooldown_until: 0,
            stats: CalendarStats::default(),
            window: (0, 0, 0),
            check_at: RETUNE_COOLDOWN_MIN,
        }
    }

    /// What the queue did so far.
    pub fn stats(&self) -> CalendarStats {
        self.stats
    }

    #[inline]
    fn bucket_of(&self, nanos: u64) -> usize {
        ((nanos >> self.shift) as usize) & self.mask
    }

    #[inline]
    fn day_of(&self, nanos: u64) -> u64 {
        nanos & !((1u64 << self.shift) - 1)
    }

    /// Point the day walk at the day containing `nanos`.
    fn seek_to(&mut self, nanos: u64) {
        self.day_start = self.day_of(nanos);
        self.cursor = self.bucket_of(nanos);
    }

    /// Store an entry in a free slot and return the slot's index. With
    /// none free the slab grows by an eighth, so its capacity stays
    /// within about 1.125× the most entries ever pending at once.
    #[inline]
    fn alloc(&mut self, at: u64, seq: u64, event: Event) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let slot = &mut self.slab[i as usize];
            self.free = slot.next;
            slot.at = at;
            slot.seq = seq;
            slot.event = event;
            return i;
        }
        if self.slab.len() == self.slab.capacity() {
            self.slab.reserve_exact(self.slab.len() / 8 + 16);
        }
        self.slab.push(Slot {
            at,
            seq,
            event,
            next: NIL,
        });
        (self.slab.len() - 1) as u32
    }

    /// Free slot `i` (already on no list) and return its entry.
    #[inline]
    fn release(&mut self, i: u32) -> Entry {
        let slot = &mut self.slab[i as usize];
        slot.next = self.free;
        self.free = i;
        Entry {
            at: SimTime::from_nanos(slot.at),
            seq: slot.seq,
            event: slot.event,
        }
    }

    /// Put slot `i` at the front of `bucket`'s list.
    #[inline]
    fn link(&mut self, i: u32, bucket: usize) {
        self.slab[i as usize].next = self.heads[bucket];
        self.heads[bucket] = i;
    }

    /// Take slot `i` off `bucket`'s list, `prev` being the slot before it
    /// (`NIL` when `i` is the head).
    #[inline]
    fn unlink(&mut self, bucket: usize, prev: u32, i: u32) {
        let next = self.slab[i as usize].next;
        match prev {
            NIL => self.heads[bucket] = next,
            p => self.slab[p as usize].next = next,
        }
    }

    /// Rebuild with `nbuckets` buckets, re-estimating the bucket width:
    /// from the dequeue rate when the window's scans say the width is
    /// wrong, from the live population's head otherwise. The entries stay
    /// in their slots; only the links change.
    fn rebuild(&mut self, nbuckets: usize) {
        debug_assert!(nbuckets.is_power_of_two());
        // Chain every pending entry into one list.
        let mut all = NIL;
        for b in 0..self.heads.len() {
            let mut i = std::mem::replace(&mut self.heads[b], NIL);
            while i != NIL {
                let next = self.slab[i as usize].next;
                self.slab[i as usize].next = all;
                all = i;
                i = next;
            }
        }
        let min = self.chain(all).map(|s| s.at).min();
        let now = min.unwrap_or(self.day_start);
        let shift = self
            .dequeue_shift(now)
            .or_else(|| estimate_shift(self.chain(all).map(|s| s.at).collect()));
        if let Some(shift) = shift {
            self.shift = shift;
        }
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        self.mask = nbuckets - 1;
        self.seek_to(min.unwrap_or(0));
        let mut i = all;
        while i != NIL {
            let next = self.slab[i as usize].next;
            self.link(i, self.bucket_of(self.slab[i as usize].at));
            i = next;
        }
        self.degenerate_pops = 0;
        self.stats.rebuilds += 1;
        self.open_window(now);
        self.cooldown_until = self.check_at;
    }

    /// The slots of the list starting at `head`, in list order (`NIL` is
    /// past the end of any slab, so it ends the walk).
    fn chain(&self, head: u32) -> impl Iterator<Item = &Slot> {
        let mut i = head;
        std::iter::from_fn(move || {
            let slot = self.slab.get(i as usize)?;
            i = slot.next;
            Some(slot)
        })
    }

    /// Start a scan-cost window at dequeue time `now`, to be checked after
    /// `max(len, RETUNE_COOLDOWN_MIN)` pops — so the rebuild a check may
    /// trigger costs O(1) per pop, amortized, like a degeneracy retune.
    fn open_window(&mut self, now: u64) {
        self.window = (self.stats.pops, self.stats.scanned, now);
        self.check_at = self.stats.pops + (self.len as u64).max(RETUNE_COOLDOWN_MIN);
    }

    /// The width that fits the window's dequeue rate — [`DAY_POPS`] pops
    /// per day — if its pops scanned more than [`SCAN_RETUNE`] keys each
    /// on average; `None` while the width serves (or no time passed).
    fn dequeue_shift(&self, now: u64) -> Option<u32> {
        let (pops0, scanned0, at0) = self.window;
        let pops = self.stats.pops - pops0;
        if self.len < RETUNE_MIN_LEN
            || pops == 0
            || self.stats.scanned - scanned0 <= SCAN_RETUNE * pops
        {
            return None;
        }
        let span = now.checked_sub(at0).filter(|&s| s > 0)?;
        Some(shift_for_width(span.saturating_mul(DAY_POPS) / pops))
    }

    fn note_degenerate_pop(&mut self) {
        if self.stats.pops < self.cooldown_until {
            return;
        }
        self.degenerate_pops += 1;
        if self.degenerate_pops >= RETUNE_AFTER {
            self.rebuild(self.heads.len());
        }
    }

    /// Locate the entry with the global minimum `(at, seq)` as `(bucket,
    /// previous slot, slot)`. O(n + buckets); only used when the day walk
    /// comes up dry (sparse queue or a time horizon saturating u64
    /// nanoseconds).
    fn find_global_min(&self) -> Option<(usize, u32, u32)> {
        let mut best: Option<(usize, u32, u32, (u64, u64))> = None;
        for (b, &head) in self.heads.iter().enumerate() {
            let (mut prev, mut i) = (NIL, head);
            while i != NIL {
                let s = &self.slab[i as usize];
                if best.is_none_or(|(.., key)| (s.at, s.seq) < key) {
                    best = Some((b, prev, i, (s.at, s.seq)));
                }
                prev = i;
                i = s.next;
            }
        }
        best.map(|(b, prev, i, _)| (b, prev, i))
    }
}

impl Scheduler for CalendarQueue {
    fn insert(&mut self, at: SimTime, seq: u64, event: Event) {
        if self.len + 1 > self.heads.len() * 2 {
            self.rebuild(self.heads.len() * 2);
        }
        let nanos = at.as_nanos();
        // Keep the no-entry-before-day_start invariant: inserts into the
        // past (or into an empty queue whose walk position is stale)
        // rewind the day walk to the new entry.
        if self.len == 0 || nanos < self.day_start {
            self.seek_to(nanos);
        }
        let i = self.alloc(nanos, seq, event);
        self.link(i, self.bucket_of(nanos));
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Entry> {
        if self.len == 0 {
            return None;
        }
        self.stats.pops += 1;
        if self.len < self.heads.len() / 4 && self.heads.len() > MIN_BUCKETS {
            self.rebuild(self.heads.len() / 2);
        }
        let width = 1u64 << self.shift;
        for walked in 0..self.heads.len() {
            let day_last = self.day_start.saturating_add(width - 1);
            if day_last == u64::MAX {
                // The day span saturates u64: day arithmetic can no longer
                // distinguish years, so fall through to the direct search.
                break;
            }
            // The whole current day lives in this one bucket, and no entry
            // predates the current day, so the bucket-local minimum within
            // the day is the global minimum.
            let (mut prev, mut i) = (NIL, self.heads[self.cursor]);
            let (mut best_prev, mut best_i) = (NIL, NIL);
            let mut best = (u64::MAX, u64::MAX);
            let mut scanned = 0usize;
            while i != NIL {
                let s = &self.slab[i as usize];
                scanned += 1;
                if s.at <= day_last && (s.at, s.seq) < best {
                    best = (s.at, s.seq);
                    (best_prev, best_i) = (prev, i);
                }
                prev = i;
                i = s.next;
            }
            if best_i != NIL {
                self.stats.scanned += scanned as u64;
                self.unlink(self.cursor, best_prev, best_i);
                let entry = self.release(best_i);
                self.len -= 1;
                // Either degeneracy triggers a retune: a long scan of one
                // bucket (width too coarse) or a long march over empty
                // days (width too fine).
                if scanned > WIDE_SCAN || walked > LONG_WALK {
                    self.note_degenerate_pop();
                }
                // Close the scan-cost window: rebuild at the dequeue rate
                // if it scanned too much, else open the next.
                if self.stats.pops >= self.check_at {
                    match self.dequeue_shift(best.0) {
                        Some(_) => self.rebuild(self.heads.len()),
                        None => self.open_window(best.0),
                    }
                }
                return Some(entry);
            }
            self.cursor = (self.cursor + 1) & self.mask;
            self.day_start = self.day_start.saturating_add(width);
        }
        // A full year of days held nothing due: the queue is sparse
        // relative to its width. Jump straight to the global minimum.
        let (bucket, prev, i) = self.find_global_min().expect("len > 0 entries exist");
        self.unlink(bucket, prev, i);
        let entry = self.release(i);
        self.len -= 1;
        self.seek_to(entry.at.as_nanos());
        self.note_degenerate_pop();
        Some(entry)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Shift for the smallest power-of-two width ≥ `width_nanos`, clamped.
fn shift_for_width(width_nanos: u64) -> u32 {
    let w = width_nanos.clamp(1, 1 << MAX_SHIFT);
    w.next_power_of_two().trailing_zeros().min(MAX_SHIFT)
}

/// Width heuristic over the pending entries' `times`: three times the
/// mean gap across the *earlier half* of the population (never fewer
/// than [`WIDTH_SAMPLE`] entries). Pop cost is governed by density near
/// the head of the queue, so the far-future tail must not influence the
/// estimate (a global mean would let one 60 s RTO deadline widen the
/// days the microsecond-scale pacing wakes live in); but the sample must
/// also be deep enough that a few timers armed at one instant cannot
/// collapse it to nanoseconds. Half the population is both. The head is
/// found with an O(n) partial selection, not a full sort. Returns `None`
/// when the whole sampled head is a single instant (ties pop FIFO from
/// one bucket regardless of width, so the current width serves).
fn estimate_shift(mut times: Vec<u64>) -> Option<u32> {
    let n = times.len();
    if n < 2 {
        return None;
    }
    let k = (n / 2).clamp(WIDTH_SAMPLE.min(n - 1), n - 1);
    let (head, &mut kth, _) = times.select_nth_unstable(k);
    let min = head.iter().copied().min().unwrap_or(kth);
    if kth == min {
        return None;
    }
    let mean_gap = (kth - min) / k as u64;
    Some(shift_for_width(mean_gap.saturating_mul(3).max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn wake(flow: u32) -> Event {
        Event::SenderWake { flow: FlowId(flow) }
    }

    fn t(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    /// Drain the queue, asserting (time, seq) never goes backwards.
    fn drain_sorted(q: &mut CalendarQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.at.as_nanos(), e.seq));
        }
        assert!(out.windows(2).all(|w| w[0] < w[1]), "pop order broke");
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        // Deterministic pseudo-random times with duplicates.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut expect = Vec::new();
        for seq in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = x % 50_000_000; // 50 ms horizon
            q.insert(t(at), seq, wake(0));
            expect.push((at, seq));
        }
        expect.sort_unstable();
        assert_eq!(drain_sorted(&mut q), expect);
    }

    #[test]
    fn same_instant_pops_fifo() {
        let mut q = CalendarQueue::new();
        for seq in 0..100 {
            q.insert(t(1_000_000), seq, wake(seq as u32));
        }
        for seq in 0..100 {
            let e = q.pop().unwrap();
            assert_eq!(e.seq, seq);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn grows_and_shrinks_with_population() {
        let mut q = CalendarQueue::new();
        for seq in 0..10_000u64 {
            q.insert(t(seq * 1_000), seq, wake(0));
        }
        assert!(q.heads.len() >= 4096, "array grew: {}", q.heads.len());
        for _ in 0..9_990 {
            q.pop().unwrap();
        }
        assert!(q.heads.len() <= 64, "array shrank back: {}", q.heads.len());
        assert_eq!(q.len(), 10);
    }

    #[test]
    fn far_future_timers_coexist_with_dense_near_events() {
        let mut q = CalendarQueue::new();
        let mut seq = 0;
        let mut expect = Vec::new();
        // Dense near events every ~300 µs, far RTO-like timers at 1-60 s.
        for i in 0..500u64 {
            let at = i * 300_000;
            q.insert(t(at), seq, wake(0));
            expect.push((at, seq));
            seq += 1;
        }
        for i in 0..20u64 {
            let at = 1_000_000_000 + i * 3_000_000_000;
            q.insert(t(at), seq, wake(1));
            expect.push((at, seq));
            seq += 1;
        }
        expect.sort_unstable();
        assert_eq!(drain_sorted(&mut q), expect);
    }

    #[test]
    fn insert_earlier_than_current_day_rewinds() {
        let mut q = CalendarQueue::new();
        q.insert(t(10_000_000), 0, wake(0));
        assert_eq!(q.pop().unwrap().seq, 0);
        // The walk now sits at ~10 ms; push something at 1 ms.
        q.insert(t(1_000_000), 1, wake(1));
        q.insert(t(20_000_000), 2, wake(2));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
    }

    #[test]
    fn saturated_horizon_still_pops_in_order() {
        let mut q = CalendarQueue::new();
        q.insert(SimTime::MAX, 0, wake(0));
        q.insert(t(5), 1, wake(1));
        q.insert(SimTime::from_nanos(u64::MAX - 1), 2, wake(2));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn mis_seeded_width_recovers() {
        // Seed with an absurdly wide hint; dense sub-microsecond traffic
        // must trigger retuning rather than degrade to linear scans.
        let mut q = CalendarQueue::with_width_hint(SimDuration::from_secs(3600));
        let wide = q.shift;
        for seq in 0..4096u64 {
            q.insert(t(seq * 500), seq, wake(0));
        }
        for seq in 0..4096u64 {
            assert_eq!(q.pop().unwrap().seq, seq);
        }
        assert!(
            q.shift < wide,
            "width re-estimated: 2^{wide} -> 2^{} ns",
            q.shift
        );
    }

    #[test]
    fn long_tie_burst_pops_in_order() {
        let mut q = CalendarQueue::new();
        // 640 same-instant entries, plus stragglers on both sides of the
        // burst.
        let mut expect = Vec::new();
        let mut seq = 0u64;
        for &at in &[500u64, 900] {
            q.insert(t(at), seq, wake(0));
            expect.push((at, seq));
            seq += 1;
        }
        for _ in 0..640 {
            q.insert(t(700), seq, wake(1));
            expect.push((700, seq));
            seq += 1;
        }
        expect.sort_unstable();
        assert_eq!(drain_sorted(&mut q), expect);
    }

    #[test]
    fn inserts_during_a_tie_burst_stay_sorted() {
        let mut q = CalendarQueue::new();
        let base = 1_000_000u64;
        let n = 200u64; // ties at one instant
        for seq in 0..n {
            q.insert(t(base), seq, wake(0));
        }
        assert_eq!(q.pop().unwrap().seq, 0);
        // One insert at the burst's instant (later seq — pops after the
        // remaining ties) and one a few ns later.
        q.insert(t(base), n, wake(2));
        q.insert(t(base + 5), n + 1, wake(2));
        // A later-day insert while the burst drains.
        q.insert(t(base + 50_000_000), n + 2, wake(3));
        let rest = drain_sorted(&mut q);
        let mut expect: Vec<(u64, u64)> = (1..=n).map(|s| (base, s)).collect();
        expect.push((base + 5, n + 1));
        expect.push((base + 50_000_000, n + 2));
        assert_eq!(rest, expect);
    }

    #[test]
    fn insert_before_a_draining_tie_burst_rewinds() {
        let mut q = CalendarQueue::new();
        let base = 10_000_000u64;
        for seq in 0..100u64 {
            q.insert(t(base), seq, wake(0));
        }
        assert_eq!(q.pop().unwrap().seq, 0);
        // Insert earlier than the burst's day: the walk must rewind to it.
        q.insert(t(5), 100, wake(1));
        assert_eq!(q.pop().unwrap().seq, 100);
        for seq in 1..100u64 {
            assert_eq!(q.pop().unwrap().seq, seq);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn short_timers_over_long_ones_get_days_sized_to_the_dequeue_rate() {
        // 10⁴ long timers 10 µs apart, each re-armed 100 ms ahead when it
        // fires (RTO-like), under 32 short timers re-armed 32 µs ahead
        // (pacing-like): the standing population's head spacing says
        // 32 µs days, but pops come ~0.9 µs apart, so such a day holds
        // some 36 of them. Kept at that width, every pop scans ~18 keys
        // and every bucket ends up with capacity for 64.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut insert = |q: &mut CalendarQueue, at: u64, flow: u32| {
            q.insert(t(at), seq, wake(flow));
            seq += 1;
        };
        for i in 0..10_000u64 {
            insert(&mut q, 10_000_000 + i * 10_000, 0);
        }
        for i in 0..32u64 {
            insert(&mut q, i * 1_000, 1);
        }
        let mut warm = CalendarStats::default();
        for n in 0..400_000 {
            let e = q.pop().unwrap();
            let (at, Event::SenderWake { flow }) = (e.at.as_nanos(), e.event) else {
                unreachable!()
            };
            let period = if flow.0 == 1 { 32_000 } else { 100_000_000 };
            insert(&mut q, at + period, flow.0);
            if n == 50_000 {
                warm = q.stats();
            }
        }
        let s = q.stats();
        let per_pop = (s.scanned - warm.scanned) as f64 / (s.pops - warm.pops) as f64;
        assert!(per_pop <= 6.0, "{per_pop:.1} keys scanned per pop");
    }

    impl CalendarQueue {
        /// Bytes the queue holds allocated: slab and day heads.
        fn storage_bytes(&self) -> usize {
            self.slab.capacity() * std::mem::size_of::<Slot>()
                + self.heads.capacity() * std::mem::size_of::<u32>()
        }
    }

    #[test]
    fn storage_follows_the_live_population_through_retunes() {
        // 10⁴ long timers (RTO-like, re-armed 100 ms ahead) under 32 short
        // ones whose re-arm period changes by phase, while a second 10⁴
        // long timers join halfway: the dequeue rate and the population
        // both move, so the queue resizes and retunes its days several
        // times. Whatever a day once held, storage stays within 48 bytes
        // per entry of the peak population, plus 8 per bucket.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut insert = |q: &mut CalendarQueue, at: u64, flow: u32| {
            q.insert(t(at), seq, wake(flow));
            seq += 1;
        };
        for i in 0..10_000u64 {
            insert(&mut q, 10_000_000 + i * 10_000, 0);
        }
        for i in 0..32u64 {
            insert(&mut q, i * 1_000, 1);
        }
        let (mut peak, mut now) = (q.len(), 0);
        let rebuilds = q.stats().rebuilds;
        let assert_storage = |q: &CalendarQueue, peak: usize| {
            assert!(
                q.storage_bytes() <= 48 * peak + 8 * q.heads.len(),
                "{} bytes for a peak of {peak} entries and {} buckets",
                q.storage_bytes(),
                q.heads.len()
            );
        };
        for (phase, short_period) in [32_000u64, 3_200, 320_000, 32_000].into_iter().enumerate() {
            if phase == 2 {
                for i in 0..10_000u64 {
                    insert(&mut q, now + 1_000_000 + i * 10_000, 0);
                }
            }
            for _ in 0..200_000 {
                let e = q.pop().unwrap();
                let (at, Event::SenderWake { flow }) = (e.at.as_nanos(), e.event) else {
                    unreachable!()
                };
                now = at;
                let period = if flow.0 == 1 {
                    short_period
                } else {
                    100_000_000
                };
                insert(&mut q, at + period, flow.0);
                peak = peak.max(q.len());
            }
            assert_storage(&q, peak);
        }
        assert_eq!(peak, 20_032);
        assert!(
            q.stats().rebuilds >= rebuilds + 3,
            "the queue resized and retuned: {:?}",
            q.stats()
        );
    }

    #[test]
    fn width_hint_seeds_bucket_width() {
        let q = CalendarQueue::with_width_hint(SimDuration::from_micros(300));
        // 3 × 300 µs rounded up to a power of two = 2^20 ns ≈ 1.05 ms.
        assert_eq!(q.shift, 20);
        let q = CalendarQueue::with_width_hint(SimDuration::ZERO);
        assert_eq!(q.shift, 0);
    }
}
