//! Bucketed calendar queue: the default event-scheduler backend.
//!
//! A calendar queue (R. Brown, *Calendar Queues: A Fast O(1) Priority
//! Queue Implementation for the Simulation Event Set Problem*, CACM 1988)
//! hashes each event by time into an array of buckets — "days" of a
//! circular "year" — and pops by walking days in order, so both insert
//! and pop are O(1) amortized when the bucket width matches the typical
//! inter-event spacing.
//!
//! In the engine it holds timers: pacing wakes, RTO checks, workload,
//! outage and flush timers, plus the rare packet event that could not
//! ride its delay line. The packet events themselves — serializations,
//! propagations, returning acknowledgments — are scheduled in an order
//! known in advance and wait in the [`crate::event::EventQueue`]'s delay
//! lines instead.
//!
//! This implementation preserves the exact `(time, insertion-seq)` total
//! order of the [`crate::event::BinaryHeapScheduler`] reference — ties at
//! the same instant pop FIFO — so the two backends are interchangeable
//! without disturbing bit-for-bit determinism (property-tested in
//! `netsim/tests/proptest_scheduler.rs`).
//!
//! # Tuning knobs (all self-adjusting)
//!
//! * **Bucket width** is a power of two nanoseconds (`1 << shift`), so
//!   the time→bucket hash is a shift-and-mask, not a division. It is
//!   seeded from [`CalendarQueue::with_width_hint`] (the simulation
//!   engine passes the bottleneck serialization time) and re-estimated
//!   on every resize as three times the mean gap among the earliest
//!   pending events — head-local density, deliberately blind to the
//!   far-future timer tail (see [`estimate_shift`](self)).
//! * **Dequeue-rate retune.** The standing population is not what pops:
//!   among 10⁴ flows' RTO, arrival and departure timers the head gap is
//!   long, while short-lived pacing wakes and re-armed checks come and go
//!   between rebuilds. A day sized to the head then holds dozens of pops,
//!   each scanning the day, and every bucket keeps capacity for a day's
//!   worth. So the queue counts keys scanned per pop over a window —
//!   from one rebuild or check to the next, at least `max(len, 1024)`
//!   pops — and when a queue of at least `RETUNE_MIN_LEN` entries scanned
//!   more than `SCAN_RETUNE` per pop, it rebuilds with days of about
//!   `DAY_POPS` pops at the window's mean dequeue spacing (any rebuild
//!   in such a window does the same). The window needs only the
//!   [`CalendarStats`] deltas and the dequeue time at its start; nothing
//!   is stored per pop. Small queues keep the head estimate: a scan of a
//!   few dozen keys costs little, and their timers would retune for
//!   nothing.
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
//!
//! # The today buffer (oversized tie runs)
//!
//! No bucket width can spread a same-instant tie burst — a window blast
//! released in one ack batch puts thousands of entries at a single
//! instant, and every pop would rescan them all, O(k²) per burst. PR 5
//! capped the *retune thrash* this caused with a cooldown; the scan cost
//! itself remained, and it is why the calendar trailed the heap in the
//! dense standing-population regime. The fix is a **sort-and-drain
//! buffer**: when a pop finds more than [`TODAY_DRAIN`] entries due at
//! the minimum instant of the current day, the whole run is extracted
//! from its bucket, sorted once by seq (O(k log k)), and drained
//! front-to-front in O(1) pops. While the buffer is active its front is
//! the global minimum, so pops bypass the bucket walk entirely. Inserts
//! at exactly the buffered instant append at their seq position (the
//! engine's monotonic seq makes that the back, O(1)); inserts at later
//! times take the ordinary bucket path untouched; inserts before the
//! buffered instant return the remainder to its bucket first and rewind
//! as usual. Only same-instant runs are buffered — a day that is merely
//! *wide* (many distinct instants) still goes through the scan path and
//! its degeneracy accounting, so a mis-tuned width retunes exactly as
//! before.

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

/// Floor on the degeneracy-retune cooldown, in pops. After a retune
/// rebuild, degenerate pops are ignored for `max(len, this)` pops: a
/// rebuild costs O(len), so spacing retunes at least `len` pops apart
/// caps their amortized cost at O(1) per pop. Without the cooldown, a
/// same-instant tie burst — which no bucket width can spread out — makes
/// every pop in its day "degenerate" and triggers an O(len) rebuild
/// every [`RETUNE_AFTER`] pops, turning one oversized day into a
/// throughput collapse.
const RETUNE_COOLDOWN_MIN: u64 = 1024;

/// Mean keys scanned per pop, over a scan-cost window, above which the
/// bucket width is re-derived from the dequeue rate (see the module
/// docs). A day of *k* due entries costs about *k*/2 keys per pop, so a
/// width that matches the dequeue rate stays well below this.
const SCAN_RETUNE: u64 = 6;

/// Smallest population the dequeue-rate retune acts on. Below it a
/// bucket scan, however wide the day, touches a few cache lines, the
/// degeneracy retune still catches a day that swallowed everything, and
/// the buckets' capacity is immaterial.
const RETUNE_MIN_LEN: usize = 1024;

/// Pops a day retuned from the dequeue rate is sized for, before the
/// width rounds up to a power of two.
const DAY_POPS: u64 = 2;

/// Same-instant entries found by one pop before it stops rescanning and
/// instead extracts the whole run into the sorted today buffer (see the
/// module docs). At or below this, per-pop scans of the run are cheaper
/// than a sort; above it, the O(k log k) sort amortizes to less than the
/// O(k) rescan every subsequent pop of the run would pay.
pub const TODAY_DRAIN: usize = 64;

/// One calendar day: `(time-nanos, seq)` keys stored separately from the
/// event payloads, index-aligned. Bucket scans (the minimum search in
/// `pop`, the global-minimum fallback) touch only the dense 16-byte key
/// array — an `Event` carries a full `Packet`
/// and is several cache lines of payload per entry that the scan never
/// needs — so a day's worth of keys stays in cache even at high standing
/// populations.
#[derive(Default)]
struct Bucket {
    keys: Vec<(u64, u64)>,
    payloads: Vec<Event>,
}

impl Bucket {
    #[inline]
    fn push(&mut self, at: u64, seq: u64, event: Event) {
        self.keys.push((at, seq));
        self.payloads.push(event);
    }

    /// Remove entry `i` in O(1), like `Vec::swap_remove`, keeping the key
    /// and payload arrays aligned.
    #[inline]
    fn swap_remove(&mut self, i: usize) -> Entry {
        let (at, seq) = self.keys.swap_remove(i);
        let event = self.payloads.swap_remove(i);
        Entry {
            at: SimTime::from_nanos(at),
            seq,
            event,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

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
    /// Oversized same-instant runs sorted into the today buffer.
    pub drains: u64,
}

/// Bucketed calendar queue ordered by `(time, seq)`.
///
/// See the module docs for the algorithm; see [`Scheduler`] for the
/// ordering contract.
pub struct CalendarQueue {
    buckets: Vec<Bucket>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
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
    /// Sort-and-drain buffer for an oversized same-instant run (see the
    /// module docs): `(seq, event)` entries all due at `today_at`,
    /// sorted ascending by seq, with `today_cursor` marking the drain
    /// front. Entries here still count in `len`. Empty (`cursor ==
    /// len`) means the buffer is inactive.
    today: Vec<(u64, Event)>,
    /// The single instant (nanos) every buffered entry fires at.
    today_at: u64,
    /// Drain front of `today`; entries before it are already popped.
    today_cursor: usize,
    /// Collection scratch reused across [`rebuild`](Self::rebuild)s so a
    /// retune allocates nothing once grown to the standing population —
    /// retunes are frequent enough in tie-heavy dense runs that fresh
    /// per-rebuild Vecs dominated the engine's allocation profile.
    scratch_keys: Vec<(u64, u64)>,
    /// Payload half of the rebuild scratch (parallel to `scratch_keys`).
    scratch_payloads: Vec<Event>,
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

    /// A queue whose initial bucket width approximates `expected_gap`
    /// (the typical spacing between pending events — the simulation
    /// engine passes the bottleneck link's per-packet serialization
    /// time). The width self-tunes afterwards; the hint only avoids
    /// early rebuild churn.
    pub fn with_width_hint(expected_gap: SimDuration) -> Self {
        Self::with_shift(shift_for_width(expected_gap.as_nanos().saturating_mul(3)))
    }

    fn with_shift(shift: u32) -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            mask: MIN_BUCKETS - 1,
            shift,
            day_start: 0,
            cursor: 0,
            len: 0,
            degenerate_pops: 0,
            cooldown_until: 0,
            today: Vec::new(),
            today_at: 0,
            today_cursor: 0,
            scratch_keys: Vec::new(),
            scratch_payloads: Vec::new(),
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

    /// Rebuild with `nbuckets` buckets, re-estimating the bucket width:
    /// from the dequeue rate when the window's scans say the width is
    /// wrong, from the live population's head otherwise.
    fn rebuild(&mut self, nbuckets: usize) {
        debug_assert!(nbuckets.is_power_of_two());
        // Collect through the persistent scratch: after the first rebuild
        // at a given population, retunes allocate nothing.
        let mut keys = std::mem::take(&mut self.scratch_keys);
        let mut payloads = std::mem::take(&mut self.scratch_payloads);
        keys.clear();
        payloads.clear();
        keys.reserve(self.len);
        payloads.reserve(self.len);
        // An active today buffer rejoins the population (its already-
        // drained prefix is dropped with the clear below).
        let today_at = self.today_at;
        for (seq, event) in self.today.drain(self.today_cursor..) {
            keys.push((today_at, seq));
            payloads.push(event);
        }
        self.today.clear();
        self.today_cursor = 0;
        for b in &mut self.buckets {
            keys.append(&mut b.keys);
            payloads.append(&mut b.payloads);
        }
        let min = keys.iter().map(|&(at, _)| at).min();
        let now = min.unwrap_or(self.day_start);
        if let Some(shift) = self.dequeue_shift(now).or_else(|| estimate_shift(&keys)) {
            self.shift = shift;
        }
        if nbuckets != self.buckets.len() {
            // Resize in place: surviving (and emptied-by-append) buckets
            // keep their key/payload capacity, so halve→double ping-pongs
            // around a population threshold stop churning the heap.
            self.buckets.resize_with(nbuckets, Bucket::default);
            self.mask = nbuckets - 1;
        }
        self.seek_to(min.unwrap_or(0));
        for ((at, seq), event) in keys.drain(..).zip(payloads.drain(..)) {
            let idx = self.bucket_of(at);
            self.buckets[idx].push(at, seq, event);
        }
        self.scratch_keys = keys;
        self.scratch_payloads = payloads;
        self.degenerate_pops = 0;
        self.stats.rebuilds += 1;
        self.open_window(now);
        self.cooldown_until = self.check_at;
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
            self.rebuild(self.buckets.len());
        }
    }

    /// Extract every entry due at exactly `at` from the cursor bucket
    /// into the today buffer and sort the run once by seq. Callers pop
    /// the front via [`Self::pop_from_today`].
    fn start_today_drain(&mut self, at: u64) {
        debug_assert!(self.today.is_empty());
        let bucket = &mut self.buckets[self.cursor];
        let mut i = 0;
        while i < bucket.keys.len() {
            if bucket.keys[i].0 == at {
                let (_, seq) = bucket.keys.swap_remove(i);
                let event = bucket.payloads.swap_remove(i);
                self.today.push((seq, event));
            } else {
                i += 1;
            }
        }
        self.today.sort_unstable_by_key(|&(seq, _)| seq);
        self.today_at = at;
        self.today_cursor = 0;
    }

    /// Pop the front of the active today buffer. The buffer front is the
    /// global minimum: it fires at the minimum pending instant (nothing
    /// predates the current day, and the buffered instant was the
    /// in-day minimum when drained — inserts at it join the buffer,
    /// inserts before it flush the buffer first), and the buffer is
    /// seq-sorted.
    fn pop_from_today(&mut self) -> Entry {
        let (seq, slot) = &mut self.today[self.today_cursor];
        let seq = *seq;
        // The payload is moved out and replaced with a unit-variant
        // placeholder; the consumed slot sits behind the cursor until the
        // buffer drains or rejoins a rebuild, both of which discard it.
        let event = std::mem::replace(slot, Event::TraceSample);
        self.today_cursor += 1;
        self.len -= 1;
        if self.today_cursor == self.today.len() {
            self.today.clear();
            self.today_cursor = 0;
        }
        Entry {
            at: SimTime::from_nanos(self.today_at),
            seq,
            event,
        }
    }

    /// Return the undrained remainder of the today buffer to its bucket
    /// (used before an insert earlier than the buffered instant; the
    /// rewound walk will find the entries where the hash says they
    /// live).
    fn flush_today(&mut self) {
        let idx = self.bucket_of(self.today_at);
        while self.today.len() > self.today_cursor {
            let (seq, event) = self.today.pop().expect("buffer is nonempty");
            self.buckets[idx].push(self.today_at, seq, event);
        }
        self.today.clear();
        self.today_cursor = 0;
    }

    /// Locate the entry with the global minimum `(at, seq)`. O(n +
    /// buckets); only used when the day walk comes up dry (sparse queue
    /// or a time horizon saturating u64 nanoseconds).
    fn find_global_min(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize, u64, u64)> = None;
        for (bi, b) in self.buckets.iter().enumerate() {
            for (i, &(at, seq)) in b.keys.iter().enumerate() {
                if best.is_none_or(|(_, _, bat, bseq)| (at, seq) < (bat, bseq)) {
                    best = Some((bi, i, at, seq));
                }
            }
        }
        best.map(|(bi, i, _, _)| (bi, i))
    }
}

impl Scheduler for CalendarQueue {
    fn insert(&mut self, at: SimTime, seq: u64, event: Event) {
        if self.len + 1 > self.buckets.len() * 2 {
            self.rebuild(self.buckets.len() * 2);
        }
        let nanos = at.as_nanos();
        if self.today_cursor < self.today.len() {
            if nanos == self.today_at {
                // The insert fires at the buffered instant: merge it at
                // its seq position. The engine's seq is monotonic, so
                // this is an O(1) append at the back.
                let pos = self.today_cursor
                    + self.today[self.today_cursor..].partition_point(|&(s, _)| s < seq);
                self.today.insert(pos, (seq, event));
                self.len += 1;
                return;
            }
            if nanos < self.today_at {
                // Inserting before the buffered instant: the buffer is
                // no longer the global front. Return it to its bucket
                // and fall through to the ordinary path (which rewinds
                // if the insert also predates the current day).
                self.flush_today();
            }
            // nanos > today_at: later entries take the ordinary bucket
            // path; the drained run stays the global front.
        }
        // Keep the no-entry-before-day_start invariant: inserts into the
        // past (or into an empty queue whose walk position is stale)
        // rewind the day walk to the new entry.
        if self.len == 0 || nanos < self.day_start {
            self.seek_to(nanos);
        }
        let idx = self.bucket_of(nanos);
        self.buckets[idx].push(nanos, seq, event);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Entry> {
        if self.len == 0 {
            return None;
        }
        self.stats.pops += 1;
        if self.today_cursor < self.today.len() {
            return Some(self.pop_from_today());
        }
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        }
        let width = 1u64 << self.shift;
        for walked in 0..self.buckets.len() {
            let day_last = self.day_start.saturating_add(width - 1);
            if day_last == u64::MAX {
                // The day span saturates u64: day arithmetic can no longer
                // distinguish years, so fall through to the direct search.
                break;
            }
            let bucket = &self.buckets[self.cursor];
            if !bucket.is_empty() {
                // The whole current day lives in this one bucket, and no
                // entry predates the current day, so the bucket-local
                // minimum within the day is the global minimum. Only the
                // key array is scanned; payloads stay untouched.
                let mut besti = usize::MAX;
                let mut best = (u64::MAX, u64::MAX);
                let mut ties = 0usize;
                for (i, &(at, seq)) in bucket.keys.iter().enumerate() {
                    if at > day_last {
                        continue;
                    }
                    if at < best.0 {
                        best = (at, seq);
                        besti = i;
                        ties = 1;
                    } else if at == best.0 {
                        ties += 1;
                        if seq < best.1 {
                            best = (at, seq);
                            besti = i;
                        }
                    }
                }
                if besti != usize::MAX {
                    let scanned = bucket.len();
                    self.stats.scanned += scanned as u64;
                    if ties > TODAY_DRAIN {
                        // Oversized same-instant run: no width can spread
                        // it, and per-pop rescans would make it O(k²).
                        // Sort the run once and drain it (module docs).
                        self.stats.drains += 1;
                        self.start_today_drain(best.0);
                        return Some(self.pop_from_today());
                    }
                    let entry = self.buckets[self.cursor].swap_remove(besti);
                    self.len -= 1;
                    // Either degeneracy triggers a retune: a long scan of
                    // one bucket (width too coarse) or a long march over
                    // empty days (width too fine).
                    if scanned > WIDE_SCAN || walked > LONG_WALK {
                        self.note_degenerate_pop();
                    }
                    // Close the scan-cost window: rebuild at the dequeue
                    // rate if it scanned too much, else open the next.
                    if self.stats.pops >= self.check_at {
                        match self.dequeue_shift(best.0) {
                            Some(_) => self.rebuild(self.buckets.len()),
                            None => self.open_window(best.0),
                        }
                    }
                    return Some(entry);
                }
            }
            self.cursor = (self.cursor + 1) & self.mask;
            self.day_start = self.day_start.saturating_add(width);
        }
        // A full year of days held nothing due: the queue is sparse
        // relative to its width. Jump straight to the global minimum.
        let (bi, i) = self.find_global_min().expect("len > 0 entries exist");
        let entry = self.buckets[bi].swap_remove(i);
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

/// Width heuristic: three times the mean gap across the *earlier half*
/// of the pending population (never fewer than [`WIDTH_SAMPLE`]
/// entries). Pop cost is governed by event density near the head of the
/// queue — the far-future timer tail must not influence the estimate (a
/// global mean would let one 60 s RTO timer widen the buckets that the
/// microsecond-scale packet events live in), which rules out a full-span
/// mean; but a head sample must also be deep enough that a same-instant
/// burst (64 senders released by one ack batch) cannot collapse the
/// estimate to nanoseconds and leave every pop marching over empty days.
/// Half the population is both: burst-proof at scale, tail-blind because
/// timers sort last. The head is found with an O(n) partial selection,
/// not a full sort. Returns `None` when the whole sampled head is a
/// single instant (ties pop FIFO from one bucket regardless of width, so
/// any width serves).
fn estimate_shift(keys: &[(u64, u64)]) -> Option<u32> {
    let n = keys.len();
    if n < 2 {
        return None;
    }
    let mut times: Vec<u64> = keys.iter().map(|&(at, _)| at).collect();
    let k = (n / 2).clamp(WIDTH_SAMPLE.min(n - 1), n - 1);
    times.select_nth_unstable(k);
    let head = &times[..=k];
    let min = *head.iter().min().expect("head is nonempty");
    let kth = head[k];
    if kth > min {
        let mean_gap = (kth - min) / k as u64;
        return Some(shift_for_width(mean_gap.saturating_mul(3).max(1)));
    }
    // The whole sampled head is one instant (a tie burst — e.g. a window
    // blast's RTO deadlines). Widen the sample to the 90th percentile so
    // the burst cannot zero the estimate; only give up when even that
    // span is a single instant.
    let k90 = (9 * n / 10).clamp(k, n - 1);
    if k90 == k {
        return None;
    }
    times.select_nth_unstable(k90);
    let p90 = times[k90];
    if p90 == min {
        return None;
    }
    let mean_gap = (p90 - min) / k90 as u64;
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
        assert!(q.buckets.len() >= 4096, "array grew: {}", q.buckets.len());
        for _ in 0..9_990 {
            q.pop().unwrap();
        }
        assert!(
            q.buckets.len() <= 64,
            "array shrank back: {}",
            q.buckets.len()
        );
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
    fn oversized_tie_burst_drains_in_order() {
        let mut q = CalendarQueue::new();
        // Far more same-instant entries than TODAY_DRAIN, plus stragglers
        // on both sides of the burst.
        let mut expect = Vec::new();
        let mut seq = 0u64;
        for &at in &[500u64, 900] {
            q.insert(t(at), seq, wake(0));
            expect.push((at, seq));
            seq += 1;
        }
        for _ in 0..10 * TODAY_DRAIN {
            q.insert(t(700), seq, wake(1));
            expect.push((700, seq));
            seq += 1;
        }
        expect.sort_unstable();
        assert_eq!(drain_sorted(&mut q), expect);
    }

    #[test]
    fn inserts_into_active_today_buffer_stay_sorted() {
        let mut q = CalendarQueue::new();
        let base = 1_000_000u64;
        let n = 200u64; // > TODAY_DRAIN ties at one instant
        for seq in 0..n {
            q.insert(t(base), seq, wake(0));
        }
        // First pop activates the buffer.
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.today_cursor < q.today.len(), "buffer is active");
        // One insert at the buffered instant (later seq — pops after the
        // remaining ties) and one a few ns later (ordinary bucket path).
        q.insert(t(base), n, wake(2));
        q.insert(t(base + 5), n + 1, wake(2));
        // A later-day insert while the buffer is active.
        q.insert(t(base + 50_000_000), n + 2, wake(3));
        let rest = drain_sorted(&mut q);
        let mut expect: Vec<(u64, u64)> = (1..=n).map(|s| (base, s)).collect();
        expect.push((base + 5, n + 1));
        expect.push((base + 50_000_000, n + 2));
        assert_eq!(rest, expect);
    }

    #[test]
    fn insert_before_buffered_instant_flushes_and_rewinds() {
        let mut q = CalendarQueue::new();
        let base = 10_000_000u64;
        for seq in 0..100u64 {
            q.insert(t(base), seq, wake(0));
        }
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.today_cursor < q.today.len(), "buffer is active");
        // Insert earlier than the buffered day: buffer must flush back.
        q.insert(t(5), 100, wake(1));
        assert_eq!(q.today.len(), 0, "buffer flushed");
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
        let capacity: usize = q.buckets.iter().map(|b| b.keys.capacity()).sum();
        assert!(
            capacity <= 8 * q.len(),
            "buckets hold capacity for {capacity} keys, {} live",
            q.len()
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
