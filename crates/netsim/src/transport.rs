//! The sender-side reliability layer and the congestion-control plug-in
//! interface.
//!
//! The paper separates *what to send when* (reliability: sequencing,
//! retransmission, timeouts — common to every protocol) from *how much and
//! how fast* (congestion control: the window/pacing decisions that differ
//! between Tao, NewReno and Cubic). [`Transport`] implements the former;
//! the [`CongestionControl`] trait is the plug-in point for the latter.
//!
//! Loss detection follows SACK-style reordering: a packet is declared lost
//! once three transmissions sent after it have been acknowledged. RTO uses
//! the standard `srtt + 4·rttvar` estimator with exponential backoff.

use crate::packet::{Ack, FlowId, Packet};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A value a [`WindowMap`] slot holds, with one bit pattern set aside
/// for an empty slot, so a slot costs no more than its value.
trait Slot: Copy {
    /// The empty slot; never a stored value.
    const EMPTY: Self;
    fn is_empty(&self) -> bool;
}

/// A sequence number; sequences and transmission indices count up from
/// zero each epoch, so `u64::MAX` never occurs.
impl Slot for u64 {
    const EMPTY: u64 = u64::MAX;
    fn is_empty(&self) -> bool {
        *self == u64::MAX
    }
}

/// Ordered map over near-dense, window-bounded integer keys (sequence
/// numbers, transmission indices), backed by a sliding `VecDeque` of
/// slots instead of a search tree. All hot operations — insert at the
/// frontier, remove by key, first-key lookup — are O(1) amortized; this
/// runs several times per packet, where `BTreeMap` paid a tree descent
/// and node allocations. The ring grows to the largest window the flow
/// has had and [`clear`](Self::clear) keeps that capacity, so a flow
/// holds memory for what it actually kept in flight, not for its path.
/// The map does not count its entries: the transport's two maps always
/// hold the same packets, and it counts them once.
#[derive(Debug, Default)]
struct WindowMap<T> {
    /// Key of `slots[0]`.
    base: u64,
    slots: VecDeque<T>,
}

impl<T: Slot> WindowMap<T> {
    fn new() -> Self {
        WindowMap {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.base = 0;
    }

    fn insert(&mut self, key: u64, value: T) {
        debug_assert!(!value.is_empty(), "the empty-slot value stored at {key}");
        if self.slots.is_empty() {
            self.base = key;
        } else if key < self.base {
            // Retransmissions can reuse a sequence below the trimmed
            // front; re-expand (bounded by the reordering window).
            for _ in key..self.base {
                self.slots.push_front(T::EMPTY);
            }
            self.base = key;
        }
        let idx = (key - self.base) as usize;
        if idx == self.slots.len() {
            // The next key, as nearly every transmission's is.
            self.slots.push_back(value);
            return;
        }
        if idx > self.slots.len() {
            self.slots.resize(idx + 1, T::EMPTY);
        }
        debug_assert!(self.slots[idx].is_empty(), "duplicate key {key}");
        self.slots[idx] = value;
    }

    fn get(&self, key: u64) -> Option<T> {
        let idx = key.checked_sub(self.base)?;
        self.slots
            .get(idx as usize)
            .copied()
            .filter(|s| !s.is_empty())
    }

    fn remove(&mut self, key: u64) -> Option<T> {
        let idx = key.checked_sub(self.base)?;
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.is_empty() {
            return None;
        }
        let taken = std::mem::replace(slot, T::EMPTY);
        self.trim_front();
        Some(taken)
    }

    /// Drop leading empty slots so `first` stays O(1).
    fn trim_front(&mut self) {
        while self.slots.front().is_some_and(T::is_empty) {
            self.slots.pop_front();
            self.base += 1;
        }
        if self.slots.is_empty() {
            self.base = 0;
        }
    }

    /// Smallest key and its value.
    fn first(&self) -> Option<(u64, T)> {
        // trim_front keeps slot 0 occupied whenever the map is nonempty.
        self.slots
            .front()
            .filter(|s| !s.is_empty())
            .map(|&v| (self.base, v))
    }

    /// Remove all entries with `key <= cutoff`, handing each value to
    /// `f` in ascending key order; returns how many there were.
    fn drain_upto(&mut self, cutoff: u64, mut f: impl FnMut(T)) -> usize {
        let mut n = 0;
        while let Some(&front) = self.slots.front() {
            if self.base > cutoff {
                break;
            }
            if !front.is_empty() {
                n += 1;
                f(front);
            }
            self.slots.pop_front();
            self.base += 1;
        }
        self.trim_front();
        n
    }

    /// Iterate entries in ascending key order.
    fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(move |(i, &v)| (self.base + i as u64, v))
    }
}

/// Packets sent after a given packet that must be acked before that packet
/// is declared lost (the classic dupack threshold).
pub const REORDER_THRESHOLD: u64 = 3;

/// Lower bound on the retransmission timer.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// Initial RTO before the first RTT sample (RFC 6298 uses 1 s).
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// Upper bound on the backed-off RTO.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// Context passed to [`CongestionControl::on_ack`] alongside the ACK itself.
///
/// Only `rtt` is read by a controller. `min_rtt`, `in_flight` and `rwnd`
/// are read by none: they stay only because the benchmark builds an
/// `AckInfo` literal.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// RTT sample from the echoed sender timestamp (Karn-filtered: absent
    /// for acks of retransmissions).
    pub rtt: Option<SimDuration>,
    /// Smallest RTT observed so far this epoch.
    pub min_rtt: SimDuration,
    /// Packets still outstanding after this ack was processed.
    pub in_flight: usize,
    /// Receive-window advertisement carried on this ack, in packets
    /// (`None` when the receiver advertises nothing — the default). The
    /// engine enforces it: it sends while `in_flight < min(⌊window⌋,
    /// rwnd)` (see [`Transport::peer_rwnd`]).
    pub rwnd: Option<u32>,
}

/// A congestion-control algorithm: decides the window (cap on packets in
/// flight) and a minimum pacing interval between transmissions.
///
/// Implementations are event-driven, mirroring the paper's §3.5: the
/// reliability layer calls `on_ack` for every acknowledgment, `on_loss`
/// when the reordering detector declares a packet lost, and `on_timeout`
/// when the RTO fires.
pub trait CongestionControl: Send {
    /// Start of a new flow epoch (the workload turned ON): clear all state,
    /// as Remy's senders do between bursts.
    fn reset(&mut self, now: SimTime);

    /// An acknowledgment of the current epoch arrived.
    fn on_ack(&mut self, now: SimTime, ack: &Ack, info: &AckInfo);

    /// A packet was declared lost via reordering. May be called several
    /// times per window; implementations enforce their own once-per-RTT
    /// reaction if desired.
    fn on_loss(&mut self, now: SimTime);

    /// The retransmission timer expired with data outstanding.
    fn on_timeout(&mut self, now: SimTime);

    /// The controller's own congestion window in packets, uncapped: the
    /// engine sends while `in_flight < floor(window)`, and caps that by
    /// the receiver's advertisement itself ([`AckInfo::rwnd`]).
    ///
    /// The engine reads this and [`intersend`](Self::intersend) once after
    /// `reset` and after each batch of callbacks, and sends by those
    /// values until the next callback: both must depend only on state the
    /// callbacks change.
    fn window(&self) -> f64;

    /// Minimum interval between transmissions (τ in the paper's action
    /// triple). `SimDuration::ZERO` disables pacing.
    fn intersend(&self) -> SimDuration;

    /// Downcast hook: protocols that expose post-run state (e.g. the Tao
    /// executor's whisker usage counts, which the optimizer reads back)
    /// override this to return `self`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    tx_index: u64,
    sent_at: SimTime,
}

/// An in-flight packet; its transmission index, like a sequence, is never
/// `u64::MAX`.
impl Slot for Outstanding {
    const EMPTY: Outstanding = Outstanding {
        tx_index: u64::MAX,
        sent_at: SimTime::ZERO,
    };
    fn is_empty(&self) -> bool {
        self.tx_index == u64::MAX
    }
}

/// Two words and one word a ring slot: a slot is its value.
const _RING_SLOTS_ARE_VALUES: () =
    assert!(std::mem::size_of::<Outstanding>() == 16 && std::mem::size_of::<u64>() == 8);

/// `round(x · n / 2^k)`, for the RFC 6298 gains below: every product is
/// a dyadic rational with at most `k` fraction bits, so this equals
/// `SimDuration::mul_f64` with factor `n / 2^k` (round half up, as
/// `f64::round` does for these non-negative values) for every duration
/// whose product stays below 2⁵³ ns — some 104 days — without a float
/// conversion.
#[inline]
fn scaled(x: SimDuration, n: u64, k: u32) -> SimDuration {
    SimDuration::from_nanos(x.as_nanos().saturating_mul(n).saturating_add(1 << (k - 1)) >> k)
}

/// Sender-side reliability state for one flow.
#[derive(Debug)]
pub struct Transport {
    flow: FlowId,
    epoch: u32,
    next_seq: u64,
    next_tx_index: u64,
    /// Packets in flight: the entries of each of the two maps below.
    in_flight: usize,
    /// In-flight packets keyed by sequence number.
    outstanding: WindowMap<Outstanding>,
    /// In-flight packets keyed by transmission index (loss detector order).
    by_tx_index: WindowMap<u64>,
    /// Sequences awaiting retransmission.
    retx_queue: VecDeque<u64>,
    /// One past the highest transmission index acknowledged this epoch
    /// (0: none yet).
    acked_tx_end: u64,
    /// RTT estimation (RFC 6298); `SimDuration::MAX` until the first
    /// sample of the epoch.
    srtt: SimDuration,
    rttvar: SimDuration,
    /// Smallest RTT sample this epoch (`SimDuration::MAX`: none yet).
    min_rtt: SimDuration,
    /// Latest receive-window advertisement from the peer, in packets
    /// (0 until an ack carries one; reset each epoch). The engine sends
    /// while `in_flight < min(floor(cwnd), peer_rwnd)`.
    peer_rwnd: u32,
    /// Exponential RTO backoff multiplier (resets on a valid ack).
    backoff: u32,
    /// Generation counter invalidating stale RTO events.
    rto_gen: u64,
}

/// Result of processing one acknowledgment.
#[derive(Debug)]
pub struct AckOutcome {
    /// Whether the ack matched an outstanding packet of the current epoch.
    pub valid: bool,
    /// Derived RTT/progress facts when the ack was valid.
    pub info: Option<AckInfo>,
    /// Packets declared lost by the reordering detector (now queued for
    /// retransmission).
    pub newly_lost: usize,
}

impl Transport {
    /// A fresh reliability layer for `flow` (epoch 0, nothing in flight).
    pub fn new(flow: FlowId) -> Self {
        Transport {
            flow,
            epoch: 0,
            next_seq: 0,
            next_tx_index: 0,
            in_flight: 0,
            outstanding: WindowMap::new(),
            by_tx_index: WindowMap::new(),
            retx_queue: VecDeque::new(),
            acked_tx_end: 0,
            srtt: SimDuration::MAX,
            rttvar: SimDuration::ZERO,
            min_rtt: SimDuration::MAX,
            peer_rwnd: 0,
            backoff: 0,
            rto_gen: 0,
        }
    }

    /// Current flow epoch (bumped on each workload ON transition).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Packets outstanding (sent, neither acked nor declared lost).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether any declared-lost packets await retransmission.
    pub fn has_retx_pending(&self) -> bool {
        !self.retx_queue.is_empty()
    }

    /// Smallest RTT observed so far this epoch.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        (self.min_rtt != SimDuration::MAX).then_some(self.min_rtt)
    }

    /// Latest receive-window advertisement from the peer, in packets
    /// (`None` until an ack of the current epoch carried one).
    pub fn peer_rwnd(&self) -> Option<u32> {
        (self.peer_rwnd > 0).then_some(self.peer_rwnd)
    }

    /// Current RTO timer generation (stale-timer detection).
    pub fn rto_gen(&self) -> u64 {
        self.rto_gen
    }

    /// Hand this (possibly reused) reliability layer to `flow`, carrying on
    /// from that flow's `epoch` and RTO generation `rto_gen`, so packets
    /// and timers of the flow's earlier epochs stay stale. Call
    /// [`start_epoch`](Self::start_epoch) before sending; the rings keep
    /// their capacity.
    pub fn resume(&mut self, flow: FlowId, epoch: u32, rto_gen: u64) {
        self.flow = flow;
        self.epoch = epoch;
        self.rto_gen = rto_gen;
    }

    /// Begin a new epoch (workload turned ON): abandon all in-flight state.
    pub fn start_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        self.next_seq = 0;
        self.next_tx_index = 0;
        self.forget_in_flight();
        self.retx_queue.clear();
        self.acked_tx_end = 0;
        self.srtt = SimDuration::MAX;
        self.rttvar = SimDuration::ZERO;
        self.min_rtt = SimDuration::MAX;
        self.peer_rwnd = 0;
        self.backoff = 0;
        self.rto_gen += 1;
        self.epoch
    }

    /// Abandon in-flight state without starting a new epoch (workload
    /// turned OFF).
    pub fn abort(&mut self) {
        self.forget_in_flight();
        self.retx_queue.clear();
        self.rto_gen += 1;
    }

    fn forget_in_flight(&mut self) {
        self.outstanding.clear();
        self.by_tx_index.clear();
        self.in_flight = 0;
    }

    /// Produce the next packet to transmit (retransmissions first), or
    /// `None` if sending must be limited by the window.
    pub fn produce(&mut self, now: SimTime, window: usize) -> Option<Packet> {
        if self.in_flight >= window {
            return None;
        }
        let (seq, is_retx) = match self.retx_queue.pop_front() {
            Some(s) => (s, true),
            None => {
                let s = self.next_seq;
                self.next_seq += 1;
                (s, false)
            }
        };
        let tx_index = self.next_tx_index;
        self.next_tx_index += 1;
        self.outstanding.insert(
            seq,
            Outstanding {
                tx_index,
                sent_at: now,
            },
        );
        self.by_tx_index.insert(tx_index, seq);
        self.in_flight += 1;
        Some(Packet::data(
            self.flow, seq, self.epoch, now, tx_index, is_retx,
        ))
    }

    /// Process an acknowledgment: RTT estimation, removal from the
    /// in-flight set, and reordering-based loss detection.
    pub fn on_ack(&mut self, now: SimTime, ack: &Ack) -> AckOutcome {
        if ack.epoch != self.epoch {
            return AckOutcome {
                valid: false,
                info: None,
                newly_lost: 0,
            };
        }
        if ack.rwnd > 0 {
            self.peer_rwnd = ack.rwnd;
        }
        // A stretch ack (batch > 1) covers a run of consecutive
        // sequences ending at `ack.seq`: the lower sequences leave the
        // in-flight set here — no RTT sample (their send times are not
        // echoed), no loss-detector cutoff of their own — and the top
        // sequence is then processed exactly like a per-packet ack.
        // Guarded so the default batch-of-1 path is bit-identical to the
        // pre-policy transport.
        if ack.batch > 1 {
            let first = ack.seq.saturating_sub(ack.batch as u64 - 1);
            for seq in first..ack.seq {
                if let Some(out) = self.outstanding.remove(seq) {
                    self.by_tx_index.remove(out.tx_index);
                    self.in_flight -= 1;
                    self.acked_tx_end = self.acked_tx_end.max(out.tx_index + 1);
                }
            }
        }
        let Some(out) = self.outstanding.remove(ack.seq) else {
            // Duplicate or ack of an already-retransmitted packet.
            return AckOutcome {
                valid: false,
                info: None,
                newly_lost: 0,
            };
        };
        self.by_tx_index.remove(out.tx_index);
        self.in_flight -= 1;
        self.backoff = 0;

        // Karn's rule: only un-ambiguous samples update the estimators.
        let rtt = if ack.was_retx {
            None
        } else {
            let sample = now - ack.echo_sent_at;
            self.update_rtt(sample);
            Some(sample)
        };

        self.acked_tx_end = self.acked_tx_end.max(ack.echo_tx_index + 1);

        // Reordering loss detection: everything sent REORDER_THRESHOLD
        // transmissions before the newest ack is presumed lost.
        let mut newly_lost = 0;
        if self.acked_tx_end > REORDER_THRESHOLD {
            let cutoff = self.acked_tx_end - 1 - REORDER_THRESHOLD;
            let (outstanding, retx_queue) = (&mut self.outstanding, &mut self.retx_queue);
            newly_lost = self.by_tx_index.drain_upto(cutoff, |seq| {
                let lost = outstanding.remove(seq);
                debug_assert!(lost.is_some(), "the two maps hold the same packets");
                retx_queue.push_back(seq);
            });
            self.in_flight -= newly_lost;
        }

        let info = AckInfo {
            rtt,
            min_rtt: self.min_rtt().unwrap_or(SimDuration::ZERO),
            in_flight: self.in_flight,
            rwnd: (ack.rwnd > 0).then_some(ack.rwnd),
        };
        AckOutcome {
            valid: true,
            info: Some(info),
            newly_lost,
        }
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        self.min_rtt = self.min_rtt.min(sample);
        if self.srtt == SimDuration::MAX {
            self.srtt = sample;
            self.rttvar = sample.div_u64(2);
            return;
        }
        // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - sample|,
        // srtt = 7/8 srtt + 1/8 sample, each term rounded.
        let (srtt, rttvar) = (self.srtt, self.rttvar);
        let err = if sample > srtt {
            sample - srtt
        } else {
            srtt - sample
        };
        self.rttvar = scaled(rttvar, 3, 2) + scaled(err, 1, 2);
        self.srtt = scaled(srtt, 7, 3) + scaled(sample, 1, 3);
    }

    /// Current retransmission timeout with backoff applied.
    pub fn rto(&self) -> SimDuration {
        let base = if self.srtt == SimDuration::MAX {
            INITIAL_RTO
        } else {
            (self.srtt + self.rttvar * 4).max(MIN_RTO)
        };
        (base * (1 << self.backoff.min(8))).min(MAX_RTO)
    }

    /// Handle an expired retransmission timer: every outstanding packet is
    /// queued for retransmission (go-back-N) and the RTO backs off.
    /// Returns the number of packets queued.
    pub fn on_timeout(&mut self) -> usize {
        let n = self.in_flight;
        // Re-queue in sequence order for in-order recovery.
        for (seq, _) in self.outstanding.iter() {
            self.retx_queue.push_back(seq);
        }
        self.forget_in_flight();
        self.backoff = (self.backoff + 1).min(16);
        self.rto_gen += 1;
        n
    }

    /// Bump the RTO generation (invalidates scheduled RtoCheck events).
    pub fn bump_rto_gen(&mut self) -> u64 {
        self.rto_gen += 1;
        self.rto_gen
    }

    /// Oldest outstanding transmission time (None when idle); the RTO
    /// deadline is measured from here.
    ///
    /// `sent_at` is monotone in `tx_index` (packets transmit in index
    /// order at non-decreasing times), so the minimum is the entry with
    /// the smallest tx_index — an O(1) front lookup rather than a full
    /// scan. This runs on every ack via `reschedule_rto`.
    pub fn oldest_outstanding_at(&self) -> Option<SimTime> {
        let (_, seq) = self.by_tx_index.first()?;
        Some(self.outstanding.get(seq).expect("indexed").sent_at)
    }
}

#[cfg(test)]
impl Transport {
    /// Slots the two in-flight rings hold capacity for.
    pub(crate) fn ring_capacity(&self) -> usize {
        self.outstanding.slots.capacity() + self.by_tx_index.slots.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack_for(pkt: &Packet, now: SimTime) -> Ack {
        Ack {
            flow: pkt.flow,
            seq: pkt.seq,
            epoch: pkt.epoch,
            echo_sent_at: pkt.sent_at,
            echo_tx_index: pkt.tx_index,
            recv_at: now,
            was_retx: pkt.is_retx(),
            batch: 1,
            rwnd: 0,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn window_limits_production() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        assert!(tr.produce(t(0), 2).is_some());
        assert!(tr.produce(t(0), 2).is_some());
        assert!(tr.produce(t(0), 2).is_none(), "window of 2 is full");
        assert_eq!(tr.in_flight(), 2);
    }

    #[test]
    fn ack_frees_window_and_updates_rtt() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let p = tr.produce(t(0), 10).unwrap();
        let out = tr.on_ack(t(150), &ack_for(&p, t(75)));
        assert!(out.valid);
        let info = out.info.unwrap();
        assert_eq!(info.rtt, Some(SimDuration::from_millis(150)));
        assert_eq!(info.min_rtt, SimDuration::from_millis(150));
        assert_eq!(info.in_flight, 0);
        assert_eq!(out.newly_lost, 0);
    }

    #[test]
    fn stale_epoch_acks_rejected() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let p = tr.produce(t(0), 10).unwrap();
        tr.start_epoch(); // workload cycled
        let out = tr.on_ack(t(10), &ack_for(&p, t(5)));
        assert!(!out.valid);
    }

    #[test]
    fn duplicate_acks_rejected() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let p = tr.produce(t(0), 10).unwrap();
        assert!(tr.on_ack(t(150), &ack_for(&p, t(75))).valid);
        assert!(!tr.on_ack(t(151), &ack_for(&p, t(75))).valid);
    }

    #[test]
    fn reordering_loss_detection() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let pkts: Vec<Packet> = (0..6).map(|_| tr.produce(t(0), 10).unwrap()).collect();
        // Packet 0 is "lost": ack packets 1..=3. After ack of tx_index 3,
        // packet 0 (tx_index 0) has 3 later acks -> lost.
        assert_eq!(tr.on_ack(t(150), &ack_for(&pkts[1], t(75))).newly_lost, 0);
        assert_eq!(tr.on_ack(t(151), &ack_for(&pkts[2], t(75))).newly_lost, 0);
        let out = tr.on_ack(t(152), &ack_for(&pkts[3], t(75)));
        assert_eq!(out.newly_lost, 1, "one packet declared lost");
        assert_eq!(out.info.unwrap().in_flight, 2, "seqs 4 and 5 remain");
        assert!(tr.has_retx_pending());
        // The retransmission of seq 0 goes out first and carries is_retx.
        let r = tr.produce(t(200), 10).unwrap();
        assert_eq!(r.seq, 0);
        assert!(r.is_retx());
        assert!(!tr.has_retx_pending(), "only seq 0 was lost");
    }

    #[test]
    fn loss_detection_drains_every_packet_below_the_cutoff_in_order() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let pkts: Vec<Packet> = (0..8).map(|_| tr.produce(t(0), 10).unwrap()).collect();
        // Acks for tx 0, 3 and 7: the last puts the cutoff at tx 4, so
        // tx 1, 2 and 4 are lost together and tx 3 (acked) is not.
        for i in [0, 3] {
            assert_eq!(tr.on_ack(t(100), &ack_for(&pkts[i], t(50))).newly_lost, 0);
        }
        let out = tr.on_ack(t(101), &ack_for(&pkts[7], t(50)));
        assert_eq!(out.newly_lost, 3);
        assert_eq!(out.info.unwrap().in_flight, 2, "seqs 5 and 6 remain");
        let retx: Vec<u64> = (0..3)
            .map(|_| tr.produce(t(200), 10).unwrap().seq)
            .collect();
        assert_eq!(retx, vec![1, 2, 4], "retransmitted in tx order");
        assert!(!tr.has_retx_pending());
    }

    #[test]
    fn karn_rule_ignores_retx_rtt() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let pkts: Vec<Packet> = (0..5).map(|_| tr.produce(t(0), 10).unwrap()).collect();
        for i in 1..=3 {
            tr.on_ack(t(150 + i), &ack_for(&pkts[i as usize], t(75)));
        }
        let r = tr.produce(t(200), 10).unwrap();
        assert!(r.is_retx());
        let out = tr.on_ack(t(900), &ack_for(&r, t(850)));
        assert!(out.valid);
        assert_eq!(out.info.unwrap().rtt, None, "retx ack gives no RTT sample");
    }

    #[test]
    fn timeout_requeues_everything_and_backs_off() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        for _ in 0..4 {
            tr.produce(t(0), 10);
        }
        let rto_before = tr.rto();
        assert_eq!(rto_before, INITIAL_RTO);
        let n = tr.on_timeout();
        assert_eq!(n, 4);
        assert_eq!(tr.in_flight(), 0);
        assert!(tr.rto() > rto_before, "exponential backoff");
        // All four retransmit in order.
        for want in 0..4 {
            let p = tr.produce(t(1000), 10).unwrap();
            assert_eq!(p.seq, want);
            assert!(p.is_retx());
        }
    }

    #[test]
    fn repeated_timeouts_cap_the_rto_shift() {
        // Pin the intended asymmetry: `on_timeout` caps the backoff
        // *counter* at 16 (cheap saturation guard), while `rto()` caps
        // the *shift* at 8 before clamping to MAX_RTO — so the doubling
        // stops mattering once 2^8 * base exceeds MAX_RTO, and a long
        // outage can never overflow the multiplier.
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        tr.produce(t(0), 10);
        for k in 1..=8 {
            tr.produce(t(0), 10);
            tr.on_timeout();
            let expect = INITIAL_RTO.mul_f64((1u64 << k.min(8)) as f64).min(MAX_RTO);
            assert_eq!(tr.rto(), expect, "after {k} timeouts");
        }
        // 1 s << 8 = 256 s > MAX_RTO: fully saturated from here on.
        assert_eq!(tr.rto(), MAX_RTO);
        // Far past both caps: the counter saturates at 16, the shift at
        // 8, and the RTO stays exactly MAX_RTO with no overflow.
        for _ in 0..64 {
            tr.produce(t(0), 10);
            tr.on_timeout();
        }
        assert_eq!(tr.rto(), MAX_RTO);
    }

    #[test]
    fn valid_ack_resets_rto_backoff() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        for _ in 0..3 {
            tr.produce(t(0), 10);
            tr.on_timeout();
        }
        assert!(tr.rto() > INITIAL_RTO, "backed off before the ack");
        // Drain the retransmission queue, then ack one packet.
        let p = tr.produce(t(100), 10).unwrap();
        let out = tr.on_ack(t(200), &ack_for(&p, t(150)));
        assert!(out.valid);
        // backoff is 0 again. The acked packet was a retransmission, so
        // Karn's rule leaves srtt unset and the RTO is exactly the
        // un-backed-off INITIAL_RTO — one eighth of the pre-ack 8 s.
        assert_eq!(tr.rto(), INITIAL_RTO, "backoff must reset on a valid ack");
        // An *invalid* ack (stale epoch) must not reset the backoff.
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let stale = tr.produce(t(0), 10).unwrap();
        tr.start_epoch();
        tr.produce(t(0), 10);
        tr.on_timeout();
        let backed = tr.rto();
        assert!(!tr.on_ack(t(10), &ack_for(&stale, t(5))).valid);
        assert_eq!(tr.rto(), backed, "invalid ack must not touch backoff");
    }

    #[test]
    fn rto_tracks_srtt() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        // feed a stream of 100 ms RTT samples
        for _ in 0..20 {
            let p = tr.produce(t(0), 100).unwrap();
            tr.on_ack(
                p.sent_at + SimDuration::from_millis(100),
                &ack_for(&p, t(50)),
            );
        }
        let rto = tr.rto();
        // srtt -> 100 ms, rttvar -> small; RTO clamps at MIN_RTO = 200 ms.
        assert!(rto >= MIN_RTO);
        assert!(rto < SimDuration::from_millis(400), "rto={rto:?}");
    }

    #[test]
    fn abort_clears_in_flight() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        tr.produce(t(0), 10);
        tr.produce(t(0), 10);
        tr.abort();
        assert_eq!(tr.in_flight(), 0);
        assert!(!tr.has_retx_pending());
    }

    #[test]
    fn batch_ack_clears_the_covered_run() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let pkts: Vec<Packet> = (0..5).map(|_| tr.produce(t(0), 10).unwrap()).collect();
        // One stretch ack covering seqs 0..=3 (batch 4, top seq 3).
        let mut ack = ack_for(&pkts[3], t(75));
        ack.batch = 4;
        let out = tr.on_ack(t(150), &ack);
        assert!(out.valid);
        let info = out.info.unwrap();
        assert_eq!(info.in_flight, 1, "only seq 4 still outstanding");
        assert_eq!(
            info.rtt,
            Some(SimDuration::from_millis(150)),
            "RTT sampled from the top (echoed) sequence"
        );
        assert_eq!(
            out.newly_lost, 0,
            "implicitly acked packets must not trip the loss detector"
        );
        // The remaining packet acks normally.
        assert!(tr.on_ack(t(151), &ack_for(&pkts[4], t(76))).valid);
        assert_eq!(tr.in_flight(), 0);
    }

    #[test]
    fn batch_ack_tolerates_already_acked_sequences() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let pkts: Vec<Packet> = (0..3).map(|_| tr.produce(t(0), 10).unwrap()).collect();
        assert!(tr.on_ack(t(100), &ack_for(&pkts[0], t(50))).valid);
        // A batch covering 0..=2 where 0 is already gone: 1 and 2 clear.
        let mut ack = ack_for(&pkts[2], t(60));
        ack.batch = 3;
        let out = tr.on_ack(t(110), &ack);
        assert!(out.valid);
        assert_eq!(tr.in_flight(), 0);
    }

    #[test]
    fn rwnd_advertisement_is_cached_per_epoch() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        assert_eq!(tr.peer_rwnd(), None);
        let p = tr.produce(t(0), 10).unwrap();
        let mut ack = ack_for(&p, t(75));
        ack.rwnd = 12;
        let out = tr.on_ack(t(150), &ack);
        assert_eq!(out.info.unwrap().rwnd, Some(12));
        assert_eq!(tr.peer_rwnd(), Some(12));
        // An ack without an advertisement leaves the cached value.
        let p = tr.produce(t(200), 10).unwrap();
        let out = tr.on_ack(t(350), &ack_for(&p, t(275)));
        assert_eq!(out.info.unwrap().rwnd, None);
        assert_eq!(tr.peer_rwnd(), Some(12), "advertisement persists");
        // A new epoch forgets the peer's window.
        tr.start_epoch();
        assert_eq!(tr.peer_rwnd(), None);
    }

    #[test]
    fn integer_estimator_matches_the_float_formula() {
        // The RFC 6298 update and the RTO as they were computed in f64:
        // every gain through `mul_f64`.
        let float_update = |srtt: SimDuration, rttvar: SimDuration, sample: SimDuration| {
            let err = if sample > srtt {
                sample - srtt
            } else {
                srtt - sample
            };
            (
                srtt.mul_f64(0.875) + sample.mul_f64(0.125),
                rttvar.mul_f64(0.75) + err.mul_f64(0.25),
            )
        };
        let float_rto = |srtt: SimDuration, rttvar: SimDuration, backoff: u32| {
            let base = (srtt + rttvar.mul_f64(4.0)).max(MIN_RTO);
            base.mul_f64((1u64 << backoff.min(8)) as f64).min(MAX_RTO)
        };
        let check = |srtt: u64, rttvar: u64, sample: u64, backoff: u32| {
            let d = SimDuration::from_nanos;
            let mut tr = Transport::new(FlowId(0));
            (tr.srtt, tr.rttvar, tr.backoff) = (d(srtt), d(rttvar), backoff);
            assert_eq!(tr.rto(), float_rto(d(srtt), d(rttvar), backoff), "rto");
            tr.update_rtt(d(sample));
            assert_eq!(
                (tr.srtt, tr.rttvar),
                float_update(d(srtt), d(rttvar), d(sample)),
                "update from srtt {srtt}, rttvar {rttvar}, sample {sample}"
            );
        };
        let edges = [
            0,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            9,
            15,
            16,
            17,
            (1 << 50) - 1,
            1 << 50,
        ];
        for &a in &edges {
            for &b in &edges {
                for &c in &edges {
                    check(a, b, c, (a % 17) as u32);
                }
            }
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..1_000_000 {
            let r = next();
            // Every magnitude below 2⁵⁰ ns, not just the top few bits.
            let mut below = |bits: u64| next() >> (14 + bits % 50);
            check(
                below(r),
                below(r >> 8),
                below(r >> 16),
                (r >> 24) as u32 % 17,
            );
        }
    }

    #[test]
    fn min_rtt_is_monotone_decreasing() {
        let mut tr = Transport::new(FlowId(0));
        tr.start_epoch();
        let p1 = tr.produce(t(0), 10).unwrap();
        tr.on_ack(t(200), &ack_for(&p1, t(100)));
        assert_eq!(tr.min_rtt(), Some(SimDuration::from_millis(200)));
        let p2 = tr.produce(t(300), 10).unwrap();
        tr.on_ack(t(450), &ack_for(&p2, t(400)));
        assert_eq!(tr.min_rtt(), Some(SimDuration::from_millis(150)));
        let p3 = tr.produce(t(500), 10).unwrap();
        tr.on_ack(t(800), &ack_for(&p3, t(700)));
        assert_eq!(
            tr.min_rtt(),
            Some(SimDuration::from_millis(150)),
            "does not increase"
        );
    }
}
