//! Packets and acknowledgments.
//!
//! The simulator models two kinds of traffic: data packets flowing from a
//! sender through the (possibly congested) forward path, and per-packet
//! acknowledgments returning to the sender. ACKs echo the sender's
//! transmission timestamp — the Tao protocols' `send_ewma` and `rtt_ratio`
//! congestion signals are computed from this echo, exactly as in the paper
//! (§3.3).
//!
//! Both kinds are the same [`Packet`] struct: an acknowledgment is a
//! packet travelling in [`PacketDir::Ack`] whose echo fields reuse the
//! data packet's slots (`sent_at`/`tx_index`/`is_retx` become the echoes)
//! plus the receiver timestamp `recv_at`. ACK packets cross their flow's
//! return path of [`crate::link::Link`]s: where a [`ReverseSpec`]
//! declares an explicit reverse channel they queue, serialize and (under
//! an AQM or a full buffer) drop exactly like data; elsewhere they cross
//! a delay-only link, the paper's uncongested reverse path.
//!
//! [`ReverseSpec`]: crate::topology::ReverseSpec

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Identifies a flow (sender/receiver pair). Index into the simulator's
/// sender table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FlowId(pub u32);

/// Identifies a unidirectional link. Index into the simulator's link table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Default MTU-sized data packet payload, matching the 1500-byte packets the
/// paper's ns-2 setup uses.
pub const DATA_PACKET_BYTES: u32 = 1500;

/// Size of a returning acknowledgment (TCP ACK-sized).
pub const ACK_BYTES: u32 = 40;

/// Direction a packet is travelling: data toward the receiver, or an
/// acknowledgment returning to the sender over the reverse path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PacketDir {
    /// A data packet on the forward path.
    #[default]
    Data,
    /// An acknowledgment on the reverse path. The echo fields
    /// (`sent_at`, `tx_index`, `is_retx`) describe the acknowledged data
    /// packet, and `recv_at` stamps its delivery at the receiver.
    Ack,
}

/// Longest route (in links) the packed 6-bit hop index supports.
/// Enforced by [`crate::topology::NetworkConfig::validate`], so a hop
/// can never overflow into the flag bits.
pub const MAX_ROUTE_LINKS: usize = HOP_MASK as usize + 1;

/// Flag byte layout (see [`Packet::flags`]).
const HOP_MASK: u8 = 0x3f;
const FLAG_RETX: u8 = 0x40;
const FLAG_ACK: u8 = 0x80;

/// A packet in flight — data or acknowledgment (see [`PacketDir`]).
///
/// The struct is kept to 48 bytes (six words — `const`-asserted in the
/// tests): the event queue carries packets by value on the hottest path
/// in the simulator, so direction, retransmission flag and hop index are
/// packed into one flag byte behind accessors, the ack-coalescing fields
/// are `u16` (bounds enforced by config validation), and the payload
/// size is derived from the direction rather than stored — every data
/// packet is MTU-sized ([`DATA_PACKET_BYTES`]) and every acknowledgment
/// is [`ACK_BYTES`], exactly as in the paper's setup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Packet {
    /// Sequence number within the flow epoch (for an ACK: the sequence
    /// being acknowledged).
    pub seq: u64,
    /// Sender timestamp at (re)transmission; echoed back in the ACK.
    pub sent_at: SimTime,
    /// Monotonic per-sender transmission index, used by the reliability
    /// layer's reordering-window loss detector.
    pub tx_index: u64,
    /// Receiver timestamp when the acknowledged data packet arrived
    /// ([`PacketDir::Ack`] only; `SimTime::ZERO` on data packets).
    pub recv_at: SimTime,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Flow epoch: incremented each time the ON/OFF workload restarts the
    /// flow, so stale in-flight packets from a previous burst are ignored.
    pub epoch: u32,
    /// Number of consecutive sequence numbers ending at `seq` that this
    /// acknowledgment covers (delayed/stretch ACKs coalesce a run of
    /// in-order deliveries into one ACK). `1` on data packets and on
    /// plain per-packet acknowledgments — the default everywhere.
    pub batch: u16,
    /// Advertised receive window in packets ([`PacketDir::Ack`] only).
    /// `0` means "no advertisement": the receiver does not constrain the
    /// sender, which is the pre-[`crate::topology::ReceiverSpec`]
    /// behavior and the default.
    pub rwnd: u16,
    /// Packed direction (bit 7), retransmission flag (bit 6) and hop
    /// index (bits 0–5); read through [`Packet::dir`],
    /// [`Packet::is_retx`] and [`Packet::hop`].
    flags: u8,
}

impl Packet {
    /// A freshly (re)transmitted MTU-sized data packet at the first hop
    /// of its route. This is the only data-packet constructor — the
    /// transport's `produce` builds every transmission here.
    pub fn data(
        flow: FlowId,
        seq: u64,
        epoch: u32,
        sent_at: SimTime,
        tx_index: u64,
        is_retx: bool,
    ) -> Packet {
        Packet {
            seq,
            sent_at,
            tx_index,
            recv_at: SimTime::ZERO,
            flow,
            epoch,
            batch: 1,
            rwnd: 0,
            flags: if is_retx { FLAG_RETX } else { 0 },
        }
    }

    /// The acknowledgment packet for a delivered data packet: an
    /// ACK-sized packet travelling in reverse whose echo fields copy the
    /// data packet's, stamped with the receiver's delivery time. This is
    /// the **only** ACK constructor — every acknowledgment in the engine
    /// is built here, so the direction bit (and the `batch`/`rwnd`
    /// defaults of a plain per-packet ack) can never be forgotten at a
    /// call site.
    pub fn ack_for(data: &Packet, recv_at: SimTime) -> Packet {
        debug_assert_eq!(data.dir(), PacketDir::Data, "acks acknowledge data");
        Packet {
            seq: data.seq,
            sent_at: data.sent_at,
            tx_index: data.tx_index,
            recv_at,
            flow: data.flow,
            epoch: data.epoch,
            batch: 1,
            rwnd: 0,
            flags: FLAG_ACK | (data.flags & FLAG_RETX),
        }
    }

    /// Which direction this packet is travelling.
    #[inline]
    pub fn dir(&self) -> PacketDir {
        if self.flags & FLAG_ACK != 0 {
            PacketDir::Ack
        } else {
            PacketDir::Data
        }
    }

    /// True if this is a retransmission (for an ACK: whether the
    /// acknowledged packet was one).
    #[inline]
    pub fn is_retx(&self) -> bool {
        self.flags & FLAG_RETX != 0
    }

    /// Index of the link being crossed in the flow's data path (data) or
    /// return path (acknowledgment).
    #[inline]
    pub fn hop(&self) -> u8 {
        self.flags & HOP_MASK
    }

    /// Advance the packet to route hop `hop` (< [`MAX_ROUTE_LINKS`]).
    #[inline]
    pub fn set_hop(&mut self, hop: u8) {
        debug_assert!(hop <= HOP_MASK, "route depth exceeds MAX_ROUTE_LINKS");
        self.flags = (self.flags & !HOP_MASK) | (hop & HOP_MASK);
    }

    /// Payload size in bytes (transmission time = size * 8 / link rate),
    /// determined by the direction: every data packet is MTU-sized and
    /// every acknowledgment is ACK-sized.
    #[inline]
    pub fn size(&self) -> u32 {
        if self.flags & FLAG_ACK != 0 {
            ACK_BYTES
        } else {
            DATA_PACKET_BYTES
        }
    }

    /// The transport-facing [`Ack`] view of an acknowledgment packet.
    pub fn as_ack(&self) -> Ack {
        debug_assert_eq!(self.dir(), PacketDir::Ack, "not an acknowledgment");
        Ack {
            flow: self.flow,
            seq: self.seq,
            epoch: self.epoch,
            echo_sent_at: self.sent_at,
            echo_tx_index: self.tx_index,
            recv_at: self.recv_at,
            was_retx: self.is_retx(),
            batch: self.batch as u32,
            rwnd: self.rwnd as u32,
        }
    }
}

/// Compile-time size regression gate: the event queue moves packets by
/// value on the hottest path, so `Packet` growing past six words is a
/// perf bug someone must consciously sign off on (by editing this
/// assertion).
const _PACKET_IS_SIX_WORDS: () = assert!(std::mem::size_of::<Packet>() <= 48);

/// An acknowledgment returning to the sender.
///
/// The receiver acknowledges every data packet individually (selective
/// per-packet acks, as in Remy's simulator), echoing the data packet's
/// sender timestamp and stamping its own arrival time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ack {
    /// The flow this acknowledgment belongs to.
    pub flow: FlowId,
    /// Sequence number of the data packet being acknowledged (the
    /// *highest* covered sequence when `batch > 1`).
    pub seq: u64,
    /// Flow epoch of the acknowledged packet.
    pub epoch: u32,
    /// Echo of `Packet::sent_at`; `now - echo_sent_at` is an RTT sample.
    pub echo_sent_at: SimTime,
    /// Echo of `Packet::tx_index` for the loss detector.
    pub echo_tx_index: u64,
    /// Receiver timestamp when the data packet arrived.
    pub recv_at: SimTime,
    /// Whether the acknowledged packet was a retransmission.
    pub was_retx: bool,
    /// Number of consecutive sequences ending at `seq` this ack covers
    /// (`1` = plain per-packet ack; `> 1` = delayed/stretch ack — the
    /// transport removes `seq - batch + 1 ..= seq` from its in-flight
    /// set, taking echo/RTT state from the top sequence only).
    pub batch: u32,
    /// Advertised receive window in packets; `0` = no advertisement.
    pub rwnd: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn rtt_from_echo() {
        let sent = SimTime::from_secs_f64(1.0);
        let ack = Ack {
            flow: FlowId(0),
            seq: 5,
            epoch: 0,
            echo_sent_at: sent,
            echo_tx_index: 5,
            recv_at: sent + SimDuration::from_millis(75),
            was_retx: false,
            batch: 1,
            rwnd: 0,
        };
        let now = sent + SimDuration::from_millis(150);
        assert_eq!((now - ack.echo_sent_at).as_millis_f64(), 150.0);
    }

    #[test]
    fn ack_packet_round_trip() {
        let mut data = Packet::data(FlowId(3), 17, 2, SimTime::from_secs_f64(1.0), 21, true);
        data.set_hop(1);
        assert_eq!(data.dir(), PacketDir::Data);
        assert_eq!(data.size(), DATA_PACKET_BYTES);
        assert_eq!(data.hop(), 1);
        assert!(data.is_retx());
        let recv = SimTime::from_secs_f64(1.075);
        let ap = Packet::ack_for(&data, recv);
        assert_eq!(ap.dir(), PacketDir::Ack);
        assert_eq!(ap.size(), ACK_BYTES);
        assert_eq!(ap.hop(), 0, "ack starts at its return path's first hop");
        assert_eq!(ap.batch, 1, "per-packet ack by default");
        assert_eq!(ap.rwnd, 0, "no receive-window advertisement by default");
        let ack = ap.as_ack();
        assert_eq!(ack.flow, FlowId(3));
        assert_eq!(ack.seq, 17);
        assert_eq!(ack.epoch, 2);
        assert_eq!(ack.echo_sent_at, data.sent_at);
        assert_eq!(ack.echo_tx_index, 21);
        assert_eq!(ack.recv_at, recv);
        assert!(ack.was_retx);
        assert_eq!(ack.batch, 1);
        assert_eq!(ack.rwnd, 0);
        // A coalesced ack carries its batch count and advertisement
        // through the packet -> Ack conversion untouched.
        let mut stretch = ap;
        stretch.batch = 4;
        stretch.rwnd = 32;
        let ack = stretch.as_ack();
        assert_eq!(ack.batch, 4);
        assert_eq!(ack.rwnd, 32);
    }

    #[test]
    fn packet_stays_within_six_words() {
        assert_eq!(std::mem::size_of::<Packet>(), 48);
        assert!(std::mem::align_of::<Packet>() <= 8);
    }

    #[test]
    fn hop_flags_round_trip_across_full_range() {
        let mut p = Packet::data(FlowId(1), 1, 0, SimTime::ZERO, 1, false);
        for hop in (0..=MAX_ROUTE_LINKS as u8 - 1).rev() {
            p.set_hop(hop);
            assert_eq!(p.hop(), hop);
            assert_eq!(p.dir(), PacketDir::Data, "hop writes never leak into dir");
            assert!(!p.is_retx(), "hop writes never leak into retx");
        }
        let mut r = Packet::data(FlowId(1), 1, 0, SimTime::ZERO, 1, true);
        r.set_hop(63);
        assert!(r.is_retx());
        assert_eq!(r.hop(), 63);
        let a = Packet::ack_for(&r, SimTime::ZERO);
        assert_eq!(a.dir(), PacketDir::Ack);
        assert!(a.is_retx(), "ack echoes the retx flag");
        assert_eq!(a.hop(), 0);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(FlowId(1));
        s.insert(FlowId(2));
        s.insert(FlowId(1));
        assert_eq!(s.len(), 2);
        assert!(LinkId(0) < LinkId(3));
    }
}
