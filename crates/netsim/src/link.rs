//! Store-and-forward links.
//!
//! A link serializes one packet at a time at a fixed bit rate, then the
//! packet propagates for the link's one-way delay. Packets arriving while
//! the link is busy wait in the attached queue discipline. This is the same
//! model ns-2's `DelayLink` + queue object pair implements, which the paper
//! uses for all experiments. A delay-only link ([`Link::delay_only`]) keeps
//! the propagation and nothing else: the paper's uncongested ACK path.

use crate::packet::{Packet, PacketDir, ACK_BYTES, DATA_PACKET_BYTES};
use crate::queue::{DropTail, QueueDiscipline, QueueStats, QueuedPacket};
use crate::time::{SimDuration, SimTime};

/// What the link wants the engine to do after a packet is offered to it.
#[derive(Debug, PartialEq)]
pub enum Offer {
    /// Link was idle; packet starts serializing now and finishes after the
    /// returned transmission time.
    StartTx(SimDuration),
    /// Link busy; packet queued.
    Queued,
    /// Link busy and the queue discipline dropped the packet.
    Dropped,
}

/// A unidirectional link with an attached queue.
pub struct Link {
    /// Line rate in bits per second.
    rate_bps: f64,
    /// One-way propagation delay.
    delay: SimDuration,
    /// Serialization time of a data packet and of an acknowledgment
    /// (every packet is one or the other), computed once.
    data_tx: SimDuration,
    ack_tx: SimDuration,
    queue: Box<dyn QueueDiscipline>,
    busy: bool,
    /// Outage state: while down the link starts no new transmissions —
    /// arriving packets queue (or are destroyed by the engine, depending
    /// on the fault spec's drop mode). A packet already serializing when
    /// the link goes down finishes normally.
    down: bool,
    /// Total bytes that finished serializing (utilization accounting).
    bytes_transmitted: u64,
}

impl Link {
    /// A quiet link with the given rate, propagation delay and queue.
    pub fn new(rate_bps: f64, delay: SimDuration, queue: Box<dyn QueueDiscipline>) -> Self {
        assert!(rate_bps > 0.0, "link rate must be positive");
        Link {
            rate_bps,
            delay,
            data_tx: serialization(DATA_PACKET_BYTES, rate_bps),
            ack_tx: serialization(ACK_BYTES, rate_bps),
            queue,
            busy: false,
            down: false,
            bytes_transmitted: 0,
        }
    }

    /// A delay-only link: no queue and no serialization, so a packet
    /// that enters it leaves `delay` later, whatever else is crossing.
    /// The engine schedules that exit directly ([`Link::offer`] is never
    /// called); its rate reads as infinite.
    pub fn delay_only(delay: SimDuration) -> Self {
        Link::new(f64::INFINITY, delay, Box::new(DropTail::new(Some(0))))
    }

    /// Whether this is a [`delay_only`](Self::delay_only) link.
    #[inline]
    pub fn is_delay_only(&self) -> bool {
        self.rate_bps == f64::INFINITY
    }

    /// Serialization rate in bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// One-way propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Time to serialize `bytes` onto the wire.
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        serialization(bytes, self.rate_bps)
    }

    /// Time to serialize `pkt` onto the wire.
    #[inline]
    fn pkt_tx_time(&self, pkt: &Packet) -> SimDuration {
        match pkt.dir() {
            PacketDir::Data => self.data_tx,
            PacketDir::Ack => self.ack_tx,
        }
    }

    /// A packet arrives at the link ingress.
    pub fn offer(&mut self, pkt: Packet, now: SimTime) -> Offer {
        if !self.busy && !self.down {
            self.busy = true;
            Offer::StartTx(self.pkt_tx_time(&pkt))
        } else if self.queue.enqueue(
            QueuedPacket {
                pkt,
                enqueued_at: now,
            },
            now,
        ) {
            Offer::Queued
        } else {
            Offer::Dropped
        }
    }

    /// The current packet finished serializing. Returns the next packet to
    /// transmit (engine schedules its completion) or `None` if the link
    /// goes idle.
    pub fn tx_complete(
        &mut self,
        finished: &Packet,
        now: SimTime,
    ) -> Option<(Packet, SimDuration)> {
        debug_assert!(self.busy, "tx_complete on idle link");
        self.bytes_transmitted += finished.size() as u64;
        if self.down {
            // Blackout began mid-serialization: the in-flight packet
            // finished, but nothing new starts until the link returns.
            self.busy = false;
            return None;
        }
        match self.queue.dequeue(now) {
            Some(qp) => Some((qp.pkt, self.pkt_tx_time(&qp.pkt))),
            None => {
                self.busy = false;
                None
            }
        }
    }

    /// Packets waiting in the ingress queue.
    pub fn queue_len_packets(&self) -> usize {
        self.queue.len_packets()
    }

    /// Bytes waiting in the ingress queue.
    pub fn queue_len_bytes(&self) -> u64 {
        self.queue.len_bytes()
    }

    /// Lifetime enqueue/drop counters of the ingress queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Total bytes that finished serializing.
    pub fn bytes_transmitted(&self) -> u64 {
        self.bytes_transmitted
    }

    /// Whether a packet is currently serializing.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Whether the link is in a blackout.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Begin a blackout: no new transmissions start until
    /// [`set_up`](Self::set_up). A packet currently serializing finishes
    /// normally.
    pub fn set_down(&mut self) {
        self.down = true;
    }

    /// End a blackout. If packets were held in the queue during the
    /// outage, service resumes immediately: returns the first packet and
    /// its transmission time for the engine to schedule.
    pub fn set_up(&mut self, now: SimTime) -> Option<(Packet, SimDuration)> {
        self.down = false;
        if self.busy {
            return None;
        }
        let qp = self.queue.dequeue(now)?;
        self.busy = true;
        Some((qp.pkt, self.pkt_tx_time(&qp.pkt)))
    }
}

/// Time to serialize `bytes` at `rate_bps`.
fn serialization(bytes: u32, rate_bps: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate_bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};

    fn pkt(seq: u64, size: u32) -> Packet {
        let data = Packet::data(FlowId(0), seq, 0, SimTime::ZERO, seq, false);
        if size == crate::packet::ACK_BYTES {
            Packet::ack_for(&data, SimTime::ZERO)
        } else {
            data
        }
    }

    fn link_10mbps() -> Link {
        Link::new(
            10e6,
            SimDuration::from_millis(50),
            Box::new(DropTail::new(Some(6000))),
        )
    }

    #[test]
    fn tx_time_matches_rate() {
        let l = link_10mbps();
        // 1500 bytes at 10 Mbps = 1.2 ms
        assert_eq!(l.tx_time(1500), SimDuration::from_micros(1200));
        assert_eq!(l.tx_time(40), SimDuration::from_micros(32));
    }

    #[test]
    fn idle_link_starts_tx_immediately() {
        let mut l = link_10mbps();
        match l.offer(pkt(0, 1500), SimTime::ZERO) {
            Offer::StartTx(d) => assert_eq!(d, SimDuration::from_micros(1200)),
            other => panic!("expected StartTx, got {other:?}"),
        }
        assert!(l.is_busy());
    }

    #[test]
    fn busy_link_queues_then_drops() {
        let mut l = link_10mbps();
        assert!(matches!(
            l.offer(pkt(0, 1500), SimTime::ZERO),
            Offer::StartTx(_)
        ));
        // capacity 6000 bytes = 4 queued packets
        for i in 1..=4 {
            assert_eq!(l.offer(pkt(i, 1500), SimTime::ZERO), Offer::Queued);
        }
        assert_eq!(l.offer(pkt(5, 1500), SimTime::ZERO), Offer::Dropped);
        assert_eq!(l.queue_len_packets(), 4);
    }

    #[test]
    fn down_link_holds_packets_and_resumes_on_up() {
        let mut l = link_10mbps();
        l.set_down();
        assert!(l.is_down());
        // Arrivals during the blackout queue instead of starting tx.
        assert_eq!(l.offer(pkt(0, 1500), SimTime::ZERO), Offer::Queued);
        assert_eq!(l.offer(pkt(1, 1500), SimTime::ZERO), Offer::Queued);
        assert!(!l.is_busy());
        // Service resumes the held queue when the link returns.
        let now = SimTime::from_secs_f64(0.5);
        let (first, d) = l.set_up(now).unwrap();
        assert_eq!(first.seq, 0);
        assert_eq!(d, SimDuration::from_micros(1200));
        assert!(l.is_busy());
        assert!(!l.is_down());
    }

    #[test]
    fn mid_serialization_blackout_finishes_current_packet_only() {
        let mut l = link_10mbps();
        let p0 = pkt(0, 1500);
        assert!(matches!(l.offer(p0, SimTime::ZERO), Offer::StartTx(_)));
        l.offer(pkt(1, 1500), SimTime::ZERO);
        l.set_down();
        // The in-flight packet completes, but the queued one must wait.
        let now = SimTime::from_secs_f64(0.0012);
        assert!(l.tx_complete(&p0, now).is_none());
        assert!(!l.is_busy());
        assert_eq!(l.queue_len_packets(), 1);
        let (next, _) = l.set_up(SimTime::from_secs_f64(0.1)).unwrap();
        assert_eq!(next.seq, 1);
    }

    #[test]
    fn tx_complete_drains_queue_in_order() {
        let mut l = link_10mbps();
        let p0 = pkt(0, 1500);
        l.offer(p0, SimTime::ZERO);
        l.offer(pkt(1, 1500), SimTime::ZERO);
        l.offer(pkt(2, 40), SimTime::ZERO);
        let now = SimTime::from_secs_f64(0.0012);
        let (next, d) = l.tx_complete(&p0, now).unwrap();
        assert_eq!(next.seq, 1);
        assert_eq!(d, SimDuration::from_micros(1200));
        let (next2, d2) = l.tx_complete(&next, now).unwrap();
        assert_eq!(next2.seq, 2);
        assert_eq!(d2, SimDuration::from_micros(32));
        assert!(l.tx_complete(&next2, now).is_none());
        assert!(!l.is_busy());
        assert_eq!(l.bytes_transmitted(), 1500 + 1500 + 40);
    }
}
