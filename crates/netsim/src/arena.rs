//! Generation-indexed arena for packets parked in the event queue.
//!
//! Every data packet and every acknowledgment spends most of its
//! simulated life *inside the scheduler* — as the payload of an
//! `Arrive`, `TxComplete` or `Propagated` event waiting to fire. Carrying the full 48-byte [`Packet`] by value in
//! [`crate::event::Event`] made the event enum the widest thing the
//! calendar queue moves: every bucket insert, swap-remove and today-
//! buffer drain memmoved the packet along with it.
//!
//! The arena breaks that coupling. The engine parks the packet here when
//! it schedules the event and gets back a [`PktId`] — an 8-byte
//! slot-plus-generation handle that the event carries instead. When the
//! event fires, the engine takes the packet back out and the slot returns
//! to a free-list for the next schedule. At steady state the hot
//! Arrive → TxComplete → Propagated → Arrive chain recycles the same few
//! slots per in-flight packet and the arena performs **zero heap
//! allocations** — the slab grows to the peak number of simultaneously
//! scheduled packets and then stays put.
//!
//! The generation tag exists for safety, not semantics: each slot counts
//! how many times it has been freed, and a [`PktId`] is only valid while
//! its generation matches. A logic bug that double-frees or uses a stale
//! handle trips an assertion instead of silently reading a recycled
//! packet.

use crate::packet::Packet;

/// Handle to a packet parked in a [`PacketArena`].
///
/// Copyable and 8 bytes wide — this is what packet-carrying events store
/// instead of the packet itself. A handle is valid from
/// [`PacketArena::alloc`] until the matching [`PacketArena::take`];
/// using it after that trips the generation check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PktId {
    /// Index into the arena's slot slab.
    slot: u32,
    /// Generation the slot had when this handle was issued.
    gen: u32,
}

/// Slab of in-queue packets with a free-list (see the module docs).
#[derive(Debug, Default)]
pub struct PacketArena {
    /// `(generation, packet)` per slot. The generation increments on
    /// every free, invalidating outstanding handles to the old tenant.
    slots: Vec<(u32, Packet)>,
    /// Slots available for reuse.
    free: Vec<u32>,
    /// Currently parked packets (`slots.len() - free.len()`).
    live: usize,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `pkt` and return its handle, reusing a freed slot when one
    /// exists (the steady-state path: no allocation, no slab growth).
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> PktId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.1 = pkt;
            PktId { slot, gen: s.0 }
        } else {
            let slot = u32::try_from(self.slots.len()).expect("packet arena overflow");
            self.slots.push((0, pkt));
            PktId { slot, gen: 0 }
        }
    }

    /// Read a parked packet without freeing it (the digest path).
    #[inline]
    pub fn get(&self, id: PktId) -> &Packet {
        let (gen, pkt) = &self.slots[id.slot as usize];
        debug_assert_eq!(*gen, id.gen, "stale PktId read");
        pkt
    }

    /// Remove and return the packet, retiring the handle. The slot's
    /// generation bumps and the slot joins the free-list.
    ///
    /// # Panics
    /// If `id` was already taken (generation mismatch) — that is a
    /// double-free in the engine's event accounting, never recoverable.
    #[inline]
    pub fn take(&mut self, id: PktId) -> Packet {
        let s = &mut self.slots[id.slot as usize];
        assert_eq!(s.0, id.gen, "PktId taken twice");
        s.0 = s.0.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        s.1
    }

    /// Number of packets currently parked.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak slab size so far — the high-water mark of simultaneously
    /// parked packets (allocation footprint of the run).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::time::SimTime;

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(1), seq, 0, SimTime::ZERO, seq, false)
    }

    #[test]
    fn take_returns_what_alloc_parked() {
        let mut a = PacketArena::new();
        let id0 = a.alloc(pkt(10));
        let id1 = a.alloc(pkt(11));
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(id1).seq, 11);
        assert_eq!(a.take(id0).seq, 10);
        assert_eq!(a.take(id1).seq, 11);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn freed_slots_recycle_without_growing_the_slab() {
        let mut a = PacketArena::new();
        // A window of 4 packets cycling through schedule/fire 100 times
        // must never need a 5th slot.
        let mut ids: Vec<PktId> = (0..4).map(|s| a.alloc(pkt(s))).collect();
        for round in 1..100u64 {
            for id in std::mem::take(&mut ids) {
                let p = a.take(id);
                ids.push(a.alloc(pkt(p.seq + 4 * round)));
            }
        }
        assert_eq!(a.capacity(), 4, "steady state recycles, never grows");
        assert_eq!(a.live(), 4);
    }

    #[test]
    #[should_panic(expected = "PktId taken twice")]
    fn double_take_is_caught_by_the_generation_tag() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        let _ = a.take(id);
        // The slot may even be re-occupied by a new tenant; the stale
        // handle must still be rejected.
        let _ = a.alloc(pkt(2));
        let _ = a.take(id);
    }

    #[test]
    fn generations_distinguish_successive_tenants() {
        let mut a = PacketArena::new();
        let id0 = a.alloc(pkt(1));
        a.take(id0);
        let id1 = a.alloc(pkt(2));
        assert_ne!(id0, id1, "same slot, different generation");
        assert_eq!(a.get(id1).seq, 2);
        assert_eq!(a.capacity(), 1);
    }
}
