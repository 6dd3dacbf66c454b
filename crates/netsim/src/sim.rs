//! The simulation engine.
//!
//! Wires the pieces together: senders (a [`CongestionControl`] plugged into
//! a [`Transport`]) emit packets over routed paths of [`Link`]s; receivers
//! acknowledge every delivery; ON/OFF [`crate::workload::Workload`]
//! processes gate offered load. A run is a pure function of
//! `(NetworkConfig, protocols, seed)`.
//!
//! # Data and return paths
//!
//! Building a simulation lowers every flow to two routes into one
//! link table: a **data path** its packets cross to the receiver and a
//! **return path** its acknowledgments ([`PacketDir::Ack`] packets) cross
//! back. The table holds the config's links, then what the lowering
//! builds: a reverse [`Link`] per [`crate::topology::ReverseSpec`] — one
//! per spec'd link when the spec is `shared`, so every crossing flow's
//! ACKs queue, interleave and drop together, else one per flow and
//! spec'd hop — and a **delay-only link** (no queue, no serialization,
//! a fixed latency) per distinct delay a return path ends with. Shared
//! or private is only whether two flows name the same link. A flow
//! returns over its reverse links in reverse-route order, then over a
//! delay-only link for the propagation of its hops without a spec, if
//! that is nonzero; with no spec at all, that delay-only link adds the
//! negligible 1 Gbps ACK serialization and is the paper's uncongested
//! reverse path. A `reverse_data` flow's data path is its reverse links
//! instead, and its return path one delay-only link of its forward
//! propagation plus that serialization.
//!
//! The (data path, return path) pairs are interned: a slot holds the
//! index of its pair in the simulation's path table, whose entry also
//! holds the pair's one-way delay floor (the data path's propagation —
//! the reverse chain's for a `reverse_data` flow). A flow that crosses
//! no private reverse link shares the entry of the first flow with its
//! route and direction, so the 10⁴ flows of a dumbbell hold one entry
//! and one copy of its routes; a private reverse link makes a flow's
//! pair, and its entry, its own.
//!
//! A packet enters a link only through `Simulation::enter` and leaves it
//! only through `handle_propagated`, which forwards it to the next hop of
//! the path its direction selects, or delivers it: data to the receiver,
//! an ACK to the sender. A real link takes data and ACKs alike through
//! `Arrive → TxComplete → Propagated`; a delay-only link schedules the
//! packet's `Propagated` at entry, so a paper-path ACK costs one event.
//! Faults are held per link, `None` off the config's links.
//!
//! # One packet, one slot
//!
//! A packet keeps its [`PacketArena`] slot from its first link to its
//! fate: each event reuses the handle, a hop forward rewrites the hop in
//! place, and an immediate-ACK receiver overwrites the data packet with
//! its ACK. The slot is freed when the sender consumes the ACK, a queue
//! or fault drops the packet, corruption destroys it, its epoch is stale
//! or a delayed-ACK receiver holds it — and while a link queue, which
//! holds packets by value, has it.
//!
//! # Idle slots
//!
//! A flow slot holds only what must outlive an OFF period; most slots of
//! a churn cell are idle at any instant, and all of them when it is
//! built. The state only a live transfer touches — the [`Transport`]
//! with its rings, the controller's cached window and pacing interval,
//! the last send time and the RTO timer — is a pooled runtime the slot
//! takes when it turns ON (the last one freed, else a new one) and hands
//! back, with its rings' capacity, when it turns OFF. What stays per
//! slot, and why:
//!
//! * the controller, the workload process, the RNG and the path: the
//!   flow's identity across its epochs. The workload process holds an
//!   index into the simulation's table of distinct workload specs
//!   (interned in flow order), not a spec of its own, and the path an
//!   index into its table of distinct path pairs; the controller is
//!   whatever the caller built — outside training, a Tao sender records
//!   no whisker usage (usage recording is a training-only probe, see
//!   `protocols::tao`);
//! * `active_flows` and the ON-time tracker: the workload state machine
//!   runs while the slot is OFF. Whether the slot is ON is not stored
//!   in it: it is whether the pool's dense `held` array names a runtime
//!   for it;
//! * `pending_wake`: a pacing wake queued by an ended epoch still fires,
//!   and still clears it;
//! * the transport's epoch and RTO generation, saved at turn-OFF and
//!   adopted by the next runtime before it starts an epoch: packets and
//!   `RtoCheck`s of an ended epoch stay stale across OFF periods;
//! * the receiver: data of an ended epoch is still delivered, and
//!   deduplicated, after its sender turned OFF. A delayed-ACK receiver's
//!   policy state sits in a side table only those receivers have an
//!   entry in; every other receiver holds the `NONE` index;
//! * the flow's counters ([`FlowStats`]), beside the slots: its byte
//!   count is its packet count times [`crate::packet::DATA_PACKET_BYTES`]
//!   and is not kept.
//!
//! Moving state between the two changes no event: the runtime's fields
//! are reset at every turn-ON, as the slot's were.
//!
//! # Endpoint policies
//!
//! Receivers are first-class: each flow may carry a
//! [`crate::topology::ReceiverSpec`] turning its receiver into a small
//! state machine — delayed/stretch ACKs (acknowledge once per *k*
//! consecutive deliveries, with an optional [`Event::AckTimer`] flush
//! bounding how long a partial run is held), and advertised receive
//! windows (every ACK stamps `rwnd`; the sender transmits while
//! `in_flight < min(cwnd, rwnd)`). All acknowledgments — immediate or
//! coalesced — leave through one `Simulation::emit_ack` gateway onto the
//! flow's return path. A flow without a spec (or with the default spec)
//! takes the historical immediate-ACK path bit for bit.
//!
//! # Timers and the same-instant lane
//!
//! The scheduler only sees events that have to wait. Three kinds of work
//! are elided; none changes which live event is dispatched when, or in
//! what order at one instant (`tests/engine_equivalence.rs` holds every
//! flow's ack sequence and counters to values recorded before any of
//! this existed).
//!
//! * **Same-instant events skip the scheduler.** An event scheduled for
//!   the instant being dispatched — the `Arrive` of a transmission, of a
//!   hop forward, of an acknowledgment at a reverse link — sorts after
//!   everything already pending at that instant, so [`EventQueue`]
//!   appends it to a FIFO lane that `pop` serves once the instant's line
//!   and backend entries are out (see [`crate::event`]).
//! * **One armed `RtoCheck` per flow.** Every valid ACK moves the RTO
//!   deadline, and a check used to be scheduled at each new deadline;
//!   all but the last found themselves superseded when they fired
//!   (0.05 % ever fired a timeout), and until then they stood in the
//!   queue a full RTO deep. Now `reschedule_rto` *reserves* the queue
//!   position the eager check would have taken
//!   ([`EventQueue::reserve_seq`]) and inserts a check only when none of
//!   the current RTO generation is queued at or before the new deadline.
//!   The armed check that fires early re-inserts itself at the current
//!   deadline under the reserved `(time, seq)`, so the timeout fires at
//!   the queue position it always did. Two details keep that exact.
//!   A deadline that does not move (several ACKs in one instant) keeps
//!   its *earliest* reservation, the one whose check fired first. And a
//!   check that is queued but no longer the armed one (the deadline
//!   moved earlier and a new check was inserted in front of it) still
//!   obeys the old rule — dead unless its `gen` is current and the
//!   deadline has passed — so it can fire only where the eager timer
//!   also had a check, never re-arms, and is never relied on. (One
//!   position is not reproduced: a deadline that leaves for a different
//!   one and later returns to the very same nanosecond takes the later
//!   reservation unless the earlier check is still queued. That needs
//!   two float-derived RTOs to coincide exactly *and* a competing event
//!   at that instant to be observable; the fixture and the figure
//!   goldens show none.)
//! * **One pending pacing wake.** `pending_wake` names the earliest
//!   queued [`Event::SenderWake`], and only that wake clears it. When any
//!   wake cleared it, a stale one made the next `try_send` queue a
//!   duplicate of a wake that was still waiting, each duplicate did the
//!   same, and a sender whose intersend time moves with every ACK woke
//!   several times per packet (a PCC sender without bound). Every wake
//!   still calls `try_send`, and a sender blocked on pacing always has a
//!   wake queued at or before the instant it may send, so transmissions
//!   leave at the instants they did.
//!
//! # Delay lines
//!
//! What does have to wait is mostly packet events whose order is known
//! when they are scheduled, and those wait in FIFO delay lines of the
//! [`EventQueue`] rather than in its backend (see [`crate::event`]):
//!
//! * **a tx line per link** carries its [`Event::TxComplete`]. A link
//!   serializes one packet at a time, so the line never holds more than
//!   one (this covers the restart of a held queue in `handle_link_up`);
//! * **a propagation line per link** carries its [`Event::Propagated`],
//!   each scheduled at `now + delay` for the link's fixed delay — after
//!   serialization on a real link, at entry on a delay-only one. Return
//!   paths share a delay-only link per distinct delay (the paper path's
//!   1 Gbps serialization folded in once, not converted per ACK), so
//!   their ACKs wait on one line per return delay, whatever the flow
//!   count.
//!
//! Every event on a line is scheduled at `now` plus that line's constant,
//! or — on a tx line — when nothing else is queued on it, so each line is
//! sorted by `(time, seq)` as it is filled, and the queue merges the
//! lines with its backend by `(time, seq)`. Each event still draws its
//! seq when it is scheduled, exactly as before, so the merge dispatches
//! the identical sequence (`tests/engine_equivalence.rs` holds every
//! cell's event count and digest to values recorded before the lines
//! existed). An event that breaks its line's order would not move either:
//! the queue sends it to the backend. The backend keeps the timers: 12 %
//! of what the quick figures dispatch.
//!
//! # Probes
//!
//! What a run records beyond its [`RunOutcome`] goes through its
//! [`Probe`] `P` ([`Simulation::with_probe`]), called before each dispatch,
//! per ACK in `handle_ack`, per queue drop and at the end of the run. It
//! only reads, so every probe sees the same run, event count included, and
//! [`NoProbe`]'s empty hooks compile away. A sample is the state at the
//! start of an instant, taken before its first event is dispatched. The
//! other probes are [`Digest`](crate::probe::Digest), the determinism
//! tests' event and ACK digests, and
//! [`QueueTrace`](crate::probe::QueueTrace), one link's queue in packets
//! at each period boundary and the times it dropped (Fig 8).

use crate::arena::{PacketArena, PktId};
use crate::event::{Event, EventKind, EventQueue, Line, QueueCounters, SchedulerKind};
use crate::flow::{FlowOutcome, FlowStats, OnTimeTracker};
use crate::link::{Link, Offer};
use crate::packet::{Ack, FlowId, LinkId, Packet, PacketDir, ACK_BYTES};
use crate::probe::{NoProbe, Probe};
use crate::queue::QueueStats;
use crate::rng::SimRng;
use crate::seqtrack::SeqTracker;
use crate::time::{SimDuration, SimTime};
use crate::topology::{FaultSpec, NetworkConfig, ReceiverSpec, ReverseSpec};
use crate::transport::{CongestionControl, Transport};
use crate::workload::{Workload, WorkloadSpec};

/// A flow's path: a range of [`Simulation::routes`], in hop order.
#[derive(Clone, Copy)]
struct Route {
    start: u32,
    len: u32,
}

impl Route {
    /// The route table's entries from `start` to its end.
    fn since(table: &[LinkId], start: usize) -> Route {
        Route {
            start: start as u32,
            len: (table.len() - start) as u32,
        }
    }

    /// Append `links` to the route table as a new route.
    fn push(table: &mut Vec<LinkId>, links: impl IntoIterator<Item = LinkId>) -> Route {
        let start = table.len();
        table.extend(links);
        Route::since(table, start)
    }

    fn links(self, table: &[LinkId]) -> &[LinkId] {
        &table[self.start as usize..][..self.len as usize]
    }
}

/// The links a flow's data crosses and those its ACKs cross back (see
/// "Data and return paths" in the module docs), and the flow's one-way
/// delay floor. Flows with the same pair share one entry of
/// [`Simulation::paths`].
struct Path {
    data: Route,
    ret: Route,
    /// Propagation along the data path: the floor under which a
    /// delivery's one-way delay is queueing-free.
    min_one_way: SimDuration,
}

/// An unused `u32` index: a slot that holds no runtime entry, a receiver
/// without a delayed-ACK state.
const NONE: u32 = u32::MAX;

/// What a flow slot keeps whether or not it is ON: its controller,
/// workload process, RNG and path, its ON bookkeeping, and the counts a
/// live transfer must carry on from (see "Idle slots" in the module docs).
/// Whether it is ON is whether it holds a runtime
/// ([`RuntimePool::is_on`]).
struct SenderSlot {
    cc: Box<dyn CongestionControl>,
    workload: Workload,
    /// Index of the flow's [`Path`] in [`Simulation::paths`].
    path: u32,
    /// Concurrent transfers hosted by this slot (unblocked M/G/∞ churn);
    /// the slot is ON while this is nonzero.
    active_flows: u32,
    on_tracker: OnTimeTracker,
    /// Firing time of the earliest queued SenderWake (`SimTime::MAX`:
    /// none); cleared only by that wake, so a later one is never
    /// scheduled twice.
    pending_wake: SimTime,
    /// The transport's epoch and RTO generation while the slot is OFF
    /// (its runtime holds the current ones while it is ON).
    epoch: u32,
    rto_gen: u64,
    rng: SimRng,
}

/// What only a live transfer touches: the reliability layer with its
/// rings, the controller's cached outputs, pacing and the RTO timer. A
/// slot takes one from the [`RuntimePool`] when it turns ON and hands it
/// back when it turns OFF.
struct FlowRuntime {
    /// `cc.window()` as a packet count and `cc.intersend()`, read after
    /// every callback that can change them (`reset`, `on_ack`, `on_loss`,
    /// `on_timeout`; both are `&self` functions of the controller's
    /// state), so the send loop makes no virtual call.
    window: usize,
    intersend: SimDuration,
    transport: Transport,
    /// Time of the last transmission, for pacing (`SimTime::MAX`: none
    /// this epoch).
    last_send: SimTime,
    /// Current RTO deadline (valid only at the matching rto_gen).
    rto_deadline: SimTime,
    /// Queue seq reserved for a check at `rto_deadline` (see "Timers and
    /// the same-instant lane" in the module docs).
    rto_seq: u64,
    /// Firing time of the queued RtoCheck of the current generation that
    /// will carry the deadline forward (`SimTime::MAX`: none is queued).
    rto_armed: SimTime,
}

impl FlowRuntime {
    /// Refresh the cached window and pacing interval after a callback.
    fn read_cc(&mut self, cc: &dyn CongestionControl) {
        let window = cc.window();
        // `NaN as usize` is 0: the flow would stall without a word.
        debug_assert!(!window.is_nan(), "a controller's window is NaN");
        self.window = window as usize;
        self.intersend = cc.intersend();
    }
}

/// The runtimes of live transfers. An entry is freed when its slot turns
/// OFF and taken again, last freed first, by the next slot to turn ON, so
/// the pool holds no more entries than the most slots ever ON at once.
struct RuntimePool {
    entries: Vec<FlowRuntime>,
    free: Vec<u32>,
    /// Per slot, the entry it holds while ON, [`NONE`] while OFF. Kept
    /// apart from the slots: at 4 bytes a slot it stays cached, so a
    /// handler finds the runtime without first waiting for the slot's
    /// cache line (as a slot field it cost a 10⁴-slot incast cell ~5 %
    /// more run time on a shared 2-vCPU Xeon).
    held: Vec<u32>,
}

impl RuntimePool {
    fn new(slots: usize) -> Self {
        RuntimePool {
            entries: Vec::new(),
            free: Vec::new(),
            held: vec![NONE; slots],
        }
    }

    /// Whether slot `i` is ON: it holds an entry.
    fn is_on(&self, i: usize) -> bool {
        self.held[i] != NONE
    }

    /// An entry for `flow`, its transport carrying on from the slot's
    /// `epoch` and `rto_gen`; every other field is reset by `turn_on`.
    fn take(&mut self, flow: FlowId, epoch: u32, rto_gen: u64) -> &mut FlowRuntime {
        let id = self.free.pop().unwrap_or_else(|| {
            self.entries.push(FlowRuntime {
                window: 0,
                intersend: SimDuration::ZERO,
                transport: Transport::new(flow),
                last_send: SimTime::MAX,
                rto_deadline: SimTime::MAX,
                rto_seq: 0,
                rto_armed: SimTime::MAX,
            });
            self.entries.len() as u32 - 1
        });
        self.held[flow.0 as usize] = id;
        let rt = &mut self.entries[id as usize];
        rt.transport.resume(flow, epoch, rto_gen);
        rt
    }

    /// Free slot `i`'s entry, abandoning its transfer; returns the epoch
    /// and RTO generation the slot keeps for the next [`take`](Self::take).
    fn put_back(&mut self, i: usize) -> (u32, u64) {
        let id = std::mem::replace(&mut self.held[i], NONE);
        let transport = &mut self.entries[id as usize].transport;
        transport.abort();
        self.free.push(id);
        (transport.epoch(), transport.rto_gen())
    }

    /// The entry slot `i` holds, if it is ON (no entry sits at [`NONE`]:
    /// entries are counted in `u32`s).
    fn get(&mut self, i: usize) -> Option<&mut FlowRuntime> {
        self.entries.get_mut(self.held[i] as usize)
    }
}

/// Per-flow engine state stays within these sizes: at 10⁴ flows each
/// word of a slot costs 80 kB (`netsim.sim.kb_per_flow`). A runtime entry
/// is paid only per live transfer.
const _FLOW_SLOTS_STAY_SMALL: () = assert!(
    std::mem::size_of::<SenderSlot>() <= 96
        && std::mem::size_of::<FlowRuntime>() <= 256
        && std::mem::size_of::<ReceiverSlot>() <= 48
        && std::mem::size_of::<FlowStats>() <= 80
);

/// Runtime state of one config link's [`FaultSpec`] process: the
/// per-link child RNG (forked only for links that declare a fault, so
/// `fault: None` configs keep their exact pre-fault streams) and the
/// Gilbert–Elliott channel state.
struct FaultState {
    spec: FaultSpec,
    rng: SimRng,
    /// Gilbert–Elliott: currently in the bad (lossy) state.
    bad: bool,
}

/// Per-flow receiver state: which sequences have been seen this epoch
/// (deduplicates retransmissions in the delivery stats). Sequences are
/// near-sequential, so a sliding bitmap replaces the per-delivery hash.
struct ReceiverSlot {
    epoch: u32,
    /// Index of the receiver's ACK-policy state machine in
    /// [`Simulation::policies`]; [`NONE`] (every flow whose spec is
    /// absent or [`ReceiverSpec::is_immediate`]) selects the historical
    /// immediate per-packet-ack path, bit for bit. Only delayed-ACK
    /// receivers have an entry.
    policy: u32,
    seen: SeqTracker,
}

/// Runtime state of one receiver's non-immediate ACK policy.
struct PolicyState {
    spec: ReceiverSpec,
    /// Deliveries coalesced into the batch so far (the `batch` count an
    /// eventual flush carries).
    pending: u32,
    /// Latest coalesced delivery and its arrival time (the packet whose
    /// echo fields the flush's single ACK will carry).
    held: Option<(Packet, SimTime)>,
    /// Generation guard: an [`Event::AckTimer`] fires only if its `gen`
    /// still matches (every flush and epoch restart bumps this).
    timer_gen: u64,
    /// A flush timer for the current batch is already in the queue.
    timer_armed: bool,
}

impl PolicyState {
    fn new(spec: ReceiverSpec) -> Self {
        PolicyState {
            spec,
            pending: 0,
            held: None,
            timer_gen: 0,
            timer_armed: false,
        }
    }

    /// Drop all coalescing state and invalidate any armed timer (epoch
    /// restart).
    fn reset(&mut self) {
        self.pending = 0;
        self.held = None;
        self.timer_gen += 1;
        self.timer_armed = false;
    }
}

/// Aggregate outcome of a simulation run, the same under every probe.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Per-flow results, indexed by flow id.
    pub flows: Vec<FlowOutcome>,
    /// Simulated wall-clock length, seconds.
    pub duration_s: f64,
    /// Final queue counters per link: the config links, then the links
    /// the lowering built, in build order (see "Data and return paths" in
    /// the module docs).
    pub link_queues: Vec<QueueStats>,
    /// Bytes each link transmitted (utilization = bytes*8 / rate / T),
    /// indexed like `link_queues`.
    pub link_bytes: Vec<u64>,
    /// Line rate of each link in bits per second, indexed like
    /// `link_queues` (infinite for a delay-only link, which serializes
    /// nothing).
    pub link_rates_bps: Vec<f64>,
    /// Total events dispatched.
    pub events_processed: u64,
    /// Events dispatched, indexed by [`EventKind`] (see
    /// [`events_of`](Self::events_of)). Always on: one array increment
    /// per dispatch.
    pub events_by_kind: [u64; EventKind::COUNT],
    /// Where the event queue put what was scheduled (lane, delay line,
    /// backend) and what its calendar backend did. Always on.
    pub queue: QueueCounters,
    /// `true` when the run stopped because it exhausted the event budget
    /// ([`Simulation::set_event_budget`]) rather than reaching the
    /// requested duration. Every per-flow statistic then covers only the
    /// simulated prefix — consumers must treat the outcome as a partial
    /// result, not a converged measurement.
    pub truncated: bool,
}

impl RunOutcome {
    /// Events of one kind dispatched over the run.
    pub fn events_of(&self, kind: EventKind) -> u64 {
        self.events_by_kind[kind as usize]
    }

    /// Utilization of a link over the run.
    pub fn utilization(&self, link: usize, rate_bps: f64) -> f64 {
        self.link_bytes[link] as f64 * 8.0 / (rate_bps * self.duration_s)
    }
}

/// A configured simulation, ready to run, reporting to its probe `P`.
pub struct Simulation<P: Probe = NoProbe> {
    now: SimTime,
    events: EventQueue,
    /// Backing store for packets parked inside scheduled events (see
    /// "One packet, one slot" in the module docs); slots recycle through
    /// the free-list, so at steady state a packet event allocates nothing.
    arena: PacketArena,
    /// The config's links, then the lowering's (see
    /// [`RunOutcome::link_queues`] for the layout).
    links: Vec<Link>,
    /// The links of every distinct data and return path, end to end
    /// ([`Route`]).
    routes: Vec<LinkId>,
    /// The flows' distinct (data, return) path pairs, which each slot
    /// indexes.
    paths: Vec<Path>,
    /// Per link, the delay line of its `TxComplete` events.
    tx_line: Vec<Line>,
    /// Per link, the delay line of its `Propagated` events.
    prop_line: Vec<Line>,
    senders: Vec<SenderSlot>,
    /// The flows' distinct workload specs, which each slot's
    /// [`Workload`] indexes.
    workloads: Vec<WorkloadSpec>,
    /// Runtimes of the live transfers (see "Idle slots" in the module docs).
    pool: RuntimePool,
    receivers: Vec<ReceiverSlot>,
    /// The delayed-ACK receivers' policy states, in flow order.
    policies: Vec<PolicyState>,
    /// Fault-process state per link (`None` = no fault declared).
    faults: Vec<Option<FaultState>>,
    stats: Vec<FlowStats>,
    events_processed: u64,
    events_by_kind: [u64; EventKind::COUNT],
    /// Hard cap on events to guard against pathological protocol settings
    /// (e.g. a candidate action with near-zero pacing during optimization).
    event_budget: u64,
    probe: P,
    /// Whether [`run`](Self::run) has been called (a simulation runs once).
    ran: bool,
}

impl Simulation {
    /// Build a simulation on the default scheduler backend (the calendar
    /// queue).
    /// `protocols[i]` drives `config.flows[i]`; the whole run is
    /// deterministic in `seed`.
    pub fn new(
        config: &NetworkConfig,
        protocols: Vec<Box<dyn CongestionControl>>,
        seed: u64,
    ) -> Self {
        Self::with_scheduler(config, protocols, seed, SchedulerKind::default())
    }

    /// Build a simulation on an explicit scheduler backend. Backends are
    /// order-equivalent, so the outcome is bit-identical whichever is
    /// chosen — this knob exists for benchmarking and regression tests.
    pub fn with_scheduler(
        config: &NetworkConfig,
        protocols: Vec<Box<dyn CongestionControl>>,
        seed: u64,
        scheduler: SchedulerKind,
    ) -> Self {
        Simulation::with_probe(config, protocols, seed, scheduler, NoProbe)
    }
}

impl<P: Probe> Simulation<P> {
    /// [`Simulation::with_scheduler`], reporting to `probe` as it runs.
    pub fn with_probe(
        config: &NetworkConfig,
        protocols: Vec<Box<dyn CongestionControl>>,
        seed: u64,
        scheduler: SchedulerKind,
        probe: P,
    ) -> Self {
        // Fail here with the validator's message rather than as an
        // index-out-of-bounds somewhere deep in the event loop.
        if let Err(msg) = config.validate() {
            panic!("invalid network config: {msg}");
        }
        assert_eq!(
            protocols.len(),
            config.flows.len(),
            "one protocol per flow required"
        );
        let mut root = SimRng::from_seed(seed);
        let mut links: Vec<Link> = config
            .links
            .iter()
            .enumerate()
            .map(|(i, ls)| {
                let salt = root.fork(0x1111 + i as u64).gen_u64();
                Link::new(ls.rate_bps, ls.one_way_delay(), ls.queue.build(salt))
            })
            .collect();
        let mut workloads = Vec::new();
        let mut senders: Vec<SenderSlot> = protocols
            .into_iter()
            .enumerate()
            .map(|(i, cc)| SenderSlot {
                cc,
                workload: Workload::interned(&mut workloads, &config.flows[i].workload),
                path: NONE,
                active_flows: 0,
                on_tracker: OnTimeTracker::default(),
                pending_wake: SimTime::MAX,
                epoch: 0,
                rto_gen: 0,
                rng: root.fork(0x2222 + i as u64),
            })
            .collect();
        let n = senders.len();
        // Reverse links, each forking its queue salt in build order after
        // the sender RNGs: one per shared spec (link order), then one per
        // flow and private spec'd hop (flow order, reverse-route order).
        let mut rev_fork = 0u64;
        let mut reverse_link = |root: &mut SimRng, links: &mut Vec<Link>, r: &ReverseSpec| {
            let salt = root.fork(0x3333 + rev_fork).gen_u64();
            rev_fork += 1;
            let delay = SimDuration::from_secs_f64(r.delay_s);
            links.push(Link::new(r.rate_bps, delay, r.queue.build(salt)));
            LinkId(links.len() as u32 - 1)
        };
        let uplinks: Vec<Option<LinkId>> = config
            .links
            .iter()
            .map(|ls| match &ls.reverse {
                Some(r) if r.shared => Some(reverse_link(&mut root, &mut links, r)),
                _ => None,
            })
            .collect();
        // The paper's acknowledgment serialization (negligible, 1 Gbps).
        let ack_tx = SimDuration::from_secs_f64(ACK_BYTES as f64 * 8.0 / 1e9);
        let mut routes = Vec::new();
        let mut paths = Vec::new();
        // A flow crossing no private reverse link has the path pair of
        // every flow with its route and direction: the first such flow
        // builds the entry the others share. A private link makes a
        // flow's pair its own.
        let mut interned = std::collections::HashMap::new();
        // Each return path's closing delay-only hop, as (route slot,
        // delay) in flow order: its link is built once every reverse link
        // has its id.
        let mut delay_hops = Vec::new();
        for (i, f) in config.flows.iter().enumerate() {
            let key = (f.route.as_slice(), f.reverse_data);
            if let Some(&id) = interned.get(&key) {
                senders[i].path = id;
                continue;
            }
            let private = f
                .route
                .iter()
                .any(|&l| uplinks[l].is_none() && config.links[l].reverse.is_some());
            let forward = (!f.reverse_data)
                .then(|| Route::push(&mut routes, f.route.iter().map(|&l| LinkId(l as u32))));
            let start = routes.len();
            let mut residual = SimDuration::ZERO;
            for &l in f.route.iter().rev() {
                match (uplinks[l], &config.links[l].reverse) {
                    (Some(uplink), _) => routes.push(uplink),
                    (None, Some(r)) => {
                        let private = reverse_link(&mut root, &mut links, r);
                        routes.push(private);
                    }
                    (None, None) => residual += config.links[l].one_way_delay(),
                }
            }
            let reverse = Route::since(&routes, start);
            let (data, ret_start, delay, min_one_way) = match forward {
                Some(data) if reverse.len == 0 => {
                    (data, start, residual + ack_tx, config.min_one_way(i))
                }
                Some(data) => (data, start, residual, config.min_one_way(i)),
                // Validation guarantees a spec on every hop, so the
                // reverse links cover the whole path, and the delay floor
                // is the reverse chain's.
                None => (
                    reverse,
                    routes.len(),
                    config.min_one_way(i) + ack_tx,
                    config.ack_delay(i),
                ),
            };
            if !delay.is_zero() {
                delay_hops.push((routes.len(), delay));
                routes.push(LinkId(u32::MAX));
            }
            let id = paths.len() as u32;
            paths.push(Path {
                data,
                ret: Route::since(&routes, ret_start),
                min_one_way,
            });
            if !private {
                interned.insert(key, id);
            }
            senders[i].path = id;
        }
        let mut by_delay = std::collections::BTreeMap::new();
        for (slot, delay) in delay_hops {
            routes[slot] = *by_delay.entry(delay).or_insert_with(|| {
                links.push(Link::delay_only(delay));
                LinkId(links.len() as u32 - 1)
            });
        }
        // Fault-process RNGs, forked last and only for links declaring a
        // fault: a `fault: None` config performs the identical fork
        // sequence as before this field existed, keeping it bit-identical.
        let mut faults: Vec<Option<FaultState>> = config
            .links
            .iter()
            .enumerate()
            .map(|(i, ls)| {
                ls.fault.as_ref().map(|spec| FaultState {
                    spec: spec.clone(),
                    rng: root.fork(0x4444 + i as u64),
                    bad: false,
                })
            })
            .collect();
        faults.resize_with(links.len(), || None);
        let mut events = EventQueue::with_kind(scheduler);
        let tx_line = links.iter().map(|_| events.line()).collect();
        let prop_line = links.iter().map(|_| events.line()).collect();
        let mut policies = Vec::new();
        let receivers = config
            .flows
            .iter()
            .map(|f| ReceiverSlot {
                epoch: 0,
                policy: match f.receiver.as_ref().filter(|r| !r.is_immediate()) {
                    Some(spec) => {
                        policies.push(PolicyState::new(spec.clone()));
                        policies.len() as u32 - 1
                    }
                    None => NONE,
                },
                seen: SeqTracker::default(),
            })
            .collect();
        Simulation {
            now: SimTime::ZERO,
            events,
            arena: PacketArena::new(),
            links,
            routes,
            paths,
            tx_line,
            prop_line,
            senders,
            workloads,
            pool: RuntimePool::new(n),
            receivers,
            policies,
            faults,
            stats: vec![FlowStats::default(); n],
            events_processed: 0,
            events_by_kind: [0; EventKind::COUNT],
            event_budget: u64::MAX,
            probe,
            ran: false,
        }
    }

    /// Cap the number of processed events (optimizer safety valve).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Run for `duration` of simulated time and return per-flow outcomes.
    ///
    /// A simulation runs once: the first event past the end is consumed,
    /// so the queue no longer holds the future. What only the run needed
    /// — the transfer pool, the event queue's storage and the packet
    /// arena — is freed before the outcome is built; the controllers
    /// ([`into_protocols`](Self::into_protocols)) and the probe
    /// ([`into_probe`](Self::into_probe)) stay.
    pub fn run(&mut self, duration: SimDuration) -> RunOutcome {
        assert!(!self.ran, "a simulation runs once");
        self.ran = true;
        let (truncated, queue) = P::simulate(self, duration);
        self.pool = RuntimePool::new(0);
        self.events = EventQueue::with_kind(self.events.kind());
        self.arena = PacketArena::new();
        self.outcome(duration, truncated, queue)
    }

    /// Dispatch every event up to `SimTime::ZERO + duration` (or the event
    /// budget) and close the ON intervals; returns whether the budget cut
    /// the run short, and the queue's counters.
    pub(crate) fn simulate(&mut self, duration: SimDuration) -> (bool, QueueCounters) {
        let end = SimTime::ZERO + duration;

        // Prime workload processes. Unblocked (M/G/∞) churn slots draw
        // the same exp(1/λ) first arrival as the blocked variant but
        // enter the per-slot multiplexing machinery instead of the
        // single-chain toggle process.
        for i in 0..self.senders.len() {
            let s = &mut self.senders[i];
            if s.workload.is_on() {
                self.turn_on(i);
            } else {
                let first = {
                    let s = &mut self.senders[i];
                    let mut rng = s.rng.fork(0x9999);
                    s.workload.first_toggle(&self.workloads, &mut rng)
                };
                if let Some(t) = first {
                    let flow = FlowId(i as u32);
                    let ev = if self.senders[i]
                        .workload
                        .mginf_rates(&self.workloads)
                        .is_some()
                    {
                        Event::FlowArrival { flow }
                    } else {
                        Event::WorkloadToggle { flow }
                    };
                    self.events.schedule(t, ev);
                }
            }
        }
        // Prime outage processes: every Outage-faulted link starts up and
        // goes down after its first up dwell.
        for l in 0..self.faults.len() {
            if let Some(f) = &mut self.faults[l] {
                if let FaultSpec::Outage {
                    up_s, scheduled, ..
                } = f.spec
                {
                    let dwell = outage_dwell(up_s, scheduled, &mut f.rng);
                    self.events.schedule(
                        SimTime::ZERO + dwell,
                        Event::LinkDown {
                            link: LinkId(l as u32),
                        },
                    );
                }
            }
        }

        // One event at a time, in `(time, seq)` order: the queue hands
        // out an instant's line and backend entries, then what
        // dispatching them scheduled for the same instant (its lane).
        let mut truncated = false;
        while let Some((at, ev)) = self.events.pop() {
            if at > end || self.events_processed == self.event_budget {
                // Not dispatched: the run ends here, and the event's
                // packet leaves the arena.
                truncated = at <= end;
                self.events_processed += u64::from(truncated);
                if let Some(pkt) = ev.pkt() {
                    self.arena.take(pkt);
                }
                break;
            }
            self.events_processed += 1;
            self.now = at;
            self.events_by_kind[ev.kind() as usize] += 1;
            self.probe.on_event(at, &ev, &self.links, &self.arena);
            self.dispatch(ev);
        }
        if !truncated {
            self.probe.on_end(end, &self.links);
        }
        self.now = end;

        // Close out ON intervals.
        for i in 0..self.senders.len() {
            if self.pool.is_on(i) {
                let d = self.senders[i].on_tracker.finish(end);
                self.stats[i].on_time += d;
            }
        }
        (truncated, self.events.counters())
    }

    fn outcome(&self, duration: SimDuration, truncated: bool, queue: QueueCounters) -> RunOutcome {
        RunOutcome {
            flows: (0..self.senders.len())
                .map(|i| {
                    let path = &self.paths[self.senders[i].path as usize];
                    FlowOutcome::from_stats(i, &self.stats[i], path.min_one_way)
                })
                .collect(),
            duration_s: duration.as_secs_f64(),
            link_queues: self.links.iter().map(|l| l.queue_stats()).collect(),
            link_bytes: self.links.iter().map(|l| l.bytes_transmitted()).collect(),
            link_rates_bps: self.links.iter().map(|l| l.rate_bps()).collect(),
            events_processed: self.events_processed,
            events_by_kind: self.events_by_kind,
            queue,
            truncated,
        }
    }

    /// The probe, with what it recorded so far.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consume the simulation and hand back its probe.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Consume the simulation and hand back the protocol objects (the
    /// optimizer reads whisker usage counts out of Tao executors).
    pub fn into_protocols(self) -> Vec<Box<dyn CongestionControl>> {
        self.senders.into_iter().map(|s| s.cc).collect()
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrive { link, pkt } => self.handle_arrive(link, pkt),
            Event::TxComplete { link, pkt } => self.handle_tx_complete(link, pkt),
            Event::Propagated { link, pkt } => self.handle_propagated(link, pkt),
            Event::SenderWake { flow } => {
                let i = flow.0 as usize;
                // Only the pending wake clears the marker: a stale one
                // clearing it made the next `try_send` schedule a
                // duplicate of a wake that is still queued.
                let s = &mut self.senders[i];
                if s.pending_wake == self.now {
                    s.pending_wake = SimTime::MAX;
                }
                self.try_send(i);
            }
            Event::RtoCheck { flow, gen } => self.handle_rto(flow, gen),
            Event::WorkloadToggle { flow } => self.handle_toggle(flow),
            Event::FlowArrival { flow } => self.handle_flow_arrival(flow),
            Event::FlowDeparture { flow } => self.handle_flow_departure(flow),
            Event::LinkDown { link } => self.handle_link_down(link),
            Event::LinkUp { link } => self.handle_link_up(link),
            Event::AckTimer { flow, gen } => self.handle_ack_timer(flow, gen),
        }
    }

    fn handle_arrive(&mut self, link: LinkId, id: PktId) {
        let l = link.0 as usize;
        let pkt = *self.arena.get(id);
        // Ingress fault checks.
        if let Some(f) = &mut self.faults[l] {
            match f.spec {
                FaultSpec::GilbertElliott {
                    loss_good,
                    loss_bad,
                    good_to_bad,
                    bad_to_good,
                } => {
                    // Fixed draw order (loss, then transition) keeps
                    // the stream identical across scheduler backends.
                    let lost = f.rng.chance(if f.bad { loss_bad } else { loss_good });
                    if f.rng.chance(if f.bad { bad_to_good } else { good_to_bad }) {
                        f.bad = !f.bad;
                    }
                    if lost {
                        self.arena.take(id);
                        self.stats[pkt.flow.0 as usize].drops.fault += 1;
                        return;
                    }
                }
                FaultSpec::Outage {
                    drop_while_down: true,
                    ..
                } if self.links[l].is_down() => {
                    self.arena.take(id);
                    self.stats[pkt.flow.0 as usize].drops.fault += 1;
                    return;
                }
                _ => {}
            }
        }
        match self.links[l].offer(pkt, self.now) {
            Offer::StartTx(d) => self.events.schedule_on(
                self.tx_line[l],
                self.now + d,
                Event::TxComplete { link, pkt: id },
            ),
            // The link's queue holds the packet by value from here.
            Offer::Queued => {
                self.arena.take(id);
            }
            Offer::Dropped => {
                self.arena.take(id);
                let st = &mut self.stats[pkt.flow.0 as usize];
                match pkt.dir() {
                    PacketDir::Data => st.drops.forward += 1,
                    PacketDir::Ack => st.drops.ack += 1,
                }
                self.probe.on_drop(self.now, link);
            }
        }
    }

    fn handle_tx_complete(&mut self, link: LinkId, id: PktId) {
        let l = link.0 as usize;
        // The finished packet propagates in the slot it crossed in.
        self.events.schedule_on(
            self.prop_line[l],
            self.now + self.links[l].delay(),
            Event::Propagated { link, pkt: id },
        );
        // Pull the next packet from the queue.
        if let Some((next, d)) = self.links[l].tx_complete(self.arena.get(id), self.now) {
            let next = self.arena.alloc(next);
            self.events.schedule_on(
                self.tx_line[l],
                self.now + d,
                Event::TxComplete { link, pkt: next },
            );
        }
    }

    /// The one way a packet enters a link: a real link's ingress takes it
    /// at this instant, through the same-instant lane; a delay-only link
    /// hands it to its far end `delay` later, on its propagation line.
    fn enter(&mut self, link: LinkId, pkt: PktId) {
        let l = link.0 as usize;
        if self.links[l].is_delay_only() {
            let at = self.now + self.links[l].delay();
            self.events
                .schedule_on(self.prop_line[l], at, Event::Propagated { link, pkt });
        } else {
            self.events.schedule(self.now, Event::Arrive { link, pkt });
        }
    }

    /// The one way a packet leaves a link: on to the next hop of the path
    /// its direction selects, or delivered — data to the receiver, an ACK
    /// to the sender.
    fn handle_propagated(&mut self, link: LinkId, id: PktId) {
        let pkt = *self.arena.get(id);
        // Corruption destroys the packet *after* it crossed the link: it
        // consumed serialization capacity and queue space (unlike a queue
        // drop, which never transmits) but is discarded at the far end.
        if let Some(f) = &mut self.faults[link.0 as usize] {
            if let FaultSpec::Corruption { prob } = f.spec {
                if f.rng.chance(prob) {
                    self.arena.take(id);
                    self.stats[pkt.flow.0 as usize].drops.fault += 1;
                    return;
                }
            }
        }
        let flow = pkt.flow.0 as usize;
        let path = &self.paths[self.senders[flow].path as usize];
        let path = match pkt.dir() {
            PacketDir::Data => path.data,
            PacketDir::Ack => path.ret,
        }
        .links(&self.routes);
        let next_hop = pkt.hop() as usize + 1;
        if let Some(&next) = path.get(next_hop) {
            self.arena.get_mut(id).set_hop(next_hop as u8);
            return self.enter(next, id);
        }
        debug_assert_eq!(path[pkt.hop() as usize], link);
        if pkt.dir() == PacketDir::Ack {
            self.arena.take(id);
            return self.handle_ack(pkt.flow, pkt.as_ack());
        }

        // Delivery at the receiver.
        let rx = &mut self.receivers[flow];
        if rx.epoch != pkt.epoch {
            // Stale packet from a previous burst: ignore entirely.
            self.arena.take(id);
            return;
        }
        if rx.seen.insert(pkt.seq) {
            let delay = self.now - pkt.sent_at;
            self.stats[flow].record_delivery(delay);
        }
        self.receive(flow, id);
    }

    /// The receiver's acknowledgment decision for a delivered data
    /// packet: the immediate per-packet selective ACK when the flow has
    /// no (non-trivial) [`ReceiverSpec`] — the historical engine, bit for
    /// bit — or the delayed-ACK state machine otherwise.
    fn receive(&mut self, flow: usize, id: PktId) {
        let policy = self.receivers[flow].policy as usize;
        if policy == NONE as usize {
            // The acknowledgment takes the data packet's slot.
            let pkt = self.arena.get_mut(id);
            *pkt = Packet::ack_for(pkt, self.now);
            self.emit_ack(flow, id);
            return;
        }
        let pkt = self.arena.take(id);
        // Only seq-consecutive in-order runs coalesce: a gap (or a
        // duplicate) means the held acknowledgment must go out on its
        // own before this delivery starts a new run — folding across the
        // gap would silently acknowledge sequences that never arrived.
        let breaks_run = self.policies[policy]
            .held
            .as_ref()
            .is_some_and(|(held, _)| pkt.seq != held.seq + 1);
        if breaks_run {
            self.flush_ack(flow);
        }
        let now = self.now;
        let p = &mut self.policies[policy];
        p.held = Some((pkt, now));
        p.pending += 1;
        // A retransmitted delivery acknowledges immediately: the sender
        // is in recovery and stretching its ACK clock would stall it.
        let flush_now = pkt.is_retx() || p.pending >= p.spec.ack_every;
        if !flush_now {
            if let Some(t) = p.spec.flush_timer_s {
                if !p.timer_armed {
                    p.timer_armed = true;
                    let gen = p.timer_gen;
                    self.events.schedule(
                        now + SimDuration::from_secs_f64(t),
                        Event::AckTimer {
                            flow: FlowId(flow as u32),
                            gen,
                        },
                    );
                }
            }
            return;
        }
        self.flush_ack(flow);
    }

    /// Emit the coalesced acknowledgment for a policy receiver's held
    /// run (no-op when nothing is held), invalidating any armed flush
    /// timer. The ACK departs *now* but echoes the held packet's arrival
    /// time, so sender RTT samples include the coalescing delay — the
    /// real cost of a delayed-ACK receiver.
    fn flush_ack(&mut self, flow: usize) {
        let Some(p) = self.policies.get_mut(self.receivers[flow].policy as usize) else {
            return;
        };
        let Some((pkt, recv_at)) = p.held.take() else {
            return;
        };
        let batch = p.pending;
        p.pending = 0;
        p.timer_gen += 1;
        p.timer_armed = false;
        let rwnd = p.spec.rwnd_packets;
        let mut ack = Packet::ack_for(&pkt, recv_at);
        ack.batch = batch as u16;
        if let Some(w) = rwnd {
            ack.rwnd = w as u16;
        }
        let ack = self.arena.alloc(ack);
        self.emit_ack(flow, ack);
    }

    /// The single ACK gateway: every acknowledgment — immediate or
    /// coalesced — leaves the receiver here, onto the flow's return path.
    fn emit_ack(&mut self, flow: usize, ack: PktId) {
        let path = &self.paths[self.senders[flow].path as usize];
        let first = self.routes[path.ret.start as usize];
        self.enter(first, ack);
    }

    /// A receiver's delayed-ACK flush timer fired: emit the held partial
    /// batch, unless a flush or epoch restart already invalidated this
    /// timer generation.
    fn handle_ack_timer(&mut self, flow: FlowId, gen: u64) {
        let i = flow.0 as usize;
        let Some(p) = self.policies.get_mut(self.receivers[i].policy as usize) else {
            return;
        };
        if gen != p.timer_gen {
            return;
        }
        p.timer_armed = false;
        self.flush_ack(i);
    }

    fn handle_ack(&mut self, flow: FlowId, ack: Ack) {
        let i = flow.0 as usize;
        let Some(rt) = self.pool.get(i) else {
            return; // burst already ended; ignore late acks
        };
        self.probe.on_ack(self.now, flow, &ack);
        let outcome = rt.transport.on_ack(self.now, &ack);
        if !outcome.valid {
            return;
        }
        let s = &mut self.senders[i];
        self.stats[i].losses += outcome.newly_lost as u64;
        for _ in 0..outcome.newly_lost {
            s.cc.on_loss(self.now);
        }
        if let Some(info) = &outcome.info {
            s.cc.on_ack(self.now, &ack, info);
        }
        rt.read_cc(&*s.cc);
        self.reschedule_rto(i);
        self.try_send(i);
    }

    fn handle_rto(&mut self, flow: FlowId, gen: u64) {
        let i = flow.0 as usize;
        let Some(rt) = self.pool.get(i) else {
            return;
        };
        if gen != rt.transport.rto_gen() {
            return;
        }
        // A live check leaves the queue here; if it is the armed one,
        // nothing of this generation is known to be queued any more.
        let armed = rt.rto_armed == self.now;
        if armed {
            rt.rto_armed = SimTime::MAX;
        }
        if self.now < rt.rto_deadline {
            // Superseded deadline. The armed check carries the timer to
            // the current one, at the queue position reserved for it.
            if armed {
                rt.rto_armed = rt.rto_deadline;
                self.events.insert_reserved(
                    rt.rto_deadline,
                    rt.rto_seq,
                    Event::RtoCheck { flow, gen },
                );
            }
            return;
        }
        if rt.transport.in_flight() == 0 && !rt.transport.has_retx_pending() {
            return;
        }
        self.stats[i].timeouts += 1;
        let cc = &mut self.senders[i].cc;
        cc.on_timeout(self.now);
        rt.read_cc(&**cc);
        // Bumps the RTO generation: every queued check is dead.
        rt.transport.on_timeout();
        rt.rto_armed = SimTime::MAX;
        self.reschedule_rto(i);
        self.try_send(i);
    }

    fn handle_toggle(&mut self, flow: FlowId) {
        let i = flow.0 as usize;
        let (on, next) = {
            let s = &mut self.senders[i];
            let mut rng = s.rng.fork(0xAAAA ^ self.now.as_nanos());
            s.workload.toggle(&self.workloads, self.now, &mut rng)
        };
        if let Some(t) = next {
            self.events.schedule(t, Event::WorkloadToggle { flow });
        }
        if on != self.pool.is_on(i) {
            if on {
                self.turn_on(i);
            } else {
                self.turn_off(i);
            }
        }
    }

    /// A transfer arrives at an unblocked (M/G/∞) churn slot: draw the
    /// next Poisson interarrival and this transfer's exponential
    /// duration, bump the concurrent-transfer count, and turn the slot ON
    /// if it was idle. Arrivals never block — overlapping transfers
    /// extend the slot's busy period.
    fn handle_flow_arrival(&mut self, flow: FlowId) {
        let i = flow.0 as usize;
        let (next_arrival, duration) = {
            let s = &mut self.senders[i];
            let (lambda, d) = s
                .workload
                .mginf_rates(&self.workloads)
                .expect("M/G/inf churn slot");
            let mut rng = s.rng.fork(0xBBBB ^ self.now.as_nanos());
            // Clamp zero-length draws to 1 µs (same guard as toggles): a
            // zero interarrival would re-fire at this instant with the
            // identical RNG fork and spin forever.
            let clamp = |d: SimDuration| {
                if d.is_zero() {
                    SimDuration::from_micros(1)
                } else {
                    d
                }
            };
            (
                clamp(rng.exp_duration(SimDuration::from_secs_f64(1.0 / lambda))),
                clamp(rng.exp_duration(SimDuration::from_secs_f64(d))),
            )
        };
        self.events
            .schedule(self.now + next_arrival, Event::FlowArrival { flow });
        self.events
            .schedule(self.now + duration, Event::FlowDeparture { flow });
        self.senders[i].active_flows += 1;
        if self.senders[i].active_flows == 1 {
            self.turn_on(i);
        }
    }

    /// One transfer of an unblocked churn slot completes; the slot turns
    /// OFF when the last concurrent transfer drains.
    fn handle_flow_departure(&mut self, flow: FlowId) {
        let s = &mut self.senders[flow.0 as usize];
        debug_assert!(s.active_flows > 0, "departure without arrival");
        s.active_flows -= 1;
        if s.active_flows == 0 {
            self.turn_off(flow.0 as usize);
        }
    }

    fn turn_on(&mut self, i: usize) {
        debug_assert!(!self.pool.is_on(i), "a slot turns ON once per OFF");
        let s = &mut self.senders[i];
        s.on_tracker.turn_on(self.now);
        let rt = self.pool.take(FlowId(i as u32), s.epoch, s.rto_gen);
        let epoch = rt.transport.start_epoch();
        s.cc.reset(self.now);
        rt.read_cc(&*s.cc);
        rt.last_send = SimTime::MAX;
        rt.rto_deadline = SimTime::MAX;
        rt.rto_armed = SimTime::MAX;
        let rx = &mut self.receivers[i];
        rx.epoch = epoch;
        rx.seen.clear();
        if let Some(p) = self.policies.get_mut(rx.policy as usize) {
            p.reset();
        }
        self.try_send(i);
    }

    fn turn_off(&mut self, i: usize) {
        let s = &mut self.senders[i];
        let d = s.on_tracker.turn_off(self.now);
        self.stats[i].on_time += d;
        (s.epoch, s.rto_gen) = self.pool.put_back(i);
    }

    /// Send as many packets as window and pacing allow; schedule a pacing
    /// wake-up if the window has room but pacing blocks.
    fn try_send(&mut self, i: usize) {
        loop {
            let Some(rt) = self.pool.get(i) else {
                return;
            };
            // Effective window: the congestion window, capped by the
            // receiver's advertised window when one has been seen this
            // epoch.
            let window = match rt.transport.peer_rwnd() {
                Some(r) => rt.window.min(r as usize),
                None => rt.window,
            };
            if rt.transport.in_flight() >= window {
                return;
            }
            // Pacing check.
            if rt.last_send != SimTime::MAX && !rt.intersend.is_zero() {
                let allowed = rt.last_send + rt.intersend;
                if allowed > self.now {
                    let s = &mut self.senders[i];
                    if allowed < s.pending_wake {
                        s.pending_wake = allowed;
                        self.events.schedule(
                            allowed,
                            Event::SenderWake {
                                flow: FlowId(i as u32),
                            },
                        );
                    }
                    return;
                }
            }
            let Some(pkt) = rt.transport.produce(self.now, window) else {
                return;
            };
            rt.last_send = self.now;
            self.stats[i].transmissions += 1;
            if pkt.is_retx() {
                self.stats[i].retransmissions += 1;
            }
            let path = &self.paths[self.senders[i].path as usize];
            let first_link = self.routes[path.data.start as usize];
            let had_outstanding = rt.transport.in_flight() > 1;
            let pkt = self.arena.alloc(pkt);
            self.enter(first_link, pkt);
            if !had_outstanding {
                self.reschedule_rto(i);
            }
        }
    }

    /// Move the RTO deadline (called per valid ACK, per first send and per
    /// timeout). The timer is lazy: the deadline always takes its place in
    /// the queue order, but a check is only inserted when none of this
    /// generation is already queued at or before it — see "Timers and the
    /// same-instant lane" in the module docs.
    fn reschedule_rto(&mut self, i: usize) {
        let rt = self.pool.get(i).expect("an ON slot's RTO");
        if rt.transport.in_flight() == 0 && !rt.transport.has_retx_pending() {
            rt.transport.bump_rto_gen();
            rt.rto_deadline = SimTime::MAX;
            rt.rto_armed = SimTime::MAX;
            return;
        }
        let base = rt.transport.oldest_outstanding_at().unwrap_or(self.now);
        let deadline = base.max(self.now) + rt.transport.rto();
        let seq = self.events.reserve_seq();
        if deadline != rt.rto_deadline {
            // An unchanged deadline keeps its earliest reservation.
            rt.rto_deadline = deadline;
            rt.rto_seq = seq;
        }
        if deadline < rt.rto_armed {
            rt.rto_armed = deadline;
            let gen = rt.transport.rto_gen();
            self.events.insert_reserved(
                deadline,
                rt.rto_seq,
                Event::RtoCheck {
                    flow: FlowId(i as u32),
                    gen,
                },
            );
        }
    }

    /// An outage blackout begins: stop the link and schedule its return.
    fn handle_link_down(&mut self, link: LinkId) {
        let l = link.0 as usize;
        self.links[l].set_down();
        let Some(f) = &mut self.faults[l] else { return };
        let FaultSpec::Outage {
            down_s, scheduled, ..
        } = f.spec
        else {
            return;
        };
        let dwell = outage_dwell(down_s, scheduled, &mut f.rng);
        self.events
            .schedule(self.now + dwell, Event::LinkUp { link });
    }

    /// The outage ends: resume service on any held queue and schedule the
    /// next blackout.
    fn handle_link_up(&mut self, link: LinkId) {
        let l = link.0 as usize;
        if let Some((pkt, d)) = self.links[l].set_up(self.now) {
            let pkt = self.arena.alloc(pkt);
            self.events.schedule_on(
                self.tx_line[l],
                self.now + d,
                Event::TxComplete { link, pkt },
            );
        }
        let Some(f) = &mut self.faults[l] else { return };
        let FaultSpec::Outage {
            up_s, scheduled, ..
        } = f.spec
        else {
            return;
        };
        let dwell = outage_dwell(up_s, scheduled, &mut f.rng);
        self.events
            .schedule(self.now + dwell, Event::LinkDown { link });
    }
}

/// One outage dwell: exact for scheduled outages, exponential for Markov
/// ones, clamped to 1 µs so a degenerate draw can never schedule the
/// opposing transition at the same instant forever.
fn outage_dwell(mean_s: f64, scheduled: bool, rng: &mut SimRng) -> SimDuration {
    let d = if scheduled {
        SimDuration::from_secs_f64(mean_s)
    } else {
        rng.exp_duration(SimDuration::from_secs_f64(mean_s))
    };
    if d.is_zero() {
        SimDuration::from_micros(1)
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Digest, QueueTrace};
    use crate::queue::QueueSpec;
    use crate::topology::dumbbell;
    use crate::transport::AckInfo;

    /// Fixed-window protocol for engine tests.
    struct FixedWindow {
        w: f64,
        intersend: SimDuration,
    }

    impl CongestionControl for FixedWindow {
        fn reset(&mut self, _now: SimTime) {}
        fn on_ack(&mut self, _now: SimTime, _ack: &Ack, _info: &AckInfo) {}
        fn on_loss(&mut self, _now: SimTime) {}
        fn on_timeout(&mut self, _now: SimTime) {}
        fn window(&self) -> f64 {
            self.w
        }
        fn intersend(&self) -> SimDuration {
            self.intersend
        }
    }

    impl<P: Probe> Simulation<P> {
        /// [`run`](Self::run), keeping the run's state for inspection.
        fn run_and_keep_state(&mut self, duration: SimDuration) -> RunOutcome {
            let (truncated, queue) = self.simulate(duration);
            self.outcome(duration, truncated, queue)
        }
    }

    fn fixed(w: f64) -> Box<dyn CongestionControl> {
        Box::new(FixedWindow {
            w,
            intersend: SimDuration::ZERO,
        })
    }

    #[test]
    fn single_flow_saturates_link_with_big_window() {
        // 10 Mbps, 100 ms RTT, BDP ~ 83 packets; window 200 saturates.
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, vec![fixed(200.0)], 1);
        let out = sim.run(SimDuration::from_secs(20));
        let f = &out.flows[0];
        assert!(
            f.throughput_bps > 9.2e6,
            "throughput {} should approach 10 Mbps",
            f.throughput_bps
        );
        // Standing queue of ~117 packets: delay well above propagation.
        assert!(f.avg_queueing_delay_s > 0.005);
        assert_eq!(f.drops.forward, 0);
    }

    #[test]
    fn small_window_is_rtt_limited() {
        // window 10 over 100 ms RTT = ~100 pkt/s = 1.2 Mbps
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, vec![fixed(10.0)], 1);
        let out = sim.run(SimDuration::from_secs(20));
        let f = &out.flows[0];
        let expect = 10.0 * 1500.0 * 8.0 / 0.100;
        assert!(
            (f.throughput_bps - expect).abs() / expect < 0.08,
            "throughput {} vs rtt-limited {}",
            f.throughput_bps,
            expect
        );
        // no queueing: delay ~= propagation
        assert!(f.avg_queueing_delay_s < 0.002, "{}", f.avg_queueing_delay_s);
    }

    #[test]
    fn two_flows_share_bottleneck() {
        let net = dumbbell(
            2,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, vec![fixed(100.0), fixed(100.0)], 7);
        let out = sim.run(SimDuration::from_secs(30));
        let t0 = out.flows[0].throughput_bps;
        let t1 = out.flows[1].throughput_bps;
        assert!((t0 + t1) > 9.2e6, "link saturated: {}", t0 + t1);
        // equal windows, equal RTT: close to equal split
        assert!(
            (t0 - t1).abs() / (t0 + t1) < 0.1,
            "fair split expected: {t0} vs {t1}"
        );
    }

    #[test]
    fn finite_buffer_drops_under_overload() {
        let net = dumbbell(
            1,
            1e6,
            0.100,
            QueueSpec::DropTail {
                capacity_bytes: Some(15_000),
            },
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, vec![fixed(400.0)], 3);
        let out = sim.run(SimDuration::from_secs(10));
        assert!(out.flows[0].drops.forward > 0, "oversized window must drop");
        assert!(out.flows[0].retransmissions > 0, "losses get retransmitted");
        // Delivered bytes are unique: throughput can't exceed line rate.
        assert!(out.flows[0].throughput_bps <= 1.0e6 * 1.01);
    }

    #[test]
    fn pacing_limits_rate() {
        // Pacing of 10 ms/packet = 1.2 Mbps regardless of window.
        let net = dumbbell(
            1,
            100e6,
            0.050,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(
            &net,
            vec![Box::new(FixedWindow {
                w: 1000.0,
                intersend: SimDuration::from_millis(10),
            })],
            5,
        );
        let out = sim.run(SimDuration::from_secs(20));
        let expect = 1500.0 * 8.0 / 0.010;
        let tput = out.flows[0].throughput_bps;
        assert!(
            (tput - expect).abs() / expect < 0.05,
            "paced throughput {tput} vs {expect}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let net = dumbbell(
            2,
            5e6,
            0.080,
            QueueSpec::infinite(),
            WorkloadSpec::on_off_1s(),
        );
        let run = |seed| {
            let mut sim = Simulation::new(&net, vec![fixed(50.0), fixed(50.0)], seed);
            let out = sim.run(SimDuration::from_secs(15));
            (
                out.flows[0].bytes_delivered,
                out.flows[1].bytes_delivered,
                out.events_processed,
            )
        };
        assert_eq!(run(42), run(42), "same seed, same run");
        assert_ne!(run(42), run(43), "different seed, different workload draws");
    }

    #[test]
    fn on_off_workload_reduces_on_time() {
        let net = dumbbell(
            1,
            10e6,
            0.050,
            QueueSpec::infinite(),
            WorkloadSpec::on_off_1s(),
        );
        let mut sim = Simulation::new(&net, vec![fixed(40.0)], 11);
        let out = sim.run(SimDuration::from_secs(60));
        let on = out.flows[0].on_time_s;
        assert!(on > 15.0 && on < 45.0, "duty cycle ~50%: on_time={on}");
        assert!(out.flows[0].throughput_bps > 0.0);
    }

    #[test]
    fn parking_lot_multihop_delivery() {
        let net = crate::topology::parking_lot(
            10e6,
            10e6,
            0.075,
            QueueSpec::infinite(),
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, vec![fixed(50.0), fixed(50.0), fixed(50.0)], 2);
        let out = sim.run(SimDuration::from_secs(20));
        // all three flows deliver
        for f in &out.flows {
            assert!(f.bytes_delivered > 0, "flow {} delivered nothing", f.flow);
        }
        // flow 0 (two hops) has roughly double the propagation delay
        assert!(out.flows[0].min_one_way_s > out.flows[1].min_one_way_s * 1.9);
    }

    #[test]
    fn flows_derive_their_delay_floor_and_byte_count() {
        // A slot stores neither its delay floor nor its byte count: each
        // flow's floor comes from its path entry, its bytes from its
        // packets, on every kind of path a flow can take.
        let lot = crate::topology::parking_lot(
            10e6,
            5e6,
            0.030,
            QueueSpec::infinite(),
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let bell = dumbbell(
            3,
            10e6,
            0.060,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut per_flow = lot.clone();
        per_flow.links[0].reverse = Some(ReverseSpec::per_flow(1e6, 0.020));
        let mut shared = bell.clone();
        shared.links[0].reverse = Some(ReverseSpec::shared(1e6, 0.045, QueueSpec::infinite()));
        let mut upload = shared.clone();
        upload.flows[1].reverse_data = true;
        let delayed = lot.with_receiver(ReceiverSpec::delayed(2, 0.005).with_rwnd(8));
        for (name, net) in [
            ("dumbbell", bell),
            ("parking lot", lot),
            ("per-flow reverse", per_flow),
            ("shared reverse", shared),
            ("reverse data", upload),
            ("delayed ack with rwnd", delayed),
        ] {
            let n = net.flows.len();
            let mut sim = Simulation::new(&net, (0..n).map(|_| fixed(20.0)).collect(), 3);
            let out = sim.run(SimDuration::from_secs(3));
            for (i, f) in out.flows.iter().enumerate() {
                let floor = if net.flows[i].reverse_data {
                    net.ack_delay(i)
                } else {
                    net.min_one_way(i)
                };
                assert_eq!(f.min_one_way_s, floor.as_secs_f64(), "{name}, flow {i}");
                assert!(f.packets_delivered > 0, "{name}, flow {i}");
                assert_eq!(
                    f.bytes_delivered,
                    f.packets_delivered * u64::from(crate::packet::DATA_PACKET_BYTES),
                    "{name}, flow {i}"
                );
            }
        }
    }

    #[test]
    fn flows_with_one_path_pair_share_one_entry() {
        // 10⁴ flows over a parking lot's three routes, interleaved: one
        // path entry per distinct (data, return) pair, and each flow's
        // entry crosses its own route.
        let mut net = crate::topology::parking_lot(
            100e6,
            100e6,
            0.040,
            QueueSpec::infinite(),
            QueueSpec::infinite(),
            WorkloadSpec::churn_mginf(0.5, 2.0),
        );
        let three = net.flows.clone();
        net.flows = (0..10_000).map(|i| three[i % 3].clone()).collect();
        let build = |net: &NetworkConfig| {
            let n = net.flows.len();
            Simulation::new(net, (0..n).map(|_| fixed(4.0)).collect(), 1)
        };
        let sim = build(&net);
        assert_eq!(sim.paths.len(), 3);
        for (i, s) in sim.senders.iter().enumerate() {
            let data = sim.paths[s.path as usize].data.links(&sim.routes);
            let route: Vec<LinkId> = net.flows[i]
                .route
                .iter()
                .map(|&l| LinkId(l as u32))
                .collect();
            assert_eq!(s.path as usize, i % 3, "flow {i}");
            assert_eq!(data, route, "flow {i}");
        }
        // A private reverse link on the first hop makes the return path
        // of every flow crossing it its own; the one-hop flows over the
        // second link still share theirs.
        net.flows.truncate(30);
        net.links[0].reverse = Some(ReverseSpec::per_flow(1e6, 0.020));
        assert_eq!(build(&net).paths.len(), 21);
    }

    #[test]
    fn trace_records_queue_series() {
        let net = dumbbell(1, 1e6, 0.100, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        let trace = QueueTrace::new(LinkId(0), SimDuration::from_millis(100));
        let mut sim =
            Simulation::with_probe(&net, vec![fixed(100.0)], 1, SchedulerKind::default(), trace);
        sim.run(SimDuration::from_secs(5));
        let samples = sim.into_probe().samples;
        assert_eq!(
            samples.len(),
            51,
            "one sample per 100 ms, both ends included"
        );
        let peak = samples.iter().map(|s| s.packets).max().unwrap();
        assert!(peak > 50, "standing queue builds: peak {peak}");
    }

    #[test]
    fn event_budget_stops_runaway() {
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, vec![fixed(1000.0)], 1);
        sim.set_event_budget(10_000);
        let out = sim.run(SimDuration::from_secs(1_000));
        assert!(out.events_processed <= 10_001);
        assert!(out.truncated, "budget exhaustion must be flagged");
        // A run that completes within budget is not truncated.
        let mut sim = Simulation::new(&net, vec![fixed(10.0)], 1);
        let out = sim.run(SimDuration::from_secs(1));
        assert!(!out.truncated);
    }

    #[test]
    #[should_panic(expected = "invalid network config: flow 0 routes over unknown link 7")]
    fn malformed_route_panics_with_validation_message() {
        let mut net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        net.flows[0].route = vec![7];
        let _ = Simulation::new(&net, vec![fixed(10.0)], 1);
    }

    #[test]
    fn slow_reverse_path_throttles_ack_clock() {
        // 10 Mbps forward ≈ 833 pkt/s; a 100 kbps reverse path carries at
        // most 312 ACKs/s, so with window-clocked sending the forward
        // throughput must collapse to roughly the ACK rate.
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut asym = net.clone();
        asym.links[0].reverse = Some(crate::topology::ReverseSpec::per_flow(100e3, 0.050));
        let run = |n: &crate::topology::NetworkConfig| {
            let mut sim = Simulation::new(n, vec![fixed(60.0)], 9);
            sim.run(SimDuration::from_secs(20)).flows[0].throughput_bps
        };
        let (sym_tpt, asym_tpt) = (run(&net), run(&asym));
        assert!(sym_tpt > 6e6, "symmetric baseline healthy: {sym_tpt}");
        let ack_rate_limit = 100e3 / (ACK_BYTES as f64 * 8.0) * 1500.0 * 8.0;
        assert!(
            asym_tpt < ack_rate_limit * 1.05,
            "ACK-clocked throughput {asym_tpt} must respect the reverse \
             bottleneck (~{ack_rate_limit})"
        );
        assert!(asym_tpt > 0.0, "flow still progresses");
    }

    #[test]
    fn mild_asymmetry_leaves_throughput_intact() {
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let asym = net.with_reverse_slowdown(1.0);
        let run = |n: &crate::topology::NetworkConfig| {
            let mut sim = Simulation::new(n, vec![fixed(200.0)], 4);
            sim.run(SimDuration::from_secs(20)).flows[0].throughput_bps
        };
        let (sym_tpt, asym_tpt) = (run(&net), run(&asym));
        assert!(
            (sym_tpt - asym_tpt).abs() / sym_tpt < 0.05,
            "symmetric explicit reverse ~= implicit: {sym_tpt} vs {asym_tpt}"
        );
    }

    #[test]
    fn churn_workload_runs_and_idles() {
        let net = dumbbell(
            2,
            10e6,
            0.050,
            QueueSpec::infinite(),
            WorkloadSpec::churn(0.5, 1.0),
        );
        let mut sim = Simulation::new(&net, vec![fixed(40.0), fixed(40.0)], 13);
        let out = sim.run(SimDuration::from_secs(60));
        // duty cycle λd/(1+λd) = 1/3: on_time well inside (0, 60)
        for f in &out.flows {
            assert!(
                f.on_time_s > 5.0 && f.on_time_s < 40.0,
                "on={}",
                f.on_time_s
            );
            assert!(f.bytes_delivered > 0);
        }
    }

    #[test]
    fn reliability_rings_follow_the_window_not_the_path() {
        // 10³ churn slots on a 1 Gbps, 200 ms RTT dumbbell: a bandwidth-
        // delay product of thousands of packets per flow. Each transfer
        // keeps at most its window of 4 in flight, so its rings need
        // slots for 4, whatever the path could hold.
        let (slots, window) = (1_000, 4.0);
        let net = dumbbell(
            slots,
            1e9,
            0.200,
            QueueSpec::infinite(),
            WorkloadSpec::churn_mginf(0.5, 2.0),
        );
        let mut sim = Simulation::new(&net, (0..slots).map(|_| fixed(window)).collect(), 5);
        let out = sim.run(SimDuration::from_secs(5));
        let started = out.flows.iter().filter(|f| f.transmissions > 0).count();
        assert!(started > slots / 2, "only {started} flows ever sent");
        let capacity: usize = sim
            .pool
            .entries
            .iter()
            .map(|rt| rt.transport.ring_capacity())
            .sum();
        let peak_in_flight = started * window as usize;
        assert!(
            capacity <= 4 * peak_in_flight,
            "rings hold {capacity} slots for at most {peak_in_flight} packets in flight"
        );
    }

    #[test]
    fn runtime_pool_holds_live_transfers_only() {
        // 10³ M/G/∞ slots at duty 1 − e^{−1}: no entry at build, and
        // after the run fewer entries than slots, one per ON slot.
        let slots = 1_000;
        let net = dumbbell(
            slots,
            100e6,
            0.020,
            QueueSpec::infinite(),
            WorkloadSpec::churn_mginf(0.5, 2.0),
        );
        let mut sim = Simulation::new(&net, (0..slots).map(|_| fixed(4.0)).collect(), 3);
        assert!(sim.pool.entries.is_empty(), "a built cell holds no runtime");
        sim.run_and_keep_state(SimDuration::from_secs(5));
        let entries = sim.pool.entries.len();
        assert!(entries < slots, "{entries} entries for {slots} slots");
        let mut held: Vec<u32> = (0..slots)
            .filter(|&i| sim.pool.is_on(i))
            .map(|i| sim.pool.held[i])
            .collect();
        assert!(held.len() > slots / 3, "only {} slots ON", held.len());
        held.extend(&sim.pool.free);
        held.sort_unstable();
        let every: Vec<u32> = (0..entries as u32).collect();
        assert_eq!(held, every, "each entry held by one ON slot or free");
    }

    #[test]
    fn a_finished_run_frees_what_only_the_run_needed() {
        // A churn cell whose run ends with transfers live, packets parked
        // and events queued: `run` hands back the outcome a run that keeps
        // its state does, and holds no runtime, event or packet after it.
        let net = dumbbell(
            200,
            20e6,
            0.020,
            QueueSpec::infinite(),
            WorkloadSpec::churn_mginf(0.5, 2.0),
        );
        let build = || {
            let protocols = (0..200).map(|_| fixed(4.0)).collect();
            let digest = Digest::new(200);
            Simulation::with_probe(&net, protocols, 5, SchedulerKind::default(), digest)
        };
        let mut kept = build();
        let kept_out = kept.run_and_keep_state(SimDuration::from_secs(3));
        assert!(!kept.pool.entries.is_empty() && kept.arena.live() > 0 && !kept.events.is_empty());
        let mut sim = build();
        let out = sim.run(SimDuration::from_secs(3));
        assert_eq!(format!("{out:?}"), format!("{kept_out:?}"));
        assert_eq!(sim.probe(), kept.probe());
        assert_eq!(sim.pool.entries.capacity(), 0);
        assert_eq!(sim.arena.capacity(), 0);
        assert!(sim.events.is_empty());
        assert_eq!(sim.into_protocols().len(), 200);
    }

    #[test]
    #[should_panic(expected = "a simulation runs once")]
    fn a_simulation_runs_once() {
        let net = dumbbell(
            1,
            10e6,
            0.020,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, vec![fixed(4.0)], 1);
        sim.run(SimDuration::from_secs(1));
        sim.run(SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "a simulation runs once")]
    fn a_simulation_without_flows_runs_once() {
        let net = dumbbell(
            0,
            10e6,
            0.020,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, Vec::new(), 1);
        sim.run(SimDuration::ZERO);
        sim.run(SimDuration::ZERO);
    }

    #[test]
    fn alternating_slots_share_one_runtime_and_keep_their_counts() {
        // Two slots whose ON periods alternate, on a receiver that never
        // acknowledges a first transmission, so progress is by timeout.
        // Both hand one runtime back and forth, and each slot's epoch and
        // RTO generation add up what each of its own ON periods counts in
        // a run of its own.
        let stalled = ReceiverSpec {
            ack_every: 1000,
            flush_timer_s: None,
            rwnd_packets: None,
        };
        let periods = [[(0.5, 3.0), (6.0, 8.5)], [(3.5, 5.5), (9.0, 11.5)]];
        let run = |slots: &[&[(f64, f64)]]| {
            let mut net = dumbbell(
                slots.len(),
                10e6,
                0.020,
                QueueSpec::infinite(),
                WorkloadSpec::AlwaysOn,
            )
            .with_receiver(stalled.clone());
            for (f, on) in net.flows.iter_mut().zip(slots) {
                let switches = on
                    .iter()
                    .flat_map(|&(up, down)| [(up, true), (down, false)]);
                f.workload = WorkloadSpec::Schedule(switches.collect());
            }
            let mut sim = Simulation::new(&net, slots.iter().map(|_| fixed(8.0)).collect(), 1);
            let out = sim.run_and_keep_state(SimDuration::from_secs(12));
            let counts = |s: &SenderSlot| (s.epoch, s.rto_gen);
            let slots: Vec<_> = sim.senders.iter().map(counts).collect();
            let timeouts: Vec<_> = out.flows.iter().map(|f| f.timeouts).collect();
            (slots, timeouts, sim.pool.entries.len())
        };
        let (slots, timeouts, entries) = run(&[&periods[0], &periods[1]]);
        assert_eq!(entries, 1, "one runtime, handed back and forth");
        for (i, own) in periods.iter().enumerate() {
            let (mut epoch, mut rto_gen, mut alone_timeouts) = (0, 0, 0);
            for period in own {
                let (counts, t, _) = run(&[std::slice::from_ref(period)]);
                epoch += counts[0].0;
                rto_gen += counts[0].1;
                alone_timeouts += t[0];
            }
            assert_eq!(slots[i], (epoch, rto_gen), "slot {i}");
            assert_eq!(epoch, 2);
            assert!(timeouts[i] > 0, "slot {i} timed out");
            assert_eq!(timeouts[i], alone_timeouts, "slot {i}");
        }
    }

    #[test]
    fn mginf_churn_overlaps_flows_per_slot() {
        // λ = 1/s, d = 1 s: blocked churn has duty λd/(1+λd) = 1/2, the
        // unblocked M/G/∞ slot is ON with probability 1 − e^{−1} ≈ 0.632.
        // Busy periods are unions of overlapping transfers, so the
        // unblocked slot must accumulate measurably more ON time.
        let run = |spec: WorkloadSpec, seed: u64| {
            let net = dumbbell(2, 10e6, 0.050, QueueSpec::infinite(), spec);
            let mut sim = Simulation::new(&net, vec![fixed(40.0), fixed(40.0)], seed);
            let out = sim.run(SimDuration::from_secs(300));
            out.flows.iter().map(|f| f.on_time_s).sum::<f64>() / 2.0 / 300.0
        };
        let blocked: f64 = (0..3)
            .map(|s| run(WorkloadSpec::churn(1.0, 1.0), s))
            .sum::<f64>()
            / 3.0;
        let unblocked: f64 = (0..3)
            .map(|s| run(WorkloadSpec::churn_mginf(1.0, 1.0), s))
            .sum::<f64>()
            / 3.0;
        assert!(
            (blocked - 0.5).abs() < 0.06,
            "blocked duty {blocked} != 1/2"
        );
        assert!(
            (unblocked - 0.632).abs() < 0.06,
            "M/G/inf duty {unblocked} != 1 - 1/e"
        );
        assert!(unblocked > blocked + 0.05, "overlap extends busy periods");
    }

    #[test]
    fn shared_reverse_link_contends_across_flows() {
        // Four senders, forward path far from saturated, but all ACKs
        // share one slow uplink: per-flow reverse channels of the same
        // rate leave each flow its full private ACK bandwidth, so the
        // shared variant must deliver materially less in aggregate.
        let base = dumbbell(
            4,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut per_flow = base.clone();
        per_flow.links[0].reverse = Some(crate::topology::ReverseSpec::per_flow(200e3, 0.050));
        let mut shared = base.clone();
        shared.links[0].reverse = Some(crate::topology::ReverseSpec::shared(
            200e3,
            0.050,
            QueueSpec::infinite(),
        ));
        let run = |n: &crate::topology::NetworkConfig| {
            let mut sim = Simulation::new(n, (0..4).map(|_| fixed(30.0)).collect(), 5);
            let out = sim.run(SimDuration::from_secs(20));
            out.flows.iter().map(|f| f.throughput_bps).sum::<f64>()
        };
        let (pf_tpt, sh_tpt) = (run(&per_flow), run(&shared));
        // One 200 kbps uplink carries at most 625 ACKs/s in total: the
        // ACK-clocked aggregate can't exceed ~7.5 Mbps worth of data.
        let shared_limit = 200e3 / (ACK_BYTES as f64 * 8.0) * 1500.0 * 8.0;
        assert!(
            sh_tpt < shared_limit * 1.05,
            "shared uplink caps the aggregate: {sh_tpt} vs {shared_limit}"
        );
        // Private channels: each flow has its own 200 kbps of ACK
        // bandwidth (~7.5 Mbps of data each), so the 10 Mbps forward link
        // is the binding constraint again.
        assert!(
            pf_tpt > 9e6,
            "private reverse channels leave the forward link binding: {pf_tpt}"
        );
        assert!(
            pf_tpt > sh_tpt * 1.2,
            "shared contention must cost aggregate throughput: {pf_tpt} vs {sh_tpt}"
        );
    }

    #[test]
    fn shared_reverse_queue_can_drop_acks() {
        // A shared uplink with a tiny drop-tail buffer: ACK drops are
        // accounted per flow, and the flows survive via loss recovery.
        let mut net = dumbbell(
            4,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        net.links[0].reverse = Some(crate::topology::ReverseSpec::shared(
            100e3,
            0.050,
            QueueSpec::DropTail {
                capacity_bytes: Some(400),
            },
        ));
        let mut sim = Simulation::new(&net, (0..4).map(|_| fixed(30.0)).collect(), 9);
        let out = sim.run(SimDuration::from_secs(20));
        let ack_drops: u64 = out.flows.iter().map(|f| f.drops.ack).sum();
        assert!(ack_drops > 0, "10-ACK buffer must overflow");
        assert_eq!(
            out.flows.iter().map(|f| f.drops.forward).sum::<u64>(),
            0,
            "forward path uncongested: drops are reverse-only"
        );
        for f in &out.flows {
            assert!(f.bytes_delivered > 0, "flow {} starved", f.flow);
        }
        // The shared uplink is reported after the config link; its hop
        // is the whole return path, so no delay-only link follows.
        assert_eq!(out.link_rates_bps, [10e6, 100e3]);
        assert_eq!(out.link_queues[1].dropped, ack_drops);
    }

    #[test]
    fn explicit_default_receiver_spec_is_bit_identical() {
        // `Some(ReceiverSpec::default())` must take the same immediate-ack
        // fast path as `None`: identical event sequence, not just
        // identical aggregates.
        let net = dumbbell(
            2,
            10e6,
            0.080,
            QueueSpec::DropTail {
                capacity_bytes: Some(45_000),
            },
            WorkloadSpec::on_off_1s(),
        );
        let explicit = net.with_receiver(crate::topology::ReceiverSpec::default());
        let run = |n: &crate::topology::NetworkConfig| {
            let protocols = vec![fixed(80.0), fixed(80.0)];
            let digest = Digest::new(2);
            let mut sim =
                Simulation::with_probe(n, protocols, 17, SchedulerKind::default(), digest);
            let out = sim.run(SimDuration::from_secs(20));
            (sim.into_probe().events, out.events_processed)
        };
        assert_eq!(run(&net), run(&explicit));
    }

    #[test]
    fn delayed_ack_coalesces_the_ack_stream() {
        // ack-every-4 acknowledges each window in a quarter of the ACK
        // events, so the run dispatches materially fewer events while
        // goodput stays close (the window is generous).
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let delayed = net.with_receiver(crate::topology::ReceiverSpec::delayed(4, 0.2));
        let run = |n: &crate::topology::NetworkConfig| {
            let mut sim = Simulation::new(n, vec![fixed(200.0)], 1);
            let out = sim.run(SimDuration::from_secs(20));
            (out.flows[0].throughput_bps, out.events_processed)
        };
        let ((base_tpt, base_ev), (del_tpt, del_ev)) = (run(&net), run(&delayed));
        assert!(
            del_ev < base_ev * 9 / 10,
            "coalescing must shrink the event count: {del_ev} vs {base_ev}"
        );
        assert!(
            del_tpt > base_tpt * 0.9,
            "stretch ACKs keep goodput with a generous window: {del_tpt} vs {base_tpt}"
        );
    }

    #[test]
    fn flush_timer_rescues_a_stalled_partial_batch() {
        // ack_every far above the window: without a flush timer the
        // receiver sits on every batch and progress happens only through
        // retransmission timeouts; a 10 ms timer keeps the ACK clock
        // running.
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let run = |spec: crate::topology::ReceiverSpec| {
            let n = net.with_receiver(spec);
            let mut sim = Simulation::new(&n, vec![fixed(30.0)], 3);
            let out = sim.run(SimDuration::from_secs(20));
            (out.flows[0].throughput_bps, out.flows[0].timeouts)
        };
        let no_timer = crate::topology::ReceiverSpec {
            ack_every: 1000,
            flush_timer_s: None,
            rwnd_packets: None,
        };
        let (stalled_tpt, stalled_to) = run(no_timer);
        let (timer_tpt, timer_to) = run(crate::topology::ReceiverSpec::delayed(1000, 0.010));
        assert!(stalled_to > 0, "no timer: progress only via RTO");
        assert_eq!(timer_to, 0, "timer flushes keep the RTO quiet");
        assert!(
            timer_tpt > stalled_tpt * 5.0,
            "timer must rescue throughput: {timer_tpt} vs {stalled_tpt}"
        );
    }

    #[test]
    fn advertised_rwnd_clamps_the_sender_window() {
        // cwnd 100 but rwnd 5 over a 100 ms RTT: throughput collapses to
        // ~5 packets per RTT once the first advertisement arrives.
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let clamped = net.with_receiver(crate::topology::ReceiverSpec::default().with_rwnd(5));
        let run = |n: &crate::topology::NetworkConfig| {
            let mut sim = Simulation::new(n, vec![fixed(100.0)], 1);
            sim.run(SimDuration::from_secs(20)).flows[0].throughput_bps
        };
        let (open, tight) = (run(&net), run(&clamped));
        let expect = 5.0 * 1500.0 * 8.0 / 0.100;
        assert!(open > 5e6, "unclamped baseline healthy: {open}");
        assert!(
            (tight - expect).abs() / expect < 0.1,
            "rwnd-limited throughput {tight} vs {expect}"
        );
    }

    #[test]
    fn reverse_data_rides_the_reverse_links() {
        // An upload flow: data crosses the shared reverse uplink (the
        // binding 2 Mbps constraint), ACKs return over a delay-only link
        // of the forward propagation — so the forward link carries no
        // traffic at all.
        let mut net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        net.links[0].reverse = Some(crate::topology::ReverseSpec::shared(
            2e6,
            0.050,
            QueueSpec::infinite(),
        ));
        net.flows[0].reverse_data = true;
        let mut sim = Simulation::new(&net, vec![fixed(100.0)], 6);
        let out = sim.run(SimDuration::from_secs(20));
        assert_eq!(out.link_bytes[0], 0, "forward link idle for an upload");
        assert!(out.link_bytes[1] > 0, "data rides the reverse link");
        let tpt = out.flows[0].throughput_bps;
        assert!(
            tpt > 1.8e6 && tpt <= 2e6 * 1.01,
            "upload saturates the 2 Mbps uplink: {tpt}"
        );
        // The delay floor is the reverse chain's 50 ms, not the forward 100 ms.
        assert!(
            (out.flows[0].min_one_way_s - 0.050).abs() < 1e-9,
            "min one-way follows the data path: {}",
            out.flows[0].min_one_way_s
        );
    }

    #[test]
    fn every_parked_packet_is_pending_or_freed() {
        // The arena leak check. Whatever the queue, return path, fault and
        // receiver, and whether the run stops at its duration or its event
        // budget, the packet events still queued afterwards are exactly
        // the arena's live slots, each handle of its slot's current
        // generation (`take` panics on a stale or doubled one).
        let (rate, rtt) = (10e6, 0.060);
        let queues = [
            QueueSpec::DropTail {
                capacity_bytes: Some(30_000),
            },
            QueueSpec::red_default(rate, rtt, 1.0),
            QueueSpec::codel_default(rate, rtt, 1.0),
            QueueSpec::sfq_codel_default(rate, rtt, 1.0),
        ];
        let slow_acks = QueueSpec::DropTail {
            capacity_bytes: Some(2_000),
        };
        let returns = [
            None,
            Some(ReverseSpec::per_flow(1e6, 0.020)),
            Some(ReverseSpec::shared(1e6, 0.020, slow_acks)),
        ];
        let faults = [
            None,
            Some(FaultSpec::gilbert_elliott(0.3, 0.05, 0.3)),
            Some(FaultSpec::Outage {
                up_s: 0.4,
                down_s: 0.1,
                scheduled: false,
                drop_while_down: true,
            }),
            Some(FaultSpec::Corruption { prob: 0.02 }),
        ];
        let receivers = [ReceiverSpec::default(), ReceiverSpec::delayed(4, 0.005)];
        // Off dwells shorter than the RTT: packets of an ended burst
        // arrive in the next one's epoch.
        let churn = WorkloadSpec::churn(20.0, 0.2);
        for queue in &queues {
            for ret in &returns {
                for fault in &faults {
                    for rx in &receivers {
                        for budget in [u64::MAX, 3_000] {
                            let mut net = dumbbell(3, rate, rtt, queue.clone(), churn.clone())
                                .with_receiver(rx.clone());
                            net.links[0].reverse = ret.clone();
                            net.links[0].fault = fault.clone();
                            let mut sim =
                                Simulation::new(&net, (0..3).map(|_| fixed(40.0)).collect(), 7);
                            sim.set_event_budget(budget);
                            let out = sim.run_and_keep_state(SimDuration::from_millis(2_500));
                            let live = sim.arena.live();
                            let mut pending = 0;
                            while let Some((_, ev)) = sim.events.pop() {
                                if let Some(pkt) = ev.pkt() {
                                    sim.arena.take(pkt);
                                    pending += 1;
                                }
                            }
                            let case = format!("{queue:?} {ret:?} {fault:?} {rx:?} {budget}");
                            assert_eq!(pending, live, "{case}");
                            assert_eq!(out.truncated, budget != u64::MAX, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_window_sends_nothing() {
        let net = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        let mut sim = Simulation::new(&net, vec![fixed(0.0)], 1);
        let out = sim.run(SimDuration::from_secs(5));
        assert_eq!(out.flows[0].bytes_delivered, 0);
    }
}
