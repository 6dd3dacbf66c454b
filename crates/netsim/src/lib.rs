//! # netsim — deterministic packet-level network simulator
//!
//! The simulation substrate for the learnability-of-congestion-control
//! study. Models store-and-forward links with pluggable queue disciplines
//! (drop-tail, RED, CoDel, sfqCoDel), dumbbell and parking-lot
//! topologies, exponential ON/OFF and Poisson flow-churn workloads
//! (blocked, or unblocked M/G/∞ with overlapping transfers per slot),
//! and a sender-side reliability layer into which congestion-control
//! algorithms plug via the [`transport::CongestionControl`] trait.
//!
//! The network is bidirectional: acknowledgments are first-class
//! [`packet::Packet`]s, and every flow is lowered to a data path and a
//! return path of [`link::Link`]s (see [`sim`]). A link with a
//! [`topology::ReverseSpec`] carries its ACK traffic over a real reverse
//! link with its own queue discipline — per-flow private channels, or
//! one shared reverse link on which every flow's ACKs queue, interleave
//! and drop together; without a spec, ACKs cross a delay-only link, the
//! paper's uncongested reverse path bit for bit.
//!
//! Every run is a pure function of `(NetworkConfig, protocols, seed)`:
//! integer nanosecond time, a deterministic event queue, and per-component
//! forked RNG streams make results bit-identical across runs and platforms.
//!
//! ```
//! use netsim::prelude::*;
//!
//! // 10 Mbps dumbbell, 100 ms RTT, one always-on sender with a fixed
//! // 20-packet window.
//! struct Fixed;
//! impl CongestionControl for Fixed {
//!     fn reset(&mut self, _: SimTime) {}
//!     fn on_ack(&mut self, _: SimTime, _: &Ack, _: &AckInfo) {}
//!     fn on_loss(&mut self, _: SimTime) {}
//!     fn on_timeout(&mut self, _: SimTime) {}
//!     fn window(&self) -> f64 { 20.0 }
//!     fn intersend(&self) -> SimDuration { SimDuration::ZERO }
//!     fn name(&self) -> String { "fixed".into() }
//! }
//!
//! let net = dumbbell(1, 10e6, 0.100, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
//! let mut sim = Simulation::new(&net, vec![Box::new(Fixed)], 1);
//! let out = sim.run(SimDuration::from_secs(10));
//! assert!(out.flows[0].throughput_bps > 1e6);
//! ```
//!
//! # Performance architecture
//!
//! The simulator is the denominator of every experiment *and* of every
//! candidate evaluation inside Remy training, so the per-event constant
//! factor is engineered deliberately:
//!
//! * **No hashing or tree searches on the packet path.** Receiver
//!   duplicate detection uses [`seqtrack::SeqTracker`], a sliding bitmap
//!   over the near-sequential sequence space (O(1) insert, no per-
//!   delivery re-hash). The reliability layer's in-flight maps are dense
//!   sliding-window vectors keyed by sequence number / transmission
//!   index rather than `BTreeMap`s, and the RTO's oldest-outstanding
//!   query is an O(1) front lookup instead of a scan over the window.
//! * **Allocation-free packet events.** The 48-byte `Packet` never rides
//!   inside the event enum: scheduled packets park in a generation-
//!   indexed arena ([`arena::PacketArena`]) and events carry an 8-byte
//!   handle, so the calendar queue moves slim payloads and the
//!   Arrive → TxComplete → Propagated chain recycles slots through a
//!   free-list instead of touching the heap. Loss detection counts what
//!   it declares lost instead of collecting it. What still allocates is
//!   growth: a flow's reliability rings grow to the largest window it has
//!   kept in flight (and keep that capacity across epochs), the
//!   calendar's slab to the most timers ever pending at once. At steady
//!   state the hot handlers and the scheduler allocate nothing (tracked by
//!   the `sim_allocs_per_event_*` perf-gate metrics), and nothing is
//!   reserved from a path's bandwidth-delay product, which at 10⁴ flows
//!   with sub-packet fair shares would be most of the heap
//!   (`sim_peak_heap_mb_10k`).
//! * **Per-flow state without idle padding.** At 10⁴ flows each word of
//!   a flow slot costs 80 kB, so the slots hold what is live: sentinels
//!   instead of `Option`s in the sender slot, the transport and its ring
//!   slots (16 and 8 bytes, the value itself), data and ACK routes as
//!   ranges of one per-simulation route table, and the delayed-ACK state
//!   boxed where only delayed-ACK receivers pay for it. Compile-time
//!   asserts hold the sender slot to 400 bytes and the receiver slot to
//!   64; a built 10⁴-flow cell holds about 0.67 kB per flow, controller
//!   included (`netsim.sim.kb_per_flow` in the benchmark).
//! * **Packet events bypass the priority queue.** A link's
//!   serializations and its propagations (on a delay-only link, every
//!   packet that enters it) are each scheduled in an order known in
//!   advance, so [`event::EventQueue`] keeps them in FIFO delay lines
//!   and merges the lines' fronts with its backend by `(time, seq)` (see
//!   "Delay lines" in [`sim`]). That is 63 % of what the quick figures
//!   dispatch; a quarter more rides the same-instant lane below, and the
//!   backend keeps only the timers (12 %, down from 75 %) — calendar
//!   pops on the 19 quick figures fell from 80.2 M to 12.8 M and keys
//!   scanned from 588 M to 67 M. The queue holds the backend's earliest
//!   entry out of it, so "is the next event at this instant?" is two
//!   comparisons whichever backend runs.
//! * **O(1) amortized timers.** The engine schedules through a
//!   pluggable [`event::Scheduler`]; the default backend is a bucketed
//!   calendar queue ([`calendar::CalendarQueue`]) whose bucket width is a
//!   power-of-two nanosecond span seeded from the bottleneck
//!   serialization time, re-estimated from the live event population
//!   on every resize, and re-derived from the dequeue rate when a large
//!   queue's pops keep scanning crowded days (see the `calendar` module
//!   docs for the tuning knobs). Entries live in one slab and a day is a
//!   linked list through it, so the queue holds about 40 bytes per
//!   pending timer plus 4 per bucket, whatever a day once held. The
//!   `BinaryHeap` backend stays
//!   selectable per simulation ([`event::SchedulerKind::Heap`] through
//!   [`sim::Simulation::with_scheduler`]) as the O(log n) reference; on
//!   timers alone the two run close, and the calendar does not reliably
//!   beat the heap even with 2×10⁴ of them standing.
//! * **No float work the per-ACK path can do without.** The RTT
//!   estimator and the RTO scale by their RFC 6298 gains in integers —
//!   `(n·x + d/2) >> log2 d`, exact for every duration the simulator
//!   reaches — and back off by a saturating multiply; a link converts its
//!   data and ACK serialization times once; a Tao leaf carries its pacing
//!   as a `SimDuration` from compile time; and the send loop reads the
//!   window and pacing interval the engine cached after the controller's
//!   last callback, so it makes no virtual call. What float conversion
//!   remains rounds with an inline truncate-and-compare that is
//!   bit-identical to `f64::round` (a library call on baseline x86-64);
//!   the paper path's per-ACK 1 Gbps serialization is folded into its
//!   delay-only link's delay once.
//! * **The scheduler only sees events that have to wait.** Events due at
//!   the instant being dispatched ride a plain `Vec` lane past the
//!   backend ([`event::EventQueue`]); a flow keeps one armed `RtoCheck`
//!   that re-inserts itself at the current deadline under a reserved
//!   queue position instead of one check per ACK; and only the pending
//!   pacing wake clears the pending-wake marker, so wakes stop breeding
//!   duplicates (see "Timers and the same-instant lane" in [`sim`]).
//!   Together that removed 29 % of the events behind the quick figures
//!   and the standing second-deep timer population from every calendar
//!   scan, with every flow's ack sequence unchanged;
//!   [`sim::RunOutcome::events_by_kind`] keeps the waste visible, and
//!   [`sim::RunOutcome::queue`] counts where each event waited (lane,
//!   line, backend, line fallbacks) and what the calendar did (pops,
//!   keys scanned, rebuilds, today-buffer drains).
//! * **Determinism is load-bearing.** All of the above preserve the
//!   bit-for-bit `(config, protocols, seed) → outcome` contract that the
//!   optimizer's common-random-number comparisons rest on. Both scheduler
//!   backends realize the same `(time, insertion-seq)` total order, so
//!   even the backend choice never perturbs an outcome (property- and
//!   end-to-end-tested in `tests/proptest_scheduler.rs` and
//!   `tests/scheduler_determinism.rs`).
//!
//! Measure with `benchmark/run.sh` (the repo's benchmark: engine event
//! throughput, calendar vs heap hold costs and per-discipline link costs
//! in its per-layer ledger) and `cargo run --release -p bench --bin
//! perf_snapshot` (events/sec of a fixed dumbbell under both backends,
//! written to `BENCH_optimizer.json`).

#![deny(missing_docs)]

pub mod arena;
pub mod calendar;
pub mod codel;
pub mod event;
pub mod flow;
pub mod link;
pub mod packet;
pub mod queue;
pub mod red;
pub mod rng;
pub mod seqtrack;
pub mod sfq_codel;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod workload;

/// Common imports for simulator users.
pub mod prelude {
    pub use crate::event::SchedulerKind;
    pub use crate::flow::{FlowOutcome, FlowStats};
    pub use crate::packet::{Ack, FlowId, LinkId, Packet, ACK_BYTES, DATA_PACKET_BYTES};
    pub use crate::queue::QueueSpec;
    pub use crate::rng::SimRng;
    pub use crate::sim::{RunOutcome, Simulation};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{
        dumbbell, dumbbell_mixed, parking_lot, FaultSpec, FlowSpec, LinkSpec, NetworkConfig,
        ReceiverSpec, ReverseSpec,
    };
    pub use crate::transport::{AckInfo, CongestionControl};
    pub use crate::workload::WorkloadSpec;
}
