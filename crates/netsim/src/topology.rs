//! Network configurations: the topologies of the study.
//!
//! A [`NetworkConfig`] lists unidirectional links and the flows routed over
//! them. Two builders cover every topology the paper uses: the dumbbell
//! (single bottleneck, Tables 1–4, 6, 7) and the two-bottleneck parking lot
//! of Fig 5 (Table 5).
//!
//! Convention: a link's `delay_s` contributes round-trip `delay_s` to flows
//! crossing it (one-way forward propagation `delay_s / 2`, matching reverse
//! ACK propagation `delay_s / 2`). So "one link, 150 ms delay" yields the
//! paper's 150 ms minimum RTT, and the parking lot's "two links, 75 ms
//! each" gives Flow 1 a 150 ms RTT.
//!
//! A link may additionally carry an explicit [`ReverseSpec`] describing an
//! *asymmetric* ACK path: its own propagation delay and a finite reverse
//! rate at which acknowledgments serialize (the classic ADSL/cable/
//! satellite "slow uplink" regime the paper never tested). The engine
//! realizes the spec as a real reverse [`crate::link::Link`] with its own
//! queue discipline: `shared: false` (the default) gives every flow a
//! private reverse channel — acknowledgments of one flow serialize one at
//! a time, never contending with other flows — while `shared: true`
//! queues *all* flows' ACKs through one reverse link, so ACK compression
//! and reverse-queue drops emerge from real contention (the
//! uplink-sharing household regime). Without a spec, the reverse path
//! stays the paper's model — uncongested pure delay of `delay_s / 2`.

use crate::queue::QueueSpec;
use crate::time::SimDuration;
use crate::workload::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// Explicit reverse-direction (ACK-path) characteristics of a link.
///
/// The engine builds a real reverse [`crate::link::Link`] from this spec:
/// one private link per flow when `shared` is false (reproducing the
/// per-flow ACK serialization this field originally modelled), or one
/// link carrying every flow's ACKs when `shared` is true.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReverseSpec {
    /// Reverse line rate in bits per second; acknowledgments serialize
    /// at this rate (the asymmetry bottleneck).
    pub rate_bps: f64,
    /// One-way reverse propagation delay in seconds.
    pub delay_s: f64,
    /// Queue discipline of the reverse channel. Defaults to an infinite
    /// FIFO (ACKs never drop — the historical per-flow semantics); any
    /// [`QueueSpec`] works, so RED/CoDel/sfqCoDel can manage ACK traffic
    /// exactly as they manage data.
    #[serde(default)]
    pub queue: QueueSpec,
    /// `true`: all flows crossing the link queue their ACKs through one
    /// shared reverse link (true contention, ACK compression, shared
    /// drops). `false` (serde default, back-compatible): each flow gets a
    /// private reverse channel of this rate.
    #[serde(default)]
    pub shared: bool,
}

impl ReverseSpec {
    /// Private per-flow reverse channel with an infinite FIFO — the exact
    /// semantics `ReverseSpec { rate_bps, delay_s }` had before the
    /// reverse path became real links.
    pub fn per_flow(rate_bps: f64, delay_s: f64) -> Self {
        ReverseSpec {
            rate_bps,
            delay_s,
            queue: QueueSpec::infinite(),
            shared: false,
        }
    }

    /// Shared reverse link: every flow's ACKs through one queue.
    pub fn shared(rate_bps: f64, delay_s: f64, queue: QueueSpec) -> Self {
        ReverseSpec {
            rate_bps,
            delay_s,
            queue,
            shared: true,
        }
    }
}

/// A non-congestive fault process attached to a forward link.
///
/// Every mode draws from a per-link child of the simulation RNG, so a
/// faulted run stays a pure function of `(config, seed)` and dispatches
/// the identical event sequence on both scheduler backends. Packets a
/// fault destroys are counted per flow as `drops.fault` — never as queue
/// drops — so "the path lost it" and "the buffer overflowed" stay
/// distinguishable in every figure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// Gilbert–Elliott two-state bursty loss. The link alternates between
    /// a good state (loss probability `loss_good`) and a bad state
    /// (`loss_bad`); after each packet the state flips with probability
    /// `good_to_bad` / `bad_to_good`. Mean burst length is
    /// `1 / bad_to_good` packets and the stationary bad-state fraction is
    /// `good_to_bad / (good_to_bad + bad_to_good)`.
    GilbertElliott {
        /// Per-packet loss probability in the good state.
        loss_good: f64,
        /// Per-packet loss probability in the bad state.
        loss_bad: f64,
        /// Per-packet probability of entering the bad state.
        good_to_bad: f64,
        /// Per-packet probability of leaving the bad state.
        bad_to_good: f64,
    },
    /// The link goes fully down for `down_s`-length blackouts separated by
    /// `up_s` of service. `scheduled: true` makes the dwells exact
    /// (deterministic square wave); otherwise both dwells are exponential
    /// with the given means (a two-state Markov outage process). While
    /// down, arriving packets are destroyed when `drop_while_down` is set,
    /// or held in the link queue (subject to its normal discipline) and
    /// released when the link returns.
    Outage {
        /// Mean (or exact, if scheduled) up dwell, seconds.
        up_s: f64,
        /// Mean (or exact, if scheduled) blackout length, seconds.
        down_s: f64,
        /// Exact square-wave dwells instead of exponential ones.
        #[serde(default)]
        scheduled: bool,
        /// Destroy packets arriving during a blackout instead of holding them.
        #[serde(default)]
        drop_while_down: bool,
    },
    /// Each packet is independently corrupted with probability `prob`
    /// *after* crossing the link: it consumes serialization capacity and
    /// queue space, then is discarded at the far end (checksum failure),
    /// unlike a queue drop which never transmits.
    Corruption {
        /// Independent per-packet corruption probability.
        prob: f64,
    },
}

impl FaultSpec {
    /// Bursty loss with a clean good state: bad-state loss `loss_bad`,
    /// entered with per-packet probability `good_to_bad` and left with
    /// `bad_to_good` (mean burst `1 / bad_to_good` packets).
    pub fn gilbert_elliott(loss_bad: f64, good_to_bad: f64, bad_to_good: f64) -> Self {
        FaultSpec::GilbertElliott {
            loss_good: 0.0,
            loss_bad,
            good_to_bad,
            bad_to_good,
        }
    }

    /// Deterministic square-wave outage: exactly `up_s` of service, then
    /// exactly `down_s` of blackout, repeating.
    pub fn outage_scheduled(up_s: f64, down_s: f64, drop_while_down: bool) -> Self {
        FaultSpec::Outage {
            up_s,
            down_s,
            scheduled: true,
            drop_while_down,
        }
    }

    /// Markov outage: exponential up/down dwells with the given means.
    pub fn outage_markov(up_s: f64, down_s: f64, drop_while_down: bool) -> Self {
        FaultSpec::Outage {
            up_s,
            down_s,
            scheduled: false,
            drop_while_down,
        }
    }

    /// Independent per-packet corruption (delivered but discarded).
    pub fn corruption(prob: f64) -> Self {
        FaultSpec::Corruption { prob }
    }
}

/// A unidirectional link description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub rate_bps: f64,
    /// Round-trip propagation contribution of this link, in seconds
    /// (one-way delay is half this value; see module docs).
    pub delay_s: f64,
    /// Queue discipline at the link ingress.
    pub queue: QueueSpec,
    /// Explicit asymmetric ACK path; `None` keeps the paper's symmetric
    /// uncongested reverse model. `#[serde(default)]` so configs from
    /// before this field existed still parse.
    #[serde(default)]
    pub reverse: Option<ReverseSpec>,
    /// Non-congestive fault process on the forward direction; `None` (the
    /// serde default) is bit-identical to a link from before this field
    /// existed — the engine forks no fault RNG and installs no hooks.
    #[serde(default)]
    pub fault: Option<FaultSpec>,
}

impl LinkSpec {
    /// Symmetric link (no explicit reverse path).
    pub fn symmetric(rate_bps: f64, delay_s: f64, queue: QueueSpec) -> Self {
        LinkSpec {
            rate_bps,
            delay_s,
            queue,
            reverse: None,
            fault: None,
        }
    }

    /// One-way propagation delay (`delay_s / 2`; see module docs).
    pub fn one_way_delay(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.delay_s / 2.0)
    }

    /// Reverse (ACK-path) propagation delay of this link: the explicit
    /// [`ReverseSpec`] delay when present, else the symmetric `delay_s / 2`.
    pub fn reverse_delay(&self) -> SimDuration {
        match &self.reverse {
            Some(r) => SimDuration::from_secs_f64(r.delay_s),
            None => self.one_way_delay(),
        }
    }

    /// Buffer capacity of this link's queue in bytes, substituting
    /// `bdp_multiple` bandwidth-delay products (min 30 kB) when the queue
    /// is infinite. The finite stand-in consumers need when converting to
    /// a discipline that requires a real buffer (e.g. sfqCoDel, which
    /// drops by sojourn time out of a shared finite pool).
    pub fn queue_capacity_or_bdp(&self, bdp_multiple: f64) -> u64 {
        self.queue.capacity_bytes().unwrap_or_else(|| {
            (self.rate_bps / 8.0 * self.delay_s * bdp_multiple)
                .ceil()
                .max(30_000.0) as u64
        })
    }
}

/// Receiver-side endpoint policy of one flow.
///
/// The default (`ack_every: 1`, no flush timer, no advertisement) is the
/// pre-policy engine bit for bit: every delivered data packet is answered
/// by an immediate per-packet acknowledgment. Anything else turns the
/// receiver into a small state machine inside the engine:
///
/// * **Delayed/stretch ACKs** — `ack_every: k` coalesces runs of
///   consecutive in-order deliveries and acknowledges once per `k`
///   packets (one ACK with `batch: k` covering the whole run). A
///   non-consecutive or retransmitted delivery flushes immediately, so
///   loss recovery never waits on the coalescing counter.
/// * **Flush timer** — `flush_timer_s` bounds how long a partial run may
///   be held: a timer armed at the first unacknowledged delivery flushes
///   the batch when it fires (the classic delayed-ACK timeout). Without
///   it, a stalled sender waits for its RTO, whose retransmission is
///   acked immediately.
/// * **Advertised receive window** — `rwnd_packets` stamps every ACK
///   with a receive-window advertisement; the sender's transport then
///   caps its effective window at `min(cwnd, rwnd)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReceiverSpec {
    /// Acknowledge once per this many consecutive in-order deliveries
    /// (`1` = every packet, the default; must be >= 1).
    #[serde(default = "default_ack_every")]
    pub ack_every: u32,
    /// Upper bound in seconds on how long a partial batch may be held
    /// before it is acknowledged anyway. `None` (the default) disables
    /// the timer.
    #[serde(default)]
    pub flush_timer_s: Option<f64>,
    /// Receive-window advertisement in packets carried on every ACK;
    /// `None` (the default) advertises nothing and leaves the sender
    /// congestion-window-limited only.
    #[serde(default)]
    pub rwnd_packets: Option<u32>,
}

fn default_ack_every() -> u32 {
    1
}

/// `skip_serializing_if` helper: configs predating a boolean flag omit it,
/// so the default `false` must serialize to nothing to stay byte-identical.
fn is_false(b: &bool) -> bool {
    !*b
}

impl Default for ReceiverSpec {
    fn default() -> Self {
        ReceiverSpec::immediate()
    }
}

impl ReceiverSpec {
    /// Immediate per-packet acknowledgment — the engine's historical
    /// behavior, bit-identical to configuring no receiver at all.
    pub fn immediate() -> Self {
        ReceiverSpec {
            ack_every: 1,
            flush_timer_s: None,
            rwnd_packets: None,
        }
    }

    /// Delayed/stretch ACKs: acknowledge once per `ack_every`
    /// consecutive deliveries, flushing any partial batch after
    /// `flush_timer_s` seconds.
    pub fn delayed(ack_every: u32, flush_timer_s: f64) -> Self {
        ReceiverSpec {
            ack_every,
            flush_timer_s: Some(flush_timer_s),
            rwnd_packets: None,
        }
    }

    /// Same policy with a receive-window advertisement of `packets`.
    pub fn with_rwnd(mut self, packets: u32) -> Self {
        self.rwnd_packets = Some(packets);
        self
    }

    /// Whether this spec reproduces the default immediate-ACK path
    /// exactly (the engine then skips the policy state machine
    /// entirely, keeping default configs bit-identical).
    pub fn is_immediate(&self) -> bool {
        self.ack_every <= 1 && self.rwnd_packets.is_none()
    }
}

/// A sender/receiver pair and its path.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Indices into [`NetworkConfig::links`], in forward-path order.
    pub route: Vec<usize>,
    /// Offered-load process gating when this sender has data to send.
    pub workload: WorkloadSpec,
    /// Receiver-side endpoint policy; `None` (the serde default, so
    /// configs from before this field existed still parse) is immediate
    /// per-packet acknowledgment, bit-identical to the pre-policy
    /// engine.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub receiver: Option<ReceiverSpec>,
    /// `true` routes this flow's *data* over the reverse links of its
    /// route (every route link must then declare a [`ReverseSpec`]) —
    /// the upload direction of an access network, contending with
    /// everyone's ACKs on a shared uplink. Its own acknowledgments
    /// return over a delay-only link of the forward propagation, the
    /// paper's uncongested reverse path. `false` (the serde default) is
    /// the ordinary forward data flow.
    #[serde(default, skip_serializing_if = "is_false")]
    pub reverse_data: bool,
}

/// A complete network configuration (topology + workloads). Protocols are
/// attached separately when the simulation is built, so one config can be
/// evaluated under many protocol mixes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Unidirectional links of the topology.
    pub links: Vec<LinkSpec>,
    /// Flows routed over those links.
    pub flows: Vec<FlowSpec>,
}

impl NetworkConfig {
    /// Minimum round-trip time of a flow: forward propagation plus reverse
    /// ACK-path propagation (no queueing, no serialization).
    pub fn min_rtt(&self, flow: usize) -> SimDuration {
        self.min_one_way(flow) + self.ack_delay(flow)
    }

    /// Minimum one-way (data-path) delay of a flow.
    pub fn min_one_way(&self, flow: usize) -> SimDuration {
        self.flows[flow]
            .route
            .iter()
            .map(|&l| self.links[l].one_way_delay())
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Reverse-path (ACK) propagation delay of a flow. Links without an
    /// explicit [`ReverseSpec`] keep the paper's model — uncongested pure
    /// delay mirroring the forward direction; links with one contribute
    /// their own reverse delay.
    pub fn ack_delay(&self, flow: usize) -> SimDuration {
        self.flows[flow]
            .route
            .iter()
            .map(|&l| self.links[l].reverse_delay())
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Copy of this network with an explicit asymmetric ACK path on every
    /// link: the reverse rate is the forward rate divided by `slowdown`
    /// (so `slowdown = 50.0` models a 1/50× uplink) and the reverse
    /// propagation delay mirrors the forward direction, leaving the
    /// minimum RTT unchanged. `slowdown = 1.0` is the symmetric anchor of
    /// an asymmetry sweep — same propagation, but ACKs now serialize at
    /// the (finite) forward rate.
    pub fn with_reverse_slowdown(&self, slowdown: f64) -> NetworkConfig {
        assert!(
            slowdown.is_finite() && slowdown > 0.0,
            "reverse slowdown must be positive"
        );
        let mut out = self.clone();
        for link in &mut out.links {
            link.reverse = Some(ReverseSpec::per_flow(
                link.rate_bps / slowdown,
                link.delay_s / 2.0,
            ));
        }
        out
    }

    /// Copy of this network with a *shared* reverse link on every link —
    /// all flows' acknowledgments queue together through one reverse
    /// channel at `forward rate / slowdown` under the given queue
    /// discipline (built per link from `queue_for(reverse_rate_bps,
    /// link)`), with the reverse propagation mirroring the forward
    /// direction. This is the uplink-sharing household regime: ACK
    /// compression and reverse drops come from genuine contention.
    pub fn with_shared_reverse(
        &self,
        slowdown: f64,
        mut queue_for: impl FnMut(f64, &LinkSpec) -> QueueSpec,
    ) -> NetworkConfig {
        assert!(
            slowdown.is_finite() && slowdown > 0.0,
            "reverse slowdown must be positive"
        );
        let mut out = self.clone();
        for link in &mut out.links {
            let rate = link.rate_bps / slowdown;
            link.reverse = Some(ReverseSpec::shared(
                rate,
                link.delay_s / 2.0,
                queue_for(rate, link),
            ));
        }
        out
    }

    /// Copy of this network with the given receiver-side endpoint
    /// policy on every flow (see [`ReceiverSpec`]); the convenient form
    /// for sweeps that vary the ACK policy of a whole sender population.
    pub fn with_receiver(&self, spec: ReceiverSpec) -> NetworkConfig {
        let mut out = self.clone();
        for flow in &mut out.flows {
            flow.receiver = Some(spec.clone());
        }
        out
    }

    /// Reverse-path bottleneck rate of a flow: the slowest explicit
    /// reverse rate along the route, or `None` when no link on the route
    /// declares one (the reverse path is then effectively unconstrained).
    pub fn reverse_rate(&self, flow: usize) -> Option<f64> {
        self.flows[flow]
            .route
            .iter()
            .filter_map(|&l| self.links[l].reverse.as_ref().map(|r| r.rate_bps))
            .fold(None, |acc: Option<f64>, r| {
                Some(acc.map_or(r, |a| a.min(r)))
            })
    }

    /// The rate of the slowest link on the flow's path (its bottleneck).
    pub fn bottleneck_rate(&self, flow: usize) -> f64 {
        self.flows[flow]
            .route
            .iter()
            .map(|&l| self.links[l].rate_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Reject structurally invalid configs (bad routes, degenerate receiver parameters) before they reach the engine.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.flows.iter().enumerate() {
            if f.route.is_empty() {
                return Err(format!("flow {i} has an empty route"));
            }
            for &l in &f.route {
                if l >= self.links.len() {
                    return Err(format!("flow {i} routes over unknown link {l}"));
                }
            }
            if f.route.len() > crate::packet::MAX_ROUTE_LINKS {
                return Err(format!(
                    "flow {i} route too long (max {} links)",
                    crate::packet::MAX_ROUTE_LINKS
                ));
            }
            if let crate::workload::WorkloadSpec::Churn {
                arrival_rate_hz,
                mean_duration_s,
                unblocked,
            } = &f.workload
            {
                if !arrival_rate_hz.is_finite()
                    || *arrival_rate_hz <= 0.0
                    || !mean_duration_s.is_finite()
                    || *mean_duration_s <= 0.0
                {
                    let kind = if *unblocked {
                        "M/G/inf (unblocked)"
                    } else {
                        "blocked"
                    };
                    return Err(format!(
                        "flow {i} {kind} churn needs a positive arrival rate and mean \
                         duration (got {arrival_rate_hz} arrivals/s, {mean_duration_s} s)"
                    ));
                }
            }
            if let Some(r) = &f.receiver {
                validate_receiver(i, r)?;
            }
            if f.reverse_data {
                for &l in &f.route {
                    if self.links[l].reverse.is_none() {
                        return Err(format!(
                            "flow {i} sets reverse_data but route link {l} declares no \
                             ReverseSpec: data cannot be routed over a reverse path \
                             that does not exist; add `reverse` to link {l} or drop \
                             the flag"
                        ));
                    }
                }
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.rate_bps.is_nan() || l.rate_bps <= 0.0 {
                return Err(format!(
                    "link {i} has non-positive rate (got {} bps)",
                    l.rate_bps
                ));
            }
            if l.delay_s < 0.0 {
                return Err(format!("link {i} has negative delay (got {} s)", l.delay_s));
            }
            if let Some(r) = &l.reverse {
                if r.shared && !(r.rate_bps.is_finite() && r.rate_bps > 0.0) {
                    return Err(format!(
                        "link {i} declares a shared reverse link but no positive \
                         ReverseSpec rate (got {}); set rate_bps to the uplink \
                         rate or drop `shared`",
                        r.rate_bps
                    ));
                }
                if !r.rate_bps.is_finite() || r.rate_bps <= 0.0 {
                    return Err(format!(
                        "link {i} reverse path has non-positive rate {} \
                         (drop the reverse spec for an unconstrained ACK path)",
                        r.rate_bps
                    ));
                }
                if !r.delay_s.is_finite() || r.delay_s < 0.0 {
                    return Err(format!(
                        "link {i} reverse path has invalid delay {} s",
                        r.delay_s
                    ));
                }
                validate_queue(&format!("link {i} reverse"), &r.queue)?;
            }
            if let Some(fault) = &l.fault {
                validate_fault(i, fault)?;
            }
            validate_queue(&format!("link {i}"), &l.queue)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Range-respecting mutation helpers.
    //
    // Adversarial scenario search mutates configs mechanically; these
    // setters are the write-side counterpart of `validate()`: each one
    // clamps its argument into the caller's bounded range (or validates
    // it outright) before writing, so a mutation can move a config
    // around inside the searchable box but never out of it.
    // ------------------------------------------------------------------

    /// Set link `link`'s forward rate to `rate_bps` clamped into
    /// `[lo, hi]` bps (non-finite collapses to `lo`). Returns the value
    /// actually written.
    pub fn set_rate_clamped(&mut self, link: usize, rate_bps: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo > 0.0 && lo <= hi, "bad rate range [{lo}, {hi}]");
        let v = if rate_bps.is_finite() {
            rate_bps.clamp(lo, hi)
        } else {
            lo
        };
        self.links[link].rate_bps = v;
        v
    }

    /// Set link `link`'s round-trip propagation delay to `delay_s`
    /// clamped into `[lo, hi]` seconds (non-finite collapses to `lo`).
    /// Returns the value actually written.
    pub fn set_delay_clamped(&mut self, link: usize, delay_s: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo >= 0.0 && lo <= hi, "bad delay range [{lo}, {hi}]");
        let v = if delay_s.is_finite() {
            delay_s.clamp(lo, hi)
        } else {
            lo
        };
        self.links[link].delay_s = v;
        v
    }

    /// Attach `fault` to link `link` only if it passes the same checks
    /// `validate()` applies — a degenerate mutation product is rejected
    /// here, with the offending value in the message, instead of
    /// poisoning a simulation later.
    pub fn try_set_fault(&mut self, link: usize, fault: FaultSpec) -> Result<(), String> {
        validate_fault(link, &fault)?;
        self.links[link].fault = Some(fault);
        Ok(())
    }
}

/// Receiver-policy parameter validation for [`NetworkConfig::validate`]:
/// degenerate endpoint specs are rejected with actionable messages before
/// a simulation is built (an ack-every-0 receiver would never acknowledge
/// anything; a zero advertised window would forbid the sender from ever
/// transmitting).
fn validate_receiver(flow: usize, r: &ReceiverSpec) -> Result<(), String> {
    if r.ack_every == 0 {
        return Err(format!(
            "flow {flow} receiver ack_every must be >= 1 (got 0): an \
             ack-every-0 receiver never acknowledges; use 1 for per-packet \
             acks"
        ));
    }
    if r.ack_every > u16::MAX as u32 {
        return Err(format!(
            "flow {flow} receiver ack_every {} exceeds the ACK batch-count \
             field's range (max {})",
            r.ack_every,
            u16::MAX
        ));
    }
    if let Some(t) = r.flush_timer_s {
        if !t.is_finite() || t <= 0.0 {
            return Err(format!(
                "flow {flow} receiver flush timer must be positive and finite \
                 (got {t} s); drop flush_timer_s for count-only flushing"
            ));
        }
    }
    if let Some(w) = r.rwnd_packets {
        if w == 0 {
            return Err(format!(
                "flow {flow} receiver advertises a zero receive window (got \
                 {w} packets): the sender could never transmit; drop \
                 rwnd_packets for no advertisement"
            ));
        }
        if w > u16::MAX as u32 {
            return Err(format!(
                "flow {flow} receiver rwnd_packets {w} exceeds the ACK \
                 window field's range (max {})",
                u16::MAX
            ));
        }
    }
    Ok(())
}

/// Fault-process parameter validation for [`NetworkConfig::validate`]:
/// degenerate fault specs are rejected with actionable messages before a
/// simulation is built (an absorbing bad state would silently black-hole
/// the link forever; a non-positive dwell would schedule outage events at
/// a zero interval).
fn validate_fault(link: usize, fault: &FaultSpec) -> Result<(), String> {
    let prob01 = |p: f64, name: &str| {
        if (0.0..=1.0).contains(&p) {
            Ok(())
        } else {
            Err(format!(
                "link {link} Gilbert-Elliott {name} {p} outside [0, 1]"
            ))
        }
    };
    match *fault {
        FaultSpec::GilbertElliott {
            loss_good,
            loss_bad,
            good_to_bad,
            bad_to_good,
        } => {
            prob01(loss_good, "loss_good")?;
            prob01(loss_bad, "loss_bad")?;
            prob01(good_to_bad, "good_to_bad")?;
            prob01(bad_to_good, "bad_to_good")?;
            if good_to_bad > 0.0 && bad_to_good == 0.0 && loss_bad > 0.0 {
                return Err(format!(
                    "link {link} Gilbert-Elliott bad state is absorbing \
                     (good_to_bad {good_to_bad} > 0 but bad_to_good = 0): the link \
                     would black-hole forever once it enters the bad state; set \
                     bad_to_good > 0 or use an Outage fault for permanent failure"
                ));
            }
            Ok(())
        }
        FaultSpec::Outage { up_s, down_s, .. } => {
            if !up_s.is_finite() || up_s <= 0.0 {
                return Err(format!(
                    "link {link} outage needs a positive up dwell (got {up_s} s)"
                ));
            }
            if !down_s.is_finite() || down_s <= 0.0 {
                return Err(format!(
                    "link {link} outage needs a positive down dwell (got {down_s} s); \
                     drop the fault spec for an always-up link"
                ));
            }
            Ok(())
        }
        FaultSpec::Corruption { prob } => {
            if (0.0..=1.0).contains(&prob) {
                Ok(())
            } else {
                Err(format!(
                    "link {link} corruption probability {prob} outside [0, 1]"
                ))
            }
        }
    }
}

/// AQM parameter validation shared by [`NetworkConfig::validate`]: every
/// discipline's knobs are checked with actionable messages before a
/// simulation is built (a `min_th >= max_th` RED would otherwise panic
/// deep inside `QueueSpec::build`, a zero-capacity buffer would deadlock
/// the link).
fn validate_queue(link: &str, q: &QueueSpec) -> Result<(), String> {
    let finite_capacity = |cap: u64, name: &str| {
        if cap == 0 {
            Err(format!(
                "{link} {name} queue has zero capacity (no packet ever fits)"
            ))
        } else {
            Ok(())
        }
    };
    match *q {
        QueueSpec::DropTail { capacity_bytes } => match capacity_bytes {
            Some(cap) => finite_capacity(cap, "drop-tail"),
            None => Ok(()),
        },
        QueueSpec::SfqCodel {
            capacity_bytes,
            target_ms,
            interval_ms,
            bins,
        } => {
            finite_capacity(capacity_bytes, "sfqCoDel")?;
            if target_ms.is_nan() || target_ms <= 0.0 || interval_ms.is_nan() || interval_ms <= 0.0
            {
                return Err(format!(
                    "{link} sfqCoDel needs positive target/interval \
                     (got target {target_ms} ms, interval {interval_ms} ms)"
                ));
            }
            if bins == 0 {
                return Err(format!(
                    "{link} sfqCoDel needs at least one bin (got {bins})"
                ));
            }
            Ok(())
        }
        QueueSpec::Red {
            capacity_bytes,
            min_th,
            max_th,
            max_p,
        } => {
            finite_capacity(capacity_bytes, "RED")?;
            if min_th.is_nan() || max_th.is_nan() || min_th < 0.0 || max_th <= min_th {
                return Err(format!(
                    "{link} RED thresholds invalid: need 0 <= min_th < max_th \
                     (got min_th {min_th}, max_th {max_th})"
                ));
            }
            if max_p.is_nan() || max_p <= 0.0 || max_p > 1.0 {
                return Err(format!("{link} RED max_p {max_p} outside (0, 1]"));
            }
            Ok(())
        }
        QueueSpec::Codel {
            capacity_bytes,
            target_ms,
            interval_ms,
        } => {
            finite_capacity(capacity_bytes, "CoDel")?;
            if target_ms.is_nan() || target_ms <= 0.0 || interval_ms.is_nan() || interval_ms <= 0.0
            {
                return Err(format!(
                    "{link} CoDel needs positive target/interval \
                     (got target {target_ms} ms, interval {interval_ms} ms)"
                ));
            }
            Ok(())
        }
    }
}

/// Single-bottleneck dumbbell: `n_senders` flows share one link.
///
/// * `rate_bps` — bottleneck rate.
/// * `min_rtt_s` — minimum round-trip time of every flow.
/// * `queue` — bottleneck queue discipline.
/// * `workload` — workload of every sender.
pub fn dumbbell(
    n_senders: usize,
    rate_bps: f64,
    min_rtt_s: f64,
    queue: QueueSpec,
    workload: WorkloadSpec,
) -> NetworkConfig {
    dumbbell_mixed(rate_bps, min_rtt_s, queue, vec![workload; n_senders])
}

/// Dumbbell with per-flow workloads (used for mixed sender populations,
/// e.g. Tao + AIMD cross-traffic in the TCP-awareness experiment).
pub fn dumbbell_mixed(
    rate_bps: f64,
    min_rtt_s: f64,
    queue: QueueSpec,
    workloads: Vec<WorkloadSpec>,
) -> NetworkConfig {
    NetworkConfig {
        links: vec![LinkSpec {
            rate_bps,
            delay_s: min_rtt_s,
            queue,
            reverse: None,
            fault: None,
        }],
        flows: workloads
            .into_iter()
            .map(|w| FlowSpec {
                route: vec![0],
                workload: w,
                receiver: None,
                reverse_data: false,
            })
            .collect(),
    }
}

/// The two-bottleneck "parking lot" of Fig 5.
///
/// Flow 0 crosses both links (A→B→C); flow 1 contends on link 1 only; flow 2
/// on link 2 only. Each link contributes `per_link_delay_s` of round-trip
/// delay (75 ms each in the paper, so Flow 0 sees a 150 ms RTT).
pub fn parking_lot(
    rate1_bps: f64,
    rate2_bps: f64,
    per_link_delay_s: f64,
    queue1: QueueSpec,
    queue2: QueueSpec,
    workload: WorkloadSpec,
) -> NetworkConfig {
    NetworkConfig {
        links: vec![
            LinkSpec {
                rate_bps: rate1_bps,
                delay_s: per_link_delay_s,
                queue: queue1,
                reverse: None,
                fault: None,
            },
            LinkSpec {
                rate_bps: rate2_bps,
                delay_s: per_link_delay_s,
                queue: queue2,
                reverse: None,
                fault: None,
            },
        ],
        flows: vec![
            FlowSpec {
                route: vec![0, 1],
                workload: workload.clone(),
                receiver: None,
                reverse_data: false,
            },
            FlowSpec {
                route: vec![0],
                workload: workload.clone(),
                receiver: None,
                reverse_data: false,
            },
            FlowSpec {
                route: vec![1],
                workload,
                receiver: None,
                reverse_data: false,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumbbell_rtts() {
        let net = dumbbell(
            2,
            32e6,
            0.150,
            QueueSpec::infinite(),
            WorkloadSpec::on_off_1s(),
        );
        assert_eq!(net.links.len(), 1);
        assert_eq!(net.flows.len(), 2);
        assert_eq!(net.min_rtt(0), SimDuration::from_millis(150));
        assert_eq!(net.min_one_way(0), SimDuration::from_millis(75));
        assert_eq!(net.ack_delay(1), SimDuration::from_millis(75));
        assert_eq!(net.bottleneck_rate(0), 32e6);
        net.validate().unwrap();
    }

    #[test]
    fn dumbbell_is_dumbbell_mixed_with_one_workload() {
        let queue = QueueSpec::drop_tail_bdp(12e6, 0.1, 1.0);
        for n in [0, 1, 3] {
            let net = dumbbell(n, 12e6, 0.1, queue.clone(), WorkloadSpec::on_off_1s());
            let mixed =
                dumbbell_mixed(12e6, 0.1, queue.clone(), vec![WorkloadSpec::on_off_1s(); n]);
            assert_eq!(net, mixed, "n = {n}");
            assert_eq!(net.flows.len(), n);
        }
    }

    #[test]
    fn parking_lot_structure() {
        let net = parking_lot(
            10e6,
            100e6,
            0.075,
            QueueSpec::infinite(),
            QueueSpec::infinite(),
            WorkloadSpec::on_off_1s(),
        );
        net.validate().unwrap();
        assert_eq!(net.flows[0].route, vec![0, 1]);
        // Flow 0 crosses both hops: 150 ms RTT as in the paper.
        assert_eq!(net.min_rtt(0), SimDuration::from_millis(150));
        assert_eq!(net.min_rtt(1), SimDuration::from_millis(75));
        assert_eq!(net.min_rtt(2), SimDuration::from_millis(75));
        // Flow 0's bottleneck is the slower of the two links.
        assert_eq!(net.bottleneck_rate(0), 10e6);
        assert_eq!(net.bottleneck_rate(2), 100e6);
    }

    #[test]
    fn validation_catches_bad_routes() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        net.flows[0].route = vec![7];
        assert!(net.validate().is_err());
        net.flows[0].route = vec![];
        assert!(net.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_links() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        net.links[0].rate_bps = 0.0;
        assert!(net.validate().is_err());
    }

    #[test]
    fn validation_messages_carry_the_offending_value() {
        // Certificates from mutation-produced configs must be
        // self-diagnosing: every link/fault/reverse rejection names the
        // bad value, not just the link index.
        let base = || dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        let mut net = base();
        net.links[0].rate_bps = -3.0;
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("-3"), "rate value missing: {msg}");
        let mut net = base();
        net.links[0].delay_s = -0.25;
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("-0.25"), "delay value missing: {msg}");
        let mut net = base();
        net.links[0].fault = Some(FaultSpec::corruption(1.75));
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("1.75"), "corruption value missing: {msg}");
        let mut net = base();
        net.links[0].fault = Some(FaultSpec::Outage {
            up_s: 4.0,
            down_s: -2.5,
            scheduled: true,
            drop_while_down: true,
        });
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("-2.5"), "outage dwell value missing: {msg}");
        let mut net = base();
        net.links[0].reverse = Some(ReverseSpec::per_flow(-7e6, 0.05));
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("-7000000"),
            "reverse rate value missing: {msg}"
        );
    }

    #[test]
    fn clamped_setters_respect_their_ranges() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        assert_eq!(net.set_rate_clamped(0, 5e9, 1e6, 64e6), 64e6);
        assert_eq!(net.links[0].rate_bps, 64e6);
        assert_eq!(net.set_rate_clamped(0, f64::NAN, 1e6, 64e6), 1e6);
        assert_eq!(net.set_delay_clamped(0, -4.0, 0.04, 0.3), 0.04);
        assert_eq!(net.set_delay_clamped(0, 0.15, 0.04, 0.3), 0.15);
        net.validate().unwrap();
    }

    #[test]
    fn try_set_fault_rejects_degenerate_specs() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        let msg = net
            .try_set_fault(0, FaultSpec::corruption(2.0))
            .unwrap_err();
        assert!(msg.contains("2"), "value in message: {msg}");
        assert!(net.links[0].fault.is_none(), "rejected fault not written");
        net.try_set_fault(0, FaultSpec::gilbert_elliott(0.5, 0.01, 0.1))
            .unwrap();
        assert!(net.links[0].fault.is_some());
        net.validate().unwrap();
    }

    #[test]
    fn queue_capacity_or_bdp_substitutes_for_infinite() {
        let finite = LinkSpec {
            rate_bps: 8e6,
            delay_s: 0.1,
            queue: QueueSpec::DropTail {
                capacity_bytes: Some(12345),
            },
            reverse: None,
            fault: None,
        };
        assert_eq!(finite.queue_capacity_or_bdp(5.0), 12345);
        let infinite = LinkSpec {
            rate_bps: 8e6,
            delay_s: 0.1,
            queue: QueueSpec::infinite(),
            reverse: None,
            fault: None,
        };
        // 8 Mbps * 100 ms = 100 kB BDP; 5 BDP = 500 kB.
        assert_eq!(infinite.queue_capacity_or_bdp(5.0), 500_000);
        // tiny links hit the 30 kB floor
        let tiny = LinkSpec {
            rate_bps: 1e5,
            delay_s: 0.01,
            queue: QueueSpec::infinite(),
            reverse: None,
            fault: None,
        };
        assert_eq!(tiny.queue_capacity_or_bdp(5.0), 30_000);
    }

    #[test]
    fn asymmetric_reverse_path_changes_ack_delay_not_one_way() {
        let sym = dumbbell(
            1,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        );
        assert_eq!(sym.reverse_rate(0), None);
        let mut asym = sym.clone();
        asym.links[0].reverse = Some(ReverseSpec::per_flow(0.2e6, 0.080));
        asym.validate().unwrap();
        assert_eq!(asym.min_one_way(0), SimDuration::from_millis(50));
        assert_eq!(asym.ack_delay(0), SimDuration::from_millis(80));
        assert_eq!(asym.min_rtt(0), SimDuration::from_millis(130));
        assert_eq!(asym.reverse_rate(0), Some(0.2e6));
    }

    #[test]
    fn reverse_slowdown_builder_preserves_rtt() {
        let net = dumbbell(
            2,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        )
        .with_reverse_slowdown(50.0);
        net.validate().unwrap();
        assert_eq!(net.min_rtt(0), SimDuration::from_millis(100));
        assert_eq!(net.reverse_rate(0), Some(0.2e6));
        // a multi-hop flow sees the slowest reverse hop
        let pl = parking_lot(
            10e6,
            100e6,
            0.075,
            QueueSpec::infinite(),
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        )
        .with_reverse_slowdown(10.0);
        assert_eq!(pl.reverse_rate(0), Some(1e6));
        assert_eq!(pl.min_rtt(0), SimDuration::from_millis(150));
    }

    #[test]
    fn validation_rejects_bad_reverse_specs() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        net.links[0].reverse = Some(ReverseSpec::per_flow(0.0, 0.05));
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("reverse path has non-positive rate"),
            "actionable message, got: {msg}"
        );
        net.links[0].reverse = Some(ReverseSpec::per_flow(1e6, f64::NAN));
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("invalid delay"), "got: {msg}");
    }

    #[test]
    fn validation_rejects_bad_aqm_specs() {
        let base = |q: QueueSpec| dumbbell(1, 1e6, 0.1, q, WorkloadSpec::AlwaysOn);
        let msg = base(QueueSpec::Red {
            capacity_bytes: 60_000,
            min_th: 20.0,
            max_th: 10.0,
            max_p: 0.1,
        })
        .validate()
        .unwrap_err();
        assert!(msg.contains("min_th < max_th"), "got: {msg}");
        let msg = base(QueueSpec::Red {
            capacity_bytes: 60_000,
            min_th: 5.0,
            max_th: 15.0,
            max_p: 1.5,
        })
        .validate()
        .unwrap_err();
        assert!(msg.contains("max_p"), "got: {msg}");
        let msg = base(QueueSpec::Codel {
            capacity_bytes: 60_000,
            target_ms: 0.0,
            interval_ms: 100.0,
        })
        .validate()
        .unwrap_err();
        assert!(msg.contains("positive target/interval"), "got: {msg}");
        let msg = base(QueueSpec::SfqCodel {
            capacity_bytes: 60_000,
            target_ms: 5.0,
            interval_ms: 100.0,
            bins: 0,
        })
        .validate()
        .unwrap_err();
        assert!(msg.contains("at least one bin"), "got: {msg}");
        let msg = base(QueueSpec::DropTail {
            capacity_bytes: Some(0),
        })
        .validate()
        .unwrap_err();
        assert!(msg.contains("zero capacity"), "got: {msg}");
        // valid AQM specs still pass
        base(QueueSpec::red_default(1e6, 0.1, 5.0))
            .validate()
            .unwrap();
        base(QueueSpec::codel_default(1e6, 0.1, 5.0))
            .validate()
            .unwrap();
    }

    #[test]
    fn validation_rejects_shared_reverse_without_rate() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        for bad_rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            net.links[0].reverse = Some(ReverseSpec {
                rate_bps: bad_rate,
                delay_s: 0.05,
                queue: QueueSpec::infinite(),
                shared: true,
            });
            let msg = net.validate().unwrap_err();
            assert!(
                msg.contains("shared reverse link") && msg.contains("drop `shared`"),
                "actionable shared-reverse message, got: {msg}"
            );
        }
        // a positive rate makes the same spec valid
        net.links[0].reverse = Some(ReverseSpec::shared(1e5, 0.05, QueueSpec::infinite()));
        net.validate().unwrap();
    }

    #[test]
    fn validation_checks_reverse_queue_specs() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        net.links[0].reverse = Some(ReverseSpec::shared(
            1e5,
            0.05,
            QueueSpec::Red {
                capacity_bytes: 60_000,
                min_th: 20.0,
                max_th: 10.0,
                max_p: 0.1,
            },
        ));
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("link 0 reverse") && msg.contains("min_th < max_th"),
            "reverse queue named in the message, got: {msg}"
        );
        net.links[0].reverse = Some(ReverseSpec::shared(
            1e5,
            0.05,
            QueueSpec::DropTail {
                capacity_bytes: Some(0),
            },
        ));
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("link 0 reverse"), "got: {msg}");
        // a well-formed AQM reverse queue passes
        net.links[0].reverse = Some(ReverseSpec::shared(
            1e5,
            0.05,
            QueueSpec::codel_default(1e5, 0.1, 5.0),
        ));
        net.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_churn() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        net.flows[0].workload = WorkloadSpec::Churn {
            arrival_rate_hz: 0.0,
            mean_duration_s: 1.0,
            unblocked: true,
        };
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("M/G/inf") && msg.contains("positive arrival rate"),
            "actionable churn message, got: {msg}"
        );
        net.flows[0].workload = WorkloadSpec::Churn {
            arrival_rate_hz: 1.0,
            mean_duration_s: f64::NAN,
            unblocked: false,
        };
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("blocked churn"), "got: {msg}");
        net.flows[0].workload = WorkloadSpec::churn_mginf(1.0, 1.0);
        net.validate().unwrap();
    }

    #[test]
    fn pre_shared_reverse_specs_still_parse() {
        // JSON from before the `queue`/`shared` fields existed: defaults
        // to a private per-flow channel with an infinite FIFO.
        let json = r#"{
            "links": [{"rate_bps": 1e7, "delay_s": 0.1,
                       "queue": {"DropTail": {"capacity_bytes": null}},
                       "reverse": {"rate_bps": 2e5, "delay_s": 0.05}}],
            "flows": [{"route": [0], "workload": "AlwaysOn"}]
        }"#;
        let net: NetworkConfig = serde_json::from_str(json).unwrap();
        assert_eq!(net.links[0].reverse, Some(ReverseSpec::per_flow(2e5, 0.05)));
        net.validate().unwrap();
        // and the full spec round-trips
        let mut shared = net.clone();
        shared.links[0].reverse = Some(ReverseSpec::shared(
            2e5,
            0.05,
            QueueSpec::codel_default(2e5, 0.1, 5.0),
        ));
        let back: NetworkConfig =
            serde_json::from_str(&serde_json::to_string(&shared).unwrap()).unwrap();
        assert_eq!(back, shared);
    }

    #[test]
    fn shared_reverse_builder_sizes_queues_per_link() {
        let net = parking_lot(
            10e6,
            40e6,
            0.075,
            QueueSpec::infinite(),
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        )
        .with_shared_reverse(8.0, |rate, _| QueueSpec::codel_default(rate, 0.150, 5.0));
        net.validate().unwrap();
        for (i, l) in net.links.iter().enumerate() {
            let r = l.reverse.as_ref().expect("reverse on every link");
            assert!(r.shared, "link {i} shared");
            assert_eq!(r.rate_bps, l.rate_bps / 8.0);
            assert!(matches!(r.queue, QueueSpec::Codel { .. }));
        }
        // min RTT unchanged: reverse delay mirrors forward
        assert_eq!(net.min_rtt(0), SimDuration::from_millis(150));
    }

    #[test]
    fn validation_rejects_degenerate_faults() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        net.links[0].fault = Some(FaultSpec::GilbertElliott {
            loss_good: 0.0,
            loss_bad: 1.5,
            good_to_bad: 0.1,
            bad_to_good: 0.1,
        });
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("loss_bad") && msg.contains("[0, 1]"),
            "got: {msg}"
        );
        net.links[0].fault = Some(FaultSpec::GilbertElliott {
            loss_good: f64::NAN,
            loss_bad: 0.5,
            good_to_bad: 0.1,
            bad_to_good: 0.1,
        });
        assert!(net.validate().is_err(), "NaN probability must be rejected");
        // Absorbing bad state: once entered, never left.
        net.links[0].fault = Some(FaultSpec::gilbert_elliott(0.5, 0.01, 0.0));
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("absorbing") && msg.contains("bad_to_good"),
            "actionable absorbing-state message, got: {msg}"
        );
        net.links[0].fault = Some(FaultSpec::outage_scheduled(0.0, 1.0, true));
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("positive up dwell"), "got: {msg}");
        net.links[0].fault = Some(FaultSpec::outage_markov(1.0, f64::INFINITY, false));
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("positive down dwell"), "got: {msg}");
        net.links[0].fault = Some(FaultSpec::corruption(-0.1));
        let msg = net.validate().unwrap_err();
        assert!(msg.contains("corruption probability"), "got: {msg}");
        // well-formed specs of every mode pass
        for good in [
            FaultSpec::gilbert_elliott(0.3, 0.01, 0.1),
            FaultSpec::outage_scheduled(5.0, 0.5, true),
            FaultSpec::outage_markov(5.0, 0.5, false),
            FaultSpec::corruption(0.01),
        ] {
            net.links[0].fault = Some(good);
            net.validate().unwrap();
        }
    }

    #[test]
    fn pre_fault_configs_still_parse_and_faults_round_trip() {
        // JSON from before the `fault` field existed (no such key).
        let json = r#"{
            "links": [{"rate_bps": 1e7, "delay_s": 0.1,
                       "queue": {"DropTail": {"capacity_bytes": null}}}],
            "flows": [{"route": [0], "workload": "AlwaysOn"}]
        }"#;
        let net: NetworkConfig = serde_json::from_str(json).unwrap();
        assert_eq!(net.links[0].fault, None);
        net.validate().unwrap();
        // Outage serde defaults: scheduled/drop_while_down omitted -> false.
        let json = r#"{
            "links": [{"rate_bps": 1e7, "delay_s": 0.1,
                       "queue": {"DropTail": {"capacity_bytes": null}},
                       "fault": {"Outage": {"up_s": 5.0, "down_s": 0.5}}}],
            "flows": [{"route": [0], "workload": "AlwaysOn"}]
        }"#;
        let net: NetworkConfig = serde_json::from_str(json).unwrap();
        assert_eq!(
            net.links[0].fault,
            Some(FaultSpec::outage_markov(5.0, 0.5, false))
        );
        // and every fault mode round-trips
        for fault in [
            FaultSpec::gilbert_elliott(0.3, 0.01, 0.1),
            FaultSpec::outage_scheduled(5.0, 0.5, true),
            FaultSpec::corruption(0.01),
        ] {
            let mut net = net.clone();
            net.links[0].fault = Some(fault);
            let back: NetworkConfig =
                serde_json::from_str(&serde_json::to_string(&net).unwrap()).unwrap();
            assert_eq!(back, net);
        }
    }

    #[test]
    fn validation_rejects_degenerate_receiver_specs() {
        let base = || dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        let mut net = base();
        net.flows[0].receiver = Some(ReceiverSpec {
            ack_every: 0,
            flush_timer_s: None,
            rwnd_packets: None,
        });
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("ack_every") && msg.contains("got 0"),
            "actionable ack-every message, got: {msg}"
        );
        for bad_timer in [0.0, -0.2, f64::NAN, f64::INFINITY] {
            let mut net = base();
            net.flows[0].receiver = Some(ReceiverSpec {
                ack_every: 2,
                flush_timer_s: Some(bad_timer),
                rwnd_packets: None,
            });
            let msg = net.validate().unwrap_err();
            assert!(
                msg.contains("flush timer"),
                "flush timer {bad_timer} must be rejected: {msg}"
            );
        }
        let mut net = base();
        net.flows[0].receiver = Some(ReceiverSpec::immediate().with_rwnd(0));
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("zero receive window"),
            "actionable rwnd message, got: {msg}"
        );
        // well-formed specs pass
        let mut net = base();
        net.flows[0].receiver = Some(ReceiverSpec::delayed(4, 0.2).with_rwnd(64));
        net.validate().unwrap();
    }

    #[test]
    fn validation_rejects_reverse_data_without_reverse_links() {
        let mut net = dumbbell(1, 1e6, 0.1, QueueSpec::infinite(), WorkloadSpec::AlwaysOn);
        net.flows[0].reverse_data = true;
        let msg = net.validate().unwrap_err();
        assert!(
            msg.contains("reverse_data") && msg.contains("link 0"),
            "actionable reverse-data message, got: {msg}"
        );
        net.links[0].reverse = Some(ReverseSpec::shared(2e5, 0.05, QueueSpec::infinite()));
        net.validate().unwrap();
    }

    #[test]
    fn pre_receiver_configs_still_parse() {
        // JSON from before the `receiver`/`reverse_data` fields existed.
        let json = r#"{
            "links": [{"rate_bps": 1e7, "delay_s": 0.1,
                       "queue": {"DropTail": {"capacity_bytes": null}}}],
            "flows": [{"route": [0], "workload": "AlwaysOn"}]
        }"#;
        let net: NetworkConfig = serde_json::from_str(json).unwrap();
        assert_eq!(net.flows[0].receiver, None);
        assert!(!net.flows[0].reverse_data);
        net.validate().unwrap();
        // Partial ReceiverSpec JSON: omitted fields take their defaults.
        let json = r#"{
            "links": [{"rate_bps": 1e7, "delay_s": 0.1,
                       "queue": {"DropTail": {"capacity_bytes": null}}}],
            "flows": [{"route": [0], "workload": "AlwaysOn",
                       "receiver": {"ack_every": 2}}]
        }"#;
        let net: NetworkConfig = serde_json::from_str(json).unwrap();
        assert_eq!(
            net.flows[0].receiver,
            Some(ReceiverSpec {
                ack_every: 2,
                flush_timer_s: None,
                rwnd_packets: None,
            })
        );
        // and the full spec round-trips
        let mut full = net.clone();
        full.flows[0].receiver = Some(ReceiverSpec::delayed(4, 0.04).with_rwnd(32));
        let back: NetworkConfig =
            serde_json::from_str(&serde_json::to_string(&full).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn with_receiver_covers_every_flow() {
        let net = dumbbell(
            3,
            10e6,
            0.100,
            QueueSpec::infinite(),
            WorkloadSpec::AlwaysOn,
        )
        .with_receiver(ReceiverSpec::delayed(2, 0.2));
        net.validate().unwrap();
        for f in &net.flows {
            assert_eq!(f.receiver, Some(ReceiverSpec::delayed(2, 0.2)));
        }
        assert!(
            ReceiverSpec::default().is_immediate(),
            "default spec selects the fast path"
        );
        assert!(!ReceiverSpec::delayed(2, 0.2).is_immediate());
        assert!(!ReceiverSpec::immediate().with_rwnd(8).is_immediate());
    }

    #[test]
    fn pre_reverse_configs_still_parse() {
        // JSON from before the `reverse` field existed (no such key).
        let json = r#"{
            "links": [{"rate_bps": 1e7, "delay_s": 0.1,
                       "queue": {"DropTail": {"capacity_bytes": null}}}],
            "flows": [{"route": [0], "workload": "AlwaysOn"}]
        }"#;
        let net: NetworkConfig = serde_json::from_str(json).unwrap();
        assert_eq!(net.links[0].reverse, None);
        net.validate().unwrap();
    }

    #[test]
    fn config_serializes() {
        let net = dumbbell(
            2,
            15e6,
            0.150,
            QueueSpec::drop_tail_bdp(15e6, 0.150, 5.0),
            WorkloadSpec::on_off_1s(),
        );
        let json = serde_json::to_string(&net).unwrap();
        let back: NetworkConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
    }
}
