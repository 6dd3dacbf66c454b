//! Perf snapshot: measures the two numbers every optimization PR cares
//! about and writes them to `BENCH_optimizer.json` so the repo keeps a
//! perf trajectory across PRs.
//!
//! * `smoke_train_wall_s` — wall time of one `OptimizerConfig::smoke()`
//!   training run on the calibration scenario (the Remy inner loop).
//! * `genetic_smoke_train_secs` — wall time of one smoke-budget
//!   `GeneticTrainer` run on the same scenario (the population-search
//!   trainer's inner loop: per-generation batch evaluation plus
//!   genome mutation).
//! * `sim_events_per_sec` — event throughput of a fixed 4-sender dumbbell
//!   simulation (the netsim hot path), single-threaded, on the default
//!   scheduler backend (the bucketed calendar queue). The same dumbbell
//!   is also timed on the `BinaryHeap` reference backend and reported as
//!   `sim_events_per_sec_heap`, keeping the backend gap visible in the
//!   perf trajectory.
//! * `sim_events_per_sec_dense` — the same measurement on a 64-sender
//!   fat-pipe dumbbell holding several thousand standing packet events.
//!   Those wait on the event queue's delay lines, so this is the number
//!   the lines' merge is accountable to.
//! * `sim_events_per_sec_receiver_policy` — the dense dumbbell again, but
//!   with every flow behind a delayed-ACK receiver (`ack_every = 4` plus
//!   a flush timer), so the receiver state machines and the `AckTimer`
//!   arm/cancel path are on the measured hot path.
//! * `sim_events_per_sec_10k` (+ `_10k_heap`) — the `many_flows`
//!   experiment's incast cell: 10⁴ M/G/∞ churn slots into a 400 Mbps /
//!   4 ms bottleneck. This is the Internet-scale regime the packet arena
//!   and the per-flow state are accountable to, and — with some 2×10⁴
//!   RTO and workload timers standing in the backend — the one that
//!   compares the calendar queue with the heap on a large timer
//!   population (recorded, not gated: see `perf_gate`).
//! * `sim_allocs_per_event_dense` / `sim_allocs_per_event_10k` — heap
//!   allocations per processed event during the corresponding runs,
//!   counted by a wrapping global allocator. The hot path is designed to
//!   be allocation-free at steady state (the event arena recycles slots,
//!   per-flow rings and the calendar's slab keep what they grew to), so the
//!   only allocations left are growth to peak population — amortized to
//!   ~0 per event. A creeping per-event allocation shows up here long
//!   before it shows up in events/sec on a fast machine.
//! * `sim_peak_heap_mb_10k` — the most heap the 10⁴-flow cell held at
//!   once, from building the simulation to the end of its run, as the
//!   same allocator counts it (MB = 10⁶ bytes). Per-flow state and the
//!   calendar's slab grow with what is live, not with the path's
//!   bandwidth-delay product or a day's worth of pops, and a flow slot
//!   carries no idle padding; a structure that starts reserving ahead
//!   again shows up here.
//!
//! ```sh
//! cargo run --release -p bench --bin perf_snapshot            # print only
//! cargo run --release -p bench --bin perf_snapshot -- --write # update BENCH_optimizer.json
//! ```

use lcc_core::runner::{build_protocols, Scheme};
use netsim::prelude::*;
use protocols::{Action, WhiskerTree};
use remy::{GeneticTrainer, Optimizer, OptimizerConfig, ScenarioSpec};
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Global allocator wrapper that counts every heap allocation and the
/// bytes live on the heap, with their high-water mark (a few relaxed
/// atomics per call — unmeasurable against a real malloc). Snapshotting
/// the counters around a simulation yields the allocations-per-event and
/// peak-heap metrics; both are exact while one thread allocates.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: defers every operation to `System`; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => shrink(layout.size() - new_size),
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the bytes live now; returns them.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Repetitions of the smoke training run (median reported).
const TRAIN_REPS: usize = 3;

fn time_smoke_training() -> f64 {
    let mut samples = Vec::with_capacity(TRAIN_REPS);
    for _ in 0..TRAIN_REPS {
        let mut cfg = OptimizerConfig::smoke();
        cfg.seed = 7;
        let opt = Optimizer::new(vec![ScenarioSpec::calibration()], cfg);
        let start = Instant::now();
        let trained = opt.optimize("perf-snapshot");
        let dt = start.elapsed().as_secs_f64();
        assert!(trained.score.is_finite(), "training degenerated");
        samples.push(dt);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn time_genetic_smoke_training() -> f64 {
    let mut samples = Vec::with_capacity(TRAIN_REPS);
    for _ in 0..TRAIN_REPS {
        let mut cfg = OptimizerConfig::smoke();
        cfg.seed = 7;
        let trainer = GeneticTrainer::new(cfg);
        let specs = vec![ScenarioSpec::calibration()];
        let start = Instant::now();
        let trained = trainer.train("perf-snapshot-genetic", &specs);
        let dt = start.elapsed().as_secs_f64();
        assert!(trained.score.is_finite(), "genetic training degenerated");
        samples.push(dt);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn sim_events_per_sec(scheduler: SchedulerKind) -> f64 {
    // Fixed dumbbell: 4 Tao senders with a mildly aggressive uniform
    // action on a 40 Mbps / 100 ms RTT bottleneck — enough load to keep
    // the queue busy and the ack clock dense.
    let net = dumbbell(
        4,
        40e6,
        0.100,
        QueueSpec::drop_tail_bdp(40e6, 0.100, 5.0),
        WorkloadSpec::AlwaysOn,
    );
    let tao = Scheme::tao(WhiskerTree::uniform(Action::new(1.0, 1.0, 0.2)), "tao");
    let protocols = build_protocols(&vec![tao; 4]);
    let mut sim = Simulation::with_scheduler(&net, protocols, 42, scheduler);
    let start = Instant::now();
    let out = sim.run(SimDuration::from_secs(30));
    let dt = start.elapsed().as_secs_f64();
    out.events_processed as f64 / dt
}

/// Fixed-window protocol for the dense-population scenario (window-
/// clocked, no pacing: every in-flight packet keeps events pending).
struct FixedWindow(f64);

impl netsim::transport::CongestionControl for FixedWindow {
    fn reset(&mut self, _: SimTime) {}
    fn on_ack(&mut self, _: SimTime, _: &Ack, _: &netsim::transport::AckInfo) {}
    fn on_loss(&mut self, _: SimTime) {}
    fn on_timeout(&mut self, _: SimTime) {}
    fn window(&self) -> f64 {
        self.0
    }
    fn intersend(&self) -> SimDuration {
        SimDuration::ZERO
    }
    fn name(&self) -> String {
        "fixed".into()
    }
}

/// The dense 64-sender fat-pipe dumbbell; `receiver` optionally puts
/// every flow behind an endpoint policy.
fn dense_net(receiver: Option<ReceiverSpec>) -> NetworkConfig {
    // 64 windows of 256 packets over a 400 Mbps / 200 ms pipe: thousands
    // of propagation and ack events stand in the queue's delay lines at
    // all times.
    let net = dumbbell(
        64,
        400e6,
        0.200,
        QueueSpec::infinite(),
        WorkloadSpec::AlwaysOn,
    );
    match receiver {
        Some(spec) => net.with_receiver(spec),
        None => net,
    }
}

/// What [`run_counted`] measured.
struct Counted {
    events_per_sec: f64,
    /// Allocations made *during* the run per event — construction-time
    /// allocation (transports, queues, scheduler) is deliberately
    /// excluded so the metric isolates the hot path.
    allocs_per_event: f64,
    /// The most heap the simulation held at once, construction included,
    /// MB.
    peak_heap_mb: f64,
}

/// Builds a simulation of `net` and runs it to completion.
fn run_counted(
    net: &NetworkConfig,
    protocols: Vec<Box<dyn netsim::transport::CongestionControl>>,
    scheduler: SchedulerKind,
    secs: u64,
) -> Counted {
    let heap_before = reset_peak();
    let mut sim = Simulation::with_scheduler(net, protocols, 42, scheduler);
    let allocs_before = allocs_now();
    let start = Instant::now();
    let out = sim.run(SimDuration::from_secs(secs));
    let dt = start.elapsed().as_secs_f64();
    let allocs = (allocs_now() - allocs_before) as f64;
    let peak = PEAK_BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(heap_before);
    Counted {
        events_per_sec: out.events_processed as f64 / dt,
        allocs_per_event: allocs / out.events_processed as f64,
        peak_heap_mb: peak as f64 / 1e6,
    }
}

fn run_dense(net: &NetworkConfig, scheduler: SchedulerKind) -> Counted {
    let protocols: Vec<Box<dyn netsim::transport::CongestionControl>> = (0..64)
        .map(|_| Box::new(FixedWindow(256.0)) as Box<dyn netsim::transport::CongestionControl>)
        .collect();
    run_counted(net, protocols, scheduler, 10)
}

fn sim_events_per_sec_dense(scheduler: SchedulerKind) -> Counted {
    run_dense(&dense_net(None), scheduler)
}

/// The Internet-scale cell: the `many_flows` experiment's 10⁴-slot
/// incast under Cubic (the cheapest real scheme — the measurement is of
/// the engine, not the controller).
fn sim_events_per_sec_10k(scheduler: SchedulerKind) -> Counted {
    let net = lcc_core::experiments::many_flows::incast(10_000);
    let protocols: Vec<Box<dyn netsim::transport::CongestionControl>> = (0..10_000)
        .map(|_| Box::new(protocols::Cubic::new()) as Box<dyn netsim::transport::CongestionControl>)
        .collect();
    run_counted(&net, protocols, scheduler, 10)
}

fn sim_events_per_sec_receiver_policy(scheduler: SchedulerKind) -> f64 {
    // Same dense scenario, every receiver coalescing 4:1 with a 40 ms
    // flush timer: the ack-every-k bookkeeping and the AckTimer
    // arm/fire/cancel chain run on every delivery.
    run_dense(&dense_net(Some(ReceiverSpec::delayed(4, 0.040))), scheduler).events_per_sec
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = args.iter().any(|a| a == "--write");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_optimizer.json")
        .to_string();

    eprintln!("[perf] timing smoke training ({TRAIN_REPS} reps)...");
    let train_s = time_smoke_training();
    eprintln!("[perf] smoke training: {train_s:.3} s");

    eprintln!("[perf] timing genetic smoke training ({TRAIN_REPS} reps)...");
    let genetic_train_s = time_genetic_smoke_training();
    eprintln!("[perf] genetic smoke training: {genetic_train_s:.3} s");

    eprintln!("[perf] timing dumbbell simulation (calendar backend)...");
    let eps = sim_events_per_sec(SchedulerKind::Calendar);
    eprintln!("[perf] simulator/calendar: {eps:.0} events/s");

    eprintln!("[perf] timing dumbbell simulation (heap backend)...");
    let eps_heap = sim_events_per_sec(SchedulerKind::Heap);
    eprintln!("[perf] simulator/heap: {eps_heap:.0} events/s");

    eprintln!("[perf] timing dense-population dumbbell (calendar backend)...");
    let dense = sim_events_per_sec_dense(SchedulerKind::Calendar);
    eprintln!(
        "[perf] simulator-dense/calendar: {:.0} events/s, {:.5} allocs/event",
        dense.events_per_sec, dense.allocs_per_event
    );

    eprintln!("[perf] timing dense dumbbell with delayed-ACK receivers...");
    let eps_receiver = sim_events_per_sec_receiver_policy(SchedulerKind::Calendar);
    eprintln!("[perf] simulator-receiver-policy: {eps_receiver:.0} events/s");

    eprintln!("[perf] timing 10k-flow incast (many_flows cell, calendar backend)...");
    let flows_10k = sim_events_per_sec_10k(SchedulerKind::Calendar);
    eprintln!(
        "[perf] simulator-10k/calendar: {:.0} events/s, {:.5} allocs/event, \
         peak heap {:.1} MB",
        flows_10k.events_per_sec, flows_10k.allocs_per_event, flows_10k.peak_heap_mb
    );

    eprintln!("[perf] timing 10k-flow incast (heap backend)...");
    let eps_10k_heap = sim_events_per_sec_10k(SchedulerKind::Heap).events_per_sec;
    eprintln!("[perf] simulator-10k/heap: {eps_10k_heap:.0} events/s");

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Preserve a recorded baseline (pre-refactor numbers) if one exists.
    let baseline = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
        .and_then(|v| v.get("baseline").cloned());

    let mut obj = vec![
        ("smoke_train_wall_s".to_string(), Value::F64(train_s)),
        (
            "genetic_smoke_train_secs".to_string(),
            Value::F64(genetic_train_s),
        ),
        ("sim_events_per_sec".to_string(), Value::F64(eps)),
        ("sim_events_per_sec_heap".to_string(), Value::F64(eps_heap)),
        (
            "sim_events_per_sec_dense".to_string(),
            Value::F64(dense.events_per_sec),
        ),
        (
            "sim_events_per_sec_receiver_policy".to_string(),
            Value::F64(eps_receiver),
        ),
        (
            "sim_events_per_sec_10k".to_string(),
            Value::F64(flows_10k.events_per_sec),
        ),
        (
            "sim_events_per_sec_10k_heap".to_string(),
            Value::F64(eps_10k_heap),
        ),
        (
            "sim_allocs_per_event_dense".to_string(),
            Value::F64(dense.allocs_per_event),
        ),
        (
            "sim_allocs_per_event_10k".to_string(),
            Value::F64(flows_10k.allocs_per_event),
        ),
        (
            "sim_peak_heap_mb_10k".to_string(),
            Value::F64(flows_10k.peak_heap_mb),
        ),
        ("scheduler".to_string(), Value::Str("calendar".to_string())),
        ("threads".to_string(), Value::U64(threads as u64)),
        (
            "bench".to_string(),
            Value::Str(
                "perf_snapshot: OptimizerConfig::smoke() on calibration (tree and genetic \
                 trainers); 4-Tao dumbbell 30 s \
                 (sim_events_per_sec = default calendar scheduler, _heap = BinaryHeap \
                 reference); _dense = 64x256-window fat-pipe dumbbell 10 s (standing \
                 event population in the thousands); _receiver_policy = the dense \
                 dumbbell with ack-every-4 delayed-ACK receivers (40 ms flush timer); \
                 _10k = the many_flows incast cell (10^4 M/G/inf churn slots, Cubic) \
                 10 s, _10k_heap the same on the BinaryHeap reference; \
                 sim_allocs_per_event_* = heap allocations per processed event \
                 during the run (counting global allocator, construction excluded); \
                 sim_peak_heap_mb_10k = the most heap (10^6 bytes) the _10k cell held \
                 at once, construction included. \
                 Every per-event number divides by events dispatched: since the event \
                 diet (same-instant lane, one armed RtoCheck per flow, no duplicate \
                 pacing wakes) the same simulated traffic dispatches 14-29 % fewer \
                 events, so events/s and allocs/event are not comparable with \
                 snapshots taken before it (wall time and total allocations fell). \
                 Since the delay lines the scheduler backend holds only timers, so \
                 the _heap numbers compare the backends on timers alone. Since loss \
                 detection stopped allocating and large calendars size their days to \
                 the dequeue rate, the _10k cell allocates less for the same traffic \
                 (0.143 -> 0.089 allocs/event, peak heap 81 -> 25 MB on a shared 2-vCPU box). \
                 Since the calendar keeps its timers in one slab (40 bytes a pending \
                 entry, 4 a bucket, instead of two Vecs per bucket sized for the most a \
                 day ever held) and flow slots lost their idle padding (sender slot 512 \
                 -> 368 bytes, receiver slot 160 -> 56), the _10k cell's peak heap fell \
                 again (25 -> 10 MB)"
                    .to_string(),
            ),
        ),
    ];
    if let Some(b) = baseline {
        obj.push(("baseline".to_string(), b));
    }
    let doc = Value::Object(obj);
    let json = serde_json::to_string_pretty(&doc).expect("snapshot serializes");
    println!("{json}");
    if write {
        std::fs::write(&out_path, json + "\n").expect("write BENCH_optimizer.json");
        eprintln!("[perf] wrote {out_path}");
    }
}
