//! `path_zoo`: the same link, queue, transport and receiver layers as the
//! other workloads, used *differently* — seed-generated small dumbbells
//! crossing every queue discipline, reverse-path tier, fault process,
//! receiver policy and offered-load process the simulator has.
//!
//! AQM dequeue paths, all three reverse tiers, fault RNGs, delayed-ACK
//! timers and RTO ladders run here and nowhere else in the benchmark. A
//! fast path for the paper's drop-tail / arithmetic-reverse tier (or the
//! one-link-model refactor of ROADMAP item 4) must show here that it did
//! not tax the other tiers. PCC is left out: its cost per cell varied
//! fivefold across seeds, which would drown every other signal.
//!
//! The sampler is a Latin hypercube: every axis is cut into as many
//! strata as there are configs, and one fixed permutation per axis says
//! which config takes which stratum. The seed draws each value inside
//! its stratum and seeds the simulations (every config has simulation
//! seeds of its own). Cost and memory per cell are heavy-tailed in the
//! *combination* of levels — eight cubic senders on a fast, long,
//! deeply buffered path hold megabytes of in-flight state — and peak
//! memory is a maximum over cells: when the seed also chose the
//! combinations, a pass's peak resident set moved between 9 and 16 MB
//! from seed to seed. With the combinations fixed, different seeds still
//! give different paths and different traffic, and the same work within
//! ±2 %. Each cell simulates the time its bottleneck needs for a fixed
//! number of packets, so no path type outweighs another.

use crate::trace::Tracer;
use crate::workload::{
    check_run, load_asset, require_assets, run_fingerprint, Scale, Verdict, Workload,
};
use lcc_core::runner::{execute_sweep, PointOutcome, Scheme, SweepPoint};
use netsim::prelude::*;

/// The Tao every `tao` cell runs: the one trained across link speeds,
/// delays and sender counts. The calibration Tao floods paths this far
/// outside its training range: its cells made 60 % of a pass's events,
/// and a rare one blew up to twenty events per transmission and 8 MB,
/// which moved the pass's peak resident set from 10 to 19 MB between
/// seeds — wider than any bound a metric may have.
pub const TAO_ASSET: &str = "tao-universal";

// Sizing constants, frozen once recorded (see README).
const CONFIGS: usize = 256;
/// Bottleneck packet times each cell simulates.
const PACKETS_PER_CELL: f64 = 30_000.0;
const SEEDS_PER_POINT: u64 = 2;
/// Sweep points the output check runs a second time.
const REPLAYED_POINTS: usize = 4;

const TINY_CONFIGS: usize = 8;
const TINY_PACKETS_PER_CELL: f64 = 1_500.0;

const SCHEMES: [&str; 4] = ["tao", "cubic", "newreno", "vegas"];

/// Reverse (ACK-path) rate as a fraction of the forward rate where a
/// config has a real reverse link: slow enough that ACKs queue.
const REVERSE_SLOWDOWN: f64 = 20.0;
const FLUSH_TIMER_S: f64 = 0.040;

/// One generated path and how long to simulate it.
#[derive(Clone, Debug, PartialEq)]
pub struct PathConfig {
    pub net: NetworkConfig,
    pub sim_seconds: f64,
}

/// Seeds the permutations that say which config takes which stratum of
/// each axis (see the module docs for why `--seed` does not).
const PAIRING_SEED: u64 = 0x2014_51C0;

/// Draw `n` configs from `seed`: the same seed gives the same configs.
pub fn sample_configs(seed: u64, n: usize, packets_per_cell: f64) -> Vec<PathConfig> {
    let mut pairing = SimRng::from_seed(PAIRING_SEED);
    let mut rng = SimRng::from_seed(seed);
    // Per axis: a fixed permutation of the strata, a seeded draw inside
    // each stratum.
    let mut axis = |salt: u64| -> Vec<f64> {
        let (mut order, mut within) = (pairing.fork(salt), rng.fork(salt));
        let mut strata: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            strata.swap(i, order.uniform_u32(0, i as u32) as usize);
        }
        strata
            .into_iter()
            .map(|s| (s as f64 + within.uniform(0.0, 1.0)) / n as f64)
            .collect()
    };
    let senders = axis(1);
    let rate = axis(2);
    let rtt = axis(3);
    let buffer = axis(4);
    let queue = axis(5);
    let reverse = axis(6);
    let fault = axis(7);
    let receiver = axis(8);
    let load = axis(9);
    let level = |u: f64| (u * 4.0) as usize;

    (0..n)
        .map(|i| {
            let n_senders = 2 + (senders[i] * 7.0) as usize;
            let rate_bps = 4e6 * 16f64.powf(rate[i]);
            let rtt_s = 0.040 * 7.5f64.powf(rtt[i]);
            let bdp = 0.5 * 16f64.powf(buffer[i]);
            let queue_spec = match level(queue[i]) {
                0 => QueueSpec::drop_tail_bdp(rate_bps, rtt_s, bdp),
                1 => QueueSpec::red_default(rate_bps, rtt_s, bdp),
                2 => QueueSpec::codel_default(rate_bps, rtt_s, bdp),
                _ => QueueSpec::sfq_codel_default(rate_bps, rtt_s, bdp),
            };
            let workload = match level(load[i]) {
                0 => WorkloadSpec::on_off_1s(),
                1 => WorkloadSpec::AlwaysOn,
                2 => WorkloadSpec::churn(0.5, 1.0),
                _ => WorkloadSpec::churn_mginf(0.5, 1.0),
            };
            let mut net = dumbbell(n_senders, rate_bps, rtt_s, queue_spec, workload);
            net = match level(reverse[i]) {
                0 => net,
                1 => net.with_reverse_slowdown(REVERSE_SLOWDOWN),
                2 => net.with_shared_reverse(REVERSE_SLOWDOWN, |r, _| {
                    QueueSpec::drop_tail_bdp(r, rtt_s, 5.0)
                }),
                _ => net.with_shared_reverse(REVERSE_SLOWDOWN, |r, _| {
                    QueueSpec::codel_default(r, rtt_s, 5.0)
                }),
            };
            net.links[0].fault = match level(fault[i]) {
                0 => None,
                1 => Some(FaultSpec::gilbert_elliott(0.25, 0.005, 0.1)),
                2 => Some(FaultSpec::outage_scheduled(3.0, 0.5, true)),
                _ => Some(FaultSpec::corruption(0.01)),
            };
            let ack_every = [1, 2, 4, 16][level(receiver[i])];
            if ack_every > 1 {
                net = net.with_receiver(ReceiverSpec::delayed(ack_every, FLUSH_TIMER_S));
            }
            net.validate().expect("the sampler draws valid networks");
            PathConfig {
                net,
                sim_seconds: packets_per_cell * f64::from(DATA_PACKET_BYTES) * 8.0 / rate_bps,
            }
        })
        .collect()
}

pub struct PathZoo {
    seed: u64,
    configs: usize,
    packets_per_cell: f64,
    replayed: usize,
}

impl PathZoo {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (configs, packets_per_cell, replayed) = match scale {
            Scale::Full => (CONFIGS, PACKETS_PER_CELL, REPLAYED_POINTS),
            Scale::Tiny => (TINY_CONFIGS, TINY_PACKETS_PER_CELL, 1),
        };
        PathZoo {
            seed,
            configs,
            packets_per_cell,
            replayed,
        }
    }

    pub fn configs(&self) -> Vec<PathConfig> {
        sample_configs(self.seed, self.configs, self.packets_per_cell)
    }

    /// Every config under every scheme, as sweep points.
    pub fn points(&self) -> Vec<SweepPoint> {
        let tao = Scheme::tao(load_asset(TAO_ASSET).tree, "tao");
        let mut points = Vec::with_capacity(self.configs * SCHEMES.len());
        for (i, cfg) in self.configs().into_iter().enumerate() {
            // Every config gets simulation seeds of its own: with shared
            // ones the on/off processes of all configs would rise and
            // fall together and a pass would inherit their luck.
            let first_seed = self.seed.wrapping_mul(1_000_000) + i as u64 * SEEDS_PER_POINT;
            for label in SCHEMES {
                let scheme = match label {
                    "tao" => tao.clone(),
                    "cubic" => Scheme::Cubic,
                    "newreno" => Scheme::NewReno,
                    _ => Scheme::Vegas,
                };
                points.push(SweepPoint::homogeneous(
                    format!("zoo{i}|{label}"),
                    i as f64,
                    cfg.net.clone(),
                    scheme,
                    first_seed..first_seed + SEEDS_PER_POINT,
                    cfg.sim_seconds,
                ));
            }
        }
        points
    }
}

impl Workload for PathZoo {
    type Prepared = Vec<SweepPoint>;
    type Output = Vec<PointOutcome>;

    fn name(&self) -> &'static str {
        "path_zoo"
    }

    fn preflight(&self) -> Result<(), String> {
        require_assets([TAO_ASSET])
    }

    fn prepare(&self, _: &mut Tracer) -> Vec<SweepPoint> {
        self.points()
    }

    fn execute(&self, points: Vec<SweepPoint>, t: &mut Tracer) -> Vec<PointOutcome> {
        if !t.enabled() {
            return execute_sweep(points, 1);
        }
        // Traced: one call per point, so the span durations are the cell
        // times whose tail will set wall time once sweeps are threaded.
        let mut outcomes = Vec::with_capacity(points.len());
        for point in points {
            outcomes.extend(t.span("core.runner.execute", |_| execute_sweep(vec![point], 1)));
        }
        outcomes
    }

    /// One operation per simulation cell (point × seed).
    fn check(&self, outcomes: &Vec<PointOutcome>) -> Verdict {
        let mut v = Verdict::default();
        let stride = (outcomes.len() / self.replayed.max(1)).max(1);
        for (i, p) in outcomes.iter().enumerate() {
            v.attempted += p.point.seeds.end - p.point.seeds.start;
            for (seed, msg) in &p.poisoned {
                v.failures
                    .push(format!("{} seed {seed}: poisoned: {msg}", p.key()));
            }
            let rates: Vec<f64> = p.point.net.links.iter().map(|l| l.rate_bps).collect();
            for run in &p.runs {
                v.counts.add_run(run);
                v.failures.extend(check_run(p.key(), run, &rates).err());
            }
            let replay = (i + self.seed as usize) % stride == 0;
            if replay && p.poisoned.is_empty() {
                let again = execute_sweep(vec![p.point.clone()], 1).remove(0);
                let prints =
                    |o: &PointOutcome| o.runs.iter().map(run_fingerprint).collect::<Vec<_>>();
                if prints(&again) != prints(p) {
                    v.failures
                        .push(format!("{}: a same-seed rerun differs", p.key()));
                }
            }
        }
        v
    }
}
