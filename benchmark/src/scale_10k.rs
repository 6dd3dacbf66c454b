//! `scale_10k`: the dense regime — 10⁴ M/G/∞ churn slots per cell.
//!
//! Thousands of standing events, 10⁴ transports, the packet arena and the
//! calendar queue's bucket scans: `netsim` does nearly all the work here,
//! `core` and `remy` none. It is the only workload where memory and
//! per-flow set-up matter. PCC is left out on purpose: at a 4 ms RTT it
//! runs away to the event budget (ROADMAP item 3a), and a cell that is
//! measured by failing is a correctness bug, not traffic.

use crate::sys::{allocs_now, live_bytes_now};
use crate::trace::Tracer;
use crate::workload::{
    check_run, load_asset, require_assets, run_fingerprint, Scale, Verdict, Workload,
};
use lcc_core::runner::{build_protocols, Scheme, TEST_EVENT_BUDGET};
use netsim::prelude::*;

/// The Tao every `tao` cell runs: the widest-multiplexing committed asset.
pub const TAO_ASSET: &str = "tao-mux-100";

/// Per-slot Poisson arrival rate and mean transfer time: duty ≈ 0.63, so
/// a 10⁴-slot cell keeps ~6.3k transfers active.
const ARRIVAL_HZ: f64 = 0.5;
const MEAN_TRANSFER_S: f64 = 2.0;

// Sizing constants, frozen once recorded (see README).
const SLOTS: usize = 10_000;
const SIM_SECONDS: f64 = 30.0;

const TINY_SLOTS: usize = 200;
const TINY_SIM_SECONDS: f64 = 2.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// 400 Mbps / 4 ms / 1-BDP drop-tail dumbbell.
    Incast,
    /// Two 100 Mbps hops of 40 ms each; even slots cross both.
    ParkingLot,
}

/// One simulation of the workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub topology: Topology,
    pub scheme: &'static str,
    pub seed: u64,
    pub slots: usize,
    pub sim_seconds: f64,
    pub event_budget: u64,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{:?}|{}|seed {}", self.topology, self.scheme, self.seed)
    }

    pub fn net(&self) -> NetworkConfig {
        let churn = WorkloadSpec::churn_mginf(ARRIVAL_HZ, MEAN_TRANSFER_S);
        match self.topology {
            Topology::Incast => dumbbell(
                self.slots,
                400e6,
                0.004,
                QueueSpec::drop_tail_bdp(400e6, 0.004, 1.0),
                churn,
            ),
            Topology::ParkingLot => {
                let hop =
                    LinkSpec::symmetric(100e6, 0.040, QueueSpec::drop_tail_bdp(100e6, 0.080, 1.0));
                NetworkConfig {
                    links: vec![hop.clone(), hop],
                    flows: (0..self.slots)
                        .map(|i| FlowSpec {
                            route: match i % 4 {
                                0 | 2 => vec![0, 1],
                                1 => vec![0],
                                _ => vec![1],
                            },
                            workload: churn.clone(),
                            receiver: None,
                            reverse_data: false,
                        })
                        .collect(),
                }
            }
        }
    }

    fn build(&self, tao: &Scheme, t: &mut Tracer) -> Simulation {
        let net = self.net();
        net.validate().expect("the benchmark builds valid networks");
        let scheme = match self.scheme {
            "tao" => tao.clone(),
            "cubic" => Scheme::Cubic,
            "newreno" => Scheme::NewReno,
            other => unreachable!("unknown scheme {other}"),
        };
        let protocols = build_protocols(&vec![scheme; self.slots]);
        let mut sim = t.span("netsim.sim.new", |_| {
            Simulation::new(&net, protocols, self.seed)
        });
        sim.set_event_budget(self.event_budget);
        sim
    }
}

pub struct Scale10k {
    pub cells: Vec<Cell>,
    /// The cell the output check runs a second time with the same seed.
    replayed: usize,
}

impl Scale10k {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (slots, sim_seconds) = match scale {
            Scale::Full => (SLOTS, SIM_SECONDS),
            Scale::Tiny => (TINY_SLOTS, TINY_SIM_SECONDS),
        };
        let mut cells = Vec::new();
        for topology in [Topology::Incast, Topology::ParkingLot] {
            for scheme in ["cubic", "newreno", "tao"] {
                cells.push(Cell {
                    topology,
                    scheme,
                    seed: seed.wrapping_mul(1000) + cells.len() as u64,
                    slots,
                    sim_seconds,
                    event_budget: TEST_EVENT_BUDGET,
                });
            }
        }
        let replayed = seed as usize % cells.len();
        Scale10k { cells, replayed }
    }
}

pub struct Prepared {
    sims: Vec<Simulation>,
    /// Heap bytes the built simulations hold.
    heap_bytes: u64,
}

pub struct Output {
    runs: Vec<RunOutcome>,
    /// Heap allocations made inside `Simulation::run`, all cells.
    run_allocs: u64,
    heap_bytes: u64,
}

impl Workload for Scale10k {
    type Prepared = Prepared;
    type Output = Output;

    fn name(&self) -> &'static str {
        "scale_10k"
    }

    fn preflight(&self) -> Result<(), String> {
        require_assets([TAO_ASSET])
    }

    fn prepare(&self, t: &mut Tracer) -> Prepared {
        let before = live_bytes_now();
        let tao = Scheme::tao(load_asset(TAO_ASSET).tree, "tao");
        let sims = self.cells.iter().map(|c| c.build(&tao, t)).collect();
        Prepared {
            sims,
            heap_bytes: live_bytes_now().wrapping_sub(before),
        }
    }

    fn execute(&self, prepared: Prepared, t: &mut Tracer) -> Output {
        let mut runs = Vec::with_capacity(prepared.sims.len());
        let mut run_allocs = 0;
        for (cell, mut sim) in self.cells.iter().zip(prepared.sims) {
            let before = allocs_now();
            let run = t.span("netsim.sim.run", |_| {
                sim.run(SimDuration::from_secs_f64(cell.sim_seconds))
            });
            run_allocs += allocs_now() - before;
            runs.push(run);
        }
        Output {
            runs,
            run_allocs,
            heap_bytes: prepared.heap_bytes,
        }
    }

    fn check(&self, out: &Output) -> Verdict {
        let mut v = Verdict {
            attempted: self.cells.len() as u64,
            ..Verdict::default()
        };
        let tao = Scheme::tao(load_asset(TAO_ASSET).tree, "tao");
        for (i, (cell, run)) in self.cells.iter().zip(&out.runs).enumerate() {
            v.counts.add_run(run);
            let rates: Vec<f64> = cell.net().links.iter().map(|l| l.rate_bps).collect();
            let mut verdict = check_run(&cell.label(), run, &rates);
            if verdict.is_ok() && self.replayed == i {
                let again = cell
                    .build(&tao, &mut Tracer::new(false))
                    .run(SimDuration::from_secs_f64(cell.sim_seconds));
                if run_fingerprint(&again) != run_fingerprint(run) {
                    verdict = Err(format!("{}: a same-seed rerun differs", cell.label()));
                }
            }
            v.failures.extend(verdict.err());
        }
        let flows: usize = self.cells.iter().map(|c| c.slots).sum();
        v.layer = vec![
            (
                "netsim.sim.allocs_per_event".into(),
                out.run_allocs as f64 / v.counts.events.max(1) as f64,
            ),
            (
                "netsim.sim.kb_per_flow".into(),
                out.heap_bytes as f64 / 1024.0 / flows as f64,
            ),
        ];
        v
    }
}
