//! The shape every workload has, and what a pass of it reports.

use crate::trace::Tracer;
use netsim::prelude::RunOutcome;

/// How much work a workload does. `Full` is the frozen benchmark size;
/// `Tiny` is the same code on a few cells, for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// As spelled after `--scale`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// Exact counts read from the simulator's own outcome records. They do
/// not depend on host time, so a pure speed-up must leave them equal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Events dispatched by every visible `Simulation::run`.
    pub events: u64,
    pub transmissions: u64,
    pub retransmissions: u64,
    /// Packets dropped, all causes.
    pub drops: u64,
}

impl Counts {
    pub fn add_run(&mut self, run: &RunOutcome) {
        self.events += run.events_processed;
        for f in &run.flows {
            self.transmissions += f.transmissions;
            self.retransmissions += f.retransmissions;
            self.drops += f.drops.total();
        }
    }
}

/// The verdict on one pass: operations attempted, the ones that failed
/// (one line each), the exact counts, and the layer metrics only this
/// workload can measure (by full name).
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub counts: Counts,
    pub layer: Vec<(String, f64)>,
}

impl Verdict {
    /// Failed operations. Two checks may fail on one cell, so the
    /// failure lines are capped at the operations attempted.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }
}

/// The checks every simulation cell must pass: it ran to the end of its
/// simulated time, no flow delivered more than it transmitted, every
/// statistic is finite, and no link carried more than its rate.
pub fn check_run(cell: &str, run: &RunOutcome, link_rates_bps: &[f64]) -> Result<(), String> {
    if run.truncated {
        return Err(format!("{cell}: truncated by the event budget"));
    }
    for f in &run.flows {
        if f.packets_delivered > f.transmissions {
            return Err(format!(
                "{cell}: flow {} delivered {} packets but transmitted {}",
                f.flow, f.packets_delivered, f.transmissions
            ));
        }
        if !(f.throughput_bps.is_finite() && f.avg_delay_s.is_finite()) {
            return Err(format!(
                "{cell}: flow {} has a non-finite statistic",
                f.flow
            ));
        }
    }
    for (l, &rate) in link_rates_bps.iter().enumerate() {
        // One packet may finish serializing in the closing instant.
        let slack = 1500.0 * 8.0 / (rate * run.duration_s);
        if run.utilization(l, rate) > 1.0 + slack {
            return Err(format!(
                "{cell}: link {l} utilization {} exceeds 1",
                run.utilization(l, rate)
            ));
        }
    }
    Ok(())
}

/// What two same-seed runs of one cell must agree on exactly.
pub fn run_fingerprint(run: &RunOutcome) -> (u64, Vec<u64>) {
    (
        run.events_processed,
        run.flows.iter().map(|f| f.bytes_delivered).collect(),
    )
}

/// A benchmark workload: set-up, the timed region, and the output check.
///
/// The driver times `prepare` for `setup_s` and `execute` for `wall_s`;
/// `check` runs outside both. With an enabled [`Tracer`] the workload
/// opens a span around every call it makes into a layer.
pub trait Workload {
    type Prepared;
    type Output;

    fn name(&self) -> &'static str;

    /// Fail before any timing if a committed input is missing: a missing
    /// protocol asset would otherwise be *trained* and written into
    /// `assets/` by the experiment harness.
    fn preflight(&self) -> Result<(), String>;

    /// Everything before the timed region that a user also pays.
    fn prepare(&self, t: &mut Tracer) -> Self::Prepared;

    /// The timed region.
    fn execute(&self, prepared: Self::Prepared, t: &mut Tracer) -> Self::Output;

    /// Are the outputs correct?
    fn check(&self, output: &Self::Output) -> Verdict;
}

/// Fail unless every named protocol asset is committed.
pub fn require_assets<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
    for name in names {
        let path = remy::serialize::asset_path(name);
        if !path.is_file() {
            return Err(format!(
                "protocol asset {} is missing; the benchmark never trains one",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Load a committed protocol asset (after [`require_assets`]).
pub fn load_asset(name: &str) -> remy::TrainedProtocol {
    let path = remy::serialize::asset_path(name);
    remy::serialize::load(&path)
        .unwrap_or_else(|e| panic!("cannot load asset {}: {e}", path.display()))
}
