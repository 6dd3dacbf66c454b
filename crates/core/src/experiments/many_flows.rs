//! Extension — Internet-scale multiplexing: 10² → 10⁴ concurrent churn
//! flows on one bottleneck.
//!
//! Every sweep in the paper — and every extension so far — stops at ~100
//! senders. Real aggregation points multiplex orders of magnitude more:
//! a datacenter incast fan-in or a metro access ring carries thousands
//! of concurrent transfers, each a short M/G/∞ burst, with per-flow fair
//! shares far below one packet per RTT. This experiment sweeps the
//! degree of multiplexing from 10² to 10⁴ slots of unblocked Poisson
//! churn through two shapes:
//!
//! * **incast** — a datacenter-ish dumbbell: 400 Mbps bottleneck, 4 ms
//!   RTT, a 1-BDP drop-tail buffer. Shallow buffering and a tiny RTT
//!   make the regime loss-driven.
//! * **parkinglot** — an access-network two-bottleneck chain (100 Mbps
//!   per hop, 40 ms round-trip contribution each): half the slots cross
//!   both hops (80 ms RTT), the rest contend on a single hop, so
//!   long-path flows fight doubly-bottlenecked discrimination exactly as
//!   in the paper's Fig 5 — but against thousands of single-hop slots.
//!
//! Besides the usual normalized objective, the figure reports
//! *per-decile throughput fairness*: per-slot throughputs sorted and
//! averaged within each decile, plus Jain's index. Mean objective hides
//! starvation — a scheme can post a healthy average while its bottom
//! decile never completes a transfer; the decile profile makes the
//! difference between "fair at scale" and "lucky on average" visible.
//!
//! This sweep is also the engine's scale gate: a 10⁴-flow cell exercises
//! the calendar queue's dequeue-rate retune, the packet arena and 10⁴
//! flows' reliability state at the population the
//! `sim_events_per_sec_10k` and `sim_peak_heap_mb_10k` perf-gate metrics
//! track.

use super::multiplexing;
use super::scaffold::prelude::*;

/// Asset shared with the multiplexing experiment's widest range: the
/// 1–100-way Tao, the closest committed protocol to this regime.
pub const ASSET: &str = "tao-mux-100";

/// Topology variants, in series order.
const TOPOS: [&str; 2] = ["incast", "parkinglot"];

/// Mean transfer duration (seconds) of each M/G/∞ slot.
const MEAN_DURATION_S: f64 = 2.0;

/// Per-slot Poisson arrival rate (1/s). With the 2 s mean duration the
/// slot duty is `1 − e^(−λd)` = `1 − e^(−1)` ≈ 0.632, so a 10⁴-slot cell
/// keeps ~6.3k flows concurrently active.
const ARRIVAL_HZ: f64 = 0.5;

/// Incast bottleneck rate (bits/s).
const INCAST_RATE_BPS: f64 = 400e6;

/// Incast minimum RTT (seconds) — datacenter-ish.
const INCAST_RTT_S: f64 = 0.004;

/// Access-network per-hop rate (bits/s).
const ACCESS_RATE_BPS: f64 = 100e6;

/// Round-trip delay contribution of each access hop (seconds); long-path
/// slots cross two hops for an 80 ms RTT.
const ACCESS_HOP_DELAY_S: f64 = 0.040;

/// Slot counts swept (the degree-of-multiplexing axis, log-spaced).
fn flow_counts(fidelity: Fidelity) -> Vec<usize> {
    match fidelity {
        Fidelity::Quick => vec![100, 1_000, 10_000],
        Fidelity::Full => vec![100, 316, 1_000, 3_162, 10_000],
    }
}

/// Fraction of time an M/G/∞ slot is ON.
fn duty() -> f64 {
    1.0 - (-ARRIVAL_HZ * MEAN_DURATION_S).exp()
}

fn churn() -> WorkloadSpec {
    WorkloadSpec::churn_mginf(ARRIVAL_HZ, MEAN_DURATION_S)
}

/// The datacenter-ish incast dumbbell: `n` churn slots into one shallow
/// short-RTT bottleneck.
pub fn incast(n: usize) -> NetworkConfig {
    dumbbell(
        n,
        INCAST_RATE_BPS,
        INCAST_RTT_S,
        QueueSpec::drop_tail_bdp(INCAST_RATE_BPS, INCAST_RTT_S, 1.0),
        churn(),
    )
}

/// The access-network parking lot at scale: a two-bottleneck chain with
/// `n` churn slots. Slot `i` routes over both hops when `i` is even
/// (n/2 long-path flows), otherwise alternates between hop 0 and hop 1
/// (n/4 cross-traffic slots each), so each hop carries 3n/4 slots.
pub fn access_parking_lot(n: usize) -> NetworkConfig {
    let link = |_| LinkSpec {
        rate_bps: ACCESS_RATE_BPS,
        delay_s: ACCESS_HOP_DELAY_S,
        queue: QueueSpec::drop_tail_bdp(ACCESS_RATE_BPS, 2.0 * ACCESS_HOP_DELAY_S, 1.0),
        reverse: None,
        fault: None,
    };
    NetworkConfig {
        links: (0..2).map(link).collect(),
        flows: (0..n)
            .map(|i| FlowSpec {
                route: if i % 2 == 0 {
                    vec![0, 1]
                } else if i % 4 == 1 {
                    vec![0]
                } else {
                    vec![1]
                },
                workload: churn(),
                receiver: None,
                reverse_data: false,
            })
            .collect(),
    }
}

/// Exact proportional-fair expected share of one ON slot among `slots`
/// exchangeable M/G/∞ slots on a `cap_bps` link: `E[C/(K+1)]` with
/// `K ~ Binomial(slots−1, p)`, which collapses to the closed form
/// `C·(1−(1−p)^slots)/(slots·p)` — no O(n) pmf summation, so it stays
/// exact at 10⁴ slots where the subset-enumeration omniscient cannot go.
pub fn exchangeable_fair_share(cap_bps: f64, slots: usize, p_on: f64) -> f64 {
    let n = slots as f64;
    cap_bps * (1.0 - (1.0 - p_on).powf(n)) / (n * p_on)
}

/// Normalization constant for a cell: the incast uses the exact
/// single-link form; the parking lot normalizes every flow against the
/// share on one hop carrying its 3n/4 slots — an approximation (long-path
/// flows see two constraints), but a *constant per cell*, so per-scheme
/// comparisons at one x are unaffected by it.
fn fair_share(topo: &str, n: usize) -> f64 {
    match topo {
        "incast" => exchangeable_fair_share(INCAST_RATE_BPS, n, duty()),
        "parkinglot" => exchangeable_fair_share(ACCESS_RATE_BPS, (3 * n) / 4, duty()),
        other => unreachable!("unknown topology {other}"),
    }
}

/// Mean throughput within each sorted decile (ascending: `[0]` is the
/// most-starved tenth of slots, `[9]` the luckiest).
pub fn decile_means(values: &[f64]) -> [f64; 10] {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let mut out = [0.0; 10];
    if sorted.is_empty() {
        return out;
    }
    let n = sorted.len();
    for (d, slot) in out.iter_mut().enumerate() {
        let lo = d * n / 10;
        let hi = ((d + 1) * n / 10).max(lo + 1).min(n);
        let chunk = &sorted[lo.min(n - 1)..hi];
        *slot = chunk.iter().sum::<f64>() / chunk.len() as f64;
    }
    out
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 for perfect equality,
/// `1/n` when one flow takes everything.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let s: f64 = values.iter().sum();
    let s2: f64 = values.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        return 1.0;
    }
    s * s / (values.len() as f64 * s2)
}

/// The Internet-scale multiplexing experiment (`learnability run many_flows`).
pub struct ManyFlows;

impl Experiment for ManyFlows {
    fn id(&self) -> &'static str {
        "many_flows"
    }

    fn paper_artifact(&self) -> &'static str {
        "extension — Internet-scale multiplexing: 10^2-10^4 M/G/inf churn flows \
         through incast and access parking-lot bottlenecks, objective + \
         per-decile throughput fairness"
    }

    fn roster(&self) -> Vec<Contender> {
        Contender::tao_vs(ASSET, [Scheme::Cubic, Scheme::NewReno, Scheme::Pcc])
    }

    fn train_specs(&self) -> Vec<TrainJob> {
        // The multiplexing experiment's tao-mux-100 job, so the committed
        // asset serves both and nothing retrains.
        jobs_of(&multiplexing::Multiplexing, &[ASSET])
    }

    fn sweep(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut grid = Grid::new(self, fidelity);
        for &n in &flow_counts(fidelity) {
            for topo in TOPOS {
                let net = match topo {
                    "incast" => incast(n),
                    _ => access_parking_lot(n),
                };
                grid.cells(topo, n as f64, &net);
            }
        }
        grid.into_points()
    }

    fn summarize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> FigureData {
        let mut fig = FigureData::new(self.id(), self.paper_artifact());
        let max_n = *flow_counts(fidelity).last().unwrap() as f64;

        let names = names_at(&TOPOS, &self.roster());
        let mut obj_series = SeriesSet::new(self.id(), names.clone());
        let mut decile_series = SeriesSet::new(self.id(), names);
        let mut t = Table::new(
            "Internet-scale churn — incast (400 Mbps, 4 ms) and access \
             parking lot (2x100 Mbps, 80 ms long path), M/G/inf slots at \
             duty ~0.63",
            &[
                "slots",
                "topology",
                "scheme",
                "throughput",
                "queueing delay",
                "jain",
            ],
        );
        for p in points {
            let (topo, label) = split_key(p.key());
            let n = p.x() as usize;
            let norm = Norm {
                fair_tpt_bps: fair_share(topo, n),
                base_delay_s: base_delay(topo),
            };
            let obj = norm.objective(&p.runs);
            let name = format!("{label}@{topo}");
            obj_series.push(&name, p.x(), obj);
            let (tpt, qd) = crate::runner::flow_points(&p.runs, |_| true);
            let jain = jain_index(&tpt);
            if p.x() == max_n {
                // Decile profile of the widest cell, normalized by the
                // cell's fair share so both topologies plot on one axis.
                for (d, m) in decile_means(&tpt).iter().enumerate() {
                    decile_series.push(&name, (d + 1) as f64, m * 1e6 / norm.fair_tpt_bps);
                }
                fig.push_summary(format!("{label}_{topo}_jain_at_{n}"), jain);
                fig.push_summary(format!("{label}_{topo}_objective_at_{n}"), obj);
            }
            let [tpt, qd] = TptQd::of((tpt, qd)).cells();
            t.row(vec![
                format!("{n}"),
                topo.to_string(),
                label.to_string(),
                tpt,
                qd,
                format!("{jain:.3}"),
            ]);
        }
        fig.charts.push(ChartData::from_series(
            "normalized objective vs degree of multiplexing (M/G/inf churn slots)",
            "concurrent churn slots",
            obj_series.all(),
        ));
        fig.charts.push(ChartData::from_series(
            format!(
                "per-decile throughput (fraction of fair share) at {} slots — \
                 ascending deciles: [1] = most-starved tenth",
                max_n as usize
            ),
            "throughput decile",
            decile_series.all(),
        ));
        fig.tables.push(TableData::from_table(&t));

        if let (Some(tao), Some(cubic)) = (
            fig.summary_value(&format!("tao_incast_jain_at_{}", max_n as usize)),
            fig.summary_value(&format!("cubic_incast_jain_at_{}", max_n as usize)),
        ) {
            fig.notes.push(format!(
                "incast at {} slots: Jain fairness {tao:.3} (tao) vs {cubic:.3} \
                 (cubic) — per-flow fair share is ~{:.0} kbit/s, far below one \
                 packet per RTT, so the decile profile (chart 2) separates \
                 schemes that starve their bottom decile from schemes that \
                 degrade evenly",
                max_n as usize,
                fair_share("incast", max_n as usize) / 1e3,
            ));
        }
        fig
    }
}

/// Baseline one-way delay for the objective's delay normalization.
fn base_delay(topo: &str) -> f64 {
    match topo {
        "incast" => INCAST_RTT_S / 2.0,
        _ => ACCESS_HOP_DELAY_S, // long path: 2 hops x 20 ms one-way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omniscient;

    #[test]
    fn networks_validate_at_every_swept_scale() {
        for f in [Fidelity::Quick, Fidelity::Full] {
            for &n in &flow_counts(f) {
                incast(n).validate().unwrap();
                access_parking_lot(n).validate().unwrap();
            }
        }
    }

    #[test]
    fn pcc_incast_runs_to_the_end_inside_the_event_budget() {
        // PCC moves its pacing rate every monitor interval; while a stale
        // pacing wake could clear the pending-wake marker, each rate
        // change queued another wake chain and this cell dispatched ~130
        // events per transmission until the 200 M budget cut it short.
        let out = crate::runner::run_homogeneous(&incast(100), &Scheme::Pcc, 0, 5.0);
        assert!(!out.truncated);
        let sent = flow_sum(std::slice::from_ref(&out), |f| f.transmissions);
        assert!(
            out.events_processed <= 6 * sent,
            "{} events for {sent} transmissions",
            out.events_processed
        );
    }

    #[test]
    fn parking_lot_splits_slots_three_to_four_per_hop() {
        let net = access_parking_lot(1000);
        assert_eq!(net.flows.len(), 1000);
        let long = net.flows.iter().filter(|f| f.route.len() == 2).count();
        let hop0 = net.flows.iter().filter(|f| f.route.contains(&0)).count();
        let hop1 = net.flows.iter().filter(|f| f.route.contains(&1)).count();
        assert_eq!(long, 500);
        assert_eq!(hop0, 750);
        assert_eq!(hop1, 750);
    }

    #[test]
    fn closed_form_fair_share_matches_omniscient_binomial() {
        // The closed form must agree with the omniscient model's exact
        // binomial aggregation where the latter is computable.
        for n in [2usize, 5, 10, 50] {
            let net = incast(n);
            let expect = omniscient::omniscient(&net)[0].throughput_bps;
            let got = exchangeable_fair_share(INCAST_RATE_BPS, n, duty());
            assert!(
                (got - expect).abs() / expect < 1e-9,
                "n={n}: closed form {got} vs omniscient {expect}"
            );
        }
    }

    #[test]
    fn deciles_and_jain_on_known_vectors() {
        let even = vec![5.0; 40];
        assert!((jain_index(&even) - 1.0).abs() < 1e-12);
        assert!(decile_means(&even).iter().all(|&m| (m - 5.0).abs() < 1e-12));

        // 0..20: decile d averages its two members.
        let ramp: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let d = decile_means(&ramp);
        assert_eq!(d[0], 0.5);
        assert_eq!(d[9], 18.5);
        // One hog among n starving flows drives Jain toward 1/n.
        let mut hog = vec![0.0; 9];
        hog.push(100.0);
        assert!((jain_index(&hog) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn train_job_matches_multiplexing_asset() {
        let ours = ManyFlows.train_specs().remove(0);
        let theirs = multiplexing::Multiplexing
            .train_specs()
            .into_iter()
            .find(|j| j.assets == vec![ASSET.to_string()])
            .expect("multiplexing declares tao-mux-100");
        assert_eq!(ours.specs, theirs.specs, "one asset must serve both");
    }

    #[test]
    fn sweep_grid_reaches_ten_thousand() {
        for f in [Fidelity::Quick, Fidelity::Full] {
            let g = flow_counts(f);
            assert_eq!(*g.first().unwrap(), 100);
            assert_eq!(*g.last().unwrap(), 10_000);
        }
    }
}
