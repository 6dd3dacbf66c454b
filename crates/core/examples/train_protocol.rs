//! Design a congestion-control protocol from scratch with the Remy
//! optimizer, then race it against TCP Cubic on its training network.
//!
//! This is the paper's §3 pipeline end to end: pick a network model
//! (training scenarios), pick an objective, let the optimizer search the
//! whisker-tree space, and evaluate the result.
//!
//! ```sh
//! cargo run --release --example train_protocol
//! ```
//! (Takes a minute or two: it runs a reduced-budget Remy optimization.)

use lcc_core::{run_homogeneous, Scheme};
use netsim::prelude::*;
use remy::prelude::*;

fn main() {
    // The designer's network model: a dumbbell whose link speed is only
    // known to lie between 8 and 16 Mbps, 150 ms RTT, two ON/OFF senders.
    let specs = vec![ScenarioSpec::link_speed_range(8.0, 16.0)];

    // A small training budget (the paper used a CPU-year per protocol;
    // shapes survive much smaller budgets).
    let cfg = OptimizerConfig {
        draws_per_eval: 6,
        sim_duration_s: 8.0,
        rounds: 4,
        max_leaves: 4,
        scales: vec![4.0, 1.0],
        ..Default::default()
    };

    println!("training a Tao protocol for 8-16 Mbps / 150 ms (reduced budget)...");
    let t0 = std::time::Instant::now();
    let trained = Optimizer::new(specs, cfg).optimize("tao-example");
    println!(
        "done in {:.1}s; training score {:.3}\n{}",
        t0.elapsed().as_secs_f64(),
        trained.score,
        trained.tree
    );

    // Evaluate on a network drawn from the middle of the training range.
    let net = dumbbell(
        2,
        12e6,
        0.150,
        QueueSpec::drop_tail_bdp(12e6, 0.150, 5.0),
        WorkloadSpec::on_off_1s(),
    );
    let tao = run_homogeneous(&net, &Scheme::tao(trained.tree.clone(), "tao"), 7, 60.0);
    let cubic = run_homogeneous(&net, &Scheme::Cubic, 7, 60.0);

    println!("12 Mbps test network (60 s, 2 ON/OFF senders):");
    for (name, out) in [("tao-example", &tao), ("cubic", &cubic)] {
        let tpt: f64 =
            out.flows.iter().map(|f| f.throughput_bps).sum::<f64>() / out.flows.len() as f64;
        let qd: f64 = out
            .flows
            .iter()
            .map(|f| f.avg_queueing_delay_s)
            .sum::<f64>()
            / out.flows.len() as f64;
        println!(
            "  {:<12} mean throughput {:>5.2} Mbps, mean queueing delay {:>7.2} ms",
            name,
            tpt / 1e6,
            qd * 1e3
        );
    }
    println!("(the Tao should match Cubic's throughput at far lower delay)");
}
