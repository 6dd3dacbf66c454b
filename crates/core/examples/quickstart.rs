//! Quickstart: simulate TCP Cubic and a hand-built Tao protocol on a
//! shared bottleneck (each against its own kind, as in Fig 1) and print
//! the throughput/delay operating points.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lcc_core::{run_homogeneous, Scheme};
use netsim::prelude::*;
use protocols::{Action, WhiskerTree};

fn main() {
    // A 20 Mbps dumbbell with 100 ms RTT, 5 BDP of drop-tail buffer, and
    // two always-on senders.
    let net = dumbbell(
        2,
        20e6,
        0.100,
        QueueSpec::drop_tail_bdp(20e6, 0.100, 5.0),
        WorkloadSpec::AlwaysOn,
    );

    // A one-whisker Tao protocol: on every ack, window <- 0.99*window + 1,
    // paced at >= 0.4 ms between packets. The fixed point (100 packets per
    // sender) sits just above each sender's half-share of the path BDP
    // (~83 packets), so the link fills with only a small standing queue.
    // (Trained multi-whisker protocols live under assets/ — see the
    // train_protocol example.)
    let tao_tree = WhiskerTree::uniform(Action::new(0.99, 1.0, 0.4));

    println!("20 Mbps dumbbell, 100 ms RTT, two senders of the same kind, 30 s:");
    for scheme in [Scheme::tao(tao_tree, "tao-demo"), Scheme::Cubic] {
        let out = run_homogeneous(&net, &scheme, /* seed */ 1, /* seconds */ 30.0);
        let tpt: f64 = out.flows.iter().map(|f| f.throughput_bps).sum();
        let qd: f64 = out
            .flows
            .iter()
            .map(|f| f.avg_queueing_delay_s)
            .sum::<f64>()
            / 2.0;
        println!(
            "  {:<10} total {:>6.2} Mbps, mean queueing delay {:>7.2} ms, utilization {:>5.1}%",
            scheme.label(),
            tpt / 1e6,
            qd * 1e3,
            out.utilization(0, 20e6) * 100.0,
        );
    }
    println!(
        "\nsame link, same load: the windowed-and-paced protocol holds the queue near\n\
         empty while Cubic fills the whole 5-BDP buffer. The paper's question is how\n\
         well an *optimizer* can discover such protocols from a network model alone."
    );
}
