//! The two-bottleneck "parking lot" of Fig 5: three flows, two queues,
//! and a proportional-fairness puzzle.
//!
//! Flow 0 crosses both links and contends with Flow 1 (link A) and Flow 2
//! (link B). Proportional fairness gives the long flow *less* than an
//! equal split (it consumes resources at two bottlenecks). This example
//! runs Cubic on the topology and compares against the omniscient
//! allocation computed analytically.
//!
//! ```sh
//! cargo run --release --example parking_lot
//! ```

use lcc_core::{omniscient, run_homogeneous, Scheme};
use netsim::prelude::*;

fn main() {
    for (r1, r2) in [(30e6, 30e6), (10e6, 100e6)] {
        let net = parking_lot(
            r1,
            r2,
            0.075, // 75 ms of round-trip delay per hop, as in Fig 5
            QueueSpec::drop_tail_bdp(r1, 0.150, 5.0),
            QueueSpec::drop_tail_bdp(r2, 0.150, 5.0),
            WorkloadSpec::AlwaysOn,
        );

        println!(
            "parking lot: link A = {} Mbps, link B = {} Mbps",
            r1 / 1e6,
            r2 / 1e6
        );

        let ideal = omniscient(&net);
        println!("  proportionally fair allocation (omniscient):");
        for (i, f) in ideal.iter().enumerate() {
            println!(
                "    flow {i} ({}): {:>6.2} Mbps at {:>5.1} ms one-way",
                ["A->C (both links)", "A->B", "B->C"][i],
                f.throughput_bps / 1e6,
                f.delay_s * 1e3
            );
        }

        let out = run_homogeneous(&net, &Scheme::Cubic, 11, 40.0);
        println!("  TCP Cubic, 40 s simulation:");
        for f in &out.flows {
            println!(
                "    flow {} : {:>6.2} Mbps at {:>5.1} ms one-way ({} losses)",
                f.flow,
                f.throughput_bps / 1e6,
                f.avg_delay_s * 1e3,
                f.losses
            );
        }
        println!();
    }
    println!(
        "the study's question: how much does a protocol lose by being designed \
         for a one-bottleneck model of this network? (cargo run --release --bin fig6)"
    );
}
