//! The TCP-awareness story (§4.5) in miniature: what happens when a
//! delay-minded protocol meets incumbent TCP cross-traffic?
//!
//! Runs three contention scenarios on the paper's Fig 7 network (10 Mbps,
//! 100 ms RTT, 250 kB buffer): a gentle paced protocol alone, NewReno
//! alone, and the two together — showing the "squeezed out" effect that
//! motivates TCP-aware training.
//!
//! ```sh
//! cargo run --release --example tcp_contention
//! ```

use lcc_core::{run_mix, Scheme};
use netsim::prelude::*;
use protocols::{Action, WhiskerTree};

fn report(title: &str, labels: &[&str], out: &RunOutcome) {
    println!("{title}");
    for (label, flow) in labels.iter().zip(&out.flows) {
        println!(
            "  {:<10} {:>5.2} Mbps, queueing delay {:>6.1} ms, {} losses",
            label,
            flow.throughput_bps / 1e6,
            flow.avg_queueing_delay_s * 1e3,
            flow.losses,
        );
    }
}

fn main() {
    let net = |n| {
        netsim::topology::dumbbell_mixed(
            10e6,
            0.100,
            QueueSpec::DropTail {
                capacity_bytes: Some(250_000),
            },
            vec![WorkloadSpec::almost_continuous(); n],
        )
    };

    // A delay-minded protocol: windows shrink whenever the queue builds
    // (it keeps ~9 packets in flight and paces lightly).
    let gentle = || {
        Scheme::tao(
            WhiskerTree::uniform(Action::new(0.9, 1.0, 1.0)),
            "delay-minded",
        )
    };

    let alone = run_mix(&net(2), &[gentle(), gentle()], 3, 40.0);
    report(
        "two delay-minded senders, no TCP:",
        &["gentle-1", "gentle-2"],
        &alone,
    );

    let tcp_only = run_mix(&net(2), &[Scheme::NewReno, Scheme::NewReno], 3, 40.0);
    report(
        "two NewReno senders:",
        &["newreno-1", "newreno-2"],
        &tcp_only,
    );

    let mixed = run_mix(&net(2), &[gentle(), Scheme::NewReno], 3, 40.0);
    report(
        "delay-minded sender vs NewReno:",
        &["gentle", "newreno"],
        &mixed,
    );

    let fair = 5.0;
    let got = mixed.flows[0].throughput_bps / 1e6;
    println!(
        "\nfair share is {fair:.1} Mbps; the delay-minded sender got {got:.2} Mbps \
         ({:.0}% of fair share) — this is the squeeze that TCP-aware training fixes \
         (run `cargo run --release --bin fig7` for the trained protocols).",
        100.0 * got / fair
    );
}
