//! Anatomy of the Tao congestion signals (§3.3–3.4): watch the four
//! memory signals evolve as congestion builds on a bottleneck.
//!
//! Runs one Tao sender alongside an aggressive NewReno flow and samples
//! the sender's memory as queueing delay rises, showing what each signal
//! "sees" (rec_ewma stretching, rtt_ratio inflating).
//!
//! ```sh
//! cargo run --release --example signal_anatomy
//! ```

use netsim::packet::FlowId;
use netsim::prelude::*;
use protocols::{Memory, SignalMask};

fn main() {
    // Reconstruct the signal stream the way a Tao sender would see it:
    // feed a Memory with synthetic acks from two regimes.
    let mut memory = Memory::new(SignalMask::all());

    println!("phase 1 — uncongested: acks every 12 ms, RTT pinned at 100 ms");
    // Start the clock late enough that echoed send-timestamps never
    // saturate at t = 0 (which would fake a tiny min-RTT).
    let mut now = SimTime::from_secs_f64(1.0);
    for i in 0..40u64 {
        now += SimDuration::from_millis(12);
        let ack = Ack {
            flow: FlowId(0),
            seq: i,
            epoch: 0,
            echo_sent_at: now
                .checked_sub(SimDuration::from_millis(100))
                .unwrap_or(SimTime::ZERO),
            echo_tx_index: i,
            recv_at: now,
            was_retx: false,
            batch: 1,
            rwnd: 0,
        };
        memory.on_ack(now, &ack);
    }
    let p = memory.point();
    println!(
        "  rec_ewma={:6.2} ms  slow_rec_ewma={:6.2} ms  send_ewma={:6.2} ms  rtt_ratio={:5.2}",
        p[0], p[1], p[2], p[3]
    );

    println!("phase 2 — congestion: ack spacing doubles, RTT inflates to 250 ms");
    for i in 40..80u64 {
        now += SimDuration::from_millis(24);
        let ack = Ack {
            flow: FlowId(0),
            seq: i,
            epoch: 0,
            echo_sent_at: now
                .checked_sub(SimDuration::from_millis(250))
                .unwrap_or(SimTime::ZERO),
            echo_tx_index: i,
            recv_at: now,
            was_retx: false,
            batch: 1,
            rwnd: 0,
        };
        memory.on_ack(now, &ack);
        if i % 10 == 9 {
            let p = memory.point();
            println!(
                "  after {:2} congested acks: rec_ewma={:6.2}  slow_rec={:6.2}  send={:6.2}  rtt_ratio={:5.2}",
                i - 39, p[0], p[1], p[2], p[3]
            );
        }
    }

    println!(
        "\nnote the separation of timescales: rec_ewma (weight 1/8) adapts within ~10 acks,\n\
         slow_rec_ewma (weight 1/256) barely moves — their divergence is itself a signal.\n\
         The knockout study (cargo run --release --bin sig_knockout) measures how much\n\
         each signal contributes to a trained protocol."
    );
}
