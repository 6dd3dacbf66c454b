//! The receive window is the engine's to enforce: `Simulation::try_send`
//! caps every sender at `min(⌊window⌋, advertisement)`, and a controller's
//! `window()` is its own, uncapped.
//!
//! Each of the five schemes runs a 3-flow dumbbell behind a receiver that
//! advertises 6 packets, once acknowledging every packet and once every
//! second one, on two bottlenecks: a 10 Mbps one, where 6 packets per
//! 100 ms round trip is far below each flow's share and the advertisement
//! always binds, and a 1.2 Mbps one with a half-BDP buffer, where the
//! three advertisements overfill the path and loss pulls the windows back
//! under the advertisement, so it binds only some of the time.
//!
//! Each run's event digest, per-flow ack digests and packets delivered
//! are pinned to values recorded when every controller still capped its
//! own window by a mirrored copy of the advertisement, so the one
//! enforcement is held to the two it replaced, bit for bit. A mismatch
//! prints the observed table in the form `PINS` takes.

use netsim::prelude::*;
use netsim::probe::Digest;
use protocols::{Action, Scheme, WhiskerTree};

const RWND: u32 = 6;
/// The bottlenecks, by name and rate.
const LINKS: [(&str, f64); 2] = [("fat", 10e6), ("thin", 1.2e6)];
const MIN_RTT_S: f64 = 0.100;
const SECONDS: u64 = 10;
const SEED: u64 = 1;

/// One run: bottleneck, scheme, receiver, event digest, and ack digest
/// and packets delivered per flow.
type Pin = (
    &'static str,
    &'static str,
    &'static str,
    u64,
    [u64; 3],
    [u64; 3],
);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("fat", "tao", "immediate", 0x22f254b30c577256, [0x060f902f761cc808, 0x70c3045dbbc84e36, 0x62c5a1562a465bc8], [588, 588, 588]),
    ("fat", "tao", "delayed", 0x7021fbc30d7570ed, [0x53d4be94ec630f40, 0x163d26f32e61af6b, 0xb336073203125bd1], [578, 578, 576]),
    ("fat", "cubic", "immediate", 0xac1c4b5b80575d25, [0x535b178d5b396bde, 0x023a962e1911687b, 0x7ef4c3d3280eb36f], [588, 588, 588]),
    ("fat", "cubic", "delayed", 0x362309076fe68788, [0x0838a4e2622ef54c, 0x00a14036441163f3, 0xf190f5ddddbce4c1], [578, 578, 576]),
    ("fat", "newreno", "immediate", 0xac1c4b5b80575d25, [0x535b178d5b396bde, 0x023a962e1911687b, 0x7ef4c3d3280eb36f], [588, 588, 588]),
    ("fat", "newreno", "delayed", 0x362309076fe68788, [0x0838a4e2622ef54c, 0x00a14036441163f3, 0xf190f5ddddbce4c1], [578, 578, 576]),
    ("fat", "vegas", "immediate", 0xdaae32719602a9d8, [0xda4d3cc7ab13ea04, 0x32e45a4da4d91ccd, 0x1dde275e36cc3ac1], [585, 585, 585]),
    ("fat", "vegas", "delayed", 0x2918e6f05e0c3ef2, [0x945f925aa212cfee, 0x961351022d3330c0, 0x9949e7775d1f405d], [568, 572, 570]),
    ("fat", "pcc", "immediate", 0xbad0bc83cace0742, [0x10c02bda052b44c8, 0xab2bf016e2068980, 0xdbc4fe13c5de3f0a], [577, 578, 578]),
    ("fat", "pcc", "delayed", 0x44e4e1c285bfeae1, [0xb6d587e49219642b, 0x353a631f338f2124, 0x0cbaef548ab6b759], [550, 550, 551]),
    ("thin", "tao", "immediate", 0xf521c68170ab1734, [0x36e9efb4f20ef2f3, 0xfe8d5ca83a6aa17f, 0xf724318643687426], [371, 370, 248]),
    ("thin", "tao", "delayed", 0x4b26bb5c56885370, [0x453f1ae627525f30, 0x6b3bd3d83e2525ae, 0x97225a6f58bf66a0], [370, 370, 248]),
    ("thin", "cubic", "immediate", 0xa0633e3c07cadf00, [0x05c4d291b3d67fdc, 0xab4d18ceb34e9b72, 0xf7ed8004f73fb74d], [372, 372, 245]),
    ("thin", "cubic", "delayed", 0x7d19ad40c5869a82, [0xbc0893546a30a868, 0xc2e1bbb8d3a89d85, 0xad2b20199cb0a823], [372, 371, 245]),
    ("thin", "newreno", "immediate", 0x745a2d60fa970189, [0xbd6c2322c68fc2aa, 0xe65b9b397afc25ea, 0x7b7a3216d4550ea9], [384, 384, 221]),
    ("thin", "newreno", "delayed", 0x7f843649cd6a3adf, [0xe93b104b5705cfae, 0xcf575f22cfc5d7c0, 0xc4deedcc598ae7ed], [384, 380, 224]),
    ("thin", "vegas", "immediate", 0x8fdb041fd807cf8f, [0xfcbf2c8ac07daeba, 0x2756b225ec8d560f, 0x160103659fe98827], [369, 369, 249]),
    ("thin", "vegas", "delayed", 0x3b9e9792afee7bc6, [0x553e4a82b0b60255, 0xac7a9caa0d3cd6ba, 0x256a03295612ec84], [369, 369, 248]),
    ("thin", "pcc", "immediate", 0x72c677096e3963c3, [0xf28b9f91684e6554, 0x2365b4e1a7200ab3, 0x2bd8ab2d65a73e93], [368, 367, 247]),
    ("thin", "pcc", "delayed", 0xb122274e9348fafb, [0x22f4b31d949d383f, 0xd6919909d51cf299, 0xf07d4a8a991073a8], [359, 289, 334]),
];

fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::tao(WhiskerTree::uniform(Action::default()), "tao"),
        Scheme::Cubic,
        Scheme::NewReno,
        Scheme::Vegas,
        Scheme::Pcc,
    ]
}

fn receivers() -> [(&'static str, ReceiverSpec); 2] {
    [
        ("immediate", ReceiverSpec::immediate().with_rwnd(RWND)),
        ("delayed", ReceiverSpec::delayed(2, 0.005).with_rwnd(RWND)),
    ]
}

fn run(rate_bps: f64, scheme: &Scheme, receiver: &ReceiverSpec) -> (RunOutcome, Digest) {
    let net = dumbbell(
        3,
        rate_bps,
        MIN_RTT_S,
        QueueSpec::drop_tail_bdp(rate_bps, MIN_RTT_S, 0.5),
        WorkloadSpec::AlwaysOn,
    )
    .with_receiver(receiver.clone());
    let protocols = (0..3).map(|_| scheme.build()).collect();
    let kind = SchedulerKind::default();
    let mut sim = Simulation::with_probe(&net, protocols, SEED, kind, Digest::new(3));
    let out = sim.run(SimDuration::from_secs(SECONDS));
    (out, sim.into_probe())
}

#[test]
fn every_scheme_is_held_to_the_advertised_window() {
    let cap_bps = 1.05 * f64::from(RWND) * f64::from(DATA_PACKET_BYTES) * 8.0 / MIN_RTT_S;
    let mut observed: Vec<Pin> = Vec::new();
    for (link, rate_bps) in LINKS {
        for scheme in schemes() {
            for (name, receiver) in receivers() {
                let (out, digest) = run(rate_bps, &scheme, &receiver);
                for f in &out.flows {
                    assert!(
                        f.throughput_bps <= cap_bps,
                        "{link} {} {name} flow {}: {} bps above the window's {cap_bps}",
                        scheme.family(),
                        f.flow,
                        f.throughput_bps
                    );
                }
                observed.push((
                    link,
                    scheme.family(),
                    name,
                    digest.events,
                    [digest.acks[0], digest.acks[1], digest.acks[2]],
                    [0, 1, 2].map(|i| out.flows[i].packets_delivered),
                ));
            }
        }
    }
    let table: String = observed
        .iter()
        .map(|(l, s, r, e, a, p)| {
            format!(
                "    (\"{l}\", \"{s}\", \"{r}\", {e:#018x}, [{:#018x}, {:#018x}, {:#018x}], {p:?}),\n",
                a[0], a[1], a[2]
            )
        })
        .collect();
    assert_eq!(observed, PINS, "observed:\n{table}");
}
