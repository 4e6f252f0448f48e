//! E4 — Click VNF dataplane wall cost per catalog type and packet size.
//!
//! Every catalog type with a plain port-0 → port-1 forward path, built
//! with its default parameters, forwards a burst of identical UDP
//! frames; the table prints wall-clock ns per packet and the implied
//! packets/s. (The shaper and the delay element queue what they cannot
//! release yet, so their rows time that path.) The modelled CPU cost the
//! cgroup model charges is virtual, so it is pinned by
//! `tests/experiments.rs` instead.

use escape_catalog::Catalog;
use escape_click::Registry;
use escape_netem::Time;
use escape_packet::{MacAddr, Packet, PacketBuilder};
use std::net::Ipv4Addr;
use std::time::Instant;

/// Packets per timed burst; the fastest of [`SAMPLES`] bursts is kept.
const BURST: u64 = 10_000;
const SAMPLES: usize = 5;

fn main() {
    println!("\nE4: Click forward-path wall cost (ns/packet, best of {SAMPLES} x {BURST})");
    println!(
        "{:>14} {:>10} {:>12} {:>10} {:>12}",
        "vnf", "64B_ns", "64B_pps", "1500B_ns", "1500B_pps"
    );
    let catalog = Catalog::standard();
    for name in catalog.names() {
        if catalog.get(name).map(|t| t.ports) != Some(2) {
            continue;
        }
        let mut row = format!("{name:>14}");
        for len in [64usize, 1500] {
            let data = PacketBuilder::udp_with_len(
                MacAddr::from_id(1),
                MacAddr::from_id(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                4000,
                8000,
                len,
            );
            let mut best = f64::MAX;
            for _ in 0..SAMPLES {
                let registry = Registry::standard();
                let mut router = catalog.build_router(name, &[], &registry, 1).unwrap();
                let t0 = Instant::now();
                for id in 0..BURST {
                    let pkt = Packet {
                        data: data.clone(),
                        id,
                        born_ns: 0,
                    };
                    std::hint::black_box(router.push_external(0, pkt, Time::from_ns(id)));
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e9 / BURST as f64);
            }
            row.push_str(&format!(" {best:>10.0} {:>12.0}", 1e9 / best));
        }
        println!("{row}");
    }
    println!();
}
