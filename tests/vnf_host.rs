//! A VNF host reuses its work queue across frames, so a frame cut off by
//! the internal wiring-loop guard must leave nothing behind for the next.

use escape::VnfHost;
use escape_netconf::agent::VnfInstrumentation;
use escape_netem::Time;
use escape_packet::{MacAddr, Packet, PacketBuilder};
use std::net::Ipv4Addr;

fn frame(id: u64) -> Packet {
    let data = PacketBuilder::udp(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        7,
        9,
        bytes::Bytes::from_static(b"loop"),
    );
    Packet {
        data,
        id,
        born_ns: 0,
    }
}

#[test]
fn a_wiring_loop_leaves_nothing_for_the_next_frame() {
    // Container port i faces switch port 10 + i.
    let attach = (0..4).map(|i| ("s0".to_string(), i, 10 + i)).collect();
    let mut h = VnfHost::new("c0", attach, 1);
    // `a` copies each frame out of the container and twice into `b`,
    // which hands it straight back: the work queue grows until the hop
    // guard cuts the frame off. `b` also forwards device 1 outward.
    let a = h
        .initiate(
            "custom",
            Some(
                "FromDevice(0) -> t :: Tee(3);\n\
                 t [0] -> ToDevice(0); t [1] -> ToDevice(1); t [2] -> ToDevice(2);",
            ),
            &[],
        )
        .unwrap();
    let b = h
        .initiate(
            "custom",
            Some("FromDevice(0) -> ToDevice(0); FromDevice(1) -> ToDevice(1);"),
            &[],
        )
        .unwrap();
    h.connect(&a, 0, "s0").unwrap();
    h.bind_internal(&a, 1, &b, 0).unwrap();
    h.bind_internal(&a, 2, &b, 0).unwrap();
    h.bind_internal(&b, 0, &a, 0).unwrap();
    let b_port = h.connect(&b, 1, "s0").unwrap();
    h.start(&a).unwrap();
    h.start(&b).unwrap();
    let (ai, bi) = (h.vnf_index(&a).unwrap(), h.vnf_index(&b).unwrap());

    let mut looped = Vec::new();
    h.process(ai, 0, frame(1), Time::ZERO, &mut looped);
    assert!(!looped.is_empty(), "each pass through `a` copies one out");
    assert!(looped.iter().all(|(_, p)| p.id == 1));

    let mut next = Vec::new();
    h.process(bi, 1, frame(2), Time::ZERO, &mut next);
    let ids: Vec<u64> = next.iter().map(|(_, p)| p.id).collect();
    assert_eq!(ids, [2], "only the next frame's own output");
    assert_eq!(next[0].0, b_port - 10, "out of `b`'s device 1");
}
