//! The dataplane, and the flight recorder on it, add no heap allocation
//! per frame once they are warm.
//!
//! A counting global allocator tallies this thread's allocations. Two
//! environments run the same chain under the same stream, one with the
//! recorder off and one with a ring small enough to wrap; after a
//! warm-up, both must allocate exactly as often over the same stretch of
//! virtual time. A recorder that copies a name, a path or a payload per
//! frame shows up as thousands of extra allocations. With the recorder
//! off, the count itself is pinned: nothing for chains that only read
//! headers, one new frame for each frame a NAT, `DecIPTTL`, `SetIPDSCP`
//! or an OpenFlow set-field action rewrites.

use bytes::Bytes;
use escape::env::Escape;
use escape_netem::{LinkConfig, NodeCtx, NodeLogic, Sim, Time};
use escape_openflow::{Action, FlowEntry, Match, Switch};
use escape_orch::NearestNeighbor;
use escape_packet::{MacAddr, Packet, PacketBuilder};
use escape_pox::SteeringMode;
use escape_sg::{topo::builders, ServiceGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by the second 100 ms of a fw+monitor chain carrying
/// one frame every 20 µs, with a trace ring of `ring` records (0: off).
fn steady_allocs(ring: usize) -> u64 {
    chain_allocs(ring, "firewall", "monitor")
}

/// Allocations made by the second 100 ms (5 000 frames) of a chain of a
/// `first` and a `second` VNF on `linear(3)`, with a trace ring of `ring`
/// records (0: off).
fn chain_allocs(ring: usize, first: &str, second: &str) -> u64 {
    let topo = builders::linear(3, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(NearestNeighbor), SteeringMode::Proactive, 7).unwrap();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("v1", first, 1.0, 256)
        .vnf("v2", second, 0.5, 64)
        .chain("demo", &["sap0", "v1", "v2", "sap1"], 100.0, Some(50_000));
    esc.deploy(&sg).unwrap();
    esc.enable_flight_recorder(ring);
    esc.start_udp("sap0", "sap1", 128, 20, 1_000_000).unwrap();
    esc.run_for_ms(100);
    if ring > 0 {
        let trace = esc.sim.trace.as_ref().expect("recorder on");
        assert!(trace.evicted() > 0, "the warm-up wraps the ring");
    }
    let before = allocs();
    esc.run_for_ms(100);
    let made = allocs() - before;
    let delivered = esc.metrics().counter("netem.frames_delivered", &[]);
    assert!(delivered > Some(10_000), "the stream flowed: {delivered:?}");
    made
}

#[test]
fn the_recorder_allocates_nothing_per_frame() {
    let off = steady_allocs(0);
    let on = steady_allocs(4_096);
    assert_eq!(
        on, off,
        "a wrapping recorder made {on} allocations where none made {off}"
    );
}

#[test]
fn the_dataplane_allocates_only_the_frames_a_nat_rewrites() {
    for (first, second) in [("firewall", "monitor"), ("dpi", "firewall")] {
        let made = chain_allocs(0, first, second);
        assert_eq!(
            made, 0,
            "{first}+{second}: {made} allocations in 5 000 frames"
        );
    }
    for (first, second) in [
        ("monitor", "nat"),
        ("ttl_guard", "monitor"),
        ("qos_marker", "monitor"),
    ] {
        let made = chain_allocs(0, first, second);
        assert_eq!(
            made, 5_000,
            "{first}+{second}: {made} allocations in 5 000 frames"
        );
    }
}

/// Counts the frames it receives, and keeps none.
#[derive(Default)]
struct Count(u64);

impl NodeLogic for Count {
    fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, _: Packet) {
        self.0 += 1;
    }
}

#[test]
fn a_set_field_rule_allocates_one_frame_per_frame() {
    let mut sim = Sim::new(7);
    let sw = sim.add_node("s1", 2, Box::new(Switch::new(1, 2)));
    let sink = sim.add_node("h1", 1, Box::new(Count::default()));
    sim.connect((sw, 1), (sink, 0), LinkConfig::ideal());
    let actions = vec![
        Action::SetNwSrc(Ipv4Addr::new(172, 16, 0, 1)),
        Action::out(1),
    ];
    let rule = FlowEntry::new(Match::any(), 1, actions, Time::ZERO);
    sim.node_as_mut::<Switch>(sw)
        .expect("switch")
        .table
        .add(rule);
    let frame = PacketBuilder::udp(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        1000,
        2000,
        Bytes::from(vec![0u8; 86]),
    );
    let send = |sim: &mut Sim, n: u64| {
        for _ in 0..n {
            sim.inject(sw, 0, frame.clone(), sim.now());
            sim.run(100);
        }
    };
    send(&mut sim, 1_000);
    let before = allocs();
    send(&mut sim, 5_000);
    let made = allocs() - before;
    let received = sim.node_as::<Count>(sink).expect("sink").0;
    assert_eq!(received, 6_000, "every frame crossed the switch");
    assert_eq!(made, 5_000, "{made} allocations in 5 000 frames");
}
