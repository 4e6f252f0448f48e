//! E10 — Elastic VNF scaling: aggregate chain throughput and tail
//! latency at 1/2/4/8 firewall replicas, plus the make-before-break
//! migration cutover cost.
//!
//! The workload is a single `sap0 → fw → sap1` chain whose firewall
//! carries a production-size IPFilter ruleset ([`FW_RULES`] rules, every
//! packet scans all of them), so per-packet Click CPU cost dominates and
//! one replica saturates well below the offered load. Replicas run under
//! `isolation=share:1:1`, i.e. each gets its own full-speed CPU lane
//! (the multi-core model), so capacity should scale with the replica
//! count until per-bucket offered load drops below one replica's
//! capacity. Offered load is [`FLOWS`] UDP flows with distinct source
//! ports, which the FlowKey hash spreads across the steering buckets.
//!
//! All headline numbers are measured in *virtual* time and are therefore
//! deterministic — byte-identical across machines and repeats; only the
//! informational `wall_ms` column varies. The bench fails unless 2
//! replicas deliver at least [`GATE_SPEEDUP`]× the single-replica
//! throughput — an exact check, so it needs no switch.

use criterion::{criterion_group, criterion_main, Criterion};
use escape::env::Escape;
use escape::flight::Outcome;
use escape_orch::GreedyFirstFit;
use escape_pox::SteeringMode;
use escape_sg::ServiceGraph;
use std::time::Instant;

/// Replica counts swept for the throughput/latency table.
const REPLICAS: &[u32] = &[1, 2, 4, 8];
/// IPFilter rules in the firewall (149 decoy denies + `allow all`), so
/// per-packet cost ≈ 100 + 20·150 ns ≈ 3.1 µs — one replica tops out
/// around 300 kpps of virtual capacity.
const FW_RULES: usize = 150;
/// Concurrent UDP flows (distinct source ports → distinct hash buckets).
const FLOWS: u16 = 32;
/// Per-flow inter-frame gap; 32 flows / 18 µs ≈ 1.78 Mpps offered, below
/// the ~1.95 Mpps wire rate of the 64-byte frames but far above what one
/// ~316 kpps replica can absorb.
const INTERVAL_US: u64 = 18;
/// UDP frame length on the wire; small frames keep the 1 Gb/s ingress
/// from capping the sweep before 8 replicas do.
const FRAME_LEN: usize = 64;
/// Virtual measurement window.
const WINDOW_MS: u64 = 16;
/// Gate: 2 replicas must deliver at least this multiple of 1 replica.
const GATE_SPEEDUP: f64 = 1.5;

struct RunResult {
    replicas: u32,
    wall_ms: f64,
    offered: u64,
    delivered: u64,
    /// Delivered frames per virtual second.
    pps_virtual: f64,
    /// p99 end-to-end latency (virtual µs) over delivered frames.
    p99_us: f64,
    dropped: u64,
}

/// The firewall ruleset: decoy denies no bench frame matches (the
/// stream's dst port is 9000) terminated by `allow all`. IPFilter cost
/// is linear in the rule count regardless of which rule matches.
fn fw_rules() -> String {
    let mut rules: Vec<String> = (1..FW_RULES)
        .map(|i| format!("deny udp and dst port {}", 20_000 + i))
        .collect();
    rules.push("allow all".into());
    rules.join(", ")
}

/// `sap0 - s0 - c0 - s1 - sap1` with the container dual-homed: replica
/// in-devices attach toward s0 and out-devices toward s1, so each
/// doubling consumes one attachment point per adjacency and the full
/// 8-replica fan-out fits (a single-homed container burns two points
/// per replica on the same switch and tops out at 4).
fn scale_fabric(cpu: f64) -> escape_sg::topo::ResourceTopology {
    let mut t = escape_sg::topo::ResourceTopology::new();
    t.add_sap("sap0").add_sap("sap1");
    t.add_switch("s0").add_switch("s1");
    t.add_container("c0", cpu, 2048);
    t.add_link("sap0", "s0", 1000.0, 10);
    t.add_link("s0", "c0", 1000.0, 20);
    t.add_link("c0", "s1", 1000.0, 20);
    t.add_link("s1", "sap1", 1000.0, 10);
    t
}

/// Builds the environment and deploys the chain with `replicas` firewall
/// replicas already promoted (for `replicas > 1`, one make-before-break
/// migration before any traffic).
fn build(replicas: u32) -> Escape {
    let topo = scale_fabric(8.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 7).unwrap();
    let rules = fw_rules();
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 0.5, 128)
        .with_params(&[("isolation", "share:1:1"), ("rules", &rules)])
        .chain("demo", &["sap0", "fw", "sap1"], 100.0, None);
    esc.deploy(&sg).unwrap();
    if replicas > 1 {
        esc.scale_chain("demo", "fw", replicas).unwrap();
    }
    esc
}

/// Offers [`FLOWS`] paced flows for [`WINDOW_MS`] of virtual time and
/// measures what the chain delivered inside the window.
fn run_throughput(replicas: u32) -> RunResult {
    let mut esc = build(replicas);
    esc.enable_flight_recorder(1 << 20);
    let frames_per_flow = WINDOW_MS * 1_000 / INTERVAL_US;
    for f in 0..FLOWS {
        esc.start_udp_with_sport(
            "sap0",
            "sap1",
            FRAME_LEN,
            INTERVAL_US,
            frames_per_flow,
            41_000 + f,
        )
        .unwrap();
    }
    let t0 = Instant::now();
    esc.run_for_ms(WINDOW_MS);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let delivered = esc.sap_stats("sap1").unwrap().udp_rx;
    let fr = esc.flight_record_aggregated();
    let mut lat: Vec<u64> = fr
        .journeys
        .iter()
        .filter_map(|j| j.e2e_latency_ns())
        .collect();
    lat.sort_unstable();
    let p99_us = if lat.is_empty() {
        0.0
    } else {
        lat[(lat.len() - 1).min(lat.len() * 99 / 100)] as f64 / 1e3
    };
    let dropped = fr
        .journeys
        .iter()
        .filter(|j| matches!(j.outcome, Outcome::Dropped { .. }))
        .count() as u64;
    RunResult {
        replicas,
        wall_ms,
        offered: frames_per_flow * FLOWS as u64,
        delivered,
        pps_virtual: delivered as f64 / (WINDOW_MS as f64 / 1e3),
        p99_us,
        dropped,
    }
}

/// Measures the make-before-break cutover window (first reservation →
/// atomic rule swap, in virtual µs) for each doubling transition, with
/// the same saturating traffic mix live during the migration.
fn run_cutovers() -> Vec<(u32, u32, f64, f64)> {
    let mut esc = build(1);
    for f in 0..FLOWS {
        esc.start_udp_with_sport("sap0", "sap1", FRAME_LEN, INTERVAL_US, 4_000, 41_000 + f)
            .unwrap();
    }
    esc.run_for_ms(2);
    let mut out = Vec::new();
    for &(from, to) in &[(1u32, 2u32), (2, 4), (4, 8)] {
        let t0 = Instant::now();
        let report = esc.scale_chain("demo", "fw", to).unwrap();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!((report.from, report.to), (from, to));
        out.push((
            from,
            to,
            report.cutover_latency().as_ns() as f64 / 1e3,
            wall_ms,
        ));
        esc.run_for_ms(2);
    }
    out
}

fn print_table() {
    println!(
        "\nE10: elastic VNF scaling (firewall chain, {FW_RULES}-rule IPFilter, {FLOWS} flows)"
    );
    println!(
        "{:>9} {:>9} {:>10} {:>12} {:>11} {:>8} {:>10}",
        "replicas", "offered", "delivered", "pps_virtual", "p99_us", "drops", "wall_ms"
    );
    let mut runs = Vec::new();
    let mut results = Vec::new();
    for &n in REPLICAS {
        let r = run_throughput(n);
        println!(
            "{:>9} {:>9} {:>10} {:>12.0} {:>11.1} {:>8} {:>10.2}",
            r.replicas, r.offered, r.delivered, r.pps_virtual, r.p99_us, r.dropped, r.wall_ms
        );
        runs.push(
            escape_json::Value::obj()
                .set("replicas", r.replicas as u64)
                .set("offered_frames", r.offered)
                .set("delivered_frames", r.delivered)
                .set("pps_virtual", r.pps_virtual)
                .set("p99_latency_us", r.p99_us)
                .set("dropped_frames", r.dropped)
                .set("wall_ms", r.wall_ms),
        );
        results.push(r);
    }

    let base = results[0].pps_virtual.max(1e-9);
    let speedups: Vec<f64> = results.iter().map(|r| r.pps_virtual / base).collect();
    for (r, s) in results.iter().zip(&speedups) {
        println!(
            "  {} replica(s): {:.2}x aggregate throughput",
            r.replicas, s
        );
    }
    let speedup_2x = speedups[1];

    println!("\n  make-before-break cutover (traffic live):");
    let mut cutovers = Vec::new();
    for (from, to, cutover_us, wall_ms) in run_cutovers() {
        println!("    {from} -> {to}: cutover {cutover_us:.1} virtual us (wall {wall_ms:.2} ms)");
        cutovers.push(
            escape_json::Value::obj()
                .set("from", from as u64)
                .set("to", to as u64)
                .set("cutover_virtual_us", cutover_us)
                .set("wall_ms", wall_ms),
        );
    }

    // The replica speedup is measured in virtual time, so it is exact: a
    // miss means steering or the CPU model stopped scaling capacity with
    // the replica count.
    assert!(
        speedup_2x >= GATE_SPEEDUP,
        "E10 REGRESSION: 2-replica speedup {speedup_2x:.2}x fell below the {GATE_SPEEDUP:.1}x floor"
    );

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let doc = escape_json::Value::obj()
        .set("experiment", "e10_scale")
        .set("host_cpus", host_cpus as u64)
        .set(
            "headline",
            escape_json::Value::obj()
                .set("pps_virtual_1", results[0].pps_virtual)
                .set("pps_virtual_2", results[1].pps_virtual)
                .set("speedup_2x", speedup_2x)
                .set("speedup_4x", speedups[2])
                .set("speedup_8x", speedups[3])
                .set("p99_us_1", results[0].p99_us)
                .set("p99_us_8", results[3].p99_us),
        )
        .set("runs", escape_json::Value::Arr(runs))
        .set("cutovers", escape_json::Value::Arr(cutovers));
    if let Some(path) = escape_bench::write_telemetry_artifact("BENCH_scale", &doc) {
        println!("telemetry artifact: {}", path.display());
    }
    println!("(expected shape: ~Nx aggregate throughput until per-bucket offered load");
    println!(" drops below one replica's capacity; p99 collapses once unsaturated)\n");
}

fn bench(c: &mut Criterion) {
    print_table();
    if std::env::var_os("ESCAPE_BENCH_TABLE_ONLY").is_some() {
        return;
    }
    let mut g = c.benchmark_group("e10_scale");
    g.sample_size(10);
    g.bench_function("scale_1_to_2_under_load", |b| {
        b.iter(|| {
            let mut esc = build(1);
            esc.start_udp("sap0", "sap1", FRAME_LEN, INTERVAL_US, 2_000)
                .unwrap();
            esc.run_for_ms(1);
            let report = esc.scale_chain("demo", "fw", 2).unwrap();
            report.cutover_latency().as_ns()
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
