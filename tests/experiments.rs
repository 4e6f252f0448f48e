//! Experiment corpus: every virtual-time table of EXPERIMENTS.md,
//! rendered from the library and pinned in `experiments.txt`.
//!
//! The paper publishes no quantitative tables, so these are the
//! reproduction's answer to it: E1 chain setup, E2 mapping quality, E3
//! steering modes, E4 modelled VNF cost, E5 NETCONF round trips, E7
//! chain latency, E8 isolation and E10 replica scaling. Every number is
//! on the virtual clock, so it is exact per seed; the wall-clock tables
//! live in `crates/bench`. Each test first asserts the shape its table
//! claims, then compares its own `## E…` section with the file byte for
//! byte. One more test holds EXPERIMENTS.md to the file: the numbers of
//! each experiment's Markdown tables must be its corpus rows, in order.
//!
//! A model change re-records the file in one reviewed diff: on a
//! mismatch the corpus, with every section that differed replaced, is
//! written to the target tmp dir as `experiments.actual.txt`, ready to
//! diff or copy over.

use escape::env::Escape;
use escape::flight::Outcome;
use escape::infra::CTRL_LATENCY;
use escape::session::algorithm_by_name;
use escape_catalog::Catalog;
use escape_click::Registry;
use escape_netem::Time;
use escape_orch::workload::{random_service_graph, WorkloadSpec};
use escape_orch::{ChainMapping, Orchestrator};
use escape_packet::{MacAddr, Packet, PacketBuilder};
use escape_pox::SteeringMode::{self, Proactive, Reactive};
use escape_sg::topo::{builders, ResourceTopology};
use escape_sg::ServiceGraph;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};

const CORPUS: &str = include_str!("experiments.txt");

/// The CLI's mapping algorithms, in their shipped configurations.
const ALGORITHMS: [&str; 5] = ["first_fit", "best_fit", "nearest", "backtrack", "anneal"];

/// Stringifies each cell of a table row.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// Renders a section: `## title`, then the `header` names and `rows`
/// right-aligned in columns, then a blank line.
fn section(title: &str, header: &str, rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.split_whitespace().map(String::from).collect();
    let rows = [&[header][..], rows].concat();
    let widths: Vec<usize> = (0..rows[0].len())
        .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = format!("## {title}\n");
    for r in &rows {
        let cells: Vec<String> = r
            .iter()
            .zip(&widths)
            .map(|(cell, &w)| format!("{cell:>w$}"))
            .collect();
        out.push_str(&cells.join("  "));
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Byte range of the section whose title line is `title`: up to the
/// next `## ` line, or the end of the document.
fn span(doc: &str, title: &str) -> Option<(usize, usize)> {
    let mut at = 0;
    let start = doc.split_inclusive('\n').find_map(|line| {
        let start = at;
        at += line.len();
        (line.trim_end() == title).then_some(start)
    })?;
    let end = doc[start..]
        .find("\n## ")
        .map_or(doc.len(), |i| start + i + 1);
    Some((start, end))
}

/// Compares a rendered section with the corpus section of the same
/// title. On a mismatch, records it in `experiments.actual.txt` (which
/// holds every mismatch of this run) and fails.
fn check(rendered: &str) {
    let title = rendered.lines().next().expect("a section has a title");
    if span(CORPUS, title).map(|(a, b)| &CORPUS[a..b]) == Some(rendered) {
        return;
    }
    static ACTUAL: Mutex<Option<String>> = Mutex::new(None);
    let mut actual = ACTUAL.lock().unwrap_or_else(PoisonError::into_inner);
    let doc = actual.get_or_insert_with(|| CORPUS.to_string());
    match span(doc, title) {
        Some((a, b)) => doc.replace_range(a..b, rendered),
        None => doc.push_str(rendered),
    }
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("experiments.actual.txt");
    std::fs::write(&path, doc.as_bytes()).expect("writing the actual corpus");
    panic!(
        "`{title}` differs from tests/experiments.txt; current corpus written to {}",
        path.display()
    );
}

fn env(topo: ResourceTopology, algorithm: &str, mode: SteeringMode, seed: u64) -> Escape {
    let algorithm = algorithm_by_name(algorithm).expect("a shipped algorithm");
    Escape::build(topo, algorithm, mode, seed).expect("env builds")
}

/// `sap0 → v0 → … → sap1`: `n` monitors of 0.25 CPU, 10 Mbit/s.
fn monitor_chain(n: usize) -> ServiceGraph {
    let mut sg = ServiceGraph::new().sap("sap0").sap("sap1");
    let mut hops = vec!["sap0".to_string()];
    for i in 0..n {
        sg = sg.vnf(&format!("v{i}"), "monitor", 0.25, 32);
        hops.push(format!("v{i}"));
    }
    hops.push("sap1".to_string());
    let refs: Vec<&str> = hops.iter().map(String::as_str).collect();
    sg.chain("c", &refs, 10.0, None)
}

fn mean_us(sum_ns: u64, n: u64) -> u64 {
    sum_ns / n.max(1) / 1_000
}

#[test]
fn e1_setup_is_linear_in_chain_length_and_netconf_dominates() {
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for n in [1u64, 2, 3, 4, 6, 8] {
        // One 0.3-CPU container per switch: every VNF lands on its own.
        let mut esc = env(builders::linear(8, 0.3), "nearest", Proactive, 1);
        let rpcs_before = esc.metrics().counter_total("netconf.rpcs_sent");
        let report = esc.deploy(&monitor_chain(n as usize)).expect("deploys");
        let rpcs = esc.metrics().counter_total("netconf.rpcs_sent") - rpcs_before;
        let (total, netconf) = (report.total().as_us(), report.netconf_phase().as_us());
        assert!(
            netconf * 5 >= total * 4,
            "{n} VNFs: NETCONF is {netconf} of {total} us, under 80 %"
        );
        totals.push((n, total));
        let (steering, rules) = (report.steering_phase().as_us(), report.chains[0].rules);
        rows.push(row![n, total, netconf, steering, rpcs, rules]);
    }
    // Linear: every total lies within a tenth of the per-VNF slope of
    // the line through the shortest and the longest chain.
    let ((n0, t0), (n1, t1)) = (totals[0], totals[totals.len() - 1]);
    let slope = (t1 - t0) / (n1 - n0);
    for &(n, t) in &totals {
        let line = t0 + (n - n0) * slope;
        assert!(
            t.abs_diff(line) * 10 <= slope,
            "{n} VNFs: total {t} us is off the line ({line} us)"
        );
    }
    check(&section(
        "E1 chain setup latency vs chain length (virtual us; linear(8), one VNF per container)",
        "vnfs total_us netconf_us steering_us rpcs rules",
        &rows,
    ));
}

/// Embeds `sg` with the named algorithm; one row: accepted, mean mapped
/// delay, mean hops.
fn e2_row(size: &str, name: &str, topo: &ResourceTopology, sg: &ServiceGraph) -> Vec<String> {
    let algorithm = algorithm_by_name(name).expect("a shipped algorithm");
    let mut orch = Orchestrator::new(topo.clone(), algorithm).expect("orchestrator");
    let (ok, _) = orch.embed_graph(sg);
    let n = ok.len().max(1);
    let delay = ok.iter().map(|m| m.total_delay_us).sum::<u64>() / n as u64;
    let hops = ok.iter().map(ChainMapping::hop_count).sum::<usize>() as f64 / n as f64;
    let accepted = format!("{}/{}", ok.len(), sg.chains.len());
    row![size, name, accepted, delay, format!("{hops:.1}")]
}

#[test]
fn e2_nearest_maps_no_longer_paths_than_first_fit() {
    let mut rows = Vec::new();
    for leaves in [4usize, 8, 16, 32] {
        let topo = builders::star(leaves, 4.0);
        let spec = WorkloadSpec {
            chains: leaves,
            vnfs_per_chain: (1, 3),
            cpu: (0.5, 1.5),
            bandwidth_mbps: (20.0, 80.0),
            max_delay_us: Some(2_000),
            seed: 42,
        };
        let sg = random_service_graph(&topo, &spec).expect("workload fits the star");
        let mut delay = Vec::new();
        for name in ALGORITHMS {
            // Backtracking is exponential: past 8 leaves it hits its budget.
            if name == "backtrack" && leaves > 8 {
                continue;
            }
            let r = e2_row(&leaves.to_string(), name, &topo, &sg);
            delay.push((name, r[3].parse::<u64>().expect("a mean delay")));
            rows.push(r);
        }
        let of = |want| delay.iter().find(|(n, _)| *n == want).map(|d| d.1);
        assert!(
            of("nearest") <= of("first_fit"),
            "{leaves} leaves: nearest maps longer paths than first_fit ({delay:?})"
        );
    }
    // The end-to-end harness's substrate and load: 2 spines, 10 leaves,
    // 80 one-core containers, 120 two-VNF chains.
    let topo = builders::leaf_spine(2, 10, 8, 4, 1.0);
    let spec = WorkloadSpec {
        chains: 120,
        vnfs_per_chain: (2, 2),
        cpu: (0.25, 0.4),
        bandwidth_mbps: (10.0, 10.0),
        max_delay_us: None,
        seed: 42,
    };
    let sg = random_service_graph(&topo, &spec).expect("workload fits the fabric");
    rows.push(e2_row("fabric", "nearest", &topo, &sg));
    check(&section(
        "E2 mapping quality (star topologies, 2 ms delay budget; fabric = the harness's leaf-spine)",
        "leaves algorithm accepted mean_delay_us mean_hops",
        &rows,
    ));
}

#[test]
fn e3_reactive_steering_pays_on_the_first_packet() {
    let mut rows = Vec::new();
    let mut first = Vec::new();
    for (name, mode) in [("proactive", Proactive), ("reactive", Reactive)] {
        let mut esc = env(builders::linear(2, 4.0), "first_fit", mode, 3);
        esc.deploy(&monitor_chain(1)).expect("deploys");
        esc.enable_flight_recorder(1 << 12);
        esc.start_udp("sap0", "sap1", 128, 1_000, 20)
            .expect("stream");
        esc.run_for_ms(100);
        let stats = esc.sap_stats("sap1").expect("sap1");
        // The earliest-born frame that arrived.
        let first_pkt = esc
            .flight_record()
            .journeys
            .iter()
            .filter(|j| matches!(j.outcome, Outcome::Delivered { .. }))
            .min_by_key(|j| (j.started_at(), j.packet_id))
            .and_then(|j| j.e2e_latency_ns())
            .expect("a frame was delivered")
            / 1_000;
        let m = esc.metrics();
        let pins = m.counter_total("pox.packet_ins");
        let mods = m.counter_total("pox.flow_mods");
        assert_eq!(pins == 0, mode == Proactive, "{name}: {pins} packet-ins");
        first.push(first_pkt);
        let mean = mean_us(stats.latency_sum_ns, stats.latency_samples);
        rows.push(row![name, first_pkt, mean, pins, mods]);
    }
    assert!(
        first[1] > first[0],
        "reactive's first packet ({} us) is not slower than proactive's ({} us)",
        first[1],
        first[0]
    );
    check(&section(
        "E3 steering modes (1-VNF chain, 20 frames of 128 B, 1 ms apart)",
        "mode first_pkt_us mean_lat_us packet_ins flow_mods",
        &rows,
    ));
}

#[test]
fn e4_only_dpi_cost_grows_with_frame_size() {
    let mut rows = Vec::new();
    let catalog = Catalog::standard();
    // Every type with a plain port-0 → port-1 forward path.
    for name in catalog.names() {
        if catalog.get(name).map(|t| t.ports) != Some(2) {
            continue;
        }
        let mut costs = Vec::new();
        for len in [64, 512, 1500] {
            let mut router = catalog
                .build_router(name, &[], &Registry::standard(), 1)
                .expect("catalog type builds");
            let (mac, ip) = (MacAddr::from_id, Ipv4Addr::new);
            let data = PacketBuilder::udp_with_len(
                mac(1),
                mac(2),
                ip(10, 0, 0, 1),
                ip(10, 0, 0, 2),
                4_000,
                8_000,
                len,
            );
            let work: u64 = (0..100)
                .map(|id| {
                    let (data, born_ns) = (data.clone(), 0);
                    let pkt = Packet { data, id, born_ns };
                    router.push_external(0, pkt, Time::from_us(id)).work_ns
                })
                .sum();
            costs.push(work / 100);
        }
        if name == "dpi" {
            assert!(costs.windows(2).all(|w| w[0] < w[1]), "dpi: {costs:?}");
        } else {
            assert!(costs.iter().all(|&c| c == costs[0]), "{name}: {costs:?}");
        }
        rows.push(row![name, costs[0], costs[1], costs[2]]);
    }
    check(&section(
        "E4 modelled CPU cost per packet (ns, what the cgroup model charges)",
        "vnf 64B_ns 512B_ns 1500B_ns",
        &rows,
    ));
}

#[test]
fn e5_netconf_phase_is_four_round_trips_and_a_hello() {
    let mut esc = env(builders::linear(2, 4.0), "first_fit", Proactive, 11);
    let latency = |esc: &Escape| {
        let m = esc.metrics();
        let h = m.histogram("netconf.rpc_latency_ns", &[]);
        h.map_or((0, 0), |h| (h.count, h.sum))
    };
    let before = latency(&esc);
    let report = esc.deploy(&monitor_chain(1)).expect("deploys");
    let after = latency(&esc);
    let (rpcs, sum_ns) = (after.0 - before.0, after.1 - before.1);
    let phase_ns = report.netconf_phase().as_ns();
    let mean_ns = sum_ns / rpcs.max(1);
    assert!(
        mean_ns >= 2 * CTRL_LATENCY.as_ns() && sum_ns <= phase_ns,
        "{rpcs} RPCs of {mean_ns} ns in a {phase_ns} ns phase"
    );
    let us = |ns: u64| ns / 1_000;
    let hello = phase_ns - sum_ns;
    check(&section(
        "E5 NETCONF round trips of one VNF's bring-up (virtual us; 200 us control latency one way)",
        "phase_us rpcs rpc_mean_us rpc_sum_us hello_us",
        &[row![us(phase_ns), rpcs, us(mean_ns), us(sum_ns), us(hello)]],
    ));
}

#[test]
fn e7_latency_grows_with_chain_length_above_the_mapped_delay() {
    let mut rows = Vec::new();
    let mut last = 0;
    for n in [0usize, 1, 2, 3, 4, 6] {
        let mut esc = env(builders::linear(6, 0.3), "nearest", Proactive, 7);
        esc.deploy(&monitor_chain(n)).expect("deploys");
        let map_delay = esc.deployed("c").expect("deployed").mapping.total_delay_us;
        esc.start_udp("sap0", "sap1", 256, 500, 50).expect("stream");
        esc.run_for_ms(200);
        let stats = esc.sap_stats("sap1").expect("sap1");
        let mean = mean_us(stats.latency_sum_ns, stats.latency_samples);
        assert!(mean > last, "{n} VNFs: mean {mean} us, not above {last}");
        assert!(
            map_delay <= mean,
            "{n} VNFs: mapped {map_delay} > {mean} us"
        );
        last = mean;
        let max = stats.latency_max_ns / 1_000;
        rows.push(row![n, mean, max, map_delay, stats.udp_rx]);
    }
    check(&section(
        "E7 end-to-end latency vs chain length (virtual us; linear(6), 50 frames of 256 B)",
        "vnfs mean_us max_us map_delay_us delivered",
        &rows,
    ));
}

/// Victim's mean latency (µs) and the noisy chain's delivered frames,
/// with the noisy DPI under `isolation`.
fn e8_run(isolation: Option<&str>) -> (u64, u64) {
    // One 4-CPU container between two switches: both VNFs co-locate.
    let mut t = ResourceTopology::new();
    t.add_switch("s0").add_switch("s1");
    t.add_container("c0", 4.0, 4096);
    for (sap, sw) in [
        ("sap0", "s0"),
        ("sap1", "s1"),
        ("sap2", "s0"),
        ("sap3", "s1"),
    ] {
        t.add_sap(sap).add_link(sap, sw, 1000.0, 10);
    }
    t.add_link("s0", "s1", 1000.0, 50)
        .add_link("c0", "s0", 1000.0, 20)
        .add_link("c0", "s1", 1000.0, 20);
    let mut esc = env(t, "first_fit", Proactive, 8);
    let mut sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .sap("sap2")
        .sap("sap3")
        .vnf("victim", "monitor", 0.5, 64)
        .chain("quiet", &["sap0", "victim", "sap1"], 10.0, None)
        .vnf("noisy", "dpi", 0.5, 64);
    if let Some(spec) = isolation {
        sg = sg.with_params(&[("isolation", spec)]);
    }
    let sg = sg.chain("loud", &["sap2", "noisy", "sap3"], 10.0, None);
    esc.deploy(&sg).expect("deploys");
    // 1400 B through the DPI every 8 µs: about 140 % of the CPU.
    esc.start_udp("sap2", "sap3", 1400, 8, 3_000)
        .expect("noisy");
    esc.start_udp("sap0", "sap1", 128, 500, 100)
        .expect("victim");
    esc.run_for_ms(100);
    let victim = esc.sap_stats("sap1").expect("sap1");
    let noisy = esc.sap_stats("sap3").expect("sap3").udp_rx;
    (
        mean_us(victim.latency_sum_ns, victim.latency_samples),
        noisy,
    )
}

#[test]
fn e8_isolation_protects_the_victim_and_quota_throttles_the_noisy_vnf() {
    let modes = [
        ("none", None),
        ("share_1/4", Some("share:1:4")),
        ("quota_2ms/10ms", Some("quota:2000000:10000000")),
    ];
    let runs: Vec<(u64, u64)> = modes.iter().map(|(_, spec)| e8_run(*spec)).collect();
    let [none, share, quota] = [runs[0], runs[1], runs[2]];
    assert!(
        none.0 > share.0 && none.0 > quota.0,
        "victim mean: none {none:?}, share {share:?}, quota {quota:?}"
    );
    assert!(quota.1 < none.1, "noisy rx: quota {quota:?}, none {none:?}");
    let rows: Vec<_> = modes
        .iter()
        .zip(&runs)
        .map(|((label, _), (victim, noisy))| row![label, victim, noisy])
        .collect();
    check(&section(
        "E8 co-located victim monitor and noisy DPI under the DPI's isolation (virtual us)",
        "noisy_isolation victim_mean_us noisy_rx",
        &rows,
    ));
}

/// E10's firewall: 149 decoy denies no frame matches (the stream's dst
/// port is 9000), then `allow all`. IPFilter cost is linear in the rule
/// count, so a packet costs about 100 + 20·150 ns.
const FW_RULES: usize = 150;
/// Concurrent flows: distinct source ports hash to distinct buckets.
const FLOWS: u16 = 32;
/// Per-flow gap: 32 flows every 18 µs ≈ 1.78 Mpps of 64 B frames, far
/// above one replica's ~316 kpps.
const INTERVAL_US: u64 = 18;
const FRAME_LEN: usize = 64;
const WINDOW_MS: u64 = 16;

/// `sap0 - s0 - c0 - s1 - sap1`, the container dual-homed so 8 replicas'
/// attachment points fit, and the chain deployed at `replicas`
/// `share:1:1` firewalls (each its own full-speed CPU lane).
fn e10_env(replicas: u32) -> Escape {
    let mut t = ResourceTopology::new();
    t.add_sap("sap0").add_sap("sap1");
    t.add_switch("s0").add_switch("s1");
    t.add_container("c0", 8.0, 2048)
        .add_link("sap0", "s0", 1000.0, 10)
        .add_link("s0", "c0", 1000.0, 20)
        .add_link("c0", "s1", 1000.0, 20)
        .add_link("s1", "sap1", 1000.0, 10);
    let mut esc = env(t, "first_fit", Proactive, 7);
    let mut rules: Vec<String> = (1..FW_RULES)
        .map(|i| format!("deny udp and dst port {}", 20_000 + i))
        .collect();
    rules.push("allow all".into());
    let rules = rules.join(", ");
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("fw", "firewall", 0.5, 128)
        .with_params(&[("isolation", "share:1:1"), ("rules", &rules)])
        .chain("demo", &["sap0", "fw", "sap1"], 100.0, None);
    esc.deploy(&sg).expect("deploys");
    if replicas > 1 {
        esc.scale_chain("demo", "fw", replicas).expect("scales");
    }
    esc
}

fn e10_start_flows(esc: &mut Escape, frames: u64) {
    for f in 0..FLOWS {
        esc.start_udp_with_sport("sap0", "sap1", FRAME_LEN, INTERVAL_US, frames, 41_000 + f)
            .expect("stream");
    }
}

/// (offered, delivered, mean latency µs, max latency µs) over the window.
type E10Run = (u64, u64, u64, u64);

fn e10_run(replicas: u32) -> E10Run {
    let mut esc = e10_env(replicas);
    let frames = WINDOW_MS * 1_000 / INTERVAL_US;
    e10_start_flows(&mut esc, frames);
    esc.run_for_ms(WINDOW_MS);
    let sink = esc.sap_stats("sap1").expect("sap1");
    let mean = mean_us(sink.latency_sum_ns, sink.latency_samples);
    let offered = frames * FLOWS as u64;
    (offered, sink.udp_rx, mean, sink.latency_max_ns / 1_000)
}

/// The single-replica run every other row is measured against, shared
/// by the tests that run concurrently.
fn e10_one() -> E10Run {
    static ONE: OnceLock<E10Run> = OnceLock::new();
    *ONE.get_or_init(|| e10_run(1))
}

/// Runs `replicas` and renders its row: (speedup over one, section).
fn e10_row(replicas: u32) -> (f64, String) {
    let run = if replicas == 1 {
        e10_one()
    } else {
        e10_run(replicas)
    };
    let (offered, delivered, mean, max) = run;
    let speedup = delivered as f64 / e10_one().1 as f64;
    let (pps, gain) = (delivered * 1_000 / WINDOW_MS, format!("{speedup:.2}x"));
    let plural = if replicas == 1 { "" } else { "s" };
    let title = format!(
        "E10 {replicas} firewall replica{plural}: {FLOWS} flows, {FW_RULES}-rule IPFilter, {WINDOW_MS} ms window (virtual)"
    );
    let header = "replicas offered delivered pps mean_us max_us speedup";
    let r = row![replicas, offered, delivered, pps, mean, max, gain];
    (speedup, section(&title, header, &[r]))
}

#[test]
fn e10_one_replica() {
    check(&e10_row(1).1);
}

#[test]
fn e10_two_replicas_deliver_at_least_one_and_a_half_times_one() {
    let (speedup, rendered) = e10_row(2);
    assert!(
        speedup >= 1.5,
        "E10: 2 replicas deliver {speedup:.2}x one replica, under the 1.5x floor"
    );
    check(&rendered);
}

#[test]
fn e10_four_replicas() {
    check(&e10_row(4).1);
}

#[test]
fn e10_eight_replicas() {
    check(&e10_row(8).1);
}

#[test]
fn e10_cutovers_under_live_traffic() {
    let mut esc = e10_env(1);
    e10_start_flows(&mut esc, 4_000);
    esc.run_for_ms(2);
    let mut rows = Vec::new();
    for (from, to) in [(1u32, 2u32), (2, 4), (4, 8)] {
        let report = esc.scale_chain("demo", "fw", to).expect("scales");
        assert_eq!((report.from, report.to), (from, to));
        let cutover = format!("{:.1}", report.cutover_latency().as_ns() as f64 / 1e3);
        rows.push(row![from, to, cutover]);
        esc.run_for_ms(2);
    }
    check(&section(
        "E10 make-before-break cutovers under the same live traffic (virtual us)",
        "from to cutover_us",
        &rows,
    ));
}

/// Experiments whose Markdown section ends in wall-clock tables that
/// have no corpus rows.
const WALL_CLOCK_TAIL: [&str; 2] = ["E2", "E4"];

/// The numeric value of a cell or corpus token — `**` and a trailing
/// `×`/`x` stripped, digit-group spaces joined, `a/b` one token — or
/// `None` for a label.
fn numeric(cell: &str) -> Option<String> {
    let cell = cell.replace("**", "");
    let cell = cell.trim().trim_end_matches(['×', 'x']);
    let mut groups = cell.split(' ');
    let mut token = groups.next()?.to_string();
    for g in groups {
        let digits = g.bytes().take_while(u8::is_ascii_digit).count();
        if digits != 3 {
            return None;
        }
        token.push_str(g);
    }
    let number = |s: &str| {
        let (int, frac) = s.split_once('.').unwrap_or((s, "0"));
        [int, frac]
            .iter()
            .all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()))
    };
    let (a, b) = token.split_once('/').unwrap_or((&token, "0"));
    (number(a) && number(b)).then_some(token)
}

/// `(experiment id, data rows)` per experiment of the corpus, its
/// sections' rows concatenated in file order; a row is its numeric
/// tokens.
fn corpus_rows() -> Vec<(String, Vec<Vec<String>>)> {
    let mut out: Vec<(String, Vec<Vec<String>>)> = Vec::new();
    for block in CORPUS.split("\n## ").skip(1) {
        let mut lines = block.lines().filter(|l| !l.trim().is_empty());
        let id = lines.next().and_then(|t| t.split(' ').next());
        let id = id.expect("a section has a title").to_string();
        let rows = lines
            .skip(1) // column names
            .map(|l| l.split_whitespace().filter_map(numeric).collect());
        match out.last_mut() {
            Some((last, acc)) if *last == id => acc.extend(rows),
            _ => out.push((id, rows.collect())),
        }
    }
    out
}

/// The Markdown tables under EXPERIMENTS.md's `## {id} —` heading, each
/// as its data rows of numeric cells.
fn doc_tables(doc: &str, id: &str) -> Vec<Vec<Vec<String>>> {
    let heading = format!("## {id} —");
    let start = doc
        .find(&heading)
        .unwrap_or_else(|| panic!("no `{heading}`"));
    let body = &doc[start + heading.len()..];
    let body = &body[..body.find("\n## ").unwrap_or(body.len())];
    let mut tables: Vec<Vec<Vec<String>>> = Vec::new();
    let mut in_table = false;
    for line in body.lines() {
        let Some(cells) = line.trim().strip_prefix('|') else {
            in_table = false;
            continue;
        };
        if !in_table {
            // The header row opens a table; the `|---|` rule follows.
            tables.push(Vec::new());
            in_table = true;
            continue;
        }
        if cells.starts_with("---") {
            continue;
        }
        let row = cells.split('|').filter_map(numeric).collect();
        tables.last_mut().expect("a table is open").push(row);
    }
    tables
}

#[test]
fn experiments_md_tables_match_the_corpus() {
    const DOC: &str = include_str!("../EXPERIMENTS.md");
    for (id, corpus) in corpus_rows() {
        let tables = doc_tables(DOC, &id);
        // Whole tables, in order, until the corpus rows run out.
        let mut doc = Vec::new();
        let mut used = 0;
        while doc.len() < corpus.len() && used < tables.len() {
            doc.extend(tables[used].iter().cloned());
            used += 1;
        }
        assert_eq!(
            doc, corpus,
            "EXPERIMENTS.md's {id} tables drift from the corpus"
        );
        assert!(
            used == tables.len() || WALL_CLOCK_TAIL.contains(&id.as_str()),
            "{id} has {} tables past the corpus rows",
            tables.len() - used
        );
    }
}
