//! E0 — Dataplane fast path: the exact-match flow cache on the switch
//! hot path, measured as end-to-end packets per wall-clock second.
//!
//! Two scenarios, each run cache-off (every lookup walks the full
//! priority table — the seed behaviour) and cache-on:
//!
//! * `switch_only` — h1 → s1 → h2 with the switch preloaded with a
//!   production-size table of decoy rules, so the O(rules) walk is the
//!   dominant per-packet cost;
//! * `vnf_chain` — the E4-style workload: a monitor VNF chain deployed
//!   through the full ESCAPE stack (NETCONF + POX steering) on a
//!   rules-heavy substrate, traffic crossing three switch lookups and a
//!   Click forward path per frame.
//!
//! Printed and written to `BENCH_dataplane.json` at the repo root: pps
//! cache-off vs cache-on, speedup and cache hit rate per scenario. The
//! snapshot records what the cache buys on the host that took it
//! (`host_cpus` says which); it gates nothing — wall-clock dataplane
//! speed is gated end to end by the harness's `dataplane_bare` workload
//! (`BENCHMARK.json`).

use escape::env::Escape;
use escape_netem::{Host, LinkConfig, Sim, Time};
use escape_openflow::table::FlowEntry;
use escape_openflow::{Action, Match, Switch};
use escape_orch::GreedyFirstFit;
use escape_packet::MacAddr;
use escape_pox::SteeringMode;
use escape_sg::topo::builders;
use escape_sg::ServiceGraph;
use std::net::Ipv4Addr;
use std::time::Instant;

const FRAMES: u64 = 5_000;
const FRAME_LEN: usize = 128;
/// Decoy table sizes for the switch-only sweep.
const TABLE_SIZES: &[usize] = &[1_024, 4_096];
/// Decoy rules per switch in the VNF chain scenario.
const CHAIN_RULES: usize = 2_048;
/// Wall-clock samples per measurement; the fastest is kept.
const SAMPLES: usize = 3;

struct RunResult {
    wall_ms: f64,
    pps: f64,
    delivered: u64,
    hits: u64,
    misses: u64,
}

impl RunResult {
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fills a switch table with `rules` decoy entries no stream frame ever
/// matches (distinct high tp_dst values, below the live rules'
/// priority), forcing the reference walk to scan a production-size
/// table on every lookup.
fn load_decoys(sw: &mut Switch, rules: usize) {
    for i in 0..rules {
        let mut m = Match::any().with_dl_type(0x0800);
        m.tp_dst = Some(20_000 + i as u16);
        let mut e = FlowEntry::new(m, 400, vec![Action::out(0)], Time::ZERO);
        e.cookie = 0xdec0;
        sw.table.add(e);
    }
}

/// h1 → s1 → h2 over ideal links: the switch holds `rules` decoys plus
/// one live rule steering the stream, so per-frame cost is one table
/// lookup plus fixed kernel overhead.
fn run_switch_only(rules: usize, cache_on: bool, frames: u64) -> RunResult {
    let mut sim = Sim::new(7);
    let sw = Switch::with_registry(1, 2, sim.telemetry());
    let sw = sim.add_node("s1", 2, Box::new(sw));
    let (h1_ip, h2_ip) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let h1 = sim.add_node("h1", 1, Box::new(Host::new(MacAddr::from_id(1), h1_ip)));
    let h2 = sim.add_node("h2", 1, Box::new(Host::new(MacAddr::from_id(2), h2_ip)));
    sim.connect((sw, 0), (h1, 0), LinkConfig::ideal());
    sim.connect((sw, 1), (h2, 0), LinkConfig::ideal());
    {
        let s = sim.node_as_mut::<Switch>(sw).unwrap();
        s.set_flow_cache(cache_on);
        load_decoys(s, rules);
        let live = Match::any().with_dl_type(0x0800).with_nw_dst(h2_ip, 32);
        s.table
            .add(FlowEntry::new(live, 500, vec![Action::out(1)], Time::ZERO));
    }
    sim.node_as_mut::<Host>(h1)
        .unwrap()
        .static_arp(h2_ip, MacAddr::from_id(2));
    sim.node_as_mut::<Host>(h1).unwrap().add_stream(
        h2_ip,
        40_000,
        9_000,
        FRAME_LEN,
        Time::from_us(1),
        frames,
    );
    let t0 = Instant::now();
    Host::start_streams(&mut sim, h1, Time::from_us(1));
    sim.run_until(Time::from_us(frames + 1_000));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let delivered = sim.node_as::<Host>(h2).unwrap().stats.udp_rx;
    let m = sim.telemetry();
    RunResult {
        wall_ms,
        pps: delivered as f64 / (wall_ms / 1e3).max(1e-9),
        delivered,
        hits: m.counter_total("openflow.cache_hits"),
        misses: m.counter_total("openflow.cache_misses"),
    }
}

/// The E4-style workload: a monitor chain deployed through the full
/// stack on `linear(2)`, with every switch table padded to
/// [`CHAIN_RULES`] decoys. Each frame crosses three switch lookups
/// (s0 twice around the VNF, s1 once) and the Click forward path.
fn run_vnf_chain(cache_on: bool, frames: u64) -> RunResult {
    let topo = builders::linear(2, 4.0);
    let mut esc =
        Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 7).unwrap();
    esc.set_flow_cache(cache_on);
    let sg = ServiceGraph::new()
        .sap("sap0")
        .sap("sap1")
        .vnf("mon", "monitor", 0.5, 64)
        .chain("c1", &["sap0", "mon", "sap1"], 50.0, None);
    esc.deploy(&sg).unwrap();
    for name in ["s0", "s1"] {
        let node = esc.infra.node(name).unwrap();
        let sw = esc.sim.node_as_mut::<Switch>(node).unwrap();
        load_decoys(sw, CHAIN_RULES);
    }
    let hits0 = esc.metrics().counter_total("openflow.cache_hits");
    let misses0 = esc.metrics().counter_total("openflow.cache_misses");
    esc.start_udp("sap0", "sap1", FRAME_LEN, 1, frames).unwrap();
    let t0 = Instant::now();
    esc.run_for_ms(frames / 1_000 + 20);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let delivered = esc.sap_stats("sap1").unwrap().udp_rx;
    let m = esc.metrics();
    RunResult {
        wall_ms,
        pps: delivered as f64 / (wall_ms / 1e3).max(1e-9),
        delivered,
        hits: m.counter_total("openflow.cache_hits") - hits0,
        misses: m.counter_total("openflow.cache_misses") - misses0,
    }
}

/// Runs one measurement [`SAMPLES`] times and keeps the fastest run.
/// Wall-clock noise on a shared host is one-sided (preemption slows a
/// run down; nothing speeds it up), so best-of-N is the stable
/// estimator. The simulation itself is deterministic: delivery and
/// cache counters are identical across repeats, only the wall clock
/// varies.
fn best_of(mut run: impl FnMut() -> RunResult) -> RunResult {
    let mut best = run();
    for _ in 1..SAMPLES {
        let r = run();
        if r.pps > best.pps {
            best = r;
        }
    }
    best
}

fn main() {
    println!("\nE0: dataplane fast path (exact-match cache vs full table walk)");
    println!(
        "{:>14} {:>7} {:>6} {:>10} {:>12} {:>9} {:>9} {:>8}",
        "scenario", "rules", "cache", "wall_ms", "pps", "hit_rate", "frames", "speedup"
    );
    let mut runs = Vec::new();
    let mut headline: Option<(f64, f64, f64)> = None; // (pps_walk, pps_cached, hit_rate)
    let mut row = |scenario: &str, rules: usize, off: RunResult, on: RunResult| {
        let speedup = on.pps / off.pps.max(1e-9);
        for (label, r) in [("off", &off), ("on", &on)] {
            println!(
                "{:>14} {:>7} {:>6} {:>10.2} {:>12.0} {:>9.3} {:>9} {:>8}",
                scenario,
                rules,
                label,
                r.wall_ms,
                r.pps,
                r.hit_rate(),
                r.delivered,
                if *label == *"on" {
                    format!("{speedup:.1}x")
                } else {
                    "-".into()
                }
            );
            runs.push(
                escape_json::Value::obj()
                    .set("scenario", scenario)
                    .set("rules", rules as u64)
                    .set("cache", label)
                    .set("wall_ms", r.wall_ms)
                    .set("pps", r.pps)
                    .set("cache_hit_rate", r.hit_rate())
                    .set("frames_delivered", r.delivered)
                    .set("cache_hits", r.hits)
                    .set("cache_misses", r.misses),
            );
        }
        (off.pps, on.pps, on.hit_rate(), speedup)
    };
    for &rules in TABLE_SIZES {
        let off = best_of(|| run_switch_only(rules, false, FRAMES));
        let on = best_of(|| run_switch_only(rules, true, FRAMES));
        assert_eq!(
            off.delivered, on.delivered,
            "cache must not change delivery"
        );
        let (pps_walk, pps_cached, hit_rate, _) = row("switch_only", rules, off, on);
        if rules == *TABLE_SIZES.last().unwrap() {
            headline = Some((pps_walk, pps_cached, hit_rate));
        }
    }
    {
        let off = best_of(|| run_vnf_chain(false, FRAMES));
        let on = best_of(|| run_vnf_chain(true, FRAMES));
        assert_eq!(
            off.delivered, on.delivered,
            "cache must not change delivery"
        );
        row("vnf_chain", CHAIN_RULES, off, on);
    }
    let (pps_walk, pps_cached, hit_rate) = headline.unwrap();
    let speedup = pps_cached / pps_walk.max(1e-9);

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let doc = escape_json::Value::obj()
        .set("experiment", "e0_dataplane")
        .set("host_cpus", host_cpus as u64)
        .set(
            "headline",
            escape_json::Value::obj()
                .set("rules", *TABLE_SIZES.last().unwrap() as u64)
                .set("pps_walk", pps_walk)
                .set("pps_cached", pps_cached)
                .set("speedup", speedup)
                .set("cache_hit_rate", hit_rate),
        )
        .set("runs", escape_json::Value::Arr(runs));
    if let Some(path) = escape_bench::write_repo_artifact("BENCH_dataplane", &doc) {
        println!("baseline snapshot: {}", path.display());
    }
    println!("(expected shape: cached pps ≥ 10x the walk at the largest table; hit");
    println!(" rate approaches 1.0 — one compulsory miss per flow per flush)\n");
}
