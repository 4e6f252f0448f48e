//! Per-layer probes: the benchmark calling one layer's public functions
//! with inputs from the generated substrate, on the calibrated clock.
//! Each value is the median of 200 timed batches — 50 or 5 where one call
//! takes a millisecond or more. The call shapes follow the E0–E10
//! micro-benches in `crates/bench/benches`.

use crate::calib::{median, paired_overhead, Calibrator};
use crate::gen::{prelude, script, Observability, Substrate, Workload, FRAME_LEN};
use crate::replay::InProcess;
use crate::report::Report;
use crate::run::{run_rounds, Scored, Tally};
use escape_catalog::Catalog;
use escape_ctl::proto::{CtlResponse, MetricsFormat};
use escape_ctl::Wal;
use escape_json::Value;
use escape_netconf::agent::{Agent, VnfInstrumentation, VnfStatusInfo};
use escape_netconf::Client;
use escape_netem::{Host, LinkConfig, Sim, Time};
use escape_openflow::table::{FlowEntry, FlowTable};
use escape_openflow::{Action, Match, Switch};
use escape_orch::{NearestNeighbor, Orchestrator};
use escape_packet::{FlowKey, MacAddr, Packet, PacketBuilder};
use escape_sg::{parse_service_graph, parse_topology};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

/// Timed batches per probe, and for probes whose one call takes a
/// millisecond or more.
const SAMPLES: usize = 200;
const FEWER: usize = 50;
const FEWEST: usize = 5;

/// Median time of one call of `f`, in calibrated nanoseconds: `samples`
/// batches of `batch` calls each, bracketed by the reference kernel.
fn probe_ns(cal: &mut Calibrator, samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm
    cal.open_single();
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_call) / cal.close_single()
}

fn sap_ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i)
}

fn frame(src: u8, dst: u8) -> Packet {
    Packet {
        data: PacketBuilder::udp_with_len(
            MacAddr::from_id(u64::from(src)),
            MacAddr::from_id(u64::from(dst)),
            sap_ip(src),
            sap_ip(dst),
            40_000,
            9_000,
            FRAME_LEN as usize,
        ),
        id: 1,
        born_ns: 0,
    }
}

/// A steering rule as `escape::env` compiles it: ingress port, IPv4,
/// source and destination SAP.
fn steering_rule(src: u8, dst: u8, cookie: u64) -> FlowEntry {
    let m = Match::any()
        .with_in_port(1)
        .with_dl_type(0x0800)
        .with_nw_src(sap_ip(src), 32)
        .with_nw_dst(sap_ip(dst), 32);
    let mut e = FlowEntry::new(m, 500, vec![Action::out(2)], Time::ZERO);
    e.cookie = cookie;
    e
}

/// A leaf switch's table at the benchmark's load: 120 steering rules.
fn leaf_table(cache: bool) -> FlowTable {
    let mut t = FlowTable::new();
    t.set_cache_enabled(cache);
    for i in 0..120u8 {
        t.add(steering_rule(i + 1, 200 - i, u64::from(i)));
    }
    t
}

fn openflow(out: &mut Report, cal: &mut Calibrator) {
    // The last rule installed: the walk visits all 120.
    let key = FlowKey::extract(&frame(120, 81).data).expect("well-formed frame");
    let mut cached = leaf_table(true);
    out.put(
        "openflow.lookup_cached_ns",
        probe_ns(cal, SAMPLES, 1_000, || {
            black_box(cached.lookup_idx(black_box(&key), 1, 128, Time::ZERO));
        }),
        "ns",
    );
    let mut walked = leaf_table(false);
    out.put(
        "openflow.lookup_walk_ns",
        probe_ns(cal, SAMPLES, 100, || {
            black_box(walked.lookup_idx(black_box(&key), 1, 128, Time::ZERO));
        }),
        "ns",
    );
    // A flow-mod pair as a redeploy issues it: delete one chain's rule
    // by cookie, add it back. Both flush the cache.
    let mut table = leaf_table(true);
    out.put(
        "openflow.flow_mod_us",
        probe_ns(cal, SAMPLES, 10, || {
            table.delete(&Match::any(), 0, false, escape_openflow::port::NONE, 7);
            table.add(steering_rule(8, 193, 7));
        }) / 2e3,
        "us",
    );
}

/// h1 → s1 → h2 over ideal links with one live rule: per-event cost of
/// the simulator's dispatch loop with a cached switch in the path.
fn netem(out: &mut Report, cal: &mut Calibrator) {
    let mut sim = Sim::new(7);
    let sw = sim.add_node("s1", 2, Box::new(Switch::new(1, 2)));
    let (h1_ip, h2_ip) = (sap_ip(1), sap_ip(2));
    let h1 = sim.add_node("h1", 1, Box::new(Host::new(MacAddr::from_id(1), h1_ip)));
    let h2 = sim.add_node("h2", 1, Box::new(Host::new(MacAddr::from_id(2), h2_ip)));
    sim.connect((sw, 0), (h1, 0), LinkConfig::ideal());
    sim.connect((sw, 1), (h2, 0), LinkConfig::ideal());
    let live = Match::any().with_dl_type(0x0800).with_nw_dst(h2_ip, 32);
    sim.node_as_mut::<Switch>(sw)
        .expect("switch")
        .table
        .add(FlowEntry::new(live, 500, vec![Action::out(1)], Time::ZERO));
    let host = sim.node_as_mut::<Host>(h1).expect("host");
    host.static_arp(h2_ip, MacAddr::from_id(2));
    host.add_stream(
        h2_ip,
        40_000,
        9_000,
        FRAME_LEN as usize,
        Time::from_us(1),
        u64::MAX,
    );
    Host::start_streams(&mut sim, h1, Time::from_us(1));
    sim.run_until(Time::from_us(1_000));
    // Each sample advances 500 µs of virtual time: 500 frames.
    let mut now_us = 1_000;
    cal.open_single();
    let per_event: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let (e0, t) = (sim.stats().events, Instant::now());
            now_us += 500;
            sim.run_until(Time::from_us(now_us));
            t.elapsed().as_nanos() as f64 / (sim.stats().events - e0) as f64
        })
        .collect();
    let k = cal.close_single();
    out.put("netem.dispatch_ns_per_event", median(&per_event) / k, "ns");
}

fn click(out: &mut Report, cal: &mut Calibrator) {
    let mut router = Catalog::standard()
        .build_router("firewall", &[], &escape_click::Registry::standard(), 1)
        .expect("catalog firewall compiles");
    let pkt = frame(1, 2);
    let mut now = 0;
    out.put(
        "click.push_ns",
        probe_ns(cal, SAMPLES, 1_000, || {
            now += 1;
            black_box(router.push_external(0, pkt.clone(), Time::from_us(now)));
        }),
        "ns",
    );
}

/// Embedding one static chain on the loaded substrate, then releasing it.
fn orch(out: &mut Report, cal: &mut Calibrator, sub: &Substrate) {
    let topo = parse_topology(&sub.topo).expect("generated topology parses");
    let mut orch =
        Orchestrator::new(topo, Box::new(NearestNeighbor)).expect("generated topology is valid");
    let graphs: Vec<_> = sub
        .base_chains()
        .map(|c| parse_service_graph(&c.sg).expect("generated graph parses"))
        .collect();
    let (last, loaded) = graphs.split_last().expect("120 chains");
    for sg in loaded {
        assert!(orch.embed_graph(sg).1.is_empty(), "base chain rejected");
    }
    out.put(
        "orch.map_us",
        probe_ns(cal, FEWER, 1, || {
            let mapping = orch
                .embed_chain(last, &last.chains[0])
                .expect("the last base chain fits");
            orch.release_chain(&black_box(mapping).chain.name);
        }) / 1e3,
        "us",
    );
    let text = &sub.statics[0].sg;
    out.put(
        "sg.dsl_parse_us",
        probe_ns(cal, SAMPLES, 20, || {
            black_box(parse_service_graph(black_box(text)).expect("parses"));
        }) / 1e3,
        "us",
    );
}

/// In-memory instrumentation for the pure-protocol NETCONF round trip.
#[derive(Default)]
struct NullInstr(u32);

impl VnfInstrumentation for NullInstr {
    fn initiate(
        &mut self,
        ty: &str,
        _cfg: Option<&str>,
        _opts: &[(String, String)],
    ) -> Result<String, String> {
        self.0 += 1;
        Ok(format!("{ty}{}", self.0))
    }
    fn start(&mut self, _vnf: &str) -> Result<(), String> {
        Ok(())
    }
    fn stop(&mut self, _vnf: &str) -> Result<(), String> {
        Ok(())
    }
    fn connect(&mut self, _vnf: &str, port: u16, _sw: &str) -> Result<u16, String> {
        Ok(port + 100)
    }
    fn disconnect(&mut self, _vnf: &str, _port: u16) -> Result<(), String> {
        Ok(())
    }
    fn info(&self, _vnf: Option<&str>) -> Vec<VnfStatusInfo> {
        Vec::new()
    }
}

/// Client encode → agent parse, dispatch, respond → client decode of one
/// `connectVNF`, the RPC a deploy issues most; no emulation in the loop.
fn netconf(out: &mut Report, cal: &mut Calibrator) {
    let mut client = Client::new();
    let mut agent = Agent::new(1, NullInstr::default());
    client.on_bytes(&agent.start());
    agent.on_bytes(&client.start());
    out.put(
        "netconf.rpc_roundtrip_us",
        probe_ns(cal, SAMPLES, 20, || {
            let (_, req) = client.connect_vnf("firewall1", 0, "lf02");
            let resp = agent.on_bytes(&req);
            black_box(client.on_bytes(&resp));
        }) / 1e3,
        "us",
    );
}

/// What the loaded, observed environment hands to clients: metrics in
/// both formats, SLA verdicts over a full trace ring, the fingerprint.
fn loaded_env(
    out: &mut Report,
    cal: &mut Calibrator,
    sub: &Substrate,
    seed: u64,
    dir: &Path,
) -> Result<(), String> {
    let w = Workload::DataplaneObserved;
    let mut env = InProcess::new(sub, seed, w.observability(), &dir.join("probe-env"), false)?;
    let mut tally = Tally::default();
    for c in sub.base_chains() {
        tally.call(&mut env, &c.deploy())?;
    }
    for req in prelude(w) {
        tally.call(&mut env, &req)?;
    }
    // A round records 6 800 hops, so 16 rounds wrap the 65 536-record
    // ring (checked below).
    let rounds = script(w, sub, 16);
    run_rounds(&mut env, &rounds, cal, &mut tally, None, &|| false)?;
    if tally.failed > 0 {
        return Err(format!("probe environment: {:?}", tally.first_failures));
    }
    let esc = env.session().escape();
    let ring = esc.sim.trace.as_ref().map_or(0, |t| t.len());
    if ring < Observability::DEFAULT.flight_recorder {
        return Err(format!(
            "probe environment: trace ring holds only {ring} records"
        ));
    }
    out.put(
        "escape.sla_verdicts_us",
        probe_ns(cal, FEWEST, 1, || {
            black_box(esc.sla_verdicts());
        }) / 1e3,
        "us",
    );
    out.put(
        "escape.fingerprint_us",
        probe_ns(cal, FEWER, 1, || {
            black_box(esc.state_fingerprint());
        }) / 1e3,
        "us",
    );
    let snapshot = esc.metrics();
    out.put(
        "telemetry.prometheus_render_us",
        probe_ns(cal, SAMPLES, 1, || {
            black_box(snapshot.prometheus());
        }) / 1e3,
        "us",
    );

    // JSON codec on what the daemon really ships: the structured
    // `metrics --format json` document, and a reply frame whose body is
    // one long string (the Prometheus text). The string parser is what
    // `CtlClient` spends its time in on every poll.
    let doc = env.session().metrics_exposition(true);
    let mb = doc.len() as f64 / 1e6;
    let parsed = Value::parse(&doc).map_err(|e| format!("metrics json: {e}"))?;
    let ns = probe_ns(cal, FEWEST, 1, || {
        black_box(Value::parse(black_box(&doc)).expect("parses"));
    });
    out.put("json.parse_mb_s", mb / (ns / 1e9), "MB/s");
    let ns = probe_ns(cal, FEWER, 1, || {
        black_box(parsed.to_string_pretty());
    });
    out.put("json.encode_mb_s", mb / (ns / 1e9), "MB/s");
    let reply = CtlResponse::Metrics {
        format: MetricsFormat::Prometheus,
        body: snapshot.prometheus(),
    }
    .encode();
    let ns = probe_ns(cal, FEWEST, 1, || {
        black_box(CtlResponse::decode(black_box(&reply)).expect("decodes"));
    });
    out.put(
        "json.parse_string_mb_s",
        reply.len() as f64 / 1e6 / (ns / 1e9),
        "MB/s",
    );
    Ok(())
}

/// One intent + commit pair as `escaped` appends them around a `deploy`
/// (two fsyncs on the checkout's filesystem), and reopening a log of
/// 64 such pairs — the longest tail compaction leaves.
fn wal(out: &mut Report, cal: &mut Calibrator, sub: &Substrate, dir: &Path) -> Result<(), String> {
    let dir = dir.join("probe-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut log, _) = Wal::open(&dir, 1).map_err(|e| e.to_string())?;
    let op = sub.statics[0].deploy();
    let outcome = CtlResponse::TrafficStarted;
    let mut pair = || -> Result<(), String> {
        let seq = log.append_intent(&op, None).map_err(|e| e.to_string())?;
        log.append_commit(seq, &outcome).map_err(|e| e.to_string())
    };
    for _ in 0..64 {
        pair()?;
    }
    let reopen = probe_ns(cal, SAMPLES, 1, || {
        black_box(Wal::open(&dir, 1).expect("clean log reopens"));
    });
    out.put("ctl.wal_recover_us", reopen / 1e3, "us");
    let mut failed = None;
    let append = probe_ns(cal, SAMPLES, 1, || {
        if let Err(e) = pair() {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(format!("wal append: {e}"));
    }
    out.put("ctl.wal_append_us", append / 1e3, "us");
    Ok(())
}

/// The price of each observability feature on `dataplane_bare` rounds in
/// process: three environments — everything off, the flight recorder on,
/// the sampler on — take the same rounds in turn, and each round's time
/// with a feature is set against the same round's time without.
fn overhead_shares(
    out: &mut Report,
    cal: &mut Calibrator,
    sub: &Substrate,
    seed: u64,
    dir: &Path,
) -> Result<(), String> {
    const WARM: usize = 2;
    const PAIRS: usize = 10;
    let d = Observability::DEFAULT;
    let configs = [
        Observability::OFF,
        Observability {
            flight_recorder: d.flight_recorder,
            ..Observability::OFF
        },
        Observability {
            sample_ms: d.sample_ms,
            sample_retention: d.sample_retention,
            ..Observability::OFF
        },
    ];
    let rounds = script(Workload::DataplaneBare, sub, (WARM + PAIRS) as u64);
    let (warm, timed) = rounds.split_at(WARM);
    let mut envs = Vec::new();
    for (i, obs) in configs.into_iter().enumerate() {
        let state = dir.join(format!("probe-share{i}"));
        let mut env = InProcess::new(sub, seed, obs, &state, false)?;
        let mut tally = Tally::default();
        for c in sub.base_chains() {
            tally.call(&mut env, &c.deploy())?;
        }
        // The sampler's ring must have wrapped, as in the observed
        // workload: a sample costs several times more once it has.
        for req in prelude(Workload::DataplaneObserved) {
            tally.call(&mut env, &req)?;
        }
        run_rounds(&mut env, warm, cal, &mut tally, None, &|| false)?;
        envs.push((env, tally, Scored::default()));
    }
    for (r, round) in timed.iter().enumerate() {
        for turn in 0..envs.len() {
            // Whoever went first in the last round goes last in this one.
            let (env, tally, scored) = &mut envs[(r + turn) % configs.len()];
            let one = std::slice::from_ref(round);
            run_rounds(env, one, cal, tally, Some(scored), &|| false)?;
        }
    }
    if let Some((_, t, _)) = envs.iter().find(|(_, t, _)| t.failed > 0) {
        return Err(format!("overhead replay: {:?}", t.first_failures));
    }
    let off = &envs[0].2.raw_round_ms;
    for (name, (_, _, on)) in [
        "escape.flight.overhead_share",
        "telemetry.sampler.overhead_share",
    ]
    .into_iter()
    .zip(&envs[1..])
    {
        let (share, [q1, q3]) = paired_overhead(&on.raw_round_ms, off);
        println!("{name}: median {share:+.4}, quartiles {q1:+.4} {q3:+.4} over {PAIRS} rounds");
        out.put(name, share, "ratio");
    }
    Ok(())
}

/// Runs every probe. Inputs come from the seed's SLA-carrying substrate
/// whatever the workload, so the probe values of all four trace runs
/// estimate the same quantities.
pub fn run_all(
    out: &mut Report,
    cal: &mut Calibrator,
    seed: u64,
    dir: &Path,
) -> Result<(), String> {
    let sub = Substrate::generate(seed, true);
    netem(out, cal);
    openflow(out, cal);
    click(out, cal);
    orch(out, cal, &sub);
    netconf(out, cal);
    loaded_env(out, cal, &sub, seed, dir)?;
    wal(out, cal, &sub, dir)?;
    overhead_shares(out, cal, &Substrate::generate(seed, false), seed, dir)
}
