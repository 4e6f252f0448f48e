//! E9 — Multi-domain scaling: do the coordinator's worker threads buy
//! wall-clock time? The same 8-pod substrate and the same 12-chain
//! workload at each *fixed* partitioning (2, 4 and 8 operator domains),
//! run with 1 worker and with `min(host_cpus, domains)` workers.
//!
//! The workload mirrors a real multi-PoP deployment: every pod carries
//! heavy local traffic (which parallelizes across domain simulators)
//! while four long chains cross half the pod line and exercise the
//! gateway handoff path.
//!
//! Deterministic part (printed + `BENCH_domains.json`): per
//! partitioning, [`PAIRS`] alternating pairs of runs — median wall-clock
//! time for deploy + traffic at each worker count, their ratio, and in
//! how many pairs the threaded run was faster — plus the mapping success
//! rate of the hierarchical orchestrator and the delivered-frame count,
//! which must not depend on partitioning or worker count. The ratio
//! compares like with like: partitioning changes the work (gateway
//! hand-offs, epoch barriers), so runs at different partitionings say
//! nothing about threads.
//! Criterion part: the 4-domain configuration end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use escape::MultiDomainEscape;
use escape_domain::DomainSpec;
use escape_pox::SteeringMode;
use escape_sg::{ResourceTopology, ServiceGraph};
use std::time::Instant;

const PODS: usize = 8;
/// One heavy local chain per pod: this is the work the domain
/// simulators can chew through in parallel.
const LOCAL_FRAMES: u64 = 20_000;
const LOCAL_INTERVAL_US: u64 = 2;
/// Four light cross-domain chains spanning half the pod line: these
/// exercise gateway stitching and the epoch-barrier handoff.
const CROSS_FRAMES: u64 = 400;
const CROSS_INTERVAL_US: u64 = 50;
const RUN_MS: u64 = 60;
/// Alternating (1 worker, N workers) pairs per partitioning.
const PAIRS: usize = 10;

/// A line of 8 pods; pod i is `sap{i}/xsap{i} - s{i} - c{i}` and the
/// `s{i}-s{i+1}` trunks become gateway links once the line is
/// partitioned.
fn pod_line() -> ResourceTopology {
    let mut topo = ResourceTopology::new();
    for i in 0..PODS {
        topo.add_switch(format!("s{i}"));
        topo.add_container(format!("c{i}"), 4.0, 2048);
        topo.add_sap(format!("sap{i}"));
        topo.add_sap(format!("xsap{i}"));
        topo.add_link(format!("sap{i}"), format!("s{i}"), 1000.0, 10);
        topo.add_link(format!("xsap{i}"), format!("s{i}"), 1000.0, 10);
        topo.add_link(format!("c{i}"), format!("s{i}"), 1000.0, 20);
        if i > 0 {
            topo.add_link(format!("s{}", i - 1), format!("s{i}"), 1000.0, 200);
        }
    }
    topo
}

/// Groups the 8 pods into `n` equal contiguous domains.
fn domain_spec(n: usize) -> DomainSpec {
    let per = PODS / n;
    let mut spec = DomainSpec::new();
    for d in 0..n {
        let nodes: Vec<String> = (d * per..(d + 1) * per)
            .flat_map(|i| {
                [
                    format!("sap{i}"),
                    format!("xsap{i}"),
                    format!("s{i}"),
                    format!("c{i}"),
                ]
            })
            .collect();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        spec = spec.domain(&format!("d{d}"), &refs);
    }
    spec
}

struct ChainJob {
    graph: ServiceGraph,
    name: String,
    sink: String,
    frames: u64,
    interval_us: u64,
}

/// The fixed workload: a heavy local chain inside every pod plus four
/// light chains from the odd pods to the pod four hops down the line.
fn workload() -> Vec<ChainJob> {
    let mut jobs = Vec::new();
    for k in 0..PODS {
        let (from, to) = (format!("sap{k}"), format!("xsap{k}"));
        let name = format!("local_{k}");
        jobs.push(ChainJob {
            graph: ServiceGraph::new()
                .sap(&from)
                .sap(&to)
                .vnf(&format!("v{k}"), "monitor", 1.0, 64)
                .chain(&name, &[&from, &format!("v{k}"), &to], 50.0, None),
            name,
            sink: to,
            frames: LOCAL_FRAMES,
            interval_us: LOCAL_INTERVAL_US,
        });
    }
    for k in (1..PODS).step_by(2) {
        let (from, to) = (format!("sap{k}"), format!("sap{}", (k + 4) % PODS));
        let name = format!("cross_{k}");
        jobs.push(ChainJob {
            graph: ServiceGraph::new()
                .sap(&from)
                .sap(&to)
                .vnf(&format!("x{k}a"), "monitor", 1.0, 64)
                .vnf(&format!("x{k}b"), "firewall", 1.0, 64)
                .chain(
                    &name,
                    &[&from, &format!("x{k}a"), &format!("x{k}b"), &to],
                    20.0,
                    None,
                ),
            name,
            sink: to,
            frames: CROSS_FRAMES,
            interval_us: CROSS_INTERVAL_US,
        });
    }
    jobs
}

struct RunResult {
    wall_ms: f64,
    total: usize,
    mapped: usize,
    delivered: u64,
}

fn run_once(domains: usize, workers: usize) -> RunResult {
    // Nearest-neighbor keeps each pod's local VNF on the pod's own
    // container at every partitioning, so the runs stay comparable
    // (first-fit would pile VNFs onto the first pods when D=1).
    let jobs = workload();
    let t0 = Instant::now();
    let mut md = MultiDomainEscape::build(
        &pod_line(),
        &domain_spec(domains),
        "nearest",
        SteeringMode::Proactive,
        7,
        workers,
    )
    .unwrap();
    let mut placed = Vec::new();
    for job in &jobs {
        if md.deploy(&job.graph).is_ok() {
            placed.push(job);
        }
    }
    for job in &placed {
        md.start_chain_udp(&job.name, 128, job.interval_us, job.frames)
            .unwrap();
    }
    md.run_for_ms(RUN_MS);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let delivered = placed
        .iter()
        .map(|job| md.sap_stats(&job.sink).unwrap().udp_rx)
        .sum();
    RunResult {
        wall_ms,
        total: jobs.len(),
        mapped: placed.len(),
        delivered,
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

fn print_table() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nE9: multi-domain scaling (8 pods, 8 local + 4 cross-domain chains, {PAIRS} pairs, {host_cpus} cpus)"
    );
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>8} {:>7} {:>8} {:>10}",
        "domains", "workers", "wall_ms@1", "wall_ms@N", "ratio", "wins", "mapped", "delivered"
    );
    let mut runs = Vec::new();
    let mut delivered_everywhere = None;
    for domains in [2usize, 4, 8] {
        let workers = host_cpus.min(domains);
        let (mut one, mut many, mut wins) = (Vec::new(), Vec::new(), 0u64);
        let mut last = None;
        for pair in 0..PAIRS {
            // Alternate which side runs first, so drift in the host's
            // speed lands on both.
            let order = if pair % 2 == 0 {
                [1, workers]
            } else {
                [workers, 1]
            };
            let mut ms = [0.0f64; 2];
            for w in order {
                let r = run_once(domains, w);
                assert_eq!(r.mapped, r.total, "every chain maps at {domains} domains");
                assert_eq!(
                    *delivered_everywhere.get_or_insert(r.delivered),
                    r.delivered,
                    "delivery depends on neither partitioning nor threads"
                );
                ms[usize::from(w != 1)] = r.wall_ms;
                last = Some(r);
            }
            wins += u64::from(ms[1] < ms[0]);
            one.push(ms[0]);
            many.push(ms[1]);
        }
        let r = last.expect("at least one pair");
        let (one_ms, many_ms) = (median(&mut one), median(&mut many));
        let ratio = one_ms / many_ms.max(1e-9);
        println!(
            "{:>8} {:>8} {:>12.2} {:>12.2} {:>8.2} {:>4}/{:<2} {:>8} {:>10}",
            domains, workers, one_ms, many_ms, ratio, wins, PAIRS, r.mapped, r.delivered
        );
        runs.push(
            escape_json::Value::obj()
                .set("domains", domains as u64)
                .set("workers", workers as u64)
                .set("pairs", PAIRS as u64)
                .set("wall_ms_1_worker", one_ms)
                .set("wall_ms_n_workers", many_ms)
                .set("ratio", ratio)
                .set("threaded_faster_in", wins)
                .set("chains_total", r.total as u64)
                .set("chains_mapped", r.mapped as u64)
                .set("mapping_success_rate", r.mapped as f64 / r.total as f64)
                .set("frames_delivered", r.delivered),
        );
    }
    let doc = escape_json::Value::obj()
        .set("experiment", "e9_domains")
        .set("host_cpus", host_cpus as u64)
        .set("runs", escape_json::Value::Arr(runs));
    if let Some(path) = escape_bench::write_telemetry_artifact("BENCH_domains", &doc) {
        println!("telemetry artifact: {}", path.display());
    }
    if let Some(path) = escape_bench::write_repo_artifact("BENCH_domains", &doc) {
        println!("baseline snapshot: {}", path.display());
    }
    println!("(expected shape: mapping success and frames delivered are identical in");
    println!(" every run; the ratio tracks the host's cores — 1.0 on one cpu, where");
    println!(" both columns run one worker)\n");
}

fn bench(c: &mut Criterion) {
    print_table();
    // The deterministic table (and the BENCH_domains.json snapshot it
    // writes) is all a baseline refresh needs; the criterion loop takes
    // minutes, so let `ESCAPE_BENCH_TABLE_ONLY=1 cargo bench` skip it.
    if std::env::var_os("ESCAPE_BENCH_TABLE_ONLY").is_some() {
        return;
    }
    let mut g = c.benchmark_group("e9_domains");
    g.sample_size(10);
    g.bench_function("four_domains_four_workers", |b| {
        b.iter(|| {
            let r = run_once(4, 4);
            assert_eq!(r.mapped, r.total);
            r.delivered
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
