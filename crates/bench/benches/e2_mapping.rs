//! E2 — Mapping algorithms: runtime and acceptance ratio vs topology
//! size (the orchestrator's "different optimization algorithms").
//!
//! Deterministic part (printed): acceptance ratio, mean mapped delay and
//! path stretch per algorithm on star topologies of growing size under a
//! fixed random workload, plus the shipped default (`nearest`) on the
//! end-to-end harness's leaf–spine fabric. Criterion part: wall-clock
//! embed time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use escape_orch::workload::{random_service_graph, WorkloadSpec};
use escape_orch::{
    Backtracking, BestFitCpu, ChainMapping, GreedyFirstFit, MappingAlgorithm, NearestNeighbor,
    Orchestrator, SimulatedAnnealing,
};
use escape_sg::topo::builders;
use escape_sg::{ResourceTopology, ServiceGraph};

type AlgoFactory = Box<dyn Fn() -> Box<dyn MappingAlgorithm>>;

fn algos() -> Vec<(&'static str, AlgoFactory)> {
    vec![
        ("first_fit", Box::new(|| Box::new(GreedyFirstFit))),
        ("best_fit", Box::new(|| Box::new(BestFitCpu))),
        ("nearest", Box::new(|| Box::new(NearestNeighbor))),
        (
            "backtrack",
            Box::new(|| {
                Box::new(Backtracking {
                    node_budget: 50_000,
                })
            }),
        ),
        (
            "anneal",
            Box::new(|| {
                Box::new(SimulatedAnnealing {
                    iterations: 200,
                    seed: 9,
                })
            }),
        ),
    ]
}

fn workload(leaves: usize) -> WorkloadSpec {
    WorkloadSpec {
        chains: leaves,
        vnfs_per_chain: (1, 3),
        cpu: (0.5, 1.5),
        bandwidth_mbps: (20.0, 80.0),
        max_delay_us: Some(2_000),
        seed: 42,
    }
}

/// The end-to-end harness's substrate and load: 2 spines, 10 leaves, 80
/// one-core containers, 120 two-VNF chains.
fn fabric() -> (ResourceTopology, ServiceGraph) {
    let topo = builders::leaf_spine(2, 10, 8, 4, 1.0);
    let spec = WorkloadSpec {
        chains: 120,
        vnfs_per_chain: (2, 2),
        cpu: (0.25, 0.4),
        bandwidth_mbps: (10.0, 10.0),
        max_delay_us: None,
        seed: 42,
    };
    let sg = random_service_graph(&topo, &spec).unwrap();
    (topo, sg)
}

fn print_row(leaves: impl std::fmt::Display, name: &str, sg: &ServiceGraph, ok: &[ChainMapping]) {
    let n = ok.len();
    let mean_delay = if n > 0 {
        ok.iter().map(|m| m.total_delay_us).sum::<u64>() / n as u64
    } else {
        0
    };
    let mean_hops = if n > 0 {
        ok.iter().map(|m| m.hop_count()).sum::<usize>() as f64 / n as f64
    } else {
        0.0
    };
    println!(
        "{:>7} {:>11} {:>7}/{:<3} {:>10}us {:>11.1}",
        leaves,
        name,
        n,
        sg.chains.len(),
        mean_delay,
        mean_hops
    );
}

fn print_table() {
    println!("\nE2: mapping algorithms — acceptance & quality (star topologies)");
    println!(
        "{:>7} {:>11} {:>10} {:>12} {:>11}",
        "leaves", "algorithm", "accepted", "mean_delay", "mean_hops"
    );
    for leaves in [4usize, 8, 16, 32] {
        let topo = builders::star(leaves, 4.0);
        let sg = random_service_graph(&topo, &workload(leaves)).unwrap();
        for (name, mk) in algos() {
            // Backtracking explodes on big instances; cap it.
            if name == "backtrack" && leaves > 8 {
                continue;
            }
            let mut orch = Orchestrator::new(topo.clone(), mk()).unwrap();
            let (ok, _rej) = orch.embed_graph(&sg);
            print_row(leaves, name, &sg, &ok);
        }
    }
    let (topo, sg) = fabric();
    let mut orch = Orchestrator::new(topo, Box::new(NearestNeighbor)).unwrap();
    let (ok, _rej) = orch.embed_graph(&sg);
    print_row("fabric", "nearest", &sg, &ok);
    println!("(expected shape: nearest/backtrack/anneal beat first-fit on delay;");
    println!(" first-fit/best-fit accept less under bandwidth pressure)\n");
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut g = c.benchmark_group("e2_mapping");
    g.sample_size(10);
    for leaves in [8usize, 32] {
        let topo = builders::star(leaves, 4.0);
        let sg = random_service_graph(&topo, &workload(leaves)).unwrap();
        for (name, mk) in algos() {
            if name == "backtrack" && leaves > 8 {
                continue;
            }
            g.bench_with_input(
                BenchmarkId::new(name, leaves),
                &(topo.clone(), sg.clone()),
                |b, (topo, sg)| {
                    b.iter(|| {
                        let mut orch = Orchestrator::new(topo.clone(), mk()).unwrap();
                        let (ok, rej) = orch.embed_graph(sg);
                        (ok.len(), rej.len())
                    });
                },
            );
        }
    }
    let (topo, sg) = fabric();
    g.bench_function(BenchmarkId::new("nearest", "fabric"), |b| {
        b.iter(|| {
            let mut orch = Orchestrator::new(topo.clone(), Box::new(NearestNeighbor)).unwrap();
            let (ok, rej) = orch.embed_graph(&sg);
            (ok.len(), rej.len())
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
