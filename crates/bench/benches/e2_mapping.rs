//! E2 — Mapping runtime: wall-clock time of one `embed_graph` of a whole
//! workload per algorithm, on star topologies of growing size.
//!
//! The algorithms are the CLI's three (`ALGORITHMS`) in their
//! shipped configurations; the workload is the library's default
//! random workload with one chain per leaf. Mapping *quality* is
//! virtual, so it is pinned by `tests/experiments.rs` instead.

use escape::session::{algorithm_by_name, ALGORITHMS};
use escape_orch::workload::{random_service_graph, WorkloadSpec};
use escape_orch::Orchestrator;
use escape_sg::topo::builders;
use std::time::{Duration, Instant};

/// Timed embeds per row; the median is printed.
const RUNS: usize = 11;

fn main() {
    println!("\nE2: mapping runtime (one embed_graph of the workload, median of {RUNS})");
    println!(
        "{:>7} {:>10} {:>9} {:>11}",
        "leaves", "algorithm", "accepted", "wall_us"
    );
    for leaves in [8usize, 32] {
        let topo = builders::star(leaves, 4.0);
        let spec = WorkloadSpec {
            chains: leaves,
            ..WorkloadSpec::default()
        };
        let sg = random_service_graph(&topo, &spec).unwrap();
        for name in ALGORITHMS {
            // Backtracking is exponential: past 8 leaves it hits its budget.
            if name == "backtrack" && leaves > 8 {
                continue;
            }
            let mut walls: Vec<Duration> = Vec::new();
            let mut accepted = 0;
            for _ in 0..RUNS {
                let algorithm = algorithm_by_name(name).unwrap();
                let mut orch = Orchestrator::new(topo.clone(), algorithm).unwrap();
                let t0 = Instant::now();
                let (ok, _) = orch.embed_graph(&sg);
                walls.push(t0.elapsed());
                accepted = ok.len();
            }
            walls.sort_unstable();
            println!(
                "{:>7} {:>10} {:>5}/{:<3} {:>11.1}",
                leaves,
                name,
                accepted,
                sg.chains.len(),
                walls[RUNS / 2].as_secs_f64() * 1e6
            );
        }
    }
    println!();
}
