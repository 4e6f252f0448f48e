//! Property tests for the orchestrator: every accepted mapping satisfies
//! the resource constraints; embed/release is lossless; algorithms are
//! deterministic; and the path-search layer is an exact rewrite — its
//! trees agree with `ResourceTopology::shortest_path` on every pair, and
//! all five algorithms produce the mappings the per-candidate reference
//! code in `reference/` produces.

mod reference;

use escape_orch::workload::{random_service_graph, WorkloadSpec};
use escape_orch::{
    Backtracking, BestFitCpu, GreedyFirstFit, MappingAlgorithm, NearestNeighbor, Orchestrator,
    PathIndex, ResourceState, SimulatedAnnealing,
};
use escape_sg::topo::{builders, TopoNodeKind};
use escape_sg::ResourceTopology;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::Algo;

fn spec(seed: u64, chains: usize) -> WorkloadSpec {
    WorkloadSpec {
        chains,
        vnfs_per_chain: (1, 3),
        cpu: (0.25, 1.5),
        bandwidth_mbps: (10.0, 120.0),
        max_delay_us: None,
        seed,
    }
}

fn algo(which: u8) -> Box<dyn MappingAlgorithm> {
    match which % 3 {
        0 => Box::new(GreedyFirstFit),
        1 => Box::new(BestFitCpu),
        _ => Box::new(NearestNeighbor),
    }
}

/// A random connected topology of `n` nodes: at least two SAPs and one
/// container, names whose sort order is unrelated to link order, a
/// spanning tree plus extra links that may run parallel or loop on one
/// node, and delays from a handful of values (zero included) so that
/// equal-cost paths are the norm.
fn pick<T: Copy>(rng: &mut SmallRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn random_topology(rng: &mut SmallRng, n: usize) -> ResourceTopology {
    let mut t = ResourceTopology::new();
    let mut names: Vec<String> = Vec::new();
    let mut tags: Vec<u32> = (0..100).collect();
    for i in 0..n {
        let tag = tags.swap_remove(rng.gen_range(0..tags.len()));
        let kind = if i < 2 { 0 } else { rng.gen_range(0..4u32) };
        let name = match kind {
            0 => format!("sap{tag}"),
            1 => format!("c{tag}"),
            _ => format!("s{tag}"),
        };
        match kind {
            0 => t.add_sap(&name),
            1 => t.add_container(&name, pick(rng, &[1.0, 2.0, 4.0]), 256),
            _ => t.add_switch(&name),
        };
        names.push(name);
    }
    let tag = tags[0];
    t.add_container(format!("c{tag}"), 2.0, 256);
    names.push(format!("c{tag}"));
    let link = |t: &mut ResourceTopology, a: usize, b: usize, rng: &mut SmallRng| {
        let delay = pick(rng, &[0, 10, 10, 20, 50]);
        let bw = pick(rng, &[100.0, 1000.0]);
        t.add_link(&names[a], &names[b], bw, delay);
    };
    for i in 1..names.len() {
        let j = rng.gen_range(0..i);
        // Either end first: `neighbors` treats the two differently.
        if rng.gen() {
            link(&mut t, i, j, rng);
        } else {
            link(&mut t, j, i, rng);
        }
    }
    for _ in 0..rng.gen_range(0..=2 * names.len()) {
        let (a, b) = (rng.gen_range(0..names.len()), rng.gen_range(0..names.len()));
        link(&mut t, a, b, rng);
    }
    t
}

/// A residual view of `topo` with some links drained to arbitrary
/// levels, some failed, and some missing from the map altogether (the
/// search then falls back to the link's nominal bandwidth).
fn random_residuals(rng: &mut SmallRng, topo: &ResourceTopology) -> ResourceState {
    let mut state = ResourceState::from_topology(topo);
    for l in &topo.links {
        match rng.gen_range(0..8u32) {
            0 => {
                state.fail_link(&l.a, &l.b);
            }
            1 => {
                state.bw.remove(&escape_sg::topo::link_key(&l.a, &l.b));
            }
            2 | 3 => {
                let left = pick(rng, &[0.0, 50.0, 100.0, 500.0]);
                if let Some(bw) = state.bw.get_mut(&escape_sg::topo::link_key(&l.a, &l.b)) {
                    *bw = left;
                }
            }
            _ => {}
        }
    }
    state
}

fn shipped(algo: Algo) -> Box<dyn MappingAlgorithm> {
    match algo {
        Algo::FirstFit => Box::new(GreedyFirstFit),
        Algo::BestFit => Box::new(BestFitCpu),
        Algo::Nearest => Box::new(NearestNeighbor),
        Algo::Backtracking { node_budget } => Box::new(Backtracking { node_budget }),
        Algo::Annealing { iterations, seed } => Box::new(SimulatedAnnealing { iterations, seed }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every ordered pair of nodes the tree's path and delay are
    /// exactly the reference search's — same nodes, so same tie-breaks —
    /// and the two are absent together.
    #[test]
    fn trees_agree_with_shortest_path_on_every_pair(seed in any::<u64>(), n in 2usize..40) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = random_topology(&mut rng, n);
        let state = random_residuals(&mut rng, &topo);
        let floor = pick(&mut rng, &[0.0, 10.0, 100.0, 600.0]);
        let index = PathIndex::new(&topo);
        let mut paths = index.search(&state, floor);
        for from in &topo.nodes {
            for to in &topo.nodes {
                let want = topo.shortest_path(&from.name, &to.name, floor, Some(&state.bw));
                prop_assert_eq!(
                    paths.distance(&from.name, &to.name),
                    want.as_ref().map(|(_, d)| *d),
                    "{} -> {}", from.name, to.name
                );
                prop_assert_eq!(paths.path(&from.name, &to.name), want);
            }
        }
    }

    /// Each shipped algorithm returns what the per-candidate reference
    /// code returns — placement, node paths, delays, or the same error —
    /// chain after chain as the residual view fills up and links and
    /// containers fail.
    #[test]
    fn mappings_equal_the_per_candidate_reference(
        seed in any::<u64>(),
        n in 4usize..24,
        which in 0usize..5,
    ) {
        let algo = [
            Algo::FirstFit,
            Algo::BestFit,
            Algo::Nearest,
            Algo::Backtracking { node_budget: 400 },
            Algo::Annealing { iterations: 40, seed },
        ][which];
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = random_topology(&mut rng, n);
        let sg = random_service_graph(&topo, &WorkloadSpec {
            chains: 6,
            bandwidth_mbps: (10.0, 400.0),
            max_delay_us: pick(&mut rng, &[None, Some(60)]),
            ..spec(seed, 6)
        }).unwrap();
        let index = PathIndex::new(&topo);
        // The orchestrator only evolves the residual view between chains.
        let mut orch = Orchestrator::new(topo.clone(), shipped(algo)).unwrap();
        for chain in &sg.chains {
            let state = orch.state();
            let want = reference::map_chain(algo, &topo, &sg, chain, state);
            let got = shipped(algo).map_chain(
                &mut index.search(state, chain.bandwidth_mbps),
                &sg,
                chain,
                state,
            );
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", chain.name);
            let _ = orch.embed_chain(&sg, chain);
            let l = &topo.links[rng.gen_range(0..topo.links.len())];
            match rng.gen_range(0..6u32) {
                0 => { orch.mark_link_failed(&l.a, &l.b); }
                1 => { orch.mark_link_recovered(&l.a, &l.b); }
                2 => { orch.mark_container_failed(&l.a); }
                _ => {}
            }
        }
    }

    /// After embedding, no container is over-committed and no link's
    /// residual bandwidth is negative; accepted placements sum correctly.
    #[test]
    fn accepted_mappings_respect_capacity(
        seed in any::<u64>(),
        leaves in 3usize..10,
        chains in 1usize..12,
        which in any::<u8>(),
    ) {
        let topo = builders::star(leaves, 4.0);
        let sg = random_service_graph(&topo, &spec(seed, chains)).unwrap();
        let mut orch = Orchestrator::new(topo.clone(), algo(which)).unwrap();
        let (ok, rejected) = orch.embed_graph(&sg);
        prop_assert_eq!(ok.len() + rejected.len(), chains);

        // Residuals never negative.
        for (c, &cpu) in &orch.state().cpu {
            prop_assert!(cpu >= -1e-9, "container {c} over-committed: {cpu}");
        }
        for (l, &bw) in &orch.state().bw {
            prop_assert!(bw >= -1e-9, "link {l:?} over-committed: {bw}");
        }

        // Sum of accepted CPU equals capacity minus residual.
        let full = ResourceState::from_topology(&topo);
        let placed_cpu: f64 = ok
            .iter()
            .flat_map(|m| m.placement.iter())
            .map(|(v, _)| sg.vnf_named(v).unwrap().cpu)
            .sum();
        let used = full.total_free_cpu() - orch.state().total_free_cpu();
        prop_assert!((placed_cpu - used).abs() < 1e-6, "{placed_cpu} vs {used}");

        // Every accepted placement lands on a real container.
        for m in &ok {
            for (_, c) in &m.placement {
                let is_container = matches!(
                    topo.node(c).map(|n| &n.kind),
                    Some(TopoNodeKind::Container { .. })
                );
                prop_assert!(is_container, "placement on non-container");
            }
            // Segments connect consecutive hop locations.
            prop_assert_eq!(m.segments.len(), m.chain.hops.len() - 1);
        }
    }

    /// Releasing everything restores the pristine resource state.
    #[test]
    fn release_restores_state(
        seed in any::<u64>(),
        which in any::<u8>(),
    ) {
        let topo = builders::tree(2, 8.0);
        let sg = random_service_graph(&topo, &spec(seed, 6)).unwrap();
        let mut orch = Orchestrator::new(topo.clone(), algo(which)).unwrap();
        let pristine_cpu = orch.state().total_free_cpu();
        let pristine_bw: f64 = orch.state().bw.values().sum();
        let (ok, _) = orch.embed_graph(&sg);
        for m in &ok {
            orch.release_chain(&m.chain.name);
        }
        prop_assert!((orch.state().total_free_cpu() - pristine_cpu).abs() < 1e-6);
        let bw_now: f64 = orch.state().bw.values().sum();
        prop_assert!((bw_now - pristine_bw).abs() < 1e-3);
        prop_assert!(orch.embedded_chains().is_empty());
    }

    /// Algorithms are deterministic: same inputs, same outputs.
    #[test]
    fn algorithms_are_deterministic(seed in any::<u64>(), which in any::<u8>()) {
        let topo = builders::star(5, 4.0);
        let sg = random_service_graph(&topo, &spec(seed, 5)).unwrap();
        let run = || {
            let mut orch = Orchestrator::new(topo.clone(), algo(which)).unwrap();
            let (ok, rej) = orch.embed_graph(&sg);
            (
                ok.iter().map(|m| (m.chain.name.clone(), m.placement.clone(), m.total_delay_us)).collect::<Vec<_>>(),
                rej.len(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Delay budgets are honoured: an accepted chain's mapped delay never
    /// exceeds its budget.
    #[test]
    fn delay_budgets_hold(seed in any::<u64>(), budget_us in 100u64..5_000) {
        let topo = builders::star(6, 8.0);
        let mut w = spec(seed, 8);
        w.max_delay_us = Some(budget_us);
        let sg = random_service_graph(&topo, &w).unwrap();
        let mut orch = Orchestrator::new(topo, Box::new(NearestNeighbor)).unwrap();
        let (ok, _) = orch.embed_graph(&sg);
        for m in &ok {
            prop_assert!(m.total_delay_us <= budget_us, "{} > {}", m.total_delay_us, budget_us);
        }
    }
}
