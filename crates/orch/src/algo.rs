//! Mapping algorithms: from abstract chain to placement + route.

use crate::engine::{route_chain, ChainMapping};
use crate::path::PathSearch;
use crate::state::ResourceState;
use escape_sg::{Chain, ServiceGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Why a chain could not be mapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// No container can host this VNF's demand.
    NoCapacity(String),
    /// No path with enough residual bandwidth.
    NoPath { from: String, to: String },
    /// Delay budget exceeded by the best found embedding.
    DelayExceeded { got: u64, budget: u64 },
    /// A referenced node does not exist.
    UnknownNode(String),
    /// Commit-time or structural failure.
    Infeasible(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::NoCapacity(v) => write!(f, "no capacity for VNF {v:?}"),
            MapError::NoPath { from, to } => write!(f, "no feasible path {from} -> {to}"),
            MapError::DelayExceeded { got, budget } => {
                write!(f, "delay {got}µs exceeds budget {budget}µs")
            }
            MapError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            MapError::Infeasible(m) => write!(f, "infeasible: {m}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A chain-mapping algorithm. Implementations are pure with respect to
/// the passed state: they never mutate it (the engine commits).
pub trait MappingAlgorithm: Send {
    fn name(&self) -> &'static str;

    /// Maps one chain, returning the placement and routed segments.
    /// `paths` answers every distance and route query over `state`'s
    /// residual bandwidth at the chain's rate. One session serves both
    /// candidate ranking and final routing, so an implementation may
    /// reserve compute on a scratch copy of `state` but never bandwidth.
    fn map_chain(
        &mut self,
        paths: &mut PathSearch<'_>,
        sg: &ServiceGraph,
        chain: &Chain,
        state: &ResourceState,
    ) -> Result<ChainMapping, MapError>;
}

/// VNF hops of a chain (the middle of the hop list), with their demands.
fn chain_vnfs<'a>(
    sg: &'a ServiceGraph,
    chain: &'a Chain,
) -> Result<Vec<(&'a str, f64, u64)>, MapError> {
    let mut v = Vec::new();
    if chain.hops.len() >= 2 {
        for h in &chain.hops[1..chain.hops.len() - 1] {
            let req = sg
                .vnf_named(h)
                .ok_or_else(|| MapError::UnknownNode(h.clone()))?;
            v.push((h.as_str(), req.cpu, req.mem_mb));
        }
    }
    Ok(v)
}

/// Builds the final mapping from a placement, routing it and checking
/// the budget.
fn finish(
    paths: &mut PathSearch<'_>,
    chain: &Chain,
    placement: Vec<(String, String)>,
) -> Result<ChainMapping, MapError> {
    let by_vnf: HashMap<&str, &str> = placement
        .iter()
        .map(|(v, c)| (v.as_str(), c.as_str()))
        .collect();
    let index = paths.index();
    let locate = |hop: &str| -> Option<String> {
        match by_vnf.get(hop) {
            Some(c) => Some(c.to_string()),
            None => index.has_node(hop).then(|| hop.to_string()),
        }
    };
    let (segments, total) = route_chain(paths, chain, &locate)?;
    Ok(ChainMapping {
        chain: chain.clone(),
        placement,
        segments,
        total_delay_us: total,
    })
}

/// First-fit: walk containers in name order, take the first that fits.
/// The paper-era default: fast, oblivious to locality.
pub struct GreedyFirstFit;

impl MappingAlgorithm for GreedyFirstFit {
    fn name(&self) -> &'static str {
        "greedy_first_fit"
    }

    fn map_chain(
        &mut self,
        paths: &mut PathSearch<'_>,
        sg: &ServiceGraph,
        chain: &Chain,
        state: &ResourceState,
    ) -> Result<ChainMapping, MapError> {
        let mut scratch = state.clone();
        let mut placement = Vec::new();
        for (vnf, cpu, mem) in chain_vnfs(sg, chain)? {
            let host = scratch
                .containers_sorted()
                .into_iter()
                .find(|c| scratch.fits(c, cpu, mem))
                .ok_or_else(|| MapError::NoCapacity(vnf.to_string()))?;
            scratch
                .reserve_compute(&host, cpu, mem)
                .expect("fits was checked");
            placement.push((vnf.to_string(), host));
        }
        finish(paths, chain, placement)
    }
}

/// Best-fit on CPU: take the fitting container with the least residual
/// CPU (classic bin-packing best-fit, consolidates load).
pub struct BestFitCpu;

impl MappingAlgorithm for BestFitCpu {
    fn name(&self) -> &'static str {
        "best_fit_cpu"
    }

    fn map_chain(
        &mut self,
        paths: &mut PathSearch<'_>,
        sg: &ServiceGraph,
        chain: &Chain,
        state: &ResourceState,
    ) -> Result<ChainMapping, MapError> {
        let mut scratch = state.clone();
        let mut placement = Vec::new();
        for (vnf, cpu, mem) in chain_vnfs(sg, chain)? {
            let host = scratch
                .containers_sorted()
                .into_iter()
                .filter(|c| scratch.fits(c, cpu, mem))
                .min_by(|a, b| {
                    scratch
                        .cpu_of(a)
                        .partial_cmp(&scratch.cpu_of(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .ok_or_else(|| MapError::NoCapacity(vnf.to_string()))?;
            scratch
                .reserve_compute(&host, cpu, mem)
                .expect("fits was checked");
            placement.push((vnf.to_string(), host));
        }
        finish(paths, chain, placement)
    }
}

/// Nearest-neighbor chain embedding: walk the chain, placing each VNF on
/// the fitting container closest (by residual-capacity shortest path) to
/// the previous hop's location — minimizes path stretch greedily.
pub struct NearestNeighbor;

impl MappingAlgorithm for NearestNeighbor {
    fn name(&self) -> &'static str {
        "nearest_neighbor"
    }

    fn map_chain(
        &mut self,
        paths: &mut PathSearch<'_>,
        sg: &ServiceGraph,
        chain: &Chain,
        state: &ResourceState,
    ) -> Result<ChainMapping, MapError> {
        let mut scratch = state.clone();
        let mut placement = Vec::new();
        let mut location = chain
            .hops
            .first()
            .cloned()
            .ok_or_else(|| MapError::Infeasible("empty chain".into()))?;
        for (vnf, cpu, mem) in chain_vnfs(sg, chain)? {
            let mut best: Option<(u64, String)> = None;
            for c in scratch.containers_sorted() {
                if !scratch.fits(&c, cpu, mem) {
                    continue;
                }
                let Some(d) = paths.distance(&location, &c) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                    best = Some((d, c));
                }
            }
            let (_, host) = best.ok_or_else(|| MapError::NoCapacity(vnf.to_string()))?;
            scratch
                .reserve_compute(&host, cpu, mem)
                .expect("fits was checked");
            location = host.clone();
            placement.push((vnf.to_string(), host));
        }
        // Ranking above and routing below read the same trees.
        debug_assert_eq!(scratch.bw, state.bw, "scratch must not reserve bandwidth");
        finish(paths, chain, placement)
    }
}

/// Exhaustive search over container assignments, minimizing total chain
/// delay — optimal, exponential; the baseline the heuristics are judged
/// against on small instances. `node_budget` caps explored assignments.
pub struct Backtracking {
    pub node_budget: u64,
}

impl Default for Backtracking {
    fn default() -> Self {
        Backtracking {
            node_budget: 200_000,
        }
    }
}

impl MappingAlgorithm for Backtracking {
    fn name(&self) -> &'static str {
        "backtracking"
    }

    fn map_chain(
        &mut self,
        paths: &mut PathSearch<'_>,
        sg: &ServiceGraph,
        chain: &Chain,
        state: &ResourceState,
    ) -> Result<ChainMapping, MapError> {
        let vnfs = chain_vnfs(sg, chain)?;
        let containers = state.containers_sorted();
        let mut best: Option<ChainMapping> = None;
        let mut budget = self.node_budget;
        let mut stack: Vec<(String, String)> = Vec::new();

        #[allow(clippy::too_many_arguments)]
        fn recurse(
            paths: &mut PathSearch<'_>,
            chain: &Chain,
            scratch: &mut ResourceState,
            vnfs: &[(&str, f64, u64)],
            containers: &[String],
            stack: &mut Vec<(String, String)>,
            best: &mut Option<ChainMapping>,
            budget: &mut u64,
        ) {
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            if stack.len() == vnfs.len() {
                if let Ok(m) = finish(paths, chain, stack.clone()) {
                    if best
                        .as_ref()
                        .is_none_or(|b| m.total_delay_us < b.total_delay_us)
                    {
                        *best = Some(m);
                    }
                }
                return;
            }
            let (vnf, cpu, mem) = vnfs[stack.len()];
            for c in containers {
                if !scratch.fits(c, cpu, mem) {
                    continue;
                }
                scratch
                    .reserve_compute(c, cpu, mem)
                    .expect("fits was checked");
                stack.push((vnf.to_string(), c.clone()));
                recurse(paths, chain, scratch, vnfs, containers, stack, best, budget);
                stack.pop();
                scratch.release_compute(c, cpu, mem);
            }
        }

        let mut scratch = state.clone();
        recurse(
            paths,
            chain,
            &mut scratch,
            &vnfs,
            &containers,
            &mut stack,
            &mut best,
            &mut budget,
        );
        best.ok_or_else(|| {
            // Distinguish "nothing fits" from "fits but violates budget".
            if vnfs
                .iter()
                .any(|(_, cpu, mem)| !containers.iter().any(|c| state.fits(c, *cpu, *mem)))
            {
                MapError::NoCapacity(chain.name.clone())
            } else {
                MapError::Infeasible(format!("no feasible embedding for chain {:?}", chain.name))
            }
        })
    }
}

/// Simulated annealing over placements, minimizing total delay. Starts
/// from first-fit, proposes single-VNF relocations, accepts worse moves
/// with a temperature-decayed probability. Deterministic per seed.
pub struct SimulatedAnnealing {
    pub iterations: u32,
    pub seed: u64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            iterations: 500,
            seed: 42,
        }
    }
}

impl MappingAlgorithm for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "simulated_annealing"
    }

    fn map_chain(
        &mut self,
        paths: &mut PathSearch<'_>,
        sg: &ServiceGraph,
        chain: &Chain,
        state: &ResourceState,
    ) -> Result<ChainMapping, MapError> {
        let vnfs = chain_vnfs(sg, chain)?;
        let mut current = GreedyFirstFit.map_chain(paths, sg, chain, state)?;
        if vnfs.is_empty() {
            return Ok(current);
        }
        let containers = state.containers_sorted();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut best = current.clone();
        for it in 0..self.iterations {
            let temp = 1.0 - (it as f64 / self.iterations as f64);
            // Propose: move one VNF to a random other container.
            let k = rng.gen_range(0..current.placement.len());
            let new_host = containers[rng.gen_range(0..containers.len())].clone();
            if current.placement[k].1 == new_host {
                continue;
            }
            let mut proposal = current.placement.clone();
            proposal[k].1 = new_host;
            // Feasibility: aggregate demands per container must fit.
            let mut scratch = state.clone();
            let mut feasible = true;
            for ((vnf, host), (_, cpu, mem)) in proposal.iter().zip(&vnfs) {
                debug_assert_eq!(
                    vnf,
                    vnfs[proposal.iter().position(|(v, _)| v == vnf).unwrap()].0
                );
                if scratch.reserve_compute(host, *cpu, *mem).is_err() {
                    feasible = false;
                    break;
                }
            }
            if !feasible {
                continue;
            }
            let Ok(candidate) = finish(paths, chain, proposal) else {
                continue;
            };
            let delta = candidate.total_delay_us as f64 - current.total_delay_us as f64;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / (1.0 + 5_000.0 * temp)).exp();
            if accept {
                current = candidate;
                if current.total_delay_us < best.total_delay_us {
                    best = current.clone();
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathIndex;
    use escape_sg::topo::builders;
    use escape_sg::{ResourceTopology, ServiceGraph};

    fn two_vnf_sg() -> ServiceGraph {
        ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("a", "monitor", 1.0, 64)
            .vnf("b", "monitor", 1.0, 64)
            .chain("c", &["sap0", "a", "b", "sap1"], 10.0, None)
    }

    /// Maps `sg`'s first chain onto an unloaded `topo`.
    fn map(
        algo: &mut dyn MappingAlgorithm,
        topo: &ResourceTopology,
        sg: &ServiceGraph,
    ) -> Result<ChainMapping, MapError> {
        let state = ResourceState::from_topology(topo);
        let index = PathIndex::new(topo);
        let chain = &sg.chains[0];
        let mut paths = index.search(&state, chain.bandwidth_mbps);
        algo.map_chain(&mut paths, sg, chain, &state)
    }

    #[test]
    fn all_algorithms_find_a_feasible_mapping() {
        let topo = builders::linear(4, 2.0);
        let algos: Vec<Box<dyn MappingAlgorithm>> = vec![
            Box::new(GreedyFirstFit),
            Box::new(BestFitCpu),
            Box::new(NearestNeighbor),
            Box::new(Backtracking::default()),
            Box::new(SimulatedAnnealing::default()),
        ];
        for mut a in algos {
            let m = map(a.as_mut(), &topo, &two_vnf_sg()).unwrap();
            assert_eq!(m.placement.len(), 2, "{}", a.name());
            assert_eq!(m.segments.len(), 3);
            assert!(m.total_delay_us > 0);
        }
    }

    #[test]
    fn map_error_display_strings() {
        let cases: Vec<(MapError, &str)> = vec![
            (
                MapError::NoCapacity("f1".into()),
                "no capacity for VNF \"f1\"",
            ),
            (
                MapError::NoPath {
                    from: "sap0".into(),
                    to: "c2".into(),
                },
                "no feasible path sap0 -> c2",
            ),
            (
                MapError::DelayExceeded {
                    got: 900,
                    budget: 500,
                },
                "delay 900µs exceeds budget 500µs",
            ),
            (
                MapError::UnknownNode("ghost".into()),
                "unknown node \"ghost\"",
            ),
            (
                MapError::Infeasible("commit rejected".into()),
                "infeasible: commit rejected",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn backtracking_is_no_worse_than_greedy() {
        // Star topology: c0..c5 hang off separate edge switches; first-fit
        // picks c0 then c1 (far apart through the core), while the optimum
        // co-locates both VNFs.
        let topo = builders::star(6, 2.0);
        let sg = ServiceGraph::new()
            .sap("sap0")
            .sap("sap5")
            .vnf("a", "monitor", 1.0, 64)
            .vnf("b", "monitor", 1.0, 64)
            .chain("c", &["sap0", "a", "b", "sap5"], 10.0, None);
        let greedy = map(&mut GreedyFirstFit, &topo, &sg).unwrap();
        let optimal = map(&mut Backtracking::default(), &topo, &sg).unwrap();
        assert!(optimal.total_delay_us <= greedy.total_delay_us);
    }

    #[test]
    fn nearest_neighbor_beats_first_fit_on_star() {
        // sap3's own container c3 is the nearest host; first-fit blindly
        // takes c0.
        let topo = builders::star(6, 4.0);
        let sg = ServiceGraph::new()
            .sap("sap3")
            .sap("sap4")
            .vnf("v", "monitor", 1.0, 64)
            .chain("c", &["sap3", "v", "sap4"], 10.0, None);
        let nn = map(&mut NearestNeighbor, &topo, &sg).unwrap();
        let ff = map(&mut GreedyFirstFit, &topo, &sg).unwrap();
        assert!(nn.total_delay_us <= ff.total_delay_us);
        assert_eq!(nn.container_of("v"), Some("c3"));
    }

    #[test]
    fn best_fit_consolidates() {
        // c0 has little CPU left (small), c1 is big: best-fit picks the
        // tighter c0 for a small VNF.
        let mut topo = builders::linear(2, 4.0);
        // Shrink c0 to 1 CPU.
        for n in &mut topo.nodes {
            if n.name == "c0" {
                n.kind = escape_sg::TopoNodeKind::Container {
                    cpu: 1.0,
                    mem_mb: 2048,
                };
            }
        }
        let sg = ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("small", "monitor", 0.5, 64)
            .chain("c", &["sap0", "small", "sap1"], 10.0, None);
        let m = map(&mut BestFitCpu, &topo, &sg).unwrap();
        assert_eq!(m.container_of("small"), Some("c0"));
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let topo = builders::star(8, 2.0);
        let sg = two_vnf_sg();
        let anneal = || SimulatedAnnealing {
            iterations: 300,
            seed: 7,
        };
        let m1 = map(&mut anneal(), &topo, &sg).unwrap();
        let m2 = map(&mut anneal(), &topo, &sg).unwrap();
        assert_eq!(m1.placement, m2.placement);
        assert_eq!(m1.total_delay_us, m2.total_delay_us);
    }

    #[test]
    fn no_capacity_error_names_the_vnf() {
        let topo = builders::linear(2, 0.5);
        let sg = two_vnf_sg(); // wants 1.0 CPU per VNF
        for mut a in [
            Box::new(GreedyFirstFit) as Box<dyn MappingAlgorithm>,
            Box::new(BestFitCpu),
            Box::new(NearestNeighbor),
        ] {
            let e = map(a.as_mut(), &topo, &sg).unwrap_err();
            assert!(matches!(e, MapError::NoCapacity(_)), "{}: {e}", a.name());
        }
        let e = map(&mut Backtracking::default(), &topo, &sg).unwrap_err();
        assert!(matches!(e, MapError::NoCapacity(_)));
    }

    #[test]
    fn direct_sap_chain_maps_with_no_placement() {
        let topo = builders::linear(2, 1.0);
        let sg = ServiceGraph::new().sap("sap0").sap("sap1").chain(
            "direct",
            &["sap0", "sap1"],
            10.0,
            None,
        );
        let m = map(&mut GreedyFirstFit, &topo, &sg).unwrap();
        assert!(m.placement.is_empty());
        assert_eq!(m.segments.len(), 1);
    }

    #[test]
    fn map_error_display() {
        assert!(MapError::NoCapacity("x".into()).to_string().contains("x"));
        assert!(MapError::NoPath {
            from: "a".into(),
            to: "b".into()
        }
        .to_string()
        .contains("a"));
        assert!(MapError::DelayExceeded { got: 10, budget: 5 }
            .to_string()
            .contains("10"));
    }
}
