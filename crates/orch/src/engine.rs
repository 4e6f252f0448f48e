//! The orchestration engine: commits embeddings against the resource view.

use crate::algo::{MapError, MappingAlgorithm};
use crate::path::{PathIndex, PathSearch};
use crate::state::{sum_in_name_order, ResourceState};
use escape_sg::topo::{link_key, TopoNodeKind};
use escape_sg::{Chain, ResourceTopology, ServiceGraph};
use escape_telemetry::{Counter, Histogram, Registry};
use std::collections::HashMap;
use std::time::Instant;

/// One routed leg of a chain: the full node path (SAP/container/switch
/// names, endpoints included) between two consecutive chain hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    pub nodes: Vec<String>,
    pub delay_us: u64,
}

/// A fully mapped chain: where each VNF goes and how traffic is routed.
#[derive(Debug, Clone)]
pub struct ChainMapping {
    pub chain: Chain,
    /// (vnf name, container name), in chain order.
    pub placement: Vec<(String, String)>,
    /// One segment per consecutive hop pair.
    pub segments: Vec<PathSegment>,
    /// Sum of segment delays.
    pub total_delay_us: u64,
}

impl ChainMapping {
    /// Container hosting a given VNF.
    pub fn container_of(&self, vnf: &str) -> Option<&str> {
        self.placement
            .iter()
            .find(|(v, _)| v == vnf)
            .map(|(_, c)| c.as_str())
    }

    /// Total switch-hops across all segments (a path-stretch metric).
    pub fn hop_count(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.nodes.len().saturating_sub(1))
            .sum()
    }
}

/// Routes a chain given a placement: shortest residual-capacity paths
/// between consecutive hop locations, with the delay budget enforced.
pub fn route_chain(
    paths: &mut PathSearch<'_>,
    chain: &Chain,
    locate: &dyn Fn(&str) -> Option<String>,
) -> Result<(Vec<PathSegment>, u64), MapError> {
    let mut segments = Vec::new();
    let mut total = 0u64;
    for w in chain.hops.windows(2) {
        let from = locate(&w[0]).ok_or_else(|| MapError::UnknownNode(w[0].clone()))?;
        let to = locate(&w[1]).ok_or_else(|| MapError::UnknownNode(w[1].clone()))?;
        if from == to {
            segments.push(PathSegment {
                nodes: vec![from],
                delay_us: 0,
            });
            continue;
        }
        let (nodes, delay) = paths.path(&from, &to).ok_or_else(|| MapError::NoPath {
            from: from.clone(),
            to: to.clone(),
        })?;
        total += delay;
        segments.push(PathSegment {
            nodes,
            delay_us: delay,
        });
    }
    if let Some(budget) = chain.max_delay_us {
        if total > budget {
            return Err(MapError::DelayExceeded { got: total, budget });
        }
    }
    Ok((segments, total))
}

/// Cached registry handles for the mapping path.
struct OrchCounters {
    attempts: Counter,
    embedded: Counter,
    rejected: Counter,
    sg_rejected: Counter,
    remaps: Counter,
    remap_failures: Counter,
    reroutes: Counter,
    reroute_failures: Counter,
    placement_ns: Histogram,
}

impl OrchCounters {
    fn new(reg: &Registry) -> OrchCounters {
        OrchCounters {
            attempts: reg.counter("orch.mapping_attempts"),
            embedded: reg.counter("orch.chains_embedded"),
            rejected: reg.counter("orch.chains_rejected"),
            sg_rejected: reg.counter("orch.sg_rejected"),
            remaps: reg.counter("orch.remaps"),
            remap_failures: reg.counter("orch.remap_failures"),
            reroutes: reg.counter("orch.reroutes"),
            reroute_failures: reg.counter("orch.reroute_failures"),
            // Wall-clock timing: the `wallclock.` namespace marks the
            // only metrics allowed to differ between same-seed runs, so
            // determinism comparisons can exclude them by prefix.
            placement_ns: reg.histogram("wallclock.orch_placement_ns"),
        }
    }
}

/// The orchestrator: owns the resource view and a pluggable algorithm.
/// Per-chain commit record: the mapping plus the (container, cpu, mem)
/// reservations to release on teardown.
type CommitRecord = (ChainMapping, Vec<(String, f64, u64)>);

pub struct Orchestrator {
    topo: ResourceTopology,
    /// `topo` compiled for path search. The topology never changes after
    /// construction; failures and reservations live in `state`.
    paths: PathIndex,
    state: ResourceState,
    algorithm: Box<dyn MappingAlgorithm>,
    committed: HashMap<String, CommitRecord>,
    counters: OrchCounters,
}

impl Orchestrator {
    /// Creates an orchestrator over a validated topology with a private
    /// telemetry registry.
    pub fn new(
        topo: ResourceTopology,
        algorithm: Box<dyn MappingAlgorithm>,
    ) -> Result<Orchestrator, String> {
        Orchestrator::with_registry(topo, algorithm, &Registry::new())
    }

    /// Creates an orchestrator publishing `orch.*` metrics into `registry`.
    pub fn with_registry(
        topo: ResourceTopology,
        algorithm: Box<dyn MappingAlgorithm>,
        registry: &Registry,
    ) -> Result<Orchestrator, String> {
        topo.validate()?;
        let state = ResourceState::from_topology(&topo);
        Ok(Orchestrator {
            paths: PathIndex::new(&topo),
            topo,
            state,
            algorithm,
            committed: HashMap::new(),
            counters: OrchCounters::new(registry),
        })
    }

    /// The algorithm in use.
    pub fn algorithm_name(&self) -> &'static str {
        self.algorithm.name()
    }

    /// Swaps the mapping algorithm ("easily changed or customized").
    pub fn set_algorithm(&mut self, algorithm: Box<dyn MappingAlgorithm>) {
        self.algorithm = algorithm;
    }

    /// The current residual view.
    pub fn state(&self) -> &ResourceState {
        &self.state
    }

    /// The topology.
    pub fn topology(&self) -> &ResourceTopology {
        &self.topo
    }

    /// Embeds every chain of a service graph; successful chains commit
    /// resources immediately (first-come-first-served within the graph).
    /// Returns (accepted mappings, rejections with reasons).
    pub fn embed_graph(
        &mut self,
        sg: &ServiceGraph,
    ) -> (Vec<ChainMapping>, Vec<(String, MapError)>) {
        let mut ok = Vec::new();
        let mut rejected = Vec::new();
        for chain in sg.chains.clone() {
            match self.embed_chain(sg, &chain) {
                Ok(m) => ok.push(m),
                Err(e) => rejected.push((chain.name.clone(), e)),
            }
        }
        if !rejected.is_empty() {
            self.counters.sg_rejected.inc();
        }
        (ok, rejected)
    }

    /// Embeds one chain and commits its resources.
    pub fn embed_chain(
        &mut self,
        sg: &ServiceGraph,
        chain: &Chain,
    ) -> Result<ChainMapping, MapError> {
        let started = Instant::now();
        self.counters.attempts.inc();
        let result = self.embed_chain_inner(sg, chain);
        self.counters
            .placement_ns
            .observe(started.elapsed().as_nanos() as u64);
        match &result {
            Ok(_) => self.counters.embedded.inc(),
            Err(_) => self.counters.rejected.inc(),
        }
        result
    }

    fn embed_chain_inner(
        &mut self,
        sg: &ServiceGraph,
        chain: &Chain,
    ) -> Result<ChainMapping, MapError> {
        if self.committed.contains_key(&chain.name) {
            return Err(MapError::Infeasible(format!(
                "chain {:?} already embedded",
                chain.name
            )));
        }
        let mut paths = self.paths.search(&self.state, chain.bandwidth_mbps);
        let mapping = self
            .algorithm
            .map_chain(&mut paths, sg, chain, &self.state)?;
        // Commit: compute then bandwidth, rolling back on failure.
        let mut reserved_compute: Vec<(String, f64, u64)> = Vec::new();
        for (vnf, container) in &mapping.placement {
            let req = sg
                .vnf_named(vnf)
                .ok_or_else(|| MapError::UnknownNode(vnf.clone()))?;
            if let Err(e) = self.state.reserve_compute(container, req.cpu, req.mem_mb) {
                for (c, cpu, mem) in &reserved_compute {
                    self.state.release_compute(c, *cpu, *mem);
                }
                return Err(MapError::Infeasible(e));
            }
            reserved_compute.push((container.clone(), req.cpu, req.mem_mb));
        }
        let mut reserved_paths: Vec<&PathSegment> = Vec::new();
        for seg in &mapping.segments {
            if let Err(e) = self.state.reserve_path(&seg.nodes, chain.bandwidth_mbps) {
                for s in reserved_paths {
                    self.state.release_path(&s.nodes, chain.bandwidth_mbps);
                }
                for (c, cpu, mem) in &reserved_compute {
                    self.state.release_compute(c, *cpu, *mem);
                }
                return Err(MapError::Infeasible(e));
            }
            reserved_paths.push(seg);
        }
        self.committed
            .insert(chain.name.clone(), (mapping.clone(), reserved_compute));
        Ok(mapping)
    }

    /// Commits resources for a previously computed mapping without
    /// re-running the placement algorithm. Crash recovery restores a
    /// checkpointed embedding verbatim with this: the stored placement
    /// and routed segments are reserved as-is, so a restarted
    /// orchestrator reproduces the pre-crash resource view exactly even
    /// though the algorithm's greedy choices depend on deploy history.
    /// Fails without side effects if the chain is already embedded, a
    /// VNF is unknown, or the recorded resources no longer fit.
    pub fn restore_embedding(
        &mut self,
        sg: &ServiceGraph,
        mapping: &ChainMapping,
    ) -> Result<(), String> {
        let chain = &mapping.chain;
        if self.committed.contains_key(&chain.name) {
            return Err(format!("chain {:?} already embedded", chain.name));
        }
        let mut reserved_compute: Vec<(String, f64, u64)> = Vec::new();
        for (vnf, container) in &mapping.placement {
            let Some(req) = sg.vnf_named(vnf) else {
                for (c, cpu, mem) in &reserved_compute {
                    self.state.release_compute(c, *cpu, *mem);
                }
                return Err(format!("unknown vnf {vnf:?} in checkpointed mapping"));
            };
            if let Err(e) = self.state.reserve_compute(container, req.cpu, req.mem_mb) {
                for (c, cpu, mem) in &reserved_compute {
                    self.state.release_compute(c, *cpu, *mem);
                }
                return Err(e);
            }
            reserved_compute.push((container.clone(), req.cpu, req.mem_mb));
        }
        let mut reserved_paths: Vec<&PathSegment> = Vec::new();
        for seg in &mapping.segments {
            if let Err(e) = self.state.reserve_path(&seg.nodes, chain.bandwidth_mbps) {
                for s in reserved_paths {
                    self.state.release_path(&s.nodes, chain.bandwidth_mbps);
                }
                for (c, cpu, mem) in &reserved_compute {
                    self.state.release_compute(c, *cpu, *mem);
                }
                return Err(e);
            }
            reserved_paths.push(seg);
        }
        self.committed
            .insert(chain.name.clone(), (mapping.clone(), reserved_compute));
        Ok(())
    }

    /// Reserves compute for one extra replica of a chain's VNF on
    /// `container`, recording it in the chain's commit record so
    /// [`Orchestrator::audit`] keeps balancing and a later
    /// [`Orchestrator::release_chain`] frees it with everything else.
    /// Fails (without side effects) if the chain is unknown or the
    /// container lacks headroom.
    pub fn reserve_replica(
        &mut self,
        chain_name: &str,
        container: &str,
        cpu: f64,
        mem_mb: u64,
    ) -> Result<(), String> {
        if !self.committed.contains_key(chain_name) {
            return Err(format!("chain {chain_name:?} not embedded"));
        }
        self.state.reserve_compute(container, cpu, mem_mb)?;
        let (_, compute) = self.committed.get_mut(chain_name).expect("checked above");
        compute.push((container.to_string(), cpu, mem_mb));
        Ok(())
    }

    /// Releases one replica reservation previously made with
    /// [`Orchestrator::reserve_replica`] (or the original embedding).
    /// Returns false if no matching reservation exists on that chain.
    pub fn release_replica(
        &mut self,
        chain_name: &str,
        container: &str,
        cpu: f64,
        mem_mb: u64,
    ) -> bool {
        let Some((_, compute)) = self.committed.get_mut(chain_name) else {
            return false;
        };
        let Some(pos) = compute
            .iter()
            .position(|(c, u, m)| c == container && *u == cpu && *m == mem_mb)
        else {
            return false;
        };
        compute.remove(pos);
        self.state.release_compute(container, cpu, mem_mb);
        true
    }

    /// Releases an embedded chain's resources. Returns the mapping if the
    /// chain was known.
    pub fn release_chain(&mut self, chain_name: &str) -> Option<ChainMapping> {
        let (mapping, compute) = self.committed.remove(chain_name)?;
        for (c, cpu, mem) in compute {
            self.state.release_compute(&c, cpu, mem);
        }
        for seg in &mapping.segments {
            self.state
                .release_path(&seg.nodes, mapping.chain.bandwidth_mbps);
        }
        Some(mapping)
    }

    // ------------- fault handling -----------------------------------

    /// Marks a container failed in the resource view (see
    /// [`ResourceState::fail_container`]).
    pub fn mark_container_failed(&mut self, container: &str) -> bool {
        self.state.fail_container(container)
    }

    /// Restores a failed container's capacity.
    pub fn mark_container_recovered(&mut self, container: &str) -> bool {
        self.state.recover_container(container)
    }

    /// Marks a link failed: path search and reservation route around it.
    pub fn mark_link_failed(&mut self, a: &str, b: &str) -> bool {
        self.state.fail_link(a, b)
    }

    /// Restores a failed link's capacity.
    pub fn mark_link_recovered(&mut self, a: &str, b: &str) -> bool {
        self.state.recover_link(a, b)
    }

    /// The committed mapping of an embedded chain, if any.
    pub fn chain_mapping(&self, chain_name: &str) -> Option<&ChainMapping> {
        self.committed.get(chain_name).map(|(m, _)| m)
    }

    /// Embedded chains whose routed segments traverse the `a`-`b` link,
    /// sorted for deterministic recovery order.
    pub fn chains_using_link(&self, a: &str, b: &str) -> Vec<String> {
        let key = link_key(a, b);
        let mut v: Vec<String> = self
            .committed
            .iter()
            .filter(|(_, (m, _))| {
                m.segments
                    .iter()
                    .any(|s| s.nodes.windows(2).any(|w| link_key(&w[0], &w[1]) == key))
            })
            .map(|(name, _)| name.clone())
            .collect();
        v.sort_unstable();
        v
    }

    /// Embedded chains with at least one VNF placed on `container`,
    /// sorted for deterministic recovery order.
    pub fn chains_on_container(&self, container: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .committed
            .iter()
            .filter(|(_, (m, _))| m.placement.iter().any(|(_, c)| c == container))
            .map(|(name, _)| name.clone())
            .collect();
        v.sort_unstable();
        v
    }

    /// Fully re-embeds a chain (new placement and routes), e.g. after the
    /// container hosting one of its VNFs died. The old embedding is
    /// released first; on failure the chain stays un-embedded and its
    /// healthy resources stay released (the caller decides whether to
    /// retry later).
    pub fn remap_chain(
        &mut self,
        sg: &ServiceGraph,
        chain_name: &str,
    ) -> Result<ChainMapping, MapError> {
        let Some(old) = self.release_chain(chain_name) else {
            return Err(MapError::Infeasible(format!(
                "chain {chain_name:?} is not embedded"
            )));
        };
        match self.embed_chain(sg, &old.chain) {
            Ok(m) => {
                self.counters.remaps.inc();
                Ok(m)
            }
            Err(e) => {
                self.counters.remap_failures.inc();
                Err(e)
            }
        }
    }

    /// Re-routes a chain around failed links while keeping its placement
    /// (VNFs stay where they run; only the paths move). On failure the
    /// chain is fully released — placement included — so a subsequent
    /// [`Orchestrator::remap_chain`]-style re-embedding can start clean.
    pub fn reroute_chain(&mut self, chain_name: &str) -> Result<ChainMapping, MapError> {
        let Some((old, compute)) = self.committed.remove(chain_name) else {
            return Err(MapError::Infeasible(format!(
                "chain {chain_name:?} is not embedded"
            )));
        };
        // Free the old paths (failed hops land in the stash), keep compute.
        for seg in &old.segments {
            self.state
                .release_path(&seg.nodes, old.chain.bandwidth_mbps);
        }
        let placement = old.placement.clone();
        let topo = &self.topo;
        let locate = |hop: &str| -> Option<String> {
            if let Some((_, c)) = placement.iter().find(|(v, _)| v == hop) {
                return Some(c.clone());
            }
            match topo.node(hop).map(|n| &n.kind) {
                Some(TopoNodeKind::Sap) => Some(hop.to_string()),
                _ => None,
            }
        };
        let mut paths = self.paths.search(&self.state, old.chain.bandwidth_mbps);
        let routed = route_chain(&mut paths, &old.chain, &locate).and_then(|(segments, total)| {
            let mut reserved: Vec<&PathSegment> = Vec::new();
            for seg in &segments {
                if let Err(e) = self
                    .state
                    .reserve_path(&seg.nodes, old.chain.bandwidth_mbps)
                {
                    for s in reserved {
                        self.state.release_path(&s.nodes, old.chain.bandwidth_mbps);
                    }
                    return Err(MapError::Infeasible(e));
                }
                reserved.push(seg);
            }
            Ok((segments, total))
        });
        match routed {
            Ok((segments, total)) => {
                let mapping = ChainMapping {
                    segments,
                    total_delay_us: total,
                    ..old
                };
                self.committed
                    .insert(chain_name.to_string(), (mapping.clone(), compute));
                self.counters.reroutes.inc();
                Ok(mapping)
            }
            Err(e) => {
                // No viable route: give the compute back too and leave the
                // chain un-embedded.
                for (c, cpu, mem) in compute {
                    self.state.release_compute(&c, cpu, mem);
                }
                self.counters.reroute_failures.inc();
                Err(e)
            }
        }
    }

    /// Per-container compute reserved by an embedded chain, as committed
    /// at embed time: (container, cpu, mem_mb) triples.
    pub fn chain_reservations(&self, chain_name: &str) -> Option<&[(String, f64, u64)]> {
        self.committed.get(chain_name).map(|(_, c)| c.as_slice())
    }

    /// Conservation audit of the reservation ledger: for every container,
    /// effective free CPU/memory (live + failure stash) plus the sum of
    /// reservations committed to live chains must equal the topology
    /// capacity — and likewise for link bandwidth. Any difference means a
    /// leak (released twice, or never released). Returns one line per
    /// violation, in deterministic order; empty means the ledger is clean.
    pub fn audit(&self) -> Vec<String> {
        const EPS: f64 = 1e-6;
        let mut violations = Vec::new();
        let capacity = ResourceState::from_topology(&self.topo);

        // Sum committed reservations per container and per link.
        let mut cpu_reserved: HashMap<&str, f64> = HashMap::new();
        let mut mem_reserved: HashMap<&str, u64> = HashMap::new();
        let mut bw_reserved: HashMap<(String, String), f64> = HashMap::new();
        for (mapping, compute) in self.committed.values() {
            for (c, cpu, mem) in compute {
                *cpu_reserved.entry(c.as_str()).or_insert(0.0) += cpu;
                *mem_reserved.entry(c.as_str()).or_insert(0) += mem;
            }
            for seg in &mapping.segments {
                for w in seg.nodes.windows(2) {
                    *bw_reserved.entry(link_key(&w[0], &w[1])).or_insert(0.0) +=
                        mapping.chain.bandwidth_mbps;
                }
            }
        }

        for name in capacity.containers_sorted() {
            let free = self.state.effective_cpu_of(&name);
            let reserved = cpu_reserved.get(name.as_str()).copied().unwrap_or(0.0);
            let cap = capacity.cpu_of(&name);
            if (free + reserved - cap).abs() > EPS {
                violations.push(format!(
                    "container {name}: free {free} + reserved {reserved} != capacity {cap} cpu"
                ));
            }
            let free_mem = self.state.effective_mem_of(&name);
            let reserved_mem = mem_reserved.get(name.as_str()).copied().unwrap_or(0);
            let cap_mem = capacity.mem.get(&name).copied().unwrap_or(0);
            if free_mem + reserved_mem != cap_mem {
                violations.push(format!(
                    "container {name}: free {free_mem} + reserved {reserved_mem} != capacity {cap_mem} mem"
                ));
            }
        }
        let mut links: Vec<&(String, String)> = capacity.bw.keys().collect();
        links.sort();
        for key in links {
            let free = self.state.effective_bw_of(&key.0, &key.1);
            let reserved = bw_reserved.get(key).copied().unwrap_or(0.0);
            let cap = capacity.bw[key];
            if (free + reserved - cap).abs() > EPS {
                violations.push(format!(
                    "link {}-{}: free {free} + reserved {reserved} != capacity {cap} mbps",
                    key.0, key.1
                ));
            }
        }
        violations
    }

    /// Names of currently embedded chains.
    pub fn embedded_chains(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.committed.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// Fraction of total container CPU currently reserved.
    pub fn cpu_utilization(&self) -> f64 {
        let total = sum_in_name_order(self.topo.containers().filter_map(|n| match n.kind {
            TopoNodeKind::Container { cpu, .. } => Some((n.name.as_str(), cpu)),
            _ => None,
        }));
        if total == 0.0 {
            return 0.0;
        }
        1.0 - self.state.total_free_cpu() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::GreedyFirstFit;
    use escape_sg::topo::builders;

    fn sg() -> ServiceGraph {
        ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("fw", "firewall", 1.0, 256)
            .vnf("mon", "monitor", 0.5, 64)
            .chain("c1", &["sap0", "fw", "mon", "sap1"], 100.0, Some(10_000))
    }

    #[test]
    fn embed_and_release_round_trip() {
        let topo = builders::linear(3, 4.0);
        let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
        let free0 = orch.state().total_free_cpu();
        let (ok, rejected) = orch.embed_graph(&sg());
        assert_eq!(ok.len(), 1, "rejected: {rejected:?}");
        assert!(rejected.is_empty());
        let m = &ok[0];
        assert_eq!(m.placement.len(), 2);
        assert!(m.total_delay_us > 0);
        assert!(orch.state().total_free_cpu() < free0);
        assert_eq!(orch.embedded_chains(), vec!["c1"]);
        assert!(orch.cpu_utilization() > 0.0);

        orch.release_chain("c1").unwrap();
        assert_eq!(orch.state().total_free_cpu(), free0);
        assert!(orch.embedded_chains().is_empty());
        assert!(orch.release_chain("c1").is_none());
    }

    /// Same topology, same asks in the same order: the utilization must
    /// agree to the bit, whatever order each orchestrator's maps happen
    /// to iterate in (it is printed into journals and sent in `status`).
    #[test]
    fn utilization_is_bit_identical_across_orchestrators() {
        let graphs: Vec<ServiceGraph> = (0..12)
            .map(|i| {
                ServiceGraph::new()
                    .sap("sap0")
                    .sap("sap1")
                    .vnf("v", "monitor", 0.1 * (i % 7 + 1) as f64, 64)
                    .chain(&format!("c{i}"), &["sap0", "v", "sap1"], 1.0, None)
            })
            .collect();
        let bits: Vec<u64> = (0..32)
            .map(|_| {
                let topo = builders::star(12, 1.0);
                let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
                for g in &graphs {
                    assert_eq!(orch.embed_graph(g).0.len(), 1);
                }
                orch.cpu_utilization().to_bits()
            })
            .collect();
        assert!(bits.iter().all(|b| *b == bits[0]), "{bits:x?}");
    }

    #[test]
    fn replica_reservations_keep_the_ledger_balanced() {
        let topo = builders::linear(3, 4.0);
        let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
        let free0 = orch.state().total_free_cpu();
        orch.embed_graph(&sg());
        let container = orch
            .chain_reservations("c1")
            .unwrap()
            .first()
            .unwrap()
            .0
            .clone();
        let before = orch.chain_reservations("c1").unwrap().len();

        // A size no original reservation uses, so release matching is
        // unambiguous in the assertions below.
        orch.reserve_replica("c1", &container, 0.75, 192).unwrap();
        assert_eq!(orch.chain_reservations("c1").unwrap().len(), before + 1);
        assert!(orch.audit().is_empty(), "ledger balances with replica");

        // Unknown chain and exhausted container both fail cleanly.
        assert!(orch.reserve_replica("nope", &container, 1.0, 64).is_err());
        assert!(orch.reserve_replica("c1", &container, 1e9, 64).is_err());

        assert!(orch.release_replica("c1", &container, 0.75, 192));
        assert!(!orch.release_replica("c1", &container, 0.75, 192));
        assert_eq!(orch.chain_reservations("c1").unwrap().len(), before);
        assert!(orch.audit().is_empty());

        // release_chain frees replica reservations left behind.
        orch.reserve_replica("c1", &container, 0.5, 64).unwrap();
        orch.release_chain("c1").unwrap();
        assert_eq!(orch.state().total_free_cpu(), free0);
        assert!(orch.audit().is_empty());
    }

    #[test]
    fn double_embed_is_refused() {
        let topo = builders::linear(3, 4.0);
        let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
        let g = sg();
        orch.embed_chain(&g, &g.chains[0]).unwrap();
        assert!(matches!(
            orch.embed_chain(&g, &g.chains[0]),
            Err(MapError::Infeasible(_))
        ));
    }

    #[test]
    fn capacity_exhaustion_rejects_later_chains() {
        // Containers have 1 CPU each; each chain needs 1.5 total.
        let topo = builders::linear(2, 1.0);
        let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
        let mut g = ServiceGraph::new().sap("sap0").sap("sap1");
        for i in 0..4 {
            g = g.vnf(&format!("fw{i}"), "firewall", 1.0, 64).chain(
                &format!("c{i}"),
                &["sap0", &format!("fw{i}"), "sap1"],
                10.0,
                None,
            );
        }
        let (ok, rejected) = orch.embed_graph(&g);
        assert_eq!(ok.len(), 2, "two 1-cpu containers fit two 1-cpu vnfs");
        assert_eq!(rejected.len(), 2);
        assert!(matches!(rejected[0].1, MapError::NoCapacity(_)));
    }

    #[test]
    fn bandwidth_exhaustion_rejects() {
        // 1000 Mbit/s links; each chain reserves 400 Mbit/s into and out
        // of its container, so one chain saturates c0's uplink (800 of
        // 1000) and greedy — which keeps picking c0 by CPU — fails to
        // route the rest.
        let mk_graph = || {
            let mut g = ServiceGraph::new().sap("sap0").sap("sap1");
            for i in 0..3 {
                g = g.vnf(&format!("v{i}"), "monitor", 0.1, 16).chain(
                    &format!("c{i}"),
                    &["sap0", &format!("v{i}"), "sap1"],
                    400.0,
                    None,
                );
            }
            g
        };
        let mut orch =
            Orchestrator::new(builders::linear(2, 8.0), Box::new(GreedyFirstFit)).unwrap();
        let (ok, rejected) = orch.embed_graph(&mk_graph());
        assert_eq!(ok.len(), 1);
        assert_eq!(rejected.len(), 2);

        // A locality-aware algorithm spreads to c1 and fits a second
        // chain (sap0-s0 has 1000/400 = 2 chains of headroom).
        let mut orch = Orchestrator::new(
            builders::linear(2, 8.0),
            Box::new(crate::algo::NearestNeighbor),
        )
        .unwrap();
        let (ok, rejected) = orch.embed_graph(&mk_graph());
        assert_eq!(ok.len(), 2, "rejected: {rejected:?}");
        assert_eq!(rejected.len(), 1);
    }

    #[test]
    fn delay_budget_rejects() {
        let topo = builders::linear(8, 4.0); // 50 µs per switch hop
        let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
        let g = ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("v", "monitor", 0.5, 32)
            .chain("tight", &["sap0", "v", "sap1"], 10.0, Some(50));
        let (ok, rejected) = orch.embed_graph(&g);
        assert!(ok.is_empty());
        assert!(matches!(rejected[0].1, MapError::DelayExceeded { .. }));
    }

    /// A redundant triangle: the s0-s1 primary link has a two-hop backup
    /// through s2, so reroutes have somewhere to go.
    fn triangle() -> ResourceTopology {
        let mut t = ResourceTopology::new();
        t.add_sap("sap0").add_sap("sap1");
        t.add_switch("s0").add_switch("s1").add_switch("s2");
        t.add_container("c0", 4.0, 2048);
        t.add_link("sap0", "s0", 1000.0, 10);
        t.add_link("s0", "c0", 1000.0, 20);
        t.add_link("s0", "s1", 1000.0, 50);
        t.add_link("s0", "s2", 1000.0, 100);
        t.add_link("s2", "s1", 1000.0, 100);
        t.add_link("sap1", "s1", 1000.0, 10);
        t
    }

    #[test]
    fn reroute_moves_traffic_off_a_failed_link() {
        let reg = Registry::new();
        let mut orch =
            Orchestrator::with_registry(triangle(), Box::new(GreedyFirstFit), &reg).unwrap();
        let g = ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("fw", "firewall", 1.0, 256)
            .chain("c1", &["sap0", "fw", "sap1"], 100.0, None);
        let m = orch.embed_chain(&g, &g.chains[0]).unwrap();
        assert!(
            m.segments.iter().any(|s| s
                .nodes
                .windows(2)
                .any(|w| { (w[0] == "s0" && w[1] == "s1") || (w[0] == "s1" && w[1] == "s0") })),
            "primary route should use the direct s0-s1 link: {m:?}"
        );
        assert_eq!(orch.chains_using_link("s1", "s0"), vec!["c1"]);
        assert_eq!(orch.chains_on_container("c0"), vec!["c1"]);

        orch.mark_link_failed("s0", "s1");
        let m2 = orch.reroute_chain("c1").unwrap();
        assert_eq!(m2.placement, m.placement, "reroute keeps the placement");
        assert!(
            m2.segments
                .iter()
                .any(|s| s.nodes.iter().any(|n| n == "s2")),
            "reroute should detour through s2: {m2:?}"
        );
        assert!(m2.total_delay_us > m.total_delay_us);
        assert!(orch.chains_using_link("s0", "s1").is_empty());
        assert_eq!(reg.counter_total("orch.reroutes"), 1);
        // The full round trip still releases cleanly.
        orch.mark_link_recovered("s0", "s1");
        orch.release_chain("c1").unwrap();
        let fresh = ResourceState::from_topology(orch.topology());
        assert_eq!(orch.state().bw, fresh.bw);
        assert_eq!(orch.state().cpu, fresh.cpu);
    }

    /// Trees grown on this thread while `f` runs.
    fn searches_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = crate::path::SEARCHES.get();
        let out = f();
        (out, crate::path::SEARCHES.get() - before)
    }

    #[test]
    fn a_chain_costs_one_search_per_hop_not_one_per_candidate() {
        // The end-to-end harness's fabric: 80 containers, all of which fit
        // while the fabric is empty, so a search per candidate per VNF plus
        // one per segment would come to 161 for this chain.
        let mut orch = Orchestrator::new(
            builders::leaf_spine(2, 10, 8, 4, 1.0),
            Box::new(crate::algo::NearestNeighbor),
        )
        .unwrap();
        let g = ServiceGraph::new()
            .sap("h02_0")
            .sap("h07_1")
            .vnf("fw", "firewall", 0.75, 64)
            .vnf("mon", "monitor", 0.75, 64)
            .chain("c1", &["h02_0", "fw", "mon", "h07_1"], 10.0, None);
        let (m, searches) = searches_during(|| orch.embed_chain(&g, &g.chains[0]).unwrap());
        assert_ne!(
            m.placement[0].1, m.placement[1].1,
            "one container cannot hold both"
        );
        assert!(searches <= 4, "embedding ran {searches} searches");

        // Cross-leaf traffic picked a spine; fail that uplink and re-route.
        let uplink = m
            .segments
            .iter()
            .flat_map(|s| s.nodes.windows(2))
            .find(|w| w[1].starts_with("sp"))
            .expect("the chain crosses the spine layer");
        orch.mark_link_failed(&uplink[0], &uplink[1]);
        let (m2, searches) = searches_during(|| orch.reroute_chain("c1").unwrap());
        assert!(
            searches <= m2.segments.len(),
            "re-routing {} segments ran {searches} searches",
            m2.segments.len()
        );
        assert_ne!(
            m2.segments, m.segments,
            "the route moved off the failed link"
        );
    }

    #[test]
    fn reroute_without_alternate_path_releases_everything() {
        // linear(2) has a single path between the SAPs.
        let reg = Registry::new();
        let mut orch =
            Orchestrator::with_registry(builders::linear(2, 4.0), Box::new(GreedyFirstFit), &reg)
                .unwrap();
        let g = sg();
        orch.embed_chain(&g, &g.chains[0]).unwrap();
        orch.mark_link_failed("s0", "s1");
        let err = orch.reroute_chain("c1").unwrap_err();
        assert!(matches!(err, MapError::NoPath { .. }), "{err:?}");
        assert!(orch.embedded_chains().is_empty(), "chain fully released");
        // Healthy resources were returned (only the failed link is held).
        orch.mark_link_recovered("s0", "s1");
        let fresh = ResourceState::from_topology(orch.topology());
        assert_eq!(orch.state().cpu, fresh.cpu);
        assert_eq!(orch.state().bw, fresh.bw);
        assert_eq!(reg.counter_total("orch.reroute_failures"), 1);
    }

    #[test]
    fn remap_moves_a_chain_off_a_failed_container() {
        let reg = Registry::new();
        let mut orch =
            Orchestrator::with_registry(builders::star(2, 4.0), Box::new(GreedyFirstFit), &reg)
                .unwrap();
        let g = ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("fw", "firewall", 1.0, 256)
            .chain("c1", &["sap0", "fw", "sap1"], 100.0, None);
        let m = orch.embed_chain(&g, &g.chains[0]).unwrap();
        assert_eq!(m.container_of("fw"), Some("c0"));

        orch.mark_container_failed("c0");
        let m2 = orch.remap_chain(&g, "c1").unwrap();
        assert_eq!(m2.container_of("fw"), Some("c1"), "moved to the survivor");
        assert_eq!(orch.chains_on_container("c1"), vec!["c1"]);
        assert_eq!(reg.counter_total("orch.remaps"), 1);
    }

    #[test]
    fn remap_without_capacity_fails_gracefully() {
        let reg = Registry::new();
        let mut orch =
            Orchestrator::with_registry(builders::star(2, 1.0), Box::new(GreedyFirstFit), &reg)
                .unwrap();
        let g = ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("fw", "firewall", 1.0, 256)
            .chain("c1", &["sap0", "fw", "sap1"], 100.0, None);
        orch.embed_chain(&g, &g.chains[0]).unwrap();
        orch.mark_container_failed("c0");
        orch.mark_container_failed("c1");
        let err = orch.remap_chain(&g, "c1").unwrap_err();
        assert!(matches!(err, MapError::NoCapacity(_)), "{err:?}");
        assert!(orch.embedded_chains().is_empty());
        assert!(orch.remap_chain(&g, "c1").is_err(), "unknown chain now");
        assert_eq!(reg.counter_total("orch.remap_failures"), 1);
        // Survivors come back once the containers recover.
        orch.mark_container_recovered("c0");
        orch.mark_container_recovered("c1");
        let m = orch.embed_chain(&g, &g.chains[0]).unwrap();
        assert_eq!(m.placement.len(), 1);
    }

    #[test]
    fn audit_is_clean_through_lifecycle_and_catches_leaks() {
        let topo = builders::linear(3, 4.0);
        let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
        assert!(orch.audit().is_empty(), "fresh view is balanced");
        let g = sg();
        orch.embed_chain(&g, &g.chains[0]).unwrap();
        assert!(orch.audit().is_empty(), "embedded view is balanced");
        assert!(!orch.chain_reservations("c1").unwrap().is_empty());

        // Failure stashes don't unbalance the ledger.
        orch.mark_link_failed("s0", "s1");
        orch.mark_container_failed("c0");
        assert_eq!(orch.audit(), Vec::<String>::new());
        orch.mark_container_recovered("c0");
        orch.mark_link_recovered("s0", "s1");

        orch.release_chain("c1").unwrap();
        assert!(orch.audit().is_empty(), "released view is balanced");
        assert!(orch.chain_reservations("c1").is_none());

        // A double release is exactly the class of leak audit must catch.
        orch.embed_chain(&g, &g.chains[0]).unwrap();
        let m = orch.chain_mapping("c1").unwrap().clone();
        orch.state.release_path(&m.segments[0].nodes, 100.0);
        let v = orch.audit();
        assert!(!v.is_empty(), "double release must be flagged");
        assert!(v[0].contains("link"), "{v:?}");
    }

    #[test]
    fn hop_count_metric() {
        let topo = builders::linear(3, 4.0);
        let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
        let g = sg();
        let m = orch.embed_chain(&g, &g.chains[0]).unwrap();
        assert!(m.hop_count() >= 2);
        assert_eq!(m.container_of("fw"), Some("c0"));
        assert!(m.container_of("ghost").is_none());
    }
}
