//! The orchestrator's transactions: embedding or restoring a chain
//! commits its compute and bandwidth all at once or not at all; replicas
//! reserve and release compute on a committed chain; `audit` checks the
//! ledger against the topology.

use super::{ChainMapping, Orchestrator};
use crate::algo::MapError;
use crate::state::ResourceState;
use escape_sg::topo::link_key;
use escape_sg::{Chain, ServiceGraph};
use std::collections::BTreeMap;
use std::time::Instant;

/// The (container, cpu, mem) each placed VNF reserves, in placement
/// order, or the name of a VNF `sg` does not declare.
fn demands(sg: &ServiceGraph, mapping: &ChainMapping) -> Result<Vec<(String, f64, u64)>, String> {
    mapping
        .placement
        .iter()
        .map(|(vnf, container)| {
            let req = sg.vnf_named(vnf).ok_or_else(|| vnf.clone())?;
            Ok((container.clone(), req.cpu, req.mem_mb))
        })
        .collect()
}

impl Orchestrator {
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
        let compute = demands(sg, &mapping).map_err(MapError::UnknownNode)?;
        self.commit(&mapping, compute)
            .map_err(MapError::Infeasible)?;
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
        let compute = demands(sg, mapping)
            .map_err(|vnf| format!("unknown vnf {vnf:?} in checkpointed mapping"))?;
        self.commit(mapping, compute)
    }

    /// Reserves `compute`, then `mapping`'s bandwidth on every segment,
    /// and records the chain as committed. On failure nothing stays
    /// reserved.
    fn commit(
        &mut self,
        mapping: &ChainMapping,
        compute: Vec<(String, f64, u64)>,
    ) -> Result<(), String> {
        let bw = mapping.chain.bandwidth_mbps;
        for (i, (c, cpu, mem)) in compute.iter().enumerate() {
            if let Err(e) = self.state.reserve_compute(c, *cpu, *mem) {
                for (c, cpu, mem) in &compute[..i] {
                    self.state.release_compute(c, *cpu, *mem);
                }
                return Err(e);
            }
        }
        if let Err(e) = self.state.reserve_paths(&mapping.segments, bw) {
            for (c, cpu, mem) in &compute {
                self.state.release_compute(c, *cpu, *mem);
            }
            return Err(e);
        }
        self.committed
            .insert(mapping.chain.name.clone(), (mapping.clone(), compute));
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
        let mut cpu_reserved: BTreeMap<&str, f64> = BTreeMap::new();
        let mut mem_reserved: BTreeMap<&str, u64> = BTreeMap::new();
        let mut bw_reserved: BTreeMap<(String, String), f64> = BTreeMap::new();
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

        for (name, &cap) in &capacity.cpu {
            let free = self.state.effective_cpu_of(name);
            let reserved = cpu_reserved.get(name.as_str()).copied().unwrap_or(0.0);
            if (free + reserved - cap).abs() > EPS {
                violations.push(format!(
                    "container {name}: free {free} + reserved {reserved} != capacity {cap} cpu"
                ));
            }
            let free_mem = self.state.effective_mem_of(name);
            let reserved_mem = mem_reserved.get(name.as_str()).copied().unwrap_or(0);
            let cap_mem = capacity.mem.get(name).copied().unwrap_or(0);
            if free_mem + reserved_mem != cap_mem {
                violations.push(format!(
                    "container {name}: free {free_mem} + reserved {reserved_mem} != capacity {cap_mem} mem"
                ));
            }
        }
        for (key, &cap) in &capacity.bw {
            let free = self.state.effective_bw_of(&key.0, &key.1);
            let reserved = bw_reserved.get(key).copied().unwrap_or(0.0);
            if (free + reserved - cap).abs() > EPS {
                violations.push(format!(
                    "link {}-{}: free {free} + reserved {reserved} != capacity {cap} mbps",
                    key.0, key.1
                ));
            }
        }
        violations
    }
}
