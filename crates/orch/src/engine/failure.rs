//! Failure handling: failed containers and links leave the resource
//! view, and the chains that used them are re-routed or re-mapped.

use super::{route_chain, ChainMapping, Orchestrator};
use crate::algo::MapError;
use escape_sg::topo::{link_key, TopoNodeKind};
use escape_sg::ServiceGraph;

impl Orchestrator {
    /// Marks a container failed in the resource view (see
    /// [`ResourceState::fail_container`](crate::ResourceState::fail_container)).
    pub fn mark_container_failed(&mut self, container: &str) -> bool {
        self.state.fail_container(container)
    }

    /// Marks a link failed: path search and reservation route around it.
    pub fn mark_link_failed(&mut self, a: &str, b: &str) -> bool {
        self.state.fail_link(a, b)
    }

    /// Restores a failed link's capacity.
    pub fn mark_link_recovered(&mut self, a: &str, b: &str) -> bool {
        self.state.recover_link(a, b)
    }

    /// Embedded chains whose routed segments traverse the `a`-`b` link,
    /// in name order (the recovery order).
    pub fn chains_using_link(&self, a: &str, b: &str) -> Vec<String> {
        let key = link_key(a, b);
        self.committed
            .iter()
            .filter(|(_, (m, _))| {
                m.segments
                    .iter()
                    .any(|s| s.nodes.windows(2).any(|w| link_key(&w[0], &w[1]) == key))
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Embedded chains with at least one VNF placed on `container`, in
    /// name order (the recovery order).
    pub fn chains_on_container(&self, container: &str) -> Vec<String> {
        self.committed
            .iter()
            .filter(|(_, (m, _))| m.placement.iter().any(|(_, c)| c == container))
            .map(|(name, _)| name.clone())
            .collect()
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
            self.state
                .reserve_paths(&segments, old.chain.bandwidth_mbps)
                .map_err(MapError::Infeasible)?;
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
}
