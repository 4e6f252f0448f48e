//! The mapping code as it was before the path-search layer: every
//! candidate container and every routed segment costs one
//! `ResourceTopology::shortest_path` call. Kept only as the oracle the
//! differential properties in `prop.rs` compare the shipped algorithms
//! against — mappings must stay byte-identical.

use escape_orch::algo::MapError;
use escape_orch::{ChainMapping, PathSegment, ResourceState};
use escape_sg::{Chain, ResourceTopology, ServiceGraph};
use std::collections::BTreeMap;

/// The three shipped algorithms, with the search budget the properties
/// run backtracking at.
#[derive(Debug, Clone, Copy)]
pub enum Algo {
    FirstFit,
    Nearest,
    Backtracking { node_budget: u64 },
}

pub fn map_chain(
    algo: Algo,
    topo: &ResourceTopology,
    sg: &ServiceGraph,
    chain: &Chain,
    state: &ResourceState,
) -> Result<ChainMapping, MapError> {
    match algo {
        Algo::FirstFit => first_fit(topo, sg, chain, state),
        Algo::Nearest => nearest(topo, sg, chain, state),
        Algo::Backtracking { node_budget } => backtracking(node_budget, topo, sg, chain, state),
    }
}

fn route_chain(
    topo: &ResourceTopology,
    chain: &Chain,
    locate: &dyn Fn(&str) -> Option<String>,
    state: &ResourceState,
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
        let (nodes, delay) = topo
            .shortest_path(&from, &to, chain.bandwidth_mbps, Some(&state.bw))
            .ok_or_else(|| MapError::NoPath {
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

fn finish(
    topo: &ResourceTopology,
    chain: &Chain,
    placement: Vec<(String, String)>,
    state: &ResourceState,
) -> Result<ChainMapping, MapError> {
    let by_vnf: BTreeMap<&str, &str> = placement
        .iter()
        .map(|(v, c)| (v.as_str(), c.as_str()))
        .collect();
    let locate = |hop: &str| -> Option<String> {
        match by_vnf.get(hop) {
            Some(c) => Some(c.to_string()),
            None => topo.node(hop).map(|n| n.name.clone()),
        }
    };
    let (segments, total) = route_chain(topo, chain, &locate, state)?;
    Ok(ChainMapping {
        chain: chain.clone(),
        placement,
        segments,
        total_delay_us: total,
    })
}

fn first_fit(
    topo: &ResourceTopology,
    sg: &ServiceGraph,
    chain: &Chain,
    state: &ResourceState,
) -> Result<ChainMapping, MapError> {
    let mut scratch = state.clone();
    let mut placement = Vec::new();
    for (vnf, cpu, mem) in chain_vnfs(sg, chain)? {
        let host = scratch
            .cpu
            .keys()
            .find(|c| scratch.fits(c, cpu, mem))
            .cloned()
            .ok_or_else(|| MapError::NoCapacity(vnf.to_string()))?;
        scratch
            .reserve_compute(&host, cpu, mem)
            .expect("fits was checked");
        placement.push((vnf.to_string(), host));
    }
    finish(topo, chain, placement, state)
}

/// One search per fitting candidate per VNF — the loop the path layer
/// replaced.
fn nearest(
    topo: &ResourceTopology,
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
        for c in scratch.cpu.keys() {
            if !scratch.fits(c, cpu, mem) {
                continue;
            }
            let d = if *c == location {
                0
            } else {
                match topo.shortest_path(&location, c, chain.bandwidth_mbps, Some(&scratch.bw)) {
                    Some((_, d)) => d,
                    None => continue,
                }
            };
            if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                best = Some((d, c.clone()));
            }
        }
        let (_, host) = best.ok_or_else(|| MapError::NoCapacity(vnf.to_string()))?;
        scratch
            .reserve_compute(&host, cpu, mem)
            .expect("fits was checked");
        location = host.clone();
        placement.push((vnf.to_string(), host));
    }
    finish(topo, chain, placement, state)
}

fn backtracking(
    node_budget: u64,
    topo: &ResourceTopology,
    sg: &ServiceGraph,
    chain: &Chain,
    state: &ResourceState,
) -> Result<ChainMapping, MapError> {
    let vnfs = chain_vnfs(sg, chain)?;
    let containers: Vec<String> = state.cpu.keys().cloned().collect();
    let mut best: Option<ChainMapping> = None;
    let mut budget = node_budget;
    let mut stack: Vec<(String, String)> = Vec::new();

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        topo: &ResourceTopology,
        chain: &Chain,
        state: &ResourceState,
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
            if let Ok(m) = finish(topo, chain, stack.clone(), state) {
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
            recurse(
                topo, chain, state, scratch, vnfs, containers, stack, best, budget,
            );
            stack.pop();
            scratch.release_compute(c, cpu, mem);
        }
    }

    let mut scratch = state.clone();
    recurse(
        topo,
        chain,
        state,
        &mut scratch,
        &vnfs,
        &containers,
        &mut stack,
        &mut best,
        &mut budget,
    );
    best.ok_or_else(|| {
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
