//! What an embedding is: where each VNF of a chain runs and the routed
//! path between consecutive hops.

use crate::algo::MapError;
use crate::path::PathSearch;
use escape_sg::Chain;

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
        // Saturates: a total past the clock exceeds every budget.
        total = total.saturating_add(delay);
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
