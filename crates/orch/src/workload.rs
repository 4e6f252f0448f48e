//! Seeded random service-graph generators for the mapping experiments.

use escape_catalog::Catalog;
use escape_sg::topo::TopoNodeKind;
use escape_sg::{ResourceTopology, ServiceGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a random chain workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of chains to request.
    pub chains: usize,
    /// VNFs per chain, inclusive range.
    pub vnfs_per_chain: (usize, usize),
    /// CPU demand per VNF, inclusive range.
    pub cpu: (f64, f64),
    /// Bandwidth per chain (Mbit/s), inclusive range.
    pub bandwidth_mbps: (f64, f64),
    /// Delay budget (µs), or `None` for best-effort chains.
    pub max_delay_us: Option<u64>,
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            chains: 10,
            vnfs_per_chain: (1, 3),
            cpu: (0.25, 1.0),
            bandwidth_mbps: (10.0, 100.0),
            max_delay_us: None,
            seed: 1,
        }
    }
}

/// Why a workload could not be generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The topology exposes fewer than two SAPs, so no chain can have
    /// distinct endpoints.
    NotEnoughSaps {
        /// SAPs actually present in the topology.
        found: usize,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NotEnoughSaps { found } => write!(
                f,
                "topology has {found} SAP(s); random workloads need at least two"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Generates a random service graph over the topology's SAPs, drawing
/// VNF types from the catalog. Fails with [`WorkloadError::NotEnoughSaps`]
/// when the topology has fewer than two SAPs.
pub fn random_service_graph(
    topo: &ResourceTopology,
    spec: &WorkloadSpec,
) -> Result<ServiceGraph, WorkloadError> {
    let saps: Vec<&str> = topo
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, TopoNodeKind::Sap))
        .map(|n| n.name.as_str())
        .collect();
    if saps.len() < 2 {
        return Err(WorkloadError::NotEnoughSaps { found: saps.len() });
    }
    let catalog = Catalog::standard();
    // Exclude the 3-port load balancer: chains are linear.
    let types: Vec<&str> = catalog
        .names()
        .into_iter()
        .filter(|n| catalog.get(n).expect("names() lists catalog entries").ports == 2)
        .collect();
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut g = ServiceGraph::new();
    for s in &saps {
        g.saps.push(s.to_string());
    }
    for ci in 0..spec.chains {
        let src = saps[rng.gen_range(0..saps.len())];
        let dst = loop {
            let d = saps[rng.gen_range(0..saps.len())];
            if d != src {
                break d;
            }
        };
        let n_vnfs = rng.gen_range(spec.vnfs_per_chain.0..=spec.vnfs_per_chain.1);
        let mut hops = vec![src.to_string()];
        for vi in 0..n_vnfs {
            let name = format!("vnf_{ci}_{vi}");
            let ty = types[rng.gen_range(0..types.len())];
            let cpu = rng.gen_range(spec.cpu.0..=spec.cpu.1);
            g.vnfs.push(escape_sg::VnfReq {
                name: name.clone(),
                vnf_type: ty.to_string(),
                cpu: (cpu * 100.0).round() / 100.0,
                mem_mb: 64,
                params: Vec::new(),
                click_config: None,
            });
            hops.push(name);
        }
        hops.push(dst.to_string());
        g.chains.push(escape_sg::Chain {
            name: format!("chain_{ci}"),
            hops,
            bandwidth_mbps: (rng.gen_range(spec.bandwidth_mbps.0..=spec.bandwidth_mbps.1) * 10.0)
                .round()
                / 10.0,
            max_delay_us: spec.max_delay_us,
            sla: None,
        });
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::GreedyFirstFit;
    use crate::engine::Orchestrator;
    use escape_sg::topo::builders;

    #[test]
    fn generated_graphs_validate() {
        let topo = builders::star(6, 4.0);
        for seed in 0..5 {
            let g = random_service_graph(
                &topo,
                &WorkloadSpec {
                    seed,
                    ..Default::default()
                },
            )
            .unwrap();
            g.validate().unwrap();
            assert_eq!(g.chains.len(), 10);
        }
    }

    #[test]
    fn same_seed_same_graph() {
        let topo = builders::star(4, 2.0);
        let spec = WorkloadSpec {
            seed: 99,
            ..Default::default()
        };
        assert_eq!(
            random_service_graph(&topo, &spec).unwrap(),
            random_service_graph(&topo, &spec).unwrap()
        );
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let topo = builders::star(4, 2.0);
        let a = random_service_graph(
            &topo,
            &WorkloadSpec {
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let b = random_service_graph(
            &topo,
            &WorkloadSpec {
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a, b, "seed must drive generation");
    }

    #[test]
    fn too_few_saps_is_a_typed_error() {
        // A 1-switch "topology" with no SAPs at all.
        let mut topo = escape_sg::ResourceTopology::new();
        topo.add_switch("s0");
        let err = random_service_graph(&topo, &WorkloadSpec::default()).unwrap_err();
        assert_eq!(err, WorkloadError::NotEnoughSaps { found: 0 });
        assert!(err.to_string().contains("at least two"));
    }

    #[test]
    fn workloads_are_mappable_on_big_topologies() {
        let topo = builders::tree(3, 16.0);
        let g = random_service_graph(
            &topo,
            &WorkloadSpec {
                chains: 5,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
        let (ok, rejected) = orch.embed_graph(&g);
        assert_eq!(ok.len() + rejected.len(), 5);
        assert!(!ok.is_empty(), "at least some chains embed");
    }

    #[test]
    fn vnf_types_come_from_catalog() {
        let topo = builders::star(4, 2.0);
        let g = random_service_graph(&topo, &WorkloadSpec::default()).unwrap();
        let catalog = Catalog::standard();
        for v in &g.vnfs {
            assert!(
                catalog.get(&v.vnf_type).is_some(),
                "unknown type {}",
                v.vnf_type
            );
            assert_eq!(catalog.get(&v.vnf_type).unwrap().ports, 2);
        }
    }
}
