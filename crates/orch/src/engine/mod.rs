//! The orchestration engine: commits embeddings against the resource view.
//!
//! The [`Orchestrator`] holds the resource view, the algorithm and the
//! committed chains. Its work is split by concern: `mapping` is what an
//! embedding is ([`PathSegment`], [`ChainMapping`], [`route_chain`]),
//! `transactions` commits and releases embeddings and audits the
//! ledger, and `failure` marks failed containers and links and
//! re-embeds the chains they touch.

mod failure;
mod mapping;
mod transactions;

pub use mapping::{route_chain, ChainMapping, PathSegment};

use crate::algo::MappingAlgorithm;
use crate::path::PathIndex;
use crate::state::{sum_in_name_order, ResourceState};
use escape_sg::topo::TopoNodeKind;
use escape_sg::ResourceTopology;
use escape_telemetry::{Counter, Histogram, Registry};
use std::collections::BTreeMap;

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

/// Per-chain commit record: the mapping plus the (container, cpu, mem)
/// reservations to release on teardown.
type CommitRecord = (ChainMapping, Vec<(String, f64, u64)>);

/// The orchestrator: owns the resource view and a pluggable algorithm.
pub struct Orchestrator {
    topo: ResourceTopology,
    /// `topo` compiled for path search. The topology never changes after
    /// construction; failures and reservations live in `state`.
    paths: PathIndex,
    state: ResourceState,
    algorithm: Box<dyn MappingAlgorithm>,
    /// Keyed by chain name; walked in name order, so every sum and list
    /// built from it is the same in every process.
    committed: BTreeMap<String, CommitRecord>,
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
            committed: BTreeMap::new(),
            counters: OrchCounters::new(registry),
        })
    }

    /// The algorithm in use.
    pub fn algorithm_name(&self) -> &'static str {
        self.algorithm.name()
    }

    /// The current residual view.
    pub fn state(&self) -> &ResourceState {
        &self.state
    }

    /// The topology.
    pub fn topology(&self) -> &ResourceTopology {
        &self.topo
    }

    /// Per-container compute reserved by an embedded chain, as committed
    /// at embed time: (container, cpu, mem_mb) triples.
    pub fn chain_reservations(&self, chain_name: &str) -> Option<&[(String, f64, u64)]> {
        self.committed.get(chain_name).map(|(_, c)| c.as_slice())
    }

    /// Names of currently embedded chains, in name order.
    pub fn embedded_chains(&self) -> Vec<&str> {
        self.committed.keys().map(|s| s.as_str()).collect()
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
    use crate::algo::{GreedyFirstFit, MapError};
    use escape_sg::topo::builders;
    use escape_sg::ServiceGraph;

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
        orch.mark_link_recovered("s0", "s1");

        orch.release_chain("c1").unwrap();
        assert!(orch.audit().is_empty(), "released view is balanced");
        assert!(orch.chain_reservations("c1").is_none());

        // A double release is exactly the class of leak audit must catch.
        let m = orch.embed_chain(&g, &g.chains[0]).unwrap();
        orch.state.release_path(&m.segments[0].nodes, 100.0);
        let v = orch.audit();
        assert!(!v.is_empty(), "double release must be flagged");
        assert!(v[0].contains("link"), "{v:?}");
    }

    /// The `reserved` figure of a violation sums `f64` reservations, and
    /// float addition is not associative: it must be summed in an order
    /// that depends on neither the embed order nor the process.
    #[test]
    fn audit_violation_text_does_not_depend_on_embed_order() {
        let graphs: Vec<ServiceGraph> = (0..8)
            .map(|i| {
                ServiceGraph::new()
                    .sap("sap0")
                    .sap("sap1")
                    .vnf("v", "monitor", 0.1 * (i + 1) as f64, 64)
                    .chain(&format!("c{i}"), &["sap0", "v", "sap1"], 10.0, None)
            })
            .collect();
        let orders: [[usize; 8]; 4] = [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [7, 6, 5, 4, 3, 2, 1, 0],
            [3, 0, 6, 1, 7, 4, 2, 5],
            [5, 2, 7, 0, 4, 1, 6, 3],
        ];
        let texts: Vec<Vec<String>> = orders
            .iter()
            .map(|order| {
                let topo = builders::linear(2, 4.0);
                let mut orch = Orchestrator::new(topo, Box::new(GreedyFirstFit)).unwrap();
                for &i in order {
                    let m = orch.embed_chain(&graphs[i], &graphs[i].chains[0]).unwrap();
                    assert_eq!(m.container_of("v"), Some("c0"));
                }
                // A leak: c0's residual no longer matches its ledger.
                orch.state.cpu.insert("c0".into(), 0.25);
                orch.audit()
            })
            .collect();
        assert_eq!(texts[0].len(), 1, "{:?}", texts[0]);
        assert!(texts[0][0].starts_with("container c0: free 0.25 + reserved"));
        for t in &texts[1..] {
            assert_eq!(t, &texts[0]);
        }
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
