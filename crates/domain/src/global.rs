//! The global orchestrator: hierarchical chain planning over the
//! aggregated multi-domain view.
//!
//! Given a cross-domain chain, the global layer:
//!
//! 1. locates the source and destination SAP domains,
//! 2. finds the cheapest domain path (Dijkstra over the domain graph,
//!    weighted by inter-domain gateway delay, skipping failed gateways),
//! 3. distributes the chain's VNFs over the domains along the path
//!    against each domain's *aggregate* free CPU (greedy, in path order —
//!    a VNF spills to the next domain only when the current one is full),
//! 4. splits the remaining delay budget equally across the per-domain
//!    legs, and
//! 5. emits one [`ChainLeg`] per traversed domain, each a self-contained
//!    single-domain chain running gateway-SAP to gateway-SAP, for the
//!    local orchestrators to embed in detail.
//!
//! The global layer never sees intra-domain links or individual
//! containers: exactly the information hiding the paper's recursive
//! orchestration column prescribes.

use crate::partition::Partition;
use escape_sg::{Chain, ServiceGraph};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// Why the global layer could not plan a chain.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A chain endpoint SAP is not a user SAP of any domain.
    UnknownSap(String),
    /// No gateway path between the endpoint domains (possibly because of
    /// failed gateways).
    NoDomainPath { from: String, to: String },
    /// Aggregate CPU along the domain path cannot host a VNF.
    NoCapacity { vnf: String, cpu: f64 },
    /// Inter-domain gateway delays alone exceed the chain's budget.
    DelayExceeded {
        inter_domain_us: u64,
        budget_us: u64,
    },
    /// Malformed input (bad chain shape, unknown VNF, ...).
    Invalid(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownSap(s) => write!(f, "unknown SAP {s:?} in multi-domain plan"),
            PlanError::NoDomainPath { from, to } => {
                write!(f, "no gateway path between domains {from:?} and {to:?}")
            }
            PlanError::NoCapacity { vnf, cpu } => write!(
                f,
                "no aggregate capacity for VNF {vnf:?} ({cpu} cpu) along the domain path"
            ),
            PlanError::DelayExceeded {
                inter_domain_us,
                budget_us,
            } => write!(
                f,
                "inter-domain delay {inter_domain_us}µs alone exceeds budget {budget_us}µs"
            ),
            PlanError::Invalid(m) => write!(f, "invalid multi-domain request: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One per-domain piece of a stitched chain: a complete single-domain
/// chain (running real-SAP or gateway-SAP to gateway-SAP or real-SAP)
/// plus which gateways it enters and leaves through.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainLeg {
    pub domain: String,
    /// The single-domain chain the local orchestrator embeds. Keeps the
    /// original chain's name (unique per domain: domain paths are simple).
    pub chain: Chain,
    /// VNF instance names placed in this domain, in chain order.
    pub vnfs: Vec<String>,
    /// Gateway id this leg is entered through (`None` on the first leg).
    pub ingress_gw: Option<usize>,
    /// Gateway id this leg exits through (`None` on the last leg).
    pub egress_gw: Option<usize>,
}

/// The global plan for one chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainPlan {
    pub chain: String,
    pub domain_path: Vec<String>,
    pub legs: Vec<ChainLeg>,
    /// Total gateway delay the packet pays between domains (µs).
    pub inter_domain_us: u64,
}

impl ChainPlan {
    /// Gateway ids the plan rides over.
    pub fn gateways(&self) -> Vec<usize> {
        self.legs.iter().filter_map(|l| l.egress_gw).collect()
    }
}

/// The global orchestrator state: the partition, per-domain aggregate
/// free CPU, and the set of currently failed gateways.
#[derive(Debug, Clone)]
pub struct GlobalOrchestrator {
    partition: Partition,
    free_cpu: BTreeMap<String, f64>,
    /// chain -> (domain, cpu) commitments, released on teardown.
    committed: BTreeMap<String, Vec<(String, f64)>>,
    failed_gateways: BTreeSet<usize>,
}

impl GlobalOrchestrator {
    pub fn new(partition: Partition) -> GlobalOrchestrator {
        let free_cpu = partition
            .domains
            .iter()
            .map(|d| (d.name.clone(), d.view.total_cpu))
            .collect();
        GlobalOrchestrator {
            partition,
            free_cpu,
            committed: BTreeMap::new(),
            failed_gateways: BTreeSet::new(),
        }
    }

    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Aggregate free CPU currently assumed for a domain.
    pub fn free_cpu(&self, domain: &str) -> f64 {
        self.free_cpu.get(domain).copied().unwrap_or(0.0)
    }

    pub fn mark_gateway_failed(&mut self, id: usize) {
        self.failed_gateways.insert(id);
    }

    pub fn mark_gateway_recovered(&mut self, id: usize) {
        self.failed_gateways.remove(&id);
    }

    /// True while gateway `id` is marked failed.
    pub fn gateway_failed(&self, id: usize) -> bool {
        self.failed_gateways.contains(&id)
    }

    /// Which user-SAP domain a name belongs to (gateway SAPs excluded —
    /// chains cannot terminate on a stitch point).
    fn sap_domain(&self, sap: &str) -> Option<&str> {
        self.partition
            .domains
            .iter()
            .find(|d| d.view.saps.iter().any(|s| s == sap))
            .map(|d| d.name.as_str())
    }

    /// Dijkstra over the domain graph. Returns the domain path, the
    /// gateway chosen for each consecutive pair, and the summed gateway
    /// delay. Ties break on (delay, domain name) then lowest gateway id,
    /// so the result is deterministic.
    fn domain_path(&self, from: &str, to: &str) -> Option<(Vec<String>, Vec<usize>, u64)> {
        if from == to {
            return Some((vec![from.to_string()], Vec::new(), 0));
        }
        #[derive(PartialEq, Eq)]
        struct Entry(u64, String);
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reversed: BinaryHeap is a max-heap, we want min-delay first.
                other.0.cmp(&self.0).then_with(|| other.1.cmp(&self.1))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut best: BTreeMap<String, u64> = BTreeMap::new();
        let mut prev: BTreeMap<String, (String, usize)> = BTreeMap::new();
        let mut heap = BinaryHeap::new();
        best.insert(from.to_string(), 0);
        heap.push(Entry(0, from.to_string()));
        while let Some(Entry(d, name)) = heap.pop() {
            if best.get(&name).copied().unwrap_or(u64::MAX) < d {
                continue;
            }
            if name == to {
                break;
            }
            for g in &self.partition.gateways {
                if self.failed_gateways.contains(&g.id) {
                    continue;
                }
                let Some(peer) = g.peer_of(&name) else {
                    continue;
                };
                let nd = d + g.delay_us;
                let cur = best.get(peer).copied().unwrap_or(u64::MAX);
                // On an exact tie (same total delay, e.g. parallel
                // gateways), keep the lowest gateway id for determinism.
                let better =
                    nd < cur || (nd == cur && prev.get(peer).is_some_and(|(_, gid)| g.id < *gid));
                if better {
                    best.insert(peer.to_string(), nd);
                    prev.insert(peer.to_string(), (name.clone(), g.id));
                    heap.push(Entry(nd, peer.to_string()));
                }
            }
        }
        let total = *best.get(to)?;
        let mut path = vec![to.to_string()];
        let mut gws = Vec::new();
        let mut cur = to.to_string();
        while cur != from {
            let (p, gid) = prev.get(&cur)?.clone();
            gws.push(gid);
            path.push(p.clone());
            cur = p;
        }
        path.reverse();
        gws.reverse();
        Some((path, gws, total))
    }

    /// Plans one chain: domain path, VNF distribution, budget split, legs.
    /// Pure — call [`GlobalOrchestrator::commit`] to reserve the capacity.
    pub fn plan_chain(&self, sg: &ServiceGraph, chain: &Chain) -> Result<ChainPlan, PlanError> {
        if chain.hops.len() < 2 {
            return Err(PlanError::Invalid(format!(
                "chain {:?} has fewer than two hops",
                chain.name
            )));
        }
        let src_sap = &chain.hops[0];
        let dst_sap = chain.hops.last().expect("checked above: at least two hops");
        let src_d = self
            .sap_domain(src_sap)
            .ok_or_else(|| PlanError::UnknownSap(src_sap.clone()))?
            .to_string();
        let dst_d = self
            .sap_domain(dst_sap)
            .ok_or_else(|| PlanError::UnknownSap(dst_sap.clone()))?
            .to_string();
        let (path, gws, inter_domain_us) =
            self.domain_path(&src_d, &dst_d)
                .ok_or_else(|| PlanError::NoDomainPath {
                    from: src_d.clone(),
                    to: dst_d.clone(),
                })?;

        // Distribute the middle VNFs over the path domains, greedy in
        // path order against aggregate free CPU.
        let middle = &chain.hops[1..chain.hops.len() - 1];
        let mut free: Vec<f64> = path.iter().map(|d| self.free_cpu(d)).collect();
        let mut placed: Vec<Vec<String>> = vec![Vec::new(); path.len()];
        let mut at = 0usize;
        for v in middle {
            let req = sg
                .vnf_named(v)
                .ok_or_else(|| PlanError::Invalid(format!("unknown VNF {v:?}")))?;
            while at < path.len() && free[at] < req.cpu {
                at += 1;
            }
            if at >= path.len() {
                return Err(PlanError::NoCapacity {
                    vnf: v.clone(),
                    cpu: req.cpu,
                });
            }
            free[at] -= req.cpu;
            placed[at].push(v.clone());
        }

        // Split the delay budget: gateways take their share off the top,
        // each leg gets an equal slice of the remainder.
        let leg_budget = match chain.max_delay_us {
            None => None,
            Some(b) => {
                if inter_domain_us >= b {
                    return Err(PlanError::DelayExceeded {
                        inter_domain_us,
                        budget_us: b,
                    });
                }
                Some((b - inter_domain_us) / path.len() as u64)
            }
        };

        let mut legs = Vec::with_capacity(path.len());
        for (i, domain) in path.iter().enumerate() {
            let ingress_gw = if i == 0 { None } else { Some(gws[i - 1]) };
            let egress_gw = if i + 1 == path.len() {
                None
            } else {
                Some(gws[i])
            };
            let gateway_sap = |gid: usize| {
                self.partition.gateways[gid]
                    .sap_in(domain)
                    .expect("a path gateway touches both domains it joins")
                    .to_string()
            };
            let entry = ingress_gw.map_or_else(|| src_sap.clone(), gateway_sap);
            let exit = egress_gw.map_or_else(|| dst_sap.clone(), gateway_sap);
            let mut hops = Vec::with_capacity(placed[i].len() + 2);
            hops.push(entry);
            hops.extend(placed[i].iter().cloned());
            hops.push(exit);
            legs.push(ChainLeg {
                domain: domain.clone(),
                chain: Chain {
                    name: chain.name.clone(),
                    hops,
                    bandwidth_mbps: chain.bandwidth_mbps,
                    max_delay_us: leg_budget,
                    // The SLA is end-to-end; delivery happens on the
                    // final leg (birth timestamps survive handoffs), so
                    // that is where the verdict is computed.
                    sla: if i + 1 == path.len() { chain.sla } else { None },
                },
                vnfs: placed[i].clone(),
                ingress_gw,
                egress_gw,
            });
        }
        Ok(ChainPlan {
            chain: chain.name.clone(),
            domain_path: path,
            legs,
            inter_domain_us,
        })
    }

    /// Reserves the plan's aggregate CPU against the per-domain views.
    pub fn commit(&mut self, sg: &ServiceGraph, plan: &ChainPlan) {
        let mut taken = Vec::new();
        for leg in &plan.legs {
            for v in &leg.vnfs {
                if let Some(req) = sg.vnf_named(v) {
                    *self.free_cpu.entry(leg.domain.clone()).or_insert(0.0) -= req.cpu;
                    taken.push((leg.domain.clone(), req.cpu));
                }
            }
        }
        self.committed.insert(plan.chain.clone(), taken);
    }

    /// Returns a chain's aggregate CPU to the per-domain views.
    pub fn release(&mut self, chain: &str) {
        if let Some(taken) = self.committed.remove(chain) {
            for (domain, cpu) in taken {
                *self.free_cpu.entry(domain).or_insert(0.0) += cpu;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::spec::DomainSpec;
    use escape_sg::{ResourceTopology, ServiceGraph};

    /// sap0 - sw0(c0: 2cpu) - sw1(c1: 4cpu) - sw2(c2: 2cpu) - sap2
    fn orch3() -> (GlobalOrchestrator, ServiceGraph) {
        let mut t = ResourceTopology::new();
        t.add_sap("sap0")
            .add_switch("sw0")
            .add_container("c0", 2.0, 256)
            .add_switch("sw1")
            .add_container("c1", 4.0, 512)
            .add_switch("sw2")
            .add_container("c2", 2.0, 256)
            .add_sap("sap2")
            .add_link("sap0", "sw0", 1000.0, 10)
            .add_link("c0", "sw0", 1000.0, 10)
            .add_link("sw0", "sw1", 200.0, 300)
            .add_link("c1", "sw1", 1000.0, 10)
            .add_link("sw1", "sw2", 200.0, 400)
            .add_link("c2", "sw2", 1000.0, 10)
            .add_link("sap2", "sw2", 1000.0, 10);
        let spec = DomainSpec::new()
            .domain("d0", &["sap0", "sw0", "c0"])
            .domain("d1", &["sw1", "c1"])
            .domain("d2", &["sw2", "c2", "sap2"]);
        let p = partition(&t, &spec).unwrap();
        let sg = ServiceGraph::new()
            .sap("sap0")
            .sap("sap2")
            .vnf("f1", "firewall", 1.5, 64)
            .vnf("f2", "monitor", 1.5, 64)
            .vnf("f3", "firewall", 1.5, 64)
            .chain("c", &["sap0", "f1", "f2", "f3", "sap2"], 10.0, Some(5_000));
        (GlobalOrchestrator::new(p), sg)
    }

    #[test]
    fn plans_three_domain_chain_with_spillover() {
        let (orch, sg) = orch3();
        let plan = orch.plan_chain(&sg, &sg.chains[0]).unwrap();
        assert_eq!(plan.domain_path, vec!["d0", "d1", "d2"]);
        assert_eq!(plan.inter_domain_us, 700);
        assert_eq!(plan.legs.len(), 3);
        // d0 fits one 1.5-cpu VNF (2 cpu total), d1 fits the next two.
        assert_eq!(plan.legs[0].vnfs, vec!["f1"]);
        assert_eq!(plan.legs[1].vnfs, vec!["f2", "f3"]);
        assert!(plan.legs[2].vnfs.is_empty());
        // Leg chains run SAP/gateway to gateway/SAP.
        assert_eq!(plan.legs[0].chain.hops, vec!["sap0", "f1", "gw0_d0"]);
        assert_eq!(
            plan.legs[1].chain.hops,
            vec!["gw0_d1", "f2", "f3", "gw1_d1"]
        );
        assert_eq!(plan.legs[2].chain.hops, vec!["gw1_d2", "sap2"]);
        // Budget: (5000 - 700) / 3 per leg.
        assert_eq!(plan.legs[0].chain.max_delay_us, Some(1433));
        assert_eq!(plan.gateways(), vec![0, 1]);
    }

    #[test]
    fn commit_and_release_track_aggregate_cpu() {
        let (mut orch, sg) = orch3();
        let plan = orch.plan_chain(&sg, &sg.chains[0]).unwrap();
        orch.commit(&sg, &plan);
        assert_eq!(orch.free_cpu("d0"), 0.5);
        assert_eq!(orch.free_cpu("d1"), 1.0);
        // A second identical chain no longer fits anywhere on the path.
        let err = orch.plan_chain(&sg, &sg.chains[0]).unwrap_err();
        assert!(matches!(err, PlanError::NoCapacity { .. }));
        orch.release("c");
        assert_eq!(orch.free_cpu("d0"), 2.0);
        assert!(orch.plan_chain(&sg, &sg.chains[0]).is_ok());
    }

    #[test]
    fn failed_gateway_blocks_the_path() {
        let (mut orch, sg) = orch3();
        orch.mark_gateway_failed(0);
        let err = orch.plan_chain(&sg, &sg.chains[0]).unwrap_err();
        assert_eq!(
            err,
            PlanError::NoDomainPath {
                from: "d0".into(),
                to: "d2".into()
            }
        );
        orch.mark_gateway_recovered(0);
        assert!(orch.plan_chain(&sg, &sg.chains[0]).is_ok());
    }

    #[test]
    fn budget_smaller_than_gateway_delay_is_an_error() {
        let (orch, mut sg) = orch3();
        sg.chains[0].max_delay_us = Some(600);
        let err = orch.plan_chain(&sg, &sg.chains[0]).unwrap_err();
        assert_eq!(
            err,
            PlanError::DelayExceeded {
                inter_domain_us: 700,
                budget_us: 600
            }
        );
        assert_eq!(
            err.to_string(),
            "inter-domain delay 700µs alone exceeds budget 600µs"
        );
    }

    #[test]
    fn same_domain_chain_is_a_single_leg() {
        let (orch, _) = orch3();
        let sg = ServiceGraph::new()
            .sap("sap0")
            .vnf("f", "firewall", 1.0, 64)
            .chain("local", &["sap0", "f", "sap0"], 5.0, None);
        let plan = orch.plan_chain(&sg, &sg.chains[0]).unwrap();
        assert_eq!(plan.domain_path, vec!["d0"]);
        assert_eq!(plan.legs.len(), 1);
        assert_eq!(plan.inter_domain_us, 0);
        assert_eq!(plan.legs[0].chain.hops, vec!["sap0", "f", "sap0"]);
    }
}
