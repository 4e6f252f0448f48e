//! Carving one [`ResourceTopology`] into per-domain local topologies.
//!
//! Each cross-domain link `(a in A) -- (b in B)` with delay `d` becomes a
//! [`GatewayLink`]: domain A gains a *gateway SAP* attached to `a` with
//! delay `d/2`, domain B gains one attached to `b` with the remaining
//! `d - d/2`, so a packet crossing both halves plus the coordinator
//! handoff experiences the original link delay split across the two
//! simulators. Gateway SAPs are ordinary SAPs from the local
//! orchestrator's point of view — chain legs terminate on them and the
//! multi-domain runtime ferries payloads between the paired SAPs.

use crate::spec::DomainSpec;
use escape_sg::{ResourceTopology, TopoNodeKind};

/// Prefix of generated gateway SAP names (`gw{id}_{domain}`).
pub const GATEWAY_PREFIX: &str = "gw";

/// One inter-domain adjacency derived from a cross-domain topology link.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayLink {
    /// Index into [`Partition::gateways`]; also baked into SAP names.
    pub id: usize,
    pub a_domain: String,
    /// Boundary switch on the A side (a node of the original topology).
    pub a_switch: String,
    /// Generated gateway SAP inside the A-side local topology.
    pub a_sap: String,
    pub b_domain: String,
    pub b_switch: String,
    pub b_sap: String,
    pub bandwidth_mbps: f64,
    /// Full inter-domain delay of the original link (before halving).
    pub delay_us: u64,
}

impl GatewayLink {
    /// True if this gateway touches the named domain.
    pub fn touches(&self, domain: &str) -> bool {
        self.a_domain == domain || self.b_domain == domain
    }

    /// The domain on the far side, if `domain` is one of the two ends.
    pub fn peer_of(&self, domain: &str) -> Option<&str> {
        if self.a_domain == domain {
            Some(&self.b_domain)
        } else if self.b_domain == domain {
            Some(&self.a_domain)
        } else {
            None
        }
    }

    /// The gateway SAP name living inside the named domain.
    pub fn sap_in(&self, domain: &str) -> Option<&str> {
        if self.a_domain == domain {
            Some(&self.a_sap)
        } else if self.b_domain == domain {
            Some(&self.b_sap)
        } else {
            None
        }
    }
}

/// The aggregated resource view the global orchestrator sees for one
/// domain — capacity totals, not the detailed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainView {
    pub name: String,
    /// Sum of container CPU shares.
    pub total_cpu: f64,
    /// Sum of container memory.
    pub total_mem_mb: u64,
    /// Number of VNF containers.
    pub containers: usize,
    /// Real (user-facing) SAPs — gateway SAPs are excluded.
    pub saps: Vec<String>,
}

/// One domain after partitioning: its local topology (including generated
/// gateway SAPs) plus the aggregate view exported upward.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDomain {
    pub name: String,
    pub topo: ResourceTopology,
    pub view: DomainView,
}

/// The result of partitioning: local domains plus the gateway links that
/// join them.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    pub domains: Vec<LocalDomain>,
    pub gateways: Vec<GatewayLink>,
}

impl Partition {
    /// Finds a domain by name.
    pub fn domain(&self, name: &str) -> Option<&LocalDomain> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// Index of a domain by name.
    pub fn domain_index(&self, name: &str) -> Option<usize> {
        self.domains.iter().position(|d| d.name == name)
    }

    /// Which domain an *original* topology node ended up in. Gateway SAPs
    /// resolve too, since they are nodes of exactly one local topology.
    pub fn domain_of(&self, node: &str) -> Option<&str> {
        self.domains
            .iter()
            .find(|d| d.topo.node(node).is_some())
            .map(|d| d.name.as_str())
    }
}

/// Splits `topo` into per-domain local topologies per `spec`.
///
/// Validates the spec (and the topology) first; fails if any generated
/// gateway SAP name
/// collides with an existing node. Domain order follows the spec,
/// gateway IDs follow the original link order — both deterministic.
pub fn partition(topo: &ResourceTopology, spec: &DomainSpec) -> Result<Partition, String> {
    spec.validate(topo)?;

    let mut domains: Vec<LocalDomain> = spec
        .domains
        .iter()
        .map(|d| {
            let local = topo.induced(d.nodes.iter().map(String::as_str));
            let mut total_cpu = 0.0;
            let mut total_mem_mb = 0;
            let mut containers = 0;
            for n in local.containers() {
                if let TopoNodeKind::Container { cpu, mem_mb } = n.kind {
                    total_cpu += cpu;
                    total_mem_mb += mem_mb;
                    containers += 1;
                }
            }
            let saps = local.saps().map(|n| n.name.clone()).collect();
            LocalDomain {
                name: d.name.clone(),
                view: DomainView {
                    name: d.name.clone(),
                    total_cpu,
                    total_mem_mb,
                    containers,
                    saps,
                },
                topo: local,
            }
        })
        .collect();

    let owner = |node: &str| {
        spec.domain_of(node)
            .expect("a validated spec owns every link end")
            .to_string()
    };
    let mut gateways = Vec::new();
    for l in &topo.links {
        let (da, db) = (owner(&l.a), owner(&l.b));
        if da == db {
            continue;
        }
        let id = gateways.len();
        let a_sap = format!("{GATEWAY_PREFIX}{id}_{da}");
        let b_sap = format!("{GATEWAY_PREFIX}{id}_{db}");
        for sap in [&a_sap, &b_sap] {
            if topo.node(sap).is_some() {
                return Err(format!(
                    "partition: generated gateway SAP name {sap:?} collides with a topology node"
                ));
            }
        }
        let half = l.delay_us / 2;
        for (domain, sap, switch, delay_us) in [
            (&da, &a_sap, &l.a, half),
            (&db, &b_sap, &l.b, l.delay_us - half),
        ] {
            let side = domains
                .iter_mut()
                .find(|d| &d.name == domain)
                .expect("one local domain per spec domain");
            side.topo.add_sap(sap.clone());
            side.topo
                .add_link(sap.clone(), switch.clone(), l.bandwidth_mbps, delay_us);
        }
        gateways.push(GatewayLink {
            id,
            a_domain: da,
            a_switch: l.a.clone(),
            a_sap,
            b_domain: db,
            b_switch: l.b.clone(),
            b_sap,
            bandwidth_mbps: l.bandwidth_mbps,
            delay_us: l.delay_us,
        });
    }

    for d in &domains {
        d.topo
            .validate()
            .map_err(|e| format!("partition: domain {:?} invalid: {e}", d.name))?;
    }
    Ok(Partition { domains, gateways })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo3() -> (ResourceTopology, DomainSpec) {
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
            .add_link("sw0", "sw1", 200.0, 301)
            .add_link("c1", "sw1", 1000.0, 10)
            .add_link("sw1", "sw2", 200.0, 400)
            .add_link("c2", "sw2", 1000.0, 10)
            .add_link("sap2", "sw2", 1000.0, 10);
        let spec = DomainSpec::new()
            .domain("d0", &["sap0", "sw0", "c0"])
            .domain("d1", &["sw1", "c1"])
            .domain("d2", &["sw2", "c2", "sap2"]);
        (t, spec)
    }

    #[test]
    fn partitions_into_three_domains_with_gateways() {
        let (t, spec) = topo3();
        let p = partition(&t, &spec).unwrap();
        assert_eq!(p.domains.len(), 3);
        assert_eq!(p.gateways.len(), 2);

        let g0 = &p.gateways[0];
        assert_eq!((g0.a_domain.as_str(), g0.b_domain.as_str()), ("d0", "d1"));
        assert_eq!(g0.a_sap, "gw0_d0");
        assert_eq!(g0.b_sap, "gw0_d1");
        assert_eq!(g0.delay_us, 301);

        // Odd delay splits without losing a microsecond.
        let d0 = p.domain("d0").unwrap();
        let d1 = p.domain("d1").unwrap();
        let half_a = d0.topo.links.iter().find(|l| l.a == "gw0_d0").unwrap();
        let half_b = d1.topo.links.iter().find(|l| l.a == "gw0_d1").unwrap();
        assert_eq!(half_a.delay_us + half_b.delay_us, 301);

        // The aggregate view hides gateway SAPs but counts capacity.
        assert_eq!(d1.view.saps, Vec::<String>::new());
        assert_eq!(d1.view.total_cpu, 4.0);
        assert_eq!(d0.view.saps, vec!["sap0".to_string()]);

        // Middle domain carries both gateway SAPs in its local topology.
        assert!(d1.topo.node("gw0_d1").is_some());
        assert!(d1.topo.node("gw1_d1").is_some());
    }

    #[test]
    fn gateway_helpers_resolve_sides() {
        let (t, spec) = topo3();
        let p = partition(&t, &spec).unwrap();
        let g = &p.gateways[1];
        assert!(g.touches("d1") && g.touches("d2") && !g.touches("d0"));
        assert_eq!(g.peer_of("d1"), Some("d2"));
        assert_eq!(g.sap_in("d2"), Some("gw1_d2"));
        assert_eq!(g.sap_in("d0"), None);
        assert_eq!(p.domain_of("c1"), Some("d1"));
        assert_eq!(p.domain_of("gw1_d2"), Some("d2"));
    }
}
