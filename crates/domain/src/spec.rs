//! Domain specifications: the operator-supplied assignment of topology
//! nodes to named administrative domains.
//!
//! The JSON form mirrors what `escape run --domains <spec.json>` accepts:
//!
//! ```json
//! {
//!   "domains": [
//!     { "name": "edge",  "nodes": ["sap0", "sw0", "c0"] },
//!     { "name": "core",  "nodes": ["sw1", "c1"] }
//!   ]
//! }
//! ```
//!
//! Every node of the target [`ResourceTopology`] must belong to exactly
//! one domain; links whose endpoints land in different domains become
//! gateway links during [`crate::partition::partition`].

use escape_json::wire::{from_json, Wire};
use escape_json::wire_struct;
use escape_sg::{ResourceTopology, TopoNodeKind};

wire_struct! {
    /// One named domain: a set of topology node names.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DomainDef {
        pub name: String,
        pub nodes: Vec<String>,
    }
}

wire_struct! {
    /// A full partitioning of a topology into domains.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct DomainSpec {
        pub domains: Vec<DomainDef>,
    }
}

impl DomainSpec {
    /// An empty spec.
    pub fn new() -> DomainSpec {
        DomainSpec::default()
    }

    /// Builder-style: appends a domain.
    pub fn domain(mut self, name: &str, nodes: &[&str]) -> DomainSpec {
        self.domains.push(DomainDef {
            name: name.to_string(),
            nodes: nodes.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Which domain a node belongs to.
    pub fn domain_of(&self, node: &str) -> Option<&str> {
        self.domains
            .iter()
            .find(|d| d.nodes.iter().any(|n| n == node))
            .map(|d| d.name.as_str())
    }

    /// Parses the JSON form shown in the module docs.
    pub fn from_json(src: &str) -> Result<DomainSpec, String> {
        from_json(src)
    }

    /// Renders the spec back to its JSON form.
    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    /// Checks the topology itself, then the spec against it: at least
    /// one domain, unique non-empty domain names, every topology node
    /// covered exactly once, no unknown nodes, and every cross-domain
    /// link running switch-to-switch (gateway SAPs attach to switches, so
    /// partitioning a link whose endpoint is a container or SAP has no
    /// stitch point).
    pub fn validate(&self, topo: &ResourceTopology) -> Result<(), String> {
        topo.validate()?;
        if self.domains.is_empty() {
            return Err("domain spec: no domains defined".into());
        }
        let mut owner: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
        for d in &self.domains {
            if d.name.is_empty() {
                return Err("domain spec: empty domain name".into());
            }
            if self.domains.iter().filter(|o| o.name == d.name).count() > 1 {
                return Err(format!("domain spec: duplicate domain name {:?}", d.name));
            }
            if d.nodes.is_empty() {
                return Err(format!("domain spec: domain {:?} has no nodes", d.name));
            }
            for n in &d.nodes {
                if topo.node(n).is_none() {
                    return Err(format!(
                        "domain spec: domain {:?} lists unknown node {n:?}",
                        d.name
                    ));
                }
                if let Some(prev) = owner.insert(n.as_str(), d.name.as_str()) {
                    return Err(format!(
                        "domain spec: node {n:?} assigned to both {prev:?} and {:?}",
                        d.name
                    ));
                }
            }
        }
        for n in &topo.nodes {
            if !owner.contains_key(n.name.as_str()) {
                return Err(format!(
                    "domain spec: topology node {:?} not assigned to any domain",
                    n.name
                ));
            }
        }
        // The topology is valid, so every link end is a node, and every
        // node has an owner.
        let owner_of = |node: &str| owner.get(node).expect("every node has an owner");
        for l in &topo.links {
            if owner_of(&l.a) != owner_of(&l.b) {
                for end in [&l.a, &l.b] {
                    let kind = &topo.node(end).expect("a link end is a node").kind;
                    if !matches!(kind, TopoNodeKind::Switch) {
                        return Err(format!(
                            "domain spec: cross-domain link {:?} -- {:?} must join \
                             switches, but {end:?} is not a switch",
                            l.a, l.b
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_domain_topo() -> ResourceTopology {
        let mut t = ResourceTopology::new();
        t.add_sap("sap0")
            .add_switch("sw0")
            .add_container("c0", 4.0, 512)
            .add_switch("sw1")
            .add_container("c1", 4.0, 512)
            .add_sap("sap1")
            .add_link("sap0", "sw0", 1000.0, 10)
            .add_link("c0", "sw0", 1000.0, 10)
            .add_link("sw0", "sw1", 100.0, 500)
            .add_link("c1", "sw1", 1000.0, 10)
            .add_link("sap1", "sw1", 1000.0, 10);
        t
    }

    fn two_domain_spec() -> DomainSpec {
        DomainSpec::new()
            .domain("left", &["sap0", "sw0", "c0"])
            .domain("right", &["sw1", "c1", "sap1"])
    }

    #[test]
    fn json_round_trip() {
        let spec = two_domain_spec();
        let back = DomainSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn validate_accepts_full_cover() {
        two_domain_spec().validate(&two_domain_topo()).unwrap();
    }

    #[test]
    fn validate_rejects_missing_and_duplicate_nodes() {
        let topo = two_domain_topo();
        let missing = DomainSpec::new()
            .domain("left", &["sap0", "sw0", "c0"])
            .domain("right", &["sw1", "c1"]); // sap1 unassigned
        assert!(missing.validate(&topo).unwrap_err().contains("sap1"));

        let dup = DomainSpec::new()
            .domain("left", &["sap0", "sw0", "c0", "sw1"])
            .domain("right", &["sw1", "c1", "sap1"]);
        assert!(dup.validate(&topo).unwrap_err().contains("both"));
    }

    #[test]
    fn validate_rejects_non_switch_boundary() {
        let topo = two_domain_topo();
        // Cut through the c1--sw1 link instead of the switch trunk.
        let spec = DomainSpec::new()
            .domain("left", &["sap0", "sw0", "c0", "sw1", "sap1"])
            .domain("right", &["c1"]);
        assert!(spec.validate(&topo).unwrap_err().contains("switch"));
    }

    #[test]
    fn validate_checks_the_topology_first() {
        let mut topo = two_domain_topo();
        topo.add_link("ghost", "sw1", 1000.0, 10);
        assert_eq!(
            two_domain_spec().validate(&topo).unwrap_err(),
            "link references unknown node \"ghost\""
        );
    }

    #[test]
    fn from_json_reports_shape_errors() {
        assert!(DomainSpec::from_json("{}").is_err());
        assert!(DomainSpec::from_json(r#"{"domains": [{"name": "a"}]}"#).is_err());
    }
}
