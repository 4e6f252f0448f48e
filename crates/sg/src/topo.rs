//! The resource topology: the orchestrator's view of the infrastructure.

use escape_json::wire::{from_json, Flat, Wire};
use escape_json::{wire_struct, wire_tagged};
use std::collections::{BinaryHeap, HashMap};

wire_tagged! {
    /// What a topology node is. In the JSON form this is a `"kind"` tag
    /// with the container capacity fields inlined next to it.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TopoNodeKind as "kind" {
        /// An OpenFlow switch.
        "switch" => Switch,
        /// A VNF container: compute where VNFs can be placed.
        "container" => Container { cpu: f64, mem_mb: u64 },
        /// A service access point: where user traffic enters/leaves.
        "sap" => Sap,
    }
}

wire_struct! {
    /// One topology node.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TopoNode {
        pub name: String,
        pub kind: TopoNodeKind => Flat,
    }
}

wire_struct! {
    /// One bidirectional link.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TopoLink {
        pub a: String,
        pub b: String,
        pub bandwidth_mbps: f64,
        pub delay_us: u64,
    }
}

wire_struct! {
    /// The infrastructure topology.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ResourceTopology {
        pub nodes: Vec<TopoNode>,
        pub links: Vec<TopoLink>,
    }
}

impl ResourceTopology {
    /// An empty topology.
    pub fn new() -> ResourceTopology {
        ResourceTopology::default()
    }

    /// Adds a switch.
    pub fn add_switch(&mut self, name: impl Into<String>) -> &mut Self {
        self.nodes.push(TopoNode {
            name: name.into(),
            kind: TopoNodeKind::Switch,
        });
        self
    }

    /// Adds a VNF container with capacity.
    pub fn add_container(&mut self, name: impl Into<String>, cpu: f64, mem_mb: u64) -> &mut Self {
        self.nodes.push(TopoNode {
            name: name.into(),
            kind: TopoNodeKind::Container { cpu, mem_mb },
        });
        self
    }

    /// Adds a SAP.
    pub fn add_sap(&mut self, name: impl Into<String>) -> &mut Self {
        self.nodes.push(TopoNode {
            name: name.into(),
            kind: TopoNodeKind::Sap,
        });
        self
    }

    /// Adds a link.
    pub fn add_link(
        &mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        bandwidth_mbps: f64,
        delay_us: u64,
    ) -> &mut Self {
        self.links.push(TopoLink {
            a: a.into(),
            b: b.into(),
            bandwidth_mbps,
            delay_us,
        });
        self
    }

    /// Finds a node by name.
    pub fn node(&self, name: &str) -> Option<&TopoNode> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// All container nodes.
    pub fn containers(&self) -> impl Iterator<Item = &TopoNode> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, TopoNodeKind::Container { .. }))
    }

    /// All switch nodes.
    pub fn switches(&self) -> impl Iterator<Item = &TopoNode> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, TopoNodeKind::Switch))
    }

    /// All SAPs.
    pub fn saps(&self) -> impl Iterator<Item = &TopoNode> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, TopoNodeKind::Sap))
    }

    /// Neighbors of a node with the connecting link.
    pub fn neighbors<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, &'a TopoLink)> {
        self.links.iter().filter_map(move |l| {
            if l.a == name {
                Some((l.b.as_str(), l))
            } else if l.b == name {
                Some((l.a.as_str(), l))
            } else {
                None
            }
        })
    }

    /// The subgraph induced by the named nodes: those nodes (in original
    /// order) plus every link with both endpoints in the set. Used by the
    /// multi-domain partitioner to carve per-domain local topologies.
    pub fn induced<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> ResourceTopology {
        let keep: std::collections::HashSet<&str> = names.into_iter().collect();
        ResourceTopology {
            nodes: self
                .nodes
                .iter()
                .filter(|n| keep.contains(n.name.as_str()))
                .cloned()
                .collect(),
            links: self
                .links
                .iter()
                .filter(|l| keep.contains(l.a.as_str()) && keep.contains(l.b.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Structural validation: link endpoints exist, no duplicate names,
    /// positive capacities.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = HashMap::new();
        for n in &self.nodes {
            if seen.insert(n.name.clone(), ()).is_some() {
                return Err(format!("duplicate node name {:?}", n.name));
            }
            if let TopoNodeKind::Container { cpu, .. } = n.kind {
                if cpu <= 0.0 {
                    return Err(format!("container {:?} has non-positive cpu", n.name));
                }
            }
        }
        for l in &self.links {
            for end in [&l.a, &l.b] {
                if !seen.contains_key(end) {
                    return Err(format!("link references unknown node {end:?}"));
                }
            }
            if l.bandwidth_mbps <= 0.0 {
                return Err(format!("link {}-{} has non-positive bandwidth", l.a, l.b));
            }
        }
        Ok(())
    }

    /// Dijkstra by cumulative delay. Returns (path node names, total
    /// delay µs), or `None` if unreachable. Links with residual bandwidth
    /// below `min_bw_mbps` are skipped (pass 0.0 to ignore bandwidth).
    pub fn shortest_path(
        &self,
        from: &str,
        to: &str,
        min_bw_mbps: f64,
        residual_bw: Option<&HashMap<(String, String), f64>>,
    ) -> Option<(Vec<String>, u64)> {
        let mut dist: HashMap<&str, u64> = HashMap::new();
        let mut prev: HashMap<&str, &str> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(from, 0);
        heap.push(std::cmp::Reverse((0u64, from)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if u == to {
                break;
            }
            if dist.get(u).is_some_and(|&best| d > best) {
                continue;
            }
            for (v, link) in self.neighbors(u) {
                let available = match residual_bw {
                    Some(res) => *res
                        .get(&link_key(&link.a, &link.b))
                        .unwrap_or(&link.bandwidth_mbps),
                    None => link.bandwidth_mbps,
                };
                if available < min_bw_mbps {
                    continue;
                }
                let nd = d + link.delay_us;
                if dist.get(v).is_none_or(|&best| nd < best) {
                    dist.insert(v, nd);
                    prev.insert(v, u);
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        let total = *dist.get(to)?;
        let mut path = vec![to.to_string()];
        let mut cur = to;
        while cur != from {
            cur = prev.get(cur)?;
            path.push(cur.to_string());
        }
        path.reverse();
        Some((path, total))
    }

    /// JSON serialization (the MiniEdit-substitute file format).
    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    /// JSON deserialization.
    pub fn from_json(s: &str) -> Result<ResourceTopology, String> {
        from_json(s)
    }
}

/// Canonical (sorted) key for a link's residual-bandwidth map.
pub fn link_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// Standard topology shapes used by examples, tests and benches.
pub mod builders {
    use super::*;

    /// `sap0 - s0 - s1 - ... - s(n-1) - sap1`, one container per switch.
    /// Containers get `cpu` cores each.
    pub fn linear(n_switches: usize, cpu: f64) -> ResourceTopology {
        let mut t = ResourceTopology::new();
        t.add_sap("sap0").add_sap("sap1");
        for i in 0..n_switches {
            t.add_switch(format!("s{i}"));
            t.add_container(format!("c{i}"), cpu, 2048);
            t.add_link(format!("s{i}"), format!("c{i}"), 1000.0, 20);
            if i > 0 {
                t.add_link(format!("s{}", i - 1), format!("s{i}"), 1000.0, 50);
            }
        }
        t.add_link("sap0", "s0", 1000.0, 10);
        t.add_link("sap1", format!("s{}", n_switches - 1), 1000.0, 10);
        t
    }

    /// One core switch with `n_leaves` edge switches, each with a
    /// container and a SAP.
    pub fn star(n_leaves: usize, cpu: f64) -> ResourceTopology {
        let mut t = ResourceTopology::new();
        t.add_switch("core");
        for i in 0..n_leaves {
            t.add_switch(format!("s{i}"));
            t.add_container(format!("c{i}"), cpu, 2048);
            t.add_sap(format!("sap{i}"));
            t.add_link("core", format!("s{i}"), 1000.0, 50);
            t.add_link(format!("s{i}"), format!("c{i}"), 1000.0, 20);
            t.add_link(format!("s{i}"), format!("sap{i}"), 1000.0, 10);
        }
        t
    }

    /// A two-tier leaf–spine fabric: every leaf `lfNN` links to every
    /// spine `spN` (so any two leaves are joined by `spines` equal-cost
    /// paths) and carries `containers` containers `cNN_i` of `cpu` cores
    /// and `saps` SAPs `hNN_j`.
    pub fn leaf_spine(
        spines: usize,
        leaves: usize,
        containers: usize,
        saps: usize,
        cpu: f64,
    ) -> ResourceTopology {
        let mut t = ResourceTopology::new();
        for s in 0..spines {
            t.add_switch(format!("sp{s}"));
        }
        for l in 0..leaves {
            let leaf = format!("lf{l:02}");
            t.add_switch(&leaf);
            for s in 0..spines {
                t.add_link(&leaf, format!("sp{s}"), 40_000.0, 50);
            }
            for i in 0..containers {
                t.add_container(format!("c{l:02}_{i}"), cpu, 1024);
                t.add_link(format!("c{l:02}_{i}"), &leaf, 10_000.0, 20);
            }
            for j in 0..saps {
                t.add_sap(format!("h{l:02}_{j}"));
                t.add_link(format!("h{l:02}_{j}"), &leaf, 10_000.0, 10);
            }
        }
        t
    }

    /// A complete binary tree of switches of the given `depth`; leaf
    /// switches carry a container and a SAP each.
    pub fn tree(depth: u32, cpu: f64) -> ResourceTopology {
        let mut t = ResourceTopology::new();
        let levels: Vec<usize> = (0..=depth).map(|d| 1usize << d).collect();
        let mut idx = 0usize;
        let mut names: Vec<Vec<String>> = Vec::new();
        for (d, &count) in levels.iter().enumerate() {
            let mut level = Vec::new();
            for _ in 0..count {
                let name = format!("s{idx}");
                idx += 1;
                t.add_switch(&name);
                level.push(name);
            }
            if d > 0 {
                for (i, name) in level.iter().enumerate() {
                    let parent = &names[d - 1][i / 2];
                    t.add_link(parent.clone(), name.clone(), 1000.0, 50);
                }
            }
            names.push(level);
        }
        for (i, leaf) in names[depth as usize].clone().iter().enumerate() {
            t.add_container(format!("c{i}"), cpu, 2048);
            t.add_sap(format!("sap{i}"));
            t.add_link(leaf.clone(), format!("c{i}"), 1000.0, 20);
            t.add_link(leaf.clone(), format!("sap{i}"), 1000.0, 10);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_shapes_validate() {
        builders::linear(5, 4.0).validate().unwrap();
        builders::star(8, 2.0).validate().unwrap();
        builders::tree(3, 2.0).validate().unwrap();
        let fabric = builders::leaf_spine(2, 10, 8, 4, 1.0);
        fabric.validate().unwrap();
        assert_eq!(fabric.containers().count(), 80);
        assert_eq!(fabric.links.len(), 10 * (2 + 8 + 4));
    }

    #[test]
    fn linear_counts() {
        let t = builders::linear(4, 2.0);
        assert_eq!(t.switches().count(), 4);
        assert_eq!(t.containers().count(), 4);
        assert_eq!(t.saps().count(), 2);
        // links: 4 switch-container + 3 inter-switch + 2 sap = 9
        assert_eq!(t.links.len(), 9);
    }

    #[test]
    fn validation_catches_errors() {
        let mut t = ResourceTopology::new();
        t.add_switch("a").add_switch("a");
        assert!(t.validate().unwrap_err().contains("duplicate"));

        let mut t = ResourceTopology::new();
        t.add_switch("a").add_link("a", "ghost", 10.0, 1);
        assert!(t.validate().unwrap_err().contains("ghost"));

        let mut t = ResourceTopology::new();
        t.add_container("c", 0.0, 64);
        assert!(t.validate().unwrap_err().contains("cpu"));

        let mut t = ResourceTopology::new();
        t.add_switch("a").add_switch("b").add_link("a", "b", 0.0, 1);
        assert!(t.validate().unwrap_err().contains("bandwidth"));
    }

    #[test]
    fn shortest_path_prefers_low_delay() {
        let mut t = ResourceTopology::new();
        t.add_switch("a").add_switch("b").add_switch("c");
        t.add_link("a", "b", 100.0, 100);
        t.add_link("b", "c", 100.0, 100);
        t.add_link("a", "c", 100.0, 500); // direct but slower
        let (path, delay) = t.shortest_path("a", "c", 0.0, None).unwrap();
        assert_eq!(path, vec!["a", "b", "c"]);
        assert_eq!(delay, 200);
    }

    #[test]
    fn shortest_path_respects_bandwidth_floor() {
        let mut t = ResourceTopology::new();
        t.add_switch("a").add_switch("b").add_switch("c");
        t.add_link("a", "b", 10.0, 100);
        t.add_link("b", "c", 10.0, 100);
        t.add_link("a", "c", 1000.0, 500);
        let (path, _) = t.shortest_path("a", "c", 100.0, None).unwrap();
        assert_eq!(path, vec!["a", "c"], "thin path excluded");
        assert!(t.shortest_path("a", "c", 5000.0, None).is_none());
    }

    #[test]
    fn shortest_path_uses_residuals() {
        let mut t = ResourceTopology::new();
        t.add_switch("a").add_switch("b");
        t.add_link("a", "b", 100.0, 10);
        let mut residual = HashMap::new();
        residual.insert(link_key("a", "b"), 5.0);
        assert!(t.shortest_path("a", "b", 50.0, Some(&residual)).is_none());
        assert!(t.shortest_path("a", "b", 5.0, Some(&residual)).is_some());
    }

    #[test]
    fn json_roundtrip() {
        let t = builders::star(3, 2.0);
        let json = t.to_json();
        let back = ResourceTopology::from_json(&json).unwrap();
        assert_eq!(t, back);
        assert!(ResourceTopology::from_json("{nope}").is_err());
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = builders::linear(3, 1.0);
        let from_s1: Vec<&str> = t.neighbors("s1").map(|(n, _)| n).collect();
        assert!(from_s1.contains(&"s0"));
        assert!(from_s1.contains(&"s2"));
        assert!(from_s1.contains(&"c1"));
    }
}
