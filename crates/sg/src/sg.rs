//! The abstract service graph: VNF requests and chains.

use escape_json::wire::{decode_items, from_json, Codec, Obj, Omit, Wire, WireError};
use escape_json::{wire_struct, Value};
use std::collections::HashSet;

wire_struct! {
    /// A requested VNF instance: which catalog type, how much resource.
    #[derive(Debug, Clone, PartialEq)]
    pub struct VnfReq {
        /// Instance name, unique within the service graph.
        pub name: String,
        /// Catalog type (e.g. "firewall") — resolved by the orchestrator.
        pub vnf_type: String,
        /// CPU cores requested.
        pub cpu: f64,
        /// Memory requested (MB).
        pub mem_mb: u64,
        /// Catalog parameter overrides for this instance (e.g. firewall
        /// rules), forwarded verbatim to `initiateVNF`. Omitted from the
        /// JSON form when empty.
        pub params: Vec<(String, String)> => ParamList,
        /// Raw Click configuration overriding the catalog template — the
        /// "develop your own VNF" path. Sent as `initiateVNF`'s
        /// `click-config`; `vnf_type` then only labels the instance.
        /// Omitted from the JSON form when absent.
        pub click_config: Option<String> => Omit,
    }
}

/// `params` on the wire: a list of `[key, value]` arrays, the key left
/// out altogether when the list is empty.
struct ParamList;

impl Codec<Vec<(String, String)>> for ParamList {
    fn put(&self, key: &str, field: &Vec<(String, String)>, out: &mut Obj) {
        if !field.is_empty() {
            let pairs = field
                .iter()
                .map(|(k, w)| Value::Arr(vec![k.as_str().into(), w.as_str().into()]))
                .collect();
            out.push((key.to_string(), Value::Arr(pairs)));
        }
    }

    fn take(&self, key: &str, obj: &Value) -> Result<Vec<(String, String)>, WireError> {
        let Some(list) = obj.get(key) else {
            return Ok(Vec::new());
        };
        decode_items(list, |pair| match pair.as_arr() {
            Some([Value::Str(k), Value::Str(w)]) => Ok((k.clone(), w.clone())),
            _ => Err(WireError::new("expected a [key, value] pair of strings")),
        })
        .map_err(|e| e.in_field(key))
    }
}

wire_struct! {
    /// A service-level agreement attached to a chain: observed-traffic
    /// objectives the flight recorder checks after a run (distinct from
    /// `max_delay_us`, which is the admission-time budget the
    /// orchestrator plans against).
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct Sla {
        /// Maximum acceptable end-to-end latency per delivered packet (µs).
        pub max_latency_us: Option<u64> => Omit,
        /// Maximum acceptable loss ratio in `0.0..=1.0`.
        pub max_loss: Option<f64> => Omit,
    }
}

impl Sla {
    /// True when no objective is set (vacuously satisfied).
    pub fn is_empty(&self) -> bool {
        self.max_latency_us.is_none() && self.max_loss.is_none()
    }
}

wire_struct! {
    /// One service chain: an ordered walk SAP → VNF… → SAP with
    /// end-to-end requirements.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Chain {
        /// Chain name, unique within the service graph.
        pub name: String,
        /// Hops: first and last are SAP names, the middle are VNF names.
        pub hops: Vec<String>,
        /// Bandwidth to reserve on every traversed link (Mbit/s).
        pub bandwidth_mbps: f64,
        /// End-to-end delay budget (µs); `None` = best effort.
        pub max_delay_us: Option<u64>,
        /// Post-run objectives checked against recorded traffic.
        pub sla: Option<Sla> => Omit,
    }
}

wire_struct! {
    /// The abstract service description the service layer hands to the
    /// orchestrator (what the paper's SG editor produces).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ServiceGraph {
        /// SAP names referenced by chains; must exist in the topology.
        pub saps: Vec<String>,
        pub vnfs: Vec<VnfReq>,
        pub chains: Vec<Chain>,
    }
}

impl ServiceGraph {
    /// An empty service graph.
    pub fn new() -> ServiceGraph {
        ServiceGraph::default()
    }

    /// Builder: declare a SAP.
    pub fn sap(mut self, name: impl Into<String>) -> Self {
        self.saps.push(name.into());
        self
    }

    /// Builder: request a VNF.
    pub fn vnf(mut self, name: &str, vnf_type: &str, cpu: f64, mem_mb: u64) -> Self {
        self.vnfs.push(VnfReq {
            name: name.into(),
            vnf_type: vnf_type.into(),
            cpu,
            mem_mb,
            params: Vec::new(),
            click_config: None,
        });
        self
    }

    /// Builder: give the most recently added VNF a raw Click config
    /// instead of a catalog template. Panics if no VNF was added yet.
    pub fn with_click_config(mut self, config: &str) -> Self {
        let v = self
            .vnfs
            .last_mut()
            .expect("with_click_config needs a preceding vnf()");
        v.click_config = Some(config.to_string());
        self
    }

    /// Builder: set catalog parameter overrides on the most recently
    /// added VNF. Panics if no VNF was added yet.
    pub fn with_params(mut self, params: &[(&str, &str)]) -> Self {
        let v = self
            .vnfs
            .last_mut()
            .expect("with_params needs a preceding vnf()");
        v.params = params
            .iter()
            .map(|(k, w)| (k.to_string(), w.to_string()))
            .collect();
        self
    }

    /// Builder: add a chain through the named hops.
    pub fn chain(
        mut self,
        name: &str,
        hops: &[&str],
        bandwidth_mbps: f64,
        max_delay_us: Option<u64>,
    ) -> Self {
        self.chains.push(Chain {
            name: name.into(),
            hops: hops.iter().map(|s| s.to_string()).collect(),
            bandwidth_mbps,
            max_delay_us,
            sla: None,
        });
        self
    }

    /// Builder: attach an SLA to the most recently added chain. Panics
    /// if no chain was added yet.
    pub fn with_sla(mut self, sla: Sla) -> Self {
        let c = self
            .chains
            .last_mut()
            .expect("with_sla needs a preceding chain()");
        c.sla = Some(sla);
        self
    }

    /// Finds a VNF request by name.
    pub fn vnf_named(&self, name: &str) -> Option<&VnfReq> {
        self.vnfs.iter().find(|v| v.name == name)
    }

    /// Total CPU requested across all VNFs.
    pub fn total_cpu(&self) -> f64 {
        self.vnfs.iter().map(|v| v.cpu).sum()
    }

    /// Structural validation: unique names; chains start/end at declared
    /// SAPs and traverse declared VNFs; positive requirements.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = HashSet::new();
        for s in &self.saps {
            if !names.insert(s.as_str()) {
                return Err(format!("duplicate name {s:?}"));
            }
        }
        for v in &self.vnfs {
            if !names.insert(v.name.as_str()) {
                return Err(format!("duplicate name {:?}", v.name));
            }
            if v.cpu <= 0.0 {
                return Err(format!("vnf {:?} requests non-positive cpu", v.name));
            }
        }
        let saps: HashSet<&str> = self.saps.iter().map(|s| s.as_str()).collect();
        let vnfs: HashSet<&str> = self.vnfs.iter().map(|v| v.name.as_str()).collect();
        let mut chain_names = HashSet::new();
        for c in &self.chains {
            if !chain_names.insert(c.name.as_str()) {
                return Err(format!("duplicate chain name {:?}", c.name));
            }
            let [first, mids @ .., last] = c.hops.as_slice() else {
                return Err(format!("chain {:?} needs at least two hops", c.name));
            };
            if !saps.contains(first.as_str()) || !saps.contains(last.as_str()) {
                return Err(format!("chain {:?} must start and end at SAPs", c.name));
            }
            for mid in mids {
                if !vnfs.contains(mid.as_str()) {
                    return Err(format!(
                        "chain {:?} hop {:?} is not a declared VNF",
                        c.name, mid
                    ));
                }
            }
            if c.bandwidth_mbps <= 0.0 {
                return Err(format!("chain {:?} has non-positive bandwidth", c.name));
            }
            if let Some(sla) = &c.sla {
                if let Some(loss) = sla.max_loss {
                    if !(0.0..=1.0).contains(&loss) {
                        return Err(format!(
                            "chain {:?} sla max_loss must be within 0..=1",
                            c.name
                        ));
                    }
                }
            }
        }
        // Every VNF should appear in some chain (orphans are a spec bug).
        for v in &self.vnfs {
            let used = self.chains.iter().any(|c| c.hops.contains(&v.name));
            if !used {
                return Err(format!("vnf {:?} is not used by any chain", v.name));
            }
        }
        Ok(())
    }

    /// JSON serialization (the SG editor's save format).
    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    /// JSON deserialization.
    pub fn from_json(s: &str) -> Result<ServiceGraph, String> {
        from_json(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ServiceGraph {
        ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("fw", "firewall", 1.0, 256)
            .vnf("shaper", "rate_limiter", 0.5, 128)
            .chain("c1", &["sap0", "fw", "shaper", "sap1"], 100.0, Some(5_000))
    }

    #[test]
    fn valid_graph_passes() {
        demo().validate().unwrap();
        assert_eq!(demo().total_cpu(), 1.5);
        assert_eq!(demo().vnf_named("fw").unwrap().vnf_type, "firewall");
    }

    #[test]
    fn chains_must_terminate_at_saps() {
        let g =
            ServiceGraph::new()
                .sap("a")
                .vnf("v", "t", 1.0, 1)
                .chain("c", &["v", "a"], 1.0, None);
        assert!(g.validate().unwrap_err().contains("SAP"));
    }

    #[test]
    fn middle_hops_must_be_vnfs() {
        let g = ServiceGraph::new()
            .sap("a")
            .sap("b")
            .vnf("v", "t", 1.0, 1)
            .chain("c", &["a", "ghost", "b"], 1.0, None);
        assert!(g.validate().unwrap_err().contains("ghost"));
    }

    #[test]
    fn orphan_vnfs_rejected() {
        let g = ServiceGraph::new()
            .sap("a")
            .sap("b")
            .vnf("used", "t", 1.0, 1)
            .vnf("orphan", "t", 1.0, 1)
            .chain("c", &["a", "used", "b"], 1.0, None);
        assert!(g.validate().unwrap_err().contains("orphan"));
    }

    #[test]
    fn duplicates_rejected() {
        let g = ServiceGraph::new().sap("x").sap("x");
        assert!(g.validate().is_err());
        let g = ServiceGraph::new()
            .sap("a")
            .sap("b")
            .vnf("v", "t", 1.0, 1)
            .chain("c", &["a", "v", "b"], 1.0, None)
            .chain("c", &["a", "v", "b"], 1.0, None);
        assert!(g.validate().unwrap_err().contains("chain name"));
    }

    #[test]
    fn requirement_sanity() {
        let g = ServiceGraph::new()
            .sap("a")
            .sap("b")
            .vnf("v", "t", -1.0, 1)
            .chain("c", &["a", "v", "b"], 1.0, None);
        assert!(g.validate().unwrap_err().contains("cpu"));
        let g = ServiceGraph::new()
            .sap("a")
            .sap("b")
            .vnf("v", "t", 1.0, 1)
            .chain("c", &["a", "v", "b"], 0.0, None);
        assert!(g.validate().unwrap_err().contains("bandwidth"));
    }

    #[test]
    fn direct_sap_to_sap_chain_is_legal() {
        let g = ServiceGraph::new()
            .sap("a")
            .sap("b")
            .chain("direct", &["a", "b"], 10.0, None);
        g.validate().unwrap();
    }

    #[test]
    fn json_roundtrip() {
        let g = demo();
        let back = ServiceGraph::from_json(&g.to_json()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn sla_round_trips_and_absent_sla_stays_absent() {
        let g = demo().with_sla(Sla {
            max_latency_us: Some(4_000),
            max_loss: Some(0.01),
        });
        g.validate().unwrap();
        let back = ServiceGraph::from_json(&g.to_json()).unwrap();
        assert_eq!(g, back);
        assert_eq!(back.chains[0].sla.unwrap().max_latency_us, Some(4_000));
        // A graph without SLAs omits the field entirely.
        let plain = demo();
        assert!(!plain.to_json().contains("sla"));
        assert_eq!(
            ServiceGraph::from_json(&plain.to_json()).unwrap().chains[0].sla,
            None
        );
    }

    #[test]
    fn sla_loss_must_be_a_ratio() {
        let g = demo().with_sla(Sla {
            max_latency_us: None,
            max_loss: Some(1.5),
        });
        assert!(g.validate().unwrap_err().contains("max_loss"));
    }
}
