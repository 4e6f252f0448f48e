//! The abstract service graph: VNF requests and chains.

use crate::topo::MAX_DELAY_US;
use escape_json::wire::{
    finish_one, from_json, offer_one, read_items, refuse, to_json_pretty, Codec, DecodeError, Omit,
    One, WireError,
};
use escape_json::{wire_struct, Kind, ParseError, Reader, Writer};
use std::collections::BTreeSet;

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
pub struct ParamList;

impl Codec<Vec<(String, String)>> for ParamList {
    type Slot = One<Vec<(String, String)>>;

    fn put(&self, key: &str, field: &Vec<(String, String)>, w: &mut Writer) {
        if !field.is_empty() {
            w.key(key).begin_array();
            for (k, v) in field {
                w.begin_array();
                w.str(k);
                w.str(v);
                w.end_array();
            }
            w.end_array();
        }
    }

    fn slot(&self) -> Self::Slot {
        None
    }

    fn offer(
        &self,
        key: &str,
        slot: &mut Self::Slot,
        name: &str,
        r: &mut Reader<'_>,
    ) -> Result<bool, ParseError> {
        offer_one(slot, key, name, r, |r| read_items(r, read_param))
    }

    fn finish(&self, key: &str, slot: &mut Self::Slot) -> Result<Vec<(String, String)>, WireError> {
        finish_one(slot, key, Some(Vec::new()))
    }
}

/// One `[key, value]` array of two strings.
fn read_param(r: &mut Reader<'_>) -> Result<(String, String), DecodeError> {
    const NOT_A_PAIR: &str = "expected a [key, value] pair of strings";
    if r.kind()? != Kind::Arr {
        return refuse(r, NOT_A_PAIR);
    }
    r.begin_array()?;
    let mut pair = [None, None];
    let mut len = 0;
    while r.next_item()? {
        match pair.get_mut(len) {
            Some(slot) if r.kind()? == Kind::Str => *slot = Some(r.str()?.into_owned()),
            _ => r.skip_value()?,
        }
        len += 1;
    }
    match (len, pair) {
        (2, [Some(k), Some(v)]) => Ok((k, v)),
        _ => Err(WireError::new(NOT_A_PAIR).into()),
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
        let mut names = BTreeSet::new();
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
        let saps: BTreeSet<&str> = self.saps.iter().map(|s| s.as_str()).collect();
        let vnfs: BTreeSet<&str> = self.vnfs.iter().map(|v| v.name.as_str()).collect();
        let mut chain_names = BTreeSet::new();
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
            let delays = [
                ("max_delay_us", c.max_delay_us),
                ("sla max_latency_us", c.sla.and_then(|s| s.max_latency_us)),
            ];
            for (field, us) in delays {
                if us.is_some_and(|us| us > MAX_DELAY_US) {
                    return Err(format!(
                        "chain {:?} {field} must be at most {MAX_DELAY_US}",
                        c.name
                    ));
                }
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
        to_json_pretty(self)
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
    fn delays_the_clock_cannot_hold_do_not_validate() {
        let budget = demo().chain("c2", &["sap0", "fw", "sap1"], 1.0, Some(u64::MAX));
        assert_eq!(
            budget.validate().unwrap_err(),
            "chain \"c2\" max_delay_us must be at most 18446744073709551"
        );
        let sla = demo().with_sla(Sla {
            max_latency_us: Some(MAX_DELAY_US + 1),
            max_loss: None,
        });
        assert_eq!(
            sla.validate().unwrap_err(),
            "chain \"c1\" sla max_latency_us must be at most 18446744073709551"
        );
        let at_the_bound = demo().with_sla(Sla {
            max_latency_us: Some(MAX_DELAY_US),
            max_loss: None,
        });
        at_the_bound.validate().unwrap();
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
