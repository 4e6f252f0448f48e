//! # escape-catalog
//!
//! The built-in VNF catalog — "a built-in set of useful VNFs implemented
//! in Click" (paper §2).
//!
//! Every catalog entry is a Click configuration *template* with named
//! parameters (`{{param}}` placeholders), a port convention and default
//! resource requirements. The orchestrator resolves a [`escape_sg::VnfReq`]
//! by type name, renders the template (applying any per-instance
//! overrides) and ships the resulting Click text to the container's
//! NETCONF agent via `initiateVNF`.
//!
//! Port convention: chain traffic enters device **0** and leaves device
//! **1**; reverse-path traffic enters 1 and leaves 0. The load balancer
//! adds devices 2.. for its extra backends.

use escape_click::{Registry, Router};
use std::collections::HashMap;

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct VnfTemplate {
    /// Type name used in service graphs (e.g. `"firewall"`).
    pub name: &'static str,
    /// Human description for the GUI / docs.
    pub description: &'static str,
    /// VNF container ports the rendered config uses.
    pub ports: u16,
    /// Default CPU request (cores).
    pub default_cpu: f64,
    /// Default memory request (MB).
    pub default_mem_mb: u64,
    /// Click config with `{{param}}` placeholders.
    pub template: &'static str,
    /// (parameter, default value) pairs.
    pub params: &'static [(&'static str, &'static str)],
}

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    UnknownType(String),
    UnknownParam { vnf: String, param: String },
    Unresolved { vnf: String, placeholder: String },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownType(t) => write!(f, "unknown VNF type {t:?}"),
            CatalogError::UnknownParam { vnf, param } => {
                write!(f, "VNF {vnf:?} has no parameter {param:?}")
            }
            CatalogError::Unresolved { vnf, placeholder } => {
                write!(f, "VNF {vnf:?}: unresolved placeholder {placeholder:?}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// The VNF catalog.
pub struct Catalog {
    entries: Vec<VnfTemplate>,
}

impl Catalog {
    /// The standard catalog shipped with ESCAPE-RS.
    pub fn standard() -> Catalog {
        Catalog {
            entries: standard_entries(),
        }
    }

    /// All type names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.entries.iter().map(|e| e.name).collect();
        v.sort_unstable();
        v
    }

    /// Looks up an entry.
    pub fn get(&self, name: &str) -> Option<&VnfTemplate> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Adds or replaces an entry (VNF developers extend the catalog).
    pub fn register(&mut self, entry: VnfTemplate) {
        self.entries.retain(|e| e.name != entry.name);
        self.entries.push(entry);
    }

    /// Renders a type's Click config with parameter overrides.
    pub fn render(
        &self,
        name: &str,
        overrides: &[(String, String)],
    ) -> Result<String, CatalogError> {
        let entry = self
            .get(name)
            .ok_or_else(|| CatalogError::UnknownType(name.to_string()))?;
        let mut values: HashMap<&str, String> = entry
            .params
            .iter()
            .map(|(k, v)| (*k, v.to_string()))
            .collect();
        for (k, v) in overrides {
            let key = entry
                .params
                .iter()
                .find(|(p, _)| p == k)
                .map(|(p, _)| *p)
                .ok_or_else(|| CatalogError::UnknownParam {
                    vnf: name.to_string(),
                    param: k.clone(),
                })?;
            values.insert(key, v.clone());
        }
        let mut out = entry.template.to_string();
        for (k, v) in &values {
            out = out.replace(&format!("{{{{{k}}}}}"), v);
        }
        if let Some(start) = out.find("{{") {
            let rest = &out[start..];
            let end = rest.find("}}").map(|e| e + 2).unwrap_or(rest.len());
            return Err(CatalogError::Unresolved {
                vnf: name.to_string(),
                placeholder: rest[..end].to_string(),
            });
        }
        Ok(out)
    }

    /// Renders and compiles in one step — what the agent instrumentation
    /// does on `initiateVNF`.
    pub fn build_router(
        &self,
        name: &str,
        overrides: &[(String, String)],
        registry: &Registry,
        seed: u64,
    ) -> Result<Router, String> {
        let cfg = self.render(name, overrides).map_err(|e| e.to_string())?;
        Router::from_config(&cfg, registry, seed).map_err(|e| e.to_string())
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::standard()
    }
}

fn standard_entries() -> Vec<VnfTemplate> {
    vec![
        VnfTemplate {
            name: "bridge",
            description: "Transparent bidirectional forwarder with packet counters",
            ports: 2,
            default_cpu: 0.2,
            default_mem_mb: 64,
            template: "\
FromDevice(0) -> fwd :: Counter -> ToDevice(1);\n\
FromDevice(1) -> rev :: Counter -> ToDevice(0);\n",
            params: &[],
        },
        VnfTemplate {
            name: "firewall",
            description: "Stateless IP firewall (IPFilter rules, first match wins, default deny)",
            ports: 2,
            default_cpu: 1.0,
            default_mem_mb: 256,
            template: "\
FromDevice(0) -> fw :: IPFilter({{rules}}) -> ToDevice(1);\n\
FromDevice(1) -> fw_rev :: IPFilter({{rules}}) -> ToDevice(0);\n",
            params: &[("rules", "allow all")],
        },
        VnfTemplate {
            name: "rate_limiter",
            description: "Token-bucket bandwidth shaper on the forward path",
            ports: 2,
            default_cpu: 0.5,
            default_mem_mb: 128,
            template: "\
FromDevice(0) -> shaper :: BandwidthShaper({{rate_bps}}, {{queue}}) -> ToDevice(1);\n\
FromDevice(1) -> rev :: Counter -> ToDevice(0);\n",
            params: &[("rate_bps", "10000000"), ("queue", "100")],
        },
        VnfTemplate {
            name: "dpi",
            description: "Payload string matcher; hits are counted and dropped",
            ports: 2,
            default_cpu: 2.0,
            default_mem_mb: 512,
            template: "\
FromDevice(0) -> dpi :: StringMatcher({{pattern}});\n\
dpi [0] -> alerts :: Counter -> Discard;\n\
dpi [1] -> ToDevice(1);\n\
FromDevice(1) -> rev :: Counter -> ToDevice(0);\n",
            params: &[("pattern", "\"attack\"")],
        },
        VnfTemplate {
            name: "nat",
            description: "Stateful source NAT (IPRewriter)",
            ports: 2,
            default_cpu: 1.0,
            default_mem_mb: 256,
            template: "\
FromDevice(0) -> [0] nat :: IPRewriter({{external_ip}}); nat [0] -> ToDevice(1);\n\
FromDevice(1) -> [1] nat; nat [1] -> ToDevice(0);\n",
            params: &[("external_ip", "203.0.113.1")],
        },
        VnfTemplate {
            name: "load_balancer",
            description: "Flow-hash load balancer over two backends (devices 1 and 2)",
            ports: 3,
            default_cpu: 0.5,
            default_mem_mb: 128,
            template: "\
FromDevice(0) -> lb :: HashSwitch(2);\n\
lb [0] -> ToDevice(1);\n\
lb [1] -> ToDevice(2);\n\
FromDevice(1) -> merge :: Counter -> ToDevice(0);\n\
FromDevice(2) -> merge2 :: Counter -> ToDevice(0);\n",
            params: &[],
        },
        VnfTemplate {
            name: "monitor",
            description: "Per-direction packet/byte/rate counters (the Clicky demo VNF)",
            ports: 2,
            default_cpu: 0.2,
            default_mem_mb: 64,
            template: "\
FromDevice(0) -> in_cnt :: Counter -> ToDevice(1);\n\
FromDevice(1) -> out_cnt :: Counter -> ToDevice(0);\n",
            params: &[],
        },
        VnfTemplate {
            name: "delay",
            description: "Fixed artificial delay in both directions",
            ports: 2,
            default_cpu: 0.3,
            default_mem_mb: 64,
            template: "\
FromDevice(0) -> d :: DelayShaper({{delay_us}}) -> ToDevice(1);\n\
FromDevice(1) -> d_rev :: DelayShaper({{delay_us}}) -> ToDevice(0);\n",
            params: &[("delay_us", "1000")],
        },
        VnfTemplate {
            name: "qos_marker",
            description: "Rewrites the IP DSCP field on the forward path",
            ports: 2,
            default_cpu: 0.3,
            default_mem_mb: 64,
            template: "\
FromDevice(0) -> CheckIPHeader -> SetIPDSCP({{dscp}}) -> ToDevice(1);\n\
FromDevice(1) -> rev :: Counter -> ToDevice(0);\n",
            params: &[("dscp", "46")],
        },
        VnfTemplate {
            name: "sampler",
            description: "Keeps a random fraction of forward-path packets",
            ports: 2,
            default_cpu: 0.2,
            default_mem_mb: 64,
            template: "\
FromDevice(0) -> s :: RandomSample({{keep}}) -> ToDevice(1);\n\
FromDevice(1) -> rev :: Counter -> ToDevice(0);\n",
            params: &[("keep", "0.5")],
        },
        VnfTemplate {
            name: "ttl_guard",
            description: "Validates IP headers and decrements TTL (router hygiene)",
            ports: 2,
            default_cpu: 0.4,
            default_mem_mb: 64,
            template: "\
FromDevice(0) -> chk :: CheckIPHeader -> ttl :: DecIPTTL -> ToDevice(1);\n\
FromDevice(1) -> chk_rev :: CheckIPHeader -> ttl_rev :: DecIPTTL -> ToDevice(0);\n",
            params: &[],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_the_advertised_types() {
        let c = Catalog::standard();
        for name in [
            "bridge",
            "firewall",
            "rate_limiter",
            "dpi",
            "nat",
            "load_balancer",
            "monitor",
            "delay",
            "qos_marker",
            "sampler",
            "ttl_guard",
        ] {
            assert!(c.get(name).is_some(), "missing {name}");
        }
        assert_eq!(c.names().len(), 11);
    }

    /// Every template compiles, and the classes they use plus `Tee` are
    /// the 15 `Registry::standard()` holds (its own test pins the names).
    #[test]
    fn every_default_config_compiles() {
        let c = Catalog::standard();
        let reg = Registry::standard();
        let mut classes = std::collections::BTreeSet::from(["Tee".to_string()]);
        for name in c.names() {
            let cfg = c.render(name, &[]).unwrap();
            let decls = escape_click::parse_config(&cfg).unwrap().decls;
            classes.extend(decls.into_iter().map(|d| d.class));
            let router = c.build_router(name, &[], &reg, 0);
            assert!(router.is_ok(), "{name} failed: {:?}", router.err());
            // The rendered config must expose the declared ports.
            let r = router.unwrap();
            let entry = c.get(name).unwrap();
            assert_eq!(
                r.input_devices().len(),
                entry.ports as usize,
                "{name}: FromDevice count != declared ports"
            );
        }
        assert!(classes.iter().all(|class| reg.contains(class)));
        assert_eq!(classes.len(), 15, "{classes:?}");
    }

    #[test]
    fn a_delay_that_does_not_fit_in_virtual_time_is_an_error() {
        let c = Catalog::standard();
        let delay = [("delay_us".to_string(), u64::MAX.to_string())];
        let err = c
            .build_router("delay", &delay, &Registry::standard(), 0)
            .err()
            .expect("a delay of u64::MAX microseconds overflows nanoseconds");
        assert!(err.contains("DelayShaper"), "{err}");
    }

    #[test]
    fn overrides_are_substituted() {
        let c = Catalog::standard();
        let cfg = c
            .render(
                "firewall",
                &[("rules".to_string(), "deny udp, allow all".to_string())],
            )
            .unwrap();
        assert!(cfg.contains("IPFilter(deny udp, allow all)"));
        // And it still compiles.
        Router::from_config(&cfg, &Registry::standard(), 0).unwrap();
    }

    #[test]
    fn unknown_type_and_param_are_errors() {
        let c = Catalog::standard();
        assert_eq!(
            c.render("quantum_fw", &[]),
            Err(CatalogError::UnknownType("quantum_fw".into()))
        );
        let e = c.render("firewall", &[("wrong".to_string(), "x".to_string())]);
        assert!(matches!(e, Err(CatalogError::UnknownParam { .. })));
    }

    #[test]
    fn custom_registration_replaces() {
        let mut c = Catalog::standard();
        c.register(VnfTemplate {
            name: "firewall",
            description: "patched",
            ports: 2,
            default_cpu: 9.0,
            default_mem_mb: 1,
            template: "FromDevice(0) -> ToDevice(1);\nFromDevice(1) -> ToDevice(0);\n",
            params: &[],
        });
        assert_eq!(c.get("firewall").unwrap().description, "patched");
        assert_eq!(c.names().len(), 11, "replaced, not appended");
    }

    #[test]
    fn unresolved_placeholder_reported() {
        let mut c = Catalog::standard();
        c.register(VnfTemplate {
            name: "broken",
            description: "has a placeholder with no param",
            ports: 1,
            default_cpu: 1.0,
            default_mem_mb: 1,
            template: "FromDevice(0) -> BandwidthShaper({{missing}}) -> ToDevice(0);",
            params: &[],
        });
        let e = c.render("broken", &[]).unwrap_err();
        assert!(matches!(e, CatalogError::Unresolved { .. }));
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn rendered_firewall_actually_filters() {
        use bytes::Bytes;
        use escape_netem::Time;
        use escape_packet::{MacAddr, Packet, PacketBuilder};
        use std::net::Ipv4Addr;
        let c = Catalog::standard();
        let mut r = c
            .build_router(
                "firewall",
                &[(
                    "rules".to_string(),
                    "deny dst port 23, allow all".to_string(),
                )],
                &Registry::standard(),
                1,
            )
            .unwrap();
        let mk = |dport: u16| {
            let data = PacketBuilder::udp(
                MacAddr::from_id(1),
                MacAddr::from_id(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                dport,
                Bytes::from_static(b"x"),
            );
            Packet {
                data,
                id: 0,
                born_ns: 0,
            }
        };
        assert_eq!(r.push_external(0, mk(80), Time::ZERO).external.len(), 1);
        assert_eq!(r.push_external(0, mk(23), Time::ZERO).external.len(), 0);
        assert_eq!(r.read_handler("fw.dropped").unwrap(), "1");
    }
}
