//! The textual DSL standing in for the paper's MiniEdit-based GUI.
//!
//! Topology files:
//! ```text
//! # infrastructure
//! switch s0 s1
//! container c0 cpu=4 mem=2048
//! sap sap0 sap1
//! link s0 s1 bw=1000 delay=50us
//! link sap0 s0 bw=1000 delay=10us
//! link c0 s0 bw=1000 delay=20us
//! ```
//!
//! Service graph files:
//! ```text
//! sap sap0 sap1
//! vnf fw type=firewall cpu=1 mem=256
//! vnf lim type=rate_limiter cpu=0.5
//! chain c1 = sap0 -> fw -> lim -> sap1 bw=100 delay=5ms
//! ```
//!
//! Delays accept `us`, `ms` or `s` suffixes (default µs).

use crate::sg::ServiceGraph;
use crate::topo::ResourceTopology;

/// A DSL parse error with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

fn err(line: usize, message: impl Into<String>) -> DslError {
    DslError {
        line,
        message: message.into(),
    }
}

/// Splits `k=v` options out of a token list; returns (plain tokens, kv).
fn split_opts(tokens: &[&str]) -> (Vec<String>, Vec<(String, String)>) {
    let mut plain = Vec::new();
    let mut kv = Vec::new();
    for t in tokens {
        match t.split_once('=') {
            Some((k, v)) => kv.push((k.to_string(), v.to_string())),
            None => plain.push(t.to_string()),
        }
    }
    (plain, kv)
}

fn get_opt<'a>(kv: &'a [(String, String)], key: &str) -> Option<&'a str> {
    kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn parse_f64(
    line: usize,
    kv: &[(String, String)],
    key: &str,
    default: f64,
) -> Result<f64, DslError> {
    match get_opt(kv, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| err(line, format!("bad {key}={v:?}"))),
    }
}

fn parse_u64(
    line: usize,
    kv: &[(String, String)],
    key: &str,
    default: u64,
) -> Result<u64, DslError> {
    match get_opt(kv, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| err(line, format!("bad {key}={v:?}"))),
    }
}

/// Parses a delay value with optional unit suffix into microseconds.
fn parse_delay_us(line: usize, v: &str) -> Result<u64, DslError> {
    let (num, mult) = if let Some(n) = v.strip_suffix("us") {
        (n, 1)
    } else if let Some(n) = v.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        (v, 1)
    };
    let base: f64 = num
        .parse()
        .map_err(|_| err(line, format!("bad delay {v:?}")))?;
    Ok((base * mult as f64) as u64)
}

/// Parses a topology description.
pub fn parse_topology(src: &str) -> Result<ResourceTopology, DslError> {
    let mut t = ResourceTopology::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let (plain, kv) = split_opts(&tokens[1..]);
        match tokens[0] {
            "switch" => {
                if plain.is_empty() {
                    return Err(err(line, "switch needs at least one name"));
                }
                for n in plain {
                    t.add_switch(n);
                }
            }
            "sap" => {
                if plain.is_empty() {
                    return Err(err(line, "sap needs at least one name"));
                }
                for n in plain {
                    t.add_sap(n);
                }
            }
            "container" => {
                let name = plain
                    .first()
                    .ok_or_else(|| err(line, "container needs a name"))?;
                let cpu = parse_f64(line, &kv, "cpu", 1.0)?;
                let mem = parse_u64(line, &kv, "mem", 1024)?;
                t.add_container(name.clone(), cpu, mem);
            }
            "link" => {
                if plain.len() != 2 {
                    return Err(err(line, "link needs exactly two endpoints"));
                }
                let bw = parse_f64(line, &kv, "bw", 1000.0)?;
                let delay = match get_opt(&kv, "delay") {
                    Some(v) => parse_delay_us(line, v)?,
                    None => 50,
                };
                t.add_link(plain[0].clone(), plain[1].clone(), bw, delay);
            }
            other => return Err(err(line, format!("unknown directive {other:?}"))),
        }
    }
    t.validate().map_err(|m| err(0, m))?;
    Ok(t)
}

/// Parses a service-graph description.
pub fn parse_service_graph(src: &str) -> Result<ServiceGraph, DslError> {
    let mut g = ServiceGraph::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        match tokens[0] {
            "sap" => {
                let (plain, _) = split_opts(&tokens[1..]);
                if plain.is_empty() {
                    return Err(err(line, "sap needs at least one name"));
                }
                for n in plain {
                    g.saps.push(n);
                }
            }
            "vnf" => {
                let (plain, kv) = split_opts(&tokens[1..]);
                let name = plain.first().ok_or_else(|| err(line, "vnf needs a name"))?;
                let ty = get_opt(&kv, "type")
                    .ok_or_else(|| err(line, "vnf needs type=..."))?
                    .to_string();
                let cpu = parse_f64(line, &kv, "cpu", 1.0)?;
                let mem = parse_u64(line, &kv, "mem", 256)?;
                let params = kv
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "type" | "cpu" | "mem"))
                    .cloned()
                    .collect();
                g.vnfs.push(crate::sg::VnfReq {
                    name: name.clone(),
                    vnf_type: ty,
                    cpu,
                    mem_mb: mem,
                    params,
                    click_config: None,
                });
            }
            "chain" => {
                // chain NAME = a -> b -> c bw=X delay=Y
                let rest = text
                    .strip_prefix("chain")
                    .expect("the trimmed line's first token is \"chain\"")
                    .trim();
                let (name, spec) = rest
                    .split_once('=')
                    .ok_or_else(|| err(line, "chain needs 'chain NAME = a -> b ...'"))?;
                let name = name.trim().to_string();
                if name.is_empty() {
                    return Err(err(line, "chain needs a name"));
                }
                // Trailing options are whitespace-separated k=v... but we
                // already split on the first '=': re-scan the spec for
                // tokens containing '=' (options) vs the arrow path.
                let mut path_part = String::new();
                let mut kv = Vec::new();
                for tok in spec.split_whitespace() {
                    match tok.split_once('=') {
                        Some((k, v)) if !k.contains("->") => {
                            kv.push((k.to_string(), v.to_string()))
                        }
                        _ => {
                            path_part.push_str(tok);
                            path_part.push(' ');
                        }
                    }
                }
                let hops: Vec<String> = path_part
                    .split("->")
                    .map(|h| h.trim().to_string())
                    .filter(|h| !h.is_empty())
                    .collect();
                if hops.len() < 2 {
                    return Err(err(line, "chain needs at least two hops"));
                }
                let bw = parse_f64(line, &kv, "bw", 10.0)?;
                let delay = match get_opt(&kv, "delay") {
                    Some(v) => Some(parse_delay_us(line, v)?),
                    None => None,
                };
                let sla_delay = match get_opt(&kv, "sla_delay") {
                    Some(v) => Some(parse_delay_us(line, v)?),
                    None => None,
                };
                let sla_loss = match get_opt(&kv, "sla_loss") {
                    Some(v) => Some(
                        v.parse()
                            .map_err(|_| err(line, format!("bad sla_loss={v:?}")))?,
                    ),
                    None => None,
                };
                let sla = (sla_delay.is_some() || sla_loss.is_some()).then_some(crate::sg::Sla {
                    max_latency_us: sla_delay,
                    max_loss: sla_loss,
                });
                g.chains.push(crate::sg::Chain {
                    name,
                    hops,
                    bandwidth_mbps: bw,
                    max_delay_us: delay,
                    sla,
                });
            }
            other => return Err(err(line, format!("unknown directive {other:?}"))),
        }
    }
    g.validate().map_err(|m| err(0, m))?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::TopoNodeKind;

    const TOPO: &str = "\
# demo infrastructure
switch s0 s1
container c0 cpu=4 mem=2048
container c1 cpu=2
sap sap0 sap1
link s0 s1 bw=1000 delay=50us
link sap0 s0 delay=10us
link sap1 s1 delay=10us
link c0 s0 bw=500 delay=20us
link c1 s1
";

    const SG: &str = "\
sap sap0 sap1
vnf fw type=firewall cpu=1 mem=256
vnf lim type=rate_limiter cpu=0.5
chain c1 = sap0 -> fw -> lim -> sap1 bw=100 delay=5ms
chain back = sap1 -> sap0 bw=10
";

    #[test]
    fn topology_parses() {
        let t = parse_topology(TOPO).unwrap();
        assert_eq!(t.switches().count(), 2);
        assert_eq!(t.containers().count(), 2);
        assert_eq!(t.saps().count(), 2);
        assert_eq!(t.links.len(), 5);
        match t.node("c0").unwrap().kind {
            TopoNodeKind::Container { cpu, mem_mb } => {
                assert_eq!(cpu, 4.0);
                assert_eq!(mem_mb, 2048);
            }
            _ => panic!("c0 should be a container"),
        }
        let l = t.links.iter().find(|l| l.a == "s0" && l.b == "s1").unwrap();
        assert_eq!(l.delay_us, 50);
        // Defaults.
        let l = t.links.iter().find(|l| l.a == "c1").unwrap();
        assert_eq!(l.bandwidth_mbps, 1000.0);
        assert_eq!(l.delay_us, 50);
    }

    #[test]
    fn service_graph_parses() {
        let g = parse_service_graph(SG).unwrap();
        assert_eq!(g.saps.len(), 2);
        assert_eq!(g.vnfs.len(), 2);
        assert_eq!(g.chains.len(), 2);
        let c1 = &g.chains[0];
        assert_eq!(c1.hops, vec!["sap0", "fw", "lim", "sap1"]);
        assert_eq!(c1.bandwidth_mbps, 100.0);
        assert_eq!(c1.max_delay_us, Some(5_000));
        assert_eq!(g.chains[1].max_delay_us, None);
    }

    #[test]
    fn chain_sla_options_parse() {
        let g = parse_service_graph(
            "sap a b\nchain c = a -> b bw=10 sla_delay=2ms sla_loss=0.05\nchain d = a -> b\n",
        )
        .unwrap();
        let sla = g.chains[0].sla.expect("sla should be set");
        assert_eq!(sla.max_latency_us, Some(2_000));
        assert_eq!(sla.max_loss, Some(0.05));
        assert_eq!(g.chains[1].sla, None);
        let e = parse_service_graph("sap a b\nchain c = a -> b sla_loss=bogus\n").unwrap_err();
        assert!(e.message.contains("sla_loss"));
    }

    #[test]
    fn delay_units() {
        let t = parse_topology("switch a b\nlink a b delay=2ms\n").unwrap();
        assert_eq!(t.links[0].delay_us, 2_000);
        let t = parse_topology("switch a b\nlink a b delay=1s\n").unwrap();
        assert_eq!(t.links[0].delay_us, 1_000_000);
        let t = parse_topology("switch a b\nlink a b delay=7\n").unwrap();
        assert_eq!(t.links[0].delay_us, 7);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_topology("switch a\nbogus x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
        let e = parse_topology("link a\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_service_graph("vnf x cpu=1\n").unwrap_err();
        assert!(e.message.contains("type"));
        let e = parse_service_graph("chain broken sap0 sap1\n").unwrap_err();
        assert!(e.message.contains("chain"));
    }

    #[test]
    fn semantic_validation_applies() {
        // Structurally fine but references an unknown node.
        let e = parse_topology("switch a\nlink a ghost\n").unwrap_err();
        assert!(e.message.contains("ghost"));
        let e = parse_service_graph("sap a b\nchain c = a -> nope -> b\n").unwrap_err();
        assert!(e.message.contains("nope"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let t = parse_topology("# nothing\n\n   # indented comment\nswitch a\n").unwrap();
        assert_eq!(t.switches().count(), 1);
    }
}
