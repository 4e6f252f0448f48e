//! Packet classification: raw byte patterns and IP header expressions.

use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use escape_packet::{FlowKey, Packet};
use std::net::Ipv4Addr;

pub fn install(r: &mut Registry) {
    r.register("Classifier", |a| {
        if a.is_empty() {
            return Err("needs at least one pattern".into());
        }
        let patterns = a
            .iter()
            .map(|p| BytePattern::parse(p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(Classifier { patterns, drops: 0 }))
    });
    r.register("IPClassifier", |a| {
        if a.is_empty() {
            return Err("needs at least one expression".into());
        }
        let exprs = a
            .iter()
            .map(|e| IpExpr::parse(e))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(IpClassifier { exprs, drops: 0 }))
    });
}

/// One Click classifier pattern: a conjunction of `offset/value[%mask]`
/// clauses in hex. `-` matches everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytePattern {
    clauses: Vec<(usize, Vec<u8>, Vec<u8>)>, // (offset, value, mask)
}

impl BytePattern {
    /// Parses e.g. `"12/0800 23/11"` or `"-"`.
    pub fn parse(s: &str) -> Result<BytePattern, String> {
        let s = s.trim();
        if s == "-" {
            return Ok(BytePattern {
                clauses: Vec::new(),
            });
        }
        let mut clauses = Vec::new();
        for part in s.split_whitespace() {
            let (off, rest) = part
                .split_once('/')
                .ok_or_else(|| format!("pattern clause {part:?} missing '/'"))?;
            let offset: usize = off.parse().map_err(|_| format!("bad offset {off:?}"))?;
            let (val_hex, mask_hex) = match rest.split_once('%') {
                Some((v, m)) => (v, Some(m)),
                None => (rest, None),
            };
            let value = hex_bytes(val_hex)?;
            let mask = match mask_hex {
                Some(m) => {
                    let mk = hex_bytes(m)?;
                    if mk.len() != value.len() {
                        return Err(format!("mask length mismatch in {part:?}"));
                    }
                    mk
                }
                None => vec![0xff; value.len()],
            };
            clauses.push((offset, value, mask));
        }
        Ok(BytePattern { clauses })
    }

    /// True if `data` satisfies every clause.
    pub fn matches(&self, data: &[u8]) -> bool {
        self.clauses.iter().all(|(off, val, mask)| {
            data.len() >= off + val.len()
                && val
                    .iter()
                    .zip(mask)
                    .zip(&data[*off..off + val.len()])
                    .all(|((v, m), d)| d & m == v & m)
        })
    }
}

fn hex_bytes(s: &str) -> Result<Vec<u8>, String> {
    if s.is_empty() || !s.len().is_multiple_of(2) {
        return Err(format!("hex string {s:?} must have even length"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| format!("bad hex {s:?}")))
        .collect()
}

/// Click's `Classifier`: the packet goes to the first output whose byte
/// pattern matches; unmatched packets are dropped.
pub struct Classifier {
    patterns: Vec<BytePattern>,
    drops: u64,
}

impl Element for Classifier {
    fn class_name(&self) -> &'static str {
        "Classifier"
    }
    fn ports(&self) -> (usize, usize) {
        (1, self.patterns.len())
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        for (i, p) in self.patterns.iter().enumerate() {
            if p.matches(&pkt.data) {
                ctx.emit(i, pkt);
                return;
            }
        }
        self.drops += 1;
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "drops" => Some(self.drops.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        60
    }
}

/// A primitive predicate over a [`FlowKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum IpTerm {
    Any,
    Proto(&'static str), // "ip" | "arp" | "udp" | "tcp" | "icmp"
    SrcHost(Ipv4Addr),
    DstHost(Ipv4Addr),
    Host(Ipv4Addr),
    SrcNet(Ipv4Addr, u8),
    DstNet(Ipv4Addr, u8),
    SrcPort(u16),
    DstPort(u16),
    Port(u16),
    Dscp(u8),
}

impl IpTerm {
    fn eval(&self, k: &FlowKey) -> bool {
        let in_net = |ip: Option<Ipv4Addr>, net: Ipv4Addr, len: u8| {
            ip.is_some_and(|ip| {
                let mask = if len == 0 {
                    0
                } else {
                    u32::MAX << (32 - len as u32)
                };
                u32::from(ip) & mask == u32::from(net) & mask
            })
        };
        match *self {
            IpTerm::Any => true,
            IpTerm::Proto("ip") => k.eth_type == 0x0800,
            IpTerm::Proto("arp") => k.eth_type == 0x0806,
            IpTerm::Proto("udp") => k.ip_proto == Some(17),
            IpTerm::Proto("tcp") => k.ip_proto == Some(6),
            IpTerm::Proto("icmp") => k.ip_proto == Some(1),
            IpTerm::Proto(_) => false,
            IpTerm::SrcHost(a) => k.ip_src == Some(a),
            IpTerm::DstHost(a) => k.ip_dst == Some(a),
            IpTerm::Host(a) => k.ip_src == Some(a) || k.ip_dst == Some(a),
            IpTerm::SrcNet(n, l) => in_net(k.ip_src, n, l),
            IpTerm::DstNet(n, l) => in_net(k.ip_dst, n, l),
            IpTerm::SrcPort(p) => k.tp_src == Some(p),
            IpTerm::DstPort(p) => k.tp_dst == Some(p),
            IpTerm::Port(p) => k.tp_src == Some(p) || k.tp_dst == Some(p),
            IpTerm::Dscp(d) => k.ip_dscp == Some(d),
        }
    }
}

/// A conjunction of primitive predicates — the expression language of
/// `IPClassifier` and `IPFilter` (a practical subset of Click's: terms
/// joined by `and`; no `or`, no negation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpExpr {
    terms: Vec<IpTerm>,
}

impl IpExpr {
    /// Parses e.g. `"udp and dst port 53"`, `"src host 10.0.0.1"`, `"-"`.
    pub fn parse(s: &str) -> Result<IpExpr, String> {
        let s = s.trim();
        if s == "-" || s.eq_ignore_ascii_case("any") || s.eq_ignore_ascii_case("all") {
            return Ok(IpExpr {
                terms: vec![IpTerm::Any],
            });
        }
        let mut terms = Vec::new();
        for clause in s.split(" and ") {
            let toks: Vec<&str> = clause.split_whitespace().collect();
            let term = match toks.as_slice() {
                ["ip"] => IpTerm::Proto("ip"),
                ["arp"] => IpTerm::Proto("arp"),
                ["udp"] => IpTerm::Proto("udp"),
                ["tcp"] => IpTerm::Proto("tcp"),
                ["icmp"] => IpTerm::Proto("icmp"),
                ["src", "host", a] => IpTerm::SrcHost(parse_ip(a)?),
                ["dst", "host", a] => IpTerm::DstHost(parse_ip(a)?),
                ["host", a] => IpTerm::Host(parse_ip(a)?),
                ["src", "net", n] => {
                    let (a, l) = parse_net(n)?;
                    IpTerm::SrcNet(a, l)
                }
                ["dst", "net", n] => {
                    let (a, l) = parse_net(n)?;
                    IpTerm::DstNet(a, l)
                }
                ["src", "port", p] => IpTerm::SrcPort(parse_port(p)?),
                ["dst", "port", p] => IpTerm::DstPort(parse_port(p)?),
                ["port", p] => IpTerm::Port(parse_port(p)?),
                ["dscp", d] => IpTerm::Dscp(d.parse().map_err(|_| format!("bad dscp {d:?}"))?),
                _ => return Err(format!("cannot parse expression clause {clause:?}")),
            };
            terms.push(term);
        }
        Ok(IpExpr { terms })
    }

    /// Evaluates the conjunction against a flow key.
    pub fn matches(&self, key: &FlowKey) -> bool {
        self.terms.iter().all(|t| t.eval(key))
    }
}

fn parse_ip(s: &str) -> Result<Ipv4Addr, String> {
    s.parse().map_err(|_| format!("bad IPv4 address {s:?}"))
}

fn parse_port(s: &str) -> Result<u16, String> {
    s.parse().map_err(|_| format!("bad port {s:?}"))
}

fn parse_net(s: &str) -> Result<(Ipv4Addr, u8), String> {
    let (a, l) = s
        .split_once('/')
        .ok_or_else(|| format!("bad network {s:?}, expected A.B.C.D/len"))?;
    let len: u8 = l.parse().map_err(|_| format!("bad prefix length {l:?}"))?;
    if len > 32 {
        return Err(format!("prefix length {len} > 32"));
    }
    Ok((parse_ip(a)?, len))
}

/// Click's `IPClassifier`: first matching expression wins; unmatched
/// packets (including non-IP frames against IP expressions) are dropped.
pub struct IpClassifier {
    exprs: Vec<IpExpr>,
    drops: u64,
}

impl Element for IpClassifier {
    fn class_name(&self) -> &'static str {
        "IPClassifier"
    }
    fn ports(&self) -> (usize, usize) {
        (1, self.exprs.len())
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        if let Ok(key) = FlowKey::extract(&pkt.data) {
            for (i, e) in self.exprs.iter().enumerate() {
                if e.matches(&key) {
                    ctx.emit(i, pkt);
                    return;
                }
            }
        }
        self.drops += 1;
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "drops" => Some(self.drops.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        90
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::router::Router;
    use bytes::Bytes;
    use escape_netem::Time;
    use escape_packet::{MacAddr, PacketBuilder};

    fn udp_frame(dport: u16) -> Packet {
        let data = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4444,
            dport,
            Bytes::from_static(b"x"),
        );
        Packet {
            data,
            id: 0,
            born_ns: 0,
        }
    }

    fn arp_frame() -> Packet {
        let data = PacketBuilder::arp_request(
            MacAddr::from_id(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        Packet {
            data,
            id: 0,
            born_ns: 0,
        }
    }

    #[test]
    fn byte_pattern_parsing_and_matching() {
        let p = BytePattern::parse("12/0800").unwrap();
        assert!(p.matches(&udp_frame(53).data));
        assert!(!p.matches(&arp_frame().data));
        let any = BytePattern::parse("-").unwrap();
        assert!(any.matches(&[]));
        // Mask: match on high nibble only.
        let m = BytePattern::parse("0/a0%f0").unwrap();
        assert!(m.matches(&[0xab]));
        assert!(!m.matches(&[0xbb]));
    }

    #[test]
    fn byte_pattern_errors() {
        assert!(BytePattern::parse("12").is_err());
        assert!(BytePattern::parse("x/08").is_err());
        assert!(BytePattern::parse("0/123").is_err()); // odd hex
        assert!(BytePattern::parse("0/aa%ffff").is_err()); // mask len
    }

    #[test]
    fn classifier_routes_by_ethertype() {
        let mut r = Router::from_config(
            "FromDevice(0) -> c :: Classifier(12/0800, 12/0806); c [0] -> ToDevice(0); c [1] -> ToDevice(1);",
            &Registry::standard(),
            0,
        )
        .unwrap();
        let out = r.push_external(0, udp_frame(53), Time::ZERO);
        assert_eq!(out.external[0].0, 0);
        let out = r.push_external(0, arp_frame(), Time::ZERO);
        assert_eq!(out.external[0].0, 1);
    }

    #[test]
    fn classifier_drops_unmatched() {
        let mut r = Router::from_config(
            "FromDevice(0) -> c :: Classifier(12/86dd); c -> ToDevice(0);",
            &Registry::standard(),
            0,
        )
        .unwrap();
        let out = r.push_external(0, udp_frame(53), Time::ZERO);
        assert!(out.external.is_empty());
        assert_eq!(r.read_handler("c.drops").unwrap(), "1");
    }

    #[test]
    fn ip_expr_conjunctions() {
        let e = IpExpr::parse("udp and dst port 53").unwrap();
        assert!(e.matches(&FlowKey::extract(&udp_frame(53).data).unwrap()));
        assert!(!e.matches(&FlowKey::extract(&udp_frame(80).data).unwrap()));
        let e = IpExpr::parse("src host 10.0.0.1").unwrap();
        assert!(e.matches(&FlowKey::extract(&udp_frame(1).data).unwrap()));
        let e = IpExpr::parse("host 10.0.0.2 and tcp").unwrap();
        assert!(!e.matches(&FlowKey::extract(&udp_frame(1).data).unwrap()));
        let e = IpExpr::parse("dst net 10.0.0.0/8").unwrap();
        assert!(e.matches(&FlowKey::extract(&udp_frame(1).data).unwrap()));
        let e = IpExpr::parse("dst net 11.0.0.0/8").unwrap();
        assert!(!e.matches(&FlowKey::extract(&udp_frame(1).data).unwrap()));
        assert!(IpExpr::parse("port 4444")
            .unwrap()
            .matches(&FlowKey::extract(&udp_frame(1).data).unwrap()));
    }

    #[test]
    fn ip_expr_errors() {
        assert!(IpExpr::parse("quic").is_err());
        assert!(IpExpr::parse("src host nothost").is_err());
        assert!(IpExpr::parse("dst net 10.0.0.0/40").is_err());
        assert!(IpExpr::parse("port many").is_err());
    }

    #[test]
    fn ip_classifier_routes_and_drops() {
        let mut r = Router::from_config(
            "FromDevice(0) -> c :: IPClassifier(udp and dst port 53, -); c [0] -> ToDevice(0); c [1] -> ToDevice(1);",
            &Registry::standard(),
            0,
        )
        .unwrap();
        assert_eq!(
            r.push_external(0, udp_frame(53), Time::ZERO).external[0].0,
            0
        );
        assert_eq!(
            r.push_external(0, udp_frame(80), Time::ZERO).external[0].0,
            1
        );
        assert_eq!(r.push_external(0, arp_frame(), Time::ZERO).external[0].0, 1);
        // catch-all
    }
}
