//! `IPFilter`'s rule language: conjunctions of IP header predicates.

use escape_packet::FlowKey;
use std::net::Ipv4Addr;

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
/// `IPFilter` (a practical subset of Click's: terms joined by `and`; no
/// `or`, no negation).
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

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use escape_packet::{MacAddr, Packet, PacketBuilder};

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
}
