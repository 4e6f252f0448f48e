//! Security VNF building blocks: the `IPFilter` firewall and the
//! `StringMatcher` DPI element.

use super::args;
use super::classify::IpExpr;
use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use escape_packet::{EtherType, EthernetHeader, FlowKey, IpProtocol, Ipv4Header, Packet};

pub fn install(r: &mut Registry) {
    r.register("IPFilter", |a| {
        if a.is_empty() {
            return Err("needs at least one rule".into());
        }
        let rules = a
            .iter()
            .map(|r| FilterRule::parse(r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Box::new(IpFilter {
            rules,
            passed: 0,
            dropped: 0,
        }))
    });
    r.register("StringMatcher", |a| {
        args::max(a, 1)?;
        let pat = a.first().ok_or("needs a pattern argument")?;
        let pat = pat.trim_matches('"').as_bytes().to_vec();
        if pat.is_empty() {
            return Err("pattern must be non-empty".into());
        }
        Ok(Box::new(StringMatcher {
            pattern: pat,
            matches: 0,
        }))
    });
}

/// One firewall rule: an action plus an [`IpExpr`] predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRule {
    pub allow: bool,
    pub expr: IpExpr,
}

impl FilterRule {
    /// Parses `"allow <expr>"` or `"deny <expr>"` / `"drop <expr>"`.
    pub fn parse(s: &str) -> Result<FilterRule, String> {
        let s = s.trim();
        let (action, rest) = s
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("rule {s:?} must be 'allow/deny <expression>'"))?;
        let allow = match action {
            "allow" | "accept" | "pass" => true,
            "deny" | "drop" | "reject" => false,
            other => return Err(format!("unknown action {other:?}")),
        };
        Ok(FilterRule {
            allow,
            expr: IpExpr::parse(rest)?,
        })
    }
}

/// A stateless firewall: rules are evaluated in order, first match wins,
/// unmatched packets are dropped (like Click's `IPFilter` with no trailing
/// `allow all`). One output carries the survivors.
pub struct IpFilter {
    rules: Vec<FilterRule>,
    passed: u64,
    dropped: u64,
}

impl Element for IpFilter {
    fn class_name(&self) -> &'static str {
        "IPFilter"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        let verdict = FlowKey::extract(&pkt.data).ok().and_then(|key| {
            self.rules
                .iter()
                .find(|r| r.expr.matches(&key))
                .map(|r| r.allow)
        });
        if verdict == Some(true) {
            self.passed += 1;
            ctx.emit(0, pkt);
        } else {
            self.dropped += 1;
        }
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "passed" => Some(self.passed.to_string()),
            "dropped" => Some(self.dropped.to_string()),
            "rules" => Some(self.rules.len().to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        // Linear in rules: a bigger ruleset costs more CPU.
        100 + 20 * self.rules.len() as u64
    }
}

/// Naive DPI: scans the transport payload for a byte pattern. Matching
/// packets leave on output 0 ("suspicious"), the rest on output 1.
pub struct StringMatcher {
    pattern: Vec<u8>,
    matches: u64,
}

impl StringMatcher {
    /// The transport payload of `data`, read in place.
    fn payload_of(data: &[u8]) -> Option<&[u8]> {
        let (eth, l3) = EthernetHeader::parse(data).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let (ip, l4) = Ipv4Header::parse(l3).ok()?;
        match ip.protocol {
            // Transport payload offset: UDP header 8, TCP header from doff.
            IpProtocol::Udp if l4.len() > 8 => Some(&l4[8..]),
            IpProtocol::Tcp if l4.len() > 20 => {
                let doff = ((l4[12] >> 4) as usize) * 4;
                l4.get(doff..).filter(|p| !p.is_empty())
            }
            _ => None,
        }
    }

    fn contains(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }
}

impl Element for StringMatcher {
    fn class_name(&self) -> &'static str {
        "StringMatcher"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 2)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        let hit = Self::payload_of(&pkt.data)
            .map(|p| Self::contains(p, &self.pattern))
            .unwrap_or(false);
        // DPI is expensive; charge CPU proportional to scanned bytes
        // (8 ns/byte models a naive byte-at-a-time scanner).
        ctx.charge_work(pkt.len() as u64 * 8);
        if hit {
            self.matches += 1;
            ctx.emit(0, pkt);
        } else {
            ctx.emit(1, pkt);
        }
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "matches" => Some(self.matches.to_string()),
            "pattern" => Some(String::from_utf8_lossy(&self.pattern).into_owned()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        150
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
    use std::net::Ipv4Addr;

    fn udp(dport: u16, payload: &'static [u8]) -> Packet {
        let data = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            999,
            dport,
            Bytes::from_static(payload),
        );
        Packet {
            data,
            id: 0,
            born_ns: 0,
        }
    }

    fn mk(cfg: &str) -> Router {
        Router::from_config(cfg, &Registry::standard(), 0).unwrap()
    }

    #[test]
    fn factory_validation() {
        let reg = Registry::standard();
        let dpi = |args: &str| {
            let cfg = format!(
                "FromDevice(0) -> m :: StringMatcher({args}); m [0] -> ToDevice(1); m [1] -> ToDevice(0);"
            );
            Router::from_config(&cfg, &reg, 0).map(|_| ())
        };
        assert!(dpi(r#""x""#).is_ok());
        assert!(dpi("").is_err());
        assert!(dpi(r#""""#).is_err());
        // A second argument is refused, not silently dropped.
        assert!(dpi("x, 0").is_err());
        assert!(dpi("18446744073709551615, 1").is_err());
        let firewall = |args: &str| {
            let cfg = format!("FromDevice(0) -> IPFilter({args}) -> ToDevice(0);");
            Router::from_config(&cfg, &reg, 0).map(|_| ())
        };
        assert!(firewall("deny udp, allow all").is_ok());
        assert!(firewall("").is_err());
    }

    #[test]
    fn filter_rule_parsing() {
        let r = FilterRule::parse("allow udp and dst port 53").unwrap();
        assert!(r.allow);
        let r = FilterRule::parse("deny host 10.0.0.1").unwrap();
        assert!(!r.allow);
        assert!(FilterRule::parse("permit udp").is_err());
        assert!(FilterRule::parse("allow").is_err());
    }

    #[test]
    fn firewall_first_match_wins_default_deny() {
        let mut r =
            mk("FromDevice(0) -> f :: IPFilter(deny dst port 23, allow udp) -> ToDevice(0);");
        assert_eq!(
            r.push_external(0, udp(53, b"ok"), Time::ZERO)
                .external
                .len(),
            1
        );
        assert_eq!(
            r.push_external(0, udp(23, b"telnet"), Time::ZERO)
                .external
                .len(),
            0
        );
        // Unmatched (non-UDP e.g. ARP) -> default deny.
        let arp = PacketBuilder::ethernet(
            MacAddr::from_id(1),
            MacAddr::BROADCAST,
            EtherType::Arp,
            |b| b.extend_from_slice(&[0; 28]),
        );
        assert_eq!(
            r.push_external(
                0,
                Packet {
                    data: arp,
                    id: 0,
                    born_ns: 0
                },
                Time::ZERO
            )
            .external
            .len(),
            0
        );
        assert_eq!(r.read_handler("f.passed").unwrap(), "1");
        assert_eq!(r.read_handler("f.dropped").unwrap(), "2");
    }

    #[test]
    fn dpi_splits_on_payload_pattern() {
        let mut r = mk(
            r#"FromDevice(0) -> m :: StringMatcher("attack"); m [0] -> ToDevice(1); m [1] -> ToDevice(0);"#,
        );
        let out = r.push_external(0, udp(80, b"an attack vector"), Time::ZERO);
        assert_eq!(out.external[0].0, 1);
        let out = r.push_external(0, udp(80, b"benign chatter"), Time::ZERO);
        assert_eq!(out.external[0].0, 0);
        assert_eq!(r.read_handler("m.matches").unwrap(), "1");
    }

    #[test]
    fn non_ip_goes_to_clean_port() {
        let mut r = mk(
            r#"FromDevice(0) -> m :: StringMatcher("x"); m [0] -> ToDevice(1); m [1] -> ToDevice(0);"#,
        );
        let arp = PacketBuilder::ethernet(
            MacAddr::from_id(1),
            MacAddr::BROADCAST,
            EtherType::Arp,
            |b| b.extend_from_slice(&[0; 28]),
        );
        let out = r.push_external(
            0,
            Packet {
                data: arp,
                id: 0,
                born_ns: 0,
            },
            Time::ZERO,
        );
        assert_eq!(out.external[0].0, 0);
    }
}
