//! Header surgery: strip/encap, sanity checks, TTL and DSCP rewriting.
//!
//! These elements operate on full Ethernet frames (ESCAPE VNF ports carry
//! Ethernet), decoding and re-encoding the affected layers so checksums
//! stay correct.

use super::args;
use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use escape_packet::{
    EtherType, EthernetFrame, EthernetHeader, Ipv4Header, Ipv4Packet, MacAddr, Packet,
};

pub fn install(r: &mut Registry) {
    r.register("Strip", |a| {
        args::max(a, 1)?;
        let n = args::req::<usize>(a, 0, "byte count")?;
        Ok(Box::new(Strip { n }))
    });
    r.register("EtherEncap", |a| {
        args::max(a, 3)?;
        let ethertype = a
            .first()
            .ok_or("missing ethertype")?
            .trim_start_matches("0x")
            .pipe_parse_hex()?;
        let src: MacAddr = a
            .get(1)
            .ok_or("missing source MAC")?
            .parse()
            .map_err(|_| "bad source MAC".to_string())?;
        let dst: MacAddr = a
            .get(2)
            .ok_or("missing destination MAC")?
            .parse()
            .map_err(|_| "bad destination MAC".to_string())?;
        Ok(Box::new(EtherEncap {
            ethertype,
            src,
            dst,
        }))
    });
    r.register("CheckIPHeader", |a| {
        args::max(a, 0)?;
        Ok(Box::new(CheckIpHeader { bad: 0 }))
    });
    r.register("DecIPTTL", |a| {
        args::max(a, 0)?;
        Ok(Box::new(DecIpTtl { expired: 0 }))
    });
    r.register("SetIPDSCP", |a| {
        args::max(a, 1)?;
        let dscp = args::req::<u8>(a, 0, "dscp value")?;
        if dscp > 63 {
            return Err("dscp must be 0..=63".into());
        }
        Ok(Box::new(SetIpDscp { dscp }))
    });
}

trait HexParse {
    fn pipe_parse_hex(&self) -> Result<u16, String>;
}

impl HexParse for str {
    fn pipe_parse_hex(&self) -> Result<u16, String> {
        u16::from_str_radix(self, 16).map_err(|_| format!("bad hex ethertype {self:?}"))
    }
}

/// Removes the first `n` bytes of the packet.
pub struct Strip {
    n: usize,
}

impl Element for Strip {
    fn class_name(&self) -> &'static str {
        "Strip"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, mut pkt: Packet) {
        if pkt.data.len() >= self.n {
            pkt.data = pkt.data.slice(self.n..);
            ctx.emit(0, pkt);
        }
        // Shorter packets are dropped (cannot strip).
    }
    fn cost_ns(&self) -> u64 {
        20
    }
}

/// Prepends a fresh Ethernet header.
pub struct EtherEncap {
    ethertype: u16,
    src: MacAddr,
    dst: MacAddr,
}

impl Element for EtherEncap {
    fn class_name(&self) -> &'static str {
        "EtherEncap"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, mut pkt: Packet) {
        let frame = EthernetFrame::new(
            self.dst,
            self.src,
            EtherType::from_u16(self.ethertype),
            pkt.data.clone(),
        );
        pkt.data = frame.encode();
        ctx.emit(0, pkt);
    }
    fn cost_ns(&self) -> u64 {
        45
    }
}

/// Validates the IPv4 layer of an Ethernet frame: bad frames (non-IP,
/// truncated, bad checksum) are dropped and counted.
pub struct CheckIpHeader {
    bad: u64,
}

impl Element for CheckIpHeader {
    fn class_name(&self) -> &'static str {
        "CheckIPHeader"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        let ok = EthernetHeader::parse(&pkt.data).is_ok_and(|(eth, l3)| {
            eth.ethertype == EtherType::Ipv4 && Ipv4Header::parse(l3).is_ok()
        });
        if ok {
            ctx.emit(0, pkt);
        } else {
            self.bad += 1;
        }
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "drops" => Some(self.bad.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        70
    }
}

/// Decrements the IPv4 TTL, dropping expired packets.
pub struct DecIpTtl {
    expired: u64,
}

impl Element for DecIpTtl {
    fn class_name(&self) -> &'static str {
        "DecIPTTL"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, mut pkt: Packet) {
        let Ok(eth) = EthernetFrame::decode(&pkt.data) else {
            return;
        };
        if eth.ethertype != EtherType::Ipv4 {
            ctx.emit(0, pkt); // non-IP passes through untouched
            return;
        }
        let Ok(ip) = Ipv4Packet::decode(&eth.payload) else {
            return;
        };
        match ip.decrement_ttl() {
            Some(newip) => {
                let frame = EthernetFrame::new(eth.dst, eth.src, eth.ethertype, newip.encode());
                pkt.data = frame.encode();
                ctx.emit(0, pkt);
            }
            None => self.expired += 1,
        }
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "expired" => Some(self.expired.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        80
    }
}

/// Overwrites the IPv4 DSCP field (used by the QoS-marking catalog VNF).
pub struct SetIpDscp {
    dscp: u8,
}

impl Element for SetIpDscp {
    fn class_name(&self) -> &'static str {
        "SetIPDSCP"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, mut pkt: Packet) {
        let Ok(eth) = EthernetFrame::decode(&pkt.data) else {
            return;
        };
        if eth.ethertype != EtherType::Ipv4 {
            ctx.emit(0, pkt);
            return;
        }
        let Ok(mut ip) = Ipv4Packet::decode(&eth.payload) else {
            return;
        };
        ip.dscp = self.dscp;
        let frame = EthernetFrame::new(eth.dst, eth.src, eth.ethertype, ip.encode());
        pkt.data = frame.encode();
        ctx.emit(0, pkt);
    }
    fn cost_ns(&self) -> u64 {
        80
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::router::Router;
    use bytes::Bytes;
    use escape_netem::Time;
    use escape_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn udp_pkt() -> Packet {
        let data = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Bytes::from_static(b"payload"),
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
    fn strip_then_encap_restores_a_valid_frame() {
        let mut r = mk(
            "FromDevice(0) -> Strip(14) -> EtherEncap(0800, 02:00:00:00:00:09, 02:00:00:00:00:0a) -> ToDevice(0);",
        );
        let out = r.push_external(0, udp_pkt(), Time::ZERO);
        assert_eq!(out.external.len(), 1);
        let eth = EthernetFrame::decode(&out.external[0].1.data).unwrap();
        assert_eq!(eth.src, MacAddr::from_id(9));
        assert_eq!(eth.dst, MacAddr::from_id(10));
        // IP layer is untouched and still valid.
        Ipv4Packet::decode(&eth.payload).unwrap();
    }

    #[test]
    fn check_ip_header_filters_garbage() {
        let mut r = mk("FromDevice(0) -> c :: CheckIPHeader -> ToDevice(0);");
        assert_eq!(r.push_external(0, udp_pkt(), Time::ZERO).external.len(), 1);
        let junk = Packet {
            data: Bytes::from(vec![0u8; 40]),
            id: 0,
            born_ns: 0,
        };
        assert_eq!(r.push_external(0, junk, Time::ZERO).external.len(), 0);
        assert_eq!(r.read_handler("c.drops").unwrap(), "1");
    }

    #[test]
    fn ttl_decrements_and_expires() {
        let mut r = mk("FromDevice(0) -> d :: DecIPTTL -> ToDevice(0);");
        let out = r.push_external(0, udp_pkt(), Time::ZERO);
        let eth = EthernetFrame::decode(&out.external[0].1.data).unwrap();
        let ip = Ipv4Packet::decode(&eth.payload).unwrap();
        assert_eq!(ip.ttl, 63);
        // A TTL-1 packet expires.
        let mut low = Ipv4Packet::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            escape_packet::IpProtocol::Udp,
            Bytes::new(),
        );
        low.ttl = 1;
        let frame = EthernetFrame::new(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            EtherType::Ipv4,
            low.encode(),
        )
        .encode();
        let out = r.push_external(
            0,
            Packet {
                data: frame,
                id: 0,
                born_ns: 0,
            },
            Time::ZERO,
        );
        assert!(out.external.is_empty());
        assert_eq!(r.read_handler("d.expired").unwrap(), "1");
    }

    #[test]
    fn dscp_is_rewritten_with_valid_checksum() {
        let mut r = mk("FromDevice(0) -> SetIPDSCP(46) -> ToDevice(0);");
        let out = r.push_external(0, udp_pkt(), Time::ZERO);
        let eth = EthernetFrame::decode(&out.external[0].1.data).unwrap();
        let ip = Ipv4Packet::decode(&eth.payload).unwrap(); // checksum verified inside
        assert_eq!(ip.dscp, 46);
    }

    #[test]
    fn non_ip_passes_through_ttl_and_dscp() {
        let mut r = mk("FromDevice(0) -> DecIPTTL -> SetIPDSCP(10) -> ToDevice(0);");
        let arp = PacketBuilder::arp_request(
            MacAddr::from_id(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let before = arp.clone();
        let out = r.push_external(
            0,
            Packet {
                data: arp,
                id: 0,
                born_ns: 0,
            },
            Time::ZERO,
        );
        assert_eq!(out.external[0].1.data, before);
    }

    #[test]
    fn factory_validation() {
        let reg = Registry::standard();
        assert!(Router::from_config("s :: SetIPDSCP(64);", &reg, 0).is_err());
        assert!(
            Router::from_config("e :: EtherEncap(zzzz, 0:0:0:0:0:1, 0:0:0:0:0:2);", &reg, 0)
                .is_err()
        );
        assert!(Router::from_config("e :: EtherEncap(0800);", &reg, 0).is_err());
    }
}
