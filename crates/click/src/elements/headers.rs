//! Header surgery: sanity checks, TTL and DSCP rewriting.
//!
//! These elements operate on full Ethernet frames (ESCAPE VNF ports carry
//! Ethernet). TTL and DSCP edits go through [`escape_packet::rewrite()`],
//! which writes the IPv4 header back with a fresh checksum.

use super::args;
use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use bytes::Bytes;
use escape_packet::{rewrite, EtherType, EthernetHeader, Ipv4Header, Packet};

pub fn install(r: &mut Registry) {
    r.register("CheckIPHeader", |a| {
        args::max(a, 0)?;
        Ok(Box::new(CheckIpHeader { bad: 0 }))
    });
    r.register("DecIPTTL", |a| {
        args::max(a, 0)?;
        Ok(Box::new(DecIpTtl::default()))
    });
    r.register("SetIPDSCP", |a| {
        args::max(a, 1)?;
        let dscp = args::req::<u8>(a, 0, "dscp value")?;
        if dscp > 63 {
            return Err("dscp must be 0..=63".into());
        }
        Ok(Box::new(SetIpDscp {
            dscp,
            frame: Vec::new(),
        }))
    });
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

/// Runs `edit` on the IPv4 header of `pkt` through `scratch` and emits
/// the rewritten frame when it returns true. A frame that is not IPv4
/// passes untouched; one whose Ethernet or IPv4 header does not parse is
/// dropped.
fn edit_ipv4(
    ctx: &mut ElemCtx<'_>,
    scratch: &mut Vec<u8>,
    mut pkt: Packet,
    edit: impl FnOnce(&mut Ipv4Header) -> bool,
) {
    // `Some(true)`: rewritten into `scratch`; `Some(false)`: not IPv4.
    let edited = rewrite(&pkt.data, scratch, |h| {
        if h.eth.ethertype != EtherType::Ipv4 {
            return Some(false);
        }
        edit(h.ip_mut()?).then_some(true)
    });
    match edited {
        Ok(Some(true)) => pkt.data = Bytes::copy_from_slice(scratch),
        Ok(Some(false)) => {}
        _ => return,
    }
    ctx.emit(0, pkt);
}

/// Decrements the IPv4 TTL, dropping expired packets.
#[derive(Default)]
pub struct DecIpTtl {
    expired: u64,
    /// The rewritten frame is written here, then copied out once.
    frame: Vec<u8>,
}

impl Element for DecIpTtl {
    fn class_name(&self) -> &'static str {
        "DecIPTTL"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        let expired = &mut self.expired;
        edit_ipv4(ctx, &mut self.frame, pkt, |ip| {
            if ip.ttl <= 1 {
                *expired += 1;
                return false;
            }
            ip.ttl -= 1;
            true
        });
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
    /// The rewritten frame is written here, then copied out once.
    frame: Vec<u8>,
}

impl Element for SetIpDscp {
    fn class_name(&self) -> &'static str {
        "SetIPDSCP"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        let dscp = self.dscp;
        edit_ipv4(ctx, &mut self.frame, pkt, |ip| {
            ip.dscp = dscp;
            true
        });
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
    use escape_netem::Time;
    use escape_packet::{MacAddr, PacketBuilder};
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

    /// The IPv4 header of an emitted frame (its checksum verified).
    fn ip_of(frame: &[u8]) -> Ipv4Header {
        let (_, l3) = EthernetHeader::parse(frame).unwrap();
        Ipv4Header::parse(l3).unwrap().0
    }

    #[test]
    fn ttl_decrements_and_expires() {
        let mut r = mk("FromDevice(0) -> d :: DecIPTTL -> ToDevice(0);");
        let out = r.push_external(0, udp_pkt(), Time::ZERO);
        assert_eq!(ip_of(&out.external[0].1.data).ttl, 63);
        // A TTL-1 packet expires.
        let mut low = udp_pkt();
        let mut frame = low.data.to_vec();
        frame[14 + 8] = 1;
        frame[14 + 10..14 + 12].fill(0);
        let sum = escape_packet::checksum::checksum(&frame[14..34]);
        frame[14 + 10..14 + 12].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(ip_of(&frame).ttl, 1);
        low.data = Bytes::from(frame);
        let out = r.push_external(0, low, Time::ZERO);
        assert!(out.external.is_empty());
        assert_eq!(r.read_handler("d.expired").unwrap(), "1");
    }

    #[test]
    fn dscp_is_rewritten_with_valid_checksum() {
        let mut r = mk("FromDevice(0) -> SetIPDSCP(46) -> ToDevice(0);");
        let out = r.push_external(0, udp_pkt(), Time::ZERO);
        assert_eq!(ip_of(&out.external[0].1.data).dscp, 46);
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
    }
}
