//! The OpenFlow 1.0 12-tuple flow key extracted from a frame.
//!
//! This is the shared language between the switch's flow table, the POX
//! controller's match construction and the Click elements that look at
//! headers (`IPFilter`, `HashSwitch`): one parse of a frame yields every
//! field OpenFlow 1.0 can match on.

use crate::ether::{EtherType, EthernetHeader};
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::mac::MacAddr;
use crate::ParseError;
use std::net::Ipv4Addr;

/// Header fields of a frame, in OpenFlow 1.0 terms. Fields that do not
/// apply to the frame (e.g. ports of a non-TCP/UDP packet) are `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    pub eth_src: MacAddr,
    pub eth_dst: MacAddr,
    pub eth_type: u16,
    pub vlan_id: Option<u16>,
    pub ip_src: Option<Ipv4Addr>,
    pub ip_dst: Option<Ipv4Addr>,
    pub ip_proto: Option<u8>,
    pub ip_dscp: Option<u8>,
    pub tp_src: Option<u16>,
    pub tp_dst: Option<u16>,
}

impl FlowKey {
    /// Extracts the key from raw frame bytes. Transport fields are filled
    /// in on a best-effort basis: an unparseable layer simply leaves its
    /// fields `None` (matching how a hardware switch parses what it can),
    /// but an unparseable *Ethernet* layer is an error.
    pub fn extract(frame: &[u8]) -> Result<FlowKey, ParseError> {
        let (eth, eth_payload) = EthernetHeader::parse(frame)?;
        let mut key = FlowKey {
            eth_src: eth.src,
            eth_dst: eth.dst,
            eth_type: eth.ethertype.to_u16(),
            vlan_id: None,
            ip_src: None,
            ip_dst: None,
            ip_proto: None,
            ip_dscp: None,
            tp_src: None,
            tp_dst: None,
        };
        if eth.ethertype == EtherType::Ipv4 {
            if let Ok((ip, l4)) = Ipv4Header::parse(eth_payload) {
                key.ip_src = Some(ip.src);
                key.ip_dst = Some(ip.dst);
                key.ip_proto = Some(ip.protocol.to_u8());
                key.ip_dscp = Some(ip.dscp);
                match ip.protocol {
                    IpProtocol::Udp | IpProtocol::Tcp => {
                        // Ports sit in the same place for both protocols and
                        // matching must work even if the checksum context is
                        // unavailable, so read them positionally.
                        if let [s0, s1, d0, d1, ..] = *l4 {
                            key.tp_src = Some(u16::from_be_bytes([s0, s1]));
                            key.tp_dst = Some(u16::from_be_bytes([d0, d1]));
                        }
                    }
                    IpProtocol::Icmp => {
                        // OpenFlow 1.0 maps ICMP type/code onto tp_src/tp_dst.
                        if let [icmp_type, code, ..] = *l4 {
                            key.tp_src = Some(icmp_type.into());
                            key.tp_dst = Some(code.into());
                        }
                    }
                    IpProtocol::Other(_) => {}
                }
            }
        }
        Ok(key)
    }

    /// Deterministic 64-bit hash over the canonical 5-tuple-ish fields,
    /// used by hash-bucket replica steering: `steering_hash() % nbuckets`
    /// picks the bucket (and thus the replica) a flow is pinned to. FNV-1a
    /// over a fixed serialization, so the mapping is stable across runs,
    /// platforms and replica counts — the determinism invariant depends on
    /// that stability.
    pub fn steering_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&self.eth_src.0);
        eat(&self.eth_dst.0);
        eat(&self.eth_type.to_be_bytes());
        eat(&self.ip_src.map_or([0; 4], |a| a.octets()));
        eat(&self.ip_dst.map_or([0; 4], |a| a.octets()));
        eat(&[self.ip_proto.unwrap_or(0)]);
        eat(&self.tp_src.unwrap_or(0).to_be_bytes());
        eat(&self.tp_dst.unwrap_or(0).to_be_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use bytes::Bytes;

    #[test]
    fn udp_key_has_all_fields() {
        let frame = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            53,
            Bytes::from_static(b"query"),
        );
        let key = FlowKey::extract(&frame).unwrap();
        assert_eq!(key.eth_src, MacAddr::from_id(1));
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.ip_src, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(key.ip_proto, Some(17));
        assert_eq!(key.tp_src, Some(4000));
        assert_eq!(key.tp_dst, Some(53));
    }

    #[test]
    fn arp_key_has_no_ip_fields() {
        let frame = PacketBuilder::ethernet(
            MacAddr::from_id(1),
            MacAddr::BROADCAST,
            EtherType::Arp,
            |b| b.extend_from_slice(&[0; 28]),
        );
        let key = FlowKey::extract(&frame).unwrap();
        assert_eq!(key.eth_type, 0x0806);
        assert_eq!(key.ip_src, None);
        assert_eq!(key.tp_src, None);
    }

    #[test]
    fn icmp_type_maps_to_tp_src() {
        let frame = PacketBuilder::icmp_echo_request(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            1,
        );
        let key = FlowKey::extract(&frame).unwrap();
        assert_eq!(key.ip_proto, Some(1));
        assert_eq!(key.tp_src, Some(8)); // echo request type
        assert_eq!(key.tp_dst, Some(0));
    }

    #[test]
    fn steering_hash_is_stable_and_spreads() {
        let frame = |sport: u16| {
            PacketBuilder::udp(
                MacAddr::from_id(1),
                MacAddr::from_id(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                sport,
                9_000,
                Bytes::from_static(b"x"),
            )
        };
        let k1 = FlowKey::extract(&frame(40_000)).unwrap();
        let k2 = FlowKey::extract(&frame(40_000)).unwrap();
        assert_eq!(k1.steering_hash(), k2.steering_hash());
        // Distinct flows land in more than one of 4 buckets.
        let buckets: std::collections::BTreeSet<u64> = (0..32u16)
            .map(|i| {
                FlowKey::extract(&frame(40_000 + i))
                    .unwrap()
                    .steering_hash()
                    % 4
            })
            .collect();
        assert!(buckets.len() > 1, "hash failed to spread flows");
    }

    #[test]
    fn truncated_ethernet_is_an_error() {
        assert!(FlowKey::extract(&[1, 2, 3]).is_err());
    }

    #[test]
    fn garbage_ip_payload_leaves_fields_none() {
        // Valid Ethernet carrying an IPv4 ethertype but junk payload.
        let mut frame = Vec::new();
        EthernetHeader {
            dst: MacAddr::from_id(9),
            src: MacAddr::from_id(8),
            ethertype: EtherType::Ipv4,
        }
        .put(&mut frame);
        frame.extend_from_slice(&[0xde, 0xad]);
        let key = FlowKey::extract(&frame).unwrap();
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.ip_src, None);
    }
}
