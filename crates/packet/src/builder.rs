//! Convenience constructors for fully formed frames.
//!
//! Workload generators, tests and examples use these to mint complete
//! Ethernet frames in one call.

use crate::arp::ArpPacket;
use crate::ether::{EtherType, EthernetHeader};
use crate::icmp::IcmpPacket;
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::mac::MacAddr;
use crate::tcp::{self, flags, TcpHeader};
use crate::udp::{self, UdpHeader};
use bytes::Bytes;
use std::net::Ipv4Addr;

/// Builders producing raw frame bytes.
pub struct PacketBuilder;

impl PacketBuilder {
    /// A frame from `src` to `dst` of `ethertype` around what `body`
    /// appends: the one buffer every builder writes its headers into,
    /// each through its format's `put`.
    pub fn ethernet(
        src: MacAddr,
        dst: MacAddr,
        ethertype: EtherType,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Bytes {
        let mut buf = Vec::new();
        EthernetHeader {
            dst,
            src,
            ethertype,
        }
        .put(&mut buf);
        body(&mut buf);
        Bytes::from(buf)
    }

    /// An IPv4 packet with header `ip` around `payload`, in an Ethernet
    /// frame.
    pub fn ipv4(eth_src: MacAddr, eth_dst: MacAddr, ip: Ipv4Header, payload: &[u8]) -> Bytes {
        Self::ethernet(eth_src, eth_dst, EtherType::Ipv4, |buf| {
            ip.put(buf, payload.len());
            buf.extend_from_slice(payload);
        })
    }

    /// A UDP datagram in an IPv4 packet in an Ethernet frame.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        eth_src: MacAddr,
        eth_dst: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        payload: Bytes,
    ) -> Bytes {
        Self::ethernet(eth_src, eth_dst, EtherType::Ipv4, |buf| {
            let ip = Ipv4Header::new(ip_src, ip_dst, IpProtocol::Udp);
            ip.put(buf, udp::HEADER_LEN + payload.len());
            let (src_port, dst_port) = (sport, dport);
            UdpHeader { src_port, dst_port }.put(buf, ip_src, ip_dst, &payload);
        })
    }

    /// A TCP segment in an IPv4 packet in an Ethernet frame.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        eth_src: MacAddr,
        eth_dst: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        tcp_flags: u8,
        payload: Bytes,
    ) -> Bytes {
        let tcp = TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq: 0,
            ack: 0,
            flags: tcp_flags,
            window: 65535,
        };
        Self::ethernet(eth_src, eth_dst, EtherType::Ipv4, |buf| {
            let ip = Ipv4Header::new(ip_src, ip_dst, IpProtocol::Tcp);
            ip.put(buf, tcp::HEADER_LEN + payload.len());
            tcp.put(buf, ip_src, ip_dst, &payload);
        })
    }

    /// A TCP SYN, the first packet of a new connection.
    pub fn tcp_syn(
        eth_src: MacAddr,
        eth_dst: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        sport: u16,
        dport: u16,
    ) -> Bytes {
        Self::tcp(
            eth_src,
            eth_dst,
            ip_src,
            ip_dst,
            sport,
            dport,
            flags::SYN,
            Bytes::new(),
        )
    }

    /// An ARP packet in an Ethernet frame.
    pub fn arp(eth_src: MacAddr, eth_dst: MacAddr, arp: &ArpPacket) -> Bytes {
        let arp = arp.encode();
        Self::ethernet(eth_src, eth_dst, EtherType::Arp, |buf| {
            buf.extend_from_slice(&arp)
        })
    }

    /// A broadcast ARP request.
    pub fn arp_request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Bytes {
        let req = ArpPacket::request(sender_mac, sender_ip, target_ip);
        Self::arp(sender_mac, MacAddr::BROADCAST, &req)
    }

    /// A unicast ARP reply.
    pub fn arp_reply(req_frame: &[u8], my_mac: MacAddr) -> Option<Bytes> {
        let (_, payload) = EthernetHeader::parse(req_frame).ok()?;
        let req = ArpPacket::decode(payload).ok()?;
        let rep = ArpPacket::reply_to(&req, my_mac);
        Some(Self::arp(my_mac, req.sender_mac, &rep))
    }

    /// An ICMP echo request frame.
    pub fn icmp_echo_request(
        eth_src: MacAddr,
        eth_dst: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        ident: u16,
        seq: u16,
    ) -> Bytes {
        let icmp = IcmpPacket::echo_request(ident, seq, Bytes::from_static(b"escape-ping"));
        let ip = Ipv4Header::new(ip_src, ip_dst, IpProtocol::Icmp);
        Self::ipv4(eth_src, eth_dst, ip, &icmp.encode())
    }

    /// A UDP frame padded with zeros so the whole Ethernet frame is exactly
    /// `frame_len` bytes (used by the throughput benches for 64/512/1500 B
    /// packet-size sweeps). Panics if `frame_len` is below the minimum of
    /// 14 + 20 + 8 = 42 bytes.
    pub fn udp_with_len(
        eth_src: MacAddr,
        eth_dst: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        frame_len: usize,
    ) -> Bytes {
        const OVERHEAD: usize = 14 + 20 + 8;
        assert!(
            frame_len >= OVERHEAD,
            "frame_len {frame_len} below minimum {OVERHEAD}"
        );
        let payload = Bytes::from(vec![0u8; frame_len - OVERHEAD]);
        Self::udp(eth_src, eth_dst, ip_src, ip_dst, sport, dport, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 1]);
    const B_MAC: MacAddr = MacAddr([2, 0, 0, 0, 0, 2]);
    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn udp_frame_parses_back_to_all_layers() {
        let frame = PacketBuilder::udp(
            A_MAC,
            B_MAC,
            A_IP,
            B_IP,
            1111,
            2222,
            Bytes::from_static(b"xyz"),
        );
        let (eth, l3) = EthernetHeader::parse(&frame).unwrap();
        assert_eq!(eth.src, A_MAC);
        assert_eq!(eth.dst, B_MAC);
        let (ip, l4) = Ipv4Header::parse(l3).unwrap();
        assert_eq!(ip.protocol, IpProtocol::Udp);
        let (udp, payload) = UdpHeader::parse(l4, ip.src, ip.dst).unwrap();
        assert_eq!(udp.dst_port, 2222);
        assert_eq!(payload, b"xyz");
    }

    #[test]
    fn tcp_syn_is_a_syn() {
        let frame = PacketBuilder::tcp_syn(A_MAC, B_MAC, A_IP, B_IP, 5000, 80);
        let (_, l3) = EthernetHeader::parse(&frame).unwrap();
        let (ip, l4) = Ipv4Header::parse(l3).unwrap();
        let (seg, _) = TcpHeader::parse(l4, ip.src, ip.dst).unwrap();
        assert_eq!(seg.flags, flags::SYN);
    }

    #[test]
    fn arp_reply_answers_request() {
        let req = PacketBuilder::arp_request(A_MAC, A_IP, B_IP);
        let rep = PacketBuilder::arp_reply(&req, B_MAC).unwrap();
        let (eth, payload) = EthernetHeader::parse(&rep).unwrap();
        assert_eq!(eth.dst, A_MAC); // unicast back to the asker
        let arp = ArpPacket::decode(payload).unwrap();
        assert_eq!(arp.sender_mac, B_MAC);
        assert_eq!(arp.sender_ip, B_IP);
    }

    #[test]
    fn sized_frames_are_exact() {
        for len in [64usize, 128, 512, 1500] {
            let f = PacketBuilder::udp_with_len(A_MAC, B_MAC, A_IP, B_IP, 1, 2, len);
            assert_eq!(f.len(), len);
            // And still fully parseable:
            let (_, l3) = EthernetHeader::parse(&f).unwrap();
            let (ip, l4) = Ipv4Header::parse(l3).unwrap();
            UdpHeader::parse(l4, ip.src, ip.dst).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn sized_frame_below_minimum_panics() {
        PacketBuilder::udp_with_len(A_MAC, B_MAC, A_IP, B_IP, 1, 2, 30);
    }
}
