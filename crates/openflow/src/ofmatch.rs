//! The OpenFlow 1.0 match structure (`ofp_match`).

use escape_packet::{FlowKey, MacAddr};
use std::net::Ipv4Addr;

/// Wildcard bit positions from OpenFlow 1.0 (`ofp_flow_wildcards`).
mod wc {
    pub const IN_PORT: u32 = 1 << 0;
    pub const DL_VLAN: u32 = 1 << 1;
    pub const DL_SRC: u32 = 1 << 2;
    pub const DL_DST: u32 = 1 << 3;
    pub const DL_TYPE: u32 = 1 << 4;
    pub const NW_PROTO: u32 = 1 << 5;
    pub const TP_SRC: u32 = 1 << 6;
    pub const TP_DST: u32 = 1 << 7;
    pub const NW_SRC_SHIFT: u32 = 8;
    pub const NW_DST_SHIFT: u32 = 14;
    pub const DL_VLAN_PCP: u32 = 1 << 20;
    pub const NW_TOS: u32 = 1 << 21;
    /// All fields wildcarded.
    #[allow(dead_code)]
    pub const ALL: u32 = (1 << 22) - 1;
}

/// A flow match: `None` fields are wildcarded. `nw_src`/`nw_dst` carry a
/// prefix length (32 = exact host) per OF 1.0's CIDR wildcard encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Match {
    pub in_port: Option<u16>,
    pub dl_src: Option<MacAddr>,
    pub dl_dst: Option<MacAddr>,
    pub dl_vlan: Option<u16>,
    pub dl_type: Option<u16>,
    pub nw_tos: Option<u8>,
    pub nw_proto: Option<u8>,
    pub nw_src: Option<(Ipv4Addr, u8)>,
    pub nw_dst: Option<(Ipv4Addr, u8)>,
    pub tp_src: Option<u16>,
    pub tp_dst: Option<u16>,
    /// Hash-bucket replica steering: `Some((nbuckets, bucket))` accepts a
    /// frame only when `FlowKey::steering_hash() % nbuckets == bucket`.
    /// This is the anycast-style load spreading of Wion et al. — one rule
    /// per replica fans a logical next-hop out across N instances while
    /// keeping each flow pinned to exactly one of them. Carried on the
    /// wire in the two `ofp_match` pad bytes after `nw_proto` (nbuckets
    /// then bucket; 0 = no bucketing), which OF 1.0 requires to be zero —
    /// a private extension that stays wire-compatible with plain matches.
    pub bucket: Option<(u8, u8)>,
}

impl Match {
    /// The match-everything wildcard.
    pub fn any() -> Match {
        Match::default()
    }

    /// An exact match on every field OpenFlow 1.0 knows, taken from a
    /// frame's flow key and ingress port — what a reactive L2/L3
    /// controller installs per flow.
    pub fn exact_from_key(key: &FlowKey, in_port: u16) -> Match {
        Match {
            in_port: Some(in_port),
            dl_src: Some(key.eth_src),
            dl_dst: Some(key.eth_dst),
            dl_vlan: key.vlan_id,
            dl_type: Some(key.eth_type),
            nw_tos: key.ip_dscp.map(|d| d << 2),
            nw_proto: key.ip_proto,
            nw_src: key.ip_src.map(|a| (a, 32)),
            nw_dst: key.ip_dst.map(|a| (a, 32)),
            tp_src: key.tp_src,
            tp_dst: key.tp_dst,
            bucket: None,
        }
    }

    /// True if this match accepts the frame described by `key` arriving on
    /// `in_port`.
    pub fn matches(&self, key: &FlowKey, in_port: u16) -> bool {
        fn net_match(want: Option<(Ipv4Addr, u8)>, got: Option<Ipv4Addr>) -> bool {
            match want {
                None => true,
                Some((net, len)) => got.is_some_and(|ip| {
                    let mask = if len == 0 {
                        0
                    } else {
                        u32::MAX << (32 - len.min(32) as u32)
                    };
                    u32::from(ip) & mask == u32::from(net) & mask
                }),
            }
        }
        self.in_port.is_none_or(|p| p == in_port)
            && self.dl_src.is_none_or(|m| m == key.eth_src)
            && self.dl_dst.is_none_or(|m| m == key.eth_dst)
            && self.dl_vlan.is_none_or(|v| Some(v) == key.vlan_id)
            && self.dl_type.is_none_or(|t| t == key.eth_type)
            && self
                .nw_tos
                .is_none_or(|t| key.ip_dscp.map(|d| d << 2) == Some(t))
            && self.nw_proto.is_none_or(|p| key.ip_proto == Some(p))
            && net_match(self.nw_src, key.ip_src)
            && net_match(self.nw_dst, key.ip_dst)
            && self.tp_src.is_none_or(|p| key.tp_src == Some(p))
            && self.tp_dst.is_none_or(|p| key.tp_dst == Some(p))
            && self
                .bucket
                .is_none_or(|(n, b)| n > 0 && key.steering_hash() % n as u64 == b as u64)
    }

    /// True when this match is at least as specific as `other` (every
    /// packet this matches, `other` also matches). Used for `OFPFC_MODIFY`
    /// / `OFPFC_DELETE` non-strict semantics.
    pub fn is_subset_of(&self, other: &Match) -> bool {
        fn field_ok<T: PartialEq + Copy>(mine: Option<T>, theirs: Option<T>) -> bool {
            match (mine, theirs) {
                (_, None) => true,
                (Some(a), Some(b)) => a == b,
                (None, Some(_)) => false,
            }
        }
        fn net_ok(mine: Option<(Ipv4Addr, u8)>, theirs: Option<(Ipv4Addr, u8)>) -> bool {
            match (mine, theirs) {
                (_, None) => true,
                (None, Some(_)) => false,
                (Some((a, la)), Some((b, lb))) => {
                    if la < lb {
                        return false;
                    }
                    let mask = if lb == 0 {
                        0
                    } else {
                        u32::MAX << (32 - lb.min(32) as u32)
                    };
                    u32::from(a) & mask == u32::from(b) & mask
                }
            }
        }
        field_ok(self.in_port, other.in_port)
            && field_ok(self.dl_src, other.dl_src)
            && field_ok(self.dl_dst, other.dl_dst)
            && field_ok(self.dl_vlan, other.dl_vlan)
            && field_ok(self.dl_type, other.dl_type)
            && field_ok(self.nw_tos, other.nw_tos)
            && field_ok(self.nw_proto, other.nw_proto)
            && net_ok(self.nw_src, other.nw_src)
            && net_ok(self.nw_dst, other.nw_dst)
            && field_ok(self.tp_src, other.tp_src)
            && field_ok(self.tp_dst, other.tp_dst)
            && field_ok(self.bucket, other.bucket)
    }

    /// Serializes to the 40-byte `ofp_match` wire layout.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let mut wildcards = 0u32;
        let mut set = |bit: u32, absent: bool| {
            if absent {
                wildcards |= bit;
            }
        };
        set(wc::IN_PORT, self.in_port.is_none());
        set(wc::DL_VLAN, self.dl_vlan.is_none());
        set(wc::DL_SRC, self.dl_src.is_none());
        set(wc::DL_DST, self.dl_dst.is_none());
        set(wc::DL_TYPE, self.dl_type.is_none());
        set(wc::NW_PROTO, self.nw_proto.is_none());
        set(wc::TP_SRC, self.tp_src.is_none());
        set(wc::TP_DST, self.tp_dst.is_none());
        set(wc::DL_VLAN_PCP, true); // PCP not modelled: always wild
        set(wc::NW_TOS, self.nw_tos.is_none());
        let src_wild = 32 - self.nw_src.map_or(0, |(_, l)| l.min(32)) as u32;
        let dst_wild = 32 - self.nw_dst.map_or(0, |(_, l)| l.min(32)) as u32;
        wildcards |= src_wild << wc::NW_SRC_SHIFT;
        wildcards |= dst_wild << wc::NW_DST_SHIFT;

        buf.extend_from_slice(&wildcards.to_be_bytes());
        buf.extend_from_slice(&self.in_port.unwrap_or(0).to_be_bytes());
        buf.extend_from_slice(&self.dl_src.unwrap_or(MacAddr::ZERO).0);
        buf.extend_from_slice(&self.dl_dst.unwrap_or(MacAddr::ZERO).0);
        buf.extend_from_slice(&self.dl_vlan.unwrap_or(0xffff).to_be_bytes());
        buf.push(0); // dl_vlan_pcp
        buf.push(0); // pad
        buf.extend_from_slice(&self.dl_type.unwrap_or(0).to_be_bytes());
        buf.push(self.nw_tos.unwrap_or(0));
        buf.push(self.nw_proto.unwrap_or(0));
        // OF 1.0 pad bytes, reused for the bucket extension (0 = none).
        let (nbuckets, bucket) = self.bucket.unwrap_or((0, 0));
        buf.extend_from_slice(&[nbuckets, bucket]);
        buf.extend_from_slice(&self.nw_src.map_or([0; 4], |(a, _)| a.octets()));
        buf.extend_from_slice(&self.nw_dst.map_or([0; 4], |(a, _)| a.octets()));
        buf.extend_from_slice(&self.tp_src.unwrap_or(0).to_be_bytes());
        buf.extend_from_slice(&self.tp_dst.unwrap_or(0).to_be_bytes());
    }

    /// Parses the 40-byte `ofp_match` wire layout.
    pub fn decode(b: &[u8]) -> Option<(Match, usize)> {
        if b.len() < 40 {
            return None;
        }
        let wildcards = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        let get = |bit: u32| wildcards & bit == 0;
        let mac = |o: usize| {
            let mut m = [0u8; 6];
            m.copy_from_slice(&b[o..o + 6]);
            MacAddr(m)
        };
        let src_wild = ((wildcards >> wc::NW_SRC_SHIFT) & 0x3f).min(32) as u8;
        let dst_wild = ((wildcards >> wc::NW_DST_SHIFT) & 0x3f).min(32) as u8;
        let m = Match {
            in_port: get(wc::IN_PORT).then(|| u16::from_be_bytes([b[4], b[5]])),
            dl_src: get(wc::DL_SRC).then(|| mac(6)),
            dl_dst: get(wc::DL_DST).then(|| mac(12)),
            dl_vlan: get(wc::DL_VLAN).then(|| u16::from_be_bytes([b[18], b[19]])),
            dl_type: get(wc::DL_TYPE).then(|| u16::from_be_bytes([b[22], b[23]])),
            nw_tos: get(wc::NW_TOS).then(|| b[24]),
            nw_proto: get(wc::NW_PROTO).then(|| b[25]),
            nw_src: (src_wild < 32)
                .then(|| (Ipv4Addr::new(b[28], b[29], b[30], b[31]), 32 - src_wild)),
            nw_dst: (dst_wild < 32)
                .then(|| (Ipv4Addr::new(b[32], b[33], b[34], b[35]), 32 - dst_wild)),
            tp_src: get(wc::TP_SRC).then(|| u16::from_be_bytes([b[36], b[37]])),
            tp_dst: get(wc::TP_DST).then(|| u16::from_be_bytes([b[38], b[39]])),
            bucket: (b[26] != 0).then(|| (b[26], b[27])),
        };
        Some((m, 40))
    }

    /// Count of specified (non-wildcard) fields — a crude specificity
    /// metric used by tests and diagnostics.
    pub fn specificity(&self) -> u32 {
        let opt = |b: bool| b as u32;
        opt(self.in_port.is_some())
            + opt(self.dl_src.is_some())
            + opt(self.dl_dst.is_some())
            + opt(self.dl_vlan.is_some())
            + opt(self.dl_type.is_some())
            + opt(self.nw_tos.is_some())
            + opt(self.nw_proto.is_some())
            + self.nw_src.map_or(0, |(_, l)| l as u32)
            + self.nw_dst.map_or(0, |(_, l)| l as u32)
            + opt(self.tp_src.is_some())
            + opt(self.tp_dst.is_some())
            + opt(self.bucket.is_some())
    }
}

/// Builder-style helpers for constructing matches fluently.
impl Match {
    pub fn with_in_port(mut self, p: u16) -> Self {
        self.in_port = Some(p);
        self
    }
    pub fn with_dl_type(mut self, t: u16) -> Self {
        self.dl_type = Some(t);
        self
    }
    pub fn with_nw_proto(mut self, p: u8) -> Self {
        self.nw_proto = Some(p);
        // nw fields require dl_type ip
        if self.dl_type.is_none() {
            self.dl_type = Some(0x0800);
        }
        self
    }
    pub fn with_nw_src(mut self, a: Ipv4Addr, len: u8) -> Self {
        self.nw_src = Some((a, len));
        if self.dl_type.is_none() {
            self.dl_type = Some(0x0800);
        }
        self
    }
    pub fn with_nw_dst(mut self, a: Ipv4Addr, len: u8) -> Self {
        self.nw_dst = Some((a, len));
        if self.dl_type.is_none() {
            self.dl_type = Some(0x0800);
        }
        self
    }
    pub fn with_tp_dst(mut self, p: u16) -> Self {
        self.tp_dst = Some(p);
        self
    }
    /// Restricts the match to flows whose steering hash lands in `bucket`
    /// of `nbuckets`. `nbuckets` must be nonzero and `bucket < nbuckets`.
    pub fn with_bucket(mut self, nbuckets: u8, bucket: u8) -> Self {
        assert!(nbuckets > 0 && bucket < nbuckets, "invalid bucket spec");
        self.bucket = Some((nbuckets, bucket));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use escape_packet::PacketBuilder;

    fn key(dport: u16) -> FlowKey {
        let f = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(10, 4, 5, 6),
            1000,
            dport,
            Bytes::from_static(b"m"),
        );
        FlowKey::extract(&f).unwrap()
    }

    #[test]
    fn any_matches_everything() {
        assert!(Match::any().matches(&key(80), 3));
    }

    #[test]
    fn exact_match_binds_all_fields() {
        let k = key(80);
        let m = Match::exact_from_key(&k, 3);
        assert!(m.matches(&k, 3));
        assert!(!m.matches(&k, 4)); // wrong port
        assert!(!m.matches(&key(81), 3)); // wrong tp_dst
    }

    #[test]
    fn cidr_prefixes() {
        let m = Match::any().with_nw_dst(Ipv4Addr::new(10, 4, 0, 0), 16);
        assert!(m.matches(&key(80), 0));
        let m = Match::any().with_nw_dst(Ipv4Addr::new(10, 5, 0, 0), 16);
        assert!(!m.matches(&key(80), 0));
        let m = Match::any().with_nw_dst(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(m.matches(&key(80), 0));
    }

    #[test]
    fn wire_roundtrip_various() {
        let cases = [
            Match::any(),
            Match::exact_from_key(&key(443), 7),
            Match::any().with_dl_type(0x0806),
            Match::any()
                .with_nw_src(Ipv4Addr::new(192, 168, 0, 0), 24)
                .with_tp_dst(53),
            Match::any().with_in_port(65_000).with_nw_proto(6),
            Match::any().with_dl_type(0x0800).with_bucket(4, 3),
            Match::exact_from_key(&key(443), 7).with_bucket(2, 0),
        ];
        for m in cases {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            assert_eq!(buf.len(), 40);
            let (m2, used) = Match::decode(&buf).unwrap();
            assert_eq!(used, 40);
            assert_eq!(m, m2);
        }
    }

    #[test]
    fn subset_semantics() {
        let k = key(80);
        let exact = Match::exact_from_key(&k, 1);
        let broad = Match::any().with_dl_type(0x0800);
        assert!(exact.is_subset_of(&broad));
        assert!(!broad.is_subset_of(&exact));
        assert!(exact.is_subset_of(&Match::any()));
        assert!(broad.is_subset_of(&broad));
        // Prefix containment.
        let narrow = Match::any().with_nw_dst(Ipv4Addr::new(10, 4, 5, 0), 24);
        let wide = Match::any().with_nw_dst(Ipv4Addr::new(10, 4, 0, 0), 16);
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
    }

    #[test]
    fn specificity_orders_matches() {
        let k = key(80);
        assert!(
            Match::exact_from_key(&k, 1).specificity()
                > Match::any().with_dl_type(0x0800).specificity()
        );
        assert_eq!(Match::any().specificity(), 0);
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(Match::decode(&[0u8; 39]).is_none());
    }

    #[test]
    fn buckets_partition_flows_exactly() {
        // Every flow matches exactly one of the n bucket rules, and the
        // union over buckets accepts everything the unbucketed rule does.
        for n in [1u8, 2, 4, 8] {
            for dport in 0..64u16 {
                let k = key(dport);
                let hits = (0..n)
                    .filter(|&b| Match::any().with_bucket(n, b).matches(&k, 0))
                    .count();
                assert_eq!(hits, 1, "nbuckets={n} dport={dport}");
                assert!(Match::any()
                    .with_bucket(n, (k.steering_hash() % n as u64) as u8)
                    .matches(&k, 0));
            }
        }
    }

    #[test]
    fn bucket_subset_semantics() {
        let bucketed = Match::any().with_dl_type(0x0800).with_bucket(2, 1);
        let plain = Match::any().with_dl_type(0x0800);
        assert!(bucketed.is_subset_of(&plain));
        assert!(!plain.is_subset_of(&bucketed));
        assert!(bucketed.is_subset_of(&bucketed));
        assert!(!bucketed.is_subset_of(&Match::any().with_dl_type(0x0800).with_bucket(2, 0)));
    }

    #[test]
    #[should_panic(expected = "invalid bucket spec")]
    fn bucket_out_of_range_panics() {
        let _ = Match::any().with_bucket(2, 2);
    }
}
