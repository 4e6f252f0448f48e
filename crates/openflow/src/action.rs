//! OpenFlow 1.0 actions and their application to frames.

use bytes::Bytes;
use escape_packet::{Headers, MacAddr, Packet};
use std::net::Ipv4Addr;

/// The OF 1.0 action subset ESCAPE uses. `Output` names a physical port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Output { port: u16, max_len: u16 },
    SetDlSrc(MacAddr),
    SetDlDst(MacAddr),
    SetNwSrc(Ipv4Addr),
    SetNwDst(Ipv4Addr),
    SetNwTos(u8),
    SetTpSrc(u16),
    SetTpDst(u16),
}

impl Action {
    /// Shorthand for a plain output action.
    pub fn out(port: u16) -> Action {
        Action::Output {
            port,
            max_len: 0xffff,
        }
    }

    /// Wire type code (`ofp_action_type`).
    fn type_code(&self) -> u16 {
        match self {
            Action::Output { .. } => 0,
            Action::SetDlSrc(_) => 4,
            Action::SetDlDst(_) => 5,
            Action::SetNwSrc(_) => 6,
            Action::SetNwDst(_) => 7,
            Action::SetNwTos(_) => 8,
            Action::SetTpSrc(_) => 9,
            Action::SetTpDst(_) => 10,
        }
    }

    /// Serializes one action TLV.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&self.type_code().to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes()); // length placeholder
        match *self {
            Action::Output { port, max_len } => {
                buf.extend_from_slice(&port.to_be_bytes());
                buf.extend_from_slice(&max_len.to_be_bytes());
            }
            Action::SetDlSrc(m) | Action::SetDlDst(m) => {
                buf.extend_from_slice(&m.0);
                buf.extend_from_slice(&[0u8; 6]); // pad to 16
            }
            Action::SetNwSrc(a) | Action::SetNwDst(a) => {
                buf.extend_from_slice(&a.octets());
            }
            Action::SetNwTos(t) => {
                buf.push(t);
                buf.extend_from_slice(&[0u8; 3]);
            }
            Action::SetTpSrc(p) | Action::SetTpDst(p) => {
                buf.extend_from_slice(&p.to_be_bytes());
                buf.extend_from_slice(&[0u8; 2]);
            }
        }
        let len = (buf.len() - start) as u16;
        buf[start + 2..start + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// Parses one action TLV, returning the action and bytes consumed.
    pub fn decode(b: &[u8]) -> Option<(Action, usize)> {
        if b.len() < 4 {
            return None;
        }
        let ty = u16::from_be_bytes([b[0], b[1]]);
        let len = u16::from_be_bytes([b[2], b[3]]) as usize;
        if len < 4 || !len.is_multiple_of(8) || b.len() < len {
            return None;
        }
        let body = &b[4..len];
        let mac = || {
            let mut m = [0u8; 6];
            m.copy_from_slice(&body[0..6]);
            MacAddr(m)
        };
        let a = match ty {
            0 if body.len() >= 4 => Action::Output {
                port: u16::from_be_bytes([body[0], body[1]]),
                max_len: u16::from_be_bytes([body[2], body[3]]),
            },
            4 if body.len() >= 6 => Action::SetDlSrc(mac()),
            5 if body.len() >= 6 => Action::SetDlDst(mac()),
            6 if body.len() >= 4 => {
                Action::SetNwSrc(Ipv4Addr::new(body[0], body[1], body[2], body[3]))
            }
            7 if body.len() >= 4 => {
                Action::SetNwDst(Ipv4Addr::new(body[0], body[1], body[2], body[3]))
            }
            8 if !body.is_empty() => Action::SetNwTos(body[0]),
            9 if body.len() >= 2 => Action::SetTpSrc(u16::from_be_bytes([body[0], body[1]])),
            10 if body.len() >= 2 => Action::SetTpDst(u16::from_be_bytes([body[0], body[1]])),
            _ => return None,
        };
        Some((a, len))
    }

    /// Serializes a list of actions.
    pub fn encode_list(actions: &[Action], buf: &mut Vec<u8>) {
        for a in actions {
            a.encode(buf);
        }
    }

    /// Parses `len` bytes of action TLVs.
    pub fn decode_list(mut b: &[u8]) -> Option<Vec<Action>> {
        let mut v = Vec::new();
        while !b.is_empty() {
            let (a, used) = Action::decode(b)?;
            v.push(a);
            b = &b[used..];
        }
        Some(v)
    }
}

/// Runs `actions` on `pkt` in order, as OpenFlow 1.0 does: set-field
/// actions edit the headers, and each `Output` hands `out` its port and
/// the packet as edited so far. The edits before an `Output` are written
/// once, through [`escape_packet::rewrite()`] into `scratch`; an `Output`
/// with no edit before it hands on `pkt` itself.
pub fn apply(
    actions: &[Action],
    pkt: &Packet,
    scratch: &mut Vec<u8>,
    mut out: impl FnMut(u16, &Packet),
) {
    let mut edited: Option<Packet> = None;
    // The first set-field action not yet written into `edited`.
    let mut pending = 0;
    for (i, a) in actions.iter().enumerate() {
        if let Action::Output { port, .. } = *a {
            let edits = &actions[pending..i];
            let current = edited.as_ref().unwrap_or(pkt);
            let edit = |h: &mut Headers| edits.iter().for_each(|a| a.set_field(h));
            if !edits.is_empty() && escape_packet::rewrite(&current.data, scratch, edit).is_ok() {
                let data = Bytes::copy_from_slice(scratch);
                edited = Some(Packet { data, ..*current });
            }
            pending = i + 1;
            out(port, edited.as_ref().unwrap_or(pkt));
        }
    }
}

impl Action {
    /// Applies a set-field action to `h`; a field whose layer the frame
    /// lacks is left alone, and `Output` edits nothing.
    fn set_field(&self, h: &mut Headers) {
        match *self {
            Action::Output { .. } => {}
            Action::SetDlSrc(m) => h.eth.src = m,
            Action::SetDlDst(m) => h.eth.dst = m,
            Action::SetNwSrc(ip) => h.ip_mut().into_iter().for_each(|p| p.src = ip),
            Action::SetNwDst(ip) => h.ip_mut().into_iter().for_each(|p| p.dst = ip),
            Action::SetNwTos(tos) => h.ip_mut().into_iter().for_each(|p| p.dscp = tos >> 2),
            Action::SetTpSrc(tp) => h.ports_mut().into_iter().for_each(|(s, _)| *s = tp),
            Action::SetTpDst(tp) => h.ports_mut().into_iter().for_each(|(_, d)| *d = tp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_packet::{EtherType, EthernetHeader, Ipv4Header, PacketBuilder, UdpHeader};

    fn frame() -> Bytes {
        PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            Bytes::from_static(b"act"),
        )
    }

    #[test]
    fn tlv_roundtrip_all_kinds() {
        let actions = vec![
            Action::out(3),
            Action::Output {
                port: 7,
                max_len: 128,
            },
            Action::SetDlSrc(MacAddr::from_id(9)),
            Action::SetDlDst(MacAddr::from_id(10)),
            Action::SetNwSrc(Ipv4Addr::new(1, 2, 3, 4)),
            Action::SetNwDst(Ipv4Addr::new(5, 6, 7, 8)),
            Action::SetNwTos(0xb8),
            Action::SetTpSrc(1111),
            Action::SetTpDst(2222),
        ];
        let mut buf = Vec::new();
        Action::encode_list(&actions, &mut buf);
        assert_eq!(buf.len() % 8, 0, "actions are 8-byte aligned");
        let back = Action::decode_list(&buf).unwrap();
        assert_eq!(actions, back);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Action::decode(&[0, 0, 0, 3]).is_none()); // len < 4
        assert!(Action::decode(&[0, 99, 0, 8, 0, 0, 0, 0]).is_none()); // unknown type
        assert!(Action::decode_list(&[0, 0, 0, 16, 0, 0]).is_none()); // truncated
    }

    /// The (port, frame) pairs `apply` hands on.
    fn run(actions: &[Action], frame: &Bytes) -> Vec<(u16, Bytes)> {
        let mut sent = Vec::new();
        let pkt = Packet::from_bytes(frame.clone());
        apply(actions, &pkt, &mut Vec::new(), |p, out| {
            sent.push((p, out.data.clone()))
        });
        sent
    }

    #[test]
    fn apply_rewrites_and_collects_outputs() {
        let acts = [
            Action::SetDlDst(MacAddr::from_id(42)),
            Action::SetNwDst(Ipv4Addr::new(192, 168, 9, 9)),
            Action::SetTpDst(53),
            Action::out(7),
            Action::out(9),
        ];
        let sent = run(&acts, &frame());
        let ports: Vec<u16> = sent.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![7, 9]);
        assert_eq!(sent[0].1, sent[1].1);
        let (eth, l3) = EthernetHeader::parse(&sent[0].1).unwrap();
        assert_eq!(eth.dst, MacAddr::from_id(42));
        let (ip, l4) = Ipv4Header::parse(l3).unwrap(); // checksum ok
        assert_eq!(ip.dst, Ipv4Addr::new(192, 168, 9, 9));
        let (udp, payload) = UdpHeader::parse(l4, ip.src, ip.dst).unwrap(); // checksum ok
        assert_eq!(udp.dst_port, 53);
        assert_eq!(payload, b"act");
    }

    #[test]
    fn outputs_see_only_the_edits_before_them() {
        let f = frame();
        let acts = [
            Action::out(1),
            Action::SetDlDst(MacAddr::from_id(42)),
            Action::out(2),
            Action::SetDlSrc(MacAddr::from_id(43)),
        ];
        let sent = run(&acts, &f);
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0], (1, f.clone()));
        let (eth, _) = EthernetHeader::parse(&sent[1].1).unwrap();
        assert_eq!(
            (eth.dst, eth.src),
            (MacAddr::from_id(42), MacAddr::from_id(1))
        );
    }

    #[test]
    fn tos_rewrite_sets_dscp() {
        let sent = run(&[Action::SetNwTos(46 << 2), Action::out(1)], &frame());
        let (_, l3) = EthernetHeader::parse(&sent[0].1).unwrap();
        let (ip, _) = Ipv4Header::parse(l3).unwrap();
        assert_eq!(ip.dscp, 46);
    }

    #[test]
    fn rewrites_on_non_ip_are_noops() {
        let arp = PacketBuilder::ethernet(
            MacAddr::from_id(1),
            MacAddr::BROADCAST,
            EtherType::Arp,
            |b| b.extend_from_slice(&[0; 28]),
        );
        let sent = run(
            &[Action::SetNwDst(Ipv4Addr::new(9, 9, 9, 9)), Action::out(1)],
            &arp,
        );
        assert_eq!(sent, vec![(1, arp.clone())]);
        let (eth, _) = EthernetHeader::parse(&sent[0].1).unwrap();
        assert_eq!(eth.ethertype, EtherType::Arp);
    }
}
