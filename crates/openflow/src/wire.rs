//! OpenFlow 1.0 message framing: real binary wire layout.
//!
//! Every message starts with the 8-byte `ofp_header`:
//! `version(1)=0x01, type(1), length(2), xid(4)`.

use crate::action::Action;
use crate::ofmatch::Match;
use bytes::Bytes;
use escape_packet::MacAddr;

/// OpenFlow protocol version implemented.
pub const OFP_VERSION: u8 = 0x01;
/// ofp_header length.
pub const HEADER_LEN: usize = 8;

/// Wire decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    Truncated,
    BadVersion(u8),
    /// A message type outside the subset, packet-out's 13 included.
    UnknownType(u8),
    Malformed(&'static str),
    /// A well-formed action other than `Output`, by its type code.
    BadAction(u16),
    /// A flow-mod command other than add, delete and delete-strict.
    BadCommand(u16),
    /// A flow-mod with a timeout or a flag: every entry is permanent.
    TimeoutsOrFlags,
}

impl WireError {
    /// The OpenFlow 1.0 `(type, code)` an `OFPT_ERROR` reply carries for
    /// this error.
    pub fn error_code(&self) -> (u16, u16) {
        match self {
            // OFPET_BAD_REQUEST: OFPBRC_BAD_VERSION, _BAD_TYPE, _BAD_LEN.
            WireError::BadVersion(_) => (1, 0),
            WireError::UnknownType(_) => (1, 1),
            WireError::Truncated | WireError::Malformed(_) => (1, 6),
            // OFPET_BAD_ACTION: OFPBAC_BAD_TYPE.
            WireError::BadAction(_) => (2, 0),
            // OFPET_FLOW_MOD_FAILED: OFPFMFC_BAD_COMMAND, _UNSUPPORTED.
            WireError::BadCommand(_) => (3, 4),
            WireError::TimeoutsOrFlags => (3, 5),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated OpenFlow message"),
            WireError::BadVersion(v) => write!(f, "unsupported OpenFlow version {v:#x}"),
            WireError::UnknownType(t) => write!(f, "unknown OpenFlow message type {t}"),
            WireError::Malformed(w) => write!(f, "malformed OpenFlow message: {w}"),
            WireError::BadAction(t) => write!(f, "unsupported OpenFlow action type {t}"),
            WireError::BadCommand(c) => write!(f, "unsupported flow-mod command {c}"),
            WireError::TimeoutsOrFlags => write!(f, "flow-mod with timeouts or flags"),
        }
    }
}

impl std::error::Error for WireError {}

/// The `ofp_flow_mod` commands steering sends. The two modify
/// commands (1 and 2) do not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModCommand {
    Add,
    Delete,
    DeleteStrict,
}

impl FlowModCommand {
    fn to_u16(self) -> u16 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Delete => 3,
            FlowModCommand::DeleteStrict => 4,
        }
    }

    fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            0 => FlowModCommand::Add,
            3 => FlowModCommand::Delete,
            4 => FlowModCommand::DeleteStrict,
            _ => return None,
        })
    }
}

/// A physical port description inside FeaturesReply (trimmed
/// `ofp_phy_port`: number, MAC, name; config/state/features zeroed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDesc {
    pub port_no: u16,
    pub hw_addr: MacAddr,
    pub name: String,
}

/// The OpenFlow 1.0 messages ESCAPE's control loop uses. Every flow
/// entry is permanent: a flow-mod carries no timeouts and no flags, and
/// one whose wire form has any does not decode.
#[derive(Debug, Clone, PartialEq)]
pub enum OfMessage {
    Hello,
    Error {
        err_type: u16,
        code: u16,
        data: Vec<u8>,
    },
    FeaturesRequest,
    FeaturesReply {
        datapath_id: u64,
        n_buffers: u32,
        n_tables: u8,
        ports: Vec<PortDesc>,
    },
    /// A table miss (`OFPR_NO_MATCH`, the only reason a switch punts).
    PacketIn {
        buffer_id: u32,
        total_len: u16,
        in_port: u16,
        data: Bytes,
    },
    FlowMod {
        match_: Match,
        cookie: u64,
        command: FlowModCommand,
        priority: u16,
        buffer_id: u32,
        out_port: u16,
        actions: Vec<Action>,
    },
    BarrierRequest,
    BarrierReply,
}

/// `ofp_type` codes.
mod ty {
    pub const HELLO: u8 = 0;
    pub const ERROR: u8 = 1;
    pub const FEATURES_REQUEST: u8 = 5;
    pub const FEATURES_REPLY: u8 = 6;
    pub const PACKET_IN: u8 = 10;
    pub const FLOW_MOD: u8 = 14;
    pub const BARRIER_REQUEST: u8 = 18;
    pub const BARRIER_REPLY: u8 = 19;
}

impl OfMessage {
    fn type_code(&self) -> u8 {
        match self {
            OfMessage::Hello => ty::HELLO,
            OfMessage::Error { .. } => ty::ERROR,
            OfMessage::FeaturesRequest => ty::FEATURES_REQUEST,
            OfMessage::FeaturesReply { .. } => ty::FEATURES_REPLY,
            OfMessage::PacketIn { .. } => ty::PACKET_IN,
            OfMessage::FlowMod { .. } => ty::FLOW_MOD,
            OfMessage::BarrierRequest => ty::BARRIER_REQUEST,
            OfMessage::BarrierReply => ty::BARRIER_REPLY,
        }
    }

    /// Serializes the message with the given transaction id.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        b.push(OFP_VERSION);
        b.push(self.type_code());
        b.extend_from_slice(&[0, 0]); // length placeholder
        b.extend_from_slice(&xid.to_be_bytes());
        match self {
            OfMessage::Hello
            | OfMessage::FeaturesRequest
            | OfMessage::BarrierRequest
            | OfMessage::BarrierReply => {}
            OfMessage::Error {
                err_type,
                code,
                data,
            } => {
                b.extend_from_slice(&err_type.to_be_bytes());
                b.extend_from_slice(&code.to_be_bytes());
                b.extend_from_slice(data);
            }
            OfMessage::FeaturesReply {
                datapath_id,
                n_buffers,
                n_tables,
                ports,
            } => {
                b.extend_from_slice(&datapath_id.to_be_bytes());
                b.extend_from_slice(&n_buffers.to_be_bytes());
                b.push(*n_tables);
                b.extend_from_slice(&[0u8; 3]); // pad
                b.extend_from_slice(&0u32.to_be_bytes()); // capabilities
                b.extend_from_slice(&0u32.to_be_bytes()); // actions
                for p in ports {
                    b.extend_from_slice(&p.port_no.to_be_bytes());
                    b.extend_from_slice(&p.hw_addr.0);
                    let mut name = [0u8; 16];
                    let n = p.name.as_bytes();
                    name[..n.len().min(15)].copy_from_slice(&n[..n.len().min(15)]);
                    b.extend_from_slice(&name);
                    b.extend_from_slice(&[0u8; 24]); // config..peer features
                }
            }
            OfMessage::PacketIn {
                buffer_id,
                total_len,
                in_port,
                data,
            } => {
                b.extend_from_slice(&buffer_id.to_be_bytes());
                b.extend_from_slice(&total_len.to_be_bytes());
                b.extend_from_slice(&in_port.to_be_bytes());
                b.extend_from_slice(&[0, 0]); // reason OFPR_NO_MATCH, pad
                b.extend_from_slice(data);
            }
            OfMessage::FlowMod {
                match_,
                cookie,
                command,
                priority,
                buffer_id,
                out_port,
                actions,
            } => {
                match_.encode(&mut b);
                b.extend_from_slice(&cookie.to_be_bytes());
                b.extend_from_slice(&command.to_u16().to_be_bytes());
                b.extend_from_slice(&[0u8; 4]); // idle and hard timeout
                b.extend_from_slice(&priority.to_be_bytes());
                b.extend_from_slice(&buffer_id.to_be_bytes());
                b.extend_from_slice(&out_port.to_be_bytes());
                b.extend_from_slice(&[0u8; 2]); // flags
                Action::encode_list(actions, &mut b);
            }
        }
        let len = b.len() as u16;
        b[2..4].copy_from_slice(&len.to_be_bytes());
        b
    }

    /// Parses one message, returning it and its xid.
    pub fn decode(b: &[u8]) -> Result<(OfMessage, u32), WireError> {
        if b.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if b[0] != OFP_VERSION {
            return Err(WireError::BadVersion(b[0]));
        }
        let msg_ty = b[1];
        let length = u16::from_be_bytes([b[2], b[3]]) as usize;
        if length < HEADER_LEN || b.len() < length {
            return Err(WireError::Truncated);
        }
        let xid = u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
        let body = &b[HEADER_LEN..length];
        let u16at = |o: usize| u16::from_be_bytes([body[o], body[o + 1]]);
        let u32at = |o: usize| u32::from_be_bytes([body[o], body[o + 1], body[o + 2], body[o + 3]]);
        let u64at = |o: usize| {
            let mut x = [0u8; 8];
            x.copy_from_slice(&body[o..o + 8]);
            u64::from_be_bytes(x)
        };
        let msg = match msg_ty {
            ty::HELLO => OfMessage::Hello,
            ty::ERROR => {
                if body.len() < 4 {
                    return Err(WireError::Malformed("error too short"));
                }
                OfMessage::Error {
                    err_type: u16at(0),
                    code: u16at(2),
                    data: body[4..].to_vec(),
                }
            }
            ty::FEATURES_REQUEST => OfMessage::FeaturesRequest,
            ty::FEATURES_REPLY => {
                if body.len() < 24 {
                    return Err(WireError::Malformed("features reply too short"));
                }
                let mut ports = Vec::new();
                let mut off = 24;
                while off + 48 <= body.len() {
                    let port_no = u16at(off);
                    let mut mac = [0u8; 6];
                    mac.copy_from_slice(&body[off + 2..off + 8]);
                    let raw = &body[off + 8..off + 24];
                    let name = raw
                        .iter()
                        .take_while(|&&c| c != 0)
                        .map(|&c| c as char)
                        .collect::<String>();
                    ports.push(PortDesc {
                        port_no,
                        hw_addr: MacAddr(mac),
                        name,
                    });
                    off += 48;
                }
                OfMessage::FeaturesReply {
                    datapath_id: u64at(0),
                    n_buffers: u32at(8),
                    n_tables: body[12],
                    ports,
                }
            }
            ty::PACKET_IN => {
                if body.len() < 10 {
                    return Err(WireError::Malformed("packet-in too short"));
                }
                OfMessage::PacketIn {
                    buffer_id: u32at(0),
                    total_len: u16at(4),
                    in_port: u16at(6),
                    data: Bytes::copy_from_slice(&body[10..]),
                }
            }
            ty::FLOW_MOD => {
                let (match_, used) =
                    Match::decode(body).ok_or(WireError::Malformed("bad match"))?;
                if body.len() < used + 24 {
                    return Err(WireError::Malformed("flow-mod too short"));
                }
                let o = used;
                if u32at(o + 10) != 0 || u16at(o + 22) != 0 {
                    return Err(WireError::TimeoutsOrFlags);
                }
                let command = u16at(o + 8);
                let command =
                    FlowModCommand::from_u16(command).ok_or(WireError::BadCommand(command))?;
                OfMessage::FlowMod {
                    match_,
                    cookie: u64at(o),
                    command,
                    priority: u16at(o + 14),
                    buffer_id: u32at(o + 16),
                    out_port: u16at(o + 20),
                    actions: Action::decode_list(&body[o + 24..])?,
                }
            }
            ty::BARRIER_REQUEST => OfMessage::BarrierRequest,
            ty::BARRIER_REPLY => OfMessage::BarrierReply,
            other => return Err(WireError::UnknownType(other)),
        };
        Ok((msg, xid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port;

    fn roundtrip(m: OfMessage) {
        let wire = m.encode(0x1234_5678);
        let (back, xid) = OfMessage::decode(&wire).unwrap();
        assert_eq!(xid, 0x1234_5678);
        assert_eq!(m, back);
        // Declared length must equal actual length.
        assert_eq!(u16::from_be_bytes([wire[2], wire[3]]) as usize, wire.len());
    }

    #[test]
    fn handshake_messages_roundtrip() {
        roundtrip(OfMessage::Hello);
        roundtrip(OfMessage::FeaturesRequest);
        roundtrip(OfMessage::BarrierRequest);
        roundtrip(OfMessage::BarrierReply);
        roundtrip(OfMessage::Error {
            err_type: 1,
            code: 2,
            data: vec![9, 9],
        });
    }

    #[test]
    fn features_reply_with_ports_roundtrips() {
        roundtrip(OfMessage::FeaturesReply {
            datapath_id: 0xdead_beef_0000_0001,
            n_buffers: 256,
            n_tables: 1,
            ports: vec![
                PortDesc {
                    port_no: 1,
                    hw_addr: MacAddr::from_id(1),
                    name: "s1-eth1".into(),
                },
                PortDesc {
                    port_no: 2,
                    hw_addr: MacAddr::from_id(2),
                    name: "s1-eth2".into(),
                },
            ],
        });
    }

    #[test]
    fn packet_in_out_roundtrip() {
        roundtrip(OfMessage::PacketIn {
            buffer_id: 42,
            total_len: 60,
            in_port: 3,
            data: Bytes::from_static(b"frame-bytes"),
        });
        // The switch only punts: a packet-out (`OFPT_PACKET_OUT`, 13)
        // does not decode, whatever it carries.
        let mut packet_out = OfMessage::BarrierRequest.encode(1);
        packet_out[1] = 13;
        assert_eq!(
            OfMessage::decode(&packet_out),
            Err(WireError::UnknownType(13))
        );
    }

    #[test]
    fn flow_mod_roundtrip() {
        roundtrip(OfMessage::FlowMod {
            match_: Match::any()
                .with_in_port(1)
                .with_dl_type(0x0800)
                .with_tp_dst(80),
            cookie: 7,
            command: FlowModCommand::Add,
            priority: 1000,
            buffer_id: 0xffff_ffff,
            out_port: port::NONE,
            actions: vec![Action::out(1), Action::out(2)],
        });
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(OfMessage::decode(&[1, 0, 0]), Err(WireError::Truncated));
        let mut hello = OfMessage::Hello.encode(1);
        hello[0] = 4; // OF 1.3
        assert_eq!(OfMessage::decode(&hello), Err(WireError::BadVersion(4)));
        let mut weird = OfMessage::Hello.encode(1);
        weird[1] = 200;
        assert_eq!(OfMessage::decode(&weird), Err(WireError::UnknownType(200)));
        let mut short = OfMessage::Hello.encode(1);
        short[3] = 200; // declared length > actual
        assert_eq!(OfMessage::decode(&short), Err(WireError::Truncated));
    }
}
