//! OpenFlow 1.0 actions.

use crate::wire::WireError;

/// The one OF 1.0 action steering sends: `Output` names a physical
/// port. Header edits belong to the Click VNFs, so a switch forwards
/// frames unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Output { port: u16, max_len: u16 },
}

/// `OFPAT_OUTPUT`, the only `ofp_action_type` that decodes.
const OUTPUT: u16 = 0;
/// Bytes of an `ofp_action_output`.
const OUTPUT_LEN: u16 = 8;

impl Action {
    /// Shorthand for a plain output action.
    pub fn out(port: u16) -> Action {
        Action::Output {
            port,
            max_len: 0xffff,
        }
    }

    /// Serializes one action TLV.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let Action::Output { port, max_len } = *self;
        buf.extend_from_slice(&OUTPUT.to_be_bytes());
        buf.extend_from_slice(&OUTPUT_LEN.to_be_bytes());
        buf.extend_from_slice(&port.to_be_bytes());
        buf.extend_from_slice(&max_len.to_be_bytes());
    }

    /// Parses one action TLV, returning the action and bytes consumed.
    /// A TLV cut short or not a positive multiple of 8 bytes long is
    /// malformed; a well-formed one of another type is a `BadAction`.
    pub fn decode(b: &[u8]) -> Result<(Action, usize), WireError> {
        let bad_len = WireError::Malformed("bad actions");
        if b.len() < 4 {
            return Err(bad_len);
        }
        let ty = u16::from_be_bytes([b[0], b[1]]);
        let len = u16::from_be_bytes([b[2], b[3]]) as usize;
        if len == 0 || !len.is_multiple_of(8) || b.len() < len {
            return Err(bad_len);
        }
        if ty != OUTPUT {
            return Err(WireError::BadAction(ty));
        }
        let a = Action::Output {
            port: u16::from_be_bytes([b[4], b[5]]),
            max_len: u16::from_be_bytes([b[6], b[7]]),
        };
        Ok((a, len))
    }

    /// Serializes a list of actions.
    pub fn encode_list(actions: &[Action], buf: &mut Vec<u8>) {
        for a in actions {
            a.encode(buf);
        }
    }

    /// Parses a run of action TLVs.
    pub fn decode_list(mut b: &[u8]) -> Result<Vec<Action>, WireError> {
        let mut v = Vec::new();
        while !b.is_empty() {
            let (a, used) = Action::decode(b)?;
            v.push(a);
            b = &b[used..];
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlv_roundtrip_all_kinds() {
        let actions = vec![
            Action::out(3),
            Action::Output {
                port: 7,
                max_len: 128,
            },
        ];
        let mut buf = Vec::new();
        Action::encode_list(&actions, &mut buf);
        assert_eq!(buf.len() % 8, 0, "actions are 8-byte aligned");
        let back = Action::decode_list(&buf).unwrap();
        assert_eq!(actions, back);
    }

    #[test]
    fn decode_rejects_garbage() {
        let bad = |b: &[u8]| Action::decode_list(b).unwrap_err();
        let bad_len = WireError::Malformed("bad actions");
        assert_eq!(bad(&[0, 0, 0, 3]), bad_len); // len < 4
        assert_eq!(bad(&[0, 0, 0, 0, 0, 0, 0, 0]), bad_len); // len 0
        assert_eq!(bad(&[0, 0, 0, 16, 0, 0]), bad_len); // truncated

        // A well-formed set-field (`OFPAT_SET_DL_DST`) is refused by type.
        let set_dl_dst = [0, 5, 0, 16, 1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 0, 0];
        assert_eq!(bad(&set_dl_dst), WireError::BadAction(5));
        assert_eq!(bad(&[0, 99, 0, 8, 0, 0, 0, 0]), WireError::BadAction(99));
    }
}
