//! NETCONF message envelopes: hello, rpc, rpc-reply, rpc-error.

use crate::xml::XmlElement;

/// The NETCONF base namespace.
pub const BASE_NS: &str = "urn:ietf:params:xml:ns:netconf:base:1.0";
/// The base 1.0 capability URI.
pub const BASE_CAP: &str = "urn:ietf:params:xml:ns:netconf:base:1.0";
/// ESCAPE's vnf_starter capability URI.
pub const VNF_STARTER_CAP: &str = "urn:escape:params:xml:ns:yang:vnf_starter";

/// A NETCONF-level error (an `<rpc-error>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetconfError {
    pub error_type: String,
    pub tag: String,
    pub message: String,
}

impl NetconfError {
    /// An `operation-failed` application error.
    pub fn operation_failed(message: impl Into<String>) -> NetconfError {
        NetconfError {
            error_type: "application".into(),
            tag: "operation-failed".into(),
            message: message.into(),
        }
    }

    /// An `operation-not-supported` error.
    pub fn not_supported(message: impl Into<String>) -> NetconfError {
        NetconfError {
            error_type: "application".into(),
            tag: "operation-not-supported".into(),
            message: message.into(),
        }
    }

    fn to_xml(&self) -> XmlElement {
        XmlElement::new("rpc-error")
            .child(XmlElement::text_node("error-type", &self.error_type))
            .child(XmlElement::text_node("error-tag", &self.tag))
            .child(XmlElement::text_node("error-message", &self.message))
    }

    fn from_xml(el: &XmlElement) -> NetconfError {
        NetconfError {
            error_type: el.child_text("error-type").unwrap_or("").to_string(),
            tag: el.child_text("error-tag").unwrap_or("").to_string(),
            message: el.child_text("error-message").unwrap_or("").to_string(),
        }
    }
}

impl std::fmt::Display for NetconfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rpc-error [{}/{}]: {}",
            self.error_type, self.tag, self.message
        )
    }
}

impl std::error::Error for NetconfError {}

/// Builds a `<hello>` with the given capabilities; agents include a
/// session id.
pub fn hello(capabilities: &[&str], session_id: Option<u32>) -> XmlElement {
    let mut caps = XmlElement::new("capabilities");
    for c in capabilities {
        caps.children.push(XmlElement::text_node("capability", *c));
    }
    let mut h = XmlElement::new("hello").attr("xmlns", BASE_NS).child(caps);
    if let Some(sid) = session_id {
        h.children
            .push(XmlElement::text_node("session-id", sid.to_string()));
    }
    h
}

/// Extracts the capability list from a `<hello>`.
pub fn parse_hello(el: &XmlElement) -> Option<(Vec<String>, Option<u32>)> {
    if el.name != "hello" {
        return None;
    }
    let caps = el
        .find("capabilities")?
        .find_all("capability")
        .map(|c| c.text.clone())
        .collect();
    let sid = el.child_text("session-id").and_then(|s| s.parse().ok());
    Some((caps, sid))
}

/// An `<rpc>` request: message id plus the operation element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rpc {
    pub message_id: u64,
    pub operation: XmlElement,
}

impl Rpc {
    /// Wraps an operation.
    pub fn new(message_id: u64, operation: XmlElement) -> Rpc {
        Rpc {
            message_id,
            operation,
        }
    }

    /// Serializes to the `<rpc>` envelope.
    pub fn to_xml(&self) -> XmlElement {
        XmlElement::new("rpc")
            .attr("message-id", self.message_id.to_string())
            .attr("xmlns", BASE_NS)
            .child(self.operation.clone())
    }

    /// Parses an `<rpc>` envelope.
    pub fn from_xml(el: &XmlElement) -> Option<Rpc> {
        if el.name != "rpc" || el.children.len() != 1 {
            return None;
        }
        let message_id = el.get_attr("message-id")?.parse().ok()?;
        Some(Rpc {
            message_id,
            operation: el.children[0].clone(),
        })
    }
}

/// An `<rpc-reply>`: ok, data, or errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcReply {
    pub message_id: u64,
    pub body: ReplyBody,
}

/// Reply payload alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    Ok,
    /// Arbitrary result elements (e.g. `<data>` or RPC-specific output).
    Data(Vec<XmlElement>),
    Errors(Vec<NetconfError>),
}

impl RpcReply {
    pub fn ok(message_id: u64) -> RpcReply {
        RpcReply {
            message_id,
            body: ReplyBody::Ok,
        }
    }

    pub fn data(message_id: u64, data: Vec<XmlElement>) -> RpcReply {
        RpcReply {
            message_id,
            body: ReplyBody::Data(data),
        }
    }

    pub fn error(message_id: u64, e: NetconfError) -> RpcReply {
        RpcReply {
            message_id,
            body: ReplyBody::Errors(vec![e]),
        }
    }

    /// Serializes to the `<rpc-reply>` envelope.
    pub fn to_xml(&self) -> XmlElement {
        let mut el = XmlElement::new("rpc-reply")
            .attr("message-id", self.message_id.to_string())
            .attr("xmlns", BASE_NS);
        match &self.body {
            ReplyBody::Ok => el.children.push(XmlElement::new("ok")),
            ReplyBody::Data(d) => el.children.extend(d.iter().cloned()),
            ReplyBody::Errors(errs) => {
                el.children.extend(errs.iter().map(|e| e.to_xml()));
            }
        }
        el
    }

    /// Parses an `<rpc-reply>` envelope.
    pub fn from_xml(el: &XmlElement) -> Option<RpcReply> {
        if el.name != "rpc-reply" {
            return None;
        }
        let message_id = el.get_attr("message-id")?.parse().ok()?;
        let errors: Vec<NetconfError> = el
            .find_all("rpc-error")
            .map(NetconfError::from_xml)
            .collect();
        let body = if !errors.is_empty() {
            ReplyBody::Errors(errors)
        } else if el.find("ok").is_some() {
            ReplyBody::Ok
        } else {
            ReplyBody::Data(el.children.clone())
        };
        Some(RpcReply { message_id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let h = hello(&[BASE_CAP, VNF_STARTER_CAP], Some(7));
        let (caps, sid) = parse_hello(&h).unwrap();
        assert_eq!(caps.len(), 2);
        assert!(caps.contains(&VNF_STARTER_CAP.to_string()));
        assert_eq!(sid, Some(7));
        // Client hello has no session id.
        let h = hello(&[BASE_CAP], None);
        let (_, sid) = parse_hello(&h).unwrap();
        assert_eq!(sid, None);
    }

    #[test]
    fn rpc_roundtrip() {
        let rpc = Rpc::new(42, XmlElement::new("getVNFInfo"));
        let back = Rpc::from_xml(&XmlElement::parse(&rpc.to_xml().to_xml()).unwrap()).unwrap();
        assert_eq!(back, rpc);
    }

    #[test]
    fn reply_variants_roundtrip() {
        for reply in [
            RpcReply::ok(1),
            RpcReply::data(2, vec![XmlElement::text_node("vnf-id", "vnf7")]),
            RpcReply::error(3, NetconfError::operation_failed("boom")),
        ] {
            let back =
                RpcReply::from_xml(&XmlElement::parse(&reply.to_xml().to_xml()).unwrap()).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn error_constructors() {
        assert_eq!(
            NetconfError::not_supported("x").tag,
            "operation-not-supported"
        );
        let e = NetconfError::operation_failed("nope");
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(Rpc::from_xml(&XmlElement::new("rpc")).is_none()); // no op, no id
        assert!(parse_hello(&XmlElement::new("goodbye")).is_none());
        assert!(RpcReply::from_xml(&XmlElement::new("rpc")).is_none());
    }
}
