//! The NETCONF client (the orchestrator side), sans-IO.

use crate::framing::Framer;
use crate::message::{self, ReplyBody, RpcReply};
use crate::vnf_starter::{
    RPC_CONNECT, RPC_DISCONNECT, RPC_GET_INFO, RPC_INITIATE, RPC_START, RPC_STOP,
};
use crate::xml::XmlElement;
use escape_telemetry::{Counter, Registry};

/// Events surfaced to the caller as server bytes are fed in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// The server hello arrived.
    HelloReceived {
        session_id: Option<u32>,
        capabilities: Vec<String>,
    },
    /// A reply to an outstanding rpc.
    Reply(RpcReply),
    /// A framed message that could not be understood: not UTF-8, not
    /// well-formed XML, or XML that is neither a hello nor an rpc-reply
    /// (e.g. a truncated document). Surfaced instead of silently dropped
    /// so the caller can fail the in-flight RPC with a typed error.
    Malformed { reason: String },
}

/// A NETCONF client session: builds framed requests, parses framed
/// replies.
pub struct Client {
    framer: Framer,
    next_id: u64,
    /// Set once the server hello arrives.
    pub session_id: Option<u32>,
    /// Server capabilities.
    pub server_caps: Vec<String>,
    /// Message ids sent but not yet answered.
    pub outstanding: Vec<u64>,
    /// RPCs sent (`netconf.rpcs_sent`).
    rpcs_ctr: Counter,
    /// Replies parsed (`netconf.replies_received`).
    replies_ctr: Counter,
    /// Replies carrying `<rpc-error>` (`netconf.rpc_errors`).
    errors_ctr: Counter,
    /// Framed messages that could not be parsed (`netconf.malformed_replies`).
    malformed_ctr: Counter,
}

impl Client {
    pub fn new() -> Client {
        Client::with_registry(&Registry::new())
    }

    /// A client publishing `netconf.*` counters into `registry` — the
    /// environment passes the simulation-wide registry here.
    pub fn with_registry(registry: &Registry) -> Client {
        Client {
            framer: Framer::new(),
            next_id: 0,
            session_id: None,
            server_caps: Vec::new(),
            outstanding: Vec::new(),
            rpcs_ctr: registry.counter("netconf.rpcs_sent"),
            replies_ctr: registry.counter("netconf.replies_received"),
            errors_ctr: registry.counter("netconf.rpc_errors"),
            malformed_ctr: registry.counter("netconf.malformed_replies"),
        }
    }

    /// The client `<hello>`, framed.
    pub fn start(&self) -> Vec<u8> {
        Framer::frame(
            message::hello(&[message::BASE_CAP], None)
                .to_xml()
                .as_bytes(),
        )
    }

    /// True once the capability exchange completed.
    pub fn ready(&self) -> bool {
        self.session_id.is_some()
    }

    /// True if the server announced the `vnf_starter` capability.
    pub fn has_vnf_starter(&self) -> bool {
        self.server_caps
            .iter()
            .any(|c| c == message::VNF_STARTER_CAP)
    }

    /// Wraps an operation into a framed `<rpc>`; returns (message-id,
    /// wire bytes).
    pub fn rpc(&mut self, operation: XmlElement) -> (u64, Vec<u8>) {
        self.next_id += 1;
        let id = self.next_id;
        self.rpcs_ctr.inc();
        self.outstanding.push(id);
        let rpc = message::Rpc::new(id, operation);
        (id, Framer::frame(rpc.to_xml().to_xml().as_bytes()))
    }

    /// Feeds server bytes; returns parsed events. Messages that cannot
    /// be understood surface as [`ClientEvent::Malformed`] (and bump
    /// `netconf.malformed_replies`) — there is no panic path, and a bad
    /// message never corrupts the session state for later good ones.
    pub fn on_bytes(&mut self, data: &[u8]) -> Vec<ClientEvent> {
        let mut events = Vec::new();
        for msg in self.framer.feed(data) {
            let Ok(text) = std::str::from_utf8(&msg) else {
                self.malformed_ctr.inc();
                events.push(ClientEvent::Malformed {
                    reason: "reply is not valid UTF-8".into(),
                });
                continue;
            };
            let el = match XmlElement::parse(text) {
                Ok(el) => el,
                Err(e) => {
                    self.malformed_ctr.inc();
                    events.push(ClientEvent::Malformed {
                        reason: format!("reply is not well-formed XML: {e}"),
                    });
                    continue;
                }
            };
            if let Some((caps, sid)) = message::parse_hello(&el) {
                self.session_id = sid;
                self.server_caps = caps.clone();
                events.push(ClientEvent::HelloReceived {
                    session_id: sid,
                    capabilities: caps,
                });
                continue;
            }
            if let Some(reply) = RpcReply::from_xml(&el) {
                self.outstanding.retain(|&i| i != reply.message_id);
                self.replies_ctr.inc();
                if matches!(reply.body, ReplyBody::Errors(_)) {
                    self.errors_ctr.inc();
                }
                events.push(ClientEvent::Reply(reply));
                continue;
            }
            self.malformed_ctr.inc();
            events.push(ClientEvent::Malformed {
                reason: format!("unrecognized message <{}>", el.name),
            });
        }
        events
    }

    /// Framed messages seen that could not be parsed into an event.
    pub fn malformed_replies(&self) -> u64 {
        self.malformed_ctr.get()
    }

    // ----- typed vnf_starter requests -------------------------------

    /// `initiateVNF`: create a VNF from a catalog type and/or raw Click
    /// config.
    pub fn initiate_vnf(
        &mut self,
        vnf_type: &str,
        click_config: Option<&str>,
        options: &[(String, String)],
    ) -> (u64, Vec<u8>) {
        let mut op =
            XmlElement::new(RPC_INITIATE).child(XmlElement::text_node("vnf-type", vnf_type));
        if let Some(cfg) = click_config {
            op.children.push(XmlElement::text_node("click-config", cfg));
        }
        if !options.is_empty() {
            let mut opts = XmlElement::new("options");
            for (k, v) in options {
                opts.children.push(
                    XmlElement::new("option")
                        .child(XmlElement::text_node("name", k))
                        .child(XmlElement::text_node("value", v)),
                );
            }
            op.children.push(opts);
        }
        self.rpc(op)
    }

    /// `startVNF`.
    pub fn start_vnf(&mut self, vnf_id: &str) -> (u64, Vec<u8>) {
        self.rpc(XmlElement::new(RPC_START).child(XmlElement::text_node("vnf-id", vnf_id)))
    }

    /// `stopVNF`.
    pub fn stop_vnf(&mut self, vnf_id: &str) -> (u64, Vec<u8>) {
        self.rpc(XmlElement::new(RPC_STOP).child(XmlElement::text_node("vnf-id", vnf_id)))
    }

    /// `connectVNF`.
    pub fn connect_vnf(&mut self, vnf_id: &str, vnf_port: u16, switch_id: &str) -> (u64, Vec<u8>) {
        self.rpc(
            XmlElement::new(RPC_CONNECT)
                .child(XmlElement::text_node("vnf-id", vnf_id))
                .child(XmlElement::text_node("vnf-port", vnf_port.to_string()))
                .child(XmlElement::text_node("switch-id", switch_id)),
        )
    }

    /// `disconnectVNF`.
    pub fn disconnect_vnf(&mut self, vnf_id: &str, vnf_port: u16) -> (u64, Vec<u8>) {
        self.rpc(
            XmlElement::new(RPC_DISCONNECT)
                .child(XmlElement::text_node("vnf-id", vnf_id))
                .child(XmlElement::text_node("vnf-port", vnf_port.to_string())),
        )
    }

    /// `getVNFInfo` (all VNFs, or one).
    pub fn get_vnf_info(&mut self, vnf_id: Option<&str>) -> (u64, Vec<u8>) {
        let mut op = XmlElement::new(RPC_GET_INFO);
        if let Some(id) = vnf_id {
            op.children.push(XmlElement::text_node("vnf-id", id));
        }
        self.rpc(op)
    }

    /// `close-session`.
    pub fn close(&mut self) -> (u64, Vec<u8>) {
        self.rpc(XmlElement::new("close-session"))
    }
}

impl Default for Client {
    fn default() -> Self {
        Self::new()
    }
}

/// Pulls the `vnf-id` out of an `initiateVNF` reply.
pub fn vnf_id_of(reply: &RpcReply) -> Option<String> {
    match &reply.body {
        crate::message::ReplyBody::Data(d) => d
            .iter()
            .find(|e| e.name == "vnf-id")
            .map(|e| e.text.clone()),
        _ => None,
    }
}

/// Pulls the `switch-port` out of a `connectVNF` reply.
pub fn switch_port_of(reply: &RpcReply) -> Option<u16> {
    match &reply.body {
        crate::message::ReplyBody::Data(d) => d
            .iter()
            .find(|e| e.name == "switch-port")
            .and_then(|e| e.text.parse().ok()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::test_instr::MockInstr;
    use crate::agent::Agent;
    use crate::message::ReplyBody;

    /// Runs a full client<->agent exchange in memory.
    struct Loop {
        client: Client,
        agent: Agent<MockInstr>,
    }

    impl Loop {
        fn new() -> Loop {
            let mut l = Loop {
                client: Client::new(),
                agent: Agent::new(9, MockInstr::default()),
            };
            let server_hello = l.agent.start();
            let events = l.client.on_bytes(&server_hello);
            assert!(matches!(events[0], ClientEvent::HelloReceived { .. }));
            let client_hello = l.client.start();
            l.agent.on_bytes(&client_hello);
            l
        }

        fn call(&mut self, bytes: Vec<u8>) -> RpcReply {
            let out = self.agent.on_bytes(&bytes);
            let mut events = self.client.on_bytes(&out);
            assert_eq!(events.len(), 1);
            match events.remove(0) {
                ClientEvent::Reply(r) => r,
                other => panic!("expected reply, got {other:?}"),
            }
        }
    }

    #[test]
    fn capability_exchange() {
        let l = Loop::new();
        assert_eq!(l.client.session_id, Some(9));
        assert!(l.client.has_vnf_starter());
        assert!(l.client.ready());
    }

    #[test]
    fn typed_lifecycle_end_to_end() {
        let mut l = Loop::new();
        let (_, req) = l.client.initiate_vnf(
            "firewall",
            Some("FromDevice(0) -> ToDevice(0);"),
            &[("isolation".into(), "cpushare".into())],
        );
        let reply = l.call(req);
        let vnf_id = vnf_id_of(&reply).unwrap();
        assert_eq!(vnf_id, "vnf1");

        let (_, req) = l.client.connect_vnf(&vnf_id, 0, "s4");
        let reply = l.call(req);
        assert_eq!(switch_port_of(&reply), Some(100));

        let (_, req) = l.client.start_vnf(&vnf_id);
        assert_eq!(l.call(req).body, ReplyBody::Ok);

        let (_, req) = l.client.get_vnf_info(None);
        let reply = l.call(req);
        let ReplyBody::Data(d) = &reply.body else {
            panic!()
        };
        assert_eq!(
            d[0].find("vnf").unwrap().child_text("status"),
            Some("running")
        );

        let (_, req) = l.client.stop_vnf(&vnf_id);
        assert_eq!(l.call(req).body, ReplyBody::Ok);
        let (_, req) = l.client.disconnect_vnf(&vnf_id, 0);
        assert_eq!(l.call(req).body, ReplyBody::Ok);
        let (_, req) = l.client.close();
        assert_eq!(l.call(req).body, ReplyBody::Ok);
        assert!(l.agent.is_closed());
        assert!(l.client.outstanding.is_empty());
    }

    #[test]
    fn outstanding_tracking() {
        let mut l = Loop::new();
        let (id1, req1) = l.client.get_vnf_info(None);
        let (id2, _req2) = l.client.get_vnf_info(None);
        assert_eq!(l.client.outstanding, vec![id1, id2]);
        l.call(req1);
        assert_eq!(l.client.outstanding, vec![id2]);
    }

    #[test]
    fn helpers_return_none_on_errors() {
        let mut l = Loop::new();
        let (_, req) = l.client.start_vnf("ghost");
        let reply = l.call(req);
        assert!(matches!(reply.body, ReplyBody::Errors(_)));
        assert_eq!(vnf_id_of(&reply), None);
        assert_eq!(switch_port_of(&reply), None);
    }

    #[test]
    fn malformed_replies_surface_typed_events() {
        let mut l = Loop::new();
        let (id, req) = l.client.get_vnf_info(None);

        // Truncated XML: the document ends mid-element.
        let ev = l
            .client
            .on_bytes(&Framer::frame(b"<rpc-reply message-id=\"1\"><data>"));
        assert!(
            matches!(&ev[0], ClientEvent::Malformed { reason } if reason.contains("XML")),
            "{ev:?}"
        );
        // Bytes that are not UTF-8 at all.
        let ev = l.client.on_bytes(&Framer::frame(&[0xff, 0xfe, b'<', b'a']));
        assert!(
            matches!(&ev[0], ClientEvent::Malformed { reason } if reason.contains("UTF-8")),
            "{ev:?}"
        );
        // Well-formed XML that is neither a hello nor an rpc-reply.
        let ev = l.client.on_bytes(&Framer::frame(b"<surprise/>"));
        assert!(
            matches!(&ev[0], ClientEvent::Malformed { reason } if reason.contains("surprise")),
            "{ev:?}"
        );
        assert_eq!(l.client.malformed_replies(), 3);

        // The session survives: the outstanding rpc still completes.
        assert_eq!(l.client.outstanding, vec![id]);
        let reply = l.call(req);
        assert_eq!(reply.message_id, id);
        assert!(l.client.outstanding.is_empty());
    }
}
