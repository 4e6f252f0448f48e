//! The NETCONF agent: a sans-IO server session (the OpenYuma role).
//!
//! Bytes in, bytes out. After the hello exchange the agent serves
//! `close-session` and the six `vnf_starter` RPCs, dispatching the latter
//! into a [`VnfInstrumentation`] — the low-level glue the paper says is
//! the only part needing adaptation when moving to a real platform. Any
//! other operation gets an `operation-not-supported` rpc-error.

use crate::framing::Framer;
use crate::message::{self, NetconfError, ReplyBody, Rpc, RpcReply};
use crate::vnf_starter::{
    self, RPC_CONNECT, RPC_DISCONNECT, RPC_GET_INFO, RPC_INITIATE, RPC_START, RPC_STOP,
};
use crate::xml::XmlElement;
use crate::yang::Module;

/// Live status of one VNF as reported by the instrumentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VnfStatusInfo {
    pub id: String,
    pub vnf_type: String,
    /// "initiated" | "running" | "stopped" | "failed".
    pub status: String,
    /// (vnf port, switch id) pairs currently connected.
    pub ports: Vec<(u16, String)>,
    /// Live element handler values (the Clicky view).
    pub handlers: Vec<(String, String)>,
}

/// The platform glue: what actually happens when the agent is asked to
/// manage a VNF. In ESCAPE-RS the implementation drives the emulated VNF
/// container; on a real platform it would exec Click processes and patch
/// veth pairs.
pub trait VnfInstrumentation {
    /// Creates a VNF of `vnf_type` (catalog name) or from a raw Click
    /// config; returns the new VNF id.
    fn initiate(
        &mut self,
        vnf_type: &str,
        click_config: Option<&str>,
        options: &[(String, String)],
    ) -> Result<String, String>;

    /// Starts packet processing.
    fn start(&mut self, vnf_id: &str) -> Result<(), String>;

    /// Stops packet processing.
    fn stop(&mut self, vnf_id: &str) -> Result<(), String>;

    /// Connects VNF port `vnf_port` to switch `switch_id`; returns the
    /// switch port used.
    fn connect(&mut self, vnf_id: &str, vnf_port: u16, switch_id: &str) -> Result<u16, String>;

    /// Disconnects a VNF port.
    fn disconnect(&mut self, vnf_id: &str, vnf_port: u16) -> Result<(), String>;

    /// Live status of one or all VNFs.
    fn info(&self, vnf_id: Option<&str>) -> Vec<VnfStatusInfo>;
}

/// Session protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitHello,
    Ready,
    Closed,
}

/// Counters for tests and the management-latency experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    pub rpcs: u64,
    pub errors: u64,
}

/// A NETCONF agent session. See the module docs.
pub struct Agent<I> {
    session_id: u32,
    phase: Phase,
    framer: Framer,
    module: Module,
    pub instr: I,
    pub stats: AgentStats,
}

impl<I: VnfInstrumentation> Agent<I> {
    /// Creates the agent; call [`Agent::start`] to emit the server hello.
    pub fn new(session_id: u32, instr: I) -> Agent<I> {
        Agent {
            session_id,
            phase: Phase::AwaitHello,
            framer: Framer::new(),
            module: vnf_starter::module(),
            instr,
            stats: AgentStats::default(),
        }
    }

    /// The server `<hello>`, framed for the wire.
    pub fn start(&self) -> Vec<u8> {
        let h = message::hello(
            &[message::BASE_CAP, message::VNF_STARTER_CAP],
            Some(self.session_id),
        );
        Framer::frame(h.to_xml().as_bytes())
    }

    /// True once the session is closed.
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// Feeds stream bytes; returns framed response bytes to transmit.
    pub fn on_bytes(&mut self, data: &[u8]) -> Vec<u8> {
        let msgs = self.framer.feed(data);
        let mut out = Vec::new();
        for m in msgs {
            if let Some(reply) = self.on_message(&m) {
                out.extend(Framer::frame(reply.as_bytes()));
            }
        }
        out
    }

    fn on_message(&mut self, raw: &[u8]) -> Option<String> {
        let Ok(text) = std::str::from_utf8(raw) else {
            return None;
        };
        let Ok(el) = XmlElement::parse(text) else {
            self.stats.errors += 1;
            return None;
        };
        match self.phase {
            Phase::Closed => None,
            Phase::AwaitHello => {
                if message::parse_hello(&el).is_some() {
                    self.phase = Phase::Ready;
                }
                None
            }
            Phase::Ready => {
                let Some(rpc) = Rpc::from_xml(&el) else {
                    self.stats.errors += 1;
                    return None;
                };
                self.stats.rpcs += 1;
                let reply = self.dispatch(&rpc);
                if matches!(reply.body, ReplyBody::Errors(_)) {
                    self.stats.errors += 1;
                }
                Some(reply.to_xml().to_xml())
            }
        }
    }

    fn dispatch(&mut self, rpc: &Rpc) -> RpcReply {
        let id = rpc.message_id;
        let op = &rpc.operation;
        match op.name.as_str() {
            "close-session" => {
                self.phase = Phase::Closed;
                RpcReply::ok(id)
            }
            name @ (RPC_INITIATE | RPC_START | RPC_STOP | RPC_CONNECT | RPC_DISCONNECT
            | RPC_GET_INFO) => {
                if let Err(e) = self.module.validate_rpc_input(name, op) {
                    return RpcReply::error(id, NetconfError::operation_failed(e));
                }
                self.vnf_rpc(id, name, op)
            }
            other => RpcReply::error(id, NetconfError::not_supported(other)),
        }
    }

    fn vnf_rpc(&mut self, id: u64, name: &str, op: &XmlElement) -> RpcReply {
        let vnf_id = op.child_text("vnf-id");
        match name {
            RPC_INITIATE => {
                let vnf_type = op.child_text("vnf-type").unwrap_or("");
                let click = op.child_text("click-config");
                let options: Vec<(String, String)> = op
                    .find("options")
                    .map(|o| {
                        o.find_all("option")
                            .map(|opt| {
                                (
                                    opt.child_text("name").unwrap_or("").to_string(),
                                    opt.child_text("value").unwrap_or("").to_string(),
                                )
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                match self.instr.initiate(vnf_type, click, &options) {
                    Ok(new_id) => RpcReply::data(id, vec![XmlElement::text_node("vnf-id", new_id)]),
                    Err(e) => RpcReply::error(id, NetconfError::operation_failed(e)),
                }
            }
            RPC_START => match self.instr.start(vnf_id.unwrap_or("")) {
                Ok(()) => RpcReply::ok(id),
                Err(e) => RpcReply::error(id, NetconfError::operation_failed(e)),
            },
            RPC_STOP => match self.instr.stop(vnf_id.unwrap_or("")) {
                Ok(()) => RpcReply::ok(id),
                Err(e) => RpcReply::error(id, NetconfError::operation_failed(e)),
            },
            RPC_CONNECT => {
                let port: u16 = op
                    .child_text("vnf-port")
                    .unwrap_or("0")
                    .parse()
                    .unwrap_or(0);
                let sw = op.child_text("switch-id").unwrap_or("");
                match self.instr.connect(vnf_id.unwrap_or(""), port, sw) {
                    Ok(sw_port) => RpcReply::data(
                        id,
                        vec![XmlElement::text_node("switch-port", sw_port.to_string())],
                    ),
                    Err(e) => RpcReply::error(id, NetconfError::operation_failed(e)),
                }
            }
            RPC_DISCONNECT => {
                let port: u16 = op
                    .child_text("vnf-port")
                    .unwrap_or("0")
                    .parse()
                    .unwrap_or(0);
                match self.instr.disconnect(vnf_id.unwrap_or(""), port) {
                    Ok(()) => RpcReply::ok(id),
                    Err(e) => RpcReply::error(id, NetconfError::operation_failed(e)),
                }
            }
            RPC_GET_INFO => RpcReply::data(id, vec![self.vnfs_state_tree(vnf_id)]),
            _ => unreachable!("filtered by caller"),
        }
    }

    /// Builds the `<vnfs>` state tree from live instrumentation info.
    fn vnfs_state_tree(&self, vnf_id: Option<&str>) -> XmlElement {
        let mut vnfs = XmlElement::new("vnfs");
        for info in self.instr.info(vnf_id) {
            let mut v = XmlElement::new("vnf")
                .child(XmlElement::text_node("id", &info.id))
                .child(XmlElement::text_node("type", &info.vnf_type))
                .child(XmlElement::text_node("status", &info.status));
            for (num, sw) in &info.ports {
                v.children.push(
                    XmlElement::new("port")
                        .child(XmlElement::text_node("number", num.to_string()))
                        .child(XmlElement::text_node("switch", sw)),
                );
            }
            for (hname, hval) in &info.handlers {
                v.children.push(
                    XmlElement::new("handler")
                        .child(XmlElement::text_node("name", hname))
                        .child(XmlElement::text_node("value", hval)),
                );
            }
            vnfs.children.push(v);
        }
        vnfs
    }
}

#[cfg(test)]
pub(crate) mod test_instr {
    use super::*;
    use std::collections::HashMap;

    /// A scripted instrumentation for tests: records calls, assigns ids.
    #[derive(Default)]
    pub struct MockInstr {
        pub next: u32,
        pub vnfs: HashMap<String, VnfStatusInfo>,
        pub calls: Vec<String>,
        pub fail_start: bool,
    }

    impl VnfInstrumentation for MockInstr {
        fn initiate(
            &mut self,
            vnf_type: &str,
            _click: Option<&str>,
            _options: &[(String, String)],
        ) -> Result<String, String> {
            self.next += 1;
            let id = format!("vnf{}", self.next);
            self.calls.push(format!("initiate {vnf_type}"));
            self.vnfs.insert(
                id.clone(),
                VnfStatusInfo {
                    id: id.clone(),
                    vnf_type: vnf_type.to_string(),
                    status: "initiated".into(),
                    ports: vec![],
                    handlers: vec![],
                },
            );
            Ok(id)
        }

        fn start(&mut self, vnf_id: &str) -> Result<(), String> {
            if self.fail_start {
                return Err("start refused".into());
            }
            self.calls.push(format!("start {vnf_id}"));
            self.vnfs
                .get_mut(vnf_id)
                .map(|v| v.status = "running".into())
                .ok_or_else(|| format!("no vnf {vnf_id}"))
        }

        fn stop(&mut self, vnf_id: &str) -> Result<(), String> {
            self.calls.push(format!("stop {vnf_id}"));
            self.vnfs
                .get_mut(vnf_id)
                .map(|v| v.status = "stopped".into())
                .ok_or_else(|| format!("no vnf {vnf_id}"))
        }

        fn connect(&mut self, vnf_id: &str, vnf_port: u16, switch_id: &str) -> Result<u16, String> {
            self.calls
                .push(format!("connect {vnf_id}:{vnf_port} {switch_id}"));
            let v = self.vnfs.get_mut(vnf_id).ok_or("no vnf")?;
            v.ports.push((vnf_port, switch_id.to_string()));
            Ok(100 + vnf_port)
        }

        fn disconnect(&mut self, vnf_id: &str, vnf_port: u16) -> Result<(), String> {
            self.calls.push(format!("disconnect {vnf_id}:{vnf_port}"));
            let v = self.vnfs.get_mut(vnf_id).ok_or("no vnf")?;
            v.ports.retain(|(p, _)| *p != vnf_port);
            Ok(())
        }

        fn info(&self, vnf_id: Option<&str>) -> Vec<VnfStatusInfo> {
            let mut v: Vec<VnfStatusInfo> = self
                .vnfs
                .values()
                .filter(|i| vnf_id.is_none_or(|id| i.id == id))
                .cloned()
                .collect();
            v.sort_by(|a, b| a.id.cmp(&b.id));
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_instr::MockInstr;
    use super::*;

    fn ready_agent() -> Agent<MockInstr> {
        let mut a = Agent::new(1, MockInstr::default());
        let _hello = a.start();
        let client_hello = Framer::frame(
            message::hello(&[message::BASE_CAP], None)
                .to_xml()
                .as_bytes(),
        );
        let out = a.on_bytes(&client_hello);
        assert!(out.is_empty(), "hello needs no reply");
        a
    }

    fn send(a: &mut Agent<MockInstr>, id: u64, op: XmlElement) -> RpcReply {
        let rpc = Rpc::new(id, op);
        let wire = Framer::frame(rpc.to_xml().to_xml().as_bytes());
        let out = a.on_bytes(&wire);
        let mut f = Framer::new();
        let msgs = f.feed(&out);
        assert_eq!(msgs.len(), 1, "expected one reply");
        let el = XmlElement::parse(std::str::from_utf8(&msgs[0]).unwrap()).unwrap();
        RpcReply::from_xml(&el).unwrap()
    }

    fn xml(s: &str) -> XmlElement {
        XmlElement::parse(s).unwrap()
    }

    #[test]
    fn hello_exchange_then_rpc() {
        let mut a = ready_agent();
        let reply = send(&mut a, 1, XmlElement::new(RPC_GET_INFO));
        assert_eq!(reply.message_id, 1);
        assert!(matches!(reply.body, ReplyBody::Data(_)));
        assert_eq!(a.stats.rpcs, 1);
    }

    #[test]
    fn rpc_before_hello_is_dropped() {
        let mut a = Agent::new(1, MockInstr::default());
        let rpc = Rpc::new(1, XmlElement::new(RPC_GET_INFO));
        let out = a.on_bytes(&Framer::frame(rpc.to_xml().to_xml().as_bytes()));
        assert!(out.is_empty());
        assert_eq!(a.stats.rpcs, 0);
    }

    #[test]
    fn full_vnf_lifecycle() {
        let mut a = ready_agent();
        // initiate
        let r = send(
            &mut a,
            1,
            xml("<initiateVNF><vnf-type>firewall</vnf-type></initiateVNF>"),
        );
        let ReplyBody::Data(d) = &r.body else {
            panic!("expected data, got {r:?}")
        };
        assert_eq!(d[0].name, "vnf-id");
        let vnf_id = d[0].text.clone();
        // connect
        let r = send(
            &mut a,
            2,
            xml(&format!(
                "<connectVNF><vnf-id>{vnf_id}</vnf-id><vnf-port>0</vnf-port><switch-id>s1</switch-id></connectVNF>"
            )),
        );
        let ReplyBody::Data(d) = &r.body else {
            panic!()
        };
        assert_eq!(d[0].name, "switch-port");
        assert_eq!(d[0].text, "100");
        // start
        let r = send(
            &mut a,
            3,
            xml(&format!("<startVNF><vnf-id>{vnf_id}</vnf-id></startVNF>")),
        );
        assert_eq!(r.body, ReplyBody::Ok);
        // getVNFInfo shows status running + the port.
        let r = send(&mut a, 4, xml("<getVNFInfo/>"));
        let ReplyBody::Data(d) = &r.body else {
            panic!()
        };
        let vnf = d[0].find("vnf").unwrap();
        assert_eq!(vnf.child_text("status"), Some("running"));
        assert_eq!(vnf.find("port").unwrap().child_text("switch"), Some("s1"));
        // stop + disconnect
        let r = send(
            &mut a,
            5,
            xml(&format!("<stopVNF><vnf-id>{vnf_id}</vnf-id></stopVNF>")),
        );
        assert_eq!(r.body, ReplyBody::Ok);
        let r = send(
            &mut a,
            6,
            xml(&format!(
                "<disconnectVNF><vnf-id>{vnf_id}</vnf-id><vnf-port>0</vnf-port></disconnectVNF>"
            )),
        );
        assert_eq!(r.body, ReplyBody::Ok);
        assert_eq!(
            a.instr.calls,
            vec![
                "initiate firewall",
                &format!("connect {vnf_id}:0 s1"),
                &format!("start {vnf_id}"),
                &format!("stop {vnf_id}"),
                &format!("disconnect {vnf_id}:0"),
            ]
        );
    }

    #[test]
    fn invalid_rpc_input_yields_rpc_error() {
        let mut a = ready_agent();
        let r = send(&mut a, 1, xml("<startVNF/>")); // missing vnf-id
        assert!(matches!(r.body, ReplyBody::Errors(_)));
        assert_eq!(a.stats.errors, 1);
    }

    #[test]
    fn instrumentation_failure_propagates() {
        let mut a = ready_agent();
        a.instr.fail_start = true;
        send(
            &mut a,
            1,
            xml("<initiateVNF><vnf-type>x</vnf-type></initiateVNF>"),
        );
        let r = send(&mut a, 2, xml("<startVNF><vnf-id>vnf1</vnf-id></startVNF>"));
        let ReplyBody::Errors(errs) = &r.body else {
            panic!()
        };
        assert!(errs[0].message.contains("refused"));
    }

    #[test]
    fn close_session_ends_dialogue() {
        let mut a = ready_agent();
        let r = send(&mut a, 1, xml("<close-session/>"));
        assert_eq!(r.body, ReplyBody::Ok);
        assert!(a.is_closed());
        let rpc = Rpc::new(2, XmlElement::new(RPC_GET_INFO));
        let out = a.on_bytes(&Framer::frame(rpc.to_xml().to_xml().as_bytes()));
        assert!(out.is_empty());
    }

    #[test]
    fn unknown_operation_is_not_supported() {
        let mut a = ready_agent();
        let r = send(&mut a, 1, xml("<kill-switch/>"));
        let ReplyBody::Errors(e) = &r.body else {
            panic!()
        };
        assert_eq!(e[0].tag, "operation-not-supported");
    }

    #[test]
    fn get_includes_live_vnf_state() {
        let mut a = ready_agent();
        send(
            &mut a,
            1,
            xml("<initiateVNF><vnf-type>dpi</vnf-type></initiateVNF>"),
        );
        let r = send(&mut a, 2, XmlElement::new(RPC_GET_INFO));
        let ReplyBody::Data(d) = &r.body else {
            panic!()
        };
        assert_eq!(d[0].name, "vnfs");
        assert_eq!(d[0].find("vnf").unwrap().child_text("type"), Some("dpi"));
    }

    #[test]
    fn config_operations_are_not_supported() {
        let mut a = ready_agent();
        for (i, op) in [
            "get",
            "get-config",
            "edit-config",
            "commit",
            "lock",
            "unlock",
        ]
        .into_iter()
        .enumerate()
        {
            let r = send(&mut a, i as u64 + 1, XmlElement::new(op));
            let ReplyBody::Errors(e) = &r.body else {
                panic!("{op}: expected rpc-error, got {r:?}")
            };
            assert_eq!(e[0].tag, "operation-not-supported", "{op}");
        }
        assert_eq!(a.stats.errors, 6);
        // The session survives every rejection.
        let r = send(&mut a, 7, XmlElement::new(RPC_GET_INFO));
        assert!(matches!(r.body, ReplyBody::Data(_)), "{r:?}");
        assert!(!a.is_closed());
    }
}
