//! ESCAPE's `vnf_starter` YANG module.
//!
//! The paper: *"A NETCONF agent is responsible for managing VNF containers
//! and assigned switch(es). More specifically, the agent is able to
//! start/stop VNFs and connect/disconnect VNFs to/from switches. The
//! operation of the agent is described by the YANG data modeling
//! language..."* — this module is that description, as the schema the
//! agent checks every RPC's input against.

use crate::yang::{Module, RpcSchema, SchemaNode, YangType};

/// RPC names exposed by the agent.
pub const RPC_INITIATE: &str = "initiateVNF";
pub const RPC_START: &str = "startVNF";
pub const RPC_STOP: &str = "stopVNF";
pub const RPC_CONNECT: &str = "connectVNF";
pub const RPC_DISCONNECT: &str = "disconnectVNF";
pub const RPC_GET_INFO: &str = "getVNFInfo";

/// Builds the `vnf_starter` module schema.
pub fn module() -> Module {
    Module {
        name: "vnf_starter".into(),
        rpcs: vec![
            RpcSchema {
                name: RPC_INITIATE.into(),
                input: vec![
                    SchemaNode::leaf("vnf-type", YangType::String, true),
                    SchemaNode::leaf("click-config", YangType::String, false),
                    SchemaNode::container(
                        "options",
                        vec![SchemaNode::list(
                            "option",
                            "name",
                            vec![
                                SchemaNode::leaf("name", YangType::String, true),
                                SchemaNode::leaf("value", YangType::String, false),
                            ],
                        )],
                    ),
                ],
            },
            RpcSchema {
                name: RPC_START.into(),
                input: vec![SchemaNode::leaf("vnf-id", YangType::String, true)],
            },
            RpcSchema {
                name: RPC_STOP.into(),
                input: vec![SchemaNode::leaf("vnf-id", YangType::String, true)],
            },
            RpcSchema {
                name: RPC_CONNECT.into(),
                input: vec![
                    SchemaNode::leaf("vnf-id", YangType::String, true),
                    SchemaNode::leaf("vnf-port", YangType::Uint16, true),
                    SchemaNode::leaf("switch-id", YangType::String, true),
                ],
            },
            RpcSchema {
                name: RPC_DISCONNECT.into(),
                input: vec![
                    SchemaNode::leaf("vnf-id", YangType::String, true),
                    SchemaNode::leaf("vnf-port", YangType::Uint16, true),
                ],
            },
            RpcSchema {
                name: RPC_GET_INFO.into(),
                input: vec![SchemaNode::leaf("vnf-id", YangType::String, false)],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::XmlElement;

    #[test]
    fn module_has_all_six_rpcs() {
        let m = module();
        for r in [
            RPC_INITIATE,
            RPC_START,
            RPC_STOP,
            RPC_CONNECT,
            RPC_DISCONNECT,
            RPC_GET_INFO,
        ] {
            assert!(m.rpc(r).is_some(), "missing rpc {r}");
        }
    }

    #[test]
    fn validates_connect_input() {
        let m = module();
        let good = XmlElement::parse(
            "<connectVNF><vnf-id>v1</vnf-id><vnf-port>0</vnf-port><switch-id>s3</switch-id></connectVNF>",
        )
        .unwrap();
        m.validate_rpc_input(RPC_CONNECT, &good).unwrap();
        let bad = XmlElement::parse("<connectVNF><vnf-id>v1</vnf-id></connectVNF>").unwrap();
        assert!(m.validate_rpc_input(RPC_CONNECT, &bad).is_err());
        let bad_port = XmlElement::parse(
            "<connectVNF><vnf-id>v1</vnf-id><vnf-port>x</vnf-port><switch-id>s</switch-id></connectVNF>",
        )
        .unwrap();
        assert!(m.validate_rpc_input(RPC_CONNECT, &bad_port).is_err());
    }
}
