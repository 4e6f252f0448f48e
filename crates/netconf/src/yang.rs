//! YANG-lite: a schema model for validating RPC input.
//!
//! The paper describes agent operations "by the YANG data modeling
//! language". This module gives ESCAPE-RS enough of YANG to express and
//! enforce the input of the `vnf_starter` RPCs: containers, lists with a
//! key and typed leaves.

use crate::xml::XmlElement;

/// Leaf types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YangType {
    String,
    Uint16,
    Uint32,
    Boolean,
    Enumeration(Vec<String>),
}

impl YangType {
    /// Validates a textual value against the type.
    pub fn check(&self, value: &str) -> Result<(), String> {
        match self {
            YangType::String => Ok(()),
            YangType::Uint16 => value
                .parse::<u16>()
                .map(|_| ())
                .map_err(|_| format!("{value:?} is not a uint16")),
            YangType::Uint32 => value
                .parse::<u32>()
                .map(|_| ())
                .map_err(|_| format!("{value:?} is not a uint32")),
            YangType::Boolean => match value {
                "true" | "false" => Ok(()),
                _ => Err(format!("{value:?} is not a boolean")),
            },
            YangType::Enumeration(vals) => {
                if vals.iter().any(|v| v == value) {
                    Ok(())
                } else {
                    Err(format!("{value:?} not in enumeration {vals:?}"))
                }
            }
        }
    }
}

/// A schema node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaNode {
    Leaf {
        name: String,
        ty: YangType,
        mandatory: bool,
    },
    Container {
        name: String,
        children: Vec<SchemaNode>,
    },
    List {
        name: String,
        key: String,
        children: Vec<SchemaNode>,
    },
}

impl SchemaNode {
    pub fn leaf(name: &str, ty: YangType, mandatory: bool) -> SchemaNode {
        SchemaNode::Leaf {
            name: name.into(),
            ty,
            mandatory,
        }
    }

    pub fn container(name: &str, children: Vec<SchemaNode>) -> SchemaNode {
        SchemaNode::Container {
            name: name.into(),
            children,
        }
    }

    pub fn list(name: &str, key: &str, children: Vec<SchemaNode>) -> SchemaNode {
        SchemaNode::List {
            name: name.into(),
            key: key.into(),
            children,
        }
    }

    fn name(&self) -> &str {
        match self {
            SchemaNode::Leaf { name, .. }
            | SchemaNode::Container { name, .. }
            | SchemaNode::List { name, .. } => name,
        }
    }
}

/// An RPC definition: the input the agent checks on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcSchema {
    pub name: String,
    pub input: Vec<SchemaNode>,
}

/// A YANG module: its RPCs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    pub name: String,
    pub rpcs: Vec<RpcSchema>,
}

impl Module {
    /// Finds an RPC by name.
    pub fn rpc(&self, name: &str) -> Option<&RpcSchema> {
        self.rpcs.iter().find(|r| r.name == name)
    }

    /// Validates an RPC input element (children of the operation element)
    /// against the schema.
    pub fn validate_rpc_input(&self, name: &str, op: &XmlElement) -> Result<(), String> {
        let rpc = self
            .rpc(name)
            .ok_or_else(|| format!("unknown rpc {name}"))?;
        validate_children(op, &rpc.input)
    }
}

/// Validates that `el`'s children conform to `schema`: no unknown
/// elements, mandatory leaves present, leaf values type-check, list
/// entries carry their key.
pub fn validate_children(el: &XmlElement, schema: &[SchemaNode]) -> Result<(), String> {
    for child in &el.children {
        let node = schema
            .iter()
            .find(|n| n.name() == child.name)
            .ok_or_else(|| format!("unexpected element <{}> in <{}>", child.name, el.name))?;
        match node {
            SchemaNode::Leaf { ty, .. } => {
                ty.check(&child.text)
                    .map_err(|e| format!("leaf {}: {e}", child.name))?;
            }
            SchemaNode::Container { children, .. } => {
                validate_children(child, children)?;
            }
            SchemaNode::List { key, children, .. } => {
                if child.child_text(key).is_none() {
                    return Err(format!("list entry <{}> missing key <{key}>", child.name));
                }
                validate_children(child, children)?;
            }
        }
    }
    // Mandatory leaves must be present.
    for n in schema {
        if let SchemaNode::Leaf {
            name,
            mandatory: true,
            ..
        } = n
        {
            if el.find(name).is_none() {
                return Err(format!("missing mandatory leaf <{name}> in <{}>", el.name));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Vec<SchemaNode> {
        vec![
            SchemaNode::leaf("vnf-type", YangType::String, true),
            SchemaNode::leaf("port", YangType::Uint16, false),
            SchemaNode::leaf(
                "status",
                YangType::Enumeration(vec!["running".into(), "stopped".into()]),
                false,
            ),
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
        ]
    }

    fn xml(s: &str) -> XmlElement {
        XmlElement::parse(s).unwrap()
    }

    #[test]
    fn valid_input_passes() {
        let el = xml("<in><vnf-type>firewall</vnf-type><port>8080</port><status>running</status><options><option><name>k</name><value>v</value></option></options></in>");
        validate_children(&el, &schema()).unwrap();
    }

    #[test]
    fn missing_mandatory_fails() {
        let el = xml("<in><port>1</port></in>");
        let err = validate_children(&el, &schema()).unwrap_err();
        assert!(err.contains("vnf-type"));
    }

    #[test]
    fn type_errors_are_caught() {
        let el = xml("<in><vnf-type>x</vnf-type><port>99999</port></in>");
        assert!(validate_children(&el, &schema())
            .unwrap_err()
            .contains("uint16"));
        let el = xml("<in><vnf-type>x</vnf-type><status>paused</status></in>");
        assert!(validate_children(&el, &schema())
            .unwrap_err()
            .contains("enumeration"));
    }

    #[test]
    fn unknown_elements_are_rejected() {
        let el = xml("<in><vnf-type>x</vnf-type><bogus>1</bogus></in>");
        assert!(validate_children(&el, &schema())
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn list_key_is_required() {
        let el = xml(
            "<in><vnf-type>x</vnf-type><options><option><value>v</value></option></options></in>",
        );
        assert!(validate_children(&el, &schema())
            .unwrap_err()
            .contains("key"));
    }

    #[test]
    fn all_types_check() {
        YangType::Uint32.check("4000000000").unwrap();
        assert!(YangType::Uint32.check("-1").is_err());
        YangType::Boolean.check("true").unwrap();
        assert!(YangType::Boolean.check("yes").is_err());
        YangType::String.check("anything").unwrap();
    }
}
