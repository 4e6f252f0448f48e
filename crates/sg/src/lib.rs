//! # escape-sg
//!
//! Service graphs and resource topologies — the models the paper's GUI
//! (MiniEdit-based) produces and the orchestrator consumes.
//!
//! * [`topo`] — the infrastructure view: switches, VNF containers (with
//!   CPU/memory capacity), SAPs (service access points) and links (with
//!   bandwidth/delay), plus standard topology generators (linear, star,
//!   tree, fat-tree-lite) used across tests and benches;
//! * [`sg`] — the abstract service view: VNF instances with resource
//!   requirements and *chains* — ordered SAP → VNF… → SAP paths with
//!   bandwidth and end-to-end delay requirements (the "delay or bandwidth
//!   requirement on a sub-graph" of the paper);
//! * [`dsl`] — the textual format standing in for the GUI: a line-based
//!   language describing both topologies and service graphs;
//! * JSON (de)serialization on every model via `escape-json`, the
//!   machine interchange format.

pub mod dsl;
pub mod sg;
pub mod topo;

pub use dsl::{parse_service_graph, parse_topology, DslError};
pub use sg::{Chain, ServiceGraph, Sla, VnfReq};
pub use topo::{ResourceTopology, TopoLink, TopoNode, TopoNodeKind};
