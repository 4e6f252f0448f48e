//! # escape-domain
//!
//! Multi-domain orchestration: the UNIFY-style recursive layer over the
//! flat single-domain stack.
//!
//! The paper's architecture is explicitly hierarchical: a *global*
//! orchestrator maps service graphs onto an **aggregated** resource view
//! (per-domain capacity summaries plus inter-domain delay/bandwidth)
//! while *local* orchestrators own the detailed embedding inside each
//! infrastructure domain. This crate provides that split:
//!
//! * [`spec`] — [`spec::DomainSpec`]: a JSON-serializable assignment of
//!   topology nodes to named domains;
//! * [`partition`] — carving a [`ResourceTopology`](escape_sg::ResourceTopology)
//!   into per-domain local topologies joined by [`partition::GatewayLink`]s,
//!   where each cross-domain link materializes as a *gateway SAP* on both
//!   sides (the stitching points for cross-domain chains);
//! * [`global`] — [`global::GlobalOrchestrator`]: domain-path selection
//!   (Dijkstra over the domain graph by inter-domain delay), VNF
//!   distribution along the path against aggregate capacity, and the
//!   per-domain [`global::ChainLeg`]s that local orchestrators embed.
//!
//! The runtime that drives one netem simulator per domain lives in the
//! `escape` crate (`escape::domains`); this crate is pure data and
//! planning so it can be reused without pulling in the emulator.

pub mod global;
pub mod partition;
pub mod spec;

pub use global::{ChainLeg, ChainPlan, GlobalOrchestrator, PlanError};
pub use partition::{partition, DomainView, GatewayLink, LocalDomain, Partition};
pub use spec::{DomainDef, DomainSpec};
