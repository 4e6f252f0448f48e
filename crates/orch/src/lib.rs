//! # escape-orch
//!
//! The ESCAPE orchestrator: mapping abstract service graphs onto
//! infrastructure resources.
//!
//! The paper: *"A dedicated component maps abstract service graphs into
//! available resources based on different optimization algorithms (which
//! can be easily changed or customized)."* This crate is that component:
//!
//! * [`state::ResourceState`] — residual CPU per container and bandwidth
//!   per link, kept consistent as chains are embedded and released;
//! * [`algo::MappingAlgorithm`] — the pluggable algorithm trait, with five
//!   implementations: [`algo::GreedyFirstFit`], [`algo::BestFitCpu`],
//!   [`algo::NearestNeighbor`], [`algo::Backtracking`] (optimal on small
//!   instances) and [`algo::SimulatedAnnealing`];
//! * [`path::PathIndex`] / [`path::PathSearch`] — the path-search layer:
//!   the topology compiled to integer adjacency once per orchestrator,
//!   and one shortest-path tree per chain hop that serves both candidate
//!   ranking and routing;
//! * [`engine::Orchestrator`] — commits/releases embeddings against the
//!   resource state and produces [`engine::ChainMapping`]s, the input the
//!   deployment pipeline (escape crate) turns into NETCONF calls and
//!   steering rules;
//! * [`workload`] — seeded random service-graph generators for the
//!   mapping experiments (E2) and chain-setup benches (E1).

pub mod algo;
pub mod engine;
pub mod path;
pub mod state;
pub mod workload;

pub use algo::{
    Backtracking, BestFitCpu, GreedyFirstFit, MapError, MappingAlgorithm, NearestNeighbor,
    SimulatedAnnealing,
};
pub use engine::{ChainMapping, Orchestrator, PathSegment};
pub use path::{PathIndex, PathSearch};
pub use state::ResourceState;
