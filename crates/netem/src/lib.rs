//! # escape-netem
//!
//! A deterministic discrete-event network emulator — the Mininet role in
//! ESCAPE-RS.
//!
//! Mininet builds emulated networks out of kernel primitives (veth pairs,
//! network namespaces, cgroups, Open vSwitch). This crate provides the same
//! abstractions as a *simulated* substrate so that every higher layer of
//! ESCAPE (OpenFlow switches, Click VNFs, NETCONF agents, the POX
//! controller) runs unmodified control logic over a reproducible network:
//!
//! * a virtual clock in nanoseconds ([`Time`]) and an event queue with
//!   strictly deterministic ordering ([`sim::Sim`]);
//! * nodes implementing [`sim::NodeLogic`] connected by [`link::LinkConfig`]
//!   links with bandwidth (serialization delay), propagation delay, finite
//!   drop-tail egress queues and seeded random loss;
//! * a *control network* of reliable ordered message channels (the paper's
//!   "dedicated control network" for NETCONF agents and the OpenFlow
//!   control channel);
//! * a cgroup-like CPU model ([`process::CpuModel`]) so VNF packet
//!   processing costs contend for container CPU under configurable
//!   isolation ([`process::IsolationMode`]);
//! * fault injection (link down/up, loss) and a packet trace facility
//!   ([`trace::Trace`]) standing in for pcap dumps.
//!
//! Everything is single-threaded and sans-IO: a run is a pure function of
//! the topology, the workload and the seed.

pub mod fault;
pub mod host;
pub mod link;
pub mod process;
mod queue;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultPlanError, FaultRecord};
pub use host::{GatewayRx, Host, HostStats};
pub use link::{LinkConfig, LinkId, LinkState};
pub use process::{CpuModel, IsolationMode};
pub use sim::{CtrlId, NodeCtx, NodeId, NodeLogic, Sim};
pub use stats::SimStats;
pub use time::Time;
pub use trace::{DropReason, HopDetail, Trace, TraceDir, TraceRecord, VnfPath};
