//! # escape
//!
//! ESCAPE-RS: an Extensible Service ChAin Prototyping Environment — the
//! paper's contribution, reimplemented in Rust over simulated substrates.
//!
//! The stack, bottom-up (see DESIGN.md for the full inventory):
//!
//! * **Infrastructure layer** — [`escape_netem`] emulates the network
//!   (Mininet's role); [`escape_openflow::Switch`] is the software switch
//!   (Open vSwitch's role); [`container::VnfContainer`] hosts Click-based
//!   VNFs with cgroup-style CPU isolation and an embedded NETCONF agent
//!   (OpenYuma's role).
//! * **Orchestration layer** — [`escape_orch::Orchestrator`] maps service
//!   graphs to resources; the deployment pipeline in [`env::Escape`]
//!   drives `vnf_starter` RPCs over the emulated control network and
//!   compiles mappings into steering rules for
//!   [`escape_pox::TrafficSteering`].
//! * **Service layer** — [`escape_sg`] service graphs (built
//!   programmatically, from the DSL, or from JSON — the MiniEdit-GUI
//!   stand-ins) and the [`monitor`] module ("Clicky") for live VNF
//!   handler inspection.
//!
//! The one-stop entry point is [`env::Escape`]:
//!
//! ```
//! use escape::env::Escape;
//! use escape_orch::GreedyFirstFit;
//! use escape_pox::SteeringMode;
//! use escape_sg::{topo::builders, ServiceGraph};
//!
//! let topo = builders::linear(2, 4.0);
//! let mut esc = Escape::build(topo, Box::new(GreedyFirstFit), SteeringMode::Proactive, 1)
//!     .unwrap();
//! let sg = ServiceGraph::new()
//!     .sap("sap0")
//!     .sap("sap1")
//!     .vnf("mon", "monitor", 0.5, 64)
//!     .chain("c1", &["sap0", "mon", "sap1"], 50.0, None);
//! let report = esc.deploy(&sg).unwrap();
//! assert_eq!(report.chains.len(), 1);
//! esc.start_udp("sap0", "sap1", 64, 100, 10).unwrap();
//! esc.run_for_ms(50);
//! assert_eq!(esc.sap_stats("sap1").unwrap().udp_rx, 10);
//! ```

pub mod container;
pub mod domains;
pub mod env;
pub mod error;
pub mod flight;
pub mod infra;
pub mod journal;
pub mod monitor;
pub mod ops;
pub mod session;
pub mod soak;

pub use container::{VnfContainer, VnfHost};
pub use domains::MultiDomainEscape;
pub use env::{AdmissionConfig, DeploymentReport, Escape, ScaleReport, MAX_REPLICAS};
pub use error::{AdmissionVerdict, DeployPhase, EscapeError, RollbackReport, RollbackStep};
pub use escape_scale::{Autoscaler, AutoscalerConfig};
pub use flight::{FlightRecord, Journey, Outcome, SlaVerdict};
pub use journal::{Journal, JournalEvent, JournalKind, Severity};
pub use session::{ChainInfo, Session, SessionConfig, StatusInfo};
pub use soak::{SoakConfig, SoakReport};
