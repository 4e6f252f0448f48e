//! # escape-pox
//!
//! An event-driven OpenFlow controller — the POX role in ESCAPE-RS.
//!
//! In ESCAPE, POX runs one app: traffic steering. This crate is that
//! controller and that app:
//!
//! * [`core::Controller`] — an [`escape_netem::NodeLogic`] terminating one
//!   control channel per switch, running the OpenFlow handshake
//!   (hello → features) and handing connection-up, packet-in and
//!   flow-removed events to the steering app it owns;
//! * [`steering::TrafficSteering`] — ESCAPE's traffic steering app: it
//!   holds per-switch steering rules compiled from mapped service chains
//!   and installs them proactively (on connection-up / on demand) or
//!   reactively (on first packet), per the D1 design-choice ablation in
//!   DESIGN.md.

mod component;
pub mod core;
pub mod steering;

pub use crate::core::{Controller, ControllerStats};
pub use steering::{SteeringMode, SteeringRule, TrafficSteering};
