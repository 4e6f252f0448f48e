//! # escape-ctl
//!
//! The ESCAPE-RS control plane: a typed request/response protocol over
//! length-prefixed JSON frames on a unix socket, the [`server::Daemon`]
//! that serves a live [`escape::Session`] behind it, and the
//! [`client::CtlClient`] that `escape ctl` drives it with.
//!
//! Layering:
//!
//! * [`proto`] — [`CtlRequest`] / [`CtlResponse`] / [`CtlError`], the
//!   wire vocabulary. Everything round-trips through `escape-json`.
//! * [`frame`] — 4-byte big-endian length prefix + JSON payload.
//! * [`client`] — blocking unix-socket client, one response per request.
//! * [`server`] — the `escaped` daemon core: accept/reader threads funnel
//!   commands through one queue into the environment loop, so admission
//!   control backpressures external callers exactly like in-process ones.
//! * [`wal`] — the write-ahead intent log and snapshot under `--state-dir`.
//!
//! The command line in front of it (DESIGN.md §20): [`args`] is the one
//! option grammar and [`load`] the one document loader; on them,
//! [`oneshot`] (`escape run|metrics|trace|soak`), [`remote`]
//! (`escape ctl`, `escape top`) and [`launch`] (`escaped` /
//! `escape daemon`). The binaries only pick a subcommand.

pub mod args;
pub mod client;
pub mod frame;
pub mod launch;
pub mod load;
pub mod oneshot;
pub mod proto;
pub mod remote;
pub mod server;
pub mod wal;

pub use client::{CtlClient, CtlWatch};
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use proto::{
    ChainInfo, CtlError, CtlEvent, CtlRequest, CtlResponse, DeployInfo, MetricDelta, MetricsFormat,
    SgFormat, SlaInfo, StatusInfo, WatchTopic,
};
pub use server::{Daemon, DaemonConfig};
pub use wal::{
    AutoscalerRecord, ChainRecord, CommittedOp, Recovered, Snapshot, Wal, SNAPSHOT_VERSION,
};
