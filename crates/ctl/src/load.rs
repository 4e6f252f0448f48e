//! The one document loader: every file the command line names is read
//! here, and which format it holds is decided here.
//!
//! The rule: a file is JSON when `--json` was given *or* its name ends
//! in `.json`; otherwise it is the DSL. Fault plans and domain specs
//! have no DSL and are always JSON.

use escape::session::{parse_service_graph_text, parse_topology_text, InputFormat};
use escape_domain::DomainSpec;
use escape_netem::FaultPlan;
use escape_sg::{ResourceTopology, ServiceGraph};

/// A file's text, or `<path>: <why not>`. Every loader below words its
/// parse errors the same way, so an error names the file it came from.
pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The format rule.
pub fn format(path: &str, json: bool) -> InputFormat {
    if json {
        InputFormat::Json
    } else {
        InputFormat::from_path(path)
    }
}

pub fn topology(path: &str, json: bool) -> Result<ResourceTopology, String> {
    parse_topology_text(&read(path)?, format(path, json)).map_err(|e| format!("{path}: {e}"))
}

pub fn service_graph(path: &str, json: bool) -> Result<ServiceGraph, String> {
    parse_service_graph_text(&read(path)?, format(path, json)).map_err(|e| format!("{path}: {e}"))
}

pub fn fault_plan(path: &str) -> Result<FaultPlan, String> {
    FaultPlan::from_json(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

pub fn domain_spec(path: &str) -> Result<DomainSpec, String> {
    DomainSpec::from_json(&read(path)?).map_err(|e| format!("{path}: {e}"))
}
