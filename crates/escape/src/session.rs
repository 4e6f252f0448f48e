//! The session layer: one live environment plus the operations driven
//! against it.
//!
//! [`Session`] is the ownership seam between the control plane and the
//! data plane. A one-shot CLI run (`escape run`, `metrics`, `trace` — one
//! driver in `escape_ctl::oneshot`) builds a session, drives it and
//! exits; the `escaped` daemon builds the same session once and keeps it
//! alive behind a unix-socket command queue. Everything both callers need
//! — building by algorithm name, deploying from DSL or JSON text,
//! advancing virtual time with self-healing, metrics exposition — lives
//! here so the two paths cannot drift apart.

use crate::env::{AdmissionConfig, DeployedChain, DeploymentReport, Escape, ScaleReport};
use crate::error::EscapeError;
use crate::flight::SlaVerdict;
use escape_json::wire::Pairs;
use escape_json::{wire_enum, wire_struct, Writer};
use escape_netem::FaultPlan;
use escape_orch::{
    Backtracking, BestFitCpu, GreedyFirstFit, MappingAlgorithm, NearestNeighbor, SimulatedAnnealing,
};
use escape_pox::SteeringMode;
use escape_sg::{parse_service_graph, parse_topology, ResourceTopology, ServiceGraph};
use escape_telemetry::SamplerConfig;

wire_enum! {
    /// Text format of a topology / service-graph / fault-plan document;
    /// on the control socket, the format of a shipped service graph.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum InputFormat {
        /// The line-oriented DSL (`.topo` / `.sg` files).
        Dsl = "dsl",
        /// JSON documents.
        Json = "json",
    }
}

impl InputFormat {
    /// Picks the format a file most likely holds from its extension.
    pub fn from_path(path: &str) -> InputFormat {
        if path.rsplit('.').next() == Some("json") {
            InputFormat::Json
        } else {
            InputFormat::Dsl
        }
    }
}

/// Resolves a mapping algorithm by its CLI name.
pub fn algorithm_by_name(name: &str) -> Result<Box<dyn MappingAlgorithm>, String> {
    Ok(match name {
        "first_fit" => Box::new(GreedyFirstFit),
        "best_fit" => Box::new(BestFitCpu),
        "nearest" => Box::new(NearestNeighbor),
        "backtrack" => Box::new(Backtracking::default()),
        "anneal" => Box::new(SimulatedAnnealing::default()),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

/// Parses topology text in either format.
pub fn parse_topology_text(src: &str, format: InputFormat) -> Result<ResourceTopology, String> {
    match format {
        InputFormat::Json => ResourceTopology::from_json(src),
        InputFormat::Dsl => parse_topology(src).map_err(|e| e.to_string()),
    }
}

/// Parses service-graph text in either format.
pub fn parse_service_graph_text(src: &str, format: InputFormat) -> Result<ServiceGraph, String> {
    match format {
        InputFormat::Json => ServiceGraph::from_json(src),
        InputFormat::Dsl => parse_service_graph(src).map_err(|e| e.to_string()),
    }
}

/// The built-in demo substrate used when no topology file is given.
pub fn demo_topology() -> ResourceTopology {
    escape_sg::topo::builders::linear(3, 4.0)
}

/// How to build a session: everything [`Session::new`] needs besides the
/// topology itself.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Mapping algorithm, by CLI name ([`algorithm_by_name`]).
    pub algorithm: String,
    pub steering: SteeringMode,
    pub seed: u64,
    /// Admission watermarks; `None` admits everything.
    pub admission: Option<AdmissionConfig>,
    /// Flight-recorder trace-ring capacity; `None` leaves it off.
    pub flight_recorder: Option<usize>,
    /// Time-series sampler (period + retention); `None` leaves it off.
    pub sampler: Option<SamplerConfig>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            algorithm: "nearest".into(),
            steering: SteeringMode::Proactive,
            seed: 1,
            admission: None,
            flight_recorder: None,
            sampler: None,
        }
    }
}

wire_struct! {
    /// One live chain as `status` and `deploy` report it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ChainInfo {
        pub name: String,
        pub cookie: u64,
        pub rules: u64,
        /// `(vnf_name, container)` in placement order.
        pub vnfs: Vec<(String, String)> => Pairs("name", "container"),
    }
}

impl ChainInfo {
    /// One live chain in its wire shape.
    pub fn of(dc: &DeployedChain) -> ChainInfo {
        ChainInfo {
            name: dc.mapping.chain.name.clone(),
            cookie: dc.cookie,
            rules: dc.rules as u64,
            vnfs: dc
                .vnfs
                .iter()
                .map(|v| (v.vnf_name.clone(), v.container.clone()))
                .collect(),
        }
    }

    /// `fw→c1, mon→c2`: the placement as the CLI prints it.
    pub fn placements(&self) -> String {
        let pairs: Vec<String> = self
            .vnfs
            .iter()
            .map(|(vnf, container)| format!("{vnf}→{container}"))
            .collect();
        pairs.join(", ")
    }
}

wire_struct! {
    /// Point-in-time session state, the `status` document: all of it
    /// derived from virtual time and deterministic counters, so same
    /// seed + same command script ⇒ byte-identical encoding.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct StatusInfo {
        /// Current virtual time (ns).
        pub now_ns: u64,
        pub chains: Vec<ChainInfo>,
        /// Deploys parked on the admission queue.
        pub pending_admissions: u64,
        /// Compute utilization (0..=1).
        pub utilization: f64,
        pub deploys: u64,
        pub deploy_failures: u64,
        pub teardowns: u64,
        pub recoveries: u64,
        pub recovery_failures: u64,
        pub rollbacks: u64,
        pub admission_rejected: u64,
        /// Journal entries ever recorded (the journal's sequence cursor,
        /// so evicted entries still count).
        pub events: u64,
        /// True when this session was rebuilt from durable state after a
        /// daemon restart (never set on a fresh build).
        pub restarted: bool,
        /// Chains live after the recovery pass (0 on a fresh session).
        pub recovered_chains: u64,
        /// Mid-flight transactions rolled back during recovery (intent
        /// logged, no commit marker).
        pub rolled_back_txns: u64,
    }
}

/// A live environment plus its build configuration.
pub struct Session {
    esc: Escape,
    cfg: SessionConfig,
    restarted: bool,
    recovered_chains: u64,
    rolled_back_txns: u64,
}

impl Session {
    /// Builds the environment over `topo` per `cfg`.
    pub fn new(topo: ResourceTopology, cfg: SessionConfig) -> Result<Session, EscapeError> {
        let algorithm = algorithm_by_name(&cfg.algorithm).map_err(EscapeError::Invalid)?;
        let mut esc = Escape::build(topo, algorithm, cfg.steering, cfg.seed)?;
        if let Some(admission) = cfg.admission {
            esc.set_admission(admission);
        }
        if let Some(cap) = cfg.flight_recorder {
            esc.enable_flight_recorder(cap);
        }
        if let Some(sampler) = cfg.sampler {
            esc.enable_sampler(sampler);
        }
        Ok(Session {
            esc,
            cfg,
            restarted: false,
            recovered_chains: 0,
            rolled_back_txns: 0,
        })
    }

    /// Stamps recovery provenance after a crash-restart reconciliation,
    /// so `status` can distinguish a reconciled daemon from a fresh one.
    pub fn set_recovery(&mut self, recovered_chains: u64, rolled_back_txns: u64) {
        self.restarted = true;
        self.recovered_chains = recovered_chains;
        self.rolled_back_txns = rolled_back_txns;
    }

    /// Canonical full-state fingerprint of the underlying environment
    /// (see [`Escape::state_fingerprint`]).
    pub fn state_fingerprint(&self) -> String {
        self.esc.state_fingerprint()
    }

    /// The configuration the session was built with.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The underlying environment.
    pub fn escape(&self) -> &Escape {
        &self.esc
    }

    /// Mutable access to the underlying environment.
    pub fn escape_mut(&mut self) -> &mut Escape {
        &mut self.esc
    }

    /// Deploys a service graph (transactional, admission-gated).
    pub fn deploy(&mut self, sg: &ServiceGraph) -> Result<DeploymentReport, EscapeError> {
        self.esc.deploy(sg)
    }

    /// Deploys from service-graph text in either format.
    pub fn deploy_text(
        &mut self,
        src: &str,
        format: InputFormat,
    ) -> Result<DeploymentReport, EscapeError> {
        let sg = parse_service_graph_text(src, format).map_err(EscapeError::Invalid)?;
        self.deploy(&sg)
    }

    /// Tears one chain down (all-or-nothing; see [`Escape::teardown`]).
    pub fn teardown(&mut self, chain: &str) -> Result<(), EscapeError> {
        self.esc.teardown(chain)
    }

    /// Tears every live chain down in name order. Returns the chains
    /// that could not be dismantled (stalled agents) — they stay live
    /// and retryable.
    pub fn teardown_all(&mut self) -> Vec<(String, EscapeError)> {
        let mut failed = Vec::new();
        for chain in self.esc.deployed_chains() {
            if let Err(e) = self.esc.teardown(&chain) {
                failed.push((chain, e));
            }
        }
        failed
    }

    /// Resizes one chain VNF to `replicas` instances with a
    /// make-before-break migration: new replicas come up and hash-bucket
    /// steering rules are staged before one atomic cutover, so no flow
    /// ever sees an empty rule set (see [`Escape::scale_chain`]).
    pub fn scale(
        &mut self,
        chain: &str,
        vnf: &str,
        replicas: u32,
    ) -> Result<ScaleReport, EscapeError> {
        self.esc.scale_chain(chain, vnf, replicas)
    }

    /// Advances virtual time by `ms` milliseconds with self-healing:
    /// injected faults are recovered and queued admissions pumped as
    /// their moments arrive.
    pub fn run_for_ms(&mut self, ms: u64) {
        self.esc.run_with_recovery(ms);
    }

    /// Parses and arms a fault plan (JSON). Returns the event count.
    pub fn load_fault_plan_text(&mut self, src: &str) -> Result<usize, EscapeError> {
        let plan = FaultPlan::from_json(src).map_err(EscapeError::Invalid)?;
        let events = plan.events.len();
        self.esc.load_fault_plan(&plan)?;
        Ok(events)
    }

    /// Runs one healing pass right now; returns the total recovery and
    /// recovery-failure counts afterwards.
    pub fn heal_now(&mut self) -> (u64, u64) {
        self.esc.heal_now();
        let m = self.esc.telemetry();
        (
            m.counter_total("escape.recoveries"),
            m.counter_total("escape.recovery_failures"),
        )
    }

    /// Starts a paced UDP stream between two SAPs.
    pub fn start_udp(
        &mut self,
        from: &str,
        to: &str,
        frame_len: usize,
        interval_us: u64,
        count: u64,
    ) -> Result<(), EscapeError> {
        self.esc.start_udp(from, to, frame_len, interval_us, count)
    }

    /// Per-chain SLA verdicts from the flight recorder.
    pub fn sla_verdicts(&self) -> Vec<SlaVerdict> {
        self.esc.sla_verdicts()
    }

    /// Delta-encoded sampler series as a JSON document (empty document
    /// when no sampler was configured).
    pub fn series_json(&self) -> String {
        self.esc.sampler_series_json()
    }

    /// The retained event journal as JSON lines.
    pub fn journal_json_lines(&self) -> String {
        self.esc.journal_json_lines()
    }

    /// Renders the telemetry registry. This is the *single* exposition
    /// code path: `escape metrics`, `escape ctl metrics` and the daemon's
    /// shutdown flush all call it, so one-shot and daemon output cannot
    /// drift.
    pub fn metrics_exposition(&self, json: bool) -> String {
        if json {
            let mut w = Writer::pretty();
            w.begin_object();
            self.esc.metrics().write_json(w.key("metrics"));
            self.esc.tracer().write_json(w.key("trace"));
            w.end_object();
            let mut s = w.finish();
            s.push('\n');
            s
        } else {
            self.esc.metrics().prometheus()
        }
    }

    /// Snapshot of the session for `status`.
    pub fn status(&self) -> StatusInfo {
        let m = self.esc.telemetry();
        let chains = self
            .esc
            .deployed_chains()
            .iter()
            .map(|name| ChainInfo::of(self.esc.deployed(name).expect("listed chain is live")))
            .collect();
        StatusInfo {
            now_ns: self.esc.now().as_ns(),
            chains,
            pending_admissions: self.esc.pending_admissions() as u64,
            utilization: self.esc.orchestrator().cpu_utilization(),
            deploys: m.counter_total("escape.deploys"),
            deploy_failures: m.counter_total("escape.deploy_failures"),
            teardowns: m.counter_total("escape.teardowns"),
            recoveries: m.counter_total("escape.recoveries"),
            recovery_failures: m.counter_total("escape.recovery_failures"),
            rollbacks: m.counter_total("escape.rollbacks"),
            admission_rejected: m.counter_total("escape.admission_rejected"),
            events: self.esc.journal().seq_end(),
            restarted: self.restarted,
            recovered_chains: self.recovered_chains,
            rolled_back_txns: self.rolled_back_txns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sg() -> ServiceGraph {
        ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf("mon", "monitor", 0.5, 64)
            .chain("demo", &["sap0", "mon", "sap1"], 50.0, None)
    }

    #[test]
    fn session_lifecycle_and_status() {
        let mut s = Session::new(demo_topology(), SessionConfig::default()).unwrap();
        assert_eq!(s.status().chains.len(), 0);
        s.deploy(&demo_sg()).unwrap();
        s.start_udp("sap0", "sap1", 64, 100, 10).unwrap();
        s.run_for_ms(20);
        let st = s.status();
        assert_eq!(st.chains.len(), 1);
        assert_eq!(st.chains[0].name, "demo");
        assert_eq!(st.deploys, 1);
        assert!(st.utilization > 0.0);
        s.teardown("demo").unwrap();
        assert_eq!(s.status().chains.len(), 0);
        assert_eq!(s.status().teardowns, 1);
    }

    #[test]
    fn scale_round_trip_through_session() {
        let mut s = Session::new(demo_topology(), SessionConfig::default()).unwrap();
        s.deploy(&demo_sg()).unwrap();
        let r = s.scale("demo", "mon", 2).unwrap();
        assert_eq!((r.from, r.to), (1, 2));
        assert_eq!(s.escape().replica_count("demo", "mon"), 2);
        // Traffic still flows through the scaled chain.
        s.start_udp("sap0", "sap1", 64, 100, 20).unwrap();
        s.run_for_ms(20);
        let r = s.scale("demo", "mon", 1).unwrap();
        assert_eq!((r.from, r.to), (2, 1));
        assert_eq!(s.escape().replica_count("demo", "mon"), 1);
        s.teardown("demo").unwrap();
        assert!(s.escape().deployed_chains().is_empty());
    }

    #[test]
    fn teardown_all_drains_every_chain() {
        let mut s = Session::new(demo_topology(), SessionConfig::default()).unwrap();
        s.deploy(&demo_sg()).unwrap();
        assert!(s.teardown_all().is_empty());
        assert!(s.escape().deployed_chains().is_empty());
    }

    #[test]
    fn exposition_matches_env_exposition() {
        let mut s = Session::new(demo_topology(), SessionConfig::default()).unwrap();
        s.deploy(&demo_sg()).unwrap();
        s.run_for_ms(5);
        assert_eq!(
            s.metrics_exposition(false),
            s.escape().metrics().prometheus()
        );
        assert!(s.metrics_exposition(true).starts_with('{'));
    }

    #[test]
    fn span_history_is_bounded_so_the_json_exposition_stops_growing() {
        let mut s = Session::new(demo_topology(), SessionConfig::default()).unwrap();
        let sg = demo_sg();
        let exposition = |s: &Session| {
            let text = s.metrics_exposition(true);
            let doc = escape_json::Value::parse(&text).unwrap();
            let spans = doc.get("trace").unwrap().get("spans").unwrap();
            (spans.as_arr().unwrap().len(), text.len())
        };
        let round = |s: &mut Session| {
            s.deploy(&sg).unwrap();
            s.teardown("demo").unwrap();
        };
        round(&mut s);
        let per_round = exposition(&s).0;
        let cap = crate::journal::DEFAULT_JOURNAL_CAP;
        for _ in 0..cap / per_round + 1 {
            round(&mut s);
        }
        let full = exposition(&s);
        assert_eq!(full.0, cap, "the history holds its capacity, no more");
        // Past the capacity a round changes digits, not the reply's size.
        for _ in 0..20 {
            round(&mut s);
        }
        let later = exposition(&s);
        assert_eq!(later.0, cap);
        assert!(
            later.1.abs_diff(full.1) < full.1 / 100,
            "reply grew from {} to {} bytes",
            full.1,
            later.1
        );
        let evicted = s
            .escape()
            .telemetry()
            .counter_total("telemetry.spans_evicted");
        assert!(evicted >= 20 * per_round as u64);
    }

    #[test]
    fn unknown_algorithm_is_typed() {
        let err = match Session::new(
            demo_topology(),
            SessionConfig {
                algorithm: "magic".into(),
                ..SessionConfig::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("unknown algorithm accepted"),
        };
        assert!(matches!(err, EscapeError::Invalid(_)), "{err}");
    }

    #[test]
    fn input_format_by_extension() {
        assert_eq!(InputFormat::from_path("a/b/sg.json"), InputFormat::Json);
        assert_eq!(InputFormat::from_path("demo.sg"), InputFormat::Dsl);
        assert_eq!(InputFormat::from_path("topofile"), InputFormat::Dsl);
    }
}
