//! Observation: the typed event journal, the periodic sampler and its
//! sample-point observers, the packet flight recorder with per-chain
//! SLA verdicts, and live VNF state over NETCONF.

use super::Escape;
use crate::error::EscapeError;
use crate::flight::{self, FlightRecord, LiveFold, NodeKind, SlaVerdict};
use crate::journal::{Journal, JournalKind, Severity, DEFAULT_JOURNAL_CAP};
use escape_netconf::message::ReplyBody;
use escape_netem::NodeId;
use escape_sg::Sla;
use escape_telemetry::{Registry, Sampler, SamplerConfig, Snapshot, Tracer};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// The journal, the sampler and what its observers remember between
/// sample points.
pub(super) struct Observation {
    /// Typed operational event journal (bounded ring, virtual-clock
    /// stamped; evictions counted as `escape.journal_evicted`).
    journal: Journal,
    /// Periodic metric sampler on the virtual clock. `None` until
    /// enabled with [`Escape::enable_sampler`].
    pub(super) sampler: Option<Sampler>,
    /// Last observed SLA pass flag per chain, for flip detection at
    /// sample points.
    pub(super) sla_last: HashMap<String, bool>,
    /// `openflow.cache_invalidations` total at the previous sample
    /// point, for storm detection.
    last_cache_invalidations: u64,
    /// The SLA counts over the trace ring, kept between calls and shared
    /// by the sample tick, the watch publisher and the `sla` verb.
    sla_fold: RefCell<LiveFold>,
}

impl Observation {
    pub(super) fn new(telemetry: &Registry) -> Observation {
        Observation {
            journal: Journal::new(telemetry, DEFAULT_JOURNAL_CAP),
            sampler: None,
            sla_last: HashMap::new(),
            last_cache_invalidations: 0,
            sla_fold: RefCell::default(),
        }
    }
}

/// Cache invalidations within one sample period at or above this count
/// are journaled as a storm (rule churn thrashing the fast path).
const CACHE_STORM_THRESHOLD: u64 = 64;

impl Escape {
    /// One sample point: note SLA verdict flips, sample the registry
    /// into the sampler ring, then note a cache-invalidation storm.
    /// Everything here runs on the virtual clock, so the journal and the
    /// series stay byte-identical across same-seed runs.
    pub(super) fn observe_tick(&mut self) {
        let now_ns = self.sim.now().as_ns();
        // SLA flips are only observable while the flight recorder runs.
        if self.sim.trace.is_some() {
            for v in self.sla_verdicts() {
                let was = self.observe.sla_last.insert(v.chain.clone(), v.pass);
                if was == Some(v.pass) {
                    continue;
                }
                let (sev, what) = if v.pass {
                    (Severity::Info, "pass")
                } else {
                    (Severity::Warn, "fail")
                };
                self.journal_note(
                    sev,
                    JournalKind::SlaFlip,
                    format!(
                        "chain {}: {what} (delivered {} dropped {} loss {:.3})",
                        v.chain, v.delivered, v.dropped, v.loss
                    ),
                );
            }
        }
        // The sample sees the flip notes' journal evictions, not the
        // storm note's.
        if let Some(s) = &mut self.observe.sampler {
            s.record(now_ns);
        }
        let invalidations = self.telemetry.counter_total("openflow.cache_invalidations");
        let delta = invalidations.saturating_sub(self.observe.last_cache_invalidations);
        if delta >= CACHE_STORM_THRESHOLD {
            self.journal_note(
                Severity::Warn,
                JournalKind::CacheInvalidationStorm,
                format!("{delta} flow-cache invalidations in one sample period"),
            );
        }
        self.observe.last_cache_invalidations = invalidations;
        // The autoscaler runs after the sample so scaling RPCs (which
        // advance virtual time) never skew the recorded sample.
        self.autoscale_tick();
    }

    /// Turns on the periodic metric sampler. Samples are taken at
    /// period boundaries of the *virtual* clock while time advances
    /// through [`Escape::run_for_ms`] / [`Escape::run_with_recovery`] /
    /// [`Escape::run_until`] / [`Escape::run_until_ns`]. The waits inside
    /// a verb run past the boundaries without a sample, so after a
    /// deploy, scale or teardown the next sample lands off the grid
    /// (ROADMAP item 18(b)).
    pub fn enable_sampler(&mut self, cfg: SamplerConfig) {
        self.observe.sampler = Some(Sampler::new(&self.telemetry, cfg));
    }

    /// Delta-encoded sampler series as a JSON document (see
    /// [`Sampler::series_json`]). An environment without a sampler
    /// reports an empty window.
    pub fn sampler_series_json(&self) -> String {
        match &self.observe.sampler {
            Some(s) => s.series_json(),
            None => Sampler::empty_series_json(),
        }
    }

    /// The typed operational event journal.
    pub fn journal(&self) -> &Journal {
        &self.observe.journal
    }

    /// The retained journal as JSON lines.
    pub fn journal_json_lines(&self) -> String {
        self.observe.journal.json_lines()
    }

    /// Appends a typed entry to the journal at the current virtual time.
    /// Public because the daemon's crash-recovery pass records restart
    /// provenance (daemon-restarted, txn-rolled-back, wal-truncated)
    /// through it too.
    pub fn journal_note(&mut self, severity: Severity, kind: JournalKind, detail: String) {
        self.observe
            .journal
            .record(self.sim.now().as_ns(), severity, kind, detail);
    }

    /// Rebases the journal's sequence cursor after a restart so `watch
    /// --since <seq>` cursors taken against the previous incarnation
    /// stay valid (see [`Journal::restore_base`]).
    pub fn restore_journal_base(&mut self, base: u64) {
        self.observe.journal.restore_base(base);
    }

    /// The journal as text, one line per retained entry (`[{ns}ns]
    /// {severity} {kind}: {detail}`) — the form the CLI prints and the
    /// determinism witnesses compare: same seed + same script ⇒
    /// byte-identical lines.
    pub fn event_trace(&self) -> Vec<String> {
        self.observe
            .journal
            .entries()
            .map(ToString::to_string)
            .collect()
    }

    /// The simulation-wide telemetry registry (netem, pox, orch, netconf
    /// and escape metrics all land here).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The virtual-time span tracer: chain setup phases as nested spans.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Point-in-time snapshot of every metric in the environment.
    pub fn metrics(&self) -> Snapshot {
        self.telemetry.snapshot()
    }

    // ---------------- flight recorder -------------------------------

    /// Turns on the packet flight recorder: a trace ring of `cap`
    /// records that [`Self::flight_record`] later correlates into
    /// per-packet journeys. Enable it *before* starting traffic.
    pub fn enable_flight_recorder(&mut self, cap: usize) {
        self.sim.enable_trace(cap);
    }

    /// Reconstructs every traced packet's journey. Empty if the flight
    /// recorder was never enabled.
    pub fn flight_record(&self) -> FlightRecord {
        let Some(trace) = &self.sim.trace else {
            return FlightRecord::default();
        };
        let cookies: HashMap<u64, String> = self
            .deployed
            .iter()
            .map(|(name, dc)| (dc.cookie, name.clone()))
            .collect();
        let resolve = self.node_roles();
        flight::reconstruct(
            trace.records(),
            |n| {
                let (name, kind) = resolve(n);
                (name.to_string(), kind)
            },
            &cookies,
        )
    }

    /// Topology name and role of an emulator node: the dpid map makes a
    /// switch, a SAP address a host, a NETCONF connection a container.
    /// A node the topology does not name keeps its emulator name.
    fn node_roles<'a>(&'a self) -> impl Fn(NodeId) -> (&'a str, NodeKind) + 'a {
        let roles: HashMap<NodeId, (&str, NodeKind)> = self
            .infra
            .nodes
            .iter()
            .map(|(name, &node)| {
                let kind = if self.infra.dpid.contains_key(name) {
                    NodeKind::Switch
                } else if self.infra.sap_addr.contains_key(name) {
                    NodeKind::Host
                } else if self.infra.netconf_conn.contains_key(name) {
                    NodeKind::Container
                } else {
                    NodeKind::Other
                };
                (node, (name.as_str(), kind))
            })
            .collect();
        move |n| {
            roles
                .get(&n)
                .copied()
                .unwrap_or_else(|| (self.sim.node_name(n), NodeKind::Other))
        }
    }

    /// Reconstructs journeys, publishes per-chain aggregates into the
    /// telemetry registry and returns the record.
    pub fn flight_record_aggregated(&self) -> FlightRecord {
        let fr = self.flight_record();
        fr.aggregate(&self.telemetry);
        fr
    }

    /// Evaluates every deployed chain's SLA (from its service graph)
    /// against the recorded traffic, in chain-name order. Chains without
    /// an SLA get a vacuous pass. The counts come from the live fold over
    /// the trace ring, looked up by each chain's steering cookie.
    pub fn sla_verdicts(&self) -> Vec<SlaVerdict> {
        let mut fold = self.observe.sla_fold.borrow_mut();
        // The roles map is built only when a record names a node the fold
        // has not met.
        let mut roles = None;
        let per_cookie = fold.tallies(self.sim.trace_epoch(), self.sim.trace.as_ref(), |n| {
            roles.get_or_insert_with(|| self.node_roles())(n)
        });
        let mut chains: Vec<(&str, u64)> = self
            .deployed
            .iter()
            .map(|(name, dc)| (name.as_str(), dc.cookie))
            .collect();
        chains.sort_unstable();
        debug_assert_eq!(
            chains.iter().map(|c| c.1).collect::<BTreeSet<_>>().len(),
            chains.len(),
            "cookies come from next_cookie, so live chains never share one"
        );
        chains
            .into_iter()
            .map(|(name, cookie)| {
                let tally = per_cookie.get(&cookie).copied().unwrap_or_default();
                flight::evaluate_sla(name, &self.sla_of(name), tally)
            })
            .collect()
    }

    /// A deployed chain's SLA, from the service graph it came from.
    fn sla_of(&self, chain: &str) -> Sla {
        self.graphs
            .get(chain)
            .and_then(|g| g.chains.iter().find(|c| c.name == chain))
            .and_then(|c| c.sla)
            .unwrap_or_default()
    }

    /// Live VNF state over NETCONF (`getVNFInfo`) — the Clicky view:
    /// returns (handler path, value) pairs of the named chain VNF.
    pub fn monitor_vnf(
        &mut self,
        chain: &str,
        vnf_name: &str,
    ) -> Result<Vec<(String, String)>, EscapeError> {
        let (container, vnf_id) = {
            let dc = self
                .deployed
                .get(chain)
                .ok_or_else(|| EscapeError::NotFound(format!("chain {chain}")))?;
            let v = dc
                .vnfs
                .iter()
                .find(|v| v.vnf_name == vnf_name)
                .ok_or_else(|| EscapeError::NotFound(format!("vnf {vnf_name} in {chain}")))?;
            (v.container.clone(), v.vnf_id.clone())
        };
        let vid = vnf_id.clone();
        let reply = self.rpc(&container, |c| c.get_vnf_info(Some(&vid)))?;
        let ReplyBody::Data(data) = &reply.body else {
            return Err(EscapeError::Netconf("getVNFInfo returned no data".into()));
        };
        let mut out = Vec::new();
        for vnfs in data {
            for vnf in vnfs.find_all("vnf") {
                if vnf.child_text("id") == Some(vnf_id.as_str()) {
                    out.push((
                        "status".to_string(),
                        vnf.child_text("status").unwrap_or("").to_string(),
                    ));
                    for h in vnf.find_all("handler") {
                        out.push((
                            h.child_text("name").unwrap_or("").to_string(),
                            h.child_text("value").unwrap_or("").to_string(),
                        ));
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_netem::Time;
    use escape_orch::NearestNeighbor;
    use escape_pox::SteeringMode;
    use escape_sg::{topo::builders, ServiceGraph};

    /// A one-VNF chain from `sap0` to `sap1` with an SLA no delivered
    /// packet meets, so every verdict prints its worst latency.
    fn graph(chain: &str) -> ServiceGraph {
        let fw = format!("{chain}-fw");
        ServiceGraph::new()
            .sap("sap0")
            .sap("sap1")
            .vnf(&fw, "firewall", 0.5, 64)
            .chain(chain, &["sap0", &fw, "sap1"], 10.0, None)
            .with_sla(Sla {
                max_latency_us: Some(1),
                max_loss: Some(0.0),
            })
    }

    fn verdicts(esc: &Escape) -> Vec<String> {
        esc.sla_verdicts().iter().map(ToString::to_string).collect()
    }

    /// The verdicts computed afresh: `reconstruct`, then the journey fold.
    fn fresh(esc: &Escape) -> Vec<String> {
        let tallies = flight::journey_tallies(&esc.flight_record());
        let mut chains = esc.deployed_chains();
        chains.sort();
        chains
            .iter()
            .map(|c| {
                let tally = tallies.get(c).copied().unwrap_or_default();
                flight::evaluate_sla(c, &esc.sla_of(c), tally).to_string()
            })
            .collect()
    }

    /// Ten frames of `len` bytes through whatever chain is deployed.
    fn send(esc: &mut Escape, len: usize) {
        esc.start_udp("sap0", "sap1", len, 200, 10).unwrap();
        esc.run_for_ms(20);
    }

    fn ring_end(esc: &Escape) -> u64 {
        esc.sim.trace.as_ref().expect("recorder on").seq_end()
    }

    #[test]
    fn memoised_verdicts_are_never_stale() {
        let mut esc = Escape::build(
            builders::linear(2, 4.0),
            Box::new(NearestNeighbor),
            SteeringMode::Proactive,
            7,
        )
        .unwrap();
        esc.deploy(&graph("a")).unwrap();
        esc.enable_flight_recorder(4096);
        let idle = verdicts(&esc);

        // Traffic moves the ring's end.
        send(&mut esc, 128);
        let busy = verdicts(&esc);
        assert_ne!(busy, idle);
        assert_eq!(busy, fresh(&esc));

        // The chain set moves while the ring stands still.
        let end = ring_end(&esc);
        esc.teardown("a").unwrap();
        assert_eq!(verdicts(&esc), fresh(&esc));
        assert!(verdicts(&esc).is_empty(), "a torn-down chain disappears");
        esc.deploy(&graph("b")).unwrap();
        assert_eq!(verdicts(&esc), fresh(&esc));
        assert!(
            verdicts(&esc)[0].starts_with("chain b "),
            "{:?}",
            verdicts(&esc)
        );
        assert_eq!(ring_end(&esc), end, "no record between the verdicts");

        // A new ring reaches the old one's position with other records:
        // the same frames at another size, so another worst latency.
        esc.enable_flight_recorder(4096);
        send(&mut esc, 128);
        let end = ring_end(&esc);
        let small = verdicts(&esc);
        esc.sim.enable_trace(4096);
        send(&mut esc, 1400);
        assert_eq!(ring_end(&esc), end);
        let large = verdicts(&esc);
        assert_ne!(large, small);
        assert_eq!(large, fresh(&esc));
        esc.enable_flight_recorder(4096);
        send(&mut esc, 700);
        assert_eq!(ring_end(&esc), end);
        let middle = verdicts(&esc);
        assert_ne!(middle, large);
        assert_eq!(middle, fresh(&esc));
    }

    /// A 150-record ring holds about nine journeys, so every stream below
    /// wraps it, and the queries between its frames see journeys whose
    /// heads were evicted since the previous query.
    #[test]
    fn verdicts_stay_fresh_while_the_ring_wraps() {
        let mut esc = Escape::build(
            builders::linear(2, 4.0),
            Box::new(NearestNeighbor),
            SteeringMode::Proactive,
            7,
        )
        .unwrap();
        let sap0 = esc.infra.nodes["sap0"];
        // Queries that found the oldest retained record past its packet's
        // origin send: a journey cut at the head.
        let mut cut_heads = 0;
        let mut stream = |esc: &mut Escape, len: usize, frames: u64| {
            esc.start_udp("sap0", "sap1", len, 150, frames).unwrap();
            for _ in 0..frames * 3 {
                esc.run_until(esc.now() + Time::from_us(70));
                assert_eq!(verdicts(esc), fresh(esc), "at {}", esc.now());
                let trace = esc.sim.trace.as_ref().expect("recorder on");
                cut_heads += usize::from(trace.records().next().is_some_and(|r| r.node != sap0));
            }
        };
        esc.deploy(&graph("a")).unwrap();
        esc.enable_flight_recorder(150);
        for (i, frames) in [3, 7, 12, 5].into_iter().enumerate() {
            stream(&mut esc, 128 + 400 * i, frames);
        }
        assert!(esc.sim.trace.as_ref().unwrap().evicted() > 150);

        // Teardown and redeploy on a ring that does not move.
        let end = ring_end(&esc);
        esc.teardown("a").unwrap();
        assert_eq!(verdicts(&esc), fresh(&esc));
        esc.deploy(&graph("a")).unwrap();
        assert_eq!(verdicts(&esc), fresh(&esc));
        esc.deploy(&graph("b")).unwrap();
        assert_eq!(verdicts(&esc), fresh(&esc));
        assert_eq!(ring_end(&esc), end, "no record between the verdicts");
        stream(&mut esc, 900, 9);

        // A new ring while frames are on the wire: their journeys start
        // mid-path in it.
        esc.start_udp("sap0", "sap1", 300, 150, 6).unwrap();
        esc.run_until(esc.now() + Time::from_us(400));
        assert_eq!(verdicts(&esc), fresh(&esc));
        esc.enable_flight_recorder(150);
        assert_eq!(verdicts(&esc), fresh(&esc));
        stream(&mut esc, 64, 10);
        assert!(cut_heads > 20, "only {cut_heads} queries saw a cut journey");
    }

    /// A zero-capacity recorder is no recorder: nodes build no records
    /// and the sample tick judges nothing, so it journals no flip.
    #[test]
    fn a_zero_capacity_flight_recorder_is_off() {
        let mut esc = Escape::build(
            builders::linear(2, 4.0),
            Box::new(NearestNeighbor),
            SteeringMode::Proactive,
            7,
        )
        .unwrap();
        esc.enable_sampler(SamplerConfig {
            period_ns: 1_000_000,
            retention: 64,
        });
        esc.enable_flight_recorder(0);
        esc.deploy(&graph("a")).unwrap();
        send(&mut esc, 128);
        assert!(esc.sim.trace.is_none());
        let flips = esc
            .journal()
            .entries()
            .filter(|e| e.kind == JournalKind::SlaFlip);
        assert_eq!(flips.count(), 0);
        assert!(verdicts(&esc)[0].contains(": 0 delivered"));
    }
}
