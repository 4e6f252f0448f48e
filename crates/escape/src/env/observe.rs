//! Observation: the typed event journal, the periodic sampler and its
//! sample-point observers, the packet flight recorder with per-chain
//! SLA verdicts, and live VNF state over NETCONF.

use super::{DeployedChain, Escape};
use crate::error::EscapeError;
use crate::flight::{self, FlightRecord, LiveFold, NodeKind, SlaVerdict, Tally};
use crate::journal::{Journal, JournalKind, Severity, DEFAULT_JOURNAL_CAP};
use escape_netconf::message::ReplyBody;
use escape_netem::{NodeId, Trace};
use escape_sg::Sla;
use escape_telemetry::{Registry, Sampler, SamplerConfig, Snapshot, Tracer};
use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;

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
    pub(super) sla_last: BTreeMap<String, bool>,
    /// The verdict book's stamp at the sample point that last read it.
    sla_seen: u64,
    /// `openflow.cache_invalidations` total at the previous sample
    /// point, for storm detection.
    last_cache_invalidations: u64,
    /// Every live chain's SLA verdict, kept between calls and shared by
    /// the sample tick, the watch publisher and the `sla` verb.
    book: RefCell<VerdictBook>,
    /// The sample tick judges every chain afresh instead: the reference
    /// the book's flips are tested against.
    #[cfg(test)]
    judge_every_chain: bool,
}

impl Observation {
    pub(super) fn new(telemetry: &Registry) -> Observation {
        Observation {
            journal: Journal::new(telemetry, DEFAULT_JOURNAL_CAP),
            sampler: None,
            sla_last: BTreeMap::new(),
            sla_seen: 0,
            last_cache_invalidations: 0,
            book: RefCell::default(),
            #[cfg(test)]
            judge_every_chain: false,
        }
    }
}

/// One live chain in the [`VerdictBook`].
struct Judged {
    sla: Sla,
    /// The tally `verdict` was judged on.
    tally: Tally,
    verdict: SlaVerdict,
    /// When `verdict` last changed.
    stamp: u64,
}

/// Every live chain's SLA verdict on the traffic the trace ring holds.
/// A chain is judged again only when the [`LiveFold`] moved its cookie's
/// tally, when it is deployed (again), or when the fold starts over on a
/// new ring or past a horizon it never saw. Each change of a verdict
/// takes the next stamp, so a reader that keeps the last stamp it saw
/// finds what changed since without looking at the other chains.
#[derive(Default)]
pub(super) struct VerdictBook {
    fold: LiveFold,
    /// Live chains by steering cookie: live chains never share one.
    by_cookie: BTreeMap<u64, Judged>,
    /// Chain name -> cookie, in the order verdicts are listed.
    by_name: BTreeMap<String, u64>,
    /// Stamp -> cookie, one per live chain: the stamp of its verdict.
    by_stamp: BTreeMap<u64, u64>,
    /// The newest stamp handed out; 0 before the first.
    stamp: u64,
    /// Chains judged so far, counted for the tests of the work a call
    /// does.
    judged: u64,
}

impl VerdictBook {
    /// Enters `chain`, steered by `cookie`, judged against `sla` on the
    /// tally the fold holds for its cookie; a chain already in the book
    /// is replaced.
    fn deployed(&mut self, chain: &str, cookie: u64, sla: Sla) {
        self.removed(chain);
        debug_assert!(
            !self.by_cookie.contains_key(&cookie),
            "cookies come from next_cookie, so live chains never share one"
        );
        let tally = self.fold.tally(cookie);
        self.judged += 1;
        self.stamp += 1;
        self.by_name.insert(chain.to_string(), cookie);
        self.by_stamp.insert(self.stamp, cookie);
        let entry = Judged {
            sla,
            tally,
            verdict: flight::evaluate_sla(chain, &sla, tally),
            stamp: self.stamp,
        };
        self.by_cookie.insert(cookie, entry);
    }

    /// Takes `chain` out of the book, if it is there.
    fn removed(&mut self, chain: &str) {
        if let Some(cookie) = self.by_name.remove(chain) {
            let judged = self
                .by_cookie
                .remove(&cookie)
                .expect("a named chain is booked");
            self.by_stamp.remove(&judged.stamp);
        }
    }

    /// Folds what the ring did since the last call and judges again the
    /// chains whose tally it moved: every chain when the fold started
    /// over.
    fn refresh<'n>(
        &mut self,
        epoch: u64,
        trace: Option<&Trace>,
        resolve: impl FnMut(NodeId) -> (&'n str, NodeKind),
    ) {
        let cookies = match self.fold.fold(epoch, trace, resolve) {
            Some(moved) => moved,
            None => self.by_cookie.keys().copied().collect(),
        };
        for cookie in cookies {
            self.judge(cookie);
        }
    }

    /// Judges the chain steered by `cookie` again, if one is; a verdict
    /// that changes takes the next stamp.
    fn judge(&mut self, cookie: u64) {
        let Some(j) = self.by_cookie.get_mut(&cookie) else {
            return;
        };
        self.judged += 1;
        let tally = self.fold.tally(cookie);
        if tally == j.tally {
            return;
        }
        j.tally = tally;
        j.verdict = flight::evaluate_sla(&j.verdict.chain, &j.sla, tally);
        self.stamp += 1;
        self.by_stamp.remove(&j.stamp);
        self.by_stamp.insert(self.stamp, cookie);
        j.stamp = self.stamp;
    }

    /// Every live chain's verdict, in chain-name order.
    fn verdicts(&self) -> impl Iterator<Item = &SlaVerdict> {
        self.by_name.values().map(|c| &self.by_cookie[c].verdict)
    }

    /// The verdicts that changed after stamp `since`, in chain-name
    /// order.
    fn since(&self, since: u64) -> Vec<&SlaVerdict> {
        let mut changed: Vec<&SlaVerdict> = self
            .by_stamp
            .range(since + 1..)
            .map(|(_, c)| &self.by_cookie[c].verdict)
            .collect();
        changed.sort_unstable_by(|a, b| a.chain.cmp(&b.chain));
        changed
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
        // A chain whose verdict did not change since the last sample
        // point cannot have flipped.
        if self.sim.trace.is_some() {
            let (changed, seen) = self.sla_verdicts_since(self.observe.sla_seen);
            self.observe.sla_seen = seen;
            #[cfg(test)]
            let changed = if self.observe.judge_every_chain {
                self.fresh_verdicts()
            } else {
                changed
            };
            for v in changed {
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
        let cookies: BTreeMap<u64, String> = self
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
        // Indexed by node id.
        let mut roles: Vec<Option<(&str, NodeKind)>> = Vec::new();
        for (name, &node) in &self.infra.nodes {
            let kind = if self.infra.dpid.contains_key(name) {
                NodeKind::Switch
            } else if self.infra.sap_addr.contains_key(name) {
                NodeKind::Host
            } else if self.infra.netconf_conn.contains_key(name) {
                NodeKind::Container
            } else {
                NodeKind::Other
            };
            let i = node.0 as usize;
            if roles.len() <= i {
                roles.resize(i + 1, None);
            }
            roles[i] = Some((name.as_str(), kind));
        }
        move |n| {
            roles
                .get(n.0 as usize)
                .copied()
                .flatten()
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
    /// an SLA get a vacuous pass. The verdicts come from the verdict
    /// book, which judges a chain again only when the traffic its
    /// steering cookie marks moved in the trace ring.
    pub fn sla_verdicts(&self) -> Vec<SlaVerdict> {
        self.verdict_book().verdicts().cloned().collect()
    }

    /// The verdicts that changed since `since`, in chain-name order, and
    /// the stamp to pass next time to see only what changes after this
    /// call. `since` 0 names every deployed chain. A chain deployed again
    /// counts as changed.
    pub fn sla_verdicts_since(&self, since: u64) -> (Vec<SlaVerdict>, u64) {
        let book = self.verdict_book();
        let changed = book.since(since).into_iter().cloned().collect();
        (changed, book.stamp)
    }

    /// Every deployed chain's verdict judged afresh, in chain-name order:
    /// [`flight::reconstruct`], then the journey fold.
    #[cfg(test)]
    fn fresh_verdicts(&self) -> Vec<SlaVerdict> {
        let tallies = flight::journey_tallies(&self.flight_record());
        self.deployed_chains()
            .iter()
            .map(|c| {
                let tally = tallies.get(c).copied().unwrap_or_default();
                flight::evaluate_sla(c, &self.sla_of(c), tally)
            })
            .collect()
    }

    /// The verdict book, brought up to the trace ring as it stands.
    fn verdict_book(&self) -> RefMut<'_, VerdictBook> {
        let mut book = self.observe.book.borrow_mut();
        // The roles map is built only when a record names a node the fold
        // has not met.
        let mut roles = None;
        book.refresh(self.sim.trace_epoch(), self.sim.trace.as_ref(), |n| {
            roles.get_or_insert_with(|| self.node_roles())(n)
        });
        book
    }

    /// Makes `dc` the live record of `chain` and enters the chain in the
    /// verdict book. The chain's service graph must be cached already:
    /// the book takes the chain's SLA from it.
    pub(super) fn go_live(&mut self, chain: String, dc: DeployedChain) {
        let sla = self.sla_of(&chain);
        self.observe.book.get_mut().deployed(&chain, dc.cookie, sla);
        self.deployed.insert(chain, dc);
    }

    /// Takes `chain` out of the live set and the verdict book.
    pub(super) fn forget_chain(&mut self, chain: &str) -> Option<DeployedChain> {
        self.observe.book.get_mut().removed(chain);
        self.deployed.remove(chain)
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
    use crate::ops::OpMix;
    use escape_netem::Time;
    use escape_orch::NearestNeighbor;
    use escape_pox::SteeringMode;
    use escape_sg::{topo::builders, ServiceGraph};

    /// A one-VNF chain from `sap0` to `sap1` with an SLA no delivered
    /// packet meets, so every verdict prints its worst latency.
    fn graph(chain: &str) -> ServiceGraph {
        graph_between(chain, "sap0", "sap1")
    }

    /// [`graph`]'s chain between two other SAPs.
    fn graph_between(chain: &str, from: &str, to: &str) -> ServiceGraph {
        let fw = format!("{chain}-fw");
        ServiceGraph::new()
            .sap(from)
            .sap(to)
            .vnf(&fw, "firewall", 0.5, 64)
            .chain(chain, &[from, &fw, to], 10.0, None)
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
        esc.fresh_verdicts()
            .iter()
            .map(ToString::to_string)
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

    /// The sample-point flip notes journaled after `seq`.
    fn flips_since(esc: &Escape, seq: u64) -> impl Iterator<Item = String> + '_ {
        esc.journal()
            .events_since(seq)
            .filter(|e| e.kind == JournalKind::SlaFlip)
            .map(ToString::to_string)
    }

    /// Over the op mix (recorder 1 024, sampler on), the book holds the
    /// verdicts judged afresh after every step, and the sample ticks
    /// journal the flips that a tick judging every chain afresh does.
    #[test]
    fn the_book_follows_the_op_mix() {
        let mut s = crate::ops::session(7, SteeringMode::Proactive);
        let mut reference = crate::ops::session(7, SteeringMode::Proactive);
        reference.escape_mut().observe.judge_every_chain = true;
        let (mut mix, mut reference_mix) = (OpMix::new(7), OpMix::new(7));
        let (mut flips, mut reference_flips) = (Vec::new(), Vec::new());
        let (mut seq, mut reference_seq) = (0, 0);
        for step in 0..320 {
            let op = mix.step(&mut s).text;
            assert_eq!(reference_mix.step(&mut reference).text, op);
            let (esc, reference) = (s.escape(), reference.escape());
            assert_eq!(verdicts(esc), fresh(esc), "step {step}: {op}");
            flips.extend(flips_since(esc, seq));
            reference_flips.extend(flips_since(reference, reference_seq));
            assert_eq!(flips, reference_flips, "step {step}: {op}");
            (seq, reference_seq) = (esc.journal().seq_end(), reference.journal().seq_end());
        }
        let fails = flips.iter().filter(|f| f.contains(": fail")).count();
        assert!(
            flips.len() >= 50 && fails >= 3,
            "{fails} of {} flips fail",
            flips.len()
        );
    }

    /// A tick judges a chain again only when the ring moved its
    /// cookie's tally, or when the chain was deployed again.
    #[test]
    fn a_tick_judges_only_the_chains_whose_traffic_moved() {
        let mut esc = Escape::build(
            builders::star(4, 4.0),
            Box::new(NearestNeighbor),
            SteeringMode::Proactive,
            7,
        )
        .unwrap();
        esc.deploy(&graph_between("a", "sap0", "sap1")).unwrap();
        esc.deploy(&graph_between("b", "sap2", "sap3")).unwrap();
        esc.enable_flight_recorder(4096);
        let judged = |esc: &Escape| esc.observe.book.borrow().judged;
        // A new ring: the fold starts over and both chains are judged.
        let before = judged(&esc);
        esc.observe_tick();
        assert_eq!(judged(&esc) - before, 2);

        let before = judged(&esc);
        esc.observe_tick();
        assert_eq!(
            judged(&esc),
            before,
            "a tick on an unmoved ring judges nothing"
        );

        let stamp = esc.sla_verdicts_since(0).1;
        send(&mut esc, 128);
        let (before, seq) = (judged(&esc), esc.journal().seq_end());
        esc.observe_tick();
        assert_eq!(judged(&esc) - before, 1, "only a carried traffic");
        let changed = esc.sla_verdicts_since(stamp).0;
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].chain, "a");
        assert!(!changed[0].pass);
        let flipped: Vec<String> = flips_since(&esc, seq).collect();
        assert_eq!(flipped.len(), 1);
        assert!(flipped[0].contains("chain a: fail"), "{flipped:?}");

        // Deployed again on a ring that stands still: a new cookie with
        // no traffic passes, and the next tick says so.
        esc.teardown("a").unwrap();
        esc.deploy(&graph_between("a", "sap0", "sap1")).unwrap();
        let seq = esc.journal().seq_end();
        let before = judged(&esc);
        esc.observe_tick();
        assert_eq!(judged(&esc), before, "the deploy judged it already");
        let flipped: Vec<String> = flips_since(&esc, seq).collect();
        assert_eq!(flipped.len(), 1);
        assert!(flipped[0].contains("chain a: pass"), "{flipped:?}");
        assert_eq!(verdicts(&esc), fresh(&esc));
    }
}
