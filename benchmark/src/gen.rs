//! Seed-determined inputs: the leaf–spine substrate, the 120 base chains
//! and every workload's request script. The daemon receives only what
//! this module generates.
//!
//! The seed picks which SAP pairs the chains join, the VNF types and the
//! order in which chains are exercised. It never changes how much work a
//! run does, and every choice it makes is safe by construction: no seed
//! can produce a request that fails.

use escape_ctl::proto::{CtlRequest, MetricsFormat, SgFormat};

pub const SPINES: usize = 2;
pub const LEAVES: usize = 10;
pub const CONTAINERS_PER_LEAF: usize = 8;
pub const SAPS_PER_LEAF: usize = 4;
/// Leaves whose containers host only elastic chains.
pub const ELASTIC_LEAVES: usize = 2;
pub const ELASTIC_CHAINS: usize = 12;
pub const STATIC_CHAINS: usize = 108;
pub const BASE_CHAINS: usize = ELASTIC_CHAINS + STATIC_CHAINS;
/// Static chains that only ever carry traffic; the rest are redeployed.
pub const LONG_LIVED: usize = 72;

/// An elastic chain asks for this much bandwidth. Its path crosses the
/// primary's 10 Gbps container link twice, so the link admits exactly
/// one elastic chain and `nearest` puts each primary in a container of
/// its own. That leaves room for the replicas, whose reservations land
/// in the primary's container (cpu 3 × 0.25 of 1, attachment points
/// 3 × 2 of `escape::infra::ATTACH_POINTS_PER_LINK` = 8) — two limits
/// the orchestrator does not model when it places primaries.
const ELASTIC_MBPS: u32 = 4_000;
const STATIC_MBPS: u32 = 10;
const STATIC_TYPES: [&str; 4] = ["firewall", "monitor", "nat", "dpi"];

pub const FRAME_LEN: u64 = 128;
pub const FRAME_INTERVAL_US: u64 = 20;
/// A `churn_under_traffic` stream: 4 000 frames, 80 ms of virtual time.
pub const CHURN_STREAM_FRAMES: u64 = 4_000;
/// The `run-for` that closes a `churn_under_traffic` round and drains
/// what is in flight.
pub const CHURN_DRAIN_MS: u64 = 20;

/// splitmix64: the generator's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn leaf(l: usize) -> String {
    format!("lf{l:02}")
}

fn sap(l: usize, j: usize) -> String {
    format!("h{l:02}_{j}")
}

/// One base chain: its SAP pair, its VNFs and the service graph text a
/// `deploy` ships.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    pub name: String,
    pub src: String,
    pub dst: String,
    pub vnfs: Vec<String>,
    pub sg: String,
}

impl ChainSpec {
    fn build(name: String, src: String, dst: String, types: &[&str], mbps: u32, sla: bool) -> Self {
        let vnfs: Vec<String> = (0..types.len()).map(|i| format!("{name}v{i}")).collect();
        let mut sg = format!("sap {src} {dst}\n");
        for (v, ty) in vnfs.iter().zip(types) {
            sg.push_str(&format!("vnf {v} type={ty} cpu=0.25 mem=64\n"));
        }
        let sla = if sla {
            " sla_delay=5ms sla_loss=0.01"
        } else {
            ""
        };
        sg.push_str(&format!(
            "chain {name} = {src} -> {} -> {dst} bw={mbps}{sla}\n",
            vnfs.join(" -> ")
        ));
        ChainSpec {
            name,
            src,
            dst,
            vnfs,
            sg,
        }
    }

    pub fn deploy(&self) -> CtlRequest {
        CtlRequest::Deploy {
            sg: self.sg.clone(),
            format: SgFormat::Dsl,
        }
    }

    pub fn teardown(&self) -> CtlRequest {
        CtlRequest::Teardown {
            chain: self.name.clone(),
        }
    }

    pub fn traffic(&self, frames: u64) -> CtlRequest {
        CtlRequest::Traffic {
            from: self.src.clone(),
            to: self.dst.clone(),
            frames,
            len: FRAME_LEN,
            interval_us: FRAME_INTERVAL_US,
        }
    }

    fn scale(&self, replicas: u64) -> CtlRequest {
        CtlRequest::Scale {
            chain: self.name.clone(),
            vnf: self.vnfs[0].clone(),
            replicas,
        }
    }
}

/// The generated substrate: topology text plus the base chains, elastic
/// first (they must be placed while their leaves are empty).
pub struct Substrate {
    pub topo: String,
    pub elastic: Vec<ChainSpec>,
    /// `[..LONG_LIVED]` carry traffic, `[LONG_LIVED..]` are redeployed.
    pub statics: Vec<ChainSpec>,
}

impl Substrate {
    /// `sla` attaches an SLA to every chain (the observed workload).
    pub fn generate(seed: u64, sla: bool) -> Substrate {
        let mut rng = Rng::new(seed ^ 0x5eed_5ab5_7a7e);
        Substrate {
            topo: topology(),
            elastic: elastic_chains(&mut rng, sla),
            statics: static_chains(&mut rng, sla),
        }
    }

    /// All base chains in set-up order.
    pub fn base_chains(&self) -> impl Iterator<Item = &ChainSpec> {
        self.elastic.iter().chain(&self.statics)
    }
}

fn topology() -> String {
    let mut t = String::from("# escape-e2e-bench leaf-spine fabric\n");
    for s in 0..SPINES {
        t.push_str(&format!("switch sp{s}\n"));
    }
    for l in 0..LEAVES {
        let lf = leaf(l);
        t.push_str(&format!("switch {lf}\n"));
        for s in 0..SPINES {
            t.push_str(&format!("link {lf} sp{s} bw=40000 delay=50us\n"));
        }
        for i in 0..CONTAINERS_PER_LEAF {
            t.push_str(&format!("container c{l:02}_{i} cpu=1 mem=1024\n"));
            t.push_str(&format!("link c{l:02}_{i} {lf} bw=10000 delay=20us\n"));
        }
        for j in 0..SAPS_PER_LEAF {
            let h = sap(l, j);
            t.push_str(&format!("sap {h}\nlink {h} {lf} bw=10000 delay=10us\n"));
        }
    }
    t
}

/// Six chains per elastic leaf, sourced 2,2,1,1 from its SAPs (a
/// 10 Gbps SAP link carries two of them), each to a SAP of its own on a
/// leaf that is not elastic.
fn elastic_chains(rng: &mut Rng, sla: bool) -> Vec<ChainSpec> {
    let mut dsts: Vec<String> = (ELASTIC_LEAVES..LEAVES)
        .flat_map(|l| (0..SAPS_PER_LEAF).map(move |j| sap(l, j)))
        .collect();
    rng.shuffle(&mut dsts);
    let per_leaf = ELASTIC_CHAINS / ELASTIC_LEAVES;
    (0..ELASTIC_CHAINS)
        .map(|k| {
            let (l, i) = (k / per_leaf, k % per_leaf);
            ChainSpec::build(
                format!("el{k:02}"),
                sap(l, i % SAPS_PER_LEAF),
                dsts[k].clone(),
                &["monitor"],
                ELASTIC_MBPS,
                sla,
            )
        })
        .collect()
}

/// Two co-located VNFs per chain, sourced round-robin from the SAPs of
/// the leaves that are not elastic (13 or 14 chains per leaf; its
/// containers hold 16), each source reaching distinct SAPs on other
/// leaves, so no ordered SAP pair — the steering key — repeats.
fn static_chains(rng: &mut Rng, sla: bool) -> Vec<ChainSpec> {
    let src_leaves = LEAVES - ELASTIC_LEAVES;
    let mut chains = Vec::with_capacity(STATIC_CHAINS);
    let mut dst_pool: Vec<Vec<String>> = Vec::new();
    for l in ELASTIC_LEAVES..LEAVES {
        for _ in 0..SAPS_PER_LEAF {
            let mut pool: Vec<String> = (0..LEAVES)
                .filter(|&o| o != l)
                .flat_map(|o| (0..SAPS_PER_LEAF).map(move |j| sap(o, j)))
                .collect();
            rng.shuffle(&mut pool);
            dst_pool.push(pool);
        }
    }
    for k in 0..STATIC_CHAINS {
        let l = ELASTIC_LEAVES + k % src_leaves;
        let j = (k / src_leaves) % SAPS_PER_LEAF;
        let pool = &mut dst_pool[(l - ELASTIC_LEAVES) * SAPS_PER_LEAF + j];
        let dst = pool.pop().expect("a source has 36 candidate destinations");
        let types = [
            STATIC_TYPES[rng.below(STATIC_TYPES.len())],
            STATIC_TYPES[rng.below(STATIC_TYPES.len())],
        ];
        chains.push(ChainSpec::build(
            format!("st{k:03}"),
            sap(l, j),
            dst,
            &types,
            STATIC_MBPS,
            sla,
        ));
    }
    rng.shuffle(&mut chains);
    chains
}

/// The daemon options a workload runs with, for both targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observability {
    pub flight_recorder: usize,
    pub sample_ms: u64,
    pub sample_retention: usize,
}

impl Observability {
    pub const OFF: Observability = Observability {
        flight_recorder: 0,
        sample_ms: 0,
        sample_retention: 0,
    };
    /// `escaped`'s shipped defaults.
    pub const DEFAULT: Observability = Observability {
        flight_recorder: 65_536,
        sample_ms: 5,
        sample_retention: 120,
    };
}

/// The four workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DataplaneBare,
    DataplaneObserved,
    LifecycleChurn,
    ChurnUnderTraffic,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DataplaneBare,
        Workload::DataplaneObserved,
        Workload::LifecycleChurn,
        Workload::ChurnUnderTraffic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DataplaneBare => "dataplane_bare",
            Workload::DataplaneObserved => "dataplane_observed",
            Workload::LifecycleChurn => "lifecycle_churn",
            Workload::ChurnUnderTraffic => "churn_under_traffic",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Flight recorder, sampler, SLAs and a `watch` subscriber on.
    pub fn observed(self) -> bool {
        self == Workload::DataplaneObserved
    }

    pub fn observability(self) -> Observability {
        if self.observed() {
            Observability::DEFAULT
        } else {
            Observability::OFF
        }
    }

    /// Warm-up and scored rounds at `--seconds 25`, chosen so a whole
    /// run takes about 25 s on the reference host in its slow regime.
    fn rounds_at_25(self) -> (u64, u64) {
        match self {
            Workload::DataplaneBare => (24, 200),
            Workload::DataplaneObserved => (MIN_WARM, 60),
            Workload::LifecycleChurn => (24, 240),
            Workload::ChurnUnderTraffic => (12, 90),
        }
    }
}

/// A `dataplane_observed` round leaves 6 800 records in the flight
/// recorder's 65 536-record ring, so ten rounds wrap it; no run of any
/// workload scores a round before that.
const MIN_WARM: u64 = 10;

/// How much work one run does: a function of the flags only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub warm: u64,
    pub scored: u64,
    pub setups: u64,
    pub recoveries: u64,
}

impl Plan {
    /// `--trace 1` also replays the script in process and runs the
    /// probes, so its socket run is cut to half the warm-up (never below
    /// [`MIN_WARM`]), a quarter of the scored rounds (never below two:
    /// the replay compares a traced round with a plain one) and one
    /// set-up to fit the same budget.
    pub fn new(w: Workload, seconds: u64, trace: bool) -> Plan {
        let (warm, scored) = w.rounds_at_25();
        let scale = |n: u64| (n * seconds).div_ceil(25).max(1);
        let warm = scale(warm).max(MIN_WARM);
        if trace {
            Plan {
                warm: warm.div_ceil(2).max(MIN_WARM),
                scored: scale(scored).div_ceil(4).max(2),
                setups: 1,
                recoveries: 3,
            }
        } else {
            Plan {
                warm,
                scored: scale(scored),
                setups: 3,
                recoveries: 3,
            }
        }
    }

    pub fn rounds(&self) -> u64 {
        self.warm + self.scored
    }
}

/// True for the requests that advance the virtual clock. Whatever
/// traffic is live is simulated inside them, so frames are delivered
/// during a `deploy` as they are during a `run-for`. (The in-process
/// target fails a request outside this set that moves the clock.)
pub fn advances_clock(req: &CtlRequest) -> bool {
    matches!(
        req,
        CtlRequest::RunFor { .. }
            | CtlRequest::Deploy { .. }
            | CtlRequest::Teardown { .. }
            | CtlRequest::Scale { .. }
            | CtlRequest::Heal
    )
}

/// What a request is, for per-verb accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    Deploy,
    Teardown,
    Scale,
    Traffic,
    RunFor,
    Status,
    Metrics,
    Series,
    Sla,
    Fault,
    Heal,
}

impl Verb {
    pub const ALL: [Verb; 11] = [
        Verb::Deploy,
        Verb::Teardown,
        Verb::Scale,
        Verb::Traffic,
        Verb::RunFor,
        Verb::Status,
        Verb::Metrics,
        Verb::Series,
        Verb::Sla,
        Verb::Fault,
        Verb::Heal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Deploy => "deploy",
            Verb::Teardown => "teardown",
            Verb::Scale => "scale",
            Verb::Traffic => "traffic",
            Verb::RunFor => "run_for",
            Verb::Status => "status",
            Verb::Metrics => "metrics",
            Verb::Series => "series",
            Verb::Sla => "sla",
            Verb::Fault => "fault",
            Verb::Heal => "heal",
        }
    }

    pub fn of(req: &CtlRequest) -> Verb {
        match req {
            CtlRequest::Deploy { .. } => Verb::Deploy,
            CtlRequest::Teardown { .. } => Verb::Teardown,
            CtlRequest::Scale { .. } => Verb::Scale,
            CtlRequest::Traffic { .. } => Verb::Traffic,
            CtlRequest::RunFor { .. } => Verb::RunFor,
            CtlRequest::Status => Verb::Status,
            CtlRequest::Metrics { .. } => Verb::Metrics,
            CtlRequest::Series => Verb::Series,
            CtlRequest::Sla => Verb::Sla,
            CtlRequest::Fault { .. } => Verb::Fault,
            CtlRequest::Heal => Verb::Heal,
            other => unreachable!("the script never issues {other:?}"),
        }
    }
}

/// One round of requests. Every round of every workload carries traffic,
/// `run-for`, at least one redeploy (a `teardown` directly followed by
/// the `deploy` of the same chain) and exactly one poll sweep (`status`,
/// `metrics`, `series`, `sla`, last in the round), and leaves the set of
/// live chains and their replica counts as it found them.
///
/// `journal` is not polled in the rounds: its reply grows with history
/// until the 4096-entry ring is full, and `escape_json` parses a string
/// in time quadratic in its length, so a full ring costs seconds per
/// reply on the client and every workload would measure that. It is
/// read at the checkpoint instead (`ctl.verb.journal.p50_ms`).
pub struct Round {
    pub ops: Vec<CtlRequest>,
    pub redeploys: u64,
}

/// Rotating cursors over the chain sets; one instance generates every
/// round of a run, so round `r` is the same whatever the round count.
struct Cursors<'a> {
    sub: &'a Substrate,
    traffic: usize,
    churn: usize,
    elastic: usize,
    fault: usize,
}

impl<'a> Cursors<'a> {
    fn long_lived(&mut self) -> &'a ChainSpec {
        let c = &self.sub.statics[self.traffic % LONG_LIVED];
        self.traffic += 1;
        c
    }

    fn churned(&mut self) -> &'a ChainSpec {
        let n = STATIC_CHAINS - LONG_LIVED;
        let c = &self.sub.statics[LONG_LIVED + self.churn % n];
        self.churn += 1;
        c
    }

    fn elastic(&mut self) -> &'a ChainSpec {
        let c = &self.sub.elastic[self.elastic % ELASTIC_CHAINS];
        self.elastic += 1;
        c
    }

    /// Takes one uplink of one leaf down for 2 ms. Only one: with both
    /// spines unreachable the heal pass abandons the leaf's chains.
    /// Leaves and spines alternate so the link usually carries chains.
    fn fault_plan(&mut self) -> CtlRequest {
        let n = self.fault;
        self.fault += 1;
        let lf = leaf(ELASTIC_LEAVES + n % (LEAVES - ELASTIC_LEAVES));
        let sp = format!("sp{}", (n / (LEAVES - ELASTIC_LEAVES)) % SPINES);
        CtlRequest::Fault {
            plan: format!(
                "{{\"name\": \"uplink-{n}\", \"events\": [\
                 {{\"at_us\": 1000, \"kind\": \"link_down\", \"a\": \"{lf}\", \"b\": \"{sp}\"}}, \
                 {{\"at_us\": 3000, \"kind\": \"link_up\", \"a\": \"{lf}\", \"b\": \"{sp}\"}}]}}"
            ),
        }
    }
}

fn redeploy(ops: &mut Vec<CtlRequest>, c: &ChainSpec) {
    ops.push(c.teardown());
    ops.push(c.deploy());
}

fn poll(ops: &mut Vec<CtlRequest>) {
    ops.extend([
        CtlRequest::Status,
        CtlRequest::Metrics {
            format: MetricsFormat::Prometheus,
        },
        CtlRequest::Series,
        CtlRequest::Sla,
    ]);
}

/// Requests issued once before the warm-up rounds. The observed
/// workload advances 600 ms of virtual time so the sampler's ring (120
/// samples of 5 ms) has wrapped before anything is scored; the warm-up
/// rounds then wrap the flight recorder's.
pub fn prelude(w: Workload) -> Vec<CtlRequest> {
    if w.observed() {
        vec![CtlRequest::RunFor { ms: 600 }]
    } else {
        Vec::new()
    }
}

/// Generates rounds `0..n` of a workload's script.
pub fn script(w: Workload, sub: &Substrate, n: u64) -> Vec<Round> {
    let mut cur = Cursors {
        sub,
        traffic: 0,
        churn: 0,
        elastic: 0,
        fault: 0,
    };
    (0..n)
        .map(|_| {
            let mut ops = Vec::new();
            let run_for = |ops: &mut Vec<CtlRequest>, ms| ops.push(CtlRequest::RunFor { ms });
            match w {
                Workload::DataplaneBare => {
                    for _ in 0..8 {
                        ops.push(cur.long_lived().traffic(2_000));
                    }
                    run_for(&mut ops, 25);
                    run_for(&mut ops, 25);
                    redeploy(&mut ops, cur.churned());
                }
                Workload::DataplaneObserved => {
                    for _ in 0..2 {
                        ops.push(cur.long_lived().traffic(200));
                    }
                    run_for(&mut ops, 25);
                    redeploy(&mut ops, cur.churned());
                }
                Workload::LifecycleChurn => {
                    for _ in 0..8 {
                        redeploy(&mut ops, cur.churned());
                    }
                    for _ in 0..2 {
                        let e = cur.elastic();
                        ops.push(e.scale(3));
                        ops.push(e.scale(1));
                    }
                    ops.push(cur.fault_plan());
                    ops.push(cur.long_lived().traffic(200));
                    run_for(&mut ops, 5);
                    ops.push(CtlRequest::Heal);
                }
                Workload::ChurnUnderTraffic => {
                    // The streams last 80 ms of virtual time. A scale step
                    // takes 2–3 ms of it and a redeploy 5.5 ms, so all four
                    // redeploys (and both scale steps) run with every
                    // stream still sending — one latency mode, not two —
                    // and the last `run-for` drains what is in flight (the
                    // oracle checks this on the virtual clock). 68 of the
                    // round's 95 virtual ms pass inside `run-for`.
                    for _ in 0..8 {
                        ops.push(cur.long_lived().traffic(CHURN_STREAM_FRAMES));
                    }
                    let e = cur.elastic();
                    ops.push(e.scale(2));
                    for _ in 0..4 {
                        run_for(&mut ops, 12);
                        redeploy(&mut ops, cur.churned());
                    }
                    ops.push(e.scale(1));
                    run_for(&mut ops, CHURN_DRAIN_MS);
                }
            }
            let redeploys = ops
                .iter()
                .filter(|o| matches!(o, CtlRequest::Teardown { .. }))
                .count() as u64;
            poll(&mut ops);
            Round { ops, redeploys }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn no_ordered_sap_pair_repeats() {
        for seed in [0, 1, 7, 11, u64::MAX] {
            let sub = Substrate::generate(seed, false);
            let mut seen = HashSet::new();
            for c in sub.base_chains() {
                assert_ne!(c.src[..3], c.dst[..3], "{}: same leaf", c.name);
                assert!(
                    seen.insert((c.src.clone(), c.dst.clone())),
                    "seed {seed}: pair {}->{} repeats",
                    c.src,
                    c.dst
                );
            }
            assert_eq!(seen.len(), BASE_CHAINS);
        }
    }

    #[test]
    fn elastic_chains_respect_link_budgets() {
        for seed in [3, 7, 11] {
            let sub = Substrate::generate(seed, false);
            for c in &sub.elastic {
                let uses = |s: &str| {
                    sub.elastic
                        .iter()
                        .filter(|e| e.src == s || e.dst == s)
                        .count()
                };
                assert!(uses(&c.src) <= 2 && uses(&c.dst) <= 2);
                let l: usize = c.src[1..3].parse().unwrap();
                assert!(l < ELASTIC_LEAVES, "elastic source on leaf {l}");
            }
            for c in &sub.statics {
                let l: usize = c.src[1..3].parse().unwrap();
                assert!(l >= ELASTIC_LEAVES, "static chain sourced on elastic leaf");
            }
        }
    }

    #[test]
    fn rounds_scale_with_seconds() {
        for w in Workload::ALL {
            let p25 = Plan::new(w, 25, false);
            assert!(
                p25.scored >= 60,
                "{}: {} scored rounds",
                w.name(),
                p25.scored
            );
            assert_eq!((p25.setups, p25.recoveries), (3, 3));
            let p50 = Plan::new(w, 50, false);
            assert_eq!((p50.warm, p50.scored), (2 * p25.warm, 2 * p25.scored));
            let p1 = Plan::new(w, 1, false);
            assert!(p1.warm == MIN_WARM && p1.scored >= 1);
            let t = Plan::new(w, 25, true);
            assert_eq!(t.warm, p25.warm.div_ceil(2).max(MIN_WARM));
            assert_eq!(t.scored, p25.scored.div_ceil(4));
            assert_eq!((t.setups, t.recoveries), (1, 3));
        }
    }

    #[test]
    fn script_is_a_prefix_and_seed_determined() {
        let sub = Substrate::generate(7, false);
        for w in Workload::ALL {
            let short = script(w, &sub, 5);
            let long = script(w, &sub, 9);
            for (a, b) in short.iter().zip(&long) {
                assert_eq!(a.ops, b.ops);
            }
            let again = script(w, &Substrate::generate(7, false), 5);
            assert!(short.iter().zip(&again).all(|(a, b)| a.ops == b.ops));
            for r in &short {
                assert!(r.redeploys >= 1);
                let reads = r.ops.iter().rev().take(4).map(Verb::of);
                assert!(reads.eq([Verb::Sla, Verb::Series, Verb::Metrics, Verb::Status]));
            }
        }
    }
}
