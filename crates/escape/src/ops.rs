//! The seeded op mix: one generator of [`Session`] operations that every
//! randomized check is a loop around.
//!
//! [`OpMix::step`] draws the next op from its seeded RNG, applies it to a
//! `&mut Session` — deploy a one- or two-chain graph, tear down, scale,
//! start a UDP stream, inject a fault plan (as JSON text) and let it play
//! out, heal, or let time pass — and returns the op's text and outcome.
//! [`session`] builds the session the mix is meant for: the fabric below
//! with admission control, the flight recorder, the sampler (small
//! retention) and the autoscaler on. The behaviour corpus
//! (`tests/behaviour.rs`) pins one line per step; the soak
//! ([`crate::soak::run_soak`]) checks the conservation invariants after
//! each.
//!
//! Same seed ⇒ same ops, and the environment runs in virtual time, so a
//! run reproduces byte for byte.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use escape_netem::{FaultKind, FaultPlan};
use escape_pox::SteeringMode;
use escape_sg::topo::builders;
use escape_sg::{ResourceTopology, ServiceGraph, Sla};
use escape_telemetry::SamplerConfig;

use crate::error::EscapeError;
use crate::session::{Session, SessionConfig};
use crate::AutoscalerConfig;

/// Two spines, three leaves, two containers and one SAP per leaf.
const SAPS: [&str; 3] = ["h00_0", "h01_0", "h02_0"];
const CONTAINERS: [&str; 6] = ["c00_0", "c00_1", "c01_0", "c01_1", "c02_0", "c02_1"];
/// Leaf–spine links: every one has a parallel path, so link faults
/// reroute.
const FABRIC_LINKS: [(&str, &str); 6] = [
    ("lf00", "sp0"),
    ("lf00", "sp1"),
    ("lf01", "sp0"),
    ("lf01", "sp1"),
    ("lf02", "sp0"),
    ("lf02", "sp1"),
];

/// The fabric the mix names: `SAPS`, `CONTAINERS`, `FABRIC_LINKS`.
fn fabric() -> ResourceTopology {
    builders::leaf_spine(2, 3, 2, 1, 2.0)
}

/// A session over the fabric with admission control, the flight
/// recorder, the sampler and the autoscaler on.
pub fn session(seed: u64, steering: SteeringMode) -> Session {
    let cfg = SessionConfig {
        steering,
        seed,
        admission: Some(Default::default()),
        flight_recorder: Some(1024),
        sampler: Some(SamplerConfig {
            period_ns: 5_000_000,
            retention: 6,
        }),
        ..SessionConfig::default()
    };
    let mut s = Session::new(fabric(), cfg).expect("fabric builds");
    s.escape_mut()
        .enable_autoscaler(AutoscalerConfig::default(), seed);
    s
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// A graph of one or two chains, each between two distinct SAPs through
/// one or two VNFs; about a third of the chains carry an SLA.
fn graph(step: u64, rng: &mut SmallRng) -> ServiceGraph {
    let mut sg = ServiceGraph::new();
    for sap in SAPS {
        sg = sg.sap(sap);
    }
    for c in 0..rng.gen_range(1..=2u32) {
        let chain = format!("g{step}c{c}");
        let from = *pick(rng, &SAPS);
        let others: Vec<&str> = SAPS.iter().copied().filter(|s| *s != from).collect();
        let to = *pick(rng, &others);
        let mut hops = vec![from.to_string()];
        for v in 0..rng.gen_range(1..=2u32) {
            let name = format!("{chain}v{v}");
            let ty = *pick(rng, &["monitor", "firewall"]);
            sg = sg.vnf(
                &name,
                ty,
                0.25 + f64::from(rng.gen_range(0..4u32)) * 0.25,
                64,
            );
            hops.push(name);
        }
        hops.push(to.to_string());
        let hops: Vec<&str> = hops.iter().map(String::as_str).collect();
        sg = sg.chain(
            &chain,
            &hops,
            10.0 * f64::from(rng.gen_range(1..=5u32)),
            None,
        );
        if rng.gen_bool(0.35) {
            sg = sg.with_sla(Sla {
                max_latency_us: Some(200 + 100 * rng.gen_range(0..6u64)),
                max_loss: Some(0.05),
            });
        }
    }
    sg
}

/// A fault plan — link flap, loss spike, delay spike or VNF stall (now
/// and then longer than the whole RPC retry budget, so ops that land on
/// the container roll back or retry) — and the virtual time to let it
/// play out.
fn fault(step: u64, rng: &mut SmallRng) -> (FaultPlan, u64) {
    let plan = FaultPlan::new(format!("f{step}"));
    let (a, b) = *pick(rng, &FABRIC_LINKS);
    let (a, b) = (a.to_string(), b.to_string());
    let clear_ms = 2 + rng.gen_range(0..4u64);
    let (spike, clear) = match rng.gen_range(0..4u32) {
        0 => (
            FaultKind::LinkDown {
                a: a.clone(),
                b: b.clone(),
            },
            FaultKind::LinkUp { a, b },
        ),
        1 => {
            let loss = *pick(rng, &[0.1, 0.4]);
            let spike = FaultKind::LossSpike {
                a: a.clone(),
                b: b.clone(),
                loss,
            };
            (spike, FaultKind::LossClear { a, b })
        }
        2 => (
            FaultKind::DelaySpike {
                a: a.clone(),
                b: b.clone(),
                delay_us: 500,
            },
            FaultKind::DelayClear { a, b },
        ),
        _ => {
            let stall_ms = if rng.gen_bool(0.3) {
                700 + rng.gen_range(0..200u64)
            } else {
                1 + rng.gen_range(0..15u64)
            };
            let node = pick(rng, &CONTAINERS).to_string();
            let for_us = stall_ms * 1000;
            let plan = plan.at_ms(0, FaultKind::VnfStall { node, for_us });
            return (plan, stall_ms.min(16) + 2);
        }
    };
    (plan.at_ms(0, spike).at_ms(clear_ms, clear), clear_ms + 2)
}

/// Which operation a step applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Deploy,
    Teardown,
    Scale,
    Udp,
    Fault,
    Heal,
    Run,
}

/// One applied op.
#[derive(Debug)]
pub struct Op {
    pub kind: OpKind,
    /// The op and its outcome: `deploy g3 ok`, `teardown g1c0 err
    /// RpcTimeout`, `heal 2/0`, `run 4ms`. A failure names the error's
    /// variant, not its prose.
    pub text: String,
    /// The error the op returned, if any.
    pub error: Option<EscapeError>,
}

impl Op {
    fn new<T>(kind: OpKind, what: String, r: Result<T, EscapeError>) -> Op {
        let (text, error) = match r {
            Ok(_) => (format!("{what} ok"), None),
            Err(e) => {
                let debug = format!("{e:?}");
                let variant = debug.split(|c: char| !c.is_alphanumeric()).next();
                (format!("{what} err {}", variant.unwrap_or("")), Some(e))
            }
        };
        Op { kind, text, error }
    }
}

/// The seeded op sequence; [`OpMix::step`] applies the next op.
pub struct OpMix {
    rng: SmallRng,
    step: u64,
}

impl OpMix {
    pub fn new(seed: u64) -> OpMix {
        OpMix {
            rng: SmallRng::seed_from_u64(seed),
            step: 0,
        }
    }

    /// Draws the next op and applies it to `s`. A teardown or scale
    /// drawn while no chain is live lets time pass instead.
    pub fn step(&mut self, s: &mut Session) -> Op {
        let (step, rng) = (self.step, &mut self.rng);
        self.step += 1;
        let live = s.escape().deployed_chains();
        match rng.gen_range(0..100u32) {
            0..=24 => {
                let sg = graph(step, rng);
                Op::new(OpKind::Deploy, format!("deploy g{step}"), s.deploy(&sg))
            }
            25..=41 if !live.is_empty() => {
                let chain = pick(rng, &live).clone();
                let r = s.teardown(&chain);
                Op::new(OpKind::Teardown, format!("teardown {chain}"), r)
            }
            42..=51 if !live.is_empty() => {
                let chain = pick(rng, &live).clone();
                let to = rng.gen_range(1..=3u32);
                let r = s.scale(&chain, &format!("{chain}v0"), to);
                Op::new(OpKind::Scale, format!("scale {chain}v0 x{to}"), r)
            }
            52..=63 => {
                let (from, to) = if live.is_empty() {
                    (SAPS[0].to_string(), SAPS[1].to_string())
                } else {
                    let chain = pick(rng, &live);
                    let hops = &s.escape().deployed(chain).expect("live").mapping.chain.hops;
                    (hops[0].clone(), hops[hops.len() - 1].clone())
                };
                let count = 10 + rng.gen_range(0..40u64);
                let r = s.start_udp(&from, &to, 128, 200, count);
                Op::new(OpKind::Udp, format!("udp {from}>{to} x{count}"), r)
            }
            64..=77 => {
                let (plan, settle_ms) = fault(step, rng);
                let r = s.load_fault_plan_text(&plan.to_json());
                s.run_for_ms(settle_ms);
                let what = format!("fault {} {settle_ms}ms", plan.name);
                Op::new(OpKind::Fault, what, r)
            }
            78..=82 => {
                let (recoveries, failures) = s.heal_now();
                let text = format!("heal {recoveries}/{failures}");
                Op {
                    kind: OpKind::Heal,
                    text,
                    error: None,
                }
            }
            _ => {
                let ms = 1 + rng.gen_range(0..8u64);
                s.run_for_ms(ms);
                let text = format!("run {ms}ms");
                Op {
                    kind: OpKind::Run,
                    text,
                    error: None,
                }
            }
        }
    }
}
