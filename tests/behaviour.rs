//! Behaviour corpus: a seeded op mix driven through one [`Session`] per
//! run, one line per step, pinned in `behaviour.txt`.
//!
//! A line holds the step's op and its outcome, the virtual clock after
//! it, hashes of what a client reads after it — the metrics exposition
//! outside `wallclock.*`, the sampler's series document and
//! `state_fingerprint` — the span count, a hash of the SLA verdicts, and
//! every journal entry the step added. Run A steers proactively, run B reactively; both run the
//! autoscaler, the sampler (small retention), the flight recorder and
//! admission control over a small leaf-spine fabric.
//!
//! A change meant to be invisible leaves the file untouched. A
//! deliberate model change re-records it in one reviewed diff: on a
//! mismatch the current corpus is written to the target tmp dir as
//! `behaviour.actual.txt`, ready to diff or copy over. Because the file
//! is compared across builds, it also catches nondeterminism that
//! depends on the process image (a hash-map order leaking into an `f64`
//! sum), which a same-process witness cannot see.

use escape::{AutoscalerConfig, EscapeError, Session, SessionConfig};
use escape_netem::{FaultKind, FaultPlan};
use escape_pox::SteeringMode;
use escape_sg::topo::builders;
use escape_sg::{ServiceGraph, Sla};
use escape_telemetry::SamplerConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

const CORPUS: &str = include_str!("behaviour.txt");

/// Steps per run.
const STEPS: u64 = 500;

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

/// FNV-1a, 64 bit: no dependency, and the same on every toolchain.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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

/// A fault plan of one of the four kinds the soak harness injects —
/// link flap, loss spike, delay spike, VNF stall (now and then longer
/// than the whole RPC retry budget) — and the virtual time to let it
/// play out.
fn fault(step: u64, rng: &mut SmallRng) -> (FaultPlan, u64) {
    let plan = FaultPlan::new(format!("f{step}"));
    let (a, b) = *pick(rng, &FABRIC_LINKS);
    let (a, b) = (a.to_string(), b.to_string());
    let clear_ms = 2 + rng.gen_range(0..4u64);
    match rng.gen_range(0..4u32) {
        0 => (
            plan.at_ms(
                0,
                FaultKind::LinkDown {
                    a: a.clone(),
                    b: b.clone(),
                },
            )
            .at_ms(clear_ms, FaultKind::LinkUp { a, b }),
            clear_ms + 2,
        ),
        1 => {
            let loss = *pick(rng, &[0.1, 0.4]);
            (
                plan.at_ms(
                    0,
                    FaultKind::LossSpike {
                        a: a.clone(),
                        b: b.clone(),
                        loss,
                    },
                )
                .at_ms(clear_ms, FaultKind::LossClear { a, b }),
                clear_ms + 2,
            )
        }
        2 => (
            plan.at_ms(
                0,
                FaultKind::DelaySpike {
                    a: a.clone(),
                    b: b.clone(),
                    delay_us: 500,
                },
            )
            .at_ms(clear_ms, FaultKind::DelayClear { a, b }),
            clear_ms + 2,
        ),
        _ => {
            let stall_ms = if rng.gen_bool(0.3) {
                700 + rng.gen_range(0..200u64)
            } else {
                1 + rng.gen_range(0..15u64)
            };
            let node = pick(rng, &CONTAINERS).to_string();
            let plan = plan.at_ms(
                0,
                FaultKind::VnfStall {
                    node,
                    for_us: stall_ms * 1000,
                },
            );
            (plan, stall_ms.min(16) + 2)
        }
    }
}

/// What a failed op reports: the error's variant, not its prose.
fn outcome<T>(r: Result<T, EscapeError>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(e) => {
            let debug = format!("{e:?}");
            let variant = debug
                .split(|c: char| !c.is_alphanumeric())
                .next()
                .unwrap_or("");
            format!("err {variant}")
        }
    }
}

/// One run of [`STEPS`] steps; every line starts with `tag`.
fn run(tag: &str, seed: u64, steering: SteeringMode) -> String {
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
    let mut s = Session::new(builders::leaf_spine(2, 3, 2, 1, 2.0), cfg).expect("fabric builds");
    s.escape_mut()
        .enable_autoscaler(AutoscalerConfig::default(), seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seq = s.escape().journal().seq_end();
    let mut out = String::new();
    for step in 0..STEPS {
        let live = s.escape().deployed_chains();
        let op = match rng.gen_range(0..100u32) {
            0..=24 => {
                let sg = graph(step, &mut rng);
                format!("deploy g{step} {}", outcome(s.deploy(&sg)))
            }
            25..=41 if !live.is_empty() => {
                let chain = pick(&mut rng, &live).clone();
                format!("teardown {chain} {}", outcome(s.teardown(&chain)))
            }
            42..=51 if !live.is_empty() => {
                let chain = pick(&mut rng, &live).clone();
                let to = rng.gen_range(1..=3u32);
                let r = s.scale(&chain, &format!("{chain}v0"), to);
                format!("scale {chain}v0 x{to} {}", outcome(r))
            }
            52..=63 => {
                let (from, to) = if live.is_empty() {
                    (SAPS[0].to_string(), SAPS[1].to_string())
                } else {
                    let chain = pick(&mut rng, &live);
                    let hops = &s.escape().deployed(chain).expect("live").mapping.chain.hops;
                    (hops[0].clone(), hops[hops.len() - 1].clone())
                };
                let count = 10 + rng.gen_range(0..40u64);
                let r = s.start_udp(&from, &to, 128, 200, count);
                format!("udp {from}>{to} x{count} {}", outcome(r))
            }
            64..=77 => {
                let (plan, settle_ms) = fault(step, &mut rng);
                let r = s.load_fault_plan_text(&plan.to_json());
                s.run_for_ms(settle_ms);
                format!("fault {} {settle_ms}ms {}", plan.name, outcome(r))
            }
            78..=82 => {
                let (recoveries, failures) = s.heal_now();
                format!("heal {recoveries}/{failures}")
            }
            _ => {
                let ms = 1 + rng.gen_range(0..8u64);
                s.run_for_ms(ms);
                format!("run {ms}ms")
            }
        };
        let esc = s.escape();
        let metrics: String = s
            .metrics_exposition(false)
            .lines()
            .filter(|l| !l.contains("wallclock_"))
            .map(|l| format!("{l}\n"))
            .collect();
        let verdicts: String = s.sla_verdicts().iter().map(|v| format!("{v}\n")).collect();
        write!(
            out,
            "{tag}{step:03} t={} {op} | m={:016x} s={:016x} fp={:016x} spans={} sla={:016x}",
            esc.now().as_ns(),
            fnv(&metrics),
            fnv(&s.series_json()),
            fnv(&s.state_fingerprint()),
            esc.tracer().records().count(),
            fnv(&verdicts),
        )
        .expect("writing to a String");
        for e in esc.journal().events_since(seq) {
            write!(out, " | {e}").expect("writing to a String");
        }
        out.push('\n');
        seq = esc.journal().seq_end();
    }
    out
}

#[test]
fn behaviour_corpus_is_unchanged() {
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run("A", 11, SteeringMode::Proactive));
        let b = scope.spawn(|| run("B", 23, SteeringMode::Reactive));
        (
            a.join().expect("run A panicked"),
            b.join().expect("run B panicked"),
        )
    });
    let actual = a + &b;
    if actual == CORPUS {
        return;
    }
    let first = actual
        .lines()
        .zip(CORPUS.lines())
        .position(|(x, y)| x != y)
        .map_or_else(
            || "a missing or extra line".to_string(),
            |i| format!("line {}", i + 1),
        );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("behaviour.actual.txt");
    std::fs::write(&path, &actual).expect("writing the actual corpus");
    panic!(
        "behaviour differs from tests/behaviour.txt, first at {first}; \
         current corpus written to {}",
        path.display()
    );
}
