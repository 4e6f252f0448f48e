//! The compiled router: elements wired per a parsed configuration.

use crate::element::{Effect, ElemCtx, Element};
use crate::lang::{parse_config, ConfigError};
use crate::registry::Registry;
use escape_netem::Time;
use escape_packet::{LookupMap, Packet};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};

/// Result of feeding work into a router: frames leaving the VNF and the
/// CPU nanoseconds the processing consumed.
#[derive(Debug, Default)]
pub struct RouterOutput {
    /// Frames emitted by `ToDevice(dev)` elements, in emission order.
    pub external: Vec<(u16, Packet)>,
    /// CPU cost of this processing step.
    pub work_ns: u64,
}

/// A running Click router (one VNF instance).
pub struct Router {
    names: Vec<String>,
    pub(crate) elements: Vec<Option<Box<dyn Element>>>,
    /// `out_conns[e][p]` = the (element, input port) that output `p` of
    /// element `e` feeds.
    out_conns: Vec<Vec<Option<(usize, usize)>>>,
    /// Device number -> FromDevice element index.
    from_device: BTreeMap<u16, usize>,
    name_index: LookupMap<String, usize>,
    pub(crate) pending: VecDeque<Effect>,
    pub(crate) rng: SmallRng,
    pub(crate) work_acc: u64,
    now: Time,
    /// Packets dropped because they reached an unconnected output port.
    pub dead_ends: u64,
    /// When set, [`Router::traced`] lists the elements each
    /// [`Router::push_into`] pushed frames through — the flight
    /// recorder's per-element view.
    pub trace_paths: bool,
    /// Element indices of the last call's traversal, reused across calls.
    traced: Vec<u16>,
}

/// Hard cap on effects processed per external call; a mis-configured push
/// loop terminates instead of spinning forever.
const MAX_EFFECTS_PER_CALL: usize = 100_000;

impl Router {
    /// Parses `config` and compiles it against `registry`.
    pub fn from_config(
        config: &str,
        registry: &Registry,
        seed: u64,
    ) -> Result<Router, ConfigError> {
        let parsed = parse_config(config)?;
        let mut names = Vec::new();
        let mut elements: Vec<Option<Box<dyn Element>>> = Vec::new();
        // (inputs, outputs) of each element, in declaration order.
        let mut ports = Vec::new();
        let mut name_index = LookupMap::new();
        let mut from_device = BTreeMap::new();
        for d in &parsed.decls {
            let elem = registry.build(&d.class, &d.args, d.line)?;
            let idx = elements.len();
            if idx > usize::from(u16::MAX) {
                return Err(ConfigError {
                    line: d.line,
                    message: format!("more than {} elements", u16::MAX),
                });
            }
            if d.class == "FromDevice" {
                let dev: u16 = d
                    .args
                    .first()
                    .and_then(|a| a.parse().ok())
                    .ok_or(ConfigError {
                        line: d.line,
                        message: "FromDevice requires a device number".into(),
                    })?;
                if from_device.insert(dev, idx).is_some() {
                    return Err(ConfigError {
                        line: d.line,
                        message: format!("duplicate FromDevice({dev})"),
                    });
                }
            }
            // Each output is connected exactly once, so an element with
            // more outputs than the config has connections can never
            // compile; rejecting it here keeps a huge fan-out count from
            // sizing the port table below.
            let (ins, outs) = elem.ports();
            if outs > parsed.conns.len() {
                return Err(ConfigError {
                    line: d.line,
                    message: format!(
                        "{} :: {} has {outs} outputs, more than the config's {} \
                         connections, so one is unconnected",
                        d.name,
                        d.class,
                        parsed.conns.len()
                    ),
                });
            }
            name_index.insert(d.name.clone(), idx);
            names.push(d.name.clone());
            ports.push((ins, outs));
            elements.push(Some(elem));
        }

        let mut out_conns: Vec<Vec<Option<(usize, usize)>>> =
            ports.iter().map(|&(_, outs)| vec![None; outs]).collect();

        for c in &parsed.conns {
            let from = *name_index.get(&c.from).ok_or_else(|| ConfigError {
                line: c.line,
                message: format!("unknown element '{}'", c.from),
            })?;
            let to = *name_index.get(&c.to).ok_or_else(|| ConfigError {
                line: c.line,
                message: format!("unknown element '{}'", c.to),
            })?;
            let out_slot = out_conns[from]
                .get_mut(c.from_port)
                .ok_or_else(|| ConfigError {
                    line: c.line,
                    message: format!("'{}' has no output port {}", c.from, c.from_port),
                })?;
            if out_slot.is_some() {
                return Err(ConfigError {
                    line: c.line,
                    message: format!("output port {}[{}] connected twice", c.from, c.from_port),
                });
            }
            if c.to_port >= ports[to].0 {
                return Err(ConfigError {
                    line: c.line,
                    message: format!("'{}' has no input port {}", c.to, c.to_port),
                });
            }
            *out_slot = Some((to, c.to_port));
        }

        // Every output port must be wired — Click errors on dangling
        // outputs, and so do we (a silent drop hides config bugs).
        for (e, conns) in out_conns.iter().enumerate() {
            for (p, slot) in conns.iter().enumerate() {
                if slot.is_none() {
                    return Err(ConfigError {
                        line: 0,
                        message: format!("output port {}[{}] is unconnected", names[e], p),
                    });
                }
            }
        }

        Ok(Router {
            names,
            elements,
            out_conns,
            from_device,
            name_index,
            pending: VecDeque::new(),
            rng: SmallRng::seed_from_u64(seed),
            work_acc: 0,
            now: Time::ZERO,
            dead_ends: 0,
            trace_paths: false,
            traced: Vec::new(),
        })
    }

    /// Current virtual time as last told to the router.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Element names in declaration order.
    pub fn element_names(&self) -> &[String] {
        &self.names
    }

    /// Indices (into [`Router::element_names`]) of the elements the last
    /// [`Router::push_into`] pushed frames through, in traversal
    /// order. Filled only when [`Router::trace_paths`] is set; frames a
    /// [`Router::tick`] releases are not recorded.
    pub fn traced(&self) -> &[u16] {
        &self.traced
    }

    /// Devices with a `FromDevice` entry point.
    pub fn input_devices(&self) -> Vec<u16> {
        self.from_device.keys().copied().collect()
    }

    /// Feeds a frame that arrived on VNF device `dev` into the
    /// configuration at virtual time `now`.
    pub fn push_external(&mut self, dev: u16, pkt: Packet, now: Time) -> RouterOutput {
        let mut out = RouterOutput::default();
        out.work_ns = self.push_into(dev, pkt, now, &mut out.external);
        out
    }

    /// [`Router::push_external`] into a caller's buffer: appends the
    /// frames leaving the VNF to `external`, in emission order, and
    /// returns the CPU nanoseconds the processing consumed. A caller that
    /// reuses `external` pushes a frame without allocating.
    pub fn push_into(
        &mut self,
        dev: u16,
        pkt: Packet,
        now: Time,
        external: &mut Vec<(u16, Packet)>,
    ) -> u64 {
        self.now = now;
        self.work_acc = 0;
        self.traced.clear();
        let Some(&entry) = self.from_device.get(&dev) else {
            // Frame to a device with no FromDevice: dropped, like a NIC
            // with no reader.
            self.dead_ends += 1;
            return 0;
        };
        // FromDevice immediately forwards out of its single output.
        self.work_acc += self.elements[entry].as_deref().map_or(0, |e| e.cost_ns());
        if self.trace_paths {
            self.traced.push(entry as u16);
        }
        self.pending.push_back(Effect::Downstream {
            from_elem: entry,
            from_port: 0,
            pkt,
        });
        self.drain(external, self.trace_paths);
        self.work_acc
    }

    /// Advances time and runs every element whose wake time has arrived.
    pub fn tick(&mut self, now: Time) -> RouterOutput {
        self.now = now;
        self.work_acc = 0;
        self.traced.clear();
        let mut out = RouterOutput::default();
        for idx in 0..self.elements.len() {
            let due = self.elements[idx]
                .as_deref()
                .and_then(|e| e.next_wake())
                .is_some_and(|t| t <= now);
            if due {
                self.with_element(idx, |e, ctx| e.tick(ctx));
            }
        }
        self.drain(&mut out.external, false);
        out.work_ns = self.work_acc;
        out
    }

    /// The earliest wake time any element wants, if any.
    pub fn next_wake(&self) -> Option<Time> {
        self.elements
            .iter()
            .filter_map(|e| e.as_deref().and_then(|e| e.next_wake()))
            .min()
    }

    /// Runs one element via the take-out pattern.
    fn with_element(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut Box<dyn Element>, &mut ElemCtx<'_>),
    ) {
        let Some(mut e) = self.elements[idx].take() else {
            return;
        };
        let mut ctx = ElemCtx {
            router: self,
            elem_idx: idx,
        };
        f(&mut e, &mut ctx);
        self.elements[idx] = Some(e);
    }

    /// Runs pending effects, appending frames that leave the VNF to
    /// `external`; `trace` appends each element a frame is pushed into to
    /// [`Router::traced`].
    fn drain(&mut self, external: &mut Vec<(u16, Packet)>, trace: bool) {
        let mut budget = MAX_EFFECTS_PER_CALL;
        while let Some(effect) = self.pending.pop_front() {
            if budget == 0 {
                // Runaway loop: drop the remaining work.
                self.pending.clear();
                break;
            }
            budget -= 1;
            match effect {
                Effect::External { dev, pkt } => external.push((dev, pkt)),
                Effect::Downstream {
                    from_elem,
                    from_port,
                    pkt,
                } => {
                    let Some(&Some((dst, dport))) =
                        self.out_conns.get(from_elem).and_then(|c| c.get(from_port))
                    else {
                        self.dead_ends += 1;
                        continue;
                    };
                    let cost = self.elements[dst].as_deref().map_or(0, |e| e.cost_ns());
                    self.work_acc += cost;
                    if trace {
                        self.traced.push(dst as u16);
                    }
                    self.with_element(dst, |e, ctx| e.push(ctx, dport, pkt));
                }
            }
        }
    }

    /// Reads handler `spec` of the form `element.handler`.
    pub fn read_handler(&self, spec: &str) -> Option<String> {
        let (name, handler) = spec.split_once('.')?;
        let &idx = self.name_index.get(name)?;
        self.elements[idx].as_deref()?.read_handler(handler)
    }

    /// Lists `element.handler` pairs that currently read as non-None, with
    /// their values — the "Clicky" live view of a VNF.
    pub fn snapshot_handlers(&self, handlers: &[&str]) -> Vec<(String, String)> {
        let mut v = Vec::new();
        for (i, e) in self.elements.iter().enumerate() {
            let Some(e) = e.as_deref() else { continue };
            for h in handlers {
                if let Some(val) = e.read_handler(h) {
                    v.push((format!("{}.{}", self.names[i], h), val));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pkt(n: usize) -> Packet {
        Packet {
            data: Bytes::from(vec![0u8; n]),
            id: 1,
            born_ns: 0,
        }
    }

    fn mk(cfg: &str) -> Router {
        Router::from_config(cfg, &Registry::standard(), 1).unwrap()
    }

    #[test]
    fn passthrough_config_forwards() {
        let mut r = mk("FromDevice(0) -> cnt :: Counter -> ToDevice(1);");
        let out = r.push_external(0, pkt(100), Time::ZERO);
        assert_eq!(out.external.len(), 1);
        assert_eq!(out.external[0].0, 1);
        assert_eq!(r.read_handler("cnt.count").unwrap(), "1");
        assert!(out.work_ns > 0);
    }

    #[test]
    fn frame_to_unknown_device_is_dropped() {
        let mut r = mk("FromDevice(0) -> ToDevice(0);");
        let out = r.push_external(7, pkt(100), Time::ZERO);
        assert!(out.external.is_empty());
        assert_eq!(r.dead_ends, 1);
    }

    #[test]
    fn unconnected_output_port_is_a_config_error() {
        let err = Router::from_config("c :: Counter;", &Registry::standard(), 0)
            .err()
            .unwrap();
        assert!(err.message.contains("unconnected"), "{}", err.message);
    }

    #[test]
    fn unknown_class_is_a_config_error() {
        let err = Router::from_config("x :: NoSuchThing; x -> x;", &Registry::standard(), 0)
            .err()
            .unwrap();
        assert!(err.message.contains("NoSuchThing"));
    }

    #[test]
    fn double_connected_output_is_rejected() {
        let err = Router::from_config(
            "f :: FromDevice(0); a :: Discard; b :: Discard; f -> a; f -> b;",
            &Registry::standard(),
            0,
        )
        .err()
        .unwrap();
        assert!(err.message.contains("connected twice"));
    }

    #[test]
    fn a_fan_out_larger_than_the_config_is_a_config_error() {
        for cfg in [
            "FromDevice(0) -> h :: HashSwitch(18446744073709551615); h [0] -> ToDevice(0);",
            "FromDevice(0) -> t :: Tee(1000000000); t [0] -> ToDevice(0);",
        ] {
            let err = Router::from_config(cfg, &Registry::standard(), 0)
                .err()
                .unwrap();
            assert_eq!(err.line, 1, "{cfg}");
            assert!(err.message.contains("unconnected"), "{}", err.message);
        }
    }

    #[test]
    fn tee_duplicates_to_both_devices() {
        let mut r = mk("FromDevice(0) -> t :: Tee(2); t [0] -> ToDevice(0); t [1] -> ToDevice(1);");
        let out = r.push_external(0, pkt(60), Time::ZERO);
        let mut devs: Vec<u16> = out.external.iter().map(|(d, _)| *d).collect();
        devs.sort_unstable();
        assert_eq!(devs, vec![0, 1]);
    }

    #[test]
    fn handler_snapshot_lists_counters() {
        let mut r = mk("FromDevice(0) -> a :: Counter -> b :: Counter -> ToDevice(0);");
        r.push_external(0, pkt(60), Time::ZERO);
        let snap = r.snapshot_handlers(&["count"]);
        assert!(snap.contains(&("a.count".to_string(), "1".to_string())));
        assert!(snap.contains(&("b.count".to_string(), "1".to_string())));
    }

    #[test]
    fn trace_paths_records_element_traversal_order() {
        let mut r = mk("FromDevice(0) -> a :: Counter -> b :: Counter -> ToDevice(1);");
        r.trace_paths = true;
        let out = r.push_external(0, pkt(60), Time::ZERO);
        // Anonymous FromDevice/ToDevice get generated names; the named
        // counters must appear in push order between them.
        let named: Vec<&str> = r
            .traced()
            .iter()
            .map(|&i| r.element_names()[usize::from(i)].as_str())
            .filter(|s| *s == "a" || *s == "b")
            .collect();
        assert_eq!(named, vec!["a", "b"]);
        assert_eq!(out.external.len(), 1);
        // Off by default: no path collection.
        r.trace_paths = false;
        r.push_external(0, pkt(60), Time::ZERO);
        assert!(r.traced().is_empty());
    }

    #[test]
    fn tick_work_is_not_traced() {
        let mut r = mk("FromDevice(0) -> s :: BandwidthShaper(1000) -> ToDevice(1);");
        r.trace_paths = true;
        let out = r.push_external(0, pkt(500), Time::ZERO);
        assert!(out.external.is_empty(), "parked behind the shaper");
        assert!(!r.traced().is_empty());
        let wake = r.next_wake().expect("the shaper wakes to release it");
        let out = r.tick(wake);
        assert_eq!(out.external.len(), 1);
        assert!(r.traced().is_empty(), "tick-driven work is not traced");
    }

    #[test]
    fn input_devices_are_listed() {
        let r = mk("FromDevice(2) -> ToDevice(0); FromDevice(5) -> ToDevice(1);");
        assert_eq!(r.input_devices(), vec![2, 5]);
    }

    #[test]
    fn duplicate_from_device_rejected() {
        let err = Router::from_config(
            "FromDevice(0) -> Discard; FromDevice(0) -> Discard;",
            &Registry::standard(),
            0,
        )
        .err()
        .unwrap();
        assert!(err.message.contains("duplicate FromDevice"));
    }
}
