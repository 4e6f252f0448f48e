//! Traffic shaping: bandwidth and delay shapers, random sampling.

use super::args;
use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use escape_netem::Time;
use escape_packet::Packet;
use std::collections::VecDeque;

pub fn install(r: &mut Registry) {
    r.register("BandwidthShaper", |a| {
        args::max(a, 2)?;
        let rate_bps: u64 = args::req(a, 0, "rate in bits/s")?;
        if rate_bps == 0 {
            return Err("rate must be positive".into());
        }
        let cap = args::opt::<usize>(a, 1, 1000)?;
        if cap == 0 {
            // A queue with no room tail-drops every frame.
            return Err("queue capacity must be positive".into());
        }
        Ok(Box::new(BandwidthShaper {
            rate_bps,
            cap,
            q: VecDeque::new(),
            next_release: None,
            drops: 0,
            shaped: 0,
        }))
    });
    r.register("DelayShaper", |a| {
        args::max(a, 1)?;
        let delay_us: u64 = args::req(a, 0, "delay in microseconds")?;
        let delay_ns = delay_us
            .checked_mul(1_000)
            .ok_or("delay does not fit in virtual time")?;
        Ok(Box::new(DelayShaper {
            delay: Time::from_ns(delay_ns),
            q: VecDeque::new(),
        }))
    });
    r.register("RandomSample", |a| {
        args::max(a, 1)?;
        let keep: f64 = args::req(a, 0, "keep probability")?;
        if !(0.0..=1.0).contains(&keep) {
            return Err("probability must be in [0,1]".into());
        }
        Ok(Box::new(RandomSample { keep, drops: 0 }))
    });
}

/// Token-bucket-style rate limiter: packets exit at `rate_bps`, excess is
/// buffered up to `cap` packets (then tail-dropped). This is the engine of
/// the catalog's rate-limiter VNF.
pub struct BandwidthShaper {
    rate_bps: u64,
    cap: usize,
    q: VecDeque<Packet>,
    next_release: Option<Time>,
    drops: u64,
    shaped: u64,
}

impl BandwidthShaper {
    fn tx_time(&self, len: usize) -> u64 {
        (len as u128 * 8 * 1_000_000_000 / self.rate_bps as u128) as u64
    }
}

impl Element for BandwidthShaper {
    fn class_name(&self) -> &'static str {
        "BandwidthShaper"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        if self.q.len() >= self.cap {
            self.drops += 1;
            return;
        }
        let idle = self.q.is_empty();
        if idle {
            // Head packet: released after its own serialization time.
            self.next_release = Some(ctx.now().add_ns(self.tx_time(pkt.len())));
        }
        self.q.push_back(pkt);
    }
    fn tick(&mut self, ctx: &mut ElemCtx<'_>) {
        if let Some(pkt) = self.q.pop_front() {
            self.shaped += 1;
            ctx.emit(0, pkt);
        }
        self.next_release = self
            .q
            .front()
            .map(|next| ctx.now().add_ns(self.tx_time(next.len())));
    }
    fn next_wake(&self) -> Option<Time> {
        self.next_release
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "rate" => Some(self.rate_bps.to_string()),
            "length" => Some(self.q.len().to_string()),
            "drops" => Some(self.drops.to_string()),
            "count" => Some(self.shaped.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        40
    }
}

/// Delays every packet by a fixed amount (an artificial-latency VNF).
pub struct DelayShaper {
    delay: Time,
    q: VecDeque<(Time, Packet)>,
}

impl Element for DelayShaper {
    fn class_name(&self) -> &'static str {
        "DelayShaper"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        // FIFO: arrival order is release order, so push_back keeps the
        // queue sorted by release time.
        self.q.push_back((ctx.now() + self.delay, pkt));
    }
    fn tick(&mut self, ctx: &mut ElemCtx<'_>) {
        while let Some((t, _)) = self.q.front() {
            if *t <= ctx.now() {
                let (_, pkt) = self.q.pop_front().expect("front() just saw this entry");
                ctx.emit(0, pkt);
            } else {
                break;
            }
        }
    }
    fn next_wake(&self) -> Option<Time> {
        self.q.front().map(|(t, _)| *t)
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "delay_us" => Some(self.delay.as_us().to_string()),
            "length" => Some(self.q.len().to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        30
    }
}

/// Keeps each packet with probability `keep` (seeded by the router, so
/// deterministic per run); the rest are dropped and counted.
pub struct RandomSample {
    keep: f64,
    drops: u64,
}

impl Element for RandomSample {
    fn class_name(&self) -> &'static str {
        "RandomSample"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        if ctx.random_f64() < self.keep {
            ctx.emit(0, pkt);
        } else {
            self.drops += 1;
        }
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "drops" => Some(self.drops.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        25
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::router::Router;
    use bytes::Bytes;

    fn pkt(n: usize) -> Packet {
        Packet {
            data: Bytes::from(vec![0u8; n]),
            id: 0,
            born_ns: 0,
        }
    }

    fn mk(cfg: &str) -> Router {
        Router::from_config(cfg, &Registry::standard(), 42).unwrap()
    }

    #[test]
    fn bandwidth_shaper_paces_output() {
        // 1 Mbit/s; 125-byte packets = 1 ms each.
        let mut r = mk("FromDevice(0) -> s :: BandwidthShaper(1000000) -> ToDevice(0);");
        for _ in 0..3 {
            assert!(r.push_external(0, pkt(125), Time::ZERO).external.is_empty());
        }
        let mut release_times = Vec::new();
        while let Some(w) = r.next_wake() {
            let out = r.tick(w);
            for _ in out.external {
                release_times.push(w.as_ms());
            }
        }
        assert_eq!(release_times, vec![1, 2, 3]);
        assert_eq!(r.read_handler("s.count").unwrap(), "3");
    }

    #[test]
    fn bandwidth_shaper_tail_drops() {
        let mut r = mk("FromDevice(0) -> s :: BandwidthShaper(1000, 2) -> ToDevice(0);");
        for _ in 0..5 {
            r.push_external(0, pkt(100), Time::ZERO);
        }
        assert_eq!(r.read_handler("s.length").unwrap(), "2");
        assert_eq!(r.read_handler("s.drops").unwrap(), "3");
    }

    #[test]
    fn delay_shaper_holds_for_fixed_time() {
        let mut r = mk("FromDevice(0) -> d :: DelayShaper(500) -> ToDevice(0);");
        assert!(r
            .push_external(0, pkt(60), Time::from_us(100))
            .external
            .is_empty());
        assert_eq!(r.next_wake(), Some(Time::from_us(600)));
        let out = r.tick(Time::from_us(600));
        assert_eq!(out.external.len(), 1);
        assert!(r.next_wake().is_none());
    }

    #[test]
    fn delay_shaper_releases_in_arrival_order() {
        let mut r = mk("FromDevice(0) -> d :: DelayShaper(1000) -> ToDevice(0);");
        r.push_external(0, pkt(60), Time::from_us(0));
        r.push_external(0, pkt(61), Time::from_us(10));
        let out = r.tick(Time::from_us(1000));
        assert_eq!(out.external.len(), 1);
        assert_eq!(out.external[0].1.len(), 60);
        let out = r.tick(Time::from_us(1010));
        assert_eq!(out.external[0].1.len(), 61);
    }

    #[test]
    fn random_sample_is_statistical_and_seeded() {
        let run = || {
            let mut r = mk("FromDevice(0) -> s :: RandomSample(0.3) -> ToDevice(0);");
            let mut kept = 0;
            for _ in 0..1000 {
                kept += r.push_external(0, pkt(60), Time::ZERO).external.len();
            }
            kept
        };
        let k1 = run();
        assert!((200..400).contains(&k1), "kept {k1}, expected ~300");
        assert_eq!(k1, run(), "same seed must reproduce");
    }

    #[test]
    fn factory_validation() {
        let reg = Registry::standard();
        assert!(Router::from_config("s :: BandwidthShaper(0);", &reg, 0).is_err());
        let shaper = |args: &str| {
            let cfg = format!("FromDevice(0) -> BandwidthShaper({args}) -> ToDevice(0);");
            Router::from_config(&cfg, &reg, 0).map(|_| ())
        };
        assert!(shaper("1000, 1").is_ok());
        // A queue with no room would drop every frame.
        assert!(shaper("1000, 0").is_err());
        assert!(Router::from_config("s :: RandomSample(1.5);", &reg, 0).is_err());
        assert!(Router::from_config("s :: DelayShaper(abc);", &reg, 0).is_err());
        assert!(Router::from_config("s :: DelayShaper(18446744073709552);", &reg, 0).is_err());
    }
}
