//! Device endpoints, counters, tees, discard.

use super::args;
use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use escape_netem::Time;
use escape_packet::Packet;

pub fn install(r: &mut Registry) {
    r.register("FromDevice", |a| {
        args::max(a, 1)?;
        let dev = args::req::<u16>(a, 0, "device number")?;
        Ok(Box::new(FromDevice { dev }))
    });
    r.register("ToDevice", |a| {
        args::max(a, 1)?;
        let dev = args::req::<u16>(a, 0, "device number")?;
        Ok(Box::new(ToDevice { dev, count: 0 }))
    });
    r.register("Counter", |a| {
        args::max(a, 0)?;
        Ok(Box::new(Counter::default()))
    });
    r.register("Discard", |a| {
        args::max(a, 0)?;
        Ok(Box::new(Discard { count: 0 }))
    });
    r.register("Tee", |a| {
        args::max(a, 1)?;
        let n = args::opt::<usize>(a, 0, 2)?;
        if n == 0 {
            return Err("Tee needs at least one output".into());
        }
        Ok(Box::new(Tee { n }))
    });
}

/// Entry point for frames arriving on VNF device `dev`. The router feeds
/// arriving frames directly out of this element's single output.
pub struct FromDevice {
    pub dev: u16,
}

impl Element for FromDevice {
    fn class_name(&self) -> &'static str {
        "FromDevice"
    }
    fn ports(&self) -> (usize, usize) {
        (0, 1)
    }
    fn cost_ns(&self) -> u64 {
        30
    }
}

/// Exit point: pushes its input out of the VNF on device `dev`.
pub struct ToDevice {
    pub dev: u16,
    count: u64,
}

impl Element for ToDevice {
    fn class_name(&self) -> &'static str {
        "ToDevice"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 0)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        self.count += 1;
        ctx.emit_external(self.dev, pkt);
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "count" => Some(self.count.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        30
    }
}

/// Transparent packet/byte counter with a rate estimate.
#[derive(Default)]
pub struct Counter {
    count: u64,
    byte_count: u64,
    first: Option<Time>,
    last: Option<Time>,
}

impl Element for Counter {
    fn class_name(&self) -> &'static str {
        "Counter"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 1)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        self.count += 1;
        self.byte_count += pkt.len() as u64;
        let now = ctx.now();
        if self.first.is_none() {
            self.first = Some(now);
        }
        self.last = Some(now);
        ctx.emit(0, pkt);
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "count" => Some(self.count.to_string()),
            "byte_count" => Some(self.byte_count.to_string()),
            "rate" => {
                // Mean packets/s between first and last packet.
                let (f, l) = (self.first?, self.last?);
                let span = l.since(f);
                if span == 0 || self.count < 2 {
                    Some("0".to_string())
                } else {
                    Some(format!(
                        "{:.1}",
                        (self.count - 1) as f64 * 1e9 / span as f64
                    ))
                }
            }
            "bit_rate" => {
                let (f, l) = (self.first?, self.last?);
                let span = l.since(f);
                if span == 0 || self.count < 2 {
                    Some("0".to_string())
                } else {
                    Some(format!(
                        "{:.0}",
                        self.byte_count as f64 * 8.0 * 1e9 / span as f64
                    ))
                }
            }
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        20
    }
}

/// Drops everything, counting.
pub struct Discard {
    count: u64,
}

impl Element for Discard {
    fn class_name(&self) -> &'static str {
        "Discard"
    }
    fn ports(&self) -> (usize, usize) {
        (1, 0)
    }
    fn push(&mut self, _ctx: &mut ElemCtx<'_>, _port: usize, _pkt: Packet) {
        self.count += 1;
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "count" => Some(self.count.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        10
    }
}

/// Duplicates each input packet to every output.
pub struct Tee {
    n: usize,
}

impl Element for Tee {
    fn class_name(&self) -> &'static str {
        "Tee"
    }
    fn ports(&self) -> (usize, usize) {
        (1, self.n)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        for out in 1..self.n {
            ctx.emit(out, pkt.clone());
        }
        ctx.emit(0, pkt);
    }
    fn cost_ns(&self) -> u64 {
        40
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;
    use crate::router::Router;
    use bytes::Bytes;
    use escape_netem::Time;
    use escape_packet::Packet;

    fn pkt(n: usize) -> Packet {
        Packet {
            data: Bytes::from(vec![0xaau8; n]),
            id: 0,
            born_ns: 0,
        }
    }

    fn mk(cfg: &str) -> Router {
        Router::from_config(cfg, &Registry::standard(), 0).unwrap()
    }

    #[test]
    fn counter_tracks_bytes_and_rate() {
        let mut r = mk("FromDevice(0) -> c :: Counter -> ToDevice(0);");
        r.push_external(0, pkt(100), Time::ZERO);
        r.push_external(0, pkt(100), Time::from_secs(1));
        assert_eq!(r.read_handler("c.count").unwrap(), "2");
        assert_eq!(r.read_handler("c.byte_count").unwrap(), "200");
        assert_eq!(r.read_handler("c.rate").unwrap(), "1.0");
        assert_eq!(r.read_handler("c.bit_rate").unwrap(), "1600");
    }

    #[test]
    fn tee_clones_preserve_content() {
        let mut r = mk(
            "FromDevice(0) -> t :: Tee(3); t [0] -> ToDevice(0); t [1] -> ToDevice(1); t [2] -> d :: Discard;",
        );
        let out = r.push_external(0, pkt(10), Time::ZERO);
        assert_eq!(out.external.len(), 2);
        assert_eq!(r.read_handler("d.count").unwrap(), "1");
    }

    #[test]
    fn discard_counts() {
        let mut r = mk("FromDevice(0) -> d :: Discard;");
        for _ in 0..7 {
            r.push_external(0, pkt(10), Time::ZERO);
        }
        assert_eq!(r.read_handler("d.count").unwrap(), "7");
    }

    #[test]
    fn bad_factory_args_are_errors() {
        let reg = Registry::standard();
        assert!(Router::from_config("t :: Tee(0);", &reg, 0).is_err());
        assert!(Router::from_config("f :: FromDevice(notanumber);", &reg, 0).is_err());
    }
}
