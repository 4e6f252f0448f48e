//! Load spreading: the flow-hash switch.

use super::args;
use crate::element::{ElemCtx, Element};
use crate::registry::Registry;
use escape_packet::{FlowKey, Packet};

pub fn install(r: &mut Registry) {
    r.register("HashSwitch", |a| {
        args::max(a, 1)?;
        let n = args::req::<usize>(a, 0, "output count")?;
        if n == 0 {
            return Err("needs at least one output".into());
        }
        Ok(Box::new(HashSwitch { n, count: 0 }))
    });
}

/// Spreads packets over `n` outputs by a hash of the 5-tuple, keeping each
/// flow on one output (the property a stateful backend pool needs).
pub struct HashSwitch {
    n: usize,
    count: u64,
}

impl HashSwitch {
    fn hash_key(key: &FlowKey) -> u64 {
        // FNV-1a over the 5-tuple; simple and deterministic across runs.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        for b in key.ip_src.map(|i| i.octets()).unwrap_or_default() {
            eat(b);
        }
        for b in key.ip_dst.map(|i| i.octets()).unwrap_or_default() {
            eat(b);
        }
        eat(key.ip_proto.unwrap_or(0));
        for b in key.tp_src.unwrap_or(0).to_be_bytes() {
            eat(b);
        }
        for b in key.tp_dst.unwrap_or(0).to_be_bytes() {
            eat(b);
        }
        h
    }
}

impl Element for HashSwitch {
    fn class_name(&self) -> &'static str {
        "HashSwitch"
    }
    fn ports(&self) -> (usize, usize) {
        (1, self.n)
    }
    fn push(&mut self, ctx: &mut ElemCtx<'_>, _port: usize, pkt: Packet) {
        let out = match FlowKey::extract(&pkt.data) {
            Ok(key) => (Self::hash_key(&key) % self.n as u64) as usize,
            Err(_) => 0,
        };
        self.count += 1;
        ctx.emit(out, pkt);
    }
    fn read_handler(&self, name: &str) -> Option<String> {
        match name {
            "count" => Some(self.count.to_string()),
            _ => None,
        }
    }
    fn cost_ns(&self) -> u64 {
        60
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::router::Router;
    use bytes::Bytes;
    use escape_netem::Time;
    use escape_packet::{MacAddr, PacketBuilder};
    use std::net::Ipv4Addr;

    fn udp(sport: u16) -> Packet {
        let data = PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            sport,
            80,
            Bytes::from_static(b"lb"),
        );
        Packet {
            data,
            id: 0,
            born_ns: 0,
        }
    }

    #[test]
    fn hash_switch_keeps_flows_together() {
        let mut r = Router::from_config(
            "FromDevice(0) -> h :: HashSwitch(4); h [0] -> ToDevice(0); h [1] -> ToDevice(1); h [2] -> ToDevice(2); h [3] -> ToDevice(3);",
            &Registry::standard(),
            0,
        )
        .unwrap();
        // Same flow -> same output, every time.
        let first = r.push_external(0, udp(1234), Time::ZERO).external[0].0;
        for _ in 0..10 {
            assert_eq!(
                r.push_external(0, udp(1234), Time::ZERO).external[0].0,
                first
            );
        }
        // Many flows spread over more than one output.
        let mut used = std::collections::BTreeSet::new();
        for sp in 0..64 {
            used.insert(r.push_external(0, udp(sp), Time::ZERO).external[0].0);
        }
        assert!(used.len() >= 2, "hash never spread: {used:?}");
    }

    #[test]
    fn factories_reject_zero_outputs() {
        let reg = Registry::standard();
        assert!(Router::from_config("x :: HashSwitch(0);", &reg, 0).is_err());
    }
}
