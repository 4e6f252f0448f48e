//! The element model: Click's processing unit, with push ports only.

use crate::router::Router;
use escape_netem::Time;
use escape_packet::Packet;
use rand::Rng;

/// A Click element: a packet-processing unit with numbered input and
/// output ports.
///
/// Packets arrive via [`Element::push`]; the element forwards them
/// downstream with [`ElemCtx::emit`]. Elements that hold packets back
/// (the shapers) report their next wake-up through [`Element::next_wake`]
/// and get [`Element::tick`] calls from the router at that time.
pub trait Element: Send {
    /// The Click class name, e.g. `"Counter"`.
    fn class_name(&self) -> &'static str;

    /// (input port count, output port count).
    fn ports(&self) -> (usize, usize);

    /// Handles a packet pushed into `port`. Default: drop.
    fn push(&mut self, _ctx: &mut ElemCtx<'_>, _port: usize, _pkt: Packet) {}

    /// Called when the element's scheduled wake time arrives.
    fn tick(&mut self, _ctx: &mut ElemCtx<'_>) {}

    /// The next virtual time this element wants a [`Element::tick`], if any.
    fn next_wake(&self) -> Option<Time> {
        None
    }

    /// Reads a named handler, returning its textual value.
    fn read_handler(&self, _name: &str) -> Option<String> {
        None
    }

    /// CPU nanoseconds this element charges per processed packet (fed to
    /// the container's cgroup model).
    fn cost_ns(&self) -> u64 {
        50
    }
}

/// Deferred work produced while an element runs.
pub(crate) enum Effect {
    /// Push `pkt` downstream from output `(from_elem, from_port)`.
    Downstream {
        from_elem: usize,
        from_port: usize,
        pkt: Packet,
    },
    /// Emit `pkt` out of the VNF on device `dev`.
    External { dev: u16, pkt: Packet },
}

/// The capability surface an element sees while it runs.
///
/// While an element executes it is temporarily removed from the router, so
/// the ctx can hold the router mutably: emissions go to the router's
/// pending-effect queue.
pub struct ElemCtx<'a> {
    pub(crate) router: &'a mut Router,
    pub(crate) elem_idx: usize,
}

impl ElemCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.router.now()
    }

    /// Pushes `pkt` out of this element's output `port`.
    pub fn emit(&mut self, port: usize, pkt: Packet) {
        self.router.pending.push_back(Effect::Downstream {
            from_elem: self.elem_idx,
            from_port: port,
            pkt,
        });
    }

    /// Sends `pkt` out of the VNF container on device `dev`. Normally only
    /// `ToDevice` calls this.
    pub fn emit_external(&mut self, dev: u16, pkt: Packet) {
        self.router.pending.push_back(Effect::External { dev, pkt });
    }

    /// A uniform random value in [0, 1) from the router's seeded RNG.
    pub fn random_f64(&mut self) -> f64 {
        self.router.rng.gen()
    }

    /// Charges extra CPU work beyond the element's static `cost_ns`.
    pub fn charge_work(&mut self, ns: u64) {
        self.router.work_acc += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Element for Nop {
        fn class_name(&self) -> &'static str {
            "Nop"
        }
        fn ports(&self) -> (usize, usize) {
            (1, 1)
        }
    }

    #[test]
    fn default_trait_methods() {
        let n = Nop;
        assert_eq!(n.class_name(), "Nop");
        assert!(n.next_wake().is_none());
        assert!(n.read_handler("count").is_none());
        assert_eq!(n.cost_ns(), 50);
    }
}
