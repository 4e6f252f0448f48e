//! ESCAPE's traffic steering app.
//!
//! The orchestrator compiles a mapped service chain into per-switch
//! steering rules (match → actions). This app owns those rules and
//! installs them either **proactively** — pushed to the switches as soon
//! as they are queued (chain deployment time) — or **reactively** — held
//! back until the first packet of the flow misses and punts, then
//! installed with the buffered packet released through them (design
//! choice D1 in DESIGN.md).

use crate::component::{Ctl, PacketInEvent};
use escape_openflow::{switch::NO_BUFFER, Action, Match};
use escape_telemetry::{Counter, Registry};
use std::collections::{BTreeMap, BTreeSet};

/// Install strategy for steering rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteeringMode {
    Proactive,
    Reactive,
}

/// One steering rule on one switch, installed as a permanent flow entry.
#[derive(Debug, Clone)]
pub struct SteeringRule {
    pub dpid: u64,
    pub match_: Match,
    pub priority: u16,
    pub actions: Vec<Action>,
    /// Chain identifier, so a chain can be torn down as a unit.
    pub chain_id: u64,
}

/// The steering app. Queue rules with [`TrafficSteering::queue_rules`]
/// (typically via the orchestrator), then let the controller flush them.
pub struct TrafficSteering {
    pub mode: SteeringMode,
    /// Rules not yet pushed to switches (proactive) or armed for misses
    /// (reactive keeps them here permanently).
    queued: Vec<SteeringRule>,
    /// Rules already pushed, by chain id (for teardown).
    installed: BTreeMap<u64, Vec<SteeringRule>>,
    /// Shadow sets: rules staged by a deployment transaction, invisible
    /// to flushes until committed (or thrown away by a rollback).
    staged: BTreeMap<u64, Vec<SteeringRule>>,
    /// Rules awaiting deletion from switches at the next flush.
    pending_removal: Vec<SteeringRule>,
    /// Rules installed reactively on a miss (`pox.steering.reactive_installs`).
    reactive_ctr: Counter,
    /// Rules pushed proactively (`pox.steering.proactive_installs`).
    proactive_ctr: Counter,
    /// Chains re-steered after a fault (`pox.steering.resteers`).
    resteer_ctr: Counter,
}

impl TrafficSteering {
    /// A steering app counting `pox.steering.*` into `registry`.
    pub fn new(mode: SteeringMode, registry: &Registry) -> TrafficSteering {
        TrafficSteering {
            mode,
            queued: Vec::new(),
            installed: BTreeMap::new(),
            staged: BTreeMap::new(),
            pending_removal: Vec::new(),
            reactive_ctr: registry.counter("pox.steering.reactive_installs"),
            proactive_ctr: registry.counter("pox.steering.proactive_installs"),
            resteer_ctr: registry.counter("pox.steering.resteers"),
        }
    }

    /// Count of rules installed reactively on a miss.
    pub fn reactive_installs(&self) -> u64 {
        self.reactive_ctr.get()
    }

    /// Count of rules pushed proactively.
    pub fn proactive_installs(&self) -> u64 {
        self.proactive_ctr.get()
    }

    /// Queues rules for installation (or reactive arming).
    pub fn queue_rules(&mut self, rules: Vec<SteeringRule>) {
        self.queued.extend(rules);
    }

    /// Number of rules awaiting proactive installation.
    pub fn pending(&self) -> usize {
        self.queued.len()
    }

    /// Rules currently installed for a chain.
    pub fn installed_for(&self, chain_id: u64) -> usize {
        self.installed.get(&chain_id).map_or(0, |v| v.len())
    }

    // ------------- staged (shadow) rule sets ------------------------

    /// Stages a chain's rules into its shadow set: they are held apart
    /// from the live queue and never reach a switch until
    /// [`TrafficSteering::commit_staged`] activates them. A deployment
    /// transaction stages during *prepare* so a failure can discard the
    /// whole set without a single flow-mod having left the controller.
    pub fn stage_rules(&mut self, chain_id: u64, rules: Vec<SteeringRule>) {
        self.staged.entry(chain_id).or_default().extend(rules);
    }

    /// Number of rules currently staged for a chain.
    pub fn staged_for(&self, chain_id: u64) -> usize {
        self.staged.get(&chain_id).map_or(0, |v| v.len())
    }

    /// Atomically activates a chain's staged set: the rules move to the
    /// live queue in one step and install at the next flush. Returns the
    /// number of rules committed.
    pub fn commit_staged(&mut self, chain_id: u64) -> usize {
        let rules = self.staged.remove(&chain_id).unwrap_or_default();
        let n = rules.len();
        self.queue_rules(rules);
        n
    }

    /// Make-before-break promote: the chain's staged set atomically
    /// *replaces* its live rules. The stale rules queue for deletion and
    /// the staged replacements for installation, all applied at the next
    /// flush — switches never see a half-updated chain, which is what
    /// lets a scale/migration transaction cut over without dropping a
    /// packet. Returns the number of rules promoted (0 = nothing staged,
    /// live set untouched).
    pub fn promote_staged(&mut self, chain_id: u64) -> usize {
        let Some(rules) = self.staged.remove(&chain_id) else {
            return 0;
        };
        let n = rules.len();
        self.resteer_chain(chain_id, rules);
        n
    }

    /// Throws a chain's staged set away (deployment rollback). Nothing
    /// was ever sent to a switch, so there is nothing to delete. Returns
    /// the number of rules discarded.
    pub fn discard_staged(&mut self, chain_id: u64) -> usize {
        self.staged.remove(&chain_id).map_or(0, |v| v.len())
    }

    /// Every chain id steering holds rules for, in any state
    /// (queued, installed, staged or awaiting removal), sorted. Leak
    /// audits compare this against the set of live chains.
    pub fn tracked_chains(&self) -> Vec<u64> {
        let ids: BTreeSet<u64> = self
            .installed
            .keys()
            .chain(self.staged.keys())
            .copied()
            .chain(self.queued.iter().map(|r| r.chain_id))
            .collect();
        ids.into_iter().collect()
    }

    /// Queues a teardown: installed rules of `chain_id` are deleted from
    /// their switches at the next flush. Returns the affected rules.
    pub fn remove_chain(&mut self, chain_id: u64) -> Vec<SteeringRule> {
        // Also drop still-queued and still-staged rules of that chain.
        self.queued.retain(|r| r.chain_id != chain_id);
        self.staged.remove(&chain_id);
        let removed = self.installed.remove(&chain_id).unwrap_or_default();
        self.pending_removal.extend(removed.clone());
        removed
    }

    /// Re-steers a chain after a fault: its stale rules are queued for
    /// deletion and the replacement rules for installation, all applied
    /// at the next flush so switches never see a half-updated chain.
    /// Returns the number of stale rules torn down.
    pub fn resteer_chain(&mut self, chain_id: u64, rules: Vec<SteeringRule>) -> usize {
        let stale = self.remove_chain(chain_id).len();
        self.queue_rules(rules);
        self.resteer_ctr.inc();
        stale
    }

    /// Count of chains re-steered after faults.
    pub fn resteers(&self) -> u64 {
        self.resteer_ctr.get()
    }

    fn push_rule(ctl: &mut Ctl<'_, '_>, r: &SteeringRule, buffer_id: u32) -> bool {
        // The chain id rides along as the flow cookie so the flight
        // recorder can attribute matched packets back to the chain.
        ctl.flow_add_with_cookie(
            r.dpid,
            r.match_,
            r.priority,
            r.actions.clone(),
            buffer_id,
            r.chain_id,
        )
    }

    /// Installs every queued rule whose switch is connected (proactive
    /// mode only) and pushes pending deletions. The controller calls it
    /// when a switch comes up and on its FLUSH timer.
    pub(crate) fn flush(&mut self, ctl: &mut Ctl<'_, '_>) {
        for r in std::mem::take(&mut self.pending_removal) {
            // Cookie-scoped: only this chain's rule dies, even if another
            // chain installed an overlapping match on the same switch.
            ctl.flow_delete_with_cookie(r.dpid, r.match_, r.chain_id);
        }
        if self.mode != SteeringMode::Proactive {
            return;
        }
        let mut kept = Vec::new();
        for r in self.queued.drain(..) {
            if Self::push_rule(ctl, &r, NO_BUFFER) {
                self.proactive_ctr.inc();
                self.installed.entry(r.chain_id).or_default().push(r);
            } else {
                kept.push(r); // switch not up yet
            }
        }
        self.queued = kept;
    }

    /// A packet was punted to the controller. Returns `true` if an armed
    /// reactive rule covered it and was installed.
    pub(crate) fn on_packet_in(&mut self, ctl: &mut Ctl<'_, '_>, ev: &PacketInEvent) -> bool {
        if self.mode != SteeringMode::Reactive {
            return false;
        }
        let Some(key) = ev.key else { return false };
        // Find the highest-priority armed rule covering this packet on
        // this switch.
        let best = self
            .queued
            .iter()
            .enumerate()
            .filter(|(_, r)| r.dpid == ev.dpid && r.match_.matches(&key, ev.in_port))
            .max_by_key(|(_, r)| r.priority)
            .map(|(i, _)| i);
        let Some(i) = best else { return false };
        let r = self.queued[i].clone();
        // Install with the buffered packet so it rides the new flow. The
        // rule stays armed: packets already in flight during the control
        // round-trip also punt, and each re-install (idempotent on the
        // switch — same match and priority) releases its buffered packet.
        Self::push_rule(ctl, &r, ev.buffer_id);
        self.reactive_ctr.inc();
        let chain = self.installed.entry(r.chain_id).or_default();
        if !chain
            .iter()
            .any(|x| x.dpid == r.dpid && x.match_ == r.match_ && x.priority == r.priority)
        {
            chain.push(r);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Controller;
    use escape_netem::{Host, LinkConfig, Sim, Time};
    use escape_openflow::Switch;
    use escape_packet::MacAddr;
    use std::net::Ipv4Addr;

    /// h1 -- s1 -- h2 with steering rules forwarding by IP.
    fn rig(
        mode: SteeringMode,
    ) -> (
        Sim,
        escape_netem::NodeId,
        escape_netem::NodeId,
        escape_netem::NodeId,
    ) {
        let mut sim = Sim::new(9);
        let reg = sim.telemetry().clone();
        let sw = sim.add_node("s1", 2, Box::new(Switch::new(1, 2)));
        let h1 = sim.add_node(
            "h1",
            1,
            Box::new(Host::new(MacAddr::from_id(1), Ipv4Addr::new(10, 0, 0, 1))),
        );
        let h2 = sim.add_node(
            "h2",
            1,
            Box::new(Host::new(MacAddr::from_id(2), Ipv4Addr::new(10, 0, 0, 2))),
        );
        sim.connect((sw, 0), (h1, 0), LinkConfig::lan());
        sim.connect((sw, 1), (h2, 0), LinkConfig::lan());
        let c = sim.add_node("c0", 0, Box::new(Controller::new(mode, &reg)));
        let conn = sim.ctrl_connect(sw, c, Time::from_us(200));
        sim.node_as_mut::<Switch>(sw)
            .unwrap()
            .attach_controller(conn);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.register_switch(conn);
        }
        // Static ARP both ways: steering setups pre-provision ARP.
        sim.node_as_mut::<Host>(h1)
            .unwrap()
            .static_arp(Ipv4Addr::new(10, 0, 0, 2), MacAddr::from_id(2));
        sim.node_as_mut::<Host>(h2)
            .unwrap()
            .static_arp(Ipv4Addr::new(10, 0, 0, 1), MacAddr::from_id(1));
        Controller::start(&mut sim, c);
        sim.run(100);
        (sim, h1, h2, c)
    }

    fn rules_for_chain() -> Vec<SteeringRule> {
        vec![
            SteeringRule {
                dpid: 1,
                match_: Match::any().with_nw_dst(Ipv4Addr::new(10, 0, 0, 2), 32),
                priority: 500,
                actions: vec![Action::out(1)],
                chain_id: 1,
            },
            SteeringRule {
                dpid: 1,
                match_: Match::any().with_nw_dst(Ipv4Addr::new(10, 0, 0, 1), 32),
                priority: 500,
                actions: vec![Action::out(0)],
                chain_id: 1,
            },
        ]
    }

    #[test]
    fn proactive_rules_avoid_packet_ins() {
        let (mut sim, h1, h2, c) = rig(SteeringMode::Proactive);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.steering_mut().queue_rules(rules_for_chain());
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        {
            let ctl = sim.node_as::<Controller>(c).unwrap();
            let st = ctl.steering();
            assert_eq!(st.proactive_installs(), 2);
            assert_eq!(st.pending(), 0);
            assert_eq!(st.installed_for(1), 2);
        }
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            6,
            64,
            Time::from_us(100),
            10,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(100_000);
        assert_eq!(sim.node_as::<Host>(h2).unwrap().stats.udp_rx, 10);
        assert_eq!(sim.node_as::<Controller>(c).unwrap().stats().packet_ins, 0);
    }

    #[test]
    fn reactive_rules_install_on_first_miss() {
        let (mut sim, h1, h2, c) = rig(SteeringMode::Reactive);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.steering_mut().queue_rules(rules_for_chain());
        }
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            6,
            64,
            Time::from_us(100),
            10,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(100_000);
        assert_eq!(sim.node_as::<Host>(h2).unwrap().stats.udp_rx, 10);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        let st = ctl.steering();
        // Packets in flight during the control round-trip also punt; all
        // are released, and installs stop once the flow serves traffic.
        assert!(st.reactive_installs() >= 1);
        assert!(ctl.stats().packet_ins < 10, "flow took over after install");
        assert_eq!(ctl.stats().unhandled_packet_ins, 0);
    }

    #[test]
    fn chain_teardown_forgets_rules() {
        let (mut sim, _h1, _h2, c) = rig(SteeringMode::Proactive);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.steering_mut().queue_rules(rules_for_chain());
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        let removed = {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.steering_mut().remove_chain(1)
        };
        assert_eq!(removed.len(), 2);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        assert_eq!(ctl.steering().installed_for(1), 0);
    }

    #[test]
    fn teardown_is_cookie_scoped_under_overlapping_chains() {
        let (mut sim, h1, h2, c) = rig(SteeringMode::Proactive);
        // Chain 2 shares chain 1's exact match on the same switch (lower
        // priority). A match-only delete would kill both; the cookie
        // (chain id) keeps the teardown surgical.
        let chain2 = vec![SteeringRule {
            dpid: 1,
            match_: Match::any().with_nw_dst(Ipv4Addr::new(10, 0, 0, 2), 32),
            priority: 400,
            actions: vec![Action::out(1)],
            chain_id: 2,
        }];
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            let st = ctl.steering_mut();
            st.queue_rules(rules_for_chain());
            st.queue_rules(chain2);
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        let sw = sim.find_node("s1").unwrap();
        assert_eq!(sim.node_as::<Switch>(sw).unwrap().table.len(), 3);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.steering_mut().remove_chain(1);
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        {
            let t = &sim.node_as::<Switch>(sw).unwrap().table;
            assert_eq!(t.len(), 1, "only chain 1's rules died");
            assert_eq!(t.entries()[0].cookie, 2);
        }
        // Chain 2 still forwards h1 -> h2.
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            6,
            64,
            Time::from_us(100),
            5,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(100_000);
        assert_eq!(sim.node_as::<Host>(h2).unwrap().stats.udp_rx, 5);
    }

    #[test]
    fn resteer_replaces_rules_atomically_at_flush() {
        let (mut sim, h1, h2, c) = rig(SteeringMode::Proactive);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.steering_mut().queue_rules(rules_for_chain());
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        // Re-steer the chain onto a fresh (identical-shape) rule set, as
        // the environment does after rerouting around a failed link.
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            let st = ctl.steering_mut();
            let stale = st.resteer_chain(1, rules_for_chain());
            assert_eq!(stale, 2);
            assert_eq!(st.resteers(), 1);
            assert_eq!(st.installed_for(1), 0, "stale rules gone immediately");
            assert_eq!(st.pending(), 2, "replacements wait for the flush");
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        {
            let ctl = sim.node_as::<Controller>(c).unwrap();
            let st = ctl.steering();
            assert_eq!(st.installed_for(1), 2);
            assert_eq!(st.pending(), 0);
        }
        // Traffic still flows through the re-steered chain.
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            6,
            64,
            Time::from_us(100),
            10,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(100_000);
        assert_eq!(sim.node_as::<Host>(h2).unwrap().stats.udp_rx, 10);
    }

    #[test]
    fn staged_rules_stay_invisible_until_committed() {
        let (mut sim, h1, h2, c) = rig(SteeringMode::Proactive);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            let st = ctl.steering_mut();
            st.stage_rules(1, rules_for_chain());
            assert_eq!(st.staged_for(1), 2);
            assert_eq!(st.pending(), 0, "staged rules are not queued");
            assert_eq!(st.tracked_chains(), vec![1]);
        }
        // A flush while staged must not install anything.
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            let st = ctl.steering_mut();
            assert_eq!(st.proactive_installs(), 0);
            assert_eq!(st.installed_for(1), 0);
            // Commit moves the whole set to the live queue atomically.
            assert_eq!(st.commit_staged(1), 2);
            assert_eq!(st.staged_for(1), 0);
            assert_eq!(st.pending(), 2);
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        {
            let ctl = sim.node_as::<Controller>(c).unwrap();
            let st = ctl.steering();
            assert_eq!(st.installed_for(1), 2);
        }
        // Traffic flows through the committed rules.
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            6,
            64,
            Time::from_us(100),
            10,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(100_000);
        assert_eq!(sim.node_as::<Host>(h2).unwrap().stats.udp_rx, 10);
    }

    #[test]
    fn promote_staged_replaces_live_rules_at_one_flush() {
        let (mut sim, h1, h2, c) = rig(SteeringMode::Proactive);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            ctl.steering_mut().queue_rules(rules_for_chain());
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        // Stage a replacement set (scale-out shape: extra bucket rule)
        // and promote it: stale rules die and replacements install at
        // the same flush.
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            let st = ctl.steering_mut();
            let mut next = rules_for_chain();
            next.push(SteeringRule {
                dpid: 1,
                match_: Match::any()
                    .with_nw_dst(Ipv4Addr::new(10, 0, 0, 2), 32)
                    .with_bucket(2, 1),
                priority: 510,
                actions: vec![Action::out(1)],
                chain_id: 1,
            });
            st.stage_rules(1, next);
            assert_eq!(st.promote_staged(1), 3);
            assert_eq!(st.staged_for(1), 0);
            assert_eq!(st.installed_for(1), 0, "stale set queued for removal");
            assert_eq!(st.pending(), 3);
            assert_eq!(st.resteers(), 1);
            // Promoting with nothing staged is a no-op.
            assert_eq!(st.promote_staged(1), 0);
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        {
            let ctl = sim.node_as::<Controller>(c).unwrap();
            let st = ctl.steering();
            assert_eq!(st.installed_for(1), 3);
            assert_eq!(st.pending(), 0);
        }
        // Traffic still flows after the cutover.
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            6,
            64,
            Time::from_us(100),
            10,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(100_000);
        assert_eq!(sim.node_as::<Host>(h2).unwrap().stats.udp_rx, 10);
    }

    #[test]
    fn discarded_staged_rules_never_reach_a_switch() {
        let (mut sim, _h1, _h2, c) = rig(SteeringMode::Proactive);
        {
            let ctl = sim.node_as_mut::<Controller>(c).unwrap();
            let st = ctl.steering_mut();
            st.stage_rules(7, rules_for_chain());
            assert_eq!(st.discard_staged(7), 2);
            assert_eq!(st.staged_for(7), 0);
            assert_eq!(st.commit_staged(7), 0, "nothing left to commit");
            assert!(st.tracked_chains().is_empty());
        }
        Controller::request_flush(&mut sim, c, Time::ZERO);
        sim.run(100);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        let st = ctl.steering();
        assert_eq!(st.proactive_installs(), 0);
        // remove_chain also clears any staged leftovers.
        let ctl = sim.node_as_mut::<Controller>(c).unwrap();
        let st = ctl.steering_mut();
        st.stage_rules(8, rules_for_chain());
        st.remove_chain(8);
        assert_eq!(st.staged_for(8), 0);
    }

    #[test]
    fn unmatched_packet_in_is_not_consumed() {
        let (mut sim, h1, _h2, c) = rig(SteeringMode::Reactive);
        // No rules queued: packet-ins go unhandled.
        sim.node_as_mut::<Host>(h1).unwrap().add_stream(
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            6,
            64,
            Time::from_us(100),
            1,
        );
        Host::start_streams(&mut sim, h1, Time::from_ms(1));
        sim.run(100_000);
        let ctl = sim.node_as::<Controller>(c).unwrap();
        assert_eq!(ctl.stats().unhandled_packet_ins, ctl.stats().packet_ins);
        assert!(ctl.stats().packet_ins >= 1);
    }
}
