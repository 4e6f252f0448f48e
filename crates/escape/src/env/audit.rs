//! Conservation audit and state fingerprint: the two read-only views
//! every rollback, recovery and restart is checked against.

use super::Escape;
use crate::container::{VnfContainer, VnfSlot, VnfStatus};
use escape_openflow::Switch;
use escape_pox::Controller;
use std::collections::{BTreeMap, BTreeSet};

impl Escape {
    /// Every switch, in name order.
    fn switches(&self) -> impl Iterator<Item = (&String, &Switch)> {
        self.infra.dpid.keys().filter_map(|name| {
            let sw = self.sim.peek_node_as::<Switch>(self.infra.node(name)?)?;
            Some((name, sw))
        })
    }

    /// Every running VNF with its container's name, in container-name
    /// order. A crashed container's husk is unreachable and left out.
    fn running_vnfs(&self) -> impl Iterator<Item = (&String, &VnfSlot)> {
        self.infra
            .netconf_conn
            .keys()
            .filter(|name| !self.orch.state().container_failed(name))
            .filter_map(|name| {
                let c = self
                    .sim
                    .peek_node_as::<VnfContainer>(self.infra.node(name)?)?;
                Some(c.host().vnfs.iter().map(move |slot| (name, slot)))
            })
            .flatten()
            .filter(|(_, slot)| slot.status == VnfStatus::Running)
    }

    /// Containers with a ready NETCONF session, in name order.
    fn ready_sessions(&self) -> impl Iterator<Item = &String> {
        self.rpcs
            .clients
            .iter()
            .filter(|(_, c)| c.ready())
            .map(|(n, _)| n)
    }

    /// Audits the whole environment for leaks and returns every
    /// violation found (empty = clean). Checked after every soak step:
    ///
    /// * **resource conservation** — per container and per link,
    ///   effective free capacity plus the sum of live-chain reservations
    ///   equals the topology capacity ([`escape_orch::Orchestrator::audit`]);
    /// * **no orphan reservations** — the orchestrator holds a
    ///   reservation for exactly the deployed chains (the sum above
    ///   balances for a reservation left behind, so it cannot see one);
    /// * **no orphan flow rules** — every cookie on every switch, and
    ///   every cookie tracked by the steering component, belongs to a
    ///   live chain;
    /// * **no orphan VNFs** — every *running* VNF on a live container is
    ///   one a deployed chain put there;
    /// * **no dangling sessions** — every ready NETCONF session points
    ///   at an existing container.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = self.orch.audit();

        // Reservations: one per deployed chain, none for anything else.
        let embedded = self.orch.embedded_chains();
        for chain in &embedded {
            if !self.deployed.contains_key(*chain) {
                violations.push(format!(
                    "orchestrator: reservation for chain {chain} but no live chain"
                ));
            }
        }
        for chain in self.deployed.keys() {
            if embedded.binary_search(&chain.as_str()).is_err() {
                violations.push(format!("chain {chain}: live but holds no reservation"));
            }
        }

        let live_cookies: BTreeMap<u64, &str> = self
            .deployed
            .iter()
            .map(|(name, dc)| (dc.cookie, name.as_str()))
            .collect();

        // Flow tables: no rule without a live chain's cookie.
        for (name, sw) in self.switches() {
            for e in sw.table.entries() {
                if e.cookie != 0 && !live_cookies.contains_key(&e.cookie) {
                    violations.push(format!(
                        "switch {name}: flow rule with cookie {} but no live chain",
                        e.cookie
                    ));
                }
            }
        }

        // Steering: every tracked chain id must be live.
        if let Some(st) = self
            .sim
            .node_as::<Controller>(self.infra.controller)
            .map(Controller::steering)
        {
            for id in st.tracked_chains() {
                if !live_cookies.contains_key(&id) {
                    violations.push(format!(
                        "steering: rules tracked for cookie {id} but no live chain"
                    ));
                }
            }
        }

        // Containers: every running VNF belongs to a deployed chain.
        let expected: BTreeSet<(&str, &str)> = self
            .deployed
            .values()
            .flat_map(|dc| dc.vnfs.iter())
            .map(|v| (v.container.as_str(), v.vnf_id.as_str()))
            .collect();
        for (name, slot) in self.running_vnfs() {
            if !expected.contains(&(name.as_str(), slot.id.as_str())) {
                violations.push(format!(
                    "container {name}: vnf {} running outside any embedding",
                    slot.id
                ));
            }
        }

        // Sessions: every ready client names an existing container.
        for name in self.ready_sessions() {
            if !self.infra.netconf_conn.contains_key(name) {
                violations.push(format!("netconf: dangling session to {name}"));
            }
        }
        violations
    }

    /// A deterministic, byte-comparable digest of all externally
    /// observable deployment state: the orchestrator's effective
    /// resource view, every switch's flow table, every live container's
    /// running VNFs (with their bindings) and the ready NETCONF
    /// sessions. Two environments with equal fingerprints hold the same
    /// chains. A rolled-back deploy must leave the fingerprint
    /// byte-identical to its pre-deploy value.
    pub fn state_fingerprint(&self) -> String {
        let mut out = String::new();
        let st = self.orch.state();
        for c in st.cpu.keys() {
            out.push_str(&format!(
                "cpu {c} {:.6} mem {}\n",
                st.effective_cpu_of(c),
                st.effective_mem_of(c)
            ));
        }
        for l in st.bw.keys() {
            out.push_str(&format!(
                "bw {}-{} {:.6}\n",
                l.0,
                l.1,
                st.effective_bw_of(&l.0, &l.1)
            ));
        }
        for (name, sw) in self.switches() {
            let mut flows: Vec<String> = sw
                .table
                .entries()
                .iter()
                .map(|e| {
                    format!(
                        "flow {name} cookie={} prio={} match={:?} actions={:?}\n",
                        e.cookie, e.priority, e.match_, e.actions
                    )
                })
                .collect();
            flows.sort();
            for f in flows {
                out.push_str(&f);
            }
        }
        for (name, slot) in self.running_vnfs() {
            let mut bindings: Vec<String> = slot
                .bindings
                .iter()
                .map(|(dev, b)| format!("{dev}:{b:?}"))
                .collect();
            bindings.sort();
            out.push_str(&format!(
                "vnf {name} {} {} [{}]\n",
                slot.id,
                slot.vnf_type,
                bindings.join(", ")
            ));
        }
        for s in self.ready_sessions() {
            out.push_str(&format!("session {s}\n"));
        }
        out
    }
}
