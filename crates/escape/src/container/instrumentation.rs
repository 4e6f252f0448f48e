//! The [`VnfInstrumentation`] the NETCONF agent drives: VNF lifecycle,
//! isolation parsing, and attachment ports taken from and returned to
//! the per-switch free list.

use super::{Binding, VnfHost, VnfInstrumentation, VnfSlot, VnfStatus};
use escape_click::Router;
use escape_netconf::agent::VnfStatusInfo;
use escape_netem::IsolationMode;
use std::collections::BTreeMap;

/// Handlers sampled for `getVNFInfo` (the Clicky view).
const MONITOR_HANDLERS: &[&str] = &[
    "count",
    "byte_count",
    "rate",
    "dropped",
    "passed",
    "matches",
    "length",
    "drops",
    "expired",
    "mappings",
];

impl VnfHost {
    fn parse_isolation(options: &[(String, String)]) -> Result<IsolationMode, String> {
        match options
            .iter()
            .find(|(k, _)| k == "isolation")
            .map(|(_, v)| v.as_str())
        {
            None | Some("none") => Ok(IsolationMode::None),
            Some(v) => {
                let parts: Vec<&str> = v.split(':').collect();
                match parts.as_slice() {
                    ["share", w, t] => {
                        let weight = w.parse().map_err(|_| format!("bad share weight {w:?}"))?;
                        let total = t.parse().map_err(|_| format!("bad share total {t:?}"))?;
                        Ok(IsolationMode::CpuShare { weight, total })
                    }
                    ["quota", q, p] => {
                        let quota_ns = q.parse().map_err(|_| format!("bad quota {q:?}"))?;
                        let period_ns = p.parse().map_err(|_| format!("bad period {p:?}"))?;
                        Ok(IsolationMode::CpuQuota {
                            quota_ns,
                            period_ns,
                        })
                    }
                    _ => Err(format!("bad isolation spec {v:?}")),
                }
            }
        }
    }
}

impl VnfInstrumentation for VnfHost {
    fn initiate(
        &mut self,
        vnf_type: &str,
        click_config: Option<&str>,
        options: &[(String, String)],
    ) -> Result<String, String> {
        let isolation = Self::parse_isolation(options)?;
        let overrides: Vec<(String, String)> = options
            .iter()
            .filter(|(k, _)| k != "isolation")
            .cloned()
            .collect();
        let config = match click_config {
            Some(cfg) if !cfg.is_empty() => cfg.to_string(),
            _ => self
                .catalog
                .render(vnf_type, &overrides)
                .map_err(|e| e.to_string())?,
        };
        self.next_vnf += 1;
        let seed = self
            .seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(self.next_vnf as u64);
        let router =
            Router::from_config(&config, &self.registry, seed).map_err(|e| e.to_string())?;
        let proc_ = self.cpu.add_process(isolation);
        let id = format!("{}-vnf{}", self.name, self.next_vnf);
        self.by_id.insert(id.clone(), self.vnfs.len());
        self.vnfs.push(VnfSlot {
            id: id.clone(),
            vnf_type: vnf_type.to_string(),
            router,
            status: VnfStatus::Initiated,
            proc: proc_,
            bindings: BTreeMap::new(),
            dropped_not_running: 0,
        });
        Ok(id)
    }

    fn start(&mut self, vnf_id: &str) -> Result<(), String> {
        let idx = self
            .vnf_index(vnf_id)
            .ok_or_else(|| format!("no vnf {vnf_id}"))?;
        self.vnfs[idx].status = VnfStatus::Running;
        Ok(())
    }

    fn stop(&mut self, vnf_id: &str) -> Result<(), String> {
        let idx = self
            .vnf_index(vnf_id)
            .ok_or_else(|| format!("no vnf {vnf_id}"))?;
        self.vnfs[idx].status = VnfStatus::Stopped;
        let slot = idx as u32;
        self.paths
            .retain(|steps, _| steps.iter().all(|&(vi, _)| vi != slot));
        Ok(())
    }

    fn connect(&mut self, vnf_id: &str, vnf_port: u16, switch_id: &str) -> Result<u16, String> {
        let idx = self
            .vnf_index(vnf_id)
            .ok_or_else(|| format!("no vnf {vnf_id}"))?;
        if self.vnfs[idx].bindings.contains_key(&vnf_port) {
            return Err(format!("vnf {vnf_id} port {vnf_port} already connected"));
        }
        let free = self
            .attach_free
            .get_mut(switch_id)
            .ok_or_else(|| format!("container {} has no link to switch {switch_id}", self.name))?;
        let (container_port, switch_port) = free
            .pop()
            .ok_or_else(|| format!("no free attachment points toward {switch_id}"))?;
        self.vnfs[idx].bindings.insert(
            vnf_port,
            Binding::External {
                container_port,
                switch_port,
                switch: switch_id.to_string(),
            },
        );
        self.port_bindings.insert(container_port, (idx, vnf_port));
        Ok(switch_port)
    }

    fn disconnect(&mut self, vnf_id: &str, vnf_port: u16) -> Result<(), String> {
        let idx = self
            .vnf_index(vnf_id)
            .ok_or_else(|| format!("no vnf {vnf_id}"))?;
        let slot = &mut self.vnfs[idx];
        let binding = slot.bindings.remove(&vnf_port);
        if slot.bindings.is_empty() {
            // A torn-down VNF's slot stays, and an emptied BTreeMap keeps its node.
            slot.bindings = BTreeMap::new();
        }
        match binding {
            Some(Binding::External {
                container_port,
                switch_port,
                switch,
            }) => {
                self.port_bindings.remove(&container_port);
                self.attach_free
                    .entry(switch)
                    .or_default()
                    .push((container_port, switch_port));
                Ok(())
            }
            Some(Binding::Internal { .. }) => Ok(()),
            None => Err(format!("vnf {vnf_id} port {vnf_port} not connected")),
        }
    }

    fn info(&self, vnf_id: Option<&str>) -> Vec<VnfStatusInfo> {
        self.vnfs
            .iter()
            .filter(|v| vnf_id.is_none_or(|id| v.id == id))
            .map(|v| VnfStatusInfo {
                id: v.id.clone(),
                vnf_type: v.vnf_type.clone(),
                status: v.status.as_str().to_string(),
                ports: v
                    .bindings
                    .iter()
                    .map(|(dev, b)| {
                        let loc = match b {
                            Binding::External { switch, .. } => switch.clone(),
                            Binding::Internal { vnf, .. } => {
                                format!("internal:{}", self.vnfs[*vnf].id)
                            }
                        };
                        (*dev, loc)
                    })
                    .collect(),
                handlers: v.router.snapshot_handlers(MONITOR_HANDLERS),
            })
            .collect()
    }
}
