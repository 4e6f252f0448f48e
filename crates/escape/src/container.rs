//! The VNF container: a managed node hosting Click-based VNFs.
//!
//! One container node = Mininet host + cgroup + OpenYuma agent in the
//! paper's setup. It terminates a NETCONF control channel (the agent),
//! owns a [`CpuModel`] shared by its VNF processes, and forwards
//! dataplane frames through the Click routers of the VNFs bound to its
//! ports. Packet processing cost (from the Click engine) is charged to
//! the owning process under its isolation mode, and outputs are released
//! when the virtual CPU finishes the work.

use escape_catalog::Catalog;
use escape_click::{Registry, Router};
use escape_netconf::agent::{Agent, VnfInstrumentation, VnfStatusInfo};
use escape_netem::process::ProcId;
use escape_netem::{
    CpuModel, CtrlId, DropReason, HopDetail, IsolationMode, NodeCtx, NodeLogic, Time, VnfPath,
};
use escape_packet::{LookupMap, Packet};
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

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

/// Where a VNF device is wired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// To the physical fabric: a container port (and the switch port on
    /// the far side, as reported back to the orchestrator).
    External {
        container_port: u16,
        switch_port: u16,
        switch: String,
    },
    /// Directly into another VNF on the same container (service chaining
    /// without leaving the box).
    Internal { vnf: usize, dev: u16 },
}

/// Lifecycle state of a hosted VNF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VnfStatus {
    Initiated,
    Running,
    Stopped,
    Failed,
}

impl VnfStatus {
    fn as_str(&self) -> &'static str {
        match self {
            VnfStatus::Initiated => "initiated",
            VnfStatus::Running => "running",
            VnfStatus::Stopped => "stopped",
            VnfStatus::Failed => "failed",
        }
    }
}

/// One hosted VNF instance.
pub struct VnfSlot {
    pub id: String,
    pub vnf_type: String,
    pub router: Router,
    pub status: VnfStatus,
    pub proc: ProcId,
    pub bindings: BTreeMap<u16, Binding>,
    /// Frames dropped because the VNF was not running.
    pub dropped_not_running: u64,
}

/// The container's VNF table and attachment inventory — also the
/// [`VnfInstrumentation`] the NETCONF agent drives. This is the
/// "instrumentation part" the paper says is all that changes on a real
/// platform.
pub struct VnfHost {
    pub name: String,
    pub vnfs: Vec<VnfSlot>,
    by_id: LookupMap<String, usize>,
    pub cpu: CpuModel,
    catalog: Catalog,
    registry: Registry,
    /// Free attachment points: switch name -> (container port, switch
    /// port) pairs pre-provisioned at build time.
    attach_free: LookupMap<String, Vec<(u16, u16)>>,
    /// Ingress dispatch: container port -> (vnf index, device).
    port_bindings: LookupMap<u16, (usize, u16)>,
    seed: u64,
    next_vnf: u32,
    /// Frames that arrived on an unbound port.
    pub unbound_rx: u64,
    /// When set, [`VnfHost::process`] collects the Click elements each
    /// frame traverses (the flight recorder's per-element view).
    trace_paths: bool,
    /// The (vnf slot, element index) steps of the frame `process` ran
    /// last, reused across frames.
    steps: Vec<(u32, u16)>,
    /// One shared path per distinct traversal, so a traced frame costs a
    /// lookup, not a copy of every name. A VNF's entries go when it
    /// stops; records still in the trace ring keep their own `Arc`.
    paths: LookupMap<Box<[(u32, u16)]>, Arc<VnfPath>>,
    /// `run`'s (vnf, dev, frame) work queue and one router's emissions,
    /// reused across frames.
    queue: Vec<(usize, u16, Packet)>,
    routed: Vec<(u16, Packet)>,
}

impl VnfHost {
    /// Creates the host. `attach` lists pre-provisioned attachment points
    /// as (switch name, container port, switch port).
    pub fn new(name: impl Into<String>, mut attach: Vec<(String, u16, u16)>, seed: u64) -> VnfHost {
        // Deterministic allocation order: pop() takes the lowest pair.
        attach.sort_unstable_by(|a, b| b.cmp(a));
        let mut attach_free: LookupMap<String, Vec<(u16, u16)>> = LookupMap::new();
        for (sw, cport, sport) in attach {
            attach_free.entry(sw).or_default().push((cport, sport));
        }
        VnfHost {
            name: name.into(),
            vnfs: Vec::new(),
            by_id: LookupMap::new(),
            cpu: CpuModel::new(),
            catalog: Catalog::standard(),
            registry: Registry::standard(),
            attach_free,
            port_bindings: LookupMap::new(),
            seed,
            next_vnf: 0,
            unbound_rx: 0,
            trace_paths: false,
            steps: Vec::new(),
            paths: LookupMap::new(),
            queue: Vec::new(),
            routed: Vec::new(),
        }
    }

    /// Enables per-element path collection (see [`VnfHost::process`]).
    pub fn set_trace_paths(&mut self, on: bool) {
        self.trace_paths = on;
    }

    /// Index of a VNF by id.
    pub fn vnf_index(&self, id: &str) -> Option<usize> {
        self.by_id.get(id).copied()
    }

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

    /// Runs a frame through a VNF (following internal bindings), charging
    /// CPU. Appends frames to emit as (container port, packet) to `out`
    /// and returns the CPU completion time and — when path tracing is
    /// enabled and the frame was pushed through any element — the Click
    /// elements it traversed (elements of chained co-located VNFs are
    /// prefixed with their VNF id).
    pub fn process(
        &mut self,
        vnf: usize,
        dev: u16,
        pkt: Packet,
        now: Time,
        out: &mut Vec<(u16, Packet)>,
    ) -> (Time, Option<Arc<VnfPath>>) {
        let trace = self.trace_paths;
        let done = self.run(vnf, dev, pkt, now, trace, out);
        debug_assert!(self.steps.first().is_none_or(|s| s.0 as usize == vnf));
        let path = (trace && !self.steps.is_empty()).then(|| self.shared_path());
        (done, path)
    }

    /// The shared path of the traversal in `steps`, built on first sight.
    /// The entry VNF took the first step, so the steps alone name it.
    fn shared_path(&mut self) -> Arc<VnfPath> {
        if let Some(path) = self.paths.get(self.steps.as_slice()) {
            return Arc::clone(path);
        }
        let entry = self.steps[0].0;
        let elements = self
            .steps
            .iter()
            .map(|&(vi, e)| {
                let slot = &self.vnfs[vi as usize];
                let name = &slot.router.element_names()[usize::from(e)];
                if vi == entry {
                    name.clone()
                } else {
                    format!("{}:{name}", slot.id)
                }
            })
            .collect();
        let path = Arc::new(VnfPath {
            vnf: self.vnfs[entry as usize].id.clone(),
            elements,
        });
        self.paths
            .insert(self.steps.as_slice().into(), Arc::clone(&path));
        path
    }

    /// [`VnfHost::process`]'s work; `trace` collects its steps.
    fn run(
        &mut self,
        vnf: usize,
        dev: u16,
        pkt: Packet,
        now: Time,
        trace: bool,
        external: &mut Vec<(u16, Packet)>,
    ) -> Time {
        let mut total_work = 0u64;
        self.steps.clear();
        // The loop guard below can leave work queued; it must not ride
        // along with this frame.
        self.queue.clear();
        self.queue.push((vnf, dev, pkt));
        let mut hops = 0;
        let entry_proc = self.vnfs[vnf].proc;
        while let Some((vi, d, p)) = self.queue.pop() {
            hops += 1;
            if hops > 32 {
                break; // internal wiring loop guard
            }
            let slot = &mut self.vnfs[vi];
            if slot.status != VnfStatus::Running {
                slot.dropped_not_running += 1;
                continue;
            }
            slot.router.trace_paths = trace;
            total_work += slot.router.push_into(d, p, now, &mut self.routed);
            if trace {
                let traced = slot.router.traced().iter();
                self.steps.extend(traced.map(|&e| (vi as u32, e)));
            }
            for (out_dev, out_pkt) in self.routed.drain(..) {
                match slot.bindings.get(&out_dev) {
                    Some(Binding::External { container_port, .. }) => {
                        external.push((*container_port, out_pkt));
                    }
                    Some(&Binding::Internal { vnf: nv, dev: nd }) => {
                        self.queue.push((nv, nd, out_pkt));
                    }
                    None => {} // unbound output: dropped on the floor
                }
            }
        }
        if total_work == 0 {
            now
        } else {
            self.cpu.run(entry_proc, now, total_work)
        }
    }

    /// Drives time-based element work (shapers, sources) of one VNF,
    /// appending frames to emit to `external`; returns the CPU
    /// completion time.
    pub fn tick_vnf(&mut self, vnf: usize, now: Time, external: &mut Vec<(u16, Packet)>) -> Time {
        let slot = &mut self.vnfs[vnf];
        if slot.status != VnfStatus::Running {
            return now;
        }
        let out = slot.router.tick(now);
        let work = out.work_ns;
        let mut internal = Vec::new();
        for (out_dev, out_pkt) in out.external {
            match slot.bindings.get(&out_dev) {
                Some(Binding::External { container_port, .. }) => {
                    external.push((*container_port, out_pkt))
                }
                Some(&Binding::Internal { vnf: nv, dev: nd }) => internal.push((nv, nd, out_pkt)),
                None => {}
            }
        }
        let proc_ = slot.proc;
        let mut done = if work == 0 {
            now
        } else {
            self.cpu.run(proc_, now, work)
        };
        for (nv, nd, p) in internal {
            // Path attribution is not collected for tick-driven work —
            // deferred frames left the recorded journey at the shaper.
            done = done.max(self.run(nv, nd, p, now, false, external));
        }
        done
    }

    /// Earliest pending element wake across running VNFs.
    pub fn next_wake(&self) -> Option<Time> {
        self.vnfs
            .iter()
            .filter(|v| v.status == VnfStatus::Running)
            .filter_map(|v| v.router.next_wake())
            .min()
    }

    /// Ingress dispatch for a container port.
    pub fn binding_at(&self, port: u16) -> Option<(usize, u16)> {
        self.port_bindings.get(&port).copied()
    }

    /// Wires one VNF device directly into another VNF on this container
    /// (used by the deployment pipeline for co-located chain hops).
    pub fn bind_internal(
        &mut self,
        from_id: &str,
        from_dev: u16,
        to_id: &str,
        to_dev: u16,
    ) -> Result<(), String> {
        let from = self
            .vnf_index(from_id)
            .ok_or_else(|| format!("no vnf {from_id}"))?;
        let to = self
            .vnf_index(to_id)
            .ok_or_else(|| format!("no vnf {to_id}"))?;
        self.vnfs[from].bindings.insert(
            from_dev,
            Binding::Internal {
                vnf: to,
                dev: to_dev,
            },
        );
        Ok(())
    }

    /// Reads one handler of one VNF (Clicky's probe).
    pub fn read_handler(&self, vnf_id: &str, spec: &str) -> Option<String> {
        let idx = self.vnf_index(vnf_id)?;
        self.vnfs[idx].router.read_handler(spec)
    }

    /// Writes one handler of one VNF (live reconfiguration).
    pub fn write_handler(&mut self, vnf_id: &str, spec: &str, value: &str) -> Result<(), String> {
        let idx = self
            .vnf_index(vnf_id)
            .ok_or_else(|| format!("no vnf {vnf_id}"))?;
        self.vnfs[idx].router.write_handler(spec, value)
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

/// Timer token layout for the container node.
const TOKEN_KIND_SHIFT: u64 = 48;
const KIND_TICK: u64 = 1;
const KIND_RELEASE: u64 = 2;

/// A deferred emission waiting for the virtual CPU.
struct PendingOut {
    at: Time,
    seq: u64,
    port: u16,
    pkt: Packet,
}

impl PartialEq for PendingOut {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl Eq for PendingOut {}
impl PartialOrd for PendingOut {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for PendingOut {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Min-heap on (at, seq).
        (o.at, o.seq).cmp(&(self.at, self.seq))
    }
}

/// The emulator node: NETCONF agent + dataplane forwarding through the
/// hosted VNFs.
pub struct VnfContainer {
    pub agent: Agent<VnfHost>,
    conn: Option<CtrlId>,
    pending: BinaryHeap<PendingOut>,
    seq: u64,
    /// Fire time of the earliest outstanding `KIND_RELEASE` timer, if
    /// any. The kernel cannot cancel timers, so without this marker
    /// every deferred frame would start its own release chain re-arming
    /// at the shared earliest-pending time — O(backlog²) timer events
    /// under sustained overload. Arming only when the new deadline beats
    /// the marker keeps exactly one live chain.
    release_armed: Option<Time>,
    /// Same coalescing for `KIND_TICK`, per VNF slot (see
    /// [`VnfContainer::release_armed`]). Indexed like `vnfs`; grown on
    /// demand when replicas are added.
    tick_armed: Vec<Option<Time>>,
    /// Frames the last `process` or `tick_vnf` emitted, reused across
    /// frames; `schedule_outputs` drains it.
    outputs: Vec<(u16, Packet)>,
}

impl VnfContainer {
    /// Creates a container node. `session_id` seeds the agent; `attach`
    /// pre-provisions attachment points (see [`VnfHost::new`]).
    pub fn new(
        name: impl Into<String>,
        session_id: u32,
        attach: Vec<(String, u16, u16)>,
        seed: u64,
    ) -> VnfContainer {
        VnfContainer {
            agent: Agent::new(session_id, VnfHost::new(name, attach, seed)),
            conn: None,
            pending: BinaryHeap::new(),
            seq: 0,
            release_armed: None,
            tick_armed: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The hosted VNF table.
    pub fn host(&self) -> &VnfHost {
        &self.agent.instr
    }

    /// Mutable access to the hosted VNF table (tests, fault injection).
    pub fn host_mut(&mut self) -> &mut VnfHost {
        &mut self.agent.instr
    }

    /// Frames finished by the Click routers but still waiting on the
    /// virtual CPU — the container's output backlog. The autoscaler reads
    /// this as the queue-depth signal for replicas hosted here.
    pub fn pending_depth(&self) -> usize {
        self.pending.len()
    }

    /// Sends (or, until the CPU is `done`, defers) the frames in
    /// `outputs`, leaving it empty.
    fn schedule_outputs(&mut self, ctx: &mut NodeCtx<'_>, done: Time) {
        let now = ctx.now();
        if done <= now {
            for (port, pkt) in self.outputs.drain(..) {
                ctx.send(port, pkt);
            }
        } else {
            for (port, pkt) in self.outputs.drain(..) {
                self.seq += 1;
                self.pending.push(PendingOut {
                    at: done,
                    seq: self.seq,
                    port,
                    pkt,
                });
            }
            self.arm_release(ctx, done);
        }
    }

    /// Arms a `KIND_RELEASE` timer at `at` unless an outstanding one
    /// already fires no later than that (timers cannot be canceled, so
    /// a duplicate would start a second chain — see `release_armed`).
    fn arm_release(&mut self, ctx: &mut NodeCtx<'_>, at: Time) {
        let fire_at = at.max(ctx.now().add_ns(1));
        if self.release_armed.is_none_or(|t| fire_at < t) {
            ctx.set_timer(
                Time::from_ns(fire_at.since(ctx.now())),
                KIND_RELEASE << TOKEN_KIND_SHIFT,
            );
            self.release_armed = Some(fire_at);
        }
    }

    fn arm_ticks(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        if self.tick_armed.len() < self.agent.instr.vnfs.len() {
            self.tick_armed.resize(self.agent.instr.vnfs.len(), None);
        }
        for (i, v) in self.agent.instr.vnfs.iter().enumerate() {
            if v.status != VnfStatus::Running {
                continue;
            }
            if let Some(w) = v.router.next_wake() {
                let fire_at = w.max(now.add_ns(1));
                if self.tick_armed[i].is_none_or(|t| fire_at < t) {
                    let delay = Time::from_ns(fire_at.since(now));
                    ctx.set_timer(delay, (KIND_TICK << TOKEN_KIND_SHIFT) | i as u64);
                    self.tick_armed[i] = Some(fire_at);
                }
            }
        }
    }
}

impl NodeLogic for VnfContainer {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
        let (pkt_id, pkt_len) = (pkt.id, pkt.len());
        let Some((vnf, dev)) = self.agent.instr.binding_at(port) else {
            self.agent.instr.unbound_rx += 1;
            ctx.trace_drop(pkt_id, pkt_len, port, DropReason::NoRoute);
            return;
        };
        let now = ctx.now();
        self.agent.instr.set_trace_paths(ctx.tracing());
        let was_running = self.agent.instr.vnfs[vnf].status == VnfStatus::Running;
        let host = &mut self.agent.instr;
        let (done, path) = host.process(vnf, dev, pkt, now, &mut self.outputs);
        if let Some(path) = path {
            ctx.trace_hop(pkt_id, pkt_len, port, HopDetail::VnfPath(path));
        }
        if self.outputs.is_empty() {
            if !was_running {
                ctx.trace_drop(pkt_id, pkt_len, port, DropReason::VnfDown);
            } else if self.agent.instr.next_wake().is_none() {
                // Nothing deferred anywhere: the VNF consumed the frame
                // (e.g. a firewall deny rule). A frame parked behind a
                // shaper would have left a pending wake instead.
                ctx.trace_drop(pkt_id, pkt_len, port, DropReason::Filtered);
            }
        }
        self.schedule_outputs(ctx, done);
        self.arm_ticks(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let kind = token >> TOKEN_KIND_SHIFT;
        match kind {
            KIND_RELEASE => {
                let now = ctx.now();
                if self.release_armed.is_some_and(|t| t <= now) {
                    self.release_armed = None;
                }
                while self.pending.peek().is_some_and(|p| p.at <= now) {
                    let p = self.pending.pop().expect("peek just saw this entry");
                    ctx.send(p.port, p.pkt);
                }
                if let Some(p) = self.pending.peek() {
                    let at = p.at;
                    self.arm_release(ctx, at);
                }
            }
            KIND_TICK => {
                let vnf = (token & 0xffff_ffff) as usize;
                if vnf < self.tick_armed.len()
                    && self.tick_armed[vnf].is_some_and(|t| t <= ctx.now())
                {
                    self.tick_armed[vnf] = None;
                }
                if vnf < self.agent.instr.vnfs.len() {
                    let now = ctx.now();
                    let due = self.agent.instr.vnfs[vnf]
                        .router
                        .next_wake()
                        .is_some_and(|w| w <= now);
                    if due {
                        let host = &mut self.agent.instr;
                        let done = host.tick_vnf(vnf, now, &mut self.outputs);
                        self.schedule_outputs(ctx, done);
                    }
                    self.arm_ticks(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_ctrl(&mut self, ctx: &mut NodeCtx<'_>, conn: CtrlId, msg: Vec<u8>) {
        if self.conn.is_none() {
            // First contact: this is our management session — greet.
            self.conn = Some(conn);
            let hello = self.agent.start();
            ctx.ctrl_send(conn, hello);
        }
        let out = self.agent.on_bytes(&msg);
        if !out.is_empty() {
            ctx.ctrl_send(conn, out);
        }
        // Control actions may have started VNFs with scheduled work.
        self.arm_ticks(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use escape_netem::{LinkConfig, Sim};
    use escape_packet::{MacAddr, PacketBuilder};
    use std::net::Ipv4Addr;

    fn frame(dport: u16) -> Bytes {
        PacketBuilder::udp(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            7,
            dport,
            Bytes::from_static(b"container"),
        )
    }

    fn attach4() -> Vec<(String, u16, u16)> {
        (0..4).map(|i| ("s0".to_string(), i, 10 + i)).collect()
    }

    #[test]
    fn instrumentation_lifecycle_direct() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let id = h.initiate("monitor", None, &[]).unwrap();
        assert_eq!(id, "c0-vnf1");
        let sp = h.connect(&id, 0, "s0").unwrap();
        assert_eq!(sp, 10);
        let sp = h.connect(&id, 1, "s0").unwrap();
        assert_eq!(sp, 11);
        assert!(h.connect(&id, 1, "s0").is_err(), "double connect refused");
        assert!(h.connect(&id, 2, "s9").is_err(), "unknown switch refused");
        h.start(&id).unwrap();
        let info = h.info(None);
        assert_eq!(info[0].status, "running");
        assert_eq!(info[0].ports.len(), 2);
        h.disconnect(&id, 0).unwrap();
        // The attachment point is recycled.
        let sp = h.connect(&id, 0, "s0").unwrap();
        assert_eq!(sp, 10);
        // getVNFInfo lists ports in ascending order, whatever the connect order.
        let mut h = VnfHost::new("c0", (0..64).map(|i| ("s0".into(), i, i)).collect(), 1);
        for _ in 0..16 {
            let id = h.initiate("monitor", None, &[]).unwrap();
            for port in [3, 1, 2, 0] {
                h.connect(&id, port, "s0").unwrap();
            }
        }
        let want: Vec<(u16, String)> = (0..4).map(|p| (p, "s0".into())).collect();
        assert!(h.info(None).iter().all(|v| v.ports == want));
    }

    #[test]
    fn isolation_options_are_parsed() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        h.initiate("monitor", None, &[("isolation".into(), "share:1:4".into())])
            .unwrap();
        h.initiate(
            "monitor",
            None,
            &[("isolation".into(), "quota:1000:10000".into())],
        )
        .unwrap();
        assert!(h
            .initiate("monitor", None, &[("isolation".into(), "bogus".into())])
            .is_err());
    }

    #[test]
    fn catalog_params_pass_through_options() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let id = h
            .initiate(
                "firewall",
                None,
                &[("rules".into(), "deny udp, allow all".into())],
            )
            .unwrap();
        assert_eq!(h.read_handler(&id, "fw.rules").unwrap(), "2");
    }

    #[test]
    fn raw_click_config_overrides_catalog() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let id = h
            .initiate(
                "custom",
                Some("FromDevice(0) -> c :: Counter -> ToDevice(1);"),
                &[],
            )
            .unwrap();
        assert!(h.read_handler(&id, "c.count").is_some());
        assert!(h.initiate("custom", Some("syntax error ("), &[]).is_err());
    }

    #[test]
    fn frames_on_one_path_share_it_until_the_vnf_stops() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let id = h.initiate("monitor", None, &[]).unwrap();
        h.connect(&id, 0, "s0").unwrap();
        h.connect(&id, 1, "s0").unwrap();
        h.start(&id).unwrap();
        h.set_trace_paths(true);
        let mut out = Vec::new();
        let first = h.process(0, 0, Packet::from_bytes(frame(80)), Time::ZERO, &mut out);
        let second = h.process(0, 0, Packet::from_bytes(frame(81)), Time::ZERO, &mut out);
        let (a, b) = (first.1.unwrap(), second.1.unwrap());
        assert!(Arc::ptr_eq(&a, &b), "one path, one allocation");
        assert_eq!(a.vnf, id);
        assert_eq!(h.paths.len(), 1);
        h.stop(&id).unwrap();
        assert!(h.paths.is_empty(), "a stopped VNF's paths are dropped");
        assert!(
            a.elements.iter().any(|e| e == "in_cnt"),
            "held paths live on"
        );
        h.start(&id).unwrap();
        h.set_trace_paths(false);
        let untraced = h.process(0, 0, Packet::from_bytes(frame(82)), Time::ZERO, &mut out);
        assert!(untraced.1.is_none());
        assert!(h.paths.is_empty());
    }

    #[test]
    fn tick_driven_work_builds_no_path() {
        let mut h = VnfHost::new("c0", attach4(), 1);
        let shaper = h
            .initiate(
                "custom",
                Some("FromDevice(0) -> s :: BandwidthShaper(1000) -> ToDevice(1);"),
                &[],
            )
            .unwrap();
        let mon = h.initiate("monitor", None, &[]).unwrap();
        h.connect(&shaper, 0, "s0").unwrap();
        h.bind_internal(&shaper, 1, &mon, 0).unwrap();
        h.connect(&mon, 1, "s0").unwrap();
        h.start(&shaper).unwrap();
        h.start(&mon).unwrap();
        h.set_trace_paths(true);
        let mut out = Vec::new();
        let (_, path) = h.process(0, 0, Packet::from_bytes(frame(80)), Time::ZERO, &mut out);
        assert!(out.is_empty(), "parked behind the shaper");
        let path = path.expect("the frame reached the shaper");
        assert_eq!(path.elements.last().map(String::as_str), Some("s"));
        assert_eq!(h.paths.len(), 1);
        let wake = h.next_wake().expect("the shaper wakes to release it");
        h.tick_vnf(0, wake, &mut out);
        assert_eq!(out.len(), 1, "released through the monitor");
        assert!(h.vnfs.iter().all(|v| v.router.traced().is_empty()));
        assert_eq!(h.paths.len(), 1, "tick-driven work adds no path");
    }

    /// Sink node capturing frames.
    #[derive(Default)]
    struct Sink {
        rx: Vec<(u16, Packet)>,
    }
    impl NodeLogic for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, port: u16, pkt: Packet) {
            self.rx.push((port, pkt));
        }
    }

    /// Wires container port k <-> sink port k for k in 0..2, then binds a
    /// monitor VNF between them, mimicking what deployment does.
    fn rigged_sim() -> (Sim, escape_netem::NodeId, escape_netem::NodeId, String) {
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        let vnf_id = {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let id = host.initiate("monitor", None, &[]).unwrap();
            host.connect(&id, 0, "s0").unwrap();
            host.connect(&id, 1, "s0").unwrap();
            host.start(&id).unwrap();
            id
        };
        (sim, c, sink, vnf_id)
    }

    #[test]
    fn deferred_release_timers_coalesce() {
        // A slow VNF (150-rule firewall, ~3.2 us of virtual CPU per
        // frame) hit by a 100 ns-paced burst builds a deep
        // deferred-output backlog. Each deferred frame must not start
        // its own release-timer chain: per-frame arming dispatches
        // O(backlog²) timer events under sustained overload.
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        let rules = (1..150)
            .map(|i| format!("deny udp and dst port {}, ", 20_000 + i))
            .collect::<String>()
            + "allow all";
        {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let id = host
                .initiate("firewall", None, &[("rules".into(), rules)])
                .unwrap();
            host.connect(&id, 0, "s0").unwrap();
            host.connect(&id, 1, "s0").unwrap();
            host.start(&id).unwrap();
        }
        let n = 200u64;
        for k in 0..n {
            sim.inject(c, 0, frame(80), Time::from_ns(k * 100));
        }
        sim.run(u64::MAX);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), n as usize, "every frame eventually released");
        let timers = sim.stats().timers;
        assert!(
            timers <= 3 * n,
            "release timers must coalesce: {timers} timer events for {n} frames"
        );
    }

    #[test]
    fn dataplane_flows_through_vnf() {
        let (mut sim, c, sink, vnf_id) = rigged_sim();
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), 1);
        assert_eq!(s.rx[0].0, 1, "exited through dev 1 -> container port 1");
        let host = sim.node_as::<VnfContainer>(c).unwrap().host();
        assert_eq!(host.read_handler(&vnf_id, "in_cnt.count").unwrap(), "1");
        // Reverse direction.
        sim.inject(c, 1, frame(81), sim.now());
        sim.run(1000);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), 2);
        assert_eq!(s.rx[1].0, 0);
    }

    #[test]
    fn stopped_vnf_drops() {
        let (mut sim, c, sink, vnf_id) = rigged_sim();
        sim.node_as_mut::<VnfContainer>(c)
            .unwrap()
            .host_mut()
            .stop(&vnf_id)
            .unwrap();
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        assert!(sim.node_as::<Sink>(sink).unwrap().rx.is_empty());
        assert_eq!(
            sim.node_as::<VnfContainer>(c).unwrap().host().vnfs[0].dropped_not_running,
            1
        );
    }

    #[test]
    fn unbound_port_counts() {
        let mut sim = Sim::new(0);
        let c = sim.add_node("c0", 1, Box::new(VnfContainer::new("c0", 1, vec![], 0)));
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(100);
        assert_eq!(sim.node_as::<VnfContainer>(c).unwrap().host().unbound_rx, 1);
    }

    #[test]
    fn vnf_path_hop_and_vnf_down_drop_are_recorded() {
        let (mut sim, c, _sink, vnf_id) = rigged_sim();
        sim.enable_trace(1000);
        let id = sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        {
            let tr = sim.trace.as_ref().unwrap();
            let hop = tr
                .for_packet(id)
                .find(|r| r.dir == escape_netem::TraceDir::Hop)
                .expect("VNF hop recorded");
            let Some(HopDetail::VnfPath(path)) = &hop.hop else {
                panic!("expected VnfPath, got {:?}", hop.hop);
            };
            assert_eq!(path.vnf, vnf_id);
            assert!(
                path.elements.iter().any(|e| e == "in_cnt"),
                "monitor's counter missing from path {:?}",
                path.elements
            );
        }
        // Stopped VNF: the drop is typed and counted.
        sim.node_as_mut::<VnfContainer>(c)
            .unwrap()
            .host_mut()
            .stop(&vnf_id)
            .unwrap();
        let id2 = sim.inject(c, 0, frame(80), sim.now());
        sim.run(1000);
        let tr = sim.trace.as_ref().unwrap();
        let drop = tr
            .for_packet(id2)
            .find(|r| r.dir == escape_netem::TraceDir::Drop)
            .expect("drop recorded");
        assert_eq!(drop.drop, Some(DropReason::VnfDown));
        let snap = sim.telemetry().snapshot();
        assert_eq!(
            snap.counter("netem.drops", &[("reason", "vnf_down")]),
            Some(1)
        );
    }

    #[test]
    fn firewall_deny_is_attributed_as_filtered() {
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let id = host
                .initiate("firewall", None, &[("rules".into(), "deny udp".into())])
                .unwrap();
            host.connect(&id, 0, "s0").unwrap();
            host.connect(&id, 1, "s0").unwrap();
            host.start(&id).unwrap();
        }
        sim.enable_trace(1000);
        let id = sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        assert!(sim.node_as::<Sink>(sink).unwrap().rx.is_empty());
        let tr = sim.trace.as_ref().unwrap();
        let drop = tr
            .for_packet(id)
            .find(|r| r.dir == escape_netem::TraceDir::Drop)
            .expect("filtered frame leaves a drop record");
        assert_eq!(drop.drop, Some(DropReason::Filtered));
    }

    #[test]
    fn cpu_cost_delays_emission() {
        // A DPI VNF charges per-byte work; under a tight CPU quota the
        // output is deferred.
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let id = host
                .initiate(
                    "dpi",
                    None,
                    &[("isolation".into(), "share:1:100".into())], // 1% of a CPU
                )
                .unwrap();
            host.connect(&id, 0, "s0").unwrap();
            host.connect(&id, 1, "s0").unwrap();
            host.start(&id).unwrap();
        }
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(10_000);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), 1);
        // The work is inflated 100x; emission must be visibly later than 0.
        assert!(sim.now() > Time::from_us(10), "emitted at {}", sim.now());
    }

    #[test]
    fn internal_chaining_between_colocated_vnfs() {
        let mut sim = Sim::new(2);
        let attach = vec![("s0".to_string(), 0u16, 0u16), ("s0".to_string(), 1, 1)];
        let c = sim.add_node("c0", 2, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let sink = sim.add_node("peer", 2, Box::new(Sink::default()));
        sim.connect((c, 0), (sink, 0), LinkConfig::ideal());
        sim.connect((c, 1), (sink, 1), LinkConfig::ideal());
        let (_v1, v2) = {
            let host = sim.node_as_mut::<VnfContainer>(c).unwrap().host_mut();
            let v1 = host.initiate("monitor", None, &[]).unwrap();
            let v2 = host.initiate("monitor", None, &[]).unwrap();
            host.connect(&v1, 0, "s0").unwrap(); // in from fabric
            host.bind_internal(&v1, 1, &v2, 0).unwrap(); // v1 -> v2 inside
            host.connect(&v2, 1, "s0").unwrap(); // out to fabric
            host.start(&v1).unwrap();
            host.start(&v2).unwrap();
            (v1, v2)
        };
        sim.inject(c, 0, frame(80), Time::ZERO);
        sim.run(1000);
        let s = sim.node_as::<Sink>(sink).unwrap();
        assert_eq!(s.rx.len(), 1);
        let host = sim.node_as::<VnfContainer>(c).unwrap().host();
        assert_eq!(host.read_handler(&v2, "in_cnt.count").unwrap(), "1");
    }

    #[test]
    fn netconf_over_ctrl_channel_manages_vnfs() {
        use escape_netconf::{Client, ClientEvent};
        // Relay node standing in for the orchestrator.
        #[derive(Default)]
        struct Relay {
            inbox: Vec<Vec<u8>>,
        }
        impl NodeLogic for Relay {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: u16, _: Packet) {}
            fn on_ctrl(&mut self, _: &mut NodeCtx<'_>, _: CtrlId, msg: Vec<u8>) {
                self.inbox.push(msg);
            }
        }
        let mut sim = Sim::new(1);
        let attach = vec![("s0".to_string(), 0u16, 0u16)];
        let c = sim.add_node("c0", 1, Box::new(VnfContainer::new("c0", 1, attach, 7)));
        let mgr = sim.add_node("mgr", 0, Box::new(Relay::default()));
        let conn = sim.ctrl_connect(mgr, c, Time::from_us(100));

        let mut client = Client::new();
        sim.ctrl_send_from(mgr, conn, client.start());
        sim.run(100);
        // Agent's hello arrived at the relay.
        let hello = sim.node_as_mut::<Relay>(mgr).unwrap().inbox.remove(0);
        let ev = client.on_bytes(&hello);
        assert!(matches!(ev[0], ClientEvent::HelloReceived { .. }));
        assert!(client.has_vnf_starter());

        let (_, req) = client.initiate_vnf("monitor", None, &[]);
        sim.ctrl_send_from(mgr, conn, req);
        sim.run(100);
        let reply = sim.node_as_mut::<Relay>(mgr).unwrap().inbox.remove(0);
        let ev = client.on_bytes(&reply);
        let ClientEvent::Reply(r) = &ev[0] else {
            panic!()
        };
        let vnf_id = escape_netconf::client::vnf_id_of(r).unwrap();
        assert_eq!(vnf_id, "c0-vnf1");
    }
}
