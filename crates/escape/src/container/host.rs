//! [`VnfHost`]'s router execution: a frame runs through the hosted Click
//! routers, following internal bindings, with the path map and the
//! work buffers reused across frames.

use super::{Binding, VnfHost, VnfStatus};
use escape_catalog::Catalog;
use escape_click::Registry;
use escape_netem::{CpuModel, Time, VnfPath};
use escape_packet::{LookupMap, Packet};
use std::sync::Arc;

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
}
