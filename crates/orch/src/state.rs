//! Residual resource tracking.

use escape_sg::topo::{link_key, TopoNodeKind};
use escape_sg::ResourceTopology;
use std::collections::BTreeMap;

/// Residual CPU per container and bandwidth per link. The orchestrator's
/// "global network and resource view".
#[derive(Debug, Clone, Default)]
pub struct ResourceState {
    /// Residual CPU cores per container.
    pub cpu: BTreeMap<String, f64>,
    /// Residual memory MB per container.
    pub mem: BTreeMap<String, u64>,
    /// Residual bandwidth (Mbit/s) per canonical link key.
    pub bw: BTreeMap<(String, String), f64>,
    /// Residuals stashed away for failed containers: while a container is
    /// in here its live cpu/mem read zero, and releases route into the
    /// stash so the effective view (and the ledger audit) stays exact. A
    /// failed container never comes back: a crashed node stays dead.
    failed_compute: BTreeMap<String, (f64, u64)>,
    /// Same for failed links (stashed residual bandwidth).
    failed_links: BTreeMap<(String, String), f64>,
}

impl ResourceState {
    /// Full capacities from a topology.
    pub fn from_topology(topo: &ResourceTopology) -> ResourceState {
        let mut s = ResourceState::default();
        for n in &topo.nodes {
            if let TopoNodeKind::Container { cpu, mem_mb } = n.kind {
                s.cpu.insert(n.name.clone(), cpu);
                s.mem.insert(n.name.clone(), mem_mb);
            }
        }
        for l in &topo.links {
            // Parallel links accumulate.
            *s.bw.entry(link_key(&l.a, &l.b)).or_insert(0.0) += l.bandwidth_mbps;
        }
        s
    }

    /// Residual CPU of a container (0 if unknown).
    pub fn cpu_of(&self, container: &str) -> f64 {
        self.cpu.get(container).copied().unwrap_or(0.0)
    }

    /// Residual bandwidth of a link (0 if unknown).
    pub fn bw_of(&self, a: &str, b: &str) -> f64 {
        self.bw.get(&link_key(a, b)).copied().unwrap_or(0.0)
    }

    /// True if `container` can host a (cpu, mem) demand. Failed
    /// containers never fit.
    pub fn fits(&self, container: &str, cpu: f64, mem_mb: u64) -> bool {
        !self.failed_compute.contains_key(container)
            && self.cpu_of(container) >= cpu
            && self.mem.get(container).copied().unwrap_or(0) >= mem_mb
    }

    // ------------- failure marking ----------------------------------

    /// Marks a container failed: its residual cpu/mem is stashed and
    /// reads zero, so no algorithm places onto it and no release leaks
    /// capacity back. Returns false if unknown or already failed.
    pub fn fail_container(&mut self, container: &str) -> bool {
        if self.failed_compute.contains_key(container) {
            return false;
        }
        let (Some(c), Some(m)) = (self.cpu.get_mut(container), self.mem.get_mut(container)) else {
            return false;
        };
        self.failed_compute.insert(container.to_string(), (*c, *m));
        *c = 0.0;
        *m = 0;
        true
    }

    /// True if the container is currently marked failed.
    pub fn container_failed(&self, container: &str) -> bool {
        self.failed_compute.contains_key(container)
    }

    /// Marks a link failed: its residual bandwidth is stashed and reads
    /// zero, so path search and reservation route around it.
    pub fn fail_link(&mut self, a: &str, b: &str) -> bool {
        let key = link_key(a, b);
        if self.failed_links.contains_key(&key) {
            return false;
        }
        let Some(bw) = self.bw.get_mut(&key) else {
            return false;
        };
        let stashed = *bw;
        *bw = 0.0;
        self.failed_links.insert(key, stashed);
        true
    }

    /// Restores a failed link's stashed residual bandwidth.
    pub fn recover_link(&mut self, a: &str, b: &str) -> bool {
        let key = link_key(a, b);
        let Some(stashed) = self.failed_links.remove(&key) else {
            return false;
        };
        *self.bw.get_mut(&key).expect("known link") += stashed;
        true
    }

    /// Reserves compute on a container. Fails without mutating if it
    /// doesn't fit.
    pub fn reserve_compute(
        &mut self,
        container: &str,
        cpu: f64,
        mem_mb: u64,
    ) -> Result<(), String> {
        if !self.fits(container, cpu, mem_mb) {
            return Err(format!(
                "container {container:?} cannot fit cpu={cpu} mem={mem_mb}"
            ));
        }
        // A zero demand fits a container the view does not know: there
        // is nothing to take from it.
        if let Some(c) = self.cpu.get_mut(container) {
            *c -= cpu;
        }
        if let Some(m) = self.mem.get_mut(container) {
            *m -= mem_mb;
        }
        Ok(())
    }

    /// Releases compute. Releases onto a failed container land in its
    /// stash, keeping the live view at zero.
    pub fn release_compute(&mut self, container: &str, cpu: f64, mem_mb: u64) {
        if let Some((c, m)) = self.failed_compute.get_mut(container) {
            *c += cpu;
            *m += mem_mb;
            return;
        }
        if let Some(c) = self.cpu.get_mut(container) {
            *c += cpu;
        }
        if let Some(m) = self.mem.get_mut(container) {
            *m += mem_mb;
        }
    }

    /// Reserves bandwidth along a node path (consecutive pairs). Fails
    /// without partial effects if any hop lacks capacity.
    pub fn reserve_path(&mut self, path: &[String], mbps: f64) -> Result<(), String> {
        for w in path.windows(2) {
            if self.bw_of(&w[0], &w[1]) < mbps {
                return Err(format!("link {}-{} lacks {mbps} Mbit/s", w[0], w[1]));
            }
        }
        // A zero demand passes a link the view does not know: there is
        // nothing to take from it.
        for w in path.windows(2) {
            if let Some(bw) = self.bw.get_mut(&link_key(&w[0], &w[1])) {
                *bw -= mbps;
            }
        }
        Ok(())
    }

    /// Releases bandwidth along a path. Releases onto a failed link land
    /// in its stash.
    pub fn release_path(&mut self, path: &[String], mbps: f64) {
        for w in path.windows(2) {
            let key = link_key(&w[0], &w[1]);
            if let Some(stash) = self.failed_links.get_mut(&key) {
                *stash += mbps;
            } else if let Some(b) = self.bw.get_mut(&key) {
                *b += mbps;
            }
        }
    }

    // ------------- conservation accessors ---------------------------

    /// Free CPU of a container *including* any failure stash: the value
    /// conservation audits compare against topology capacity, invariant
    /// under fail/recover cycles.
    pub fn effective_cpu_of(&self, container: &str) -> f64 {
        self.cpu_of(container) + self.failed_compute.get(container).map_or(0.0, |(c, _)| *c)
    }

    /// Free memory of a container including any failure stash.
    pub fn effective_mem_of(&self, container: &str) -> u64 {
        self.mem.get(container).copied().unwrap_or(0)
            + self.failed_compute.get(container).map_or(0, |(_, m)| *m)
    }

    /// Free bandwidth of a link including any failure stash.
    pub fn effective_bw_of(&self, a: &str, b: &str) -> f64 {
        self.bw_of(a, b)
            + self
                .failed_links
                .get(&link_key(a, b))
                .copied()
                .unwrap_or(0.0)
    }

    /// Total CPU still free, summed in container-name order.
    pub fn total_free_cpu(&self) -> f64 {
        self.cpu.values().sum()
    }
}

/// Sums per-container amounts in container-name order, so a total over
/// the topology's nodes has the same bits as [`ResourceState::total_free_cpu`]'s
/// (`f64` addition is not associative).
pub(crate) fn sum_in_name_order<'a>(amounts: impl Iterator<Item = (&'a str, f64)>) -> f64 {
    let mut amounts: Vec<(&str, f64)> = amounts.collect();
    amounts.sort_unstable_by_key(|(name, _)| *name);
    amounts.iter().map(|(_, amount)| amount).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_sg::topo::builders;

    #[test]
    fn capacities_come_from_topology() {
        let t = builders::linear(3, 4.0);
        let s = ResourceState::from_topology(&t);
        assert_eq!(s.cpu_of("c0"), 4.0);
        assert_eq!(s.bw_of("s0", "s1"), 1000.0);
        assert_eq!(s.bw_of("s1", "s0"), 1000.0, "canonical key is symmetric");
        assert_eq!(s.cpu_of("ghost"), 0.0);
    }

    #[test]
    fn reserve_and_release_compute() {
        let t = builders::linear(2, 2.0);
        let mut s = ResourceState::from_topology(&t);
        s.reserve_compute("c0", 1.5, 100).unwrap();
        assert!((s.cpu_of("c0") - 0.5).abs() < 1e-9);
        assert!(s.reserve_compute("c0", 1.0, 0).is_err());
        s.release_compute("c0", 1.5, 100);
        assert_eq!(s.cpu_of("c0"), 2.0);
    }

    #[test]
    fn memory_is_enforced() {
        let t = builders::linear(2, 8.0);
        let mut s = ResourceState::from_topology(&t);
        assert!(s.reserve_compute("c0", 1.0, 10_000_000).is_err());
        assert!(s.fits("c0", 1.0, 2048));
        assert!(!s.fits("c0", 1.0, 2049));
    }

    #[test]
    fn path_reservation_is_atomic() {
        let t = builders::linear(3, 2.0);
        let mut s = ResourceState::from_topology(&t);
        let path: Vec<String> = ["sap0", "s0", "s1", "s2", "sap1"]
            .map(String::from)
            .to_vec();
        s.reserve_path(&path, 600.0).unwrap();
        assert_eq!(s.bw_of("s0", "s1"), 400.0);
        // Second reservation exceeds the s0-s1 residual: nothing changes.
        let before = s.bw.clone();
        assert!(s.reserve_path(&path, 500.0).is_err());
        assert_eq!(s.bw, before);
        s.release_path(&path, 600.0);
        assert_eq!(s.bw_of("s0", "s1"), 1000.0);
    }

    #[test]
    fn failed_container_is_unusable_until_recovery() {
        let t = builders::linear(2, 2.0);
        let mut s = ResourceState::from_topology(&t);
        s.reserve_compute("c0", 1.0, 100).unwrap();
        assert!(s.fail_container("c0"));
        assert!(!s.fail_container("c0"), "idempotent");
        assert!(s.container_failed("c0"));
        assert_eq!(s.cpu_of("c0"), 0.0);
        assert!(!s.fits("c0", 0.0, 0), "failed container never fits");
        // Releasing the dead placement must not resurrect capacity.
        s.release_compute("c0", 1.0, 100);
        assert_eq!(s.cpu_of("c0"), 0.0);
        assert!(!s.fail_container("ghost"));
    }

    #[test]
    fn failed_link_blocks_and_restores_exactly() {
        let t = builders::linear(3, 2.0);
        let mut s = ResourceState::from_topology(&t);
        let path: Vec<String> = ["s0", "s1", "s2"].map(String::from).to_vec();
        s.reserve_path(&path, 300.0).unwrap();
        assert!(s.fail_link("s1", "s0"), "order-insensitive");
        assert!(!s.fail_link("s0", "s1"), "already failed");
        assert_eq!(s.bw_of("s0", "s1"), 0.0);
        assert!(s.reserve_path(&path, 1.0).is_err());
        // Release of the old path goes to the stash, not the live view.
        s.release_path(&path, 300.0);
        assert_eq!(s.bw_of("s0", "s1"), 0.0);
        assert_eq!(s.bw_of("s1", "s2"), 1000.0, "healthy links release live");
        assert!(s.recover_link("s0", "s1"));
        assert_eq!(s.bw_of("s0", "s1"), 1000.0);
        assert!(!s.recover_link("s0", "s1"), "already recovered");
    }

    #[test]
    fn effective_view_is_invariant_under_failure() {
        let t = builders::linear(3, 2.0);
        let mut s = ResourceState::from_topology(&t);
        s.reserve_compute("c0", 0.5, 128).unwrap();
        let path: Vec<String> = ["s0", "s1", "s2"].map(String::from).to_vec();
        s.reserve_path(&path, 200.0).unwrap();
        let (cpu0, mem0, bw0) = (
            s.effective_cpu_of("c0"),
            s.effective_mem_of("c0"),
            s.effective_bw_of("s0", "s1"),
        );
        s.fail_container("c0");
        s.fail_link("s0", "s1");
        assert_eq!(s.effective_cpu_of("c0"), cpu0);
        assert_eq!(s.effective_mem_of("c0"), mem0);
        assert_eq!(s.effective_bw_of("s0", "s1"), bw0);
        // Releases into the stash stay visible through the effective view.
        s.release_compute("c0", 0.5, 128);
        s.release_path(&path, 200.0);
        assert_eq!(s.effective_cpu_of("c0"), 2.0);
        assert_eq!(s.effective_bw_of("s0", "s1"), 1000.0);
    }

    #[test]
    fn containers_sorted_is_deterministic() {
        let t = builders::star(4, 1.0);
        let s = ResourceState::from_topology(&t);
        assert_eq!(s.cpu.keys().collect::<Vec<_>>(), ["c0", "c1", "c2", "c3"]);
        assert_eq!(s.total_free_cpu(), 4.0);
    }
}
