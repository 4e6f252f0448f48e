//! The path-search layer: one single-source shortest-path tree per chain
//! hop, on an adjacency index compiled once per topology.
//!
//! Every mapping algorithm and the engine's router ask the same two
//! questions — how far is every candidate container from here, and what
//! is the route to the one chosen — and both read off one tree grown from
//! the hop's location. The tree is *exactly* the one
//! [`ResourceTopology::shortest_path`] would walk, tie-breaks included
//! (that function stays the public API and the tests' reference):
//!
//! * node ids are ranks in name order, so the heap's `(delay, id)` pops in
//!   the reference's `(delay, name)` order;
//! * relaxation is on strict `<`, so among equal-cost predecessors the one
//!   popped first wins, as in the reference;
//! * the reference stops when `to` is popped; growing the whole tree
//!   cannot change `to`'s predecessor chain, because every later pop has
//!   delay ≥ `dist[to]` and so never strictly improves a node on it.

use crate::state::ResourceState;
use escape_sg::topo::link_key;
use escape_sg::ResourceTopology;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// One direction of a topology link, seen from the node whose list holds it.
struct Arc {
    to: usize,
    /// Position of the link in `topo.links`.
    link: usize,
    delay_us: u64,
}

/// A topology compiled for path search: integer node ids and per-node arc
/// lists, so a search neither scans the link list nor touches a string.
pub struct PathIndex {
    /// Node names, sorted; a node's id is its position.
    names: Vec<String>,
    ids: HashMap<String, usize>,
    /// Arcs leaving each node, in `topo.links` order.
    arcs: Vec<Vec<Arc>>,
    /// Per topology link: its key in the residual-bandwidth map and its
    /// nominal bandwidth (the fallback when the map has no entry).
    links: Vec<((String, String), f64)>,
}

impl PathIndex {
    /// Compiles `topo`. The index does not follow later edits to it.
    pub fn new(topo: &ResourceTopology) -> PathIndex {
        let mut names: Vec<String> = topo
            .nodes
            .iter()
            .map(|n| &n.name)
            .chain(topo.links.iter().flat_map(|l| [&l.a, &l.b]))
            .cloned()
            .collect();
        names.sort_unstable();
        names.dedup();
        let ids: HashMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let mut arcs: Vec<Vec<Arc>> = names.iter().map(|_| Vec::new()).collect();
        let mut links = Vec::with_capacity(topo.links.len());
        for (i, l) in topo.links.iter().enumerate() {
            let (a, b) = (ids[&l.a], ids[&l.b]);
            let arc = |to| Arc {
                to,
                link: i,
                delay_us: l.delay_us,
            };
            arcs[a].push(arc(b));
            if a != b {
                arcs[b].push(arc(a));
            }
            links.push((link_key(&l.a, &l.b), l.bandwidth_mbps));
        }
        PathIndex {
            names,
            ids,
            arcs,
            links,
        }
    }

    /// True if `name` is a node of the compiled topology.
    pub fn has_node(&self, name: &str) -> bool {
        self.ids.contains_key(name)
    }

    /// Starts a search session over `state`'s residual bandwidth: links
    /// with less than `min_bw_mbps` left are skipped (0.0 ignores
    /// bandwidth). The session is a snapshot — it must not outlive a
    /// change to `state.bw`.
    pub fn search(&self, state: &ResourceState, min_bw_mbps: f64) -> PathSearch<'_> {
        let usable = self
            .links
            .iter()
            .map(|(key, nominal)| {
                let available = state.bw.get(key).copied().unwrap_or(*nominal);
                // Negated `<` (not `>=`) so a NaN floor admits every link,
                // as in the reference.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                !(available < min_bw_mbps)
            })
            .collect();
        PathSearch {
            index: self,
            usable,
            trees: self.names.iter().map(|_| None).collect(),
        }
    }

    /// Dijkstra by cumulative delay from `src`, run to exhaustion.
    fn grow(&self, src: usize, usable: &[bool]) -> Tree {
        #[cfg(test)]
        SEARCHES.with(|n| n.set(n.get() + 1));
        let mut dist: Vec<Option<u64>> = vec![None; self.names.len()];
        let mut prev = vec![src; self.names.len()];
        let mut heap = BinaryHeap::new();
        dist[src] = Some(0);
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist[u].is_some_and(|best| d > best) {
                continue;
            }
            for arc in &self.arcs[u] {
                if !usable[arc.link] {
                    continue;
                }
                let nd = d + arc.delay_us;
                if dist[arc.to].is_none_or(|best| nd < best) {
                    dist[arc.to] = Some(nd);
                    prev[arc.to] = u;
                    heap.push(Reverse((nd, arc.to)));
                }
            }
        }
        Tree { dist, prev }
    }
}

/// Shortest-path tree from one source over the usable links.
struct Tree {
    /// Delay from the source, `None` if unreachable.
    dist: Vec<Option<u64>>,
    /// Predecessor towards the source; meaningful only for reachable
    /// nodes other than the source.
    prev: Vec<usize>,
}

/// One mapping call's view of the network: answers distance and route
/// queries from trees memoised by source, so a chain costs one search
/// per distinct hop location however many candidates or assignments the
/// algorithm weighs.
pub struct PathSearch<'a> {
    index: &'a PathIndex,
    /// Per topology link: does its residual bandwidth admit the chain?
    usable: Vec<bool>,
    trees: Vec<Option<Tree>>,
}

#[cfg(test)]
thread_local! {
    /// Trees grown on this thread — the tests' guard against a
    /// per-candidate search loop creeping back.
    pub(crate) static SEARCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> PathSearch<'a> {
    /// The compiled topology this session searches.
    pub fn index(&self) -> &'a PathIndex {
        self.index
    }

    /// Delay of the shortest usable path, `None` if there is none or
    /// either node is unknown.
    pub fn distance(&mut self, from: &str, to: &str) -> Option<u64> {
        let (src, dst) = (*self.index.ids.get(from)?, *self.index.ids.get(to)?);
        self.tree(src).dist[dst]
    }

    /// The shortest usable path (node names, endpoints included) and its
    /// delay — what `ResourceTopology::shortest_path` returns.
    pub fn path(&mut self, from: &str, to: &str) -> Option<(Vec<String>, u64)> {
        let names = &self.index.names;
        let (src, dst) = (*self.index.ids.get(from)?, *self.index.ids.get(to)?);
        let tree = self.tree(src);
        let total = tree.dist[dst]?;
        let mut path = vec![names[dst].clone()];
        let mut cur = dst;
        while cur != src {
            cur = tree.prev[cur];
            path.push(names[cur].clone());
        }
        path.reverse();
        Some((path, total))
    }

    fn tree(&mut self, src: usize) -> &Tree {
        let (index, usable) = (self.index, &self.usable);
        self.trees[src].get_or_insert_with(|| index.grow(src, usable))
    }
}
