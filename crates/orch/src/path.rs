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
use std::collections::BinaryHeap;

/// The first 8 bytes of `name`, zero-padded, as a big-endian integer: it
/// orders as the names do, ties aside.
fn prefix(name: &str) -> u64 {
    let mut word = [0; 8];
    let n = name.len().min(8);
    word[..n].copy_from_slice(&name.as_bytes()[..n]);
    u64::from_be_bytes(word)
}

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
    /// Each name's [`prefix`], so sorted too: a name is found by integer
    /// compares, and its bytes are compared only within equal prefixes.
    prefixes: Vec<u64>,
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
        let mut index = PathIndex {
            prefixes: names.iter().map(|n| prefix(n)).collect(),
            arcs: names.iter().map(|_| Vec::new()).collect(),
            links: Vec::with_capacity(topo.links.len()),
            names,
        };
        for (i, l) in topo.links.iter().enumerate() {
            let id = |name| index.id(name).expect("every link end is among the names");
            let (a, b) = (id(&l.a), id(&l.b));
            let arc = |to| Arc {
                to,
                link: i,
                delay_us: l.delay_us,
            };
            index.arcs[a].push(arc(b));
            if a != b {
                index.arcs[b].push(arc(a));
            }
            index.links.push((link_key(&l.a, &l.b), l.bandwidth_mbps));
        }
        index
    }

    /// The id of `name`, if it is a node of the compiled topology.
    fn id(&self, name: &str) -> Option<usize> {
        let p = prefix(name);
        let lo = self.prefixes.partition_point(|&q| q < p);
        let hi = self.prefixes.partition_point(|&q| q <= p);
        (lo..hi).find(|&i| self.names[i] == name)
    }

    /// True if `name` is a node of the compiled topology.
    pub fn has_node(&self, name: &str) -> bool {
        self.id(name).is_some()
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
                // A path longer than the clock can count is no path.
                let Some(nd) = d.checked_add(arc.delay_us) else {
                    continue;
                };
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
        let (src, dst) = (self.index.id(from)?, self.index.id(to)?);
        self.tree(src).dist[dst]
    }

    /// The shortest usable path (node names, endpoints included) and its
    /// delay — what `ResourceTopology::shortest_path` returns.
    pub fn path(&mut self, from: &str, to: &str) -> Option<(Vec<String>, u64)> {
        let names = &self.index.names;
        let (src, dst) = (self.index.id(from)?, self.index.id(to)?);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_that_share_a_prefix_resolve_to_their_own_ids() {
        let names = [
            "container_b",
            "container_a",
            "container",
            "c",
            "containe",
            "container_a2",
        ];
        let mut t = ResourceTopology::new();
        for n in names {
            t.add_switch(n);
        }
        let index = PathIndex::new(&t);
        for n in names {
            assert_eq!(index.names[index.id(n).expect("a node")], n);
        }
        for missing in ["container_c", "containers", "", "b"] {
            assert_eq!(index.id(missing), None, "{missing:?}");
        }
    }
}
