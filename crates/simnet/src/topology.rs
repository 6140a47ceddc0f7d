//! Network topologies: nodes, links and standard generators.
//!
//! The demonstration scenarios of the paper use small declarative-network
//! topologies (MINCOST, path-vector, DSR) and AS-level topologies for the BGP
//! use case. This module provides the node/link model plus deterministic
//! generators for the shapes used by the examples and benchmarks: line, ring,
//! star, grid, ladder and seeded random (Erdős–Rényi-style) graphs, plus the
//! internet-scale families of the scenario suite — data-center fat-trees,
//! AS-level preferential-attachment graphs with tiered link costs, and
//! Watts–Strogatz small-world meshes. Every seeded generator is a pure
//! function of its parameters and a `u64` seed.

use nt_intern::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_intern::heap::Heap;
use nt_intern::{IdMap, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// A directed link between two named nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Source node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Protocol-visible link cost (used as the `link(@S,D,C)` cost attribute).
    pub cost: i64,
    /// Propagation latency in milliseconds.
    pub latency_ms: u64,
}

impl Link {
    /// Create a link with default latency (1 ms).
    pub fn new(from: impl Into<String>, to: impl Into<String>, cost: i64) -> Self {
        Link {
            from: from.into(),
            to: to.into(),
            cost,
            latency_ms: 1,
        }
    }
}

/// A topology change event, used to drive the "network state is incrementally
/// recomputed as the underlying topology changes" demonstrations.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyEvent {
    /// A (bidirectional) link comes up.
    LinkUp(Link),
    /// The link between two nodes fails (both directions).
    LinkDown {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// The cost of an existing link changes (both directions).
    CostChange {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
        /// New cost.
        cost: i64,
    },
}

/// A set of nodes and directed links.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    nodes: BTreeSet<String>,
    links: LinkMap,
}

/// The directed links. `ordered` is what lists and range-scans them: keyed
/// by the interned names themselves, so its order is (from, to) name order,
/// a comparison is a plain string comparison and no key is a copy of a name.
/// `latency_ms` answers the one question asked per message — a pair's
/// latency, which most pairs answer with "no link" — by one hash probe of
/// the two handles.
#[derive(Debug, Clone, Default, PartialEq)]
struct LinkMap {
    ordered: BTreeMap<(&'static str, &'static str), Link>,
    latency_ms: IdMap<(NodeId, NodeId), u64>,
}

impl LinkMap {
    fn insert(&mut self, link: Link) {
        let (from, to) = (NodeId::new(&link.from), NodeId::new(&link.to));
        self.latency_ms.insert((from, to), link.latency_ms);
        self.ordered.insert((from.as_str(), to.as_str()), link);
    }

    fn remove(&mut self, from: &str, to: &str) -> Option<Link> {
        let (from, to) = (NodeId::lookup(from)?, NodeId::lookup(to)?);
        self.latency_ms.remove(&(from, to))?;
        self.ordered.remove(&(from.as_str(), to.as_str()))
    }
}

/// The interned copy of a name: `None` when it was never interned, and so
/// names no node of any topology.
fn interned(name: &str) -> Option<&'static str> {
    Some(NodeId::lookup(name)?.as_str())
}

/// The nodes, then the links in (from, to) order; every node name is a name
/// of the frame.
impl Encode for Topology {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.nodes.len());
        for node in &self.nodes {
            w.name(node);
        }
        w.usize(self.link_count());
        for link in self.links() {
            w.name(&link.from);
            w.name(&link.to);
            w.zigzag(link.cost);
            w.varint(link.latency_ms);
        }
    }
}

impl Decode for Topology {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut topology = Topology::new();
        for _ in 0..r.count()? {
            topology.nodes.insert(r.name()?.to_string());
        }
        for _ in 0..r.count()? {
            topology.links.insert(Link {
                from: r.name()?.to_string(),
                to: r.name()?.to_string(),
                cost: r.zigzag()?,
                latency_ms: r.varint()?,
            });
        }
        Ok(topology)
    }
}

impl Topology {
    /// The names and the latency table; the B-tree nodes that order them
    /// are not read (no layout rule gives their count).
    pub fn heap(&self) -> Heap {
        let names = self.nodes.iter().map(|n| Heap::block(n.capacity()));
        let links = (self.links.ordered.values())
            .map(|link| Heap::block(link.from.capacity()) + Heap::block(link.to.capacity()));
        names.chain(links).sum::<Heap>() + Heap::map(&self.links.latency_ms)
    }

    /// Create an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node (idempotent).
    pub fn add_node(&mut self, name: impl Into<String>) {
        self.nodes.insert(name.into());
    }

    /// Add a directed link (endpoints are added as nodes automatically).
    pub fn add_link(&mut self, link: Link) {
        for name in [&link.from, &link.to] {
            if !self.nodes.contains(name) {
                self.nodes.insert(name.clone());
            }
        }
        self.links.insert(link);
    }

    /// Add a bidirectional link with equal cost/latency in both directions.
    pub fn add_bidi(&mut self, a: &str, b: &str, cost: i64) {
        self.add_link(Link::new(a, b, cost));
        self.add_link(Link::new(b, a, cost));
    }

    /// Remove the directed link `from -> to`.
    pub fn remove_link(&mut self, from: &str, to: &str) -> Option<Link> {
        self.links.remove(from, to)
    }

    /// Node names in deterministic order.
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().map(String::as_str)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Directed links in deterministic order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.ordered.values()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.ordered.len()
    }

    /// Look up a directed link.
    pub fn link(&self, from: &str, to: &str) -> Option<&Link> {
        self.links.ordered.get(&(interned(from)?, interned(to)?))
    }

    /// Latency of the directed link between two handles, `None` when there
    /// is none: one hash probe, no string built or compared and no
    /// intern-pool lock taken (the per-message path).
    pub fn latency_ms(&self, from: NodeId, to: NodeId) -> Option<u64> {
        self.links.latency_ms.get(&(from, to)).copied()
    }

    /// True when the directed link exists.
    pub fn has_link(&self, from: &str, to: &str) -> bool {
        self.link(from, to).is_some()
    }

    /// Iterate over `node`'s outgoing links without allocating.
    ///
    /// The link map is keyed by `(from, to)`, so all of a node's outgoing
    /// links are contiguous: a range scan costs O(log E + degree) instead of
    /// the O(E) full scan — the difference between quadratic and linear
    /// topology construction at 10^4 nodes.
    pub fn neighbors_iter<'a>(&'a self, node: &str) -> impl Iterator<Item = &'a Link> {
        interned(node).into_iter().flat_map(move |node| {
            self.links
                .ordered
                .range((node, "")..)
                .take_while(move |((from, _), _)| *from == node)
                .map(|(_, l)| l)
        })
    }

    /// Out-degree of `node`.
    pub fn degree(&self, node: &str) -> usize {
        self.neighbors_iter(node).count()
    }

    /// Apply a topology event, returning the links that were added and
    /// removed (useful for feeding deltas to the engines).
    pub fn apply(&mut self, event: &TopologyEvent) -> (Vec<Link>, Vec<Link>) {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        match event {
            TopologyEvent::LinkUp(link) => {
                let rev = Link {
                    from: link.to.clone(),
                    to: link.from.clone(),
                    ..link.clone()
                };
                for l in [link.clone(), rev] {
                    if self.link(&l.from, &l.to) != Some(&l) {
                        if let Some(old) = self.remove_link(&l.from, &l.to) {
                            removed.push(old);
                        }
                        self.add_link(l.clone());
                        added.push(l);
                    }
                }
            }
            TopologyEvent::LinkDown { a, b } => {
                if let Some(l) = self.remove_link(a, b) {
                    removed.push(l);
                }
                if let Some(l) = self.remove_link(b, a) {
                    removed.push(l);
                }
            }
            TopologyEvent::CostChange { a, b, cost } => {
                for (from, to) in [(a.clone(), b.clone()), (b.clone(), a.clone())] {
                    if let Some(old) = self.remove_link(&from, &to) {
                        removed.push(old.clone());
                        let new = Link { cost: *cost, ..old };
                        self.add_link(new.clone());
                        added.push(new);
                    }
                }
            }
        }
        (added, removed)
    }

    // ------------------------------------------------------------------
    // generators
    // ------------------------------------------------------------------

    fn node_name(i: usize) -> String {
        format!("n{}", i + 1)
    }

    /// A line `n1 - n2 - ... - nN` with unit costs.
    pub fn line(n: usize) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(Self::node_name(i));
        }
        for i in 0..n.saturating_sub(1) {
            t.add_bidi(&Self::node_name(i), &Self::node_name(i + 1), 1);
        }
        t
    }

    /// A ring of `n` nodes with unit costs.
    pub fn ring(n: usize) -> Topology {
        let mut t = Self::line(n);
        if n > 2 {
            t.add_bidi(&Self::node_name(n - 1), &Self::node_name(0), 1);
        }
        t
    }

    /// A star: node `n1` in the middle, spokes to everyone else.
    pub fn star(n: usize) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(Self::node_name(i));
        }
        for i in 1..n {
            t.add_bidi(&Self::node_name(0), &Self::node_name(i), 1);
        }
        t
    }

    /// A `rows x cols` grid with unit costs.
    pub fn grid(rows: usize, cols: usize) -> Topology {
        let mut t = Topology::new();
        let name = |r: usize, c: usize| format!("n{}", r * cols + c + 1);
        for r in 0..rows {
            for c in 0..cols {
                t.add_node(name(r, c));
                if c + 1 < cols {
                    t.add_bidi(&name(r, c), &name(r, c + 1), 1);
                }
                if r + 1 < rows {
                    t.add_bidi(&name(r, c), &name(r + 1, c), 1);
                }
            }
        }
        t
    }

    /// A ladder: two parallel lines of length `n` with rungs — the shape used
    /// in the MINCOST screenshots of the paper (multiple alternative paths).
    pub fn ladder(n: usize) -> Topology {
        Self::grid(2, n)
    }

    /// A connected random graph: a random spanning backbone plus extra edges
    /// added with probability `extra_p`, costs drawn uniformly from
    /// `1..=max_cost`. Deterministic for a given seed.
    pub fn random(n: usize, extra_p: f64, max_cost: i64, seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(Self::node_name(i));
        }
        // Spanning backbone: attach node i to a random earlier node.
        for i in 1..n {
            let j = rng.gen_range(0..i);
            let cost = rng.gen_range(1..=max_cost.max(1));
            t.add_bidi(&Self::node_name(i), &Self::node_name(j), cost);
        }
        // Extra edges.
        for i in 0..n {
            for j in (i + 1)..n {
                if !t.has_link(&Self::node_name(i), &Self::node_name(j))
                    && rng.gen_bool(extra_p.clamp(0.0, 1.0))
                {
                    let cost = rng.gen_range(1..=max_cost.max(1));
                    t.add_bidi(&Self::node_name(i), &Self::node_name(j), cost);
                }
            }
        }
        t
    }

    /// A `k`-ary data-center fat-tree (`k` even): `(k/2)^2` core switches,
    /// `k` pods of `k/2` aggregation plus `k/2` edge switches, and `k/2`
    /// hosts per edge switch — `5k^2/4 + k^3/4` nodes and `3k^3/4`
    /// bidirectional links. Aggregation switch `a` of every pod uplinks to
    /// cores `a*(k/2)..(a+1)*(k/2)`; each pod's edge and aggregation layers
    /// are fully bipartite. Host links have unit cost; switch-to-switch
    /// costs are drawn from the seed, so the whole topology is a pure
    /// function of `(k, seed)`.
    pub fn fat_tree(k: usize, seed: u64) -> Topology {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat_tree requires an even k >= 2"
        );
        let half = k / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Topology::new();
        let core = |i: usize| format!("c{}", i + 1);
        let agg = |p: usize, a: usize| format!("p{}a{}", p + 1, a + 1);
        let edge = |p: usize, e: usize| format!("p{}e{}", p + 1, e + 1);
        let host = |p: usize, e: usize, h: usize| format!("p{}e{}h{}", p + 1, e + 1, h + 1);
        for i in 0..half * half {
            t.add_node(core(i));
        }
        for p in 0..k {
            for a in 0..half {
                for j in 0..half {
                    t.add_bidi(&agg(p, a), &core(a * half + j), rng.gen_range(1..=3));
                }
                for e in 0..half {
                    t.add_bidi(&edge(p, e), &agg(p, a), rng.gen_range(1..=2));
                }
            }
            for e in 0..half {
                for h in 0..half {
                    t.add_bidi(&host(p, e, h), &edge(p, e), 1);
                }
            }
        }
        t
    }

    /// An AS-level internet-like graph: `n` nodes grown by preferential
    /// attachment (each newcomer links to `m` distinct existing nodes, chosen
    /// proportionally to degree), then split into tiers by final degree —
    /// roughly 1% tier-1 backbone, 10% tier-2 transit, the rest stubs — with
    /// tiered link costs: backbone peering is cheapest, stub tails most
    /// expensive. Deterministic for a given `(n, m, seed)`.
    pub fn internet_as(n: usize, m: usize, seed: u64) -> Topology {
        assert!(m >= 1 && n > m, "internet_as requires n > m >= 1");
        let mut rng = StdRng::seed_from_u64(seed);
        // Grow the edge set by preferential attachment. `endpoints` lists one
        // entry per edge endpoint, so sampling it uniformly is
        // degree-proportional sampling.
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut endpoints: Vec<usize> = Vec::new();
        let add_edge = |edges: &mut BTreeSet<(usize, usize)>,
                        endpoints: &mut Vec<usize>,
                        u: usize,
                        v: usize| {
            let key = (u.min(v), u.max(v));
            if edges.insert(key) {
                endpoints.push(u);
                endpoints.push(v);
            }
        };
        // Seed clique over the first m+1 nodes.
        for u in 0..=m {
            for v in (u + 1)..=m {
                add_edge(&mut edges, &mut endpoints, u, v);
            }
        }
        for i in (m + 1)..n {
            let mut targets = BTreeSet::new();
            let mut attempts = 0;
            while targets.len() < m {
                let candidate = if attempts < 8 * m {
                    endpoints[rng.gen_range(0..endpoints.len())]
                } else {
                    rng.gen_range(0..i)
                };
                attempts += 1;
                targets.insert(candidate);
            }
            for v in targets {
                add_edge(&mut edges, &mut endpoints, i, v);
            }
        }
        // Tier nodes by final degree: highest-degree nodes form the backbone.
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut by_degree: Vec<usize> = (0..n).collect();
        by_degree.sort_by_key(|&i| (std::cmp::Reverse(degree[i]), i));
        let tier1 = (n / 100).max(2);
        let tier2 = (n / 10).max(8);
        let mut tier = vec![3u8; n];
        for (rank, &i) in by_degree.iter().enumerate() {
            tier[i] = if rank < tier1 {
                1
            } else if rank < tier1 + tier2 {
                2
            } else {
                3
            };
        }
        let cost = |a: u8, b: u8| match (a.min(b), a.max(b)) {
            (1, 1) => 1,
            (1, 2) => 2,
            (2, 2) => 3,
            (2, 3) => 4,
            (1, 3) => 4,
            _ => 5,
        };
        let name = |i: usize| format!("as{}", i + 1);
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(name(i));
        }
        for &(u, v) in &edges {
            t.add_bidi(&name(u), &name(v), cost(tier[u], tier[v]));
        }
        t
    }

    /// A Watts–Strogatz small-world mesh: a ring lattice where each node
    /// links to its `k/2` clockwise neighbours (`k` even), then each lattice
    /// edge's far endpoint is rewired to a uniform random node with
    /// probability `beta_percent`/100. Exactly `n*k/2` bidirectional edges;
    /// every node keeps degree >= k/2. Link costs are seeded jitter in
    /// `1..=3`. Deterministic for a given `(n, k, beta_percent, seed)`.
    pub fn small_world(n: usize, k: usize, beta_percent: u32, seed: u64) -> Topology {
        assert!(
            k >= 2 && k.is_multiple_of(2) && n > k,
            "small_world requires n > k >= 2, k even"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let beta = f64::from(beta_percent.min(100)) / 100.0;
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for i in 0..n {
            for j in 1..=k / 2 {
                let v = (i + j) % n;
                edges.insert((i.min(v), i.max(v)));
            }
        }
        for i in 0..n {
            for j in 1..=k / 2 {
                let v = (i + j) % n;
                let key = (i.min(v), i.max(v));
                if !rng.gen_bool(beta) {
                    continue;
                }
                // Rewire i->v to i->t; bounded retries keep this total.
                for _ in 0..32 {
                    let candidate = rng.gen_range(0..n);
                    let new_key = (i.min(candidate), i.max(candidate));
                    if candidate != i && !edges.contains(&new_key) {
                        edges.remove(&key);
                        edges.insert(new_key);
                        break;
                    }
                }
            }
        }
        let mut t = Topology::new();
        for i in 0..n {
            t.add_node(Self::node_name(i));
        }
        for &(u, v) in &edges {
            t.add_bidi(
                &Self::node_name(u),
                &Self::node_name(v),
                rng.gen_range(1..=3),
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_ring_shapes() {
        let line = Topology::line(4);
        assert_eq!(line.node_count(), 4);
        assert_eq!(line.link_count(), 6); // 3 bidi links
        let ring = Topology::ring(4);
        assert_eq!(ring.link_count(), 8);
        assert!(ring.has_link("n4", "n1"));
    }

    #[test]
    fn grid_and_ladder() {
        let grid = Topology::grid(2, 3);
        assert_eq!(grid.node_count(), 6);
        // 2*(cols-1)*rows horizontal + 2*(rows-1)*cols vertical = 8 + 6 = 14
        assert_eq!(grid.link_count(), 14);
        assert_eq!(Topology::ladder(3), grid);
    }

    #[test]
    fn star_has_hub() {
        let star = Topology::star(5);
        assert_eq!(star.degree("n1"), 4);
        assert_eq!(star.degree("n3"), 1);
    }

    #[test]
    fn random_is_deterministic_and_connected() {
        let a = Topology::random(12, 0.1, 5, 42);
        let b = Topology::random(12, 0.1, 5, 42);
        assert_eq!(a, b);
        let c = Topology::random(12, 0.1, 5, 43);
        assert_ne!(a, c);
        // Connectivity: BFS from n1 reaches every node (backbone guarantees it).
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec!["n1".to_string()];
        while let Some(n) = stack.pop() {
            if seen.insert(n.clone()) {
                for l in a.neighbors_iter(&n) {
                    stack.push(l.to.clone());
                }
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn apply_link_events() {
        let mut t = Topology::line(3);
        let (added, removed) = t.apply(&TopologyEvent::LinkDown {
            a: "n1".into(),
            b: "n2".into(),
        });
        assert_eq!(added.len(), 0);
        assert_eq!(removed.len(), 2);
        assert!(!t.has_link("n1", "n2"));

        let (added, _) = t.apply(&TopologyEvent::LinkUp(Link::new("n1", "n3", 7)));
        assert_eq!(added.len(), 2);
        assert_eq!(t.link("n3", "n1").unwrap().cost, 7);

        let (added, removed) = t.apply(&TopologyEvent::CostChange {
            a: "n2".into(),
            b: "n3".into(),
            cost: 9,
        });
        assert_eq!(added.len(), 2);
        assert_eq!(removed.len(), 2);
        assert_eq!(t.link("n2", "n3").unwrap().cost, 9);
    }

    #[test]
    fn cost_change_on_missing_link_is_a_noop() {
        let mut t = Topology::line(2);
        let (added, removed) = t.apply(&TopologyEvent::CostChange {
            a: "n1".into(),
            b: "n9".into(),
            cost: 3,
        });
        assert!(added.is_empty() && removed.is_empty());
    }
}
