//! ProQL on the query protocol: a [`ProqlQuery`] compiles to
//! [`QueryKind::Lineage`] sessions.
//!
//! `from R[@n]` selects `R`'s tuples from the engine tables. Each `back [N]`
//! step runs one lineage session per vertex of the current set, issued from
//! the vertex's home with `max_depth(N)`, and the step's result is the union
//! of the trees' tuple vertices. `bases` keeps the base tuples, `nodes`
//! projects the set to its homes and `count` counts it. The sessions ride
//! the simulated wire like any other, so their frames and bytes are charged
//! to `"prov-query"` in [`NetTrails::query_executor`]'s traffic.

use crate::NetTrails;
use nt_runtime::{NodeId, Tuple, TupleId};
use provenance::proql::ProqlStep;
use provenance::{ProofTree, ProqlQuery, ProqlResult, QueryKind, QueryResult};
use std::collections::BTreeMap;

/// A tuple vertex of the current set.
struct Vertex {
    home: NodeId,
    tuple: Option<Tuple>,
    is_base: bool,
}

impl NetTrails {
    /// Evaluate a ProQL query (see `provenance::proql` for the grammar) as
    /// lineage sessions. A vertex set is answered by its labels, sorted: the
    /// tuple's text, or its vid when the tuple is unknown.
    ///
    /// ```
    /// use nettrails::{NetTrails, NetTrailsConfig};
    /// use provenance::{parse_proql, ProqlResult};
    ///
    /// let mut nt = NetTrails::new(
    ///     protocols::mincost::PROGRAM,
    ///     simnet::Topology::line(3),
    ///     NetTrailsConfig::default(),
    /// )
    /// .unwrap();
    /// nt.seed_links_from_topology();
    /// nt.run_to_fixpoint();
    /// let query = parse_proql("from minCost@n1 back bases").unwrap();
    /// let ProqlResult::Vertices(bases) = nt.proql(&query) else { unreachable!() };
    /// assert!(bases.iter().all(|b| b.starts_with("link(")));
    /// ```
    pub fn proql(&mut self, query: &ProqlQuery) -> ProqlResult {
        let seeds = match query.node {
            Some(node) => self
                .relation_at(node.as_str(), &query.relation)
                .into_iter()
                .map(|t| (node, t))
                .collect(),
            None => self.relation(&query.relation),
        };
        let mut current = BTreeMap::new();
        for (home, tuple) in seeds {
            let vid = tuple.id();
            let vertex = Vertex {
                home,
                tuple: Some(tuple),
                is_base: self.is_base_at(home, vid),
            };
            merge(&mut current, vid, vertex);
        }
        for step in &query.steps {
            match step {
                ProqlStep::Back(levels) => current = self.back(current, *levels),
                ProqlStep::Bases => current.retain(|_, v| v.is_base),
                ProqlStep::Nodes => {
                    return ProqlResult::Nodes(current.values().map(|v| v.home).collect())
                }
                ProqlStep::Count => return ProqlResult::Count(current.len()),
            }
        }
        let mut labels: Vec<String> = current
            .iter()
            .map(|(vid, v)| match &v.tuple {
                Some(t) => t.to_string(),
                None => vid.to_string(),
            })
            .collect();
        labels.sort();
        ProqlResult::Vertices(labels)
    }

    /// One `back` step: a lineage session per vertex, submitted together so
    /// they share frames, and the union of their trees' tuple vertices. The
    /// union starts from `from`, each tree's root: a tuple with no
    /// provenance answers a bare root, and its seed knows the tuple.
    fn back(
        &mut self,
        from: BTreeMap<TupleId, Vertex>,
        levels: Option<usize>,
    ) -> BTreeMap<TupleId, Vertex> {
        let handles: Vec<_> = from
            .iter()
            .map(|(vid, v)| {
                let session = self
                    .query_vid(*vid)
                    .from_node(v.home.as_str())
                    .kind(QueryKind::Lineage);
                match levels {
                    Some(n) => session.max_depth(n),
                    None => session,
                }
                .submit()
            })
            .collect();
        let mut out = from;
        for handle in handles {
            let QueryResult::Lineage(tree) = self.wait_query(handle).0 else {
                unreachable!("a lineage session answers a proof tree")
            };
            let mut stack: Vec<&ProofTree> = vec![&tree];
            while let Some(t) = stack.pop() {
                // The depth cut answers a vertex before reading its entries,
                // so a pruned vertex's base flag is read where it lives.
                let is_base = if t.pruned {
                    self.is_base_at(t.home, t.vid)
                } else {
                    t.is_base
                };
                let vertex = Vertex {
                    home: t.home,
                    tuple: t.tuple.clone(),
                    is_base,
                };
                merge(&mut out, t.vid, vertex);
                stack.extend(t.derivations.iter().flat_map(|d| &d.inputs));
            }
        }
        out
    }

    /// True when `vid` has a base derivation in `home`'s `prov` table.
    fn is_base_at(&self, home: NodeId, vid: TupleId) -> bool {
        self.provenance()
            .store(home)
            .and_then(|store| store.vertex(vid))
            .is_some_and(|(_, entries)| entries.iter().any(|e| e.is_base()))
    }
}

/// Add a vertex to a set: a vertex reached twice is base if either copy is,
/// and keeps the first copy's home and the first known tuple.
fn merge(set: &mut BTreeMap<TupleId, Vertex>, vid: TupleId, vertex: Vertex) {
    match set.get_mut(&vid) {
        Some(known) => {
            known.is_base |= vertex.is_base;
            if known.tuple.is_none() {
                known.tuple = vertex.tuple;
            }
        }
        None => {
            set.insert(vid, vertex);
        }
    }
}
