//! The query wire protocol: per-destination frames of fixed-header records
//! behind first-use dictionary headers.
//!
//! Cross-node hops of the distributed traversal are [`QueryOp`] records.
//! Within one executor flush, every record a node produces for one
//! destination is coalesced into a single [`QueryBatch`] frame: fixed-width
//! record headers, interned identifiers priced at 4 bytes, and a dictionary
//! header under the discipline of [`nt_runtime::Dictionary`] (the executor
//! keeps one per destination), entries sorted. The sealing walk's body
//! length travels with the frame, so pricing a frame walks nothing.
//!
//! Requests are tiny and string-free (ids and digests only); responses carry
//! the kind's value of a completed subtree (`query::fold`): a lineage
//! subtree, a base set, a node set or a count. Their interned
//! rule/node/relation names are what the dictionary headers pay for, and a
//! count names none.
//!
//! With cross-session merging on (`QueryExecutor::set_frame_merging`), one
//! frame may carry records from several concurrent sessions: each session's
//! records stay contiguous and in staging order, sessions appear in
//! first-staging order, and the frame's dictionary header is the union of
//! first-use entries across all of them — charged to the destination once,
//! however many sessions reference the same symbol. Receivers need no new
//! decoding logic: every record still names its session via [`QueryOp::qid`].

use crate::query::api::{ProofTree, QueryResult, RuleExecNode};
use crate::query::fold::Folded;
use crate::store::RuleExecId;
use nt_runtime::{NodeId, Sym, TupleId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One record of the query protocol. `qid` names the session, `frame` the
/// continuation in the session's frame arena that the record targets (the
/// remote frame to start for requests, the awaiting frame to resume for
/// responses).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOp {
    /// Expand the proof tree of `vid`, whose `prov` entries live at the
    /// destination (the initial querier → home hop). `path` carries the
    /// ancestor vertices of the traversal for distributed cycle detection.
    ExpandVertex {
        /// Session id.
        qid: u64,
        /// Frame to start at the destination.
        frame: u32,
        /// Vertex to expand.
        vid: TupleId,
        /// Depth of the vertex in the traversal.
        depth: u32,
        /// Ancestor vertices (cycle guard), shared with the frames that
        /// carry the same path.
        path: Arc<[TupleId]>,
    },
    /// Expand rule execution `rid` stored at the destination, including the
    /// proof subtrees of its input tuples (which are local to the executing
    /// node).
    ExpandExec {
        /// Session id.
        qid: u64,
        /// Frame to start at the destination.
        frame: u32,
        /// Rule execution to expand.
        rid: RuleExecId,
        /// Depth of the requesting vertex.
        depth: u32,
        /// Ancestor vertices (cycle guard), shared with the frames that
        /// carry the same path.
        path: Arc<[TupleId]>,
    },
    /// The value of a completed vertex subtree, returned to the awaiting
    /// frame (only the session root's crosses the wire).
    VertexDone {
        /// Session id.
        qid: u64,
        /// Awaiting frame at the destination.
        frame: u32,
        /// The kind's value of the subtree.
        value: QueryResult,
    },
    /// The value of a completed rule-execution subtree (`None` when the rid
    /// is unknown at the responding node), returned to the awaiting frame.
    ExecDone {
        /// Session id.
        qid: u64,
        /// Awaiting frame at the destination.
        frame: u32,
        /// The subtree's value and, under a stamped fold, its node set, if
        /// the execution was found.
        exec: Option<Folded<RuleExecNode>>,
    },
    /// Abandon all of the session's outstanding work at the destination
    /// (cancellation / pruning propagation): in-progress frames there are
    /// dropped and produce no further responses.
    Cancel {
        /// Session id.
        qid: u64,
    },
}

impl QueryOp {
    /// Session the record belongs to.
    pub fn qid(&self) -> u64 {
        match self {
            QueryOp::ExpandVertex { qid, .. }
            | QueryOp::ExpandExec { qid, .. }
            | QueryOp::VertexDone { qid, .. }
            | QueryOp::ExecDone { qid, .. }
            | QueryOp::Cancel { qid } => *qid,
        }
    }

    /// True for records that ask the destination to do expansion work
    /// (carried in `NetMessage::QueryRequest` frames); false for completed
    /// subtrees' values travelling back (`NetMessage::QueryResponse`).
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            QueryOp::ExpandVertex { .. } | QueryOp::ExpandExec { .. } | QueryOp::Cancel { .. }
        )
    }

    /// Wire size of the record body in the interned encoding: a 1-byte tag,
    /// an 8-byte session id and a 4-byte frame id, plus the variant payload —
    /// 8-byte digests/vids (with 8 bytes per path ancestor) for requests,
    /// the interned value for responses: a lineage subtree at 14 bytes per
    /// tuple vertex plus its tuple and 16 per rule execution, a count in 8
    /// bytes, a node set in 2 bytes plus 4 per node, a base set in 2 bytes
    /// plus, per entry, an 8-byte vid, a 1-byte flag and the tuple. An
    /// [`QueryOp::ExecDone`] adds a 1-byte found flag and, when a count or
    /// a base set is cached, the subtree's node set. Dictionary cost is
    /// carried by the batch header ([`QueryBatch::header_bytes`]), not
    /// here.
    ///
    /// A frame's price is its sealed length ([`QueryBatch::body_bytes`]);
    /// this walk of one record is what tests check that length against.
    pub fn wire_size(&self) -> usize {
        self.seal(&mut |_| {})
    }

    /// One walk of the record for sealing: returns [`Self::wire_size`] and
    /// reports every interned name a receiver must know to decode the record
    /// (repeats included). Requests are string-free. Node and rule/relation
    /// handles index one pool, so all are reported as [`Sym`].
    pub(crate) fn seal(&self, names: &mut impl FnMut(Sym)) -> usize {
        let header = 1 + 8 + 4;
        header
            + match self {
                QueryOp::ExpandVertex { path, .. } => 8 + 4 + 8 * path.len(),
                QueryOp::ExpandExec { path, .. } => 8 + 4 + 8 * path.len(),
                QueryOp::VertexDone { value, .. } => walk_value(value, walk_tree, names),
                QueryOp::ExecDone { exec, .. } => {
                    1 + exec.as_ref().map_or(0, |exec| {
                        walk_value(&exec.value, walk_exec, names)
                            + exec
                                .nodes
                                .as_ref()
                                .map_or(0, |nodes| walk_nodes(nodes, names))
                    })
                }
                QueryOp::Cancel { .. } => 0,
            }
    }
}

/// One executor flush's records from one node to another, sealed for
/// shipment behind the dictionary entries the destination has not been sent
/// before.
///
/// Only [`QueryExecutor::poll`](crate::QueryExecutor::poll) builds one: its
/// one walk per record finds the names and the body length together, and the
/// length travels with the frame, so pricing it walks nothing. The header
/// and records are read-only for that reason, until the receiving executor
/// consumes the frame whole.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBatch {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    dict: Vec<Sym>,
    ops: Vec<QueryOp>,
    /// Sum of the records' [`QueryOp::wire_size`], found while sealing.
    body: usize,
}

impl QueryBatch {
    /// A sealed frame: `body` is the records' body length, found by the
    /// sealing walk.
    pub(crate) fn sealed(
        from: NodeId,
        to: NodeId,
        dict: Vec<Sym>,
        ops: Vec<QueryOp>,
        body: usize,
    ) -> Self {
        QueryBatch {
            from,
            to,
            dict,
            ops,
            body,
        }
    }

    /// Dictionary entries first shipped to `to` by this frame, in sorted
    /// (string) order.
    pub fn dict(&self) -> &[Sym] {
        &self.dict
    }

    /// The records, grouped by session in staging order.
    pub fn ops(&self) -> &[QueryOp] {
        &self.ops
    }

    /// The records, for the receiver to consume.
    pub(crate) fn into_ops(self) -> Vec<QueryOp> {
        self.ops
    }

    /// Bytes of the dictionary header.
    pub fn header_bytes(&self) -> usize {
        nt_runtime::dict_wire_size(&self.dict)
    }

    /// Bytes of the record bodies, as sealed.
    pub fn body_bytes(&self) -> usize {
        self.body
    }

    /// Total priced payload: dictionary header + record bodies.
    pub fn wire_size(&self) -> usize {
        self.header_bytes() + self.body
    }

    /// Number of records in the frame.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the frame carries no records.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// True when every record is a request (frames are homogeneous: the
    /// executor never mixes directions within one frame, even when merging
    /// sessions — direction is part of the merge key).
    pub fn is_request(&self) -> bool {
        self.ops.iter().all(QueryOp::is_request)
    }
}

/// Size and names of a subtree's value; `lineage` walks its tree form.
fn walk_value<T, F: FnMut(Sym)>(
    value: &QueryResult<T>,
    lineage: fn(&T, &mut F) -> usize,
    names: &mut F,
) -> usize {
    match value {
        QueryResult::Lineage(tree) => lineage(tree, names),
        QueryResult::BaseTuples(bases) => {
            2 + bases
                .iter()
                .map(|(_, tuple)| {
                    8 + 1
                        + tuple.as_ref().map_or(0, |tuple| {
                            tuple.visit_names(names);
                            tuple.wire_size()
                        })
                })
                .sum::<usize>()
        }
        QueryResult::ParticipatingNodes(nodes) => walk_nodes(nodes, names),
        QueryResult::DerivationCount(_) => 8,
    }
}

/// Size and names of a node set: a 2-byte length and a 4-byte id per node.
fn walk_nodes<F: FnMut(Sym)>(nodes: &BTreeSet<NodeId>, names: &mut F) -> usize {
    for node in nodes {
        names(node.as_sym());
    }
    2 + NodeId::WIRE_SIZE * nodes.len()
}

/// Size and names of a proof subtree in the interned encoding: per tuple
/// vertex an 8-byte vid, 4-byte home id and 2 flag bytes plus the optional
/// tuple payload; per rule-execution vertex an 8-byte rid and 4-byte
/// rule/node ids.
fn walk_tree<F: FnMut(Sym)>(tree: &ProofTree, names: &mut F) -> usize {
    names(tree.home.as_sym());
    let mut bytes = 8 + NodeId::WIRE_SIZE + 2;
    if let Some(tuple) = &tree.tuple {
        tuple.visit_names(names);
        bytes += tuple.wire_size();
    }
    for exec in &tree.derivations {
        bytes += walk_exec(exec, names);
    }
    bytes
}

/// Size and names of a rule-execution subtree (see [`walk_tree`]).
fn walk_exec<F: FnMut(Sym)>(exec: &RuleExecNode, names: &mut F) -> usize {
    names(exec.rule);
    names(exec.node.as_sym());
    let mut bytes = 8 + Sym::WIRE_SIZE + NodeId::WIRE_SIZE;
    for input in &exec.inputs {
        bytes += walk_tree(input, names);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_runtime::{Tuple, Value};
    use std::collections::BTreeSet;

    fn names_of(op: &QueryOp) -> BTreeSet<&'static str> {
        let mut names = BTreeSet::new();
        op.seal(&mut |name| {
            names.insert(name.as_str());
        });
        names
    }

    fn leaf(rel: &str, node: &str, x: i64) -> ProofTree {
        let tuple = Tuple::new(rel, vec![Value::addr(node), Value::Int(x)]);
        ProofTree {
            vid: tuple.id(),
            tuple: Some(tuple),
            home: NodeId::new(node),
            is_base: true,
            derivations: Vec::new(),
            pruned: false,
        }
    }

    #[test]
    fn request_records_are_fixed_width_plus_path() {
        let op = QueryOp::ExpandExec {
            qid: 1,
            frame: 2,
            rid: RuleExecId(9),
            depth: 3,
            path: [TupleId(1), TupleId(2)].into(),
        };
        assert_eq!(op.wire_size(), (1 + 8 + 4) + 8 + 4 + 16);
        assert!(op.is_request());
        assert!(names_of(&op).is_empty(), "requests ship no strings");
    }

    #[test]
    fn response_records_price_the_subtree_and_name_its_strings() {
        let tree = leaf("link", "n1", 7);
        let tuple_bytes = tree.tuple.as_ref().unwrap().wire_size();
        let op = QueryOp::VertexDone {
            qid: 1,
            frame: 0,
            value: QueryResult::Lineage(tree.clone()),
        };
        assert_eq!(op.wire_size(), (1 + 8 + 4) + 8 + 4 + 2 + tuple_bytes);
        assert!(!op.is_request());
        let dict = names_of(&op);
        for name in ["link", "n1"] {
            assert!(dict.contains(name), "{name} missing from dictionary");
        }

        // One derivation deep: the rule-execution vertex and its input's
        // subtree are priced and named inside the head's.
        let mut head = leaf("path", "n2", 7);
        let head_bytes = head.tuple.as_ref().unwrap().wire_size();
        head.is_base = false;
        head.derivations.push(RuleExecNode {
            rid: RuleExecId(3),
            rule: Sym::new("r1"),
            node: NodeId::new("n2"),
            inputs: vec![tree],
        });
        let op = QueryOp::VertexDone {
            qid: 1,
            frame: 0,
            value: QueryResult::Lineage(head),
        };
        assert_eq!(
            op.wire_size(),
            (1 + 8 + 4) + (8 + 4 + 2 + head_bytes) + (8 + 4 + 4) + (8 + 4 + 2 + tuple_bytes)
        );
        let dict = names_of(&op);
        for name in ["path", "n2", "r1", "link", "n1"] {
            assert!(dict.contains(name), "{name} missing from dictionary");
        }
    }

    #[test]
    fn a_count_is_eight_bytes_and_ships_no_names() {
        let op = QueryOp::VertexDone {
            qid: 1,
            frame: 0,
            value: QueryResult::DerivationCount(u64::MAX),
        };
        assert_eq!(op.wire_size(), (1 + 8 + 4) + 8);
        assert!(names_of(&op).is_empty(), "a count names nothing");
        let op = QueryOp::ExecDone {
            qid: 1,
            frame: 3,
            exec: Some(Folded {
                value: QueryResult::DerivationCount(2),
                nodes: None,
            }),
        };
        assert_eq!(op.wire_size(), (1 + 8 + 4) + 1 + 8);
        assert!(names_of(&op).is_empty(), "a count names nothing");
        // Under caching the node set that stamps the cache entry rides
        // along, and names its nodes only.
        let op = QueryOp::ExecDone {
            qid: 1,
            frame: 3,
            exec: Some(Folded {
                value: QueryResult::DerivationCount(2),
                nodes: Some(BTreeSet::from([NodeId::new("n1"), NodeId::new("n2")])),
            }),
        };
        assert_eq!(op.wire_size(), (1 + 8 + 4) + 1 + 8 + (2 + 4 * 2));
        assert_eq!(names_of(&op), BTreeSet::from(["n1", "n2"]));
    }

    #[test]
    fn a_node_set_is_two_bytes_and_four_per_node_and_names_only_nodes() {
        let nodes = BTreeSet::from([NodeId::new("n1"), NodeId::new("n2"), NodeId::new("n3")]);
        let op = QueryOp::VertexDone {
            qid: 1,
            frame: 0,
            value: QueryResult::ParticipatingNodes(nodes.clone()),
        };
        assert_eq!(op.wire_size(), (1 + 8 + 4) + 2 + 4 * 3);
        assert_eq!(names_of(&op), BTreeSet::from(["n1", "n2", "n3"]));
        // A node-set value already is its stamp: nothing rides beside it.
        let op = QueryOp::ExecDone {
            qid: 1,
            frame: 3,
            exec: Some(Folded {
                value: QueryResult::ParticipatingNodes(nodes),
                nodes: None,
            }),
        };
        assert_eq!(op.wire_size(), (1 + 8 + 4) + 1 + 2 + 4 * 3);
        assert_eq!(names_of(&op), BTreeSet::from(["n1", "n2", "n3"]));
    }

    #[test]
    fn a_base_set_prices_a_vid_a_flag_and_the_tuple_per_entry() {
        let link = Tuple::new("link", vec![Value::addr("n1"), Value::Int(7)]);
        let cost = Tuple::new("cost", vec![Value::addr("n2"), Value::addr("n4")]);
        let (link_bytes, cost_bytes) = (link.wire_size(), cost.wire_size());
        let bases = vec![
            (link.id(), Some(link)),
            (TupleId(5), None),
            (cost.id(), Some(cost)),
        ];
        let op = QueryOp::VertexDone {
            qid: 1,
            frame: 0,
            value: QueryResult::BaseTuples(bases.clone()),
        };
        let body = 2 + (8 + 1 + link_bytes) + (8 + 1) + (8 + 1 + cost_bytes);
        assert_eq!(op.wire_size(), (1 + 8 + 4) + body);
        assert_eq!(
            names_of(&op),
            BTreeSet::from(["link", "n1", "cost", "n2", "n4"]),
            "a base set names its tuples' relations and values"
        );
        let op = QueryOp::ExecDone {
            qid: 1,
            frame: 3,
            exec: Some(Folded {
                value: QueryResult::BaseTuples(bases),
                nodes: Some(BTreeSet::from([NodeId::new("n9")])),
            }),
        };
        assert_eq!(op.wire_size(), (1 + 8 + 4) + 1 + body + (2 + 4));
        assert_eq!(
            names_of(&op),
            BTreeSet::from(["link", "n1", "cost", "n2", "n4", "n9"])
        );
    }

    #[test]
    fn batches_price_header_and_bodies_separately() {
        let ops = vec![
            QueryOp::Cancel { qid: 4 },
            QueryOp::ExecDone {
                qid: 4,
                frame: 1,
                exec: None,
            },
        ];
        let walked: usize = ops.iter().map(QueryOp::wire_size).sum();
        let batch = QueryBatch::sealed(
            NodeId::new("n1"),
            NodeId::new("n2"),
            vec![Sym::new("link")],
            ops,
            (1 + 8 + 4) + (1 + 8 + 4) + 1,
        );
        assert_eq!(batch.header_bytes(), 4 + 4 + 4);
        assert_eq!(batch.body_bytes(), (1 + 8 + 4) + (1 + 8 + 4) + 1);
        assert_eq!(batch.body_bytes(), walked, "sealed length is the walk's");
        assert_eq!(batch.wire_size(), batch.header_bytes() + batch.body_bytes());
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert!(!batch.is_request(), "mixed frames count as responses");
        assert_eq!(batch.dict(), [Sym::new("link")]);
        assert_eq!(batch.ops()[0].qid(), 4);
        assert_eq!(batch.into_ops().len(), 2);
    }
}
