//! The dictionary discipline (`nt_runtime::Dictionary`), checked from the
//! receiving side: every frame NetTrails ships between nodes — `DeltaBatch`
//! and `QueryBatch` — must be decodable by a receiver that knows only the
//! headers of the frames delivered before it. And the log store's records,
//! which follow no discipline because they need none: a record's payload
//! decodes on its own and its bytes depend on the record alone.
//!
//! The oracle here walks names on its own ([`tuple_names`] and the walks
//! built on it; never `Tuple::visit_names`) and keeps one [`Receiver`] per
//! destination. A frame is handed to it as (header, names the records
//! reference): the header must be new to the receiver entry by entry (a name
//! ships once), and name the frame's own records only (nothing rides along);
//! every referenced name must then be known. Exact header byte totals are
//! pinned beside it. A log record's payload is read by the frame grammar
//! (`common::name_table`): its table must hold each of the record's names once and
//! nothing else, and the payload bytes are pinned. Every `QueryBatch` is
//! also checked against a walk of its records ([`check_sealed`]): the length
//! sealing stored in it is the header plus `QueryOp::wire_size` of each
//! record. The query waves run all four kinds, whose responses carry trees,
//! base sets, node sets and counts ([`value_names`]).
//!
//! Seeded mutations and who caught them:
//!
//! | mutation | caught by |
//! |---|---|
//! | `Dictionary::first_use` always false | both decodability tests, "not decodable" (batch 0, frame 161) |
//! | `Dictionary::first_use` always true | both decodability tests, "shipped twice"; both pinned byte totals would move |
//! | `Tuple::visit_names` not descending into lists | `delta_batches_…`: batch 350 `as1->as2`, `"as51"` first met inside a route's path |
//! | `codec::Writer` keeping its name table from frame to frame | `every_log_record_…` ("a name index outside the name table", every 1, record 1) and `a_delta_payload_…` |
//! | a name table built from a watermark over the pool (every name interned since the writer's first frame) | `a_records_bytes_…`: record 1 of the store appended beside the minting thread differs |
//! | `QueryExecutor::poll` storing header + body as the body length | `query_frames_…`, "sealed length" (frame 161, 168 B against 120) |
//! | a node set's sealing walk (`wire.rs`, `walk_nodes`) reporting no names | `query_frames_…`, "not decodable" (frame 156 `as5->as1`, `"as5"`) |

#[path = "../crates/logstore/tests/common/mod.rs"]
#[allow(dead_code)]
mod common;

use logstore::{LogRecord, LogStore, SnapshotCapturer, SnapshotDelta, SystemSnapshot};
use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::{codec, Addr, CompiledProgram, EngineConfig, NodeEngine, Sym, Tuple, Value};
use provenance::{
    ProofTree, ProvVertex, QueryBatch, QueryExecutor, QueryHandle, QueryKind, QueryMode, QueryOp,
    QueryOptions, QueryResult, QuerySpec, RuleExecNode, TraversalOrder,
};
use simnet::{Link, SimTime, Topology, TopologyEvent, TrafficStats};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const ANCHORS: [&str; 2] = ["as1", "as17"];

fn program() -> String {
    scenario::programs::anchored_pathvector(3)
}

// ---------------------------------------------------------------------------
// the oracle
// ---------------------------------------------------------------------------

/// The names a receiver needs for one tuple: its relation and every address
/// among its values, at any list depth.
fn tuple_names(tuple: &Tuple, out: &mut BTreeSet<String>) {
    out.insert(tuple.relation().to_string());
    let mut pending: Vec<&Value> = tuple.values().iter().collect();
    while let Some(value) = pending.pop() {
        match value {
            Value::Addr(a) => {
                out.insert(a.to_string());
            }
            Value::List(items) => pending.extend(items.iter()),
            _ => {}
        }
    }
}

fn tree_names(tree: &ProofTree, out: &mut BTreeSet<String>) {
    out.insert(tree.home.to_string());
    if let Some(tuple) = &tree.tuple {
        tuple_names(tuple, out);
    }
    for exec in &tree.derivations {
        exec_names(exec, out);
    }
}

fn exec_names(exec: &RuleExecNode, out: &mut BTreeSet<String>) {
    out.insert(exec.rule.to_string());
    out.insert(exec.node.to_string());
    for input in &exec.inputs {
        tree_names(input, out);
    }
}

fn vertex_names(vertex: &ProvVertex, out: &mut BTreeSet<String>) {
    match vertex {
        ProvVertex::Tuple { tuple, home, .. } => {
            out.insert(home.to_string());
            if let Some(tuple) = tuple {
                tuple_names(tuple, out);
            }
        }
        ProvVertex::RuleExec { rule, node, .. } => {
            out.insert(rule.to_string());
            out.insert(node.to_string());
        }
    }
}

fn snapshot_names(snapshot: &SystemSnapshot) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (node, state) in &snapshot.nodes {
        out.insert(node.to_string());
        for (relation, tuples) in &state.relations {
            out.insert(relation.clone());
            tuples.iter().for_each(|t| tuple_names(t, &mut out));
        }
    }
    for vertex in snapshot.graph.vertices.values() {
        vertex_names(vertex, &mut out);
    }
    out
}

fn delta_names(delta: &SnapshotDelta) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    out.extend(delta.nodes_removed.iter().map(Addr::to_string));
    for (node, changes) in &delta.nodes {
        out.insert(node.to_string());
        out.extend(changes.removed.keys().cloned());
        for (relation, tuples) in &changes.added {
            out.insert(relation.clone());
            tuples.iter().for_each(|t| tuple_names(t, &mut out));
        }
    }
    for (_, vertex) in &delta.graph.vertices_added {
        vertex_names(vertex, &mut out);
    }
    out
}

/// What one destination knows: the headers of the frames delivered so far.
#[derive(Default)]
struct Receiver {
    known: BTreeSet<String>,
    header_bytes: usize,
}

impl Receiver {
    fn frame(&mut self, header: &[impl AsRef<str>], referenced: &BTreeSet<String>, what: &str) {
        for entry in header.iter().map(AsRef::as_ref) {
            assert!(
                referenced.contains(entry),
                "{what}: {entry:?} is in the header and in no record"
            );
            assert!(
                self.known.insert(entry.to_string()),
                "{what}: {entry:?} shipped twice"
            );
        }
        for name in referenced {
            assert!(self.known.contains(name), "{what}: {name:?} not decodable");
        }
        self.header_bytes += nt_runtime::dict_wire_size(header);
    }
}

// ---------------------------------------------------------------------------
// the runs
// ---------------------------------------------------------------------------

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `cycles` × (link down, recover at a new cost) over seeded links.
fn churn_trace(topology: &Topology, cycles: usize, seed: u64) -> Vec<TopologyEvent> {
    let links: Vec<&Link> = topology.links().filter(|l| l.from < l.to).collect();
    let mut rng = Rng(seed);
    let mut events = Vec::new();
    for _ in 0..cycles {
        let link = links[rng.below(links.len())];
        events.push(TopologyEvent::LinkDown {
            a: link.from.clone(),
            b: link.to.clone(),
        });
        events.push(TopologyEvent::LinkUp(Link {
            cost: 1 + rng.below(9) as i64,
            ..link.clone()
        }));
    }
    events
}

fn converged(topology: &Topology) -> NetTrails {
    let mut nt = NetTrails::new(&program(), topology.clone(), NetTrailsConfig::default()).unwrap();
    nt.seed_links_from_topology();
    for anchor in ANCHORS {
        nt.insert_fact(anchor, scenario::programs::anchor_tuple(anchor));
    }
    nt.run_to_fixpoint();
    nt
}

/// Engines composed by hand, so the test sees every batch between them:
/// each round runs the engines that have work, in name order, then delivers
/// what they sent — the platform's schedule.
struct Engines {
    engines: BTreeMap<Addr, NodeEngine>,
    /// One receiver per (sender, destination): a sender's memory is its own.
    receivers: BTreeMap<(Addr, Addr), Receiver>,
    batches: usize,
}

impl Engines {
    fn new(topology: &Topology) -> Self {
        let program = Arc::new(CompiledProgram::from_source(&program()).unwrap());
        Engines {
            engines: topology
                .nodes()
                .map(|n| {
                    let engine = NodeEngine::new(program.clone(), EngineConfig::new(n));
                    (Addr::new(n), engine)
                })
                .collect(),
            receivers: BTreeMap::new(),
            batches: 0,
        }
    }

    fn engine(&mut self, node: &str) -> &mut NodeEngine {
        self.engines.get_mut(&Addr::new(node)).expect("known node")
    }

    fn settle(&mut self) {
        loop {
            let mut in_flight = Vec::new();
            for (node, engine) in self.engines.iter_mut() {
                if engine.has_pending() {
                    let sends = engine.run().sends;
                    in_flight.extend(sends.into_iter().map(|batch| (*node, batch)));
                }
            }
            if in_flight.is_empty() {
                return;
            }
            for (from, batch) in in_flight {
                let mut referenced = BTreeSet::new();
                for record in &batch.records {
                    tuple_names(record.delta.tuple(), &mut referenced);
                    referenced.insert(record.derivation.rule.to_string());
                    referenced.insert(record.derivation.node.to_string());
                }
                let what = format!("batch {} {from}->{}", self.batches, batch.dest);
                self.receivers.entry((from, batch.dest)).or_default().frame(
                    &batch.dict,
                    &referenced,
                    &what,
                );
                self.batches += 1;
                let engine = self.engines.get_mut(&batch.dest).expect("known node");
                for record in batch.records {
                    engine.apply_remote(record.delta, record.derivation);
                }
            }
        }
    }
}

#[test]
fn delta_batches_are_decodable_in_delivery_order() {
    for (seed, pinned) in [(12u64, 32_186usize), (4242, 33_029)] {
        let mut topology = Topology::internet_as(64, 2, seed);
        let events = churn_trace(&topology, 12, seed);
        let mut net = Engines::new(&topology);
        for (node, tuple) in protocols::link_tuples(&topology) {
            net.engine(&node).insert_base(tuple).unwrap();
        }
        for anchor in ANCHORS {
            net.engine(anchor)
                .insert_base(scenario::programs::anchor_tuple(anchor))
                .unwrap();
        }
        net.settle();
        for event in &events {
            let (added, removed) = topology.apply(event);
            for link in removed {
                let tuple = protocols::link_tuple(&link.from, &link.to, link.cost);
                net.engine(&link.from).delete_base(tuple).unwrap();
            }
            for link in added {
                let tuple = protocols::link_tuple(&link.from, &link.to, link.cost);
                net.engine(&link.from).insert_base(tuple).unwrap();
            }
            net.settle();
        }
        assert!(net.batches > 500, "seed {seed}: {} batches", net.batches);
        let shipped: usize = net.receivers.values().map(|r| r.header_bytes).sum();
        let counted: u64 = net
            .engines
            .values()
            .map(|e| e.stats().dict_bytes_sent)
            .sum();
        assert_eq!(
            shipped as u64, counted,
            "seed {seed}: engines count what they ship"
        );
        assert_eq!(shipped, pinned, "seed {seed}: dictionary bytes moved");
        // The platform composes the same engines: same bytes.
        let mut nt = converged(&Topology::internet_as(64, 2, seed));
        for event in &events {
            nt.apply_topology_event(event);
        }
        assert_eq!(nt.stats().engine.dict_bytes_sent, counted, "seed {seed}");
    }
}

/// The names of a response's value: a tree's, a base set's tuples', a node
/// set's nodes; a count has none.
fn value_names<T>(
    value: &QueryResult<T>,
    lineage: fn(&T, &mut BTreeSet<String>),
    out: &mut BTreeSet<String>,
) {
    match value {
        QueryResult::Lineage(tree) => lineage(tree, out),
        QueryResult::BaseTuples(bases) => {
            for tuple in bases.iter().filter_map(|(_, tuple)| tuple.as_ref()) {
                tuple_names(tuple, out);
            }
        }
        QueryResult::ParticipatingNodes(nodes) => {
            out.extend(nodes.iter().map(ToString::to_string));
        }
        QueryResult::DerivationCount(_) => {}
    }
}

fn op_names(op: &QueryOp, out: &mut BTreeSet<String>) {
    match op {
        QueryOp::VertexDone { value, .. } => value_names(value, tree_names, out),
        QueryOp::ExecDone {
            exec: Some(exec), ..
        } => {
            value_names(&exec.value, exec_names, out);
            out.extend(exec.nodes.iter().flatten().map(ToString::to_string));
        }
        _ => {}
    }
}

/// What a sealed frame says about itself against a walk of its records: its
/// length is the header plus the per-record walk (`QueryOp::wire_size`), and
/// its direction is every record's.
fn check_sealed(batch: &QueryBatch, what: &str) {
    let walked: usize = batch.ops().iter().map(QueryOp::wire_size).sum();
    assert_eq!(
        batch.wire_size(),
        nt_runtime::dict_wire_size(batch.dict()) + walked,
        "{what}: sealed length"
    );
    assert!(
        batch
            .ops()
            .iter()
            .all(|op| op.is_request() == batch.is_request()),
        "{what}: direction"
    );
}

const KINDS: [QueryKind; 4] = [
    QueryKind::Lineage,
    QueryKind::BaseTuples,
    QueryKind::ParticipatingNodes,
    QueryKind::DerivationCount,
];

/// Pump `handles` dry, handing every frame to the receivers and the sealing
/// check. Returns the dictionary bytes the sessions paid.
fn drain_checked(
    executor: &mut QueryExecutor,
    system: &provenance::ProvenanceSystem,
    handles: Vec<QueryHandle>,
    receivers: &mut BTreeMap<Addr, Receiver>,
    frames: &mut usize,
) -> usize {
    while !handles.iter().all(|h| executor.is_done(*h)) {
        let batches: Vec<QueryBatch> = executor.poll();
        assert!(!batches.is_empty(), "a wave stalled");
        for batch in batches {
            let mut referenced = BTreeSet::new();
            batch
                .ops()
                .iter()
                .for_each(|op| op_names(op, &mut referenced));
            let what = format!("frame {frames} {}->{}", batch.from, batch.to);
            check_sealed(&batch, &what);
            receivers
                .entry(batch.to)
                .or_default()
                .frame(batch.dict(), &referenced, &what);
            *frames += 1;
            executor.deliver(system, batch, SimTime::ZERO);
        }
    }
    let mut paid = 0;
    for handle in handles {
        let (result, stats) = executor.take_result(handle).expect("done");
        assert!(result.is_some());
        paid += stats.dict_bytes as usize;
    }
    paid
}

/// Two waves of 64 cached sessions, the four kinds in turn, breadth- and
/// depth-first in turn by fours; then a wave of 64 derivation counts over
/// the same targets and queriers, which ships no dictionary entry: a count
/// names nothing, and the node sets that stamp its cache entries name nodes
/// those links have already been sent.
#[test]
fn query_frames_are_decodable_in_delivery_order() {
    let topology = Topology::internet_as(64, 2, 12);
    let nt = converged(&topology);
    let system = nt.provenance();
    let targets = nt.relation("bestRoute");
    assert!(targets.len() > 64);
    let mut executor = QueryExecutor::new();
    // One destination's memory covers every sender: the executor seals for
    // all of them.
    let mut receivers: BTreeMap<Addr, Receiver> = BTreeMap::new();
    let mut frames = 0usize;
    let mut rng = Rng(12);
    let pairs: Vec<(Addr, nt_runtime::TupleId)> = (0..128)
        .map(|_| {
            let (_, target) = &targets[rng.below(targets.len())];
            (Addr::new(&format!("as{}", rng.below(64))), target.id())
        })
        .collect();
    let spec = |i: usize, kind: QueryKind| {
        let (querier, vid) = pairs[i];
        QuerySpec {
            querier,
            vid,
            kind,
            mode: QueryMode::Distributed,
            options: QueryOptions {
                traversal: if (i / 4).is_multiple_of(2) {
                    TraversalOrder::BreadthFirst
                } else {
                    TraversalOrder::DepthFirst
                },
                use_cache: true,
                ..QueryOptions::default()
            },
        }
    };
    let mut before = 0;
    for (wave, pinned) in [(0, 7_889), (1, 11_423)] {
        let handles: Vec<_> = (64 * wave..64 * (wave + 1))
            .map(|i| executor.submit(system, spec(i, KINDS[i % 4]), SimTime::ZERO))
            .collect();
        let paid = drain_checked(&mut executor, system, handles, &mut receivers, &mut frames);
        let shipped: usize = receivers.values().map(|r| r.header_bytes).sum();
        assert_eq!(shipped, pinned, "wave {wave}: dictionary bytes moved");
        assert_eq!(paid, shipped - before, "sessions pay what is shipped");
        before = shipped;
    }
    let warm = frames;
    let handles: Vec<_> = (0..128)
        .map(|i| executor.submit(system, spec(i, QueryKind::DerivationCount), SimTime::ZERO))
        .collect();
    let paid = drain_checked(&mut executor, system, handles, &mut receivers, &mut frames);
    let shipped: usize = receivers.values().map(|r| r.header_bytes).sum();
    assert!(frames > warm, "the count wave crossed the wire");
    assert_eq!((paid, shipped), (0, before), "a count wave ships no names");
    assert!(frames > 500, "{frames} frames");
}

/// The captures of a churned run in which the names of everything derived
/// leave and come back: both anchors are withdrawn at capture 2 and
/// advertised again at capture 4, links churn around them.
fn churned_captures() -> Vec<SystemSnapshot> {
    let topology = Topology::internet_as(64, 2, 12);
    let events = churn_trace(&topology, 5, 12);
    let mut nt = converged(&topology);
    let mut captures = vec![nt.capture_snapshot()];
    for (i, event) in events.iter().enumerate() {
        match i + 1 {
            2 => ANCHORS
                .iter()
                .for_each(|a| nt.delete_fact(a, scenario::programs::anchor_tuple(a))),
            4 => ANCHORS
                .iter()
                .for_each(|a| nt.insert_fact(a, scenario::programs::anchor_tuple(a))),
            _ => {}
        }
        nt.apply_topology_event(event);
        captures.push(nt.capture_snapshot());
    }
    assert!(captures[1].relation("bestRoute").len() > 64);
    assert!(captures[2].relation("bestRoute").is_empty());
    assert!(captures[4].relation("bestRoute").len() > 64);
    captures
}

// ---------------------------------------------------------------------------
// a log record's bytes depend on the record alone
// ---------------------------------------------------------------------------

fn topology_names(topology: &Topology, out: &mut BTreeSet<String>) {
    out.extend(topology.nodes().map(str::to_string));
    for link in topology.links() {
        out.insert(link.from.clone());
        out.insert(link.to.clone());
    }
}

fn traffic_names(traffic: &TrafficStats, out: &mut BTreeSet<String>) {
    for (src, dst, _) in traffic.links() {
        out.insert(src.to_string());
        out.insert(dst.to_string());
    }
}

/// Every name a record holds, by the oracle's own walks, and its traffic
/// counters (whose categories are names too).
fn record_names(record: &LogRecord) -> (BTreeSet<String>, Option<&TrafficStats>) {
    match record {
        LogRecord::Checkpoint(snapshot) => {
            let mut names = snapshot_names(snapshot);
            topology_names(&snapshot.topology, &mut names);
            traffic_names(&snapshot.traffic, &mut names);
            (names, Some(&snapshot.traffic))
        }
        LogRecord::Delta(delta) => {
            let mut names = delta_names(delta);
            if let Some(topology) = &delta.topology {
                topology_names(topology, &mut names);
            }
            if let Some(traffic) = &delta.traffic {
                traffic_names(traffic, &mut names);
            }
            (names, delta.traffic.as_ref())
        }
    }
}

/// Every record the log store holds reads from its own payload: the payload
/// decodes alone to the record the capturer made, and its name table holds
/// each name of that record once and nothing else — no name from an earlier
/// frame, none the process interned meanwhile. What the store was charged is
/// the payloads' bytes, pinned per cadence.
#[test]
fn every_log_record_decodes_from_its_own_payload() {
    let captures = churned_captures();
    for (checkpoint_every, pinned) in [(1usize, 989_493u64), (3, 473_356), (8, 340_022)] {
        let mut capturer = SnapshotCapturer::new(checkpoint_every);
        let mut store = LogStore::new();
        let mut charged = 0;
        for (i, capture) in captures.iter().enumerate() {
            let record = capturer.capture(capture.clone());
            let what = format!("every {checkpoint_every}, record {i}");
            store.append_record(record.clone());
            let payload = store.payload(i).expect("stored");
            charged += payload.len() as u64;
            let decoded: LogRecord =
                codec::decode(&payload).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(decoded, record, "{what}");

            let table = common::name_table(&payload);
            let (names, traffic) = record_names(&record);
            let mut seen = BTreeSet::new();
            for entry in &table {
                assert!(seen.insert(entry), "{what}: {entry:?} twice in the table");
                let category = traffic.is_some_and(|t| t.category_messages(entry) > 0);
                assert!(
                    names.contains(entry) || category,
                    "{what}: {entry:?} is in the table and in no record"
                );
            }
            for name in &names {
                assert!(seen.contains(name), "{what}: {name:?} not in the table");
            }
        }
        assert_eq!(store.uploaded_bytes(), charged, "every {checkpoint_every}");
        assert_eq!(
            charged, pinned,
            "every {checkpoint_every}: record bytes moved"
        );
    }
}

/// The same captures appended into two stores, the second while another
/// thread mints unrelated names before every append: the payloads are the
/// same bytes, and the stores were charged the same.
#[test]
fn a_records_bytes_do_not_depend_on_what_else_is_interned() {
    let topology = Topology::ladder(3);
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        topology.clone(),
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    let mut captures = vec![nt.capture_snapshot()];
    for event in churn_trace(&topology, 3, 7) {
        nt.apply_topology_event(&event);
        captures.push(nt.capture_snapshot());
    }
    let fill = |mint: bool| {
        let mut capturer = SnapshotCapturer::new(4);
        let mut store = LogStore::new();
        for (i, capture) in captures.iter().enumerate() {
            if mint {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        for j in 0..8 {
                            Sym::new(&format!("unrelated-name-{i}-{j}"));
                        }
                    });
                });
            }
            store.append_record(capturer.capture(capture.clone()));
        }
        store
    };
    let (quiet, busy) = (fill(false), fill(true));
    assert_eq!(quiet.len(), captures.len());
    assert!(quiet.delta_count() > 0);
    for i in 0..quiet.len() {
        assert!(quiet.payload(i) == busy.payload(i), "record {i} differs");
    }
    assert_eq!(quiet.uploaded_bytes(), busy.uploaded_bytes());
}

/// A name interned before the checkpoint and first used after it travels
/// in the name table of the delta that uses it (a dictionary of the names
/// minted since the checkpoint would miss it): that delta's payload,
/// decoded on its own, adds the tuple.
#[test]
fn a_delta_payload_decodes_on_its_own() {
    let mut nt = NetTrails::new(
        protocols::mincost::PROGRAM,
        Topology::line(3),
        NetTrailsConfig::default(),
    )
    .unwrap();
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    let probe = Tuple::new("earlyProbe", vec![Value::addr("n2"), Value::Int(1)]);
    let mut capturer = SnapshotCapturer::new(8);
    let mut store = LogStore::new();
    store.append_record(capturer.capture(nt.capture_snapshot()));
    nt.insert_fact("n2", probe.clone());
    nt.run_to_fixpoint();
    store.append_record(capturer.capture(nt.capture_snapshot()));
    store.append_record(capturer.capture(nt.capture_snapshot()));
    let tables: Vec<Vec<String>> = (0..3)
        .map(|i| common::name_table(&store.payload(i).unwrap()))
        .collect();
    let has_probe = |table: &Vec<String>| table.iter().any(|n| n == "earlyProbe");
    assert!(!has_probe(&tables[0]), "the checkpoint does not name it");
    assert!(has_probe(&tables[1]), "the delta that adds it does");
    assert!(tables[2].is_empty(), "an unchanged capture names nothing");

    let LogRecord::Delta(delta) = codec::decode(&store.payload(1).unwrap()).unwrap() else {
        panic!("second record is a delta");
    };
    assert_eq!(delta.nodes[&Addr::new("n2")].added["earlyProbe"], [probe]);
}
