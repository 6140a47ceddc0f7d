//! The query executor's session stream, pinned: every frame each
//! [`QueryExecutor::poll`] seals and every session's answer, in order.
//!
//! A provenance system is queried by a standalone executor that ships its
//! frames through a simulated network of the same nodes, one poll per
//! delivery instant. For every poll the digest takes each frame's endpoints,
//! direction, dictionary and records (qid, frame id and payload included);
//! for every session its result, [`QueryStats`] (latency included) and what
//! `take_partials` drains. The sweep is {depth-first, breadth-first} × the
//! four kinds × cache on / off × {no bound, `max_depth`,
//! `max_derivations_per_vertex`}, each a wave of six concurrent sessions
//! from local and remote queriers, then a cancellation wave per kind. It runs
//! on MINCOST and the anchored path-vector program, at convergence and again
//! after a link down (one executor throughout, so cached waves meet entries
//! made stale by the link down), and on a seeded graph whose derivations
//! mostly fire at home, with every wave starting cold, so a wave's sessions
//! meet what its earlier sessions cached.
//!
//! Tests that compare answers or multisets do not see the order a session
//! stages its records and streams its partials in, nor which frame ids it
//! hands out. This one does. Its digests were taken before the executor's
//! frame scan was made one routine, and it caught three seeded mutations of
//! that scan:
//!
//! * a breadth-first frame with no child that completes inline instead of
//!   through its queued advance (the seeded graph: a root's two local
//!   derivations stream in the other order when one waits on a base vertex
//!   and the other on a cached one);
//! * depth-first at width 2 (all three);
//! * a rule execution's inputs issued in reverse order (all three).

#[path = "common/engine_runs.rs"]
#[allow(dead_code)]
mod engine_runs;

use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::{Addr, Firing, NodeId, StableHasher, Tuple, Value, BASE_RULE};
use provenance::{
    ProvenanceSystem, QueryBatch, QueryExecutor, QueryHandle, QueryKind, QueryMode, QueryOptions,
    QuerySpec, TraversalOrder, QUERY_CATEGORY,
};
use simnet::{Network, NetworkConfig, Topology, TopologyEvent};

const KINDS: [QueryKind; 4] = [
    QueryKind::Lineage,
    QueryKind::BaseTuples,
    QueryKind::ParticipatingNodes,
    QueryKind::DerivationCount,
];

/// One executor and the network its frames cross, digested as they go.
struct Stream {
    executor: QueryExecutor,
    network: Network<QueryBatch>,
    digest: StableHasher,
    polls: usize,
    frames: usize,
    sessions: usize,
    /// Sessions that ended cancelled, without a result.
    cancelled: usize,
}

impl Stream {
    fn new(topology: Topology) -> Self {
        Stream {
            executor: QueryExecutor::new(),
            network: Network::new(topology, NetworkConfig::default()),
            digest: StableHasher::new(),
            polls: 0,
            frames: 0,
            sessions: 0,
            cancelled: 0,
        }
    }

    fn write(&mut self, text: String) {
        self.digest.write_bytes(text.as_bytes());
    }

    /// Seal what the sessions staged, digest every frame and send it.
    fn flush(&mut self) {
        let batches = self.executor.poll();
        if batches.is_empty() {
            return;
        }
        self.polls += 1;
        self.write(format!("poll {}", self.polls));
        for batch in batches {
            self.frames += 1;
            self.write(format!(
                "{:?} -> {:?} request {} dict {:?}",
                batch.from,
                batch.to,
                batch.is_request(),
                batch.dict()
            ));
            for op in batch.ops() {
                self.write(format!("{op:?}"));
            }
            let (from, to) = (batch.from, batch.to);
            let (bytes, records) = (batch.wire_size(), batch.len());
            self.network
                .send_batch(from, to, batch, bytes, records, QUERY_CATEGORY);
        }
    }

    /// One pump step: flush, then deliver everything due at the next
    /// instant. False when nothing was in flight.
    fn step(&mut self, system: &ProvenanceSystem) -> bool {
        self.flush();
        if self.network.idle() {
            return false;
        }
        for delivered in self.network.advance() {
            let now = self.network.now();
            self.executor.deliver(system, delivered.payload, now);
        }
        true
    }

    /// Submit `specs` at once, pump to the end and digest every session's
    /// outcome in submission order. With `cancel_at`, the first session
    /// still running after that many pump steps is cancelled.
    fn wave(&mut self, system: &ProvenanceSystem, specs: Vec<QuerySpec>, cancel_at: Option<usize>) {
        let now = self.network.now();
        let handles: Vec<QueryHandle> = specs
            .into_iter()
            .map(|spec| self.executor.submit(system, spec, now))
            .collect();
        let mut steps = 0;
        while handles.iter().any(|h| !self.executor.is_done(*h)) || !self.network.idle() {
            if cancel_at == Some(steps) {
                if let Some(&victim) = handles.iter().find(|h| !self.executor.is_done(**h)) {
                    let now = self.network.now();
                    self.executor.cancel(victim, now);
                }
            }
            assert!(
                self.step(system) || self.executor.idle(),
                "sessions stalled"
            );
            steps += 1;
            assert!(steps < 100_000, "sessions failed to converge");
        }
        for handle in handles {
            let partials = self.executor.take_partials(handle);
            let (result, stats) = self.executor.take_result(handle).expect("finished");
            self.sessions += 1;
            self.cancelled += usize::from(result.is_none());
            self.write(format!(
                "session {handle:?}: {result:?} {stats:?} partials {partials:?}"
            ));
        }
    }
}

/// Every third target from `first`, six of them, each asked from a node
/// that walks the network, so waves mix local and remote queriers.
fn specs(
    targets: &[(Addr, Tuple)],
    nodes: &[NodeId],
    first: usize,
    kind: QueryKind,
    options: &QueryOptions,
) -> Vec<QuerySpec> {
    (0..6)
        .map(|i| {
            let (home, target) = &targets[(first + 3 * i) % targets.len()];
            let querier = if i % 2 == 0 {
                *home
            } else {
                nodes[(first + 5 * i) % nodes.len()]
            };
            QuerySpec {
                querier,
                vid: target.id(),
                kind,
                mode: QueryMode::Distributed,
                options: options.clone(),
            }
        })
        .collect()
}

/// The whole sweep over `targets`, then a cancellation wave per kind, at the
/// system's current state. With `cold`, every wave starts with an empty
/// cache, so its sessions meet only what the wave's earlier sessions cached.
fn sweep(
    stream: &mut Stream,
    system: &ProvenanceSystem,
    targets: &[(Addr, Tuple)],
    nodes: &[NodeId],
    cold: bool,
) {
    assert!(targets.len() >= 6, "enough targets");
    let mut first = 0;
    for traversal in [TraversalOrder::DepthFirst, TraversalOrder::BreadthFirst] {
        for kind in KINDS {
            for use_cache in [false, true] {
                for bound in 0..3 {
                    let options = QueryOptions {
                        use_cache,
                        traversal,
                        max_depth: (bound == 1).then_some(2),
                        max_derivations_per_vertex: (bound == 2).then_some(1),
                    };
                    let wave = specs(targets, nodes, first, kind, &options);
                    if cold {
                        stream.executor.clear_cache();
                    }
                    stream.wave(system, wave, None);
                    first += 1;
                }
            }
        }
    }
    for (i, kind) in KINDS.into_iter().enumerate() {
        let traversal = if i % 2 == 0 {
            TraversalOrder::BreadthFirst
        } else {
            TraversalOrder::DepthFirst
        };
        let options = QueryOptions {
            traversal,
            ..QueryOptions::default()
        };
        let wave = specs(targets, nodes, first + i, kind, &options);
        stream.wave(system, wave, Some(1 + i % 2));
    }
}

/// Converge `source` on `topology` (with `anchors`), sweep, take a link
/// down, sweep again. Returns (polls, frames, sessions, digest).
fn session_stream(
    source: &str,
    relation: &str,
    topology: Topology,
    anchors: &[&str],
    down: (&str, &str),
) -> (usize, usize, usize, u64) {
    let mut nt = NetTrails::new(source, topology.clone(), NetTrailsConfig::default())
        .expect("program compiles");
    nt.seed_links_from_topology();
    for &anchor in anchors {
        let values = vec![Value::addr(anchor), Value::addr(anchor)];
        nt.insert_fact(anchor, Tuple::new("anchor", values));
    }
    nt.run_to_fixpoint();
    let mut stream = Stream::new(topology);
    sweep(
        &mut stream,
        nt.provenance(),
        &nt.relation(relation),
        &nt.nodes(),
        false,
    );
    let event = TopologyEvent::LinkDown {
        a: down.0.to_string(),
        b: down.1.to_string(),
    };
    nt.apply_topology_event(&event);
    stream.network.topology_mut().apply(&event);
    sweep(
        &mut stream,
        nt.provenance(),
        &nt.relation(relation),
        &nt.nodes(),
        false,
    );
    assert!(stream.executor.idle(), "every session ended");
    assert_eq!(stream.cancelled, 8, "every cancellation wave cancelled one");
    let digest = stream.digest.finish();
    (stream.polls, stream.frames, stream.sessions, digest)
}

#[test]
fn mincost_sessions_keep_their_stream() {
    let topology = Topology::internet_as(12, 2, 12);
    let down = first_link(&topology);
    let got = session_stream(
        protocols::mincost::PROGRAM,
        "minCost",
        topology,
        &[],
        (&down.0, &down.1),
    );
    assert_eq!(got, (1110, 2779, 624, 8529777543335529516));
}

#[test]
fn anchored_path_vector_sessions_keep_their_stream() {
    let topology = Topology::internet_as(12, 2, 12);
    let down = first_link(&topology);
    let got = session_stream(
        engine_runs::ANCHORED,
        "bestRoute",
        topology,
        &["as1", "as7"],
        (&down.0, &down.1),
    );
    assert_eq!(got, (917, 2730, 624, 17574258075903984077));
}

#[test]
fn a_seeded_provenance_graph_keeps_its_stream() {
    let topology = Topology::ring(5);
    let nodes: Vec<NodeId> = topology.nodes().map(NodeId::new).collect();
    let (system, targets) = seeded_graph(&nodes, 48, 12);
    let mut stream = Stream::new(topology);
    sweep(&mut stream, &system, &targets, &nodes, true);
    assert!(stream.executor.idle(), "every session ended");
    assert_eq!(stream.cancelled, 4, "every cancellation wave cancelled one");
    let got = (
        stream.polls,
        stream.frames,
        stream.sessions,
        stream.digest.finish(),
    );
    assert_eq!(got, (493, 809, 312, 18278895229064243519));
}

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

/// A seeded provenance graph of shapes the protocol programs rarely grow:
/// vertices that are base and derived at once, up to three derivations per
/// vertex, fired at the vertex's home or at another node, and inputs drawn
/// from a few vertices per node, so many executions share them and
/// breadth-first sessions under caching defer onto in-flight duplicates.
/// Returns the system and its derived vertices, each with its home.
fn seeded_graph(
    nodes: &[NodeId],
    vertices: i64,
    seed: u64,
) -> (ProvenanceSystem, Vec<(Addr, Tuple)>) {
    let mut rng = Rng(seed);
    let mut system = ProvenanceSystem::new(nodes.iter().copied());
    let mut at: Vec<Vec<Tuple>> = vec![Vec::new(); nodes.len()];
    let mut derived = Vec::new();
    let fire = |system: &mut ProvenanceSystem,
                rule: &str,
                node: NodeId,
                head: &Tuple,
                home: NodeId,
                inputs: &[Tuple]| {
        system.apply_firing(&Firing {
            rule: rule.into(),
            node,
            head: head.clone(),
            head_home: home,
            inputs: inputs.iter().map(Tuple::id).collect(),
            insert: true,
        });
    };
    for i in 0..vertices {
        let home = rng.below(nodes.len());
        let tuple = Tuple::new("v", vec![Value::Addr(nodes[home]), Value::Int(i)]);
        let derivations = if i < 2 * nodes.len() as i64 {
            0
        } else {
            1 + rng.below(3)
        };
        if derivations == 0 || rng.below(4) == 0 {
            fire(
                &mut system,
                BASE_RULE,
                nodes[home],
                &tuple,
                nodes[home],
                &[],
            );
        }
        for d in 0..derivations {
            // Inputs live where the rule fires.
            let exec = if rng.below(4) != 0 {
                home
            } else {
                rng.below(nodes.len())
            };
            let pool = &at[exec];
            if pool.is_empty() {
                continue;
            }
            let inputs: Vec<Tuple> = (0..1 + rng.below(3))
                .map(|_| pool[rng.below(pool.len())].clone())
                .collect();
            let rule = format!("r{d}");
            fire(
                &mut system,
                &rule,
                nodes[exec],
                &tuple,
                nodes[home],
                &inputs,
            );
        }
        if derivations > 0 {
            derived.push((nodes[home], tuple.clone()));
        }
        at[home].push(tuple);
    }
    (system, derived)
}

/// The topology's first link in its own order.
fn first_link(topology: &Topology) -> (String, String) {
    let link = topology.links().find(|l| l.from < l.to).expect("a link");
    (link.from.clone(), link.to.clone())
}
