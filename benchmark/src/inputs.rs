//! Seeded inputs: topology, program text, anchors, and the churn / query
//! traces.
//!
//! The topology comes from `simnet::Topology::internet_as` and the program
//! text from `scenario::programs`, but every *trace* — which link fails
//! when, which tuple is queried from where — is generated here, from the
//! benchmark's own RNG, so a product change cannot silently change the load.
//! Every output records the three digests below; two results are comparable
//! only if all three match.

use nt_runtime::Tuple;
use provenance::{QueryKind, TraversalOrder};
use simnet::{Link, Topology, TopologyEvent};

/// SplitMix64: the benchmark's own generator (not the product's `rand`
/// facade), so the load is a function of the seed and this file alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the anchor pick,
    /// the churn trace and the query trace never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`; the modulo bias at these sizes is
    /// below 2^-40 and identical on every run).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over bytes: the digest of every input and state dump. Inputs are
/// names, costs, simulated-clock values and sorted tuple dumps — never wall
/// clock or interner ids — so digests are machine-independent.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Which scenario program a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// `scenario::programs::anchored_pathvector(3)`.
    Pathvector,
    /// `scenario::programs::mixed_protocols(3)`: path-vector + min-cost +
    /// source-route families.
    Mixed,
}

/// Hop bound of every scenario program the benchmark runs.
pub const MAX_HOPS: usize = 3;

/// The size parameters of one workload's network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// `internet_as` node count.
    pub nodes: usize,
    /// Anchor destinations routed toward.
    pub anchors: usize,
    /// The program.
    pub program: Program,
}

/// The seed of the network every workload runs on. The topology and the
/// anchors are generated from this constant whatever the run's `--seed`,
/// which draws only the traces: the order base facts are inserted in, the
/// order and recovery costs of the link cycle, the query sessions, the
/// replay seeks. A different seed is a different sample of the load on the
/// same network, not a different network — route state per anchor is
/// heavy-tailed in where the anchor sits (a tier-1 neighbour holds an order
/// of magnitude more routes than a stub's), so a seeded network moved every
/// rate by 10–50 % between seeds, which no regression bound survives.
pub const NETWORK_SEED: u64 = 2011;

impl Shape {
    /// The same shape at a tenth of the nodes (never below 8), used by the
    /// repeatability dry run.
    pub fn tenth(self) -> Shape {
        Shape {
            nodes: (self.nodes / 10).max(8),
            anchors: self.anchors.min(4),
            ..self
        }
    }
}

/// Everything a workload is fed, derived from `(shape, seed)`.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The seed.
    pub seed: u64,
    /// `internet_as(nodes, 2, NETWORK_SEED)`.
    pub topology: Topology,
    /// NDlog source.
    pub program: String,
    /// Anchor node names, sorted.
    pub anchors: Vec<String>,
    /// Relations the query traces target.
    pub result_relations: &'static [&'static str],
    /// Digest of sorted nodes and links with costs and latencies.
    pub topology_digest: u64,
    /// Digest of the program text and the anchor set.
    pub program_digest: u64,
}

impl Inputs {
    /// Generate the inputs of `shape` for `seed`.
    pub fn generate(shape: Shape, seed: u64) -> Inputs {
        let topology = Topology::internet_as(shape.nodes, 2, NETWORK_SEED);
        let (program, result_relations) = match shape.program {
            Program::Pathvector => (
                scenario::programs::anchored_pathvector(MAX_HOPS),
                scenario::programs::PATHVECTOR_RESULTS,
            ),
            Program::Mixed => (
                scenario::programs::mixed_protocols(MAX_HOPS),
                scenario::programs::MIXED_RESULTS,
            ),
        };
        let anchors = pick_anchors(&topology, shape.anchors);

        let mut h = Fnv::default();
        for node in topology.nodes() {
            h.write(node.as_bytes());
            h.write(b"\n");
        }
        for l in topology.links() {
            h.write(format!("{}>{}:{}:{}\n", l.from, l.to, l.cost, l.latency_ms).as_bytes());
        }
        let topology_digest = h.finish();

        let mut h = Fnv::default();
        h.write(program.as_bytes());
        for a in &anchors {
            h.write(a.as_bytes());
            h.write(b"\n");
        }
        let program_digest = h.finish();

        Inputs {
            seed,
            topology,
            program,
            anchors,
            result_relations,
            topology_digest,
            program_digest,
        }
    }
}

/// `count` distinct connected nodes, drawn from the sorted node list.
fn pick_anchors(topology: &Topology, count: usize) -> Vec<String> {
    let names: Vec<&str> = topology
        .nodes()
        .filter(|n| topology.degree(n) > 0)
        .collect();
    let mut rng = Rng::new(NETWORK_SEED, 1);
    let mut picked: Vec<String> = Vec::new();
    while picked.len() < count.min(names.len()) {
        let candidate = names[rng.below(names.len())];
        if !picked.iter().any(|p| p == candidate) {
            picked.push(candidate.to_string());
        }
    }
    picked.sort();
    picked
}

/// Simulated milliseconds between consecutive churn events.
pub const CHURN_GAP_MS: u64 = 40;

/// The churn trace: a closed cycle of link events. For each of `links`
/// sampled links, in seeded order: the link fails, recovers at a seeded new
/// cost, and its cost changes back to the original — so after one pass the
/// topology is the generated one again and every pass does identical work
/// (which is what lets a run tell host interference from the code's speed:
/// blocks differ only by what the host did to them).
///
/// Link cost is heavy-tailed — flapping a backbone link re-derives orders of
/// magnitude more routes than flapping a stub tail — so the sample is
/// systematic, not independent, and belongs to the network, not to the seed:
/// links are ranked by the degree of their endpoints and every
/// `pairs/links`-th one is taken. Every run flaps the same share of backbone,
/// transit and stub links; the seed draws their order and recovery costs.
pub fn link_cycle(inputs: &Inputs, links: usize) -> Vec<TopologyEvent> {
    let topology = &inputs.topology;
    let mut pairs: Vec<&Link> = topology.links().filter(|l| l.from < l.to).collect();
    pairs.sort_by_key(|l| {
        (
            std::cmp::Reverse(topology.degree(&l.from) + topology.degree(&l.to)),
            l.from.clone(),
            l.to.clone(),
        )
    });
    let links = links.min(pairs.len());
    let stride = pairs.len() / links;
    let mut sample: Vec<&Link> = (0..links).map(|i| pairs[i * stride + stride / 2]).collect();
    let mut rng = Rng::new(inputs.seed, 2);
    for i in (1..sample.len()).rev() {
        sample.swap(i, rng.below(i + 1));
    }
    let mut events = Vec::with_capacity(3 * links);
    for l in sample {
        // A recovery cost different from the original, so the third event
        // changes something.
        let recovered = 1 + (l.cost + rng.below(4) as i64) % 5;
        events.push(TopologyEvent::LinkDown {
            a: l.from.clone(),
            b: l.to.clone(),
        });
        events.push(TopologyEvent::LinkUp(Link {
            cost: recovered,
            ..l.clone()
        }));
        events.push(TopologyEvent::CostChange {
            a: l.from.clone(),
            b: l.to.clone(),
            cost: l.cost,
        });
    }
    events
}

/// Put the `link` base facts in the order this seed inserts them (a seeded
/// shuffle). The fixpoint is the same whatever the order; the path to it is
/// the seed's.
pub fn fact_order(inputs: &Inputs, facts: &mut [(String, Tuple)]) {
    let mut rng = Rng::new(inputs.seed, 5);
    for i in (1..facts.len()).rev() {
        facts.swap(i, rng.below(i + 1));
    }
}

/// Tenants the query traces offer sessions from, round-robin.
pub const TENANTS: usize = 8;

const KINDS: [QueryKind; 4] = [
    QueryKind::Lineage,
    QueryKind::BaseTuples,
    QueryKind::ParticipatingNodes,
    QueryKind::DerivationCount,
];

/// One session of the query trace, before it is bound to the candidate and
/// querier lists of the moment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPick {
    /// Raw draw selecting the target among the current result tuples.
    pub target_draw: u64,
    /// Raw draw selecting the querier among the nodes.
    pub querier_draw: u64,
    /// Raw draw deciding whether the oracle re-answers the session; its own
    /// draw, so the sample is independent of which target was picked.
    pub sample_draw: u64,
    /// The question (the four kinds rotate).
    pub kind: QueryKind,
    /// Breadth-first and depth-first alternate in groups of four.
    pub traversal: TraversalOrder,
    /// Tenant index (round-robin).
    pub tenant: usize,
}

/// The query trace: an endless seeded stream of sessions — targets uniform
/// over the result relations, queriers uniform over nodes, four kinds
/// rotating, BFS/DFS alternating, tenants round-robin. The three rotations
/// are staggered: each round of eight sessions covers all eight
/// kind × traversal combinations, and every tenant issues all eight within
/// eight of its own sessions.
#[derive(Debug, Clone)]
pub struct QueryGen {
    rng: Rng,
    issued: usize,
}

impl QueryGen {
    /// The trace for `inputs`.
    pub fn new(inputs: &Inputs) -> Self {
        QueryGen {
            rng: Rng::new(inputs.seed, 3),
            issued: 0,
        }
    }

    /// The next session.
    pub fn next_pick(&mut self) -> QueryPick {
        let i = self.issued;
        self.issued += 1;
        // Session i = TENANTS * round + tenant. Shifting the kind by the
        // round and the traversal by every fourth round walks each tenant
        // through every combination.
        let round = i / TENANTS;
        QueryPick {
            target_draw: self.rng.next_u64(),
            querier_draw: self.rng.next_u64(),
            sample_draw: self.rng.next_u64(),
            kind: KINDS[(i + round) % KINDS.len()],
            traversal: if (i / KINDS.len() + round / KINDS.len()).is_multiple_of(2) {
                TraversalOrder::BreadthFirst
            } else {
                TraversalOrder::DepthFirst
            },
            tenant: i % TENANTS,
        }
    }
}

/// Sessions folded into [`trace_digest`]: the query generator is a
/// deterministic stream, so a prefix identifies it.
const DIGEST_PREFIX: usize = 512;

/// Digest of the fact insertion order, the churn cycle over `links` links
/// and the first [`DIGEST_PREFIX`] query picks.
pub fn trace_digest(inputs: &Inputs, links: usize) -> u64 {
    let mut h = Fnv::default();
    let mut facts = protocols::link_tuples(&inputs.topology);
    fact_order(inputs, &mut facts);
    for (node, tuple) in &facts {
        h.write(format!("{node} {tuple}\n").as_bytes());
    }
    for event in link_cycle(inputs, links.max(1)) {
        h.write(format!("{event:?}").as_bytes());
    }
    let mut query = QueryGen::new(inputs);
    for _ in 0..DIGEST_PREFIX {
        h.write(format!("{:?}", query.next_pick()).as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        nodes: 64,
        anchors: 3,
        program: Program::Pathvector,
    };

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let a = Inputs::generate(SHAPE, 7);
        let b = Inputs::generate(SHAPE, 7);
        let c = Inputs::generate(SHAPE, 8);
        assert_eq!(a.topology_digest, b.topology_digest);
        assert_eq!(a.program_digest, b.program_digest);
        assert_eq!(trace_digest(&a, 10), trace_digest(&b, 10));
        assert_ne!(trace_digest(&a, 10), trace_digest(&c, 10));
        assert_eq!(a.anchors.len(), 3);
        // The network belongs to the benchmark, the traces to the seed.
        assert_eq!(a.topology_digest, c.topology_digest);
        assert_eq!(a.anchors, c.anchors);
        let bigger = Inputs::generate(Shape { nodes: 65, ..SHAPE }, 7);
        assert_ne!(a.topology_digest, bigger.topology_digest);
    }

    #[test]
    fn program_digest_separates_programs() {
        let pv = Inputs::generate(SHAPE, 7);
        let mixed = Inputs::generate(
            Shape {
                program: Program::Mixed,
                ..SHAPE
            },
            7,
        );
        assert_ne!(pv.program_digest, mixed.program_digest);
        assert_eq!(pv.topology_digest, mixed.topology_digest);
    }

    #[test]
    fn link_cycle_is_closed_and_covers_all_three_event_kinds() {
        let inputs = Inputs::generate(SHAPE, 3);
        let cycle = link_cycle(&inputs, 10);
        assert_eq!(cycle.len(), 30);
        let mut topology = inputs.topology.clone();
        for (i, event) in cycle.iter().enumerate() {
            let (added, removed) = topology.apply(event);
            assert!(
                !added.is_empty() || !removed.is_empty(),
                "event {i} {event:?} changed nothing"
            );
            match (i % 3, event) {
                (0, TopologyEvent::LinkDown { .. })
                | (1, TopologyEvent::LinkUp(_))
                | (2, TopologyEvent::CostChange { .. }) => {}
                other => panic!("unexpected event order {other:?}"),
            }
        }
        assert_eq!(topology, inputs.topology, "one pass restores the topology");
        // More links than the topology has pairs: every pair, once.
        let pairs = inputs.topology.link_count() / 2;
        assert_eq!(link_cycle(&inputs, 10 * pairs).len(), 3 * pairs);
    }

    #[test]
    fn every_seed_flaps_the_same_links_in_its_own_order() {
        let downs = |seed: u64| -> Vec<(String, String)> {
            link_cycle(&Inputs::generate(SHAPE, seed), 12)
                .into_iter()
                .filter_map(|e| match e {
                    TopologyEvent::LinkDown { a, b } => Some((a, b)),
                    _ => None,
                })
                .collect()
        };
        let (one, two) = (downs(1), downs(2));
        assert_ne!(one, two, "the order is the seed's");
        let sorted = |mut v: Vec<(String, String)>| {
            v.sort();
            v
        };
        assert_eq!(sorted(one), sorted(two), "the sample is the network's");
    }

    #[test]
    fn fact_order_is_a_seeded_permutation() {
        let a = Inputs::generate(SHAPE, 1);
        let b = Inputs::generate(SHAPE, 2);
        let facts = |inputs: &Inputs| {
            let mut f = protocols::link_tuples(&inputs.topology);
            fact_order(inputs, &mut f);
            f
        };
        let (fa, fb) = (facts(&a), facts(&b));
        assert_ne!(fa, fb);
        assert_eq!(fa, facts(&a));
        let key = |f: &[(String, Tuple)]| {
            let mut k: Vec<String> = f.iter().map(|(n, t)| format!("{n} {t}")).collect();
            k.sort();
            k
        };
        assert_eq!(key(&fa), key(&fb));
    }

    #[test]
    fn query_trace_covers_every_combination_for_every_tenant() {
        use std::collections::BTreeSet;
        let inputs = Inputs::generate(SHAPE, 3);
        let mut gen = QueryGen::new(&inputs);
        let all: Vec<QueryPick> = (0..1024).map(|_| gen.next_pick()).collect();
        let picks = &all[..8 * TENANTS];
        let combos = |picks: &mut dyn Iterator<Item = &QueryPick>| -> usize {
            picks
                .map(|p| format!("{:?}/{:?}", p.kind, p.traversal))
                .collect::<BTreeSet<_>>()
                .len()
        };
        assert_eq!(combos(&mut picks[..8].iter()), 8, "eight in a row");
        for tenant in 0..TENANTS {
            assert_eq!(picks[tenant].tenant, tenant);
            let mut own = picks.iter().filter(|p| p.tenant == tenant);
            assert_eq!(combos(&mut own), 8, "tenant {tenant}");
        }
        // The oracle sample does not follow the target pick.
        assert!(all
            .iter()
            .any(|p| p.sample_draw % 16 == 0 && p.target_draw % 2 == 1));
        assert_ne!(picks[0].target_draw, picks[1].target_draw);
    }
}
