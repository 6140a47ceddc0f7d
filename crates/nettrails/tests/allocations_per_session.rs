//! What a provenance query session allocates, counted — not sampled — by
//! wrapping the system allocator: 256 uncached lineage sessions offered at
//! once to a converged 400-node network and pumped to completion, the way
//! the query service runs a wave; then the same 256 as derivation counts.
//! One test in its own binary counting its own thread, so the count repeats
//! exactly; a ceiling that fails here names a per-frame or per-vertex
//! allocation that came back.
//!
//! Each ceiling is the measured value + 10 %: 33 allocations per lineage
//! session and 33 per derivation-count session (8,581 for each wave), both
//! at 8.2 frames (one frame per flush, destination and direction, shared by
//! the sessions staging toward it; one frame per session and flush was
//! 12.9). Lineage read 46 (11,881) while `finish` cloned every root-level
//! derivation into a partial-results buffer (12.9 per session), 52 and 39
//! while a depth-first vertex copied its entries from its first derivation
//! on, and 57 and 44 while sealing collected each session's records toward
//! a frame into a vector of their own, about one per record. A count folds
//! where the data is: its slot vectors are dropped at completion where
//! lineage's become the tree, in as many allocations. By owner, per lineage
//! session (scratch tags on a copy of the executor, a thread-local owner
//! read by this allocator):
//!
//! | owner | per session | what |
//! |---|---:|---|
//! | sealing (`QueryExecutor::poll`) | 8.7 | per-flush frame and session-group tables and record places, one record vector and one dictionary header per frame, the batch list |
//! | `scan`: paths | 6.4 | one cycle-guard path per derivation |
//! | `scan`: slots | 6.4 | one derivation slot vector per expanded vertex |
//! | `scan`: the rest of the entries | 0.0 | a depth-first vertex with a derivation after the first copies its remaining entries; here none has one |
//! | `scan`: growth | 2.9 | frame arena, staging and event queue growth |
//! | `open_exec` | 6.4 | one input slot vector per rule execution |
//! | the rest | 2.6 | submission, delivery, responses, redemption |
//!
//! The sealing row holds one record vector per frame: with one per session
//! group, the lineage wave read 14,798 allocations and the count wave
//! 11,498. The scan took the entries row from 6.4 (`start_vertex` copied a
//! depth-first vertex's entries from its first derivation on) to nothing.
//!
//! Before paths were shared the run read 95 (owners as named then): every
//! frame cloned its cycle-guard path (`issue_exec` 19.5, `spawn_input`
//! 10.9), a finished vertex or execution collected its slots into a new
//! vector (`advance_vertex` 12.9, `advance_exec` 6.4), and `start_vertex`
//! copied every vertex's entries (10.2). A path is now one shared slice built once
//! per derivation, slots become the tree in their own buffer, and a leaf's
//! entries are read in place. Before that, sharing tuples, input lists and
//! dictionary entries took the count from 127 to 95, and traffic handles
//! from 265 to 127.

use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::Tuple;
use provenance::QueryKind;
use simnet::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set by the test on its own thread: the harness's main thread
    /// allocates now and then while it waits, and is not what is measured.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// statistic and publishes no other data, and the thread-local it reads is
// const-initialized and has no destructor, so reading it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NODES: usize = 400;
const SESSIONS: usize = 256;

/// Allocations per lineage session: measured 33 (46 while root-level
/// derivations were cloned as partial results, 52 while a depth-first vertex
/// copied its entries from its first derivation on, 57 with a record vector
/// per session group).
const ALLOCATIONS_PER_SESSION: usize = 37;

/// Allocations per derivation-count session: measured 33 (39 while a
/// depth-first vertex copied its entries, 44 with a record vector per
/// session group).
const ALLOCATIONS_PER_COUNT_SESSION: usize = 37;

/// Offer one wave — session `i` asks node `7i mod N` the `kind` question of
/// every `stride`-th route — pump it dry and redeem every handle. Returns
/// the frames the wave put on the wire.
fn wave(nt: &mut NetTrails, targets: &[Tuple], queriers: &[String], kind: QueryKind) -> u64 {
    let frames = nt.query_executor().traffic().messages;
    let stride = targets.len() / SESSIONS;
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            nt.query(&targets[i * stride])
                .from_node(&queriers[i * 7 % queriers.len()])
                .kind(kind)
                .submit()
        })
        .collect();
    while handles.iter().any(|h| !nt.query_done(*h)) {
        assert!(nt.poll_queries(), "a session stalled on an idle network");
    }
    for handle in handles {
        nt.try_wait_query(handle).expect("the session completed");
    }
    nt.query_executor().traffic().messages - frames
}

#[test]
fn a_session_allocates_under_its_ceiling() {
    let topology = Topology::internet_as(NODES, 2, 2011);
    let program = scenario::programs::anchored_pathvector(3);
    let mut nt = NetTrails::new(&program, topology.clone(), NetTrailsConfig::default())
        .expect("the anchored path-vector program compiles");
    nt.seed_links_from_topology();
    let connected: Vec<&str> = topology
        .nodes()
        .filter(|n| topology.degree(n) > 0)
        .collect();
    for anchor in connected.iter().step_by(connected.len() / 8) {
        nt.insert_fact(anchor, scenario::programs::anchor_tuple(anchor));
    }
    nt.run_to_fixpoint();

    let mut rows: Vec<(String, Tuple)> = nt
        .relation("bestRoute")
        .into_iter()
        .map(|(addr, tuple)| (format!("{addr} {tuple}"), tuple))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let targets: Vec<Tuple> = rows.into_iter().map(|(_, tuple)| tuple).collect();
    let queriers: Vec<String> = topology.nodes().map(str::to_string).collect();
    assert!(targets.len() >= SESSIONS, "{} routes", targets.len());

    // Warm-up: every link and destination dictionary the wave touches has
    // been counted and shipped once, so the measured wave is the steady
    // state the benchmark's second block is.
    wave(&mut nt, &targets, &queriers, QueryKind::Lineage);

    for (kind, ceiling) in [
        (QueryKind::Lineage, ALLOCATIONS_PER_SESSION),
        (QueryKind::DerivationCount, ALLOCATIONS_PER_COUNT_SESSION),
    ] {
        MEASURED.set(true);
        let before = ALLOCATIONS.load(Relaxed);
        let frames = wave(&mut nt, &targets, &queriers, kind);
        let allocations = ALLOCATIONS.load(Relaxed) - before;
        MEASURED.set(false);

        println!(
            "{kind:?}: {SESSIONS} sessions, {frames} frames, {allocations} allocations: {} per session",
            allocations / SESSIONS
        );
        assert!(frames as usize > 4 * SESSIONS, "sessions crossed the wire");
        assert!(
            allocations / SESSIONS <= ceiling,
            "a {kind:?} session costs {} allocations, over the {ceiling} ceiling",
            allocations / SESSIONS
        );
    }
}
