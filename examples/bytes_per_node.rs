//! Bytes per node: what a NetTrails process holds on the heap, phase by
//! phase, counted by a wrapper around the system allocator.
//!
//! ```text
//! cargo run --release --example bytes_per_node -- 2000
//! ```
//!
//! Builds `Topology::internet_as(nodes, 2, 2011)` under the anchored
//! path-vector program with the benchmark's anchors (`converge_as` is this at
//! 2,000 nodes) and prints one line per phase — start, new, seed, fixpoint,
//! drop — with the live heap bytes and blocks, both per node and per stored
//! tuple, and the process's `VmHWM`. The counts are exact and repeat run to
//! run; `VmHWM` is what `ntbench` reports as `peak_rss_mb`.

use nettrails::{NetTrails, NetTrailsConfig};
use simnet::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and live blocks.
struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Relaxed);
            LIVE_BLOCKS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE_BYTES.fetch_add(new_size, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The network seed and anchor count of every `ntbench` workload.
const NETWORK_SEED: u64 = 2011;
const ANCHORS: usize = 8;

/// `count` distinct connected nodes drawn the way `benchmark/src/inputs.rs`
/// draws them (SplitMix64, stream 1 of the network seed), so the example
/// converges to the state `converge_as` does.
fn pick_anchors(topology: &Topology, count: usize) -> Vec<String> {
    let names: Vec<&str> = topology
        .nodes()
        .filter(|n| topology.degree(n) > 0)
        .collect();
    let mut state = NETWORK_SEED ^ 0x9e37_79b9_7f4a_7c15;
    let mut picked: Vec<String> = Vec::new();
    while picked.len() < count.min(names.len()) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let candidate = names[((z ^ (z >> 31)) % names.len() as u64) as usize];
        if !picked.iter().any(|p| p == candidate) {
            picked.push(candidate.to_string());
        }
    }
    picked.sort();
    picked
}

/// The process's peak resident set, in kB (0 where `/proc` has none).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

fn phase(name: &str, base: (usize, usize), nodes: usize, tuples: usize) {
    let bytes = LIVE_BYTES.load(Relaxed).saturating_sub(base.0);
    let blocks = LIVE_BLOCKS.load(Relaxed).saturating_sub(base.1);
    let per = |n: usize| {
        if n == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", bytes as f64 / n as f64)
        }
    };
    println!(
        "{name:<9} live_bytes={bytes} live_mb={:.2} blocks={blocks} bytes_per_node={} \
         tuples={tuples} bytes_per_tuple={} vm_hwm_kb={}",
        bytes as f64 / 1e6,
        per(nodes),
        per(tuples),
        vm_hwm_kb()
    );
}

fn main() {
    let nodes: usize = match std::env::args().nth(1).map(|a| a.parse()) {
        None => 2000,
        Some(Ok(n)) if n >= 8 => n,
        Some(_) => {
            eprintln!("usage: bytes_per_node [nodes >= 8]");
            std::process::exit(2);
        }
    };
    // The topology, the program text and the anchors are inputs, not state:
    // they are live before `start` and stay out of every later line (the
    // platform gets a topology of its own). What `drop` leaves is the
    // process-wide intern pool.
    let topology = Topology::internet_as(nodes, 2, NETWORK_SEED);
    let program = scenario::programs::anchored_pathvector(3);
    let anchors = pick_anchors(&topology, ANCHORS);

    let base = (LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed));
    phase("start", base, nodes, 0);

    let mut nt = NetTrails::new(&program, topology.clone(), NetTrailsConfig::default())
        .expect("the anchored path-vector program compiles");
    phase("new", base, nodes, 0);

    nt.seed_links_from_topology();
    for anchor in &anchors {
        nt.insert_fact(anchor, scenario::programs::anchor_tuple(anchor));
    }
    phase("seed", base, nodes, 0);

    nt.run_to_fixpoint();
    let stats = nt.stats();
    phase("fixpoint", base, nodes, stats.stored_tuples);
    println!(
        "fixpoint  storage_bytes={} prov_entries={} rule_execs={} join_probes={}",
        nt.nodes()
            .iter()
            .filter_map(|n| nt.engine(n.as_str()))
            .map(|e| e.database().storage_bytes())
            .sum::<usize>(),
        stats.provenance.prov_entries,
        stats.provenance.rule_execs,
        stats.engine.join_probes
    );

    drop(nt);
    phase("drop", base, nodes, 0);
    drop(topology);
}
