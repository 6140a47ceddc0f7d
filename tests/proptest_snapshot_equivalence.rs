//! Full-vs-incremental snapshot equivalence, across every log backend.
//!
//! For random topologies, programs and link-churn schedules, a platform is
//! captured after the initial fixpoint and after every churn event. Two
//! chains are built from the same captures: a *full* chain (every capture a
//! checkpoint, in-memory backend — the pre-incremental behavior) and an
//! *incremental* chain (periodic checkpoints + deltas via
//! `SnapshotCapturer`) through each of the two backends. The materialized
//! snapshot at every capture index and at every probed `at(time)` must be
//! bit-identical between the chains — the same discipline the worker and
//! storage-backing refactors of earlier PRs used.

use logstore::{LogStore, MemBackend, SegmentFileBackend, SnapshotCapturer, SystemSnapshot};
use nettrails::{NetTrails, NetTrailsConfig};
use proptest::prelude::*;
use simnet::{SimTime, Topology, TopologyEvent};
use std::sync::atomic::{AtomicUsize, Ordering};

fn topology_for(kind: usize, size: usize) -> Topology {
    match kind % 3 {
        0 => Topology::line(2 + size % 3),
        1 => Topology::ring(3 + size % 3),
        _ => Topology::ladder(2 + size % 2),
    }
}

/// Run a churned platform, capturing a canonical snapshot after the fixpoint
/// and after every event.
fn captured_run(
    program: &str,
    topology: &Topology,
    events: &[TopologyEvent],
) -> Vec<SystemSnapshot> {
    let mut nt = NetTrails::new(program, topology.clone(), NetTrailsConfig::default())
        .expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    let mut captures = vec![nt.capture_snapshot()];
    for event in events {
        nt.apply_topology_event(event);
        captures.push(nt.capture_snapshot());
    }
    captures
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn segment_dir(case: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ntl-proptest-seg-{}-{case}", std::process::id()))
}

fn backends(case: usize) -> Vec<(&'static str, Box<dyn logstore::LogBackend>)> {
    let dir = segment_dir(case);
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        (
            "mem",
            Box::new(MemBackend::new()) as Box<dyn logstore::LogBackend>,
        ),
        (
            "segment_file",
            Box::new(SegmentFileBackend::open(&dir).expect("segment dir opens")),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_chains_materialize_identically_on_every_backend(
        kind in 0usize..3,
        size in 0usize..6,
        program_idx in 0usize..2,
        checkpoint_every in 1usize..5,
        churn in proptest::collection::vec((0usize..8, 0usize..8), 1..5),
    ) {
        let topology = topology_for(kind, size);
        let nodes: Vec<String> = topology.nodes().map(str::to_string).collect();
        let events: Vec<TopologyEvent> = churn
            .into_iter()
            .map(|(a, b)| TopologyEvent::LinkDown {
                a: nodes[a % nodes.len()].clone(),
                b: nodes[b % nodes.len()].clone(),
            })
            .collect();
        let program = if program_idx == 0 {
            protocols::mincost::PROGRAM
        } else {
            protocols::pathvector::PROGRAM
        };

        let captures = captured_run(program, &topology, &events);

        // The reference: every capture uploaded in full (pre-refactor path).
        let mut full = LogStore::new();
        for snap in &captures {
            full.add(snap.clone());
        }

        let case = CASE.fetch_add(1, Ordering::Relaxed);
        for (name, backend) in backends(case) {
            let mut store = LogStore::with_backend(backend);
            let mut capturer = SnapshotCapturer::new(checkpoint_every);
            for snap in &captures {
                store.append_record(capturer.capture(snap.clone()));
            }
            prop_assert_eq!(store.len(), captures.len());

            // Bit-identical materialization at every capture index...
            for (i, snap) in captures.iter().enumerate() {
                prop_assert_eq!(
                    store.get(i).as_ref(), Some(snap),
                    "backend {} diverged at index {}", name, i
                );
            }
            // ...at probed times between captures...
            let last_us = captures.last().unwrap().time.as_micros();
            for probe_us in (0..=last_us + 1_000_000).step_by(700_000) {
                let t = SimTime::from_micros(probe_us);
                prop_assert_eq!(
                    store.at(t), full.at(t),
                    "backend {} diverged at time {}us", name, probe_us
                );
            }
            // ...and still after compaction.
            let stats = store.compact();
            prop_assert!(stats.bytes_after <= stats.bytes_before);
            for (i, snap) in captures.iter().enumerate() {
                prop_assert_eq!(
                    store.get(i).as_ref(), Some(snap),
                    "backend {} diverged at index {} after compaction", name, i
                );
            }
        }
        let _ = std::fs::remove_dir_all(segment_dir(case));
    }
}
