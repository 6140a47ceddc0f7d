//! Tear-down: whatever a node shipped, it can take back.
//!
//! Random insert/delete streams of `Int`- and `Double`-valued base facts over
//! a three-node line, under a program whose rules ship their heads to other
//! nodes along every path that remembers a shipment: plain remote heads (two
//! rules deriving one head, so `3` and `3.0` meet in one outbox), a join
//! whose head representation depends on which atom triggered it, a remote
//! aggregate, a remote negation, and a second hop over a received tuple. Once
//! every base fact is deleted again, every table at every node is empty and
//! every engine's outbox is empty — under both table backings, inline and
//! through the worker pool.

use nettrails::{NetTrails, NetTrailsConfig};
use nt_runtime::{Tuple, Value};
use proptest::prelude::*;
use simnet::Topology;

const PROGRAM: &str = "materialize(e, infinity, infinity, keys(1,2,3)).\n\
     materialize(f, infinity, infinity, keys(1,2,3)).\n\
     materialize(h, infinity, infinity, keys(1,2)).\n\
     materialize(j, infinity, infinity, keys(1,2)).\n\
     materialize(low, infinity, infinity, keys(1,2)).\n\
     materialize(only, infinity, infinity, keys(1,2,3)).\n\
     materialize(back, infinity, infinity, keys(1,2,3)).\n\
     r1 h(@D,C) :- e(@S,D,C).\n\
     r2 h(@D,C) :- f(@S,D,C).\n\
     r3 j(@D,C) :- e(@S,D,C), f(@S,D,C).\n\
     r4 low(@D,S,min<C>) :- e(@S,D,C).\n\
     r5 only(@D,S,C) :- e(@S,D,C), !f(@S,D,C).\n\
     r6 back(@E,D,C) :- h(@D,C), e(@D,E,C2).";

const NODES: [&str; 3] = ["n1", "n2", "n3"];

/// (insert?, relation `e`?, 3 * source + destination, value, as a double?)
type Op = (bool, bool, usize, i64, bool);

fn fact((_, use_e, link, c, double): &Op) -> (&'static str, Tuple) {
    let (src, dst) = (link / 3, link % 3);
    let c = if *double {
        Value::Double(*c as f64)
    } else {
        Value::Int(*c)
    };
    let relation = if *use_e { "e" } else { "f" };
    let values = vec![Value::addr(NODES[src]), Value::addr(NODES[dst]), c];
    (NODES[src], Tuple::new(relation, values))
}

fn stored_and_shipped(nt: &NetTrails) -> Vec<String> {
    let mut left = Vec::new();
    for node in nt.nodes() {
        let db = nt.engine(&node).expect("engine exists").database();
        for table in db.tables() {
            left.extend(table.tuples().iter().map(|t| format!("{node}: {t}")));
        }
        if db.outbox_len() > 0 {
            left.push(format!("{node}: {} outbox entries", db.outbox_len()));
        }
    }
    left
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deleting_every_base_fact_empties_every_table_and_every_outbox(
        batch in 1usize..5,
        ops in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 0usize..9, 0i64..3, any::<bool>()),
            1..24,
        ),
    ) {
        for (columnar, workers) in [(true, 1), (true, 2), (false, 1), (false, 2)] {
            let config = NetTrailsConfig {
                columnar_storage: columnar,
                fixpoint_workers: workers,
                fixpoint_dispatch_threshold: if workers > 1 { 0 } else { 64 },
                ..NetTrailsConfig::default()
            };
            let mut nt = NetTrails::new(PROGRAM, Topology::line(3), config).unwrap();
            // The facts currently inserted. `3` and `3.0` are one fact to the
            // engine (it keeps the representation it stored first), and so to
            // this model: `Tuple` equality equates them.
            let mut live: Vec<(&str, Tuple)> = Vec::new();
            for chunk in ops.chunks(batch) {
                for op in chunk {
                    let (node, tuple) = fact(op);
                    // Re-inserting a live fact or deleting an absent one
                    // changes nothing, and is fed through all the same.
                    let at = live.iter().position(|(_, t)| *t == tuple);
                    if op.0 {
                        if at.is_none() {
                            live.push((node, tuple.clone()));
                        }
                        nt.insert_fact(node, tuple);
                    } else {
                        if let Some(at) = at {
                            live.swap_remove(at);
                        }
                        nt.delete_fact(node, tuple);
                    }
                }
                nt.run_to_fixpoint();
            }
            for (node, tuple) in live {
                nt.delete_fact(node, tuple);
            }
            nt.run_to_fixpoint();
            prop_assert_eq!(
                stored_and_shipped(&nt),
                Vec::<String>::new(),
                "columnar {}, W = {}", columnar, workers
            );
        }
    }
}
