//! The names a snapshot's frame carries, by a walk of its contents, and a
//! frame's name table read back by the frame grammar alone.
//!
//! `stamp_reference` is the text-set walk `SystemSnapshot::stamp_dictionary`
//! made while a snapshot carried its own dictionary, extended to the
//! topology and the traffic counters: every name the snapshot mentions, as
//! text, in one ordered set. An encoded snapshot (`nt_runtime::codec`) holds
//! exactly these names in its name table, so its bytes depend on the
//! snapshot alone; `cursor_equivalence` and the root `codec_equivalence`
//! compare the table of every checkpoint and materialized snapshot they see
//! with it; the root `dictionary_discipline` reads log payloads' tables with
//! `name_table`.

use logstore::SystemSnapshot;
use nt_runtime::{codec, Tuple};
use provenance::ProvVertex;
use std::collections::BTreeSet;

/// The traffic categories the platform charges: `nettrails`'
/// `PROTOCOL_CATEGORY` and the query plane's.
const CATEGORIES: [&str; 2] = ["protocol", provenance::QUERY_CATEGORY];

/// The names `snapshot`'s contents mention, sorted: node names, relation
/// keys, every name of every tuple, each graph vertex's home, rule and node,
/// the topology's nodes and link ends, and the traffic counters' link ends
/// and categories.
pub fn stamp_reference(snapshot: &SystemSnapshot) -> Vec<String> {
    fn tuple_names(t: &Tuple, names: &mut BTreeSet<String>) {
        t.visit_names(&mut |name| {
            names.insert(name.to_string());
        });
    }
    let mut names = BTreeSet::new();
    for (node, snap) in &snapshot.nodes {
        names.insert(node.to_string());
        for (relation, tuples) in &snap.relations {
            names.insert(relation.clone());
            for t in tuples {
                tuple_names(t, &mut names);
            }
        }
    }
    for vertex in snapshot.graph.vertices.values() {
        match vertex {
            ProvVertex::Tuple { tuple, home, .. } => {
                names.insert(home.to_string());
                if let Some(t) = tuple {
                    tuple_names(t, &mut names);
                }
            }
            ProvVertex::RuleExec { rule, node, .. } => {
                names.insert(rule.to_string());
                names.insert(node.to_string());
            }
        }
    }
    names.extend(snapshot.topology.nodes().map(str::to_string));
    for link in snapshot.topology.links() {
        names.insert(link.from.clone());
        names.insert(link.to.clone());
    }
    for (src, dst, _) in snapshot.traffic.links() {
        names.insert(src.to_string());
        names.insert(dst.to_string());
    }
    for category in CATEGORIES {
        if snapshot.traffic.category_messages(category) > 0 {
            names.insert(category.to_string());
        }
    }
    names.into_iter().collect()
}

/// A frame's name table in first-use order, read by the frame grammar alone
/// (`varint(n)`, then `n` × `varint(len)` and the bytes), not by the decoder
/// under test.
pub fn name_table(frame: &[u8]) -> Vec<String> {
    fn varint(bytes: &[u8], at: &mut usize) -> usize {
        let mut v = 0;
        for shift in (0..).step_by(7) {
            let b = bytes[*at];
            *at += 1;
            v |= usize::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
        }
        v
    }
    let mut at = 0;
    let n = varint(frame, &mut at);
    (0..n)
        .map(|_| {
            let len = varint(frame, &mut at);
            at += len;
            String::from_utf8(frame[at - len..at].to_vec()).expect("UTF-8")
        })
        .collect()
}

/// The name table of `snapshot`'s frame, sorted; panics on a name written
/// twice.
pub fn frame_names(snapshot: &SystemSnapshot) -> Vec<String> {
    let mut names = name_table(&codec::encode(snapshot));
    names.sort_unstable();
    let count = names.len();
    names.dedup();
    assert_eq!(names.len(), count, "a name written twice");
    names
}
