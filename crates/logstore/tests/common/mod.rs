//! The identifier dictionary as `SystemSnapshot::stamp_dictionary` stamped
//! it before it collected handles: every name mention put, as text, into one
//! ordered set. Kept as the stamp's oracle; `cursor_equivalence` and the
//! root `codec_equivalence` compare every dictionary they see with it.

use logstore::SystemSnapshot;
use nt_runtime::{InternerSnapshot, Tuple};
use provenance::ProvVertex;
use std::collections::BTreeSet;

/// The dictionary `snapshot`'s contents name: node names, relation keys,
/// every name of every tuple, and each graph vertex's home, rule and node.
pub fn stamp_reference(snapshot: &SystemSnapshot) -> InternerSnapshot {
    fn tuple_names(t: &Tuple, names: &mut BTreeSet<&str>) {
        t.visit_names(&mut |name| {
            names.insert(name.as_str());
        });
    }
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for (node, snap) in &snapshot.nodes {
        names.insert(node.as_str());
        for (relation, tuples) in &snap.relations {
            names.insert(relation);
            for t in tuples {
                tuple_names(t, &mut names);
            }
        }
    }
    for vertex in snapshot.graph.vertices.values() {
        match vertex {
            ProvVertex::Tuple { tuple, home, .. } => {
                names.insert(home.as_str());
                if let Some(t) = tuple {
                    tuple_names(t, &mut names);
                }
            }
            ProvVertex::RuleExec { rule, node, .. } => {
                names.insert(rule.as_str());
                names.insert(node.as_str());
            }
        }
    }
    InternerSnapshot {
        strings: names.into_iter().map(str::to_string).collect(),
    }
}
