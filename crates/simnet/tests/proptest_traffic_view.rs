//! `TrafficStats` counts under handles and shows strings. The oracle is the
//! string-keyed counter it replaced, kept here in its original form: for any
//! sequence of charges the two must serialize to the same JSON bytes, print
//! the same `{:?}` and `{:#?}` text and merge to the same result in either
//! order, and the JSON must load back into counters that re-serialize to the
//! bytes they came from and hold the links that were charged.
//!
//! Node names are drawn to break a view that sorts or splits carelessly:
//! prefixes of one another (`a`, `ab`, `n1`, `n10`), a name ending in `-`
//! (`a-` sorts after `a` as a name and before it as a key: `a-->b` <
//! `a->b`), and a destination holding a `->` of its own.
//!
//! Mutations of `crates/simnet/src/stats.rs` this file was run against, and
//! the property that caught each:
//!
//! * link view left in (src, dst) name order, not key order — JSON bytes of
//!   all three properties (`a->a` before `a-->n10`);
//! * `src` / `dst` swapped in the view — JSON bytes of all three;
//! * `merge` skipping a category `self` has not seen — JSON bytes after
//!   merge, `merge_is_the_sum_in_either_order`;
//! * deserialization splitting a key at its last `->` — the links of the
//!   loaded counters, `json_round_trips` (its JSON and `{:?}` cannot tell:
//!   `a` + `x->y` and `a->x` + `y` spell one key).
//!
//! At the parent of the change that added this file the three properties
//! pass against the string-keyed `TrafficStats` itself (charging by `&str`),
//! which is what makes the copy below the oracle.

use nt_intern::NodeId;
use proptest::prelude::*;
use simnet::TrafficStats;
use std::collections::BTreeMap;

/// The counters as they were when their keys were strings.
mod reference {
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct TrafficStats {
        pub messages: u64,
        pub bytes: u64,
        pub records: u64,
        pub by_category: BTreeMap<String, (u64, u64)>,
        pub by_link: BTreeMap<String, u64>,
    }

    impl TrafficStats {
        pub fn record_batch(
            &mut self,
            src: &str,
            dst: &str,
            category: &str,
            bytes: usize,
            n: usize,
        ) {
            self.messages += 1;
            self.bytes += bytes as u64;
            self.records += n as u64;
            let entry = self.by_category.entry(category.to_string()).or_default();
            entry.0 += 1;
            entry.1 += bytes as u64;
            *self.by_link.entry(format!("{src}->{dst}")).or_default() += 1;
        }

        pub fn merge(&mut self, other: &TrafficStats) {
            self.messages += other.messages;
            self.bytes += other.bytes;
            self.records += other.records;
            for (k, (m, b)) in &other.by_category {
                let e = self.by_category.entry(k.clone()).or_default();
                e.0 += m;
                e.1 += b;
            }
            for (k, m) in &other.by_link {
                *self.by_link.entry(k.clone()).or_default() += m;
            }
        }
    }
}

const SOURCES: [&str; 7] = ["a", "ab", "a-", "b", "n1", "n10", "n2"];
const DESTINATIONS: [&str; 8] = ["a", "ab", "a-", "b", "n1", "n10", "n2", "x->y"];
const CATEGORIES: [&str; 4] = ["protocol", "prov-query", "prov-maintenance", "p"];

/// One charge: indexes into the three pools, payload bytes, records.
type Charge = (usize, usize, usize, usize, usize);

fn charges(max: usize) -> impl Strategy<Value = Vec<Charge>> {
    proptest::collection::vec(
        (
            0..SOURCES.len(),
            0..DESTINATIONS.len(),
            0..CATEGORIES.len(),
            0usize..5_000,
            1usize..40,
        ),
        0..max,
    )
}

fn drive(charges: &[Charge]) -> (TrafficStats, reference::TrafficStats) {
    let mut stats = TrafficStats::default();
    let mut oracle = reference::TrafficStats::default();
    for &(src, dst, category, bytes, records) in charges {
        let (src, dst, category) = (SOURCES[src], DESTINATIONS[dst], CATEGORIES[category]);
        stats.record_batch(NodeId::new(src), NodeId::new(dst), category, bytes, records);
        oracle.record_batch(src, dst, category, bytes, records);
    }
    (stats, oracle)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("counters serialize")
}

proptest! {
    #[test]
    fn counters_read_like_the_string_keyed_reference(charges in charges(60)) {
        let (stats, oracle) = drive(&charges);
        prop_assert_eq!(json(&stats), json(&oracle));
        prop_assert_eq!(format!("{stats:?}"), format!("{oracle:?}"));
        prop_assert_eq!(format!("{stats:#?}"), format!("{oracle:#?}"));
        prop_assert_eq!(
            (stats.messages, stats.bytes, stats.records),
            (oracle.messages, oracle.bytes, oracle.records)
        );
        for category in CATEGORIES {
            let (messages, bytes) = oracle.by_category.get(category).copied().unwrap_or_default();
            prop_assert_eq!(stats.category_messages(category), messages);
            prop_assert_eq!(stats.category_bytes(category), bytes);
        }
    }

    #[test]
    fn merge_is_the_sum_in_either_order(left in charges(30), right in charges(30)) {
        let (a, oracle_a) = drive(&left);
        let (b, oracle_b) = drive(&right);
        let whole: Vec<Charge> = left.iter().chain(&right).copied().collect();
        let (sum, _) = drive(&whole);

        let (mut ab, mut oracle_ab) = (a.clone(), oracle_a.clone());
        ab.merge(&b);
        oracle_ab.merge(&oracle_b);
        prop_assert_eq!(json(&ab), json(&oracle_ab));

        let (mut ba, mut oracle_ba) = (b, oracle_b);
        ba.merge(&a);
        oracle_ba.merge(&oracle_a);
        prop_assert_eq!(json(&ba), json(&oracle_ba));

        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&ab, &sum);
    }

    #[test]
    fn json_round_trips(charges in charges(60)) {
        let (stats, oracle) = drive(&charges);
        let text = json(&oracle);
        let loaded: TrafficStats = serde_json::from_str(&text).expect("stored counters load");
        prop_assert_eq!(json(&loaded), text);
        prop_assert_eq!(format!("{loaded:?}"), format!("{oracle:?}"));

        let mut charged: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        for &(src, dst, ..) in &charges {
            *charged
                .entry((NodeId::new(SOURCES[src]), NodeId::new(DESTINATIONS[dst])))
                .or_default() += 1;
        }
        let links: BTreeMap<(NodeId, NodeId), u64> =
            loaded.links().map(|(src, dst, m)| ((src, dst), m)).collect();
        prop_assert_eq!(links, charged);
        prop_assert_eq!(&loaded, &stats);
    }
}

#[test]
fn a_link_key_without_an_arrow_is_refused() {
    let text = r#"{"messages":1,"bytes":0,"records":1,"by_category":{},"by_link":{"n1n2":1}}"#;
    assert!(serde_json::from_str::<TrafficStats>(text).is_err());
}
