//! Traffic accounting.
//!
//! The paper's query-optimization demonstration ("caching and threshold-based
//! pruning effectively reduce the network traffic") is quantified with these
//! counters: every message sent through [`crate::Network`] is charged to a
//! *category* (protocol maintenance, provenance maintenance, provenance query,
//! snapshot upload, ...), so experiments can report per-category message and
//! byte counts.
//!
//! **Handles on the record path, strings at the view.** Charging a message
//! must cost less than the message: [`TrafficStats::record_batch`] takes the
//! endpoints as [`NodeId`] handles and the category as the `&'static str`
//! constant its caller already holds, and does integer adds and one hash
//! probe — no formatting, no allocation, no intern-pool lock. The
//! `"src->dst"` keys and category names of the stored format are spelled in
//! one place, the private `view` form below, which `Serialize`,
//! `Deserialize` and `Debug` all go through; snapshot JSON and the `{:?}`
//! text are what the string-keyed maps this replaced produced, byte for byte.
//! The binary codec writes the handles themselves, as names of the frame.

use nt_intern::codec::{Decode, DecodeError, Encode, Reader, Writer};
use nt_intern::{IdMap, NodeId, Sym};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Message/byte counters, total, per category and per directed link.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Total records (tuples/deltas) carried by the messages. Equal to
    /// `messages` for unbatched traffic; batched delta shipping packs many
    /// records into one message, so `messages < records` measures how much
    /// coalescing happened.
    pub records: u64,
    /// Per-category (messages, bytes). A handful of entries, in name order.
    by_category: BTreeMap<&'static str, (u64, u64)>,
    /// Per-directed-link message counts.
    by_link: IdMap<(NodeId, NodeId), u64>,
}

impl TrafficStats {
    /// Record one message carrying a single record.
    pub fn record(&mut self, src: NodeId, dst: NodeId, category: &'static str, bytes: usize) {
        self.record_batch(src, dst, category, bytes, 1);
    }

    /// Record one message carrying `records` coalesced records.
    pub fn record_batch(
        &mut self,
        src: NodeId,
        dst: NodeId,
        category: &'static str,
        bytes: usize,
        records: usize,
    ) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.records += records as u64;
        let entry = self.by_category.entry(category).or_default();
        entry.0 += 1;
        entry.1 += bytes as u64;
        *self.by_link.entry((src, dst)).or_default() += 1;
    }

    /// Messages charged to a category.
    pub fn category_messages(&self, category: &str) -> u64 {
        self.by_category.get(category).map(|e| e.0).unwrap_or(0)
    }

    /// Bytes charged to a category.
    pub fn category_bytes(&self, category: &str) -> u64 {
        self.by_category.get(category).map(|e| e.1).unwrap_or(0)
    }

    /// Every directed link that carried a message, as `(src, dst, messages)`,
    /// in no particular order.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.by_link.iter().map(|(&(src, dst), &m)| (src, dst, m))
    }

    /// Merge another stats object into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.records += other.records;
        for (&category, (m, b)) in &other.by_category {
            let e = self.by_category.entry(category).or_default();
            e.0 += m;
            e.1 += b;
        }
        for (&link, m) in &other.by_link {
            *self.by_link.entry(link).or_default() += m;
        }
    }
}

/// The counters as a file or a person reads them: every key a string, every
/// map sorted by it. This is the stored format (field names, field order,
/// `"src->dst"` link keys), and the only place that spells a link key.
mod view {
    use super::*;

    #[derive(Debug, Serialize, Deserialize)]
    pub(super) struct TrafficStats {
        messages: u64,
        bytes: u64,
        records: u64,
        by_category: BTreeMap<String, (u64, u64)>,
        by_link: BTreeMap<String, u64>,
    }

    impl From<&super::TrafficStats> for TrafficStats {
        fn from(stats: &super::TrafficStats) -> Self {
            TrafficStats {
                messages: stats.messages,
                bytes: stats.bytes,
                records: stats.records,
                by_category: stats
                    .by_category
                    .iter()
                    .map(|(category, counts)| (category.to_string(), *counts))
                    .collect(),
                by_link: stats
                    .links()
                    .map(|(src, dst, m)| (format!("{src}->{dst}"), m))
                    .collect(),
            }
        }
    }

    impl TryFrom<TrafficStats> for super::TrafficStats {
        type Error = serde::Error;

        /// A link key splits at its first `->`: the format cannot hold a
        /// source name containing one, a destination name may.
        fn try_from(view: TrafficStats) -> Result<Self, serde::Error> {
            let mut by_link =
                IdMap::with_capacity_and_hasher(view.by_link.len(), Default::default());
            for (key, m) in view.by_link {
                let (src, dst) = key.split_once("->").ok_or_else(|| {
                    serde::Error::custom(format!("traffic link key {key:?} is not src->dst"))
                })?;
                by_link.insert((NodeId::new(src), NodeId::new(dst)), m);
            }
            Ok(super::TrafficStats {
                messages: view.messages,
                bytes: view.bytes,
                records: view.records,
                // Interning is what turns a stored name into the `'static`
                // string a category is keyed by, once per distinct name.
                by_category: view
                    .by_category
                    .into_iter()
                    .map(|(category, counts)| (Sym::new(&category).as_str(), counts))
                    .collect(),
                by_link,
            })
        }
    }
}

/// The totals, the categories in name order, then the links in (src, dst)
/// name order, so the bytes do not follow the map's hash order.
impl Encode for TrafficStats {
    fn encode(&self, w: &mut Writer) {
        w.varint(self.messages);
        w.varint(self.bytes);
        w.varint(self.records);
        w.usize(self.by_category.len());
        for (category, (messages, bytes)) in &self.by_category {
            w.name(category);
            w.varint(*messages);
            w.varint(*bytes);
        }
        let mut links: Vec<(NodeId, NodeId, u64)> = self.links().collect();
        links.sort_unstable();
        w.usize(links.len());
        for (src, dst, messages) in links {
            w.node(src);
            w.node(dst);
            w.varint(messages);
        }
    }
}

impl Decode for TrafficStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut stats = TrafficStats {
            messages: r.varint()?,
            bytes: r.varint()?,
            records: r.varint()?,
            ..Default::default()
        };
        for _ in 0..r.count()? {
            let category = r.name()?;
            stats
                .by_category
                .insert(category, (r.varint()?, r.varint()?));
        }
        for _ in 0..r.count()? {
            let link = (r.node()?, r.node()?);
            stats.by_link.insert(link, r.varint()?);
        }
        Ok(stats)
    }
}

impl fmt::Debug for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        view::TrafficStats::from(self).fmt(f)
    }
}

impl Serialize for TrafficStats {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        view::TrafficStats::from(self).serialize(serializer)
    }
}

impl Deserialize for TrafficStats {
    fn deserialize<'de, D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(view::TrafficStats::deserialize(d)?.try_into()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(name: &str) -> NodeId {
        NodeId::new(name)
    }

    #[test]
    fn record_and_query() {
        let mut s = TrafficStats::default();
        s.record(n("n1"), n("n2"), "proto", 100);
        s.record(n("n1"), n("n2"), "prov-query", 40);
        s.record(n("n2"), n("n1"), "prov-query", 60);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 200);
        assert_eq!(s.category_messages("prov-query"), 2);
        assert_eq!(s.category_bytes("prov-query"), 100);
        assert_eq!(s.category_messages("nope"), 0);
        let mut links: Vec<_> = s.links().collect();
        links.sort();
        assert_eq!(links, [(n("n1"), n("n2"), 2), (n("n2"), n("n1"), 1)]);
    }

    #[test]
    fn merge_adds_counters_and_keys() {
        let mut a = TrafficStats::default();
        a.record(n("n1"), n("n2"), "proto", 10);
        a.record(n("n1"), n("n2"), "proto", 20);
        a.record(n("n2"), n("n3"), "query", 5);

        let mut b = TrafficStats::default();
        b.record(n("n9"), n("n8"), "query", 7);
        b.merge(&a);
        assert_eq!(b.messages, 4);
        assert_eq!(b.category_messages("query"), 2);
        assert_eq!(b.category_messages("proto"), 2);
        assert_eq!(b.links().count(), 3);
    }
}
