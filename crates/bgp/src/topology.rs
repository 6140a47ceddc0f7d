//! AS-level topologies with business relationships.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

use crate::speaker::Relation;

/// An AS-level topology: ASes plus customer/provider/peer relationships.
///
/// Relationships are stored once per unordered pair, from the perspective of
/// the first AS: `Relation::Customer` in `(a, b)` means *b is a customer of
/// a* (a provides transit to b).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsTopology {
    ases: BTreeSet<String>,
    /// (a, b) -> relationship of b as seen from a (Customer / Peer /
    /// Provider). Both orientations are stored for easy lookup.
    relations: BTreeMap<(String, String), Relation>,
}

impl AsTopology {
    /// Create an empty topology.
    pub fn new() -> Self {
        AsTopology::default()
    }

    /// Add an AS (idempotent).
    pub fn add_as(&mut self, name: impl Into<String>) {
        self.ases.insert(name.into());
    }

    /// Declare `customer` to be a customer of `provider`.
    pub fn add_customer(&mut self, provider: &str, customer: &str) {
        self.add_as(provider);
        self.add_as(customer);
        self.relations.insert(
            (provider.to_string(), customer.to_string()),
            Relation::Customer,
        );
        self.relations.insert(
            (customer.to_string(), provider.to_string()),
            Relation::Provider,
        );
    }

    /// Declare a settlement-free peering between two ASes.
    pub fn add_peering(&mut self, a: &str, b: &str) {
        self.add_as(a);
        self.add_as(b);
        self.relations
            .insert((a.to_string(), b.to_string()), Relation::Peer);
        self.relations
            .insert((b.to_string(), a.to_string()), Relation::Peer);
    }

    /// All AS names in deterministic order.
    pub fn ases(&self) -> impl Iterator<Item = &str> {
        self.ases.iter().map(String::as_str)
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// True when the topology has no ASes.
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// The relationship of `neighbor` as seen from `from` (None when they are
    /// not adjacent).
    pub fn relation(&self, from: &str, neighbor: &str) -> Option<Relation> {
        self.relations
            .get(&(from.to_string(), neighbor.to_string()))
            .copied()
    }

    /// All neighbours of an AS with their relationship.
    pub fn neighbors(&self, from: &str) -> Vec<(String, Relation)> {
        self.relations
            .iter()
            .filter(|((a, _), _)| a == from)
            .map(|((_, b), r)| (b.clone(), *r))
            .collect()
    }

    /// Number of adjacencies (unordered pairs).
    pub fn adjacency_count(&self) -> usize {
        self.relations.len() / 2
    }

    /// Generate the shape the paper demonstrates: `n_large` tier-1 ISPs in a
    /// full peering mesh, `n_medium` mid-size ISPs buying transit from 1–2
    /// tier-1s (and occasionally peering with each other), and `n_stub` edge
    /// ASes buying transit from 1–2 mid-size ISPs. Deterministic per seed.
    pub fn generate(n_large: usize, n_medium: usize, n_stub: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topo = AsTopology::new();
        let large: Vec<String> = (0..n_large).map(|i| format!("AS{}", 100 + i)).collect();
        let medium: Vec<String> = (0..n_medium).map(|i| format!("AS{}", 200 + i)).collect();
        let stub: Vec<String> = (0..n_stub).map(|i| format!("AS{}", 1000 + i)).collect();

        for a in &large {
            topo.add_as(a.clone());
        }
        // Tier-1 full mesh.
        for i in 0..large.len() {
            for j in (i + 1)..large.len() {
                topo.add_peering(&large[i], &large[j]);
            }
        }
        // Mid-size ISPs.
        for m in &medium {
            topo.add_as(m.clone());
            if large.is_empty() {
                continue;
            }
            let providers = 1 + usize::from(rng.gen_bool(0.5) && large.len() > 1);
            let mut picked = BTreeSet::new();
            while picked.len() < providers {
                picked.insert(rng.gen_range(0..large.len()));
            }
            for p in picked {
                topo.add_customer(&large[p], m);
            }
        }
        // Occasional peering between mid-size ISPs.
        for i in 0..medium.len() {
            for j in (i + 1)..medium.len() {
                if rng.gen_bool(0.15) {
                    topo.add_peering(&medium[i], &medium[j]);
                }
            }
        }
        // Stub ASes.
        let upstream_pool: Vec<String> = if medium.is_empty() {
            large.clone()
        } else {
            medium.clone()
        };
        for s in &stub {
            topo.add_as(s.clone());
            if upstream_pool.is_empty() {
                continue;
            }
            let providers = 1 + usize::from(rng.gen_bool(0.3) && upstream_pool.len() > 1);
            let mut picked = BTreeSet::new();
            while picked.len() < providers {
                picked.insert(rng.gen_range(0..upstream_pool.len()));
            }
            for p in picked {
                topo.add_customer(&upstream_pool[p], s);
            }
        }
        topo
    }

    /// Stub ASes (no customers of their own) — the typical trace origins.
    pub fn stub_ases(&self) -> Vec<String> {
        self.ases
            .iter()
            .filter(|a| {
                !self
                    .neighbors(a)
                    .iter()
                    .any(|(_, r)| *r == Relation::Customer)
            })
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_relationships_are_symmetric() {
        let mut t = AsTopology::new();
        t.add_customer("AS100", "AS200");
        t.add_peering("AS100", "AS101");
        assert_eq!(t.relation("AS100", "AS200"), Some(Relation::Customer));
        assert_eq!(t.relation("AS200", "AS100"), Some(Relation::Provider));
        assert_eq!(t.relation("AS100", "AS101"), Some(Relation::Peer));
        assert_eq!(t.relation("AS101", "AS100"), Some(Relation::Peer));
        assert_eq!(t.relation("AS200", "AS101"), None);
        assert_eq!(t.adjacency_count(), 2);
    }

    #[test]
    fn generated_topology_is_deterministic_and_connected_shape() {
        let a = AsTopology::generate(3, 5, 10, 7);
        let b = AsTopology::generate(3, 5, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 18);
        // Every stub has at least one provider.
        for s in a.stub_ases() {
            if s.starts_with("AS10") && s.len() > 5 {
                continue;
            }
            let has_provider = a
                .neighbors(&s)
                .iter()
                .any(|(_, r)| *r == Relation::Provider);
            // Tier-1 ASes have no providers but they are not "stubs" in the
            // customer sense unless they have no customers; skip them.
            if s.starts_with("AS1") && s.len() == 5 {
                assert!(has_provider, "stub {s} must have a provider");
            }
        }
        // Tier-1s form a full mesh: AS100-AS101, AS100-AS102, AS101-AS102.
        assert_eq!(a.relation("AS100", "AS101"), Some(Relation::Peer));
        assert_eq!(a.relation("AS101", "AS102"), Some(Relation::Peer));
    }

    #[test]
    fn neighbors_lists_every_adjacency() {
        let t = AsTopology::generate(2, 2, 2, 1);
        for a in t.ases() {
            for (n, r) in t.neighbors(a) {
                assert_eq!(t.relation(a, &n), Some(r));
            }
        }
    }
}
