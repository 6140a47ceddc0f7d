//! BGP speakers: the "unmodified legacy application".
//!
//! Each AS runs one [`Speaker`]. Speakers exchange [`BgpMessage`]s
//! (announcements and withdrawals of prefixes with AS paths) and keep a RIB of
//! candidate routes per prefix. The decision process follows the Gao–Rexford
//! conventions: prefer routes learned from customers over peers over
//! providers, then shorter AS paths, then a deterministic tie-break; the
//! export policy only propagates customer routes (and own prefixes) to
//! everyone, and peer/provider routes to customers only.
//!
//! NetTrails treats this code as a **black box**: the platform only sees the
//! messages entering and leaving each speaker (via the [`crate::proxy`]),
//! exactly as the paper's proxy intercepts Quagga's BGP messages.

use std::collections::BTreeMap;

/// Business relationship of a neighbour, from the local AS's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Relation {
    /// The neighbour buys transit from us.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// We buy transit from the neighbour.
    Provider,
}

impl Relation {
    /// Gao–Rexford local preference: customers are preferred over peers over
    /// providers.
    pub fn preference(self) -> u8 {
        match self {
            Relation::Customer => 2,
            Relation::Peer => 1,
            Relation::Provider => 0,
        }
    }
}

/// A route to a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix (e.g. `10.1.0.0/16`).
    pub prefix: String,
    /// AS path, nearest AS first (the origin AS is last).
    pub as_path: Vec<String>,
    /// Neighbour the route was learned from; `None` for locally originated
    /// prefixes.
    pub learned_from: Option<String>,
    /// Relationship of that neighbour (customers preferred); `Customer` for
    /// locally originated prefixes so they always win.
    pub relation: Relation,
}

impl Route {
    /// Length of the AS path.
    pub fn path_len(&self) -> usize {
        self.as_path.len()
    }

    /// The origin AS of the route.
    pub fn origin(&self) -> Option<&str> {
        self.as_path.last().map(String::as_str)
    }
}

/// A BGP update message between two speakers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpMessage {
    /// Announce a path to a prefix.
    Announce {
        /// Destination prefix.
        prefix: String,
        /// AS path (sender first).
        as_path: Vec<String>,
    },
    /// Withdraw a previously announced prefix.
    Withdraw {
        /// Destination prefix.
        prefix: String,
    },
}

impl BgpMessage {
    /// The prefix the message refers to.
    pub fn prefix(&self) -> &str {
        match self {
            BgpMessage::Announce { prefix, .. } | BgpMessage::Withdraw { prefix } => prefix,
        }
    }
}

/// One AS's BGP speaker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Speaker {
    /// This speaker's AS name.
    pub asn: String,
    /// Neighbours and their relationships.
    neighbors: BTreeMap<String, Relation>,
    /// Locally originated prefixes.
    originated: Vec<String>,
    /// Candidate routes: prefix -> neighbour -> route.
    rib: BTreeMap<String, BTreeMap<String, Route>>,
    /// Currently selected best route per prefix.
    best: BTreeMap<String, Route>,
}

/// A message to deliver to a neighbour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Destination AS.
    pub to: String,
    /// The message.
    pub message: BgpMessage,
}

impl Speaker {
    /// Create a speaker for an AS with the given neighbours.
    pub fn new(asn: impl Into<String>, neighbors: BTreeMap<String, Relation>) -> Self {
        Speaker {
            asn: asn.into(),
            neighbors,
            ..Default::default()
        }
    }

    /// Neighbours and relationships.
    pub fn neighbors(&self) -> &BTreeMap<String, Relation> {
        &self.neighbors
    }

    /// The currently selected best route for a prefix.
    pub fn best_route(&self, prefix: &str) -> Option<&Route> {
        self.best.get(prefix)
    }

    /// Candidate routes currently held for a prefix.
    pub fn candidates(&self, prefix: &str) -> Vec<&Route> {
        self.rib
            .get(prefix)
            .map(|m| m.values().collect())
            .unwrap_or_default()
    }

    /// Originate a prefix locally. Returns the announcements to send.
    pub fn originate(&mut self, prefix: &str) -> Vec<Outgoing> {
        if !self.originated.contains(&prefix.to_string()) {
            self.originated.push(prefix.to_string());
        }
        let route = Route {
            prefix: prefix.to_string(),
            as_path: vec![self.asn.clone()],
            learned_from: None,
            relation: Relation::Customer,
        };
        self.install_best(prefix, Some(route))
    }

    /// Withdraw a locally originated prefix. Returns the withdrawals to send.
    pub fn withdraw_origin(&mut self, prefix: &str) -> Vec<Outgoing> {
        self.originated.retain(|p| p != prefix);
        let best = self.select_best(prefix);
        self.install_best(prefix, best)
    }

    /// Process a message received from `from`. Returns the messages to send in
    /// response (the speaker's *output* routes).
    pub fn receive(&mut self, from: &str, message: &BgpMessage) -> Vec<Outgoing> {
        let Some(relation) = self.neighbors.get(from).copied() else {
            return Vec::new();
        };
        match message {
            BgpMessage::Announce { prefix, as_path } => {
                // AS-path loop detection: ignore routes containing ourselves.
                if as_path.contains(&self.asn) {
                    return Vec::new();
                }
                let route = Route {
                    prefix: prefix.clone(),
                    as_path: as_path.clone(),
                    learned_from: Some(from.to_string()),
                    relation,
                };
                self.rib
                    .entry(prefix.clone())
                    .or_default()
                    .insert(from.to_string(), route);
            }
            BgpMessage::Withdraw { prefix } => {
                if let Some(candidates) = self.rib.get_mut(prefix) {
                    candidates.remove(from);
                }
            }
        }
        let prefix = message.prefix().to_string();
        let best = self.select_best(&prefix);
        self.install_best(&prefix, best)
    }

    /// The decision process: local origination wins, then Gao–Rexford
    /// preference, then shortest AS path, then lowest neighbour name.
    fn select_best(&self, prefix: &str) -> Option<Route> {
        if self.originated.contains(&prefix.to_string()) {
            return Some(Route {
                prefix: prefix.to_string(),
                as_path: vec![self.asn.clone()],
                learned_from: None,
                relation: Relation::Customer,
            });
        }
        self.rib.get(prefix).and_then(|candidates| {
            candidates
                .values()
                .min_by(|a, b| {
                    b.relation
                        .preference()
                        .cmp(&a.relation.preference())
                        .then(a.path_len().cmp(&b.path_len()))
                        .then(a.learned_from.cmp(&b.learned_from))
                })
                .cloned()
        })
    }

    /// Install a new best route (or remove it) and compute the resulting
    /// export messages.
    fn install_best(&mut self, prefix: &str, best: Option<Route>) -> Vec<Outgoing> {
        let old = self.best.get(prefix).cloned();
        if old == best {
            return Vec::new();
        }
        match &best {
            Some(route) => {
                self.best.insert(prefix.to_string(), route.clone());
            }
            None => {
                self.best.remove(prefix);
            }
        }
        let mut out = Vec::new();
        for (neighbor, &neighbor_rel) in &self.neighbors {
            match &best {
                Some(route) => {
                    if !self.may_export(route, neighbor_rel) {
                        // If we previously exported something to this
                        // neighbour, withdraw it.
                        if old
                            .as_ref()
                            .map(|o| self.may_export(o, neighbor_rel))
                            .unwrap_or(false)
                        {
                            out.push(Outgoing {
                                to: neighbor.clone(),
                                message: BgpMessage::Withdraw {
                                    prefix: prefix.to_string(),
                                },
                            });
                        }
                        continue;
                    }
                    // Never announce back to the AS we learned the route from.
                    if route.learned_from.as_deref() == Some(neighbor.as_str()) {
                        continue;
                    }
                    // Prepend our ASN to learned routes; locally originated
                    // routes already start with our ASN.
                    let as_path = if route.learned_from.is_some() {
                        let mut p = vec![self.asn.clone()];
                        p.extend(route.as_path.iter().cloned());
                        p
                    } else {
                        route.as_path.clone()
                    };
                    out.push(Outgoing {
                        to: neighbor.clone(),
                        message: BgpMessage::Announce {
                            prefix: prefix.to_string(),
                            as_path,
                        },
                    });
                }
                None => {
                    if old
                        .as_ref()
                        .map(|o| self.may_export(o, neighbor_rel))
                        .unwrap_or(false)
                    {
                        out.push(Outgoing {
                            to: neighbor.clone(),
                            message: BgpMessage::Withdraw {
                                prefix: prefix.to_string(),
                            },
                        });
                    }
                }
            }
        }
        out
    }

    /// Gao–Rexford export policy.
    fn may_export(&self, route: &Route, to_relation: Relation) -> bool {
        match route.relation {
            // Own prefixes and customer routes go to everyone.
            Relation::Customer => true,
            // Peer and provider routes only go to customers.
            Relation::Peer | Relation::Provider => to_relation == Relation::Customer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speaker(asn: &str, neighbors: &[(&str, Relation)]) -> Speaker {
        Speaker::new(
            asn,
            neighbors.iter().map(|(n, r)| (n.to_string(), *r)).collect(),
        )
    }

    #[test]
    fn origination_announces_to_all_neighbors() {
        let mut s = speaker(
            "AS1000",
            &[("AS200", Relation::Provider), ("AS201", Relation::Provider)],
        );
        let out = s.originate("10.0.0.0/8");
        assert_eq!(out.len(), 2);
        for o in &out {
            match &o.message {
                BgpMessage::Announce { as_path, .. } => {
                    assert_eq!(as_path, &vec!["AS1000".to_string()])
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(s.best_route("10.0.0.0/8").is_some());
    }

    #[test]
    fn customer_routes_are_preferred_over_provider_routes() {
        let mut s = speaker(
            "AS200",
            &[
                ("AS1000", Relation::Customer),
                ("AS100", Relation::Provider),
            ],
        );
        // Longer path via customer vs shorter via provider: customer wins.
        s.receive(
            "AS100",
            &BgpMessage::Announce {
                prefix: "p".into(),
                as_path: vec!["AS100".into(), "AS999".into()],
            },
        );
        s.receive(
            "AS1000",
            &BgpMessage::Announce {
                prefix: "p".into(),
                as_path: vec!["AS1000".into(), "AS1001".into(), "AS999".into()],
            },
        );
        let best = s.best_route("p").unwrap();
        assert_eq!(best.learned_from.as_deref(), Some("AS1000"));
        assert_eq!(best.relation, Relation::Customer);
    }

    #[test]
    fn shorter_paths_win_within_the_same_relation() {
        let mut s = speaker(
            "AS100",
            &[("AS200", Relation::Customer), ("AS201", Relation::Customer)],
        );
        s.receive(
            "AS200",
            &BgpMessage::Announce {
                prefix: "p".into(),
                as_path: vec!["AS200".into(), "AS300".into(), "AS999".into()],
            },
        );
        s.receive(
            "AS201",
            &BgpMessage::Announce {
                prefix: "p".into(),
                as_path: vec!["AS201".into(), "AS999".into()],
            },
        );
        assert_eq!(
            s.best_route("p").unwrap().learned_from.as_deref(),
            Some("AS201")
        );
    }

    #[test]
    fn peer_routes_are_not_exported_to_peers_or_providers() {
        let mut s = speaker(
            "AS100",
            &[
                ("AS101", Relation::Peer),
                ("AS102", Relation::Peer),
                ("AS200", Relation::Customer),
            ],
        );
        let out = s.receive(
            "AS101",
            &BgpMessage::Announce {
                prefix: "p".into(),
                as_path: vec!["AS101".into(), "AS999".into()],
            },
        );
        // Exported only to the customer AS200, not to the peer AS102.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, "AS200");
    }

    #[test]
    fn loops_are_rejected() {
        let mut s = speaker("AS100", &[("AS101", Relation::Peer)]);
        let out = s.receive(
            "AS101",
            &BgpMessage::Announce {
                prefix: "p".into(),
                as_path: vec!["AS101".into(), "AS100".into(), "AS999".into()],
            },
        );
        assert!(out.is_empty());
        assert!(s.best_route("p").is_none());
    }

    #[test]
    fn withdrawal_falls_back_to_the_next_best_route_and_propagates() {
        let mut s = speaker(
            "AS200",
            &[
                ("AS1000", Relation::Customer),
                ("AS100", Relation::Provider),
                ("AS1001", Relation::Customer),
            ],
        );
        s.receive(
            "AS1000",
            &BgpMessage::Announce {
                prefix: "p".into(),
                as_path: vec!["AS1000".into(), "AS999".into()],
            },
        );
        s.receive(
            "AS100",
            &BgpMessage::Announce {
                prefix: "p".into(),
                as_path: vec!["AS100".into(), "AS999".into()],
            },
        );
        assert_eq!(
            s.best_route("p").unwrap().learned_from.as_deref(),
            Some("AS1000")
        );
        // Withdraw the customer route: falls back to the provider route, which
        // may only be exported to customers.
        let out = s.receive("AS1000", &BgpMessage::Withdraw { prefix: "p".into() });
        assert_eq!(
            s.best_route("p").unwrap().learned_from.as_deref(),
            Some("AS100")
        );
        // New announcements only to customers (AS1000 learned-from exclusion
        // does not matter here because it is a customer too).
        assert!(out.iter().all(|o| o.to.starts_with("AS100")));
        assert!(!out.is_empty());
        // Withdrawing the provider route too removes the prefix everywhere.
        let out = s.receive("AS100", &BgpMessage::Withdraw { prefix: "p".into() });
        assert!(s.best_route("p").is_none());
        assert!(out
            .iter()
            .any(|o| matches!(o.message, BgpMessage::Withdraw { .. })));
    }
}
