//! A scripted version of the paper's demonstration plan (Section 3).
//!
//! The SIGMOD demo walks the audience through a fixed sequence: run a
//! declarative network, pause it, explore the provenance of a tuple, change
//! the topology, watch the provenance update, and finally issue customised
//! queries. [`DemoScript`] encodes that sequence as data so the examples, the
//! tests and (in a real deployment) a UI can replay it step by step; it also
//! doubles as a compact high-level API for users who just want "run protocol
//! X on topology Y, fail a link, explain tuple Z".

use crate::platform::{NetTrails, NetTrailsConfig, RunReport};
use nt_runtime::{Result, Tuple};
use provenance::{QueryKind, QueryOptions, QueryResult, QueryStats};
use simnet::{Topology, TopologyEvent};

/// One step of a demonstration script.
#[derive(Debug, Clone, PartialEq)]
pub enum DemoStep {
    /// Run the system to a fixpoint.
    Converge,
    /// Apply a topology event and reconverge.
    Topology(TopologyEvent),
    /// Query the provenance of the first tuple of `relation` matching the
    /// (column, address-value) constraints, issued from `querier`.
    Query {
        /// Node issuing the query.
        querier: String,
        /// Relation of the target tuple.
        relation: String,
        /// (column index, expected address value) constraints.
        constraints: Vec<(usize, String)>,
        /// Which provenance question to ask.
        kind: QueryKind,
        /// Query options (optimizations on/off).
        options: QueryOptions,
    },
}

/// What one executed step produced.
#[derive(Debug, Clone, PartialEq)]
pub enum DemoOutcome {
    /// Convergence / reconvergence work report.
    Converged(RunReport),
    /// Query result plus its cost.
    Answered {
        /// The tuple the query targeted (None when no tuple matched).
        target: Option<Tuple>,
        /// The result (None when no tuple matched).
        result: Option<QueryResult>,
        /// Traversal cost.
        stats: QueryStats,
    },
}

/// A scripted demonstration: a protocol, a topology and a list of steps.
#[derive(Debug, Clone)]
pub struct DemoScript {
    /// NDlog source of the protocol to run.
    pub program: String,
    /// Initial topology.
    pub topology: Topology,
    /// Steps to execute in order.
    pub steps: Vec<DemoStep>,
    /// Platform configuration.
    pub config: NetTrailsConfig,
}

impl DemoScript {
    /// The canonical MINCOST walk-through used by the paper's screenshots:
    /// converge, inspect a tuple, fail a link, inspect it again.
    pub fn mincost_walkthrough(n: usize) -> DemoScript {
        let last = format!("n{}", 2 * n);
        DemoScript {
            program: protocols::mincost::PROGRAM.to_string(),
            topology: Topology::ladder(n),
            steps: vec![
                DemoStep::Converge,
                DemoStep::Query {
                    querier: "n1".into(),
                    relation: "minCost".into(),
                    constraints: vec![(0, "n1".into()), (1, last.clone())],
                    kind: QueryKind::Lineage,
                    options: QueryOptions::default(),
                },
                DemoStep::Topology(TopologyEvent::LinkDown {
                    a: "n1".into(),
                    b: "n2".into(),
                }),
                DemoStep::Query {
                    querier: "n1".into(),
                    relation: "minCost".into(),
                    constraints: vec![(0, "n1".into()), (1, last)],
                    kind: QueryKind::ParticipatingNodes,
                    options: QueryOptions::cached(),
                },
            ],
            config: NetTrailsConfig::default(),
        }
    }

    /// Execute the script, returning the platform (for further inspection)
    /// and the outcome of every step.
    pub fn run(&self) -> Result<(NetTrails, Vec<DemoOutcome>)> {
        let mut nt = NetTrails::new(&self.program, self.topology.clone(), self.config.clone())?;
        nt.seed_links_from_topology();
        let mut outcomes = Vec::new();
        for step in &self.steps {
            let outcome = match step {
                DemoStep::Converge => DemoOutcome::Converged(nt.run_to_fixpoint()),
                DemoStep::Topology(event) => DemoOutcome::Converged(nt.apply_topology_event(event)),
                DemoStep::Query {
                    querier,
                    relation,
                    constraints,
                    kind,
                    options,
                } => {
                    let target = nt.find_tuple(relation, |t| {
                        constraints.iter().all(|(col, value)| {
                            t.values().get(*col).and_then(|v| v.as_addr()) == Some(value)
                        })
                    });
                    match target {
                        Some((_, tuple)) => {
                            let (result, stats) = nt
                                .query(&tuple)
                                .from_node(querier)
                                .kind(*kind)
                                .options(options.clone())
                                .run();
                            DemoOutcome::Answered {
                                target: Some(tuple),
                                result: Some(result),
                                stats,
                            }
                        }
                        None => DemoOutcome::Answered {
                            target: None,
                            result: None,
                            stats: QueryStats::default(),
                        },
                    }
                }
            };
            outcomes.push(outcome);
        }
        Ok((nt, outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mincost_walkthrough_executes_every_step() {
        let script = DemoScript::mincost_walkthrough(3);
        let (nt, outcomes) = script.run().unwrap();
        assert_eq!(outcomes.len(), 4);
        // Step 1: converged with real work.
        match &outcomes[0] {
            DemoOutcome::Converged(report) => assert!(report.insertions > 0),
            other => panic!("unexpected {other:?}"),
        }
        // Step 2: the lineage query found its target.
        match &outcomes[1] {
            DemoOutcome::Answered {
                target: Some(t),
                result: Some(QueryResult::Lineage(tree)),
                stats,
            } => {
                assert_eq!(t.relation(), "minCost");
                assert!(tree.size() > 1);
                assert!(stats.vertices_visited > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Step 3: the link failure touched state.
        match &outcomes[2] {
            DemoOutcome::Converged(report) => assert!(report.tuples_touched() > 0),
            other => panic!("unexpected {other:?}"),
        }
        // Step 4: the follow-up query still answers (the destination is still
        // reachable the long way around the ladder).
        match &outcomes[3] {
            DemoOutcome::Answered {
                result: Some(QueryResult::ParticipatingNodes(nodes)),
                ..
            } => assert!(nodes.contains(&nt_runtime::NodeId::new("n1"))),
            other => panic!("unexpected {other:?}"),
        }
        // The platform is returned for further exploration.
        assert!(!nt.relation("minCost").is_empty());
    }

    #[test]
    fn queries_for_missing_tuples_answer_gracefully() {
        let script = DemoScript {
            program: protocols::mincost::PROGRAM.to_string(),
            topology: Topology::line(2),
            steps: vec![
                DemoStep::Converge,
                DemoStep::Query {
                    querier: "n1".into(),
                    relation: "minCost".into(),
                    constraints: vec![(0, "n1".into()), (1, "n99".into())],
                    kind: QueryKind::DerivationCount,
                    options: QueryOptions::default(),
                },
            ],
            config: NetTrailsConfig::default(),
        };
        let (_, outcomes) = script.run().unwrap();
        match &outcomes[1] {
            DemoOutcome::Answered {
                target: None,
                result: None,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
