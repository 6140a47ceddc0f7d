//! The NetTrails legacy-application proxy.
//!
//! "In the case of a legacy application, capturing provenance information
//! requires some additional work [...] we utilize NDlog's concept of *maybe*
//! rules, which describe possible causal relationships between messages
//! entering and leaving the legacy application." (Section 2.2.)
//!
//! The proxy sits on the wire between BGP speakers. For every intercepted
//! announcement it records an `inputRoute` observation at the receiving AS and
//! an `outputRoute` observation at the sending AS, and evaluates the paper's
//! maybe rule
//!
//! ```text
//! br1 outputRoute(@AS,To,Prefix,Route2) ?-
//!         inputRoute(@AS,From,Prefix,Route1),
//!         f_isExtend(Route2,Route1,AS) == 1.
//! ```
//!
//! against the recently observed inputs of the sending AS: every input route
//! that the output extends by exactly the sender's AS number is inferred to be
//! a possible cause, and a rule-execution vertex is added to the provenance
//! graph. Outputs with no matching input (locally originated prefixes) become
//! base vertices. A `recv` edge links each `inputRoute` to the `outputRoute`
//! message that carried it across the AS boundary, so derivation histories
//! trace all the way back to the origin announcement.
//!
//! The maybe rules are lowered once, at [`Proxy`] construction, through the
//! runtime's slot compiler (`SlotProgram::compile`) and evaluated per
//! observation over a slot `Frame`: the observed output binds the head, each
//! candidate input is matched against the body atoms, and the rule's
//! assignments and filters run through the same expression evaluator the
//! engine uses — the proxy has no interpreter of its own.

use crate::speaker::BgpMessage;
use ndlog::{Rule, RuleKind};
use nt_runtime::eval::{Frame, SlotProgram};
use nt_runtime::{Firing, NodeId, Sym, Tuple, TupleId, Value, BASE_RULE};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The maybe rules used by the BGP proxy (the paper's rule `br1`).
pub const MAYBE_RULES: &str = "\
br1 outputRoute(@AS,To,Prefix,Route2) ?- inputRoute(@AS,From,Prefix,Route1), f_isExtend(Route2,Route1,AS) == 1.
";

/// Name of the synthetic rule linking an `inputRoute` observation to the
/// `outputRoute` message that carried it.
pub const RECV_RULE: &str = "recv";

/// An intercepted message on the wire between two ASes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Sending AS.
    pub from: String,
    /// Receiving AS.
    pub to: String,
    /// The intercepted message.
    pub message: BgpMessage,
}

/// The message-interception proxy.
#[derive(Debug, Clone)]
pub struct Proxy {
    maybe_rules: Vec<Rule>,
    /// `maybe_rules` lowered to slot programs once, index for index — the
    /// same compiler and evaluator the engine runs its rules through.
    programs: Vec<SlotProgram>,
    /// Recently observed `inputRoute` tuples per AS (the matching window).
    recent_inputs: BTreeMap<String, Vec<Tuple>>,
    /// Outputs whose cause was inferred by a maybe rule.
    pub matched_outputs: u64,
    /// Outputs with no inferred cause (treated as locally originated).
    pub unmatched_outputs: u64,
}

impl Default for Proxy {
    fn default() -> Self {
        Proxy::new()
    }
}

impl Proxy {
    /// A proxy using the paper's `br1` maybe rule.
    pub fn new() -> Self {
        Proxy::with_rules(MAYBE_RULES).expect("builtin maybe rules parse")
    }

    /// A proxy using custom maybe rules (must parse; non-maybe rules are
    /// ignored).
    pub fn with_rules(src: &str) -> Result<Self, ndlog::NdlogError> {
        let program = ndlog::compile(src)?;
        let maybe_rules: Vec<Rule> = program
            .rules
            .into_iter()
            .filter(|r| r.kind == RuleKind::Maybe)
            .collect();
        Ok(Proxy {
            programs: maybe_rules.iter().map(SlotProgram::compile).collect(),
            maybe_rules,
            recent_inputs: BTreeMap::new(),
            matched_outputs: 0,
            unmatched_outputs: 0,
        })
    }

    /// The parsed maybe rules.
    pub fn maybe_rules(&self) -> &[Rule] {
        &self.maybe_rules
    }

    /// Build the `inputRoute(@To, From, Prefix, Path)` observation tuple.
    pub fn input_route_tuple(to: &str, from: &str, prefix: &str, path: &[String]) -> Tuple {
        Tuple::new(
            "inputRoute",
            vec![
                Value::addr(to),
                Value::addr(from),
                Value::str(prefix),
                Value::List(path.iter().map(|a| Value::addr(a.clone())).collect()),
            ],
        )
    }

    /// Build the `outputRoute(@From, To, Prefix, Path)` observation tuple.
    pub fn output_route_tuple(from: &str, to: &str, prefix: &str, path: &[String]) -> Tuple {
        Tuple::new(
            "outputRoute",
            vec![
                Value::addr(from),
                Value::addr(to),
                Value::str(prefix),
                Value::List(path.iter().map(|a| Value::addr(a.clone())).collect()),
            ],
        )
    }

    /// Process a batch of messages intercepted on one AS adjacency (same
    /// sender, same receiver — one interception window) and return the
    /// provenance events they imply, in wire order. Maybe-rule matching is
    /// per message: an output is attributed against the inputs its sender
    /// had received *before* the batch, exactly as if the messages had been
    /// intercepted one by one, so batching the relay changes no provenance.
    pub fn observe_batch(&mut self, observations: &[Observation]) -> Vec<Firing> {
        let mut firings = Vec::new();
        for observation in observations {
            firings.extend(self.observe(observation));
        }
        firings
    }

    /// Process one intercepted message and return the provenance events it
    /// implies. Withdrawals carry no route and produce no provenance (the
    /// message log is append-only history).
    pub fn observe(&mut self, observation: &Observation) -> Vec<Firing> {
        let BgpMessage::Announce { prefix, as_path } = &observation.message else {
            return Vec::new();
        };
        let mut firings = Vec::new();
        let output = Self::output_route_tuple(&observation.from, &observation.to, prefix, as_path);
        let input = Self::input_route_tuple(&observation.to, &observation.from, prefix, as_path);

        // 1. Attribute the outputRoute at the sender using the maybe rules.
        let candidates = self
            .recent_inputs
            .get(&observation.from)
            .cloned()
            .unwrap_or_default();
        let causes = self.infer_causes(&observation.from, &output, &candidates);
        if causes.is_empty() {
            self.unmatched_outputs += 1;
            firings.push(Firing {
                rule: Sym::new(BASE_RULE),
                node: NodeId::new(&observation.from),
                head: output.clone(),
                head_home: NodeId::new(&observation.from),
                inputs: Arc::default(),
                insert: true,
            });
        } else {
            self.matched_outputs += 1;
            for (rule_name, cause) in causes {
                firings.push(Firing {
                    rule: Sym::new(&rule_name),
                    node: NodeId::new(&observation.from),
                    head: output.clone(),
                    head_home: NodeId::new(&observation.from),
                    inputs: [cause].into(),
                    insert: true,
                });
            }
        }

        // 2. Link the inputRoute at the receiver to the message that carried
        // it (executed at the sender, stored at the receiver).
        firings.push(Firing {
            rule: Sym::new(RECV_RULE),
            node: NodeId::new(&observation.from),
            head: input.clone(),
            head_home: NodeId::new(&observation.to),
            inputs: [output.id()].into(),
            insert: true,
        });

        // 3. Remember the input for future maybe-rule matching at the
        // receiver.
        self.recent_inputs
            .entry(observation.to.clone())
            .or_default()
            .push(input);
        firings
    }

    /// Evaluate the maybe rules: which recently observed inputs could have
    /// caused `output` at `asn`? The observed output binds the head; a
    /// candidate is a cause when every positive body atom matches it and the
    /// rule's assignments and filters then hold.
    fn infer_causes(
        &self,
        asn: &str,
        output: &Tuple,
        candidates: &[Tuple],
    ) -> Vec<(String, TupleId)> {
        let mut causes = Vec::new();
        let mut frame = Frame::new();
        for (rule, program) in self.maybe_rules.iter().zip(&self.programs) {
            frame.reset(program.slot_count());
            // Bind the head against the observed output.
            if !program.head.match_row(output, &mut frame) {
                continue;
            }
            // The location variable of the head must be this AS.
            if let Some(loc) = rule.head.location_variable() {
                let bound = program.slot_of(loc).and_then(|slot| frame.get(slot));
                if bound.and_then(Value::as_addr) != Some(asn) {
                    continue;
                }
            }
            let head_bound = frame.mark();
            for candidate in candidates {
                let caused = program
                    .positive
                    .iter()
                    .all(|atom| atom.match_row(candidate, &mut frame))
                    && program.apply_steps(&mut frame);
                if caused {
                    causes.push((rule.name.clone(), candidate.id()));
                }
                frame.undo_to(head_bound);
            }
        }
        causes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn announce(from: &str, to: &str, prefix: &str, path: &[&str]) -> Observation {
        Observation {
            from: from.to_string(),
            to: to.to_string(),
            message: BgpMessage::Announce {
                prefix: prefix.to_string(),
                as_path: path.iter().map(|s| s.to_string()).collect(),
            },
        }
    }

    #[test]
    fn origin_announcements_become_base_vertices() {
        let mut proxy = Proxy::new();
        let firings = proxy.observe(&announce("AS1000", "AS200", "p", &["AS1000"]));
        assert_eq!(firings.len(), 2);
        assert_eq!(firings[0].rule, BASE_RULE);
        assert_eq!(firings[0].head.relation(), "outputRoute");
        assert_eq!(firings[1].rule, RECV_RULE);
        assert_eq!(firings[1].head.relation(), "inputRoute");
        assert_eq!(firings[1].head_home, "AS200");
        assert_eq!(proxy.unmatched_outputs, 1);
    }

    #[test]
    fn maybe_rule_links_extended_routes() {
        let mut proxy = Proxy::new();
        // AS1000 announces to AS200 ...
        proxy.observe(&announce("AS1000", "AS200", "p", &["AS1000"]));
        // ... AS200 re-announces to AS100, prepending itself.
        let firings = proxy.observe(&announce("AS200", "AS100", "p", &["AS200", "AS1000"]));
        // The outputRoute at AS200 is attributed to the inputRoute it extends.
        let br1 = firings.iter().find(|f| f.rule == "br1").expect("br1 fired");
        assert_eq!(br1.node, "AS200");
        let received = Proxy::input_route_tuple("AS200", "AS1000", "p", &["AS1000".into()]);
        assert_eq!(br1.inputs[..], [received.id()]);
        assert_eq!(proxy.matched_outputs, 1);
    }

    #[test]
    fn non_extending_routes_are_not_linked() {
        let mut proxy = Proxy::new();
        proxy.observe(&announce("AS1000", "AS200", "p", &["AS1000"]));
        // AS200 announces a path that does NOT extend the received one
        // (different origin) — the maybe rule must not match.
        let firings = proxy.observe(&announce("AS200", "AS100", "p", &["AS200", "AS999"]));
        assert!(firings.iter().all(|f| f.rule != "br1"));
        // Both the origin announcement and the non-extending output count as
        // unmatched.
        assert_eq!(proxy.unmatched_outputs, 2);
    }

    #[test]
    fn different_prefixes_never_match() {
        let mut proxy = Proxy::new();
        proxy.observe(&announce("AS1000", "AS200", "p1", &["AS1000"]));
        let firings = proxy.observe(&announce("AS200", "AS100", "p2", &["AS200", "AS1000"]));
        assert!(firings.iter().all(|f| f.rule != "br1"));
    }

    #[test]
    fn withdrawals_produce_no_provenance() {
        let mut proxy = Proxy::new();
        let firings = proxy.observe(&Observation {
            from: "AS1000".into(),
            to: "AS200".into(),
            message: BgpMessage::Withdraw { prefix: "p".into() },
        });
        assert!(firings.is_empty());
    }

    #[test]
    fn observe_batch_matches_sequential_observation() {
        let obs = [
            announce("AS1000", "AS200", "p1", &["AS1000"]),
            announce("AS1000", "AS200", "p2", &["AS1000"]),
        ];
        let mut sequential = Proxy::new();
        let expected: Vec<Firing> = obs
            .iter()
            .flat_map(|o| sequential.observe(o).into_iter().collect::<Vec<_>>())
            .collect();
        let mut batched = Proxy::new();
        assert_eq!(batched.observe_batch(&obs), expected);
        assert_eq!(batched.unmatched_outputs, sequential.unmatched_outputs);
    }

    #[test]
    fn custom_rules_can_be_supplied() {
        // A stricter rule that additionally requires the next hop to match.
        let src = "br2 outputRoute(@AS,To,Prefix,R2) ?- inputRoute(@AS,From,Prefix,R1), \
                   f_isExtend(R2,R1,AS) == 1, f_size(R2) < 4.";
        let mut proxy = Proxy::with_rules(src).unwrap();
        assert_eq!(proxy.maybe_rules().len(), 1);
        proxy.observe(&announce("AS1000", "AS200", "p", &["AS1000"]));
        let firings = proxy.observe(&announce("AS200", "AS100", "p", &["AS200", "AS1000"]));
        assert!(firings.iter().any(|f| f.rule == "br2"));
    }
}
