//! The engine's output stream, pinned: everything a [`NodeEngine::run`]
//! returns, in order.
//!
//! Engines are driven directly (`common/engine_runs.rs`), as
//! `ready_set_equivalence`'s full-scan loop drives them: every round runs
//! each engine with pending deltas in node order, then hands every shipped
//! record to its destination. A seeded
//! link-down / recover / cost-change trace follows the convergence. Every
//! [`StepOutput`] is digested in order, in two halves: its firings, and
//! everything else — its local changes, each [`DeltaBatch`]'s dictionary and
//! records, and the engines' summed counters at the end. The second half
//! was measured before the generation loop evaluated each trigger where its
//! event replays, and holds it to the stream the plan / evaluate-all / merge
//! loop produced. The firings half moved once since, by design: a remote
//! head's firing is reported by the run that applies its record at the
//! head's home, not by the run that derived it (MINCOST reports 10 fewer:
//! derivations whose record was deduplicated or cancelled before it
//! shipped). The other half did not move with it.
//!
//! Tests that compare multisets, tables or end states do not see the order
//! of one generation's emissions. This one does; it caught two seeded
//! mutations of `NodeEngine::fire_triggers`:
//!
//! * an appearance that runs its monotonic triggers after its aggregate and
//!   negation triggers (three programs fail; in MINCOST no relation triggers
//!   both a monotonic rule and an aggregate);
//! * a disappearance that also fires the monotonic rules its tuple triggers
//!   (all four fail).

#[path = "common/engine_runs.rs"]
mod engine_runs;

use engine_runs::{anchored_with_negation, Observer, ANCHORED};
use nt_runtime::{Addr, EngineStats, StableHasher, StepOutput};
use simnet::Topology;
use std::collections::BTreeSet;

/// The digests of what the engines return.
struct Net {
    /// The firings of every run, in order.
    firings_digest: StableHasher,
    /// Everything else: sends, local changes and the summed counters.
    rest_digest: StableHasher,
    outputs: usize,
    firings: usize,
    /// (rule, insert) of every firing seen.
    fired: BTreeSet<(String, bool)>,
}

impl Observer for Net {
    fn output(&mut self, node: Addr, out: &StepOutput) {
        let run = format!("run at {node:?}, truncated {}", out.truncated);
        let h = &mut self.firings_digest;
        h.write_bytes(run.as_bytes());
        for firing in &out.firings {
            h.write_bytes(format!("{firing:?}").as_bytes());
            self.fired.insert((firing.rule.to_string(), firing.insert));
        }
        let h = &mut self.rest_digest;
        let mut write = |text: String| h.write_bytes(text.as_bytes());
        write(run);
        for change in &out.local_changes {
            write(format!("{change:?}"));
        }
        for batch in &out.sends {
            write(format!("to {:?}: {:?}", batch.dest, batch.dict));
            for record in &batch.records {
                write(format!("{record:?}"));
            }
        }
        self.outputs += 1;
        self.firings += out.firings.len();
    }
}

/// Seed the links (and `anchors`), converge, then converge after each event
/// of the trace. Returns (step outputs, firings, firings digest, digest of
/// the rest with the engines' summed counters); every rule in `rules` must
/// have both derived and retracted.
fn stream(
    source: &str,
    rules: &[&str],
    topology: Topology,
    anchors: &[&str],
    cycles: usize,
    seed: u64,
) -> (usize, usize, u64, u64) {
    let mut net = Net {
        firings_digest: StableHasher::new(),
        rest_digest: StableHasher::new(),
        outputs: 0,
        firings: 0,
        fired: BTreeSet::new(),
    };
    let engines = engine_runs::run(source, topology, anchors, cycles, seed, &mut net);
    let mut total = EngineStats::default();
    for engine in engines.engines.values() {
        let s = engine.stats();
        total.deltas_processed += s.deltas_processed;
        total.rule_firings += s.rule_firings;
        total.retractions += s.retractions;
        total.tuples_sent += s.tuples_sent;
        total.bytes_sent += s.bytes_sent;
        total.dict_bytes_sent += s.dict_bytes_sent;
        total.join_probes += s.join_probes;
        total.agg_recomputes += s.agg_recomputes;
        total.rejected_facts += s.rejected_facts;
    }
    for rule in rules {
        for insert in [true, false] {
            let seen = net.fired.contains(&(rule.to_string(), insert));
            assert!(seen, "{rule} fired with insert = {insert}");
        }
    }
    net.rest_digest.write_bytes(format!("{total:?}").as_bytes());
    let digests = (net.firings_digest.finish(), net.rest_digest.finish());
    (net.outputs, net.firings, digests.0, digests.1)
}

#[test]
fn anchored_path_vectors_keep_their_output_stream() {
    let topology = Topology::internet_as(64, 2, 12);
    let got = stream(ANCHORED, &["sc2", "sc3"], topology, &["as1", "as17"], 8, 12);
    assert_eq!(
        got,
        (1163, 4945, 18061246348975267872, 10419231143314327223)
    );
}

#[test]
fn a_negation_rule_beside_the_aggregate_keeps_its_output_stream() {
    let topology = Topology::internet_as(32, 2, 4242);
    let program = anchored_with_negation();
    let got = stream(
        &program,
        &["sc2", "sc3", "sc4"],
        topology,
        &["as1", "as9"],
        8,
        4242,
    );
    assert_eq!(got, (963, 6900, 5842695896074058102, 14721297936219268721));
}

#[test]
fn mincost_keeps_its_output_stream() {
    let topology = Topology::internet_as(16, 2, 12);
    let got = stream(
        protocols::mincost::PROGRAM,
        &["mc1", "mc2", "mc3"],
        topology,
        &[],
        8,
        12,
    );
    assert_eq!(got, (992, 7120, 1058311804841032527, 6974140624273354749));
}

#[test]
fn pathvector_keeps_its_output_stream() {
    let topology = Topology::internet_as(8, 2, 12);
    let got = stream(
        protocols::pathvector::PROGRAM,
        &["pv1", "pv2", "pv3"],
        topology,
        &[],
        6,
        12,
    );
    assert_eq!(got, (693, 5306, 12567450239744178161, 10694799015187884633));
}
