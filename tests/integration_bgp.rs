//! Integration tests for the legacy-application (BGP) use case.

use bgp::{AsTopology, BgpHarness, TraceEventKind, TraceGenerator};
use provenance::{QueryEngine, QueryKind, QueryOptions, QueryResult};

fn run_harness(seed: u64) -> (BgpHarness, Vec<bgp::TraceEvent>) {
    let topology = AsTopology::generate(2, 4, 8, seed);
    let trace = TraceGenerator {
        prefixes_per_origin: 1,
        churn_events: 5,
        seed,
    }
    .generate(&topology);
    let mut harness = BgpHarness::new(topology);
    harness.run_trace(&trace);
    (harness, trace)
}

#[test]
fn routes_propagate_and_respect_origins() {
    let (harness, trace) = run_harness(21);
    // For every prefix still announced at the end of the trace, any AS that
    // has a route must agree on the origin.
    for event in &trace {
        if event.kind != TraceEventKind::Announce {
            continue;
        }
        let still_announced = trace
            .iter()
            .rfind(|e| e.prefix == event.prefix)
            .map(|e| e.kind == TraceEventKind::Announce)
            .unwrap_or(false);
        if !still_announced {
            continue;
        }
        for asn in harness.topology().ases() {
            if let Some(route) = harness.best_route(asn, &event.prefix) {
                assert_eq!(
                    route.origin(),
                    Some(event.origin.as_str()),
                    "{asn} has a route for {} with the wrong origin",
                    event.prefix
                );
                // AS paths are loop free.
                let mut seen = std::collections::BTreeSet::new();
                for hop in &route.as_path {
                    assert!(seen.insert(hop.clone()), "loop in {:?}", route.as_path);
                }
            }
        }
    }
}

#[test]
fn derivation_histories_reach_the_origin_announcement() {
    let (harness, trace) = run_harness(33);
    let mut qe = QueryEngine::new();
    let mut checked = 0;
    for event in trace.iter().filter(|e| e.kind == TraceEventKind::Announce) {
        for asn in harness.topology().ases().take(6) {
            let Some(target) = harness.fib_tuple(asn, &event.prefix) else {
                continue;
            };
            let (result, _) = qe.query(
                harness.provenance(),
                asn,
                &target,
                QueryKind::BaseTuples,
                &QueryOptions::default(),
            );
            let QueryResult::BaseTuples(bases) = result else {
                panic!()
            };
            if asn == event.origin {
                continue;
            }
            checked += 1;
            assert!(
                bases.iter().any(|(_, t)| t
                    .as_ref()
                    .map(|t| t.values()[0].as_addr() == Some(event.origin.as_str()))
                    .unwrap_or(false)),
                "route at {asn} for {} does not trace back to {}",
                event.prefix,
                event.origin
            );
        }
    }
    assert!(checked > 0, "at least one remote FIB entry was checked");
}

#[test]
fn maybe_rules_attribute_most_transit_announcements() {
    let (harness, _) = run_harness(55);
    let stats = harness.stats();
    assert!(stats.messages > 0);
    assert!(
        stats.maybe_matches > stats.maybe_unmatched,
        "most announcements are re-advertisements and should match br1 \
         ({} matched vs {} unmatched)",
        stats.maybe_matches,
        stats.maybe_unmatched
    );
}

#[test]
fn provenance_state_grows_with_trace_volume() {
    let topology = AsTopology::generate(2, 3, 6, 9);
    let small_trace = TraceGenerator {
        prefixes_per_origin: 1,
        churn_events: 1,
        seed: 9,
    }
    .generate(&topology);
    let big_trace = TraceGenerator {
        prefixes_per_origin: 2,
        churn_events: 10,
        seed: 9,
    }
    .generate(&topology);

    let mut small = BgpHarness::new(topology.clone());
    small.run_trace(&small_trace);
    let mut big = BgpHarness::new(topology);
    big.run_trace(&big_trace);
    assert!(
        big.provenance().stats().rule_execs > small.provenance().stats().rule_execs,
        "more updates -> more provenance"
    );
}
