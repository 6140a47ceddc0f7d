//! End-to-end scenario replay: sanity of a full run, the bit-identity
//! contract — a trace replays identically across runs and across engine
//! worker counts — and one golden replay digest per topology family, which
//! is what catches behaviour drift from one commit to the next.

use proptest::prelude::*;
use scenario::{
    run_scenario, run_scenario_with_workers, verify_seed, ScenarioSpec, TopologyFamily,
    WorkloadKind,
};

const SMALL_WORLD: TopologyFamily = TopologyFamily::SmallWorld {
    n: 32,
    k: 4,
    beta_percent: 20,
};

fn small_spec(workload: WorkloadKind, seed: u64) -> ScenarioSpec {
    family_spec(SMALL_WORLD, workload, seed)
}

fn family_spec(family: TopologyFamily, workload: WorkloadKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        family,
        workload,
        seed,
        anchors: 3,
        max_hops: 3,
        churn_steps: 9,
        storm_queries: 6,
    }
}

#[test]
fn a_full_scenario_run_reports_sane_measurements() {
    let spec = small_spec(WorkloadKind::Mixed, 42);
    let outcome = run_scenario(&spec);
    assert_eq!(outcome.nodes, 32);
    assert!(outcome.converge_rounds > 0);
    assert!(
        outcome.converged_tuples > 0,
        "routes derived at convergence"
    );
    assert!(outcome.churn_events > 0);
    assert!(outcome.queries > 0, "storms ran");
    assert_eq!(outcome.queries, outcome.latencies_ms.len());
    assert!(
        outcome.latencies_ms.iter().all(|&l| l >= 0.0),
        "latency is measured off the simulated clock"
    );
    assert!(outcome.p99_ms() >= outcome.p50_ms());
    assert!(outcome.tuples_touched > 0, "churn reached the engines");
    assert!(outcome.sim_ms > 0.0, "the replay consumed simulated time");
    assert!(verify_seed(&spec, &outcome));
}

#[test]
fn storms_measure_nonzero_latency_on_remote_queries() {
    let spec = small_spec(WorkloadKind::Storm, 7);
    let outcome = run_scenario(&spec);
    assert!(outcome.queries >= 3 * 6, "three storm waves");
    assert!(
        outcome.latencies_ms.iter().any(|&l| l > 0.0),
        "some session crossed the wire"
    );
}

/// A replay digest covers the final protocol state, every measured session
/// latency and the simulated-clock counters, and is the same in debug and
/// release builds and on any host. A digest that changes here means the
/// platform's behaviour changed: the PR that changes it must say why.
#[test]
fn every_topology_family_replays_to_its_golden_digest() {
    use TopologyFamily::{FatTree, InternetAs, MobilityMesh};
    use WorkloadKind::{Churn, Mixed, Storm};
    let mesh = MobilityMesh {
        n: 24,
        horizon_secs: 10,
    };
    let golden = [
        (FatTree { k: 4 }, Churn, 0x17e6_0bb0_996e_09a0_u64),
        (InternetAs { n: 48, m: 2 }, Storm, 0xadf7_c0dd_2525_18e3),
        (SMALL_WORLD, Mixed, 0x4afc_9c88_c249_ea3a),
        (mesh, Mixed, 0x964a_3b88_5c58_e4e8),
    ];
    for (family, workload, digest) in golden {
        let spec = family_spec(family, workload, 42);
        let outcome = run_scenario(&spec);
        let name = &outcome.name;
        assert!(verify_seed(&spec, &outcome), "{name}: seed-derived inputs");
        assert!(outcome.queries > 0, "{name}: sessions ran");
        assert!(outcome.p99_ms() >= outcome.p50_ms(), "{name}");
        assert_eq!(
            outcome.replay_digest, digest,
            "{name}: replay digest moved to {:016x}",
            outcome.replay_digest
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn replay_is_bit_identical_across_runs_and_worker_counts(
        seed in any::<u64>(),
        workload_idx in 0usize..3,
    ) {
        let workload = [WorkloadKind::Churn, WorkloadKind::Storm, WorkloadKind::Mixed]
            [workload_idx];
        let spec = small_spec(workload, seed);
        let base = run_scenario(&spec);
        let again = run_scenario(&spec);
        prop_assert_eq!(base.replay_digest, again.replay_digest);
        prop_assert_eq!(&base.latencies_ms, &again.latencies_ms);
        for workers in [2usize, 4] {
            let parallel = run_scenario_with_workers(&spec, workers);
            prop_assert_eq!(
                base.replay_digest,
                parallel.replay_digest,
                "worker count {} must not change the replay",
                workers
            );
            prop_assert_eq!(base.queries, parallel.queries);
            prop_assert_eq!(base.tuples_touched, parallel.tuples_touched);
        }
        prop_assert!(verify_seed(&spec, &base));
    }
}
