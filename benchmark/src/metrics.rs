//! The metric names of record. `BENCHMARK.json` lists the end-to-end and
//! per-layer sets below (a unit test holds the two together); every later
//! issue quotes these names. Directions and bounds live here and nowhere else
//! in the code: `ntbench agree` judges with these tables.
//!
//! The driver contract wants every end-to-end metric reported, non-zero, by
//! every workload, so [`END_TO_END`] is phrased generically and each workload
//! says which of its own measurements feeds each name — always one of them,
//! never a blend (`Workload::{rate, latency}`, and the README's table). The
//! workload-specific names of ISSUE 12 are [`NAMED`]: every end-to-end run
//! also reports the ones its workload has, in its row and on stderr, and
//! `ntbench agree` compares them like the generic five.

/// How long one run measures, seconds: `run_seconds` of `BENCHMARK.json` and
/// the default of `--seconds`.
pub const RUN_SECONDS: u64 = 18;

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric a run with `--trace 0` reports.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name of record.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the other side's median by which it may get worse.
    pub bound: f64,
    /// A simulated-clock time or a byte count over a fixed block of the
    /// trace: a function of the seed alone, so two runs of one commit and one
    /// seed must agree bit for bit.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

/// An exact metric; across seeds it is held to ISSUE 12's 1 %.
const fn exact(name: &'static str, unit: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound: 0.01,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics of `BENCHMARK.json`, printed by every workload with
/// `--trace 0`; plain wall clock. The two generic wall-clock metrics carry
/// the widest bound the driver contract allows, the [`NAMED`] ones that feed
/// them ISSUE 12's 0.10: `ntbench agree` can answer `unresolved` when the
/// host was noisy, the driver cannot and rejects a benchmark whose spread
/// exceeds its bound, and on this host a quarter of the ten-run series spread by
/// more than 0.10 (README, "Which block a run reports, and the two bounds").
pub const END_TO_END: [EndToEnd; 5] = [
    wall("setup_s", "s", Lower, 0.25),
    wall("ops_per_s", "1/s", Higher, 0.25),
    wall("op_p50_ms", "ms", Lower, 0.25),
    EndToEnd {
        bound: 0.10,
        ..exact("wire_bytes_per_op", "B")
    },
    wall("peak_rss_mb", "MB", Lower, 0.10),
];

/// ISSUE 12's workload-specific end-to-end names. A run reports the ones its
/// workload has; the traced run repeats them under `e2e.` from its product
/// twin.
pub const NAMED: [EndToEnd; 13] = [
    wall("converge_tuples_per_s", "1/s", Higher, 0.10),
    exact("wire_bytes_per_tuple", "B"),
    wall("churn_events_per_s", "1/s", Higher, 0.10),
    wall("churn_event_p50_ms", "ms", Lower, 0.10),
    exact("churn_sim_p99_ms", "sim_ms"),
    wall("query_sessions_per_s", "1/s", Higher, 0.10),
    exact("query_sim_p50_ms", "sim_ms"),
    exact("query_sim_p99_ms", "sim_ms"),
    exact("query_bytes_per_session", "B"),
    wall("snapshot_captures_per_s", "1/s", Higher, 0.10),
    wall("replay_steps_per_s", "1/s", Higher, 0.10),
    exact("stored_bytes_per_user_byte", "ratio"),
    exact("failed_share", "share"),
];

/// The definition of an end-to-end metric, generic or named.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().chain(&NAMED).find(|m| m.name == name)
}

/// Whether `BENCHMARK.json` lists `name`: the result line of a run carries
/// exactly those metrics, the row and stderr also the [`NAMED`] ones.
pub fn in_benchmark_json(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.0 == name)
}

/// One per-layer metric: name, unit, direction.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, reported by every workload with `--trace 1`
/// (0 where a layer is idle). `_s` metrics are summed span self time (wall
/// clock) over the traced run; counts are read from the layer's public stats
/// at its end; `e2e.*` are the [`NAMED`] metrics of the traced run's product
/// twin (0 where the workload does not have one).
pub const PER_LAYER: [PerLayer; 83] = [
    ("ndlog.parse_s", "s", Lower),
    ("runtime.compile_s", "s", Lower),
    ("runtime.engine_run_s", "s", Lower),
    ("runtime.engine_runs", "count", Lower),
    ("runtime.apply_remote_s", "s", Lower),
    ("runtime.remote_records", "count", Lower),
    ("runtime.deltas_processed", "count", Lower),
    ("runtime.rule_firings", "count", Lower),
    ("runtime.retractions", "count", Lower),
    ("runtime.agg_recomputes", "count", Lower),
    ("runtime.join_probes", "count", Lower),
    ("runtime.probes_per_firing", "count", Lower),
    ("runtime.storage_bytes", "B", Lower),
    ("intern.symbols_minted", "count", Lower),
    ("intern.dict_bytes_sent", "B", Lower),
    ("pool.jobs_executed", "count", Higher),
    ("pool.workers", "count", Higher),
    ("simnet.send_s", "s", Lower),
    ("simnet.advance_s", "s", Lower),
    ("simnet.messages", "count", Lower),
    ("simnet.records", "count", Lower),
    ("simnet.bytes", "B", Lower),
    ("simnet.records_per_message", "count", Higher),
    ("provenance.apply_round_s", "s", Lower),
    ("provenance.firings_applied", "count", Lower),
    ("provenance.retractions_applied", "count", Lower),
    ("provenance.prov_entries", "count", Lower),
    ("provenance.rule_execs", "count", Lower),
    ("provenance.store_bytes", "B", Lower),
    ("provenance.maint_bytes", "B", Lower),
    ("provenance.cross_shard_records", "count", Lower),
    ("provenance.query_submit_s", "s", Lower),
    ("provenance.query_poll_s", "s", Lower),
    ("provenance.query_deliver_s", "s", Lower),
    ("provenance.query_frames", "count", Lower),
    ("provenance.query_records", "count", Lower),
    ("provenance.query_dict_bytes", "B", Lower),
    ("provenance.query_visits", "count", Lower),
    ("provenance.query_cache_hits", "count", Higher),
    ("provenance.query_cache_hit_ratio", "share", Higher),
    ("nettrails.new_s", "s", Lower),
    ("nettrails.seed_s", "s", Lower),
    ("nettrails.rounds", "count", Lower),
    ("nettrails.round_self_s", "s", Lower),
    ("nettrails.apply_event_p99_ms", "ms", Lower),
    ("nettrails.capture_snapshot_s", "s", Lower),
    ("nettrails.unattributed_share", "share", Lower),
    ("qsvc.enqueue_s", "s", Lower),
    ("qsvc.pump_s", "s", Lower),
    ("qsvc.self_share", "share", Lower),
    ("qsvc.rejected", "count", Lower),
    ("qsvc.expired", "count", Lower),
    ("qsvc.fairness_ratio", "count", Lower),
    ("logstore.delta_encode_s", "s", Lower),
    ("logstore.append_s", "s", Lower),
    ("logstore.flush_s", "s", Lower),
    ("logstore.reopen_s", "s", Lower),
    ("logstore.get_s", "s", Lower),
    ("logstore.replay_step_s", "s", Lower),
    ("logstore.seek_s", "s", Lower),
    ("logstore.compact_s", "s", Lower),
    ("logstore.uploaded_bytes", "B", Lower),
    ("logstore.storage_bytes", "B", Lower),
    ("logstore.compacted_bytes", "B", Lower),
    ("logstore.durable_vs_mem_replay_x", "count", Lower),
    ("vis.timeline_render_s", "s", Lower),
    ("trace.coverage_share", "share", Higher),
    ("trace.overhead_share", "share", Lower),
    ("trace.ops", "count", Higher),
    ("trace.wall_s", "s", Lower),
    ("e2e.converge_tuples_per_s", "1/s", Higher),
    ("e2e.wire_bytes_per_tuple", "B", Lower),
    ("e2e.churn_events_per_s", "1/s", Higher),
    ("e2e.churn_event_p50_ms", "ms", Lower),
    ("e2e.churn_sim_p99_ms", "sim_ms", Lower),
    ("e2e.query_sessions_per_s", "1/s", Higher),
    ("e2e.query_sim_p50_ms", "sim_ms", Lower),
    ("e2e.query_sim_p99_ms", "sim_ms", Lower),
    ("e2e.query_bytes_per_session", "B", Lower),
    ("e2e.snapshot_captures_per_s", "1/s", Higher),
    ("e2e.replay_steps_per_s", "1/s", Higher),
    ("e2e.stored_bytes_per_user_byte", "ratio", Lower),
    ("e2e.failed_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_f64, parse};
    use crate::workloads::WORKLOADS;
    use serde::Content;

    /// The word `BENCHMARK.json` uses for a direction.
    fn word(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn field<'a>(entry: &'a Content, key: &str) -> &'a str {
        entry
            .map_get(key)
            .and_then(Content::as_str)
            .unwrap_or_else(|| panic!("entry {entry:?} has no {key}"))
    }

    /// `BENCHMARK.json` and this file name the same workloads and metrics,
    /// with the same units, directions and bounds, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.map_get(key)
                .and_then(Content::as_seq)
                .expect(key)
                .to_vec()
        };

        assert_eq!(
            doc.map_get("run_seconds").and_then(as_f64),
            Some(RUN_SECONDS as f64)
        );
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert!(field(entry, "why").len() <= 200);
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), word(m.better));
            assert_eq!(entry.map_get("bound").and_then(as_f64), Some(m.bound));
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), *name);
            assert_eq!(field(entry, "unit"), *unit);
            assert_eq!(field(entry, "better"), word(*better));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&NAMED)
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// The traced run repeats every named metric under `e2e.`, same unit.
    #[test]
    fn every_named_metric_has_its_e2e_twin() {
        for m in &NAMED {
            let twin = format!("e2e.{}", m.name);
            let found = PER_LAYER.iter().find(|p| p.0 == twin);
            assert_eq!(
                found.map(|p| (p.1, p.2)),
                Some((m.unit, m.better)),
                "{twin}"
            );
        }
    }
}
