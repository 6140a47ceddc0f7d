//! The two kinds of run of one workload.
//!
//! * [`end_to_end`] — the product through its front doors, no tracing:
//!   repeatability dry runs, set-up (several times, median reported), the
//!   timed run, then the correctness checks.
//! * [`traced`] — the layered round loop with spans, then the product twin
//!   over the same number of blocks, and the comparison of the two end
//!   states. Per-layer metrics only; never an end-to-end number.

use crate::inputs::{trace_digest, Inputs};
use crate::json::{num, obj, text, uint};
use crate::layered::LayeredNet;
use crate::metrics::{END_TO_END, NAMED, PER_LAYER};
use crate::platform::{fingerprint, Platform, Product, WaveDriver};
use crate::report::{peak_rss_mb, Digests, Metric};
use crate::spans::{self, Span, Tracer, NO_PARENT};
use crate::stats::{percentile, sorted, summarize};
use crate::workloads::{run, setup, Budget, Kind, Measured, Workload};
use nt_runtime::Interner;
use serde::Content;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups before the measured part of an end-to-end run (as many again
/// follow it); `setup_s` is the median of them all. At least `SETUP_MIN`; a
/// set-up that takes milliseconds (`converge_as` does not converge in set-up,
/// `snapshot_replay` is small) is repeated until `SETUP_FILL_S` seconds or
/// `SETUP_MAX` repeats have gone into it: the median of five 20 ms samples
/// moved by a third between identical runs.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 200;
const SETUP_FILL_S: f64 = 1.0;

/// Share of `--seconds` the layered loop of a traced run measures for; its
/// product twin (and, for query workloads, the direct-drive baseline) then
/// replays the same number of blocks.
const TRACED_SHARE: f64 = 0.3;

/// Spans written to `trace-<workload>.json` (the aggregate covers them all).
const SPANS_WRITTEN: usize = 20_000;

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Input digests.
    pub digests: Digests,
    /// Blocks measured.
    pub blocks: usize,
    /// Human-readable findings (failed checks, notes).
    pub notes: Vec<String>,
    /// Extra row content (the traced run's self-time table).
    pub extra: Vec<(&'static str, Content)>,
}

fn digests_of(inputs: &Inputs, links: usize) -> Digests {
    Digests {
        topology: inputs.topology_digest,
        trace: trace_digest(inputs, links),
        program: inputs.program_digest,
    }
}

/// A tenth-size run of one block; the digest of the state it ends in.
fn dry_run(w: &Workload, seed: u64) -> u64 {
    let (inputs, p, _) = setup::<Product>(w, w.shape.tenth(), seed, Tracer::disabled());
    let (_, p) = run(w, p, &inputs, Budget::Blocks(1), false);
    fingerprint(&p, inputs.result_relations).digest()
}

/// `converge_as` measures cold convergences with a warm process: one
/// convergence is run and discarded first (it mints the interner's symbols).
fn warm_up<P: Platform>(w: &Workload, inputs: &Inputs, p: P) -> P {
    if w.kind != Kind::Converge {
        return p;
    }
    let (_, mut warmed) = run(w, p, inputs, Budget::Blocks(1), false);
    let tracer = std::mem::replace(warmed.tracer(), Tracer::disabled());
    P::build(inputs, tracer)
}

/// The end-to-end run of `w`.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut notes = Vec::new();
    let mut correct = true;

    // Before timing: the workload at a tenth of its size, twice; the state
    // it ends in must repeat.
    let (first, second) = (dry_run(w, seed), dry_run(w, seed));
    if first != second {
        correct = false;
        notes.push(format!(
            "dry run state digest did not repeat: {first:016x} vs {second:016x}"
        ));
    }

    // Set-up, several times now and as many times again after the run.
    let mut setup_s = Vec::new();
    let mut ready = None;
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_FILL_S)
    {
        drop(ready.take());
        let (inputs, p, wall) = setup::<Product>(w, w.shape, seed, Tracer::disabled());
        setup_s.push(wall);
        ready = Some((inputs, p));
    }
    let (inputs, p) = ready.expect("at least one set-up");
    let p = warm_up(w, &inputs, p);

    let (m, p) = run(w, p, &inputs, Budget::Seconds(seconds), true);

    if matches!(w.kind, Kind::Churn | Kind::Mixed) && !p.matches_recompute(&inputs) {
        correct = false;
        notes.push("result relations differ from a from-scratch recomputation".into());
    }
    if m.failed > 0 {
        correct = false;
        notes.push(format!("{} of {} operations failed", m.failed, m.attempted));
    }
    drop(p);
    let peak_rss_mb = peak_rss_mb();

    // The other half of the set-ups, a run's length after the first: the
    // neighbours' slow phases last seconds to a minute, and a phase that
    // covers every set-up of a run moves its median by the whole 10 - 40 %.
    for _ in 0..setup_s.len() {
        setup_s.push(setup::<Product>(w, w.shape, seed, Tracer::disabled()).2);
    }

    let mut metrics = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::fastest_block(&END_TO_END[1], m.warm(w.rate)),
        Metric::fastest_block(&END_TO_END[2], m.warm(w.latency)),
        Metric::scalar("wire_bytes_per_op", "B", m.fixed["wire_bytes_per_op"]),
        Metric::scalar("peak_rss_mb", "MB", peak_rss_mb),
    ];
    debug_assert!(metrics
        .iter()
        .zip(&END_TO_END)
        .all(|(m, def)| m.name == def.name && m.unit == def.unit));
    metrics.extend(named_metrics(&m));

    Outcome {
        correct,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        digests: digests_of(&inputs, w.links),
        blocks: m.blocks,
        notes,
        extra: vec![
            ("samples", sample_summaries(&m)),
            (
                "blocks_detail",
                obj([
                    ("ops_per_s", series(m.get(w.rate))),
                    ("op_p50_ms", series(m.get(w.latency))),
                ]),
            ),
            (
                "totals",
                obj(m.totals.iter().map(|(name, value)| (*name, num(*value)))),
            ),
        ],
    }
}

/// The [`NAMED`] metrics a run has: wall-clock ones are its fastest warm
/// block's, exact ones come from the run's fixed block.
fn named_metrics(m: &Measured) -> Vec<Metric> {
    NAMED
        .iter()
        .filter_map(|def| {
            if def.name == "failed_share" {
                let share = m.failed as f64 / m.attempted.max(1) as f64;
                Some(Metric::scalar(def.name, def.unit, share))
            } else if let Some(value) = m.fixed.get(def.name) {
                Some(Metric::scalar(def.name, def.unit, *value))
            } else if m.samples.contains_key(def.name) {
                Some(Metric::fastest_block(def, m.warm(def.name)))
            } else {
                None
            }
        })
        .collect()
}

fn series(values: &[f64]) -> Content {
    Content::Seq(values.iter().map(|v| num(*v)).collect())
}

/// Median and quartiles of every named sample vector of a run, for the row.
fn sample_summaries(m: &Measured) -> Content {
    obj(m.samples.iter().map(|(name, values)| {
        let s = summarize(values);
        (
            *name,
            obj([
                ("median", num(s.median)),
                ("q1", num(s.q1)),
                ("q3", num(s.q3)),
                ("n", uint(s.n as u64)),
            ]),
        )
    }))
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The traced run of `w`.
pub fn traced(w: &Workload, seed: u64, budget_s: f64) -> Outcome {
    let mut notes = Vec::new();
    let mut correct = true;
    let started = Instant::now();

    // Warm the process-global interner the way the end-to-end run's set-ups
    // do, so symbol minting is not billed to the first traced block.
    drop(setup::<Product>(w, w.shape, seed, Tracer::disabled()));

    // 1. The layered loop, spans on.
    let (inputs, layered, _) = setup::<LayeredNet>(w, w.shape, seed, Tracer::enabled());
    let mut layered = warm_up(w, &inputs, layered);
    let mark = layered.tracer().spans().len();
    let (lm, mut layered) = run(
        w,
        layered,
        &inputs,
        Budget::Seconds(budget_s * TRACED_SHARE),
        true,
    );
    let layered_state = fingerprint(&layered, inputs.result_relations);
    let layered_stats = layered.stats();
    let storage_bytes = layered.storage_bytes();
    let query_traffic = layered.executor().traffic().clone();
    let tracer = std::mem::replace(layered.tracer(), Tracer::disabled());
    drop(layered);

    // 2. The product twin: same inputs, same number of blocks. Its tracer
    // only ever sees the two service spans per wave and one per capture.
    let (_, product, _) = setup::<Product>(w, w.shape, seed, Tracer::enabled());
    let product = warm_up(w, &inputs, product);
    let (pm, mut product) = run(w, product, &inputs, Budget::Blocks(lm.blocks), true);
    let product_state = fingerprint(&product, inputs.result_relations);
    if layered_state != product_state {
        correct = false;
        notes.push(format!(
            "layer trace diverged from product loop: layered {layered_state:?} vs product {product_state:?}"
        ));
    }
    if lm.failed + pm.failed > 0 {
        correct = false;
        notes.push(format!(
            "{} layered and {} product operations failed",
            lm.failed, pm.failed
        ));
    }
    let fairness = product.fairness_ratio();
    let product_tracer = std::mem::replace(product.tracer(), Tracer::disabled());
    drop(product);

    // 3. Query workloads: the same sessions driven without the service, for
    // `qsvc.self_share`.
    let mut self_share = 0.0;
    if matches!(w.kind, Kind::Storm | Kind::Mixed) {
        let (_, direct, _) = setup::<Product>(w, w.shape, seed, Tracer::disabled());
        let direct = direct.with_wave_driver(WaveDriver::Direct);
        let (dm, direct) = run(w, direct, &inputs, Budget::Blocks(lm.blocks), true);
        if fingerprint(&direct, inputs.result_relations) != product_state {
            correct = false;
            notes.push("direct-drive baseline diverged from the service run".into());
        }
        let (service, bare) = (pm.total("query_wall_s"), dm.total("query_wall_s"));
        self_share = (service - bare) / service;
    }

    // Per-layer numbers.
    let all = tracer.spans();
    let measured = &all[mark..];
    let whole = spans::self_times(all, 0);
    let layer = spans::self_times(all, mark);
    let self_s = |name: &str| layer.get(name).map_or(0.0, |t| seconds(t.self_ns));
    let calls = |name: &str| layer.get(name).map_or(0.0, |t| t.calls as f64);
    let setup_self_s = |name: &str| whole.get(name).map_or(0.0, |t| seconds(t.self_ns));
    let svc = spans::self_times(product_tracer.spans(), 0);
    let svc_s = |name: &str| svc.get(name).map_or(0.0, |t| seconds(t.total_ns));

    let root_ns: u64 = measured
        .iter()
        .filter(|s| s.parent == NO_PARENT && s.name != "op.build")
        .map(Span::duration_ns)
        .sum();
    let traced_wall = lm.total("region_wall_s");
    let product_wall = pm.total("region_wall_s");
    let unattributed_ns: u64 = layer
        .iter()
        .filter(|(name, _)| name.starts_with("op.") || **name == "nettrails.round")
        .map(|(_, t)| t.self_ns)
        .sum();
    let event_ms = sorted(
        &measured
            .iter()
            .filter(|s| s.name == "op.event")
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect::<Vec<_>>(),
    );

    let st = &layered_stats;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let hits = lm.total("query_cache_hits");
    let visits = lm.total("query_visits");
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("ndlog.parse_s", setup_self_s("ndlog.parse"));
    v.insert("runtime.compile_s", setup_self_s("runtime.compile"));
    v.insert("runtime.engine_run_s", self_s("runtime.engine_run"));
    v.insert("runtime.engine_runs", calls("runtime.engine_run"));
    v.insert("runtime.apply_remote_s", self_s("runtime.apply_remote"));
    v.insert("runtime.remote_records", st.engine.tuples_sent as f64);
    v.insert(
        "runtime.deltas_processed",
        st.engine.deltas_processed as f64,
    );
    v.insert("runtime.rule_firings", st.engine.rule_firings as f64);
    v.insert("runtime.retractions", st.engine.retractions as f64);
    v.insert("runtime.agg_recomputes", st.engine.agg_recomputes as f64);
    v.insert("runtime.join_probes", st.engine.join_probes as f64);
    v.insert(
        "runtime.probes_per_firing",
        ratio(st.engine.join_probes as f64, st.engine.rule_firings as f64),
    );
    v.insert("runtime.storage_bytes", storage_bytes as f64);
    v.insert("intern.symbols_minted", Interner::len() as f64);
    v.insert("intern.dict_bytes_sent", st.engine.dict_bytes_sent as f64);
    v.insert("pool.jobs_executed", nt_pool::jobs_executed() as f64);
    v.insert("pool.workers", nt_pool::workers() as f64);
    v.insert("simnet.send_s", self_s("simnet.send"));
    v.insert("simnet.advance_s", self_s("simnet.advance"));
    v.insert("simnet.messages", st.network.messages as f64);
    v.insert("simnet.records", st.network.records as f64);
    v.insert("simnet.bytes", st.network.bytes as f64);
    v.insert(
        "simnet.records_per_message",
        ratio(st.network.records as f64, st.network.messages as f64),
    );
    v.insert("provenance.apply_round_s", self_s("provenance.apply_round"));
    v.insert(
        "provenance.firings_applied",
        st.provenance.firings_applied as f64,
    );
    v.insert(
        "provenance.retractions_applied",
        st.provenance.retractions_applied as f64,
    );
    v.insert("provenance.prov_entries", st.provenance.prov_entries as f64);
    v.insert("provenance.rule_execs", st.provenance.rule_execs as f64);
    v.insert("provenance.store_bytes", st.provenance.bytes as f64);
    v.insert("provenance.maint_bytes", st.provenance_traffic.bytes as f64);
    v.insert(
        "provenance.cross_shard_records",
        st.provenance_sharding.cross_shard_records as f64,
    );
    v.insert(
        "provenance.query_submit_s",
        self_s("provenance.query_submit"),
    );
    v.insert("provenance.query_poll_s", self_s("provenance.query_poll"));
    v.insert(
        "provenance.query_deliver_s",
        self_s("provenance.query_deliver"),
    );
    v.insert("provenance.query_frames", query_traffic.messages as f64);
    v.insert("provenance.query_records", query_traffic.records as f64);
    v.insert("provenance.query_dict_bytes", lm.total("query_dict_bytes"));
    v.insert("provenance.query_visits", visits);
    v.insert("provenance.query_cache_hits", hits);
    v.insert(
        "provenance.query_cache_hit_ratio",
        ratio(hits, hits + visits),
    );
    v.insert("nettrails.new_s", setup_self_s("nettrails.new"));
    v.insert("nettrails.seed_s", setup_self_s("nettrails.seed"));
    v.insert("nettrails.rounds", calls("nettrails.round"));
    v.insert("nettrails.round_self_s", self_s("nettrails.round"));
    v.insert("nettrails.apply_event_p99_ms", percentile(&event_ms, 99.0));
    v.insert(
        "nettrails.capture_snapshot_s",
        self_s("nettrails.capture_snapshot"),
    );
    v.insert(
        "nettrails.unattributed_share",
        ratio(unattributed_ns as f64, root_ns as f64),
    );
    v.insert("qsvc.enqueue_s", svc_s("qsvc.enqueue"));
    v.insert("qsvc.pump_s", svc_s("qsvc.pump"));
    v.insert("qsvc.self_share", self_share);
    v.insert("qsvc.rejected", pm.total("query_rejected"));
    v.insert("qsvc.expired", pm.total("query_expired"));
    v.insert(
        "qsvc.fairness_ratio",
        if pm.total("query_wall_s") > 0.0 {
            fairness
        } else {
            0.0
        },
    );
    for (metric, span) in [
        ("logstore.delta_encode_s", "logstore.delta_encode"),
        ("logstore.append_s", "logstore.append"),
        ("logstore.flush_s", "logstore.flush"),
        ("logstore.reopen_s", "logstore.reopen"),
        ("logstore.get_s", "logstore.get"),
        ("logstore.replay_step_s", "logstore.replay_step"),
        ("logstore.seek_s", "logstore.seek"),
        ("logstore.compact_s", "logstore.compact"),
        ("vis.timeline_render_s", "vis.timeline_render"),
    ] {
        v.insert(metric, self_s(span));
    }
    v.insert("logstore.uploaded_bytes", lm.total("uploaded_bytes"));
    v.insert("logstore.storage_bytes", lm.total("storage_bytes"));
    v.insert("logstore.compacted_bytes", lm.total("compacted_bytes"));
    v.insert(
        "logstore.durable_vs_mem_replay_x",
        ratio(
            pm.total("logstore.replay_step"),
            pm.total("mem_replay_wall_s"),
        ),
    );
    v.insert("trace.coverage_share", ratio(seconds(root_ns), traced_wall));
    v.insert(
        "trace.overhead_share",
        ratio(traced_wall - product_wall, product_wall),
    );
    v.insert("trace.ops", lm.total("ops"));
    v.insert("trace.wall_s", traced_wall);
    // The workload-specific end-to-end names, from the untraced product twin.
    let twin = named_metrics(&pm);
    for (name, _, _) in &PER_LAYER {
        if let Some(named) = name.strip_prefix("e2e.") {
            let value = twin
                .iter()
                .find(|m| m.name == named)
                .map_or(0.0, |m| m.value);
            v.insert(name, value);
        }
    }

    if v["trace.coverage_share"] < 0.95 {
        correct = false;
        notes.push(format!(
            "trace.coverage_share {:.3} is below 0.95",
            v["trace.coverage_share"]
        ));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = *v
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} has no value"));
            Metric::scalar(name, unit, value)
        })
        .collect();

    // Where the time goes: self time per span name over the measured region.
    let self_table = obj(layer.iter().map(|(name, t)| {
        (
            *name,
            obj([
                ("calls", uint(t.calls)),
                ("self_s", num(seconds(t.self_ns))),
                ("total_s", num(seconds(t.total_ns))),
                ("share", num(ratio(t.self_ns as f64, root_ns as f64))),
            ]),
        )
    }));
    let span_rows = Content::Seq(
        measured
            .iter()
            .take(SPANS_WRITTEN)
            .map(|s| {
                obj([
                    ("name", text(s.name)),
                    ("start_ns", uint(s.start_ns)),
                    ("end_ns", uint(s.end_ns)),
                    (
                        "parent",
                        if s.parent == NO_PARENT || (s.parent as usize) < mark {
                            Content::Null
                        } else {
                            uint(s.parent as u64 - mark as u64)
                        },
                    ),
                    ("op_id", uint(s.op_id as u64)),
                ])
            })
            .collect(),
    );
    let trace_file = obj([
        ("workload", text(w.name)),
        ("seed", uint(seed)),
        ("blocks", uint(lm.blocks as u64)),
        ("spans_recorded", uint(measured.len() as u64)),
        (
            "spans_written",
            uint(measured.len().min(SPANS_WRITTEN) as u64),
        ),
        ("traced_wall_s", num(traced_wall)),
        ("product_wall_s", num(product_wall)),
        ("self_time", self_table.clone()),
        ("spans", span_rows),
    ]);
    match crate::report::write_out(&format!("trace-{}.json", w.name), &trace_file) {
        Ok(path) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write the span file: {e}")),
    }
    notes.push(format!(
        "traced run took {:.1} s",
        started.elapsed().as_secs_f64()
    ));

    Outcome {
        correct,
        attempted: lm.attempted + pm.attempted,
        failed: lm.failed + pm.failed,
        metrics,
        digests: digests_of(&inputs, w.links),
        blocks: lm.blocks,
        notes,
        extra: vec![("self_time", self_table)],
    }
}
