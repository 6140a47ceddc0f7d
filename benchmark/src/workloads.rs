//! The five workloads, written once against [`Platform`] so the product run
//! and the layered traced run execute the same operations.
//!
//! Load shape: one process per workload run, one driver thread, closed loop —
//! the next event or wave is issued when the previous one is quiescent.
//! Timed regions are the product calls only (`Instant` around
//! `apply_event`, `wave`, `capture_snapshot`, the log-store calls); trace
//! generation, candidate listing and every correctness check run outside
//! them.
//!
//! Work is grouped in **blocks, and every block of a run does identical
//! work**: a cold convergence of the same network, one pass of a closed link
//! cycle that leaves the topology as it found it, the same uncached waves
//! against the same static network. Blocks of one run therefore differ only
//! by what the host did to them — which only ever slows one — and a run
//! reports its fastest block, plain wall clock (`Metric::fastest_block`); the
//! first block warms caches, dictionaries and the interner and is never
//! counted. Simulated-clock times and byte counts are
//! taken from the second block alone, so they are functions of the seed and
//! repeat bit for bit however many blocks the time budget allowed.

use crate::inputs::{link_cycle, Inputs, Program, QueryGen, Rng, Shape, CHURN_GAP_MS};
use crate::platform::{fingerprint, Platform, WaveRequest};
use crate::spans::Tracer;
use crate::stats::{median, percentile, sorted};
use logstore::{LogRecord, LogStore, Replay, SegmentFileBackend, SnapshotCapturer, SystemSnapshot};
use simnet::{SimTime, TopologyEvent};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Sessions per wave.
pub const WAVE: usize = 256;
/// `SnapshotCapturer` checkpoint period.
pub const CHECKPOINT_EVERY: usize = 4;
/// One session in this many is re-answered in `QueryMode::Local`.
pub const SAMPLE_EVERY: u64 = 16;
/// Seeded `Replay::seek`s in the audited block of `snapshot_replay`.
pub const SEEKS: usize = 4;
/// Blocks every run completes whatever its time budget: warm-up, the block
/// whose bytes are reported, and one more.
pub const MIN_BLOCKS: usize = 3;

/// What a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh cold convergences.
    Converge,
    /// Link churn on a converged network.
    Churn,
    /// Uncached query waves on a static converged network.
    Storm,
    /// Churn cycles each followed by one cached query wave.
    Mixed,
    /// Capture into a durable log store, reopen, replay.
    SnapshotReplay,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it does.
    pub kind: Kind,
    /// Network size and program.
    pub shape: Shape,
    /// Links in one pass of the churn cycle (three events each).
    pub links: usize,
    /// Waves per block.
    pub waves: usize,
    /// The per-block sample `ops_per_s` reports: the workload's primary
    /// rate, one of its own, never a blend of two.
    pub rate: &'static str,
    /// The per-block sample `op_p50_ms` reports: the latency of the
    /// workload's write-side operation.
    pub latency: &'static str,
    /// What `wire_bytes_per_op` counts.
    pub bytes_of: &'static str,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "converge_as",
        kind: Kind::Converge,
        shape: Shape {
            nodes: 2000,
            anchors: 8,
            program: Program::Pathvector,
        },
        links: 0,
        waves: 0,
        rate: "converge_tuples_per_s",
        latency: "converge_ms",
        bytes_of: "protocol + provenance-maintenance bytes per stored tuple",
    },
    Workload {
        name: "churn_as",
        kind: Kind::Churn,
        shape: Shape {
            nodes: 1200,
            anchors: 8,
            program: Program::Pathvector,
        },
        links: 100,
        waves: 0,
        rate: "churn_events_per_s",
        latency: "churn_event_p50_ms",
        bytes_of: "protocol + provenance-maintenance bytes per link event",
    },
    Workload {
        name: "query_storm",
        kind: Kind::Storm,
        shape: Shape {
            nodes: 1200,
            anchors: 8,
            program: Program::Pathvector,
        },
        links: 0,
        waves: 4,
        rate: "query_sessions_per_s",
        latency: "query_wave_ms",
        bytes_of: "query-plane bytes per session",
    },
    Workload {
        name: "churn_query_mixed",
        kind: Kind::Mixed,
        shape: Shape {
            nodes: 512,
            anchors: 6,
            program: Program::Mixed,
        },
        links: 64,
        waves: 4,
        rate: "query_sessions_per_s",
        latency: "churn_event_p50_ms",
        bytes_of: "query-plane bytes per cached session",
    },
    Workload {
        name: "snapshot_replay",
        kind: Kind::SnapshotReplay,
        shape: Shape {
            nodes: 8,
            anchors: 4,
            program: Program::Pathvector,
        },
        links: 4,
        waves: 0,
        rate: "replay_steps_per_s",
        latency: "capture_record_ms",
        bytes_of: "segment-file bytes per record",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How long a driver runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole blocks until this many seconds have passed (and at least
    /// [`MIN_BLOCKS`]).
    Seconds(f64),
    /// Exactly this many blocks (dry runs, and the product twin of a traced
    /// run).
    Blocks(usize),
}

/// What a driver measured. `samples` hold per-block or per-op values by
/// name, `totals` run-wide sums, `fixed` the values taken from one fixed
/// block of the trace.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Blocks completed.
    pub blocks: usize,
    /// Operations attempted (the denominator of `failed_share`).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Named sample vectors.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Named totals.
    pub totals: BTreeMap<&'static str, f64>,
    /// Simulated-clock times and byte counts of the second block (and of the
    /// audited first block of `snapshot_replay`): functions of the seed alone.
    pub fixed: BTreeMap<&'static str, f64>,
}

impl Measured {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.totals.entry(name).or_default() += value;
    }

    /// Record `value` if the block now running is the second one.
    fn fix(&mut self, name: &'static str, value: f64) {
        if self.blocks == 1 {
            self.fixed.insert(name, value);
        }
    }

    /// The samples recorded under `name` (empty when none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The per-block samples under `name` without the warm-up block.
    pub fn warm(&self, name: &str) -> &[f64] {
        let all = self.get(name);
        if all.len() > 1 {
            &all[1..]
        } else {
            all
        }
    }

    /// The total recorded under `name` (0 when none).
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Close a block of `ops` operations that put `bytes` on the wire (or on
    /// disk).
    fn close_block(&mut self, ops: f64, bytes: f64) {
        self.add("ops", ops);
        self.fix("wire_bytes_per_op", bytes / ops);
        self.blocks += 1;
    }
}

struct BlockLoop {
    budget: Budget,
    started: Instant,
}

impl BlockLoop {
    fn new(budget: Budget) -> Self {
        BlockLoop {
            budget,
            started: Instant::now(),
        }
    }

    fn more(&self, done: usize) -> bool {
        match self.budget {
            Budget::Blocks(n) => done < n,
            Budget::Seconds(s) => done < MIN_BLOCKS || self.started.elapsed().as_secs_f64() < s,
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Generate inputs, build the platform and — unless the workload measures
/// convergence itself — converge it. Returns the wall-clock cost: topology +
/// compile + `new` (+ initial convergence), seconds.
pub fn setup<P: Platform>(
    w: &Workload,
    shape: Shape,
    seed: u64,
    tracer: Tracer,
) -> (Inputs, P, f64) {
    let started = Instant::now();
    let inputs = Inputs::generate(shape, seed);
    let mut p = P::build(&inputs, tracer);
    if w.kind != Kind::Converge {
        p.seed(&inputs);
        let report = p.run_to_fixpoint();
        assert!(
            !report.truncated && report.misrouted == 0,
            "initial convergence of {} failed: {report:?}",
            w.name
        );
    }
    let wall = secs(started);
    (inputs, p, wall)
}

/// `converge_as`: fresh cold convergences of the same inputs, one per block.
/// Returns the last platform, with the tracer threaded through every
/// instance.
pub fn converge<P: Platform>(inputs: &Inputs, budget: Budget, first: P) -> (Measured, P) {
    let mut m = Measured::default();
    let blocks = BlockLoop::new(budget);
    let mut p = first;
    let mut reference: Option<u64> = None;
    loop {
        let t = Instant::now();
        p.seed(inputs);
        let report = p.run_to_fixpoint();
        let wall = secs(t);
        let stats = p.stats();
        let tuples = stats.stored_tuples as f64;
        let bytes = (stats.network.bytes + stats.provenance_traffic.bytes) as f64;
        // Every cold convergence of one input must land in the same state.
        let digest = fingerprint(&p, inputs.result_relations).digest();
        let same = *reference.get_or_insert(digest) == digest;
        m.attempted += 1;
        m.failed += u64::from(report.truncated || report.misrouted > 0 || !same);
        m.add("region_wall_s", wall);
        m.push("converge_tuples_per_s", tuples / wall);
        m.push("converge_ms", wall * 1e3);
        m.fix("wire_bytes_per_tuple", bytes / tuples);
        m.close_block(tuples, bytes);
        if !blocks.more(m.blocks) {
            return (m, p);
        }
        let tracer = std::mem::replace(p.tracer(), Tracer::disabled());
        p = P::build(inputs, tracer);
    }
}

/// The simulated clock of the churn trace: events are [`CHURN_GAP_MS`] apart
/// from where the platform stood at the start.
struct ChurnClock {
    t0: SimTime,
    issued: u64,
}

/// What one pass over a slice of the churn trace took.
struct ChurnPass {
    /// Σ `apply_event` wall, seconds.
    wall: f64,
    /// Wall per event, ms.
    each_ms: Vec<f64>,
    /// Simulated-clock re-convergence time per event, ms.
    sim_ms: Vec<f64>,
}

/// Replay `events`, timing each `apply_event`.
fn churn_events<P: Platform>(
    p: &mut P,
    clock: &mut ChurnClock,
    events: &[TopologyEvent],
    m: &mut Measured,
) -> ChurnPass {
    let mut pass = ChurnPass {
        wall: 0.0,
        each_ms: Vec::with_capacity(events.len()),
        sim_ms: Vec::with_capacity(events.len()),
    };
    for event in events {
        clock.issued += 1;
        p.advance_clock_to(clock.t0 + SimTime::from_millis(CHURN_GAP_MS * clock.issued));
        let sim0 = p.now();
        let t = Instant::now();
        let report = p.apply_event(event);
        let w = secs(t);
        pass.wall += w;
        pass.each_ms.push(w * 1e3);
        pass.sim_ms.push((p.now() - sim0).as_micros() as f64 / 1e3);
        m.attempted += 1;
        m.failed += u64::from(report.truncated || report.misrouted > 0);
    }
    m.add("region_wall_s", pass.wall);
    pass
}

/// The queryable state of the moment: result tuples sorted by display form
/// (so a pick never depends on interner ids) and sorted node names.
struct Candidates {
    targets: Vec<nt_runtime::Tuple>,
    queriers: Vec<String>,
}

fn candidates<P: Platform>(p: &P, inputs: &Inputs) -> Candidates {
    let mut rows = Vec::new();
    for rel in inputs.result_relations {
        for (addr, tuple) in p.relation(rel) {
            rows.push((format!("{} {}", addr.as_str(), tuple), tuple));
        }
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut queriers: Vec<String> = inputs.topology.nodes().map(str::to_string).collect();
    queriers.sort();
    Candidates {
        targets: rows.into_iter().map(|(_, t)| t).collect(),
        queriers,
    }
}

/// One wave of the query trace bound to the current candidates, and which of
/// its sessions are re-answered by the oracle.
struct BoundWave {
    requests: Vec<WaveRequest>,
    sampled: Vec<usize>,
}

fn bind_waves(gen: &mut QueryGen, c: &Candidates, waves: usize, cached: bool) -> Vec<BoundWave> {
    (0..waves)
        .map(|_| {
            let mut sampled = Vec::new();
            let requests = (0..WAVE)
                .map(|i| {
                    let pick = gen.next_pick();
                    if pick.sample_draw.is_multiple_of(SAMPLE_EVERY) {
                        sampled.push(i);
                    }
                    let target = (pick.target_draw % c.targets.len() as u64) as usize;
                    let querier = (pick.querier_draw % c.queriers.len() as u64) as usize;
                    WaveRequest {
                        tenant: pick.tenant,
                        vid: c.targets[target].id(),
                        querier: c.queriers[querier].clone(),
                        kind: pick.kind,
                        traversal: pick.traversal,
                        cached,
                    }
                })
                .collect();
            BoundWave { requests, sampled }
        })
        .collect()
}

/// Offer one wave and time it. Returns the wave's wall.
fn wave<P: Platform>(p: &mut P, wave: &BoundWave, m: &mut Measured) -> f64 {
    let t = Instant::now();
    let sessions = p.wave(&wave.requests);
    let wall = secs(t);
    m.attempted += WAVE as u64;
    m.failed += sessions.iter().filter(|s| s.failed()).count() as u64;
    m.failed += p.oracle_mismatches(&wave.requests, &sessions, &wave.sampled);
    for s in sessions.iter().filter(|s| !s.failed()) {
        m.push("query_sim_ms", s.stats.latency_ms);
        m.add("query_bytes", s.stats.bytes as f64);
        m.add("query_visits", s.stats.vertices_visited as f64);
        m.add("query_cache_hits", s.stats.cache_hits as f64);
        m.add("query_dict_bytes", s.stats.dict_bytes as f64);
    }
    m.add("query_wall_s", wall);
    m.add("region_wall_s", wall);
    m.add(
        "query_rejected",
        sessions.iter().filter(|s| s.rejected).count() as f64,
    );
    m.add(
        "query_expired",
        sessions.iter().filter(|s| s.expired).count() as f64,
    );
    wall
}

/// Where the query counters stood when a block began.
struct QueryMark {
    sessions: usize,
    bytes: f64,
    frame_bytes: u64,
}

impl QueryMark {
    fn take<P: Platform>(p: &P, m: &Measured) -> Self {
        QueryMark {
            sessions: m.get("query_sim_ms").len(),
            bytes: m.total("query_bytes"),
            frame_bytes: p.executor().traffic().bytes,
        }
    }

    /// Close a block of waves that took `wave_wall` seconds: its session
    /// rate, and — if it is the second block — the simulated-clock latency
    /// percentiles and bytes of its sessions.
    fn close<P: Platform>(self, p: &P, m: &mut Measured, offered: f64, wave_wall: f64) {
        m.push("query_sessions_per_s", offered / wave_wall);
        let sim = sorted(&m.get("query_sim_ms")[self.sessions..]);
        m.fix("query_sim_p50_ms", percentile(&sim, 50.0));
        m.fix("query_sim_p99_ms", percentile(&sim, 99.0));
        m.fix(
            "query_bytes_per_session",
            (m.total("query_bytes") - self.bytes) / offered,
        );
        let frame_bytes = (p.executor().traffic().bytes - self.frame_bytes) as f64;
        m.close_block(offered, frame_bytes);
    }
}

/// `churn_as`: each block is one pass of the closed link cycle.
pub fn churn<P: Platform>(w: &Workload, p: &mut P, inputs: &Inputs, budget: Budget) -> Measured {
    let mut m = Measured::default();
    let cycle = link_cycle(inputs, w.links);
    let mut clock = ChurnClock {
        t0: p.now(),
        issued: 0,
    };
    let blocks = BlockLoop::new(budget);
    while blocks.more(m.blocks) {
        let bytes0 = p.wire_bytes();
        let pass = churn_events(p, &mut clock, &cycle, &mut m);
        let events = cycle.len() as f64;
        m.push("churn_events_per_s", events / pass.wall);
        m.push("churn_event_p50_ms", median(&pass.each_ms));
        m.fix("churn_sim_p99_ms", percentile(&sorted(&pass.sim_ms), 99.0));
        m.close_block(events, (p.wire_bytes() - bytes0) as f64);
    }
    m
}

/// `query_storm`: each block is the same `w.waves` uncached waves against the
/// static network.
pub fn storm<P: Platform>(w: &Workload, p: &mut P, inputs: &Inputs, budget: Budget) -> Measured {
    let mut m = Measured::default();
    let c = candidates(p, inputs);
    let waves = bind_waves(&mut QueryGen::new(inputs), &c, w.waves, false);
    let blocks = BlockLoop::new(budget);
    while blocks.more(m.blocks) {
        let mark = QueryMark::take(p, &m);
        let walls: Vec<f64> = waves.iter().map(|bw| wave(p, bw, &mut m)).collect();
        m.push("query_wave_ms", median(&walls) * 1e3);
        mark.close(p, &mut m, (w.waves * WAVE) as f64, walls.iter().sum());
    }
    m
}

/// `churn_query_mixed`: each block is `w.waves` cycles; cycle `c` flaps its
/// share of the link cycle (down, recover, cost back — so the topology is the
/// generated one again) and then runs cached wave `c` over all three result
/// relations. The churn rate and the session rate are reported apart, each
/// over its own time, so one going up while the other goes down shows.
pub fn mixed<P: Platform>(w: &Workload, p: &mut P, inputs: &Inputs, budget: Budget) -> Measured {
    let mut m = Measured::default();
    let cycle = link_cycle(inputs, w.links);
    let per_cycle = cycle.len() / w.waves;
    let c = candidates(p, inputs);
    let waves = bind_waves(&mut QueryGen::new(inputs), &c, w.waves, true);
    let mut clock = ChurnClock {
        t0: p.now(),
        issued: 0,
    };
    let blocks = BlockLoop::new(budget);
    while blocks.more(m.blocks) {
        let mark = QueryMark::take(p, &m);
        let (mut churn_wall, mut wave_wall) = (0.0, 0.0);
        let mut event_ms = Vec::new();
        for (events, bw) in cycle.chunks(per_cycle).zip(&waves) {
            let pass = churn_events(p, &mut clock, events, &mut m);
            churn_wall += pass.wall;
            event_ms.extend(pass.each_ms);
            wave_wall += wave(p, bw, &mut m);
        }
        m.push(
            "churn_events_per_s",
            (per_cycle * w.waves) as f64 / churn_wall,
        );
        m.push("churn_event_p50_ms", median(&event_ms));
        mark.close(p, &mut m, (WAVE * w.waves) as f64, wave_wall);
    }
    m
}

/// A fresh directory under `benchmark/out/` for one run's segment files.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    crate::report::out_dir().join(format!(
        "segments-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Run one log-store (or platform) call as a timed region: a root span in
/// the tracer, an `Instant` for the driver.
fn timed<P: Platform, T>(
    p: &mut P,
    m: &mut Measured,
    span: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let open = p.tracer().enter(span);
    let t = Instant::now();
    let out = f();
    let wall = secs(t);
    p.tracer().exit(open);
    m.add("region_wall_s", wall);
    m.add(span, wall);
    (out, wall)
}

fn open_segments(dir: &Path) -> LogStore {
    LogStore::with_backend(Box::new(
        SegmentFileBackend::open(dir).expect("segment directory opens"),
    ))
}

/// `snapshot_replay`: each block walks the closed link cycle one event at a
/// time, capturing after each event through `SnapshotCapturer::new(4)` into a
/// fresh `SegmentFileBackend` with the product flush policy, flushes, reopens
/// the store from disk and replays it end to end. The in-memory captures are
/// the oracle for every `get(i)` and seek; a `MemBackend` twin gives the
/// memory replay time the durable one is compared with.
pub fn snapshot_replay<P: Platform>(
    w: &Workload,
    p: &mut P,
    inputs: &Inputs,
    budget: Budget,
    audit: bool,
) -> Measured {
    let mut m = Measured::default();
    let dir = scratch_dir();
    let cycle = link_cycle(inputs, w.links);
    let records = cycle.len();
    let mut seek_rng = Rng::new(inputs.seed, 4);
    let mut clock = ChurnClock {
        t0: p.now(),
        issued: 0,
    };
    let blocks = BlockLoop::new(budget);
    while blocks.more(m.blocks) {
        let block_dir = dir.join(format!("blk-{:05}", m.blocks));

        // Phase `capture`.
        let mut durable = open_segments(&block_dir);
        let mut mem = LogStore::new();
        let mut capturer = SnapshotCapturer::new(CHECKPOINT_EVERY);
        let mut captured: Vec<SystemSnapshot> = Vec::new();
        let mut capture_wall = 0.0;
        let mut record_ms = Vec::new();
        for event in &cycle {
            churn_events(p, &mut clock, std::slice::from_ref(event), &mut m);
            let t = Instant::now();
            let snapshot = p.capture_snapshot();
            let wall = secs(t);
            m.add("region_wall_s", wall);
            capture_wall += wall;
            captured.push(snapshot.clone());
            let (record, encode_s): (LogRecord, f64) =
                timed(p, &mut m, "logstore.delta_encode", || {
                    capturer.capture(snapshot)
                });
            mem.append_record(record.clone());
            let ((), append_s) = timed(p, &mut m, "logstore.append", || {
                durable.append_record(record)
            });
            capture_wall += encode_s + append_s;
            record_ms.push((wall + encode_s + append_s) * 1e3);
        }
        let ((), flush_s) = timed(p, &mut m, "logstore.flush", || durable.flush());
        capture_wall += flush_s;
        let uploaded = durable.uploaded_bytes();
        let stored = durable.storage_bytes();
        drop(durable);

        // Phase `replay`, from disk.
        let (mut store, reopen_s) =
            timed(p, &mut m, "logstore.reopen", || open_segments(&block_dir));
        let (mut replay, first_s) = timed(p, &mut m, "logstore.get", || Replay::new(&store));
        let mut replay_wall = reopen_s + first_s;
        let mut steps = 0usize;
        loop {
            let (diff, step_s) = timed(p, &mut m, "logstore.replay_step", || replay.step());
            if diff.is_none() {
                break;
            }
            replay_wall += step_s;
            steps += 1;
        }
        m.attempted += (records + steps) as u64;
        m.failed += u64::from(steps + 1 != records || replay.current() != captured.last());
        if audit && m.blocks == 0 {
            // The first block of a run is audited in full; a durable `get`
            // costs a checkpoint decode (tens of ms today), so later
            // blocks check the replayed end state and the last record only.
            let latest_at = |t: SimTime| captured.iter().rev().find(|s| s.time <= t);
            let first_us = captured[0].time.as_micros();
            let span_us = captured[records - 1].time.as_micros() - first_us;
            m.attempted += SEEKS as u64;
            for _ in 0..SEEKS {
                let t = SimTime::from_micros(first_us + seek_rng.next_u64() % (span_us + 1));
                // `Replay::seek` is `LogStore::at` plus the cursor move.
                timed(p, &mut m, "logstore.seek", || replay.seek(t));
                m.failed += u64::from(replay.current() != latest_at(t));
            }
            drop(replay);
            // Every get(i) from the reopened store must equal the in-memory
            // capture.
            for (i, expect) in captured.iter().enumerate() {
                let (got, _) = timed(p, &mut m, "logstore.get", || store.get(i));
                m.failed += u64::from(got.as_ref() != Some(expect));
            }
            timed(p, &mut m, "vis.timeline_render", || {
                vis::render_replay_timeline(&store)
            });
            let (compaction, _) = timed(p, &mut m, "logstore.compact", || store.compact());
            m.add("storage_bytes", stored as f64);
            m.add("compacted_bytes", compaction.bytes_after as f64);
            m.add("uploaded_bytes", uploaded as f64);
            m.fixed.insert(
                "stored_bytes_per_user_byte",
                compaction.bytes_after as f64 / uploaded as f64,
            );
        } else {
            drop(replay);
        }
        let (got, _) = timed(p, &mut m, "logstore.get", || store.get(records - 1));
        m.failed += u64::from(got.as_ref() != captured.last());
        drop(store);
        std::fs::remove_dir_all(&block_dir).expect("block directory is removable");

        // Memory twin replay, for the durable-vs-memory ratio.
        let t = Instant::now();
        let mut mem_replay = Replay::new(&mem);
        while mem_replay.step().is_some() {}
        m.add("mem_replay_wall_s", secs(t));

        m.push("snapshot_captures_per_s", records as f64 / capture_wall);
        m.push("capture_record_ms", median(&record_ms));
        m.push("replay_steps_per_s", steps as f64 / replay_wall);
        m.close_block(records as f64, stored as f64);
    }
    std::fs::remove_dir_all(&dir).expect("segment directory is removable");
    m
}

/// Run the measured part of `w` on an already set-up platform.
pub fn run<P: Platform>(
    w: &Workload,
    p: P,
    inputs: &Inputs,
    budget: Budget,
    audit: bool,
) -> (Measured, P) {
    let mut p = p;
    let m = match w.kind {
        Kind::Converge => return converge(inputs, budget, p),
        Kind::Churn => churn(w, &mut p, inputs, budget),
        Kind::Storm => storm(w, &mut p, inputs, budget),
        Kind::Mixed => mixed(w, &mut p, inputs, budget),
        Kind::SnapshotReplay => snapshot_replay(w, &mut p, inputs, budget, audit),
    };
    (m, p)
}
