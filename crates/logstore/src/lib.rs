//! # logstore — snapshots, the central Log Store and replay
//!
//! "Although NetTrails is designed to execute in a distributed environment,
//! some state needs to be centralized to facilitate the visualization of
//! provenance queries and results. In particular, per-node provenance
//! information and other system state (such as the network topology and
//! bandwidth utilization) can be periodically captured as system snapshots at
//! each node, and then propagated to a central Log Store that resides at the
//! visualization node. These logs are subsequently used for interactive
//! visualization, query, and replay." — NetTrails, Section 2.3.
//!
//! This crate implements exactly that pipeline:
//!
//! * [`NodeSnapshot`] — one node's state at a point in time: its visible
//!   relations, read from its database alone;
//! * [`SystemSnapshot`] — the combined snapshot of every node plus the
//!   topology and the assembled provenance graph;
//! * [`SnapshotDelta`] — the changes between two consecutive captures:
//!   per-node tuple diffs, graph edits, and the topology and traffic
//!   counters when they moved;
//! * [`SnapshotCapturer`] — the capture path that turns full captures into a
//!   checkpoint + delta record stream ([`LogRecord`]);
//! * [`LogBackend`] — the pluggable byte store: [`MemBackend`] (default,
//!   volatile) and [`SegmentFileBackend`] (append-only segment files with
//!   footer indexes, fsync on seal, and truncated-tail recovery on open);
//!   compaction copies payloads byte for byte;
//! * [`LogStore`] — the central store, a thin façade over a backend: it
//!   encodes each record once with the binary codec (`nt_runtime::codec`)
//!   and charges the payload's length as the upload; reads decode payloads
//!   and materialize full snapshots from checkpoint + delta chains. That
//!   codec is the one byte form of every record;
//! * [`Replay`] — iteration over the stored snapshots with per-step diffs
//!   (which tuples appeared / disappeared between consecutive snapshots),
//!   which is what the visualizer's replay slider consumes.
//!
//! ## What a read costs
//!
//! A durable read costs what the bytes it reads cost. The façade keeps one
//! materialization cursor — the snapshot of the last index read — shared by
//! every backend. `get(i)`, `at(t)` and `Replay::seek` that land at or after
//! the cursor on the same checkpoint→delta chain decode only the records in
//! between and apply them forward; any other read decodes its chain's
//! checkpoint and the deltas up to the index, so no read costs more than one
//! chain. `Replay::step` decodes one record: a delta is applied in place and
//! the step's [`SnapshotDiff`] is built from the delta and the tuples it
//! took out; only a step onto a checkpoint compares two snapshots.
//! `append_record` and `compact` drop the cursor. The segment-file backend
//! checks every frame it reads against its checksum, one pass over the
//! bytes; the façade decodes the payload, on every backend, with the binary
//! codec straight into the types: no intermediate tree, each distinct name
//! interned once per record. A relation's tuples are held in `Tuple`'s
//! order, the one canonical order of a snapshot: a capture sorts each table
//! by it, and a delta step re-sorts only the relations it added to, merging
//! by value and handle compares without rendering a tuple.

pub mod backend;
pub mod capture;
pub mod delta;
pub mod fence;
pub mod replay;
pub mod segment;
pub mod snapshot;
pub mod store;

pub use backend::{CompactionStats, LogBackend, LogRecord, MemBackend, RecordKind};
pub use capture::SnapshotCapturer;
pub use delta::{GraphDelta, NodeDelta, SnapshotDelta};
pub use replay::{Replay, SnapshotDiff};
pub use segment::SegmentFileBackend;
pub use snapshot::{NodeSnapshot, SystemSnapshot};
pub use store::LogStore;
