//! ASCII rendering of a log store's record timeline.
//!
//! The replay slider of the visualizer is backed by the central Log Store's
//! checkpoint/delta record stream. This renders that stream for terminal
//! exploration: one line per record showing its capture time, whether it is
//! a full checkpoint (`C`) or an incremental delta (`Δ`), its upload cost —
//! the length of its encoded payload — and a bar proportional to it, making
//! the incremental savings visible at a glance. The renderer reads the store
//! through [`logstore::LogStore::records`] only, so it works identically
//! over the in-memory and segment-file backends.

use logstore::{LogRecord, LogStore};

/// Render one line per stored record: time, kind, payload bytes, cost bar.
pub fn render_replay_timeline(store: &LogStore) -> String {
    let records = store.records();
    let mut out = format!(
        "log store [{}]: {} records ({} checkpoints, {} deltas), {} bytes uploaded\n",
        store.backend_name(),
        records.len(),
        store.checkpoint_count(),
        store.delta_count(),
        store.uploaded_bytes(),
    );
    let max_bytes = records
        .iter()
        .map(|(_, bytes)| *bytes)
        .max()
        .unwrap_or(0)
        .max(1);
    for (record, bytes) in &records {
        let bar = "#".repeat((bytes * 40).div_ceil(max_bytes).min(40));
        let (tag, label) = match record {
            LogRecord::Checkpoint(s) => ("C", format!("{} nodes", s.nodes.len())),
            LogRecord::Delta(d) => ("Δ", format!("{} node edits", d.nodes.len())),
        };
        out.push_str(&format!(
            "{:>10.3}s {tag} {bytes:>8} B {bar:<40} {label}\n",
            record.time().as_secs_f64()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore::{SnapshotCapturer, SystemSnapshot};
    use simnet::SimTime;

    fn snapshot_at(secs: u64) -> SystemSnapshot {
        SystemSnapshot {
            time: SimTime::from_secs(secs),
            ..Default::default()
        }
    }

    #[test]
    fn timeline_shows_checkpoints_and_deltas() {
        let mut store = LogStore::new();
        let mut capturer = SnapshotCapturer::new(2);
        for secs in 1..=4 {
            store.append_record(capturer.capture(snapshot_at(secs)));
        }
        let rendered = render_replay_timeline(&store);
        assert!(rendered.contains("4 records (2 checkpoints, 2 deltas)"));
        assert!(rendered.contains(" C "));
        assert!(rendered.contains(" Δ "));
        assert!(
            rendered.lines().count() == 5,
            "header + one line per record"
        );
        let drawn: u64 = rendered
            .lines()
            .skip(1)
            .map(|line| {
                line.split_whitespace()
                    .nth(2)
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(
            drawn,
            store.uploaded_bytes(),
            "a bar is its payload's length"
        );
    }

    #[test]
    fn empty_store_renders_a_header_only() {
        let store = LogStore::new();
        let rendered = render_replay_timeline(&store);
        assert!(rendered.contains("0 records"));
        assert_eq!(rendered.lines().count(), 1);
    }
}
