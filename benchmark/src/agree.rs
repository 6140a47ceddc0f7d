//! `ntbench agree <a.json> <b.json>`: do two sets of runs agree?
//!
//! Every (workload, end-to-end metric) pairing — the generic five of
//! `BENCHMARK.json` and the workload's named ones — is judged against the
//! direction and bound `metrics.rs` fixes for it. An exact metric must be
//! bit-equal when the two sets share a seed. A wall-clock metric whose
//! run-to-run inter-quartile spread, in either set, exceeds its bound is
//! `unresolved`, never unchanged; a set with fewer than [`MIN_RUNS`] runs of
//! a workload has no spread and is refused. Otherwise set `b` is `regressed`,
//! `improved` or `unchanged` relative to `a`; between two sets of one commit
//! an improvement beyond the bound is as much a disagreement as a
//! regression. Exit code 0 only when every pairing is equal or unchanged.

use crate::json::{as_f64, parse};
use crate::metrics::{end_to_end, Better};
use crate::stats::summarize;
use serde::Content;
use std::collections::BTreeMap;

/// Runs per workload below which a set has no run-to-run spread to speak of;
/// also the default of `ntbench set --runs`.
pub const MIN_RUNS: usize = 3;

struct Set {
    seed: u64,
    /// Commit the set was measured at; `None` outside a clean git checkout.
    commit: Option<String>,
    /// (workload, metric) → one value per end-to-end run.
    series: BTreeMap<(String, String), Vec<f64>>,
}

fn load(path: &str) -> Result<Set, String> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|s| parse(&s))?;
    let seed = doc
        .map_get("seed")
        .and_then(as_f64)
        .ok_or(format!("{path}: no seed"))? as u64;
    let host = doc.map_get("host");
    let clean = host.and_then(|h| h.map_get("git_dirty")) == Some(&Content::Bool(false));
    let commit = host
        .and_then(|h| h.map_get("git_commit"))
        .and_then(Content::as_str)
        .filter(|_| clean)
        .map(str::to_string);
    let rows = doc
        .map_get("rows")
        .and_then(Content::as_seq)
        .ok_or(format!("{path}: no rows"))?;
    let mut series: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for row in rows {
        if row.map_get("trace").and_then(as_f64) != Some(0.0) {
            continue;
        }
        let workload = row
            .map_get("workload")
            .and_then(Content::as_str)
            .ok_or(format!("{path}: row without workload"))?;
        let metrics = row
            .map_get("metrics")
            .and_then(Content::as_map)
            .ok_or(format!("{path}: row without metrics"))?;
        for (name, detail) in metrics {
            let name = name.as_str().ok_or("metric names are strings")?;
            let value = detail
                .map_get("value")
                .and_then(as_f64)
                .ok_or(format!("{path}: {workload}/{name} has no value"))?;
            series
                .entry((workload.to_string(), name.to_string()))
                .or_default()
                .push(value);
        }
    }
    if let Some(((workload, _), values)) = series.iter().find(|(_, v)| v.len() < MIN_RUNS) {
        return Err(format!(
            "{path}: {} run(s) of {workload}; a set needs {MIN_RUNS} or more for a run-to-run \
             spread (ntbench set --runs {MIN_RUNS})",
            values.len()
        ));
    }
    Ok(Set {
        seed,
        commit,
        series,
    })
}

/// The verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, bit-equal.
    Equal,
    /// Exact metric, differs.
    Differs,
    /// Spread exceeds the bound: the comparison cannot be made.
    Unresolved,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// `b` is better than `a` by more than the bound.
    Improved,
    /// Within the bound, spreads within the bound.
    Unchanged,
}

/// Judge medians `a` → `b` of a metric whose run-to-run spread (the larger
/// of the two sets') is `spread`.
pub fn judge(a: f64, b: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    // `a` is 0 only for `failed_share`, where any failure is a regression.
    let scale = if a == 0.0 { 1.0 } else { a.abs() };
    let worse_by = match better {
        Better::Lower => (b - a) / scale,
        Better::Higher => (a - b) / scale,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compare two set files; prints one line per pairing.
pub fn run(a_path: &str, b_path: &str) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_commit = a.commit.is_some() && a.commit == b.commit;
    let mut bad = 0usize;
    println!(
        "{:<20} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "spread", "bound"
    );
    for ((workload, metric), va) in &a.series {
        let Some(vb) = b.series.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<20} {metric:<28} missing from {b_path}");
            bad += 1;
            continue;
        };
        let def = end_to_end(metric).ok_or(format!("{a_path}: unknown metric {metric}"))?;
        let (sa, sb) = (summarize(va), summarize(vb));
        let spread = sa.spread().max(sb.spread());
        let verdict = if def.exact && a.seed == b.seed {
            let first = va[0].to_bits();
            if va.iter().chain(vb).all(|v| v.to_bits() == first) {
                Verdict::Equal
            } else {
                Verdict::Differs
            }
        } else {
            judge(sa.median, sb.median, spread, def.better, def.bound)
        };
        let agrees = match verdict {
            Verdict::Equal | Verdict::Unchanged => true,
            Verdict::Improved => !same_commit,
            Verdict::Differs | Verdict::Unresolved | Verdict::Regressed => false,
        };
        bad += usize::from(!agrees);
        println!(
            "{workload:<20} {metric:<28} {:>14.4} {:>14.4} {spread:>8.4} {:>6.2}  {}",
            sa.median,
            sb.median,
            def.bound,
            format!("{verdict:?}").to_lowercase()
        );
    }
    for key in b.series.keys().filter(|k| !a.series.contains_key(*k)) {
        println!("{:<20} {:<28} missing from {a_path}", key.0, key.1);
        bad += 1;
    }
    if a.seed != b.seed {
        println!(
            "note: seeds differ ({} vs {}); exact metrics were compared by bound",
            a.seed, b.seed
        );
    }
    if same_commit {
        println!("note: both sets are of one commit; an improvement beyond the bound disagrees");
    }
    println!(
        "{}",
        if bad == 0 {
            "sets agree".to_string()
        } else {
            format!("{bad} pairing(s) disagree")
        }
    );
    Ok(if bad == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(
            judge(100.0, 101.0, 0.2, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 101.0, 0.02, Better::Higher, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert_eq!(
            judge(100.0, 80.0, 0.01, Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(100.0, 80.0, 0.01, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            judge(100.0, 120.0, 0.01, Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(100.0, 120.0, 0.01, Better::Higher, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn any_failure_from_none_is_a_regression() {
        assert_eq!(
            judge(0.0, 0.0, 0.0, Better::Lower, 0.01),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(0.0, 0.02, 0.0, Better::Lower, 0.01),
            Verdict::Regressed
        );
    }

    fn set_file(name: &str, runs: usize, rate: f64) -> String {
        let row = |r: usize| {
            format!(
                r#"{{"workload":"churn_as","trace":0,"metrics":{{"ops_per_s":{{"value":{}}}}}}}"#,
                rate + r as f64
            )
        };
        let rows: Vec<String> = (0..runs).map(row).collect();
        let doc = format!(
            r#"{{"seed":12,"host":{{"git_commit":"abc","git_dirty":false}},"rows":[{}]}}"#,
            rows.join(",")
        );
        let dir = crate::report::out_dir();
        std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
        let path = dir.join(format!("agree-test-{}-{name}", std::process::id()));
        std::fs::write(&path, doc).expect("benchmark/out is writable");
        path.to_str().expect("utf-8 path").to_string()
    }

    #[test]
    fn a_set_without_a_spread_is_refused_and_one_commit_may_not_improve() {
        let (one, a, b, fast) = (
            set_file("one.json", 1, 600.0),
            set_file("a.json", 3, 600.0),
            set_file("b.json", 3, 601.0),
            set_file("fast.json", 3, 900.0),
        );
        assert!(run(&one, &a).is_err(), "one run has no spread");
        assert_eq!(run(&a, &b), Ok(0));
        assert_eq!(run(&a, &fast), Ok(1), "same commit, 50 % faster");
        for path in [one, a, b, fast] {
            std::fs::remove_file(path).expect("test file is removable");
        }
    }
}
