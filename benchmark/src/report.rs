//! Output rows: the host and build fingerprint every row carries, the
//! per-metric summaries, and the files under `benchmark/out/`.

use crate::json::{hex, num, obj, text, tree, uint};
use crate::metrics::{Better, EndToEnd};
use crate::stats::{summarize, Summary};
use nettrails::NetTrailsConfig;
use qsvc::ServiceConfig;
use serde::Content;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `benchmark/out/`, where rows, traces, sets and segment files go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name of record.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Median, quartiles and count of the samples behind the value, when it
    /// is taken from samples.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A metric that is a single measured or counted value.
    pub fn scalar(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            summary: None,
        }
    }

    /// A metric that is the median of samples.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let summary = summarize(samples);
        Metric {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
        }
    }

    /// A wall-clock metric over blocks of identical work: the value of the
    /// fastest block, the highest rate or the lowest latency. What the host's
    /// neighbours do to a block only ever slows it, in bursts of seconds to
    /// tens of seconds, so the fastest of the blocks is the steadiest reading
    /// of the code's own speed a run has (README, "Which block a run
    /// reports"); the median and quartiles over all blocks stay in the row.
    pub fn fastest_block(def: &EndToEnd, samples: &[f64]) -> Self {
        let pick = match def.better {
            Better::Higher => f64::max,
            Better::Lower => f64::min,
        };
        Metric {
            name: def.name,
            unit: def.unit,
            value: samples.iter().copied().reduce(pick).unwrap_or(0.0),
            summary: Some(summarize(samples)),
        }
    }

    /// The full row form: value, unit, and the samples' median and quartiles
    /// with their count.
    pub fn detail(&self) -> Content {
        let mut pairs = vec![("value", num(self.value)), ("unit", text(self.unit))];
        if let Some(s) = self.summary {
            pairs.push(("n", uint(s.n as u64)));
            pairs.push(("q1", num(s.q1)));
            pairs.push(("median", num(s.median)));
            pairs.push(("q3", num(s.q3)));
        }
        obj(pairs)
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), MiB. 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host and build fingerprint: cores, CPU model, compiler, commit and dirty
/// flag (`unknown` outside a git checkout), and the product's default
/// configurations as serialised.
pub fn host_fingerprint() -> Content {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Not above the checkout: a run reads nothing outside it.
    std::env::set_var("GIT_CEILING_DIRECTORIES", repo.join(".."));
    let git = |args: &[&str]| {
        let mut full = vec!["-C", repo.to_str().unwrap_or(".")];
        full.extend_from_slice(args);
        command_line("git", &full)
    };
    let commit = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    obj([
        (
            "nproc",
            uint(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("cpu_model", text(cpu_model())),
        (
            "rustc",
            text(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_commit",
            text(commit.unwrap_or_else(|| "unknown".into())),
        ),
        ("git_dirty", dirty.map_or(text("unknown"), Content::Bool)),
        ("nettrails_config", tree(&NetTrailsConfig::default())),
        ("service_config", tree(&ServiceConfig::default())),
    ])
}

/// The three input digests of a run.
#[derive(Debug, Clone, Copy)]
pub struct Digests {
    /// Sorted nodes and links with costs and latencies.
    pub topology: u64,
    /// Prefix of the churn and query traces.
    pub trace: u64,
    /// Program text and anchors.
    pub program: u64,
}

impl Digests {
    /// As a JSON object of hex strings.
    pub fn content(&self) -> Content {
        obj([
            ("topology_digest", hex(self.topology)),
            ("trace_digest", hex(self.trace)),
            ("program_digest", hex(self.program)),
        ])
    }
}

/// Write `content` pretty-printed to `benchmark/out/<name>`; returns the
/// path.
pub fn write_out(name: &str, content: &Content) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, crate::json::pretty(content))?;
    Ok(path)
}
