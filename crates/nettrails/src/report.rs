//! Small reporting helpers shared by the examples and the experiment report.
//!
//! The NetTrails paper is a demonstration, so its "results" are scenario
//! walk-throughs rather than numeric tables; `nettrails-bench`'s `report`
//! binary nevertheless prints every experiment as a table, so the paper's
//! claim and the measured shape can be read side by side. This module holds
//! the tiny table type used for that output.

use std::fmt;

/// One row of an experiment table: a label plus named metric columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRow {
    /// Row label (e.g. a parameter setting such as `n=16` or `caching=on`).
    pub label: String,
    /// (column name, value) pairs, printed in order.
    pub values: Vec<(String, f64)>,
}

impl ExperimentRow {
    /// Create a row.
    pub fn new(label: impl Into<String>) -> Self {
        ExperimentRow {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Add a metric column.
    pub fn with(mut self, column: impl Into<String>, value: f64) -> Self {
        self.values.push((column.into(), value));
        self
    }

    /// Look up a metric by column name.
    pub fn get(&self, column: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(c, _)| c == column)
            .map(|(_, v)| *v)
    }
}

/// A titled table of experiment rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportTable {
    /// Experiment identifier (e.g. `E3 incremental maintenance`).
    pub title: String,
    /// Rows, in presentation order.
    pub rows: Vec<ExperimentRow>,
}

impl ReportTable {
    /// Create an empty table.
    pub fn new(title: impl Into<String>) -> Self {
        ReportTable {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: ExperimentRow) {
        self.rows.push(row);
    }

    /// Column names, in first-seen order.
    pub fn columns(&self) -> Vec<String> {
        let mut cols = Vec::new();
        for row in &self.rows {
            for (c, _) in &row.values {
                if !cols.contains(c) {
                    cols.push(c.clone());
                }
            }
        }
        cols
    }
}

impl fmt::Display for ReportTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let columns = self.columns();
        write!(f, "{:<24}", "case")?;
        for c in &columns {
            write!(f, " {c:>18}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<24}", row.label)?;
            for c in &columns {
                match row.get(c) {
                    Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => {
                        write!(f, " {:>18}", v as i64)?
                    }
                    Some(v) => write!(f, " {v:>18.3}")?,
                    None => write!(f, " {:>18}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_columns_round_trip() {
        let mut table = ReportTable::new("E7 query optimizations");
        table.push(
            ExperimentRow::new("caching=off")
                .with("messages", 42.0)
                .with("bytes", 4200.0),
        );
        table.push(
            ExperimentRow::new("caching=on")
                .with("messages", 7.0)
                .with("latency_ms", 1.5),
        );
        assert_eq!(table.columns(), vec!["messages", "bytes", "latency_ms"]);
        assert_eq!(table.rows[0].get("messages"), Some(42.0));
        assert_eq!(table.rows[1].get("bytes"), None);
        let text = table.to_string();
        assert!(text.contains("E7 query optimizations"));
        assert!(text.contains("caching=on"));
        assert!(text.contains("42"));
        assert!(text.contains("1.500"));
        assert!(text.contains(" -"));
    }
}
