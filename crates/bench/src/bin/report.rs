//! Print the E2–E8 experiment tables: the shapes the NetTrails demonstration
//! paper shows (how much provenance a protocol produces, what maintaining it
//! costs in state and traffic, what a query costs and what the optimizations
//! save), as deterministic counts on small topologies. No clock is read and
//! no file is written; timings and cross-commit gates are `ntbench`'s
//! (`benchmark/`).
//!
//! ```text
//! cargo run --release -p nettrails-bench --bin report
//! ```

fn main() {
    print!("{}", nettrails_bench::report_text());
}
